"""Typed validation errors raised by the kernel.

Every error carries a human-readable message; the CLI maps KernelError to
exit status 1 and prints the class name together with the message.
"""


class KernelError(Exception):
    """Base class for all validation and typing errors."""


# -- sort categories ---------------------------------------------------------

class DimensionViolation(KernelError):
    """A non-identity face map does not strictly decrease dimension."""


class CompositionGap(KernelError):
    """The composition table is missing or ill-typed on a composable pair."""


class AssociativityFailure(KernelError):
    """The composition table is not associative."""


class UnknownSort(KernelError):
    pass


class UnknownFace(KernelError):
    pass


# -- presheaves ---------------------------------------------------------------

class FunctorialityFailure(KernelError):
    """A presheaf action does not respect the composition table."""


class MissingAction(KernelError):
    pass


class BaseMismatch(KernelError):
    """Two objects live over different sort categories."""


# -- signatures ---------------------------------------------------------------

class ArityDimensionViolation(KernelError):
    """An arity has cells above the dimension of the output sort."""


class BoundaryIllTyped(KernelError):
    pass


class CocycleFailure(KernelError):
    pass


class UnknownSymbol(KernelError):
    pass


# -- computads and terms ------------------------------------------------------

class GluingIllTyped(KernelError):
    pass


class UnknownGenerator(KernelError):
    pass


class SortMismatch(KernelError):
    pass


class IncompatibleArgs(KernelError):
    """An argument family is not a presheaf morphism into terms."""


class EndpointMismatch(KernelError):
    """Morphism composition with mismatched endpoints."""


class NotVarToVar(KernelError):
    pass


# -- algebras -----------------------------------------------------------------

class PartialTable(KernelError):
    pass


class BoundaryConditionFailure(KernelError):
    pass


class DepthExceeded(KernelError):
    """A free-algebra view was asked for a term beyond its depth bound."""


class DocumentTooDeep(KernelError):
    """A JSON document nests deeper than the decoder's recursion limit."""


# -- factorisation ------------------------------------------------------------

class NotMono(KernelError):
    pass


class NotIdempotent(KernelError):
    pass


# -- cofibrancy ---------------------------------------------------------------

class NotCompatible(KernelError):
    pass


# -- example packs ------------------------------------------------------------

class BadIndex(KernelError):
    pass


class BadSubset(KernelError):
    pass


class SideConditionFailure(KernelError):
    """A coherence symbol violates one of its side conditions."""
