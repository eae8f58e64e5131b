"""The contract of the kernel's derived-data caches (``base.memoized``)."""

from computads.base import truncate_category
from computads.cofibrant import disk_computad, sphere_computad
from computads.computad import make_computad
from computads.factorization import support
from computads.monad import enumerate_terms
from computads.plex import classify, enumerate_polyplexes, polyplex_computad
from computads.presheaf import boundary_representable, representable
from computads.terms import var

from fixtures import comp_signature, comp_uv, walk2


def test_repeat_calls_return_the_cached_object():
    c = walk2()
    sig = c.signature
    assert enumerate_terms(c, "a", 2) is enumerate_terms(c, "a", 2)
    assert enumerate_polyplexes(sig, "a", 1) is enumerate_polyplexes(sig, "a", 1)
    p = classify(c, comp_uv())
    assert polyplex_computad(sig, p) is polyplex_computad(sig, p)
    assert support(c, comp_uv()) is support(c, comp_uv())
    # the tables keep the names the benchmark harness counts entries under
    for table in ("_terms_by_depth", "_supp_cache"):
        assert c.__dict__[table]
    for table in ("_pplex_cache", "_rep_cache"):
        assert sig.__dict__[table]


def test_entries_belong_to_their_owner():
    sig = comp_signature()
    gens = {"o": ("p", "q"), "a": ("x",)}
    loop = make_computad(sig, gens, {("x", "s"): var("p"), ("x", "t"): var("p")})
    arrow = make_computad(sig, gens, {("x", "s"): var("p"), ("x", "t"): var("q")})
    assert support(loop, var("x"))["o"] == {"p"}
    assert support(arrow, var("x"))["o"] == {"p", "q"}
    # an equal computad gets its own entry, not one shared by equality
    twin = make_computad(sig, gens, dict(arrow.glue))
    assert twin == arrow
    assert support(twin, var("x")) == support(arrow, var("x"))
    assert support(twin, var("x")) is not support(arrow, var("x"))


def test_representables_are_built_once_per_category_and_signature():
    sig = comp_signature()
    cat = sig.base
    assert representable(cat, "a") is representable(cat, "a")
    assert boundary_representable(cat, "a") is boundary_representable(cat, "a")
    assert disk_computad(sig, "a") is disk_computad(sig, "a")
    assert sphere_computad(sig, "a") is sphere_computad(sig, "a")
    for table in ("_representable_cache", "_boundary_representable_cache"):
        assert cat.__dict__[table]
    for table in ("_disk_cache", "_sphere_cache"):
        assert sig.__dict__[table]
    # a truncated category is a new owner, even where it agrees with cat
    low = truncate_category(cat, 0)
    assert representable(low, "o").cells_at("o") == representable(cat, "o").cells_at("o")
    assert representable(low, "o") is not representable(cat, "o")
    assert boundary_representable(low, "o") is not boundary_representable(cat, "o")
    # so is a second, equal signature
    twin = comp_signature()
    assert twin == sig
    assert disk_computad(twin, "a") == disk_computad(sig, "a")
    assert disk_computad(twin, "a") is not disk_computad(sig, "a")
    assert sphere_computad(twin, "a") is not sphere_computad(sig, "a")
