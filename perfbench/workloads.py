"""The benchmark's four workloads, as decks of operation templates.

A template is one kind of operation with a finite pool of input variants.
Its documents are generated from the variant number alone (see `gen.py`), so
the SHA-256 of every answer can be recorded once (`digests.json`) and checked
on every later run.  The workload seed fixes the order of the operations:
each deck holds every template once, in a seeded order, and each template
walks through seeded permutations of its variants, so that every run sees
each variant about equally often and the cost mix does not depend on the
seed.

`prepare(v)` builds an operation's input outside the timed region;
`run(input)` is the timed call into the kernel, and raises if the operation
fails; `canon(result)` gives the JSON (or, for the CLI, the standard output
bytes) whose digest is checked; `expect(v, result)`, where present, checks
the answer against a known value and returns an error message or None.
`oracle(v)`, where present, computes the canonical answer independently of
the kernel; it is run only when the digests are recorded, which fails
unless the kernel's answer has the oracle's digest, so the measured runs
compare against digests the oracle verified and keep its memory and time
out of their figures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import gen

from computads import (
    algebra,
    cli,
    cofibrant,
    computad,
    factorization,
    io_json,
    monad,
    plex,
    signature,
    terms,
)

CLI_TIMEOUT_S = 60


@dataclass
class Template:
    name: str
    variants: int
    prepare: Callable[[int], object]
    run: Callable[[object], object]
    canon: Callable[[object], object]
    expect: Callable[[int, object], str | None] | None = None
    oracle: Callable[[int], object] | None = None


def digest(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def rng_for(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


# -- canonical forms -----------------------------------------------------------

def _merkle(items, text_of) -> list:
    """Merkle digests: a node's digest covers its own text and its
    children's digests.  Enumerated terms and shapes share their subtrees,
    so this costs one hash per distinct node, where the expanded JSON of a
    list would grow with every repetition.  ``text_of(x, node)`` spells one
    node, with ``node`` giving the digest of a child."""
    memo: dict[int, tuple[str, object]] = {}

    def node(x) -> str:
        hit = memo.get(id(x))
        if hit is not None:
            return hit[0]
        d = hashlib.sha256(text_of(x, node).encode()).hexdigest()
        memo[id(x)] = (d, x)  # holding x keeps its id from being reused
        return d

    return [node(x) for x in items]


def _term_text(t, node) -> str:
    if isinstance(t, terms.Var):
        return f"v({t.gen})"
    return t.symbol + "[" + ",".join(f"{c}={node(u)}" for c, u in t.args) + "]"


def _plex_text(p, node) -> str:
    if isinstance(p, plex.PVar):
        return f"pvar({p.sort})[" + ",".join(f"{f}={node(q)}" for f, q in p.btype) + "]"
    return f"papp({p.sort},{p.symbol})[" + ",".join(f"{c}={node(q)}" for c, q in p.args) + "]"


def terms_json(ts) -> list:
    return _merkle(ts, _term_text)


def plexes_json(ps) -> list:
    return _merkle(ps, _plex_text)


def reps_json(reps) -> list:
    return [
        digest(
            {
                "computad": io_json.computad_to_json(r.computad),
                "universal": signature.term_to_json(r.universal),
            }
        )
        for r in reps
    ]


def homs_json(homs) -> list:
    return [sorted(h.component.items()) for h in homs]


def morphisms_json(ms) -> list:
    return [
        sorted((g, signature.term_to_json(t)) for g, t in m.assign.items()) for m in ms
    ]


def expect_equal(value):
    def check(v, result):
        want = value(v) if callable(value) else value
        return None if result == want else f"expected {want!r}, got {result!r}"

    return check


# -- enumerate: term and shape construction, cold objects ---------------------

def enumerate_templates(pool: "Pool") -> list[Template]:
    from oracles import fixpoint_terms

    out = []

    def term_template(name, sort, depth, make_doc, variants):
        docs = [make_doc(rng_for(name, v)) for v in range(variants)]
        out.append(
            Template(
                name,
                variants,
                lambda v: io_json.computad_from_json(docs[v]),
                lambda c: monad.enumerate_terms(c, sort, depth),
                terms_json,
                oracle=lambda v: terms_json(
                    fixpoint_terms(io_json.computad_from_json(docs[v]), sort, depth)
                ),
            )
        )

    for n, depth in ((6, 3), (10, 4), (14, 3), (14, 4)):
        term_template(f"terms.walk{n}.d{depth}", "a", depth, lambda r, n=n: gen.walk(n, r)[0].doc(), 4)
    term_template(
        "terms.group.d3",
        "*",
        3,
        lambda r: gen.discrete_computad(gen.group_signature(), {"*": sorted(r.sample("xyzuvw", 2))}),
        2,
    )
    term_template(
        "terms.module.d3",
        "V",
        3,
        lambda r: gen.discrete_computad(
            gen.module_signature(), {"R": [r.choice("abc")], "V": [r.choice("uvw")]}
        ),
        2,
    )

    walks6 = [gen.walk(6, rng_for("walk6", v))[0].doc() for v in range(4)]
    out.append(
        Template(
            "term_presheaf.walk6.d3",
            4,
            lambda v: io_json.computad_from_json(walks6[v]),
            lambda c: monad.term_presheaf(c, 3),
            lambda view: io_json.presheaf_to_json(view.presheaf),
        )
    )
    out.append(
        Template(
            "free_algebra.walk6.d3",
            4,
            lambda v: io_json.computad_from_json(walks6[v]),
            lambda c: algebra.free_algebra(c, 3),
            lambda fa: io_json.presheaf_to_json(fa.carrier),
        )
    )

    def shapes(name, sig_doc, cases, reps=False):
        def run(arg):
            sig, sort, weight = arg
            ps = plex.enumerate_polyplexes(sig, sort, weight)
            if reps:
                return [plex.polyplex_computad(sig, p) for p in ps]
            return ps

        out.append(
            Template(
                name,
                len(cases),
                lambda v: (signature.validate_signature(sig_doc),) + cases[v],
                run,
                reps_json if reps else plexes_json,
            )
        )

    shapes("plexes.comp.a", gen.COMP_SIGNATURE, [("a", 3), ("a", 4)])
    shapes("plexes.kan2", pool.kan2(), [("[0]", 1), ("[1]", 1), ("[2]", 1), ("[1]", 2)])
    shapes("plexes.kan3", pool.kan3(), [("[0]", 1), ("[1]", 1), ("[2]", 1), ("[1]", 2)])
    shapes("reps.comp.a.w3", gen.COMP_SIGNATURE, [("a", 3)], reps=True)
    shapes("reps.kan2.w1", pool.kan2(), [("[1]", 1), ("[2]", 1)], reps=True)
    return out


# -- search: backtracking verdicts with known answers -------------------------

def filtration_report(c):
    filt = cofibrant.skeletal_filtration(c)
    replayed = cofibrant.replay_filtration(filt)
    stages = [
        cofibrant.verify_stage_pushout(lo, hi.computad)
        for lo, hi in zip(filt.stages, filt.stages[1:])
    ]
    return {"pushout_checked": stages, "replay_isomorphic": computad.isomorphic(replayed, c)}


SEARCH_VARIANTS = 8


def search_templates(pool: "Pool") -> list[Template]:
    out = []

    def pair_template(name, n, make_other, verdict, variants):
        docs = [
            (gen.walk(n)[0].doc(), make_other(n, rng_for(name, v)).doc())
            for v in range(variants)
        ]
        out.append(
            Template(
                name,
                variants,
                lambda v: tuple(io_json.computad_from_json(d) for d in docs[v]),
                lambda ab: computad.isomorphic(*ab),
                lambda r: r,
                expect_equal(verdict),
            )
        )

    # How long the backtracking takes depends on the shuffled names, so each
    # walk template has SEARCH_VARIANTS shuffles: their costs fill the range
    # densely, and the latency percentiles do not fall into a gap between
    # a few heavy variants.
    for n in (4, 5, 6, 7):
        pair_template(f"iso.walk{n}", n, lambda n, r: gen.walk(n, r)[0], True, SEARCH_VARIANTS)
    for n in (4, 5, 6):
        pair_template(f"noniso.walk{n}", n, gen.broken_walk, False, SEARCH_VARIANTS)

    for n in (4, 5, 6):
        docs = [
            gen.walk(n, rng_for("filtration", n, v))[0].doc() for v in range(SEARCH_VARIANTS)
        ]
        out.append(
            Template(
                f"filtration.walk{n}",
                SEARCH_VARIANTS,
                lambda v, docs=docs: io_json.computad_from_json(docs[v]),
                filtration_report,
                lambda r: r,
                expect_equal({"pushout_checked": [True, True], "replay_isomorphic": True}),
            )
        )

    # Nerve reconstruction of a shuffled walk takes about 2 ms at 9 arrows and
    # about 10 s at 10.  Shorter walks are left out: they would put the
    # median latency in the gap below the 5-arrow templates.
    nerve_docs = [gen.walk(9, rng_for("nerve", 9, v))[0].doc() for v in range(SEARCH_VARIANTS)]
    out.append(
        Template(
            "nerve_iso.walk9",
            SEARCH_VARIANTS,
            lambda v: io_json.computad_from_json(nerve_docs[v]),
            lambda c: computad.isomorphic(plex.reconstruct_from_nerve(c), c),
            lambda r: r,
            expect_equal(True),
        )
    )

    # identities are trivial fibrations; the one-object sub-algebra of a
    # longer chain misses the fillers over the other objects
    tfib_cases = [
        (doc, doc, gen.identity_components(doc), True)
        for doc in (gen.chain_algebra(4), gen.cyclic_group(5))
    ] + [
        (gen.chain_algebra(1), gen.chain_algebra(k), gen.identity_components(gen.chain_algebra(1)), False)
        for k in (3, 4)
    ]

    def load_tfib(v):
        src, dst, comp, _ = tfib_cases[v]
        return io_json.algebra_morphism_from_json({"src": src, "dst": dst, "components": comp})

    out.append(
        Template(
            "check_trivial_fibration",
            len(tfib_cases),
            load_tfib,
            lambda args: cofibrant.check_trivial_fibration(*args),
            lambda r: [r[0], r[1]],
            lambda v, r: None if r[0] == tfib_cases[v][3] else f"verdict {r[0]}",
        )
    )

    for name, docs, counts in (
        ("algebra_morphisms.cyclic", [gen.cyclic_group(n) for n in (2, 3, 4, 5)], [2, 3, 4, 5]),
        ("algebra_morphisms.chain", [gen.chain_algebra(k) for k in (3, 4)], None),
    ):
        out.append(
            Template(
                name,
                len(docs),
                lambda v, docs=docs: (
                    io_json.algebra_from_json(docs[v]),
                    io_json.algebra_from_json(docs[v]),
                ),
                lambda ab: algebra.algebra_morphisms(*ab),
                homs_json,
                None if counts is None else (
                    lambda v, r, counts=counts: None if len(r) == counts[v] else f"{len(r)} endomorphisms"
                ),
            )
        )

    # var-to-var maps from a walk of n arrows into one of m arrows are the
    # m - n + 1 placements of the shorter walk
    sizes = [(2, 4), (3, 4), (3, 5), (4, 5)]
    v2v_docs = [
        (gen.walk(n, rng_for("v2v", v, "src"))[0].doc(), gen.walk(m, rng_for("v2v", v, "dst"))[0].doc())
        for v, (n, m) in enumerate(sizes)
    ]
    out.append(
        Template(
            "enumerate_var_to_var",
            len(sizes),
            lambda v: tuple(io_json.computad_from_json(d) for d in v2v_docs[v]),
            lambda ab: computad.enumerate_var_to_var(*ab),
            morphisms_json,
            lambda v, r: None if len(r) == sizes[v][1] - sizes[v][0] + 1 else f"{len(r)} maps",
        )
    )
    return out


# -- query: lookups on warm, long-lived objects --------------------------------

QUERY_SCENARIOS = 4
QUERY_BATCHES = 4
# A batch makes the same number of calls of each kind: no measured usage
# tells how often each lookup is made, so none is weighted above another.
QUERY_KINDS = (
    "boundary",
    "apply_morphism",
    "support",
    "is_epi",
    "image_factorize",
    "lift_through_mono",
    "classify",
    "eval_term",
)
QUERY_CALLS_PER_KIND = 40


class Scenario:
    """Objects built once and queried by every batch: a walk with its terms
    to depth 3, morphisms into it with their source terms, sub-walk
    inclusions with maps to lift, and the path category of a chain with
    composite terms whose values are known."""

    def __init__(self, index: int):
        rng = rng_for("query", index)
        q, objs, arrs = gen.walk(8, rng)
        self.c = io_json.computad_from_json(q.doc())
        self.arrows = monad.enumerate_terms(self.c, "a", 3)
        self.terms = self.arrows + monad.enumerate_terms(self.c, "o", 3)
        self.morphisms = []
        for _ in range(4):
            m = self._morphism(gen.path_morphism(rng, (q, objs, arrs), 4, 5))
            src_terms = monad.enumerate_terms(m.src, "a", 3) + monad.enumerate_terms(m.src, "o", 0)
            self.morphisms.append((m, src_terms))
        self.lifts = [
            tuple(self._morphism(d) for d in gen.mono_and_map(rng, (q, objs, arrs)))
            for _ in range(3)
        ]
        chain = 5
        self.alg = io_json.algebra_from_json(gen.chain_algebra(chain))
        self.evals = []
        for _ in range(12):
            t, value = gen.chain_term(chain, rng, rng.randint(1, 6))
            self.evals.append((signature.term_from_json(t), value))

    def _morphism(self, doc):
        src = io_json.computad_from_json(doc["src"])
        assign = {e["gen"]: signature.term_from_json(e["term"]) for e in doc["assign"]}
        return computad.make_morphism(src, self.c, assign)

    def held(self) -> list:
        objs = [self.c, self.alg.signature, self.c.signature]
        objs += [m.src for m, _ in self.morphisms] + [rho.src for rho, _ in self.lifts]
        objs += [sigma.src for _, sigma in self.lifts]
        return objs

    def batch(self, b: int) -> list[tuple]:
        rng = rng_for("batch", b)
        calls = []
        for kind in QUERY_KINDS:
            for _ in range(QUERY_CALLS_PER_KIND):
                if kind == "boundary":
                    calls.append((kind, rng.choice(self.arrows), rng.choice(("s", "t"))))
                elif kind in ("support", "classify"):
                    calls.append((kind, rng.choice(self.terms), None))
                elif kind == "apply_morphism":
                    m, src_terms = rng.choice(self.morphisms)
                    calls.append((kind, m, rng.choice(src_terms)))
                elif kind in ("is_epi", "image_factorize"):
                    calls.append((kind, rng.choice(self.morphisms)[0], None))
                elif kind == "lift_through_mono":
                    calls.append((kind,) + rng.choice(self.lifts))
                else:
                    calls.append((kind,) + rng.choice(self.evals))
        rng.shuffle(calls)
        return calls

    def run(self, calls):
        c = self.c
        out = []
        for kind, a, b in calls:
            if kind == "boundary":
                out.append(terms.boundary(c, b, a))
            elif kind == "apply_morphism":
                out.append(computad.apply_morphism(a, b))
            elif kind == "support":
                out.append(factorization.support(c, a))
            elif kind == "is_epi":
                out.append(factorization.is_epi(a))
            elif kind == "image_factorize":
                out.append(factorization.image_factorize(a))
            elif kind == "lift_through_mono":
                out.append(factorization.lift_through_mono(a, b))
            elif kind == "classify":
                out.append(plex.classify(c, a))
            else:
                out.append(algebra.eval_term(self.alg, a))
        return out


def query_canon(calls, results) -> list:
    out = []
    for (kind, _, _), r in zip(calls, results):
        if kind in ("boundary", "apply_morphism"):
            out.append(signature.term_to_json(r))
        elif kind == "support":
            out.append({s: sorted(g) for s, g in r.items()})
        elif kind == "image_factorize":
            pi, middle, _ = r
            out.append([io_json.computad_to_json(middle), morphisms_json([pi])])
        elif kind == "lift_through_mono":
            out.append(None if r is None else morphisms_json([r]))
        elif kind == "classify":
            out.append(io_json.polyplex_to_json(r))
        else:
            out.append(r)
    return out


def query_templates(pool: "Pool") -> list[Template]:
    def expect(v, result):
        calls, values = result
        for (kind, _, want), got in zip(calls, values):
            if kind == "eval_term" and got != want:
                return f"eval_term gave {got!r}, expected {want!r}"
        return None

    out = []
    for s, scenario in enumerate(pool.scenarios):
        out.append(
            Template(
                f"query.s{s}",
                QUERY_BATCHES,
                lambda b, scenario=scenario: scenario.batch(b),
                lambda calls, scenario=scenario: (calls, scenario.run(calls)),
                lambda r: query_canon(*r),
                expect,
            )
        )
    return out


# -- cli: one subprocess per operation -------------------------------------------

def cli_templates(pool: "Pool") -> list[Template]:
    w = pool.write
    variants = 4
    argvs: dict[str, list[list[str]]] = {}
    expected: dict[str, list] = {}

    def add(name, make):
        """``make(v, rng)`` returns (argv, expected) for variant ``v``."""
        argvs[name], expected[name] = [], []
        for v in range(variants):
            argv, want = make(v, rng_for("cli", name, v))
            argvs[name].append(argv)
            expected[name].append(want)

    def check(v, r):
        doc = (
            pool.kan3,
            lambda: gen.pack_signature("grid", [2, 1]),
            lambda: gen.path_morphism(r, gen.walk(6, r), 4, 5),
            lambda: gen.chain_algebra(4),
        )[v]()
        return ["check", w(doc)], None

    add("check", check)
    add("boundary", lambda v, r: (
        ["boundary", "--face", "st"[v % 2], "--term", w(gen.walk_term(6 + v % 4, r))], None))

    def apply(v, r):
        doc = gen.path_morphism(r, gen.walk(6, r), 4, 6)
        src_gens = doc["src"]["generators"]
        gen_name = r.choice(src_gens.get("a") or src_gens["o"])
        return ["apply", "--morphism", w(doc), "--term", w({"term": gen.var(gen_name)})], None

    add("apply", apply)
    add("enumerate", lambda v, r: (
        ["enumerate", "--computad", w(gen.walk(5 + v % 4, r)[0].doc()), "--sort", "a",
         "--depth", str(2 + v % 2)], None))
    add("classify", lambda v, r: (["classify", "--term", w(gen.walk_term(5 + v % 4, r))], None))
    plex_cases = [("comp", "a", 2), ("comp", "a", 3), ("kan2", "[1]", 1), ("kan3", "[1]", 1)]
    sig_docs = {"comp": gen.COMP_SIGNATURE, "kan2": pool.kan2(), "kan3": pool.kan3()}
    add("plexes", lambda v, r: (
        ["plexes", "--sig", w(sig_docs[plex_cases[v][0]]), "--sort", plex_cases[v][1],
         "--max-depth", str(plex_cases[v][2])], None))
    add("nerve", lambda v, r: (
        ["nerve", "--computad", w(
            gen.walk(4 + v, r)[0].doc() if v % 2 else gen.random_quiver(r, 4, 5).doc())], None))
    add("support", lambda v, r: (["support", "--morphism", w(gen.path_morphism(r, gen.walk(6, r), 4, 5))], None))
    add("factorize", lambda v, r: (["factorize", "--morphism", w(gen.path_morphism(r, gen.walk(6, r), 4, 5))], None))
    add("split", lambda v, r: (["split", "--morphism", w(gen.idempotent(r, 3 + v % 4))], None))

    def evaluate(v, r):
        k = 3 + v % 3
        t, value = gen.chain_term(k, r, r.randint(1, 5))
        return ["eval", "--algebra", w(gen.chain_algebra(k)), "--term", w({"term": t})], {"value": value}

    add("eval", evaluate)
    add("filtration", lambda v, r: (
        ["filtration", "--computad", w(gen.walk(3 + v % 4, r)[0].doc())], True))
    cofrep_cases = [
        (gen.chain_algebra(3), 2), (gen.chain_algebra(4), 1),
        (gen.cyclic_group(3), 2), (gen.cyclic_group(5), 1),
    ]
    add("cofrep", lambda v, r: (
        ["cofrep", "--algebra", w(cofrep_cases[v][0]), "--depth", str(cofrep_cases[v][1])], None))

    def tfib(v, r):
        dst = gen.chain_algebra(3 + v % 2)
        src = dst if v < 2 else gen.chain_algebra(1)
        doc = {"src": src, "dst": dst, "components": gen.identity_components(src)}
        return ["check-tfib", "--morphism", w(doc)], v < 2

    add("check-tfib", tfib)
    examples = [
        ["kan", "--dim", "3"], ["grid", "--counts", "2,1"], ["module"],
        ["cat", "--tree", "[[[]],[]]"],
    ]
    add("example", lambda v, r: (["example"] + examples[v], None))

    def expect_for(name):
        def check(v, out):
            want = expected[name][v]
            if want is None:
                return None
            got = json.loads(out)
            if name == "check-tfib":
                got = got["trivial_fibration"]
            if name == "filtration":
                got = got["replay_isomorphic"] and all(s["pushout_checked"] for s in got["stages"])
            return None if got == want else f"answer {got!r}, expected {want!r}"

        return check

    return [
        Template(
            name,
            variants,
            lambda v, name=name: argvs[name][v],
            pool.cli_runner,
            lambda out: out,
            expect_for(name),
        )
        for name in argvs
    ]


def child_env(root: str) -> dict:
    """The environment of a child interpreter that imports the kernel from
    ``root/src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    return env


class CliFailure(Exception):
    pass


def inprocess_cli(argv):
    """``computads.cli.main(argv)`` with its output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(argv)
    return status, buf.getvalue().encode("utf-8")


# -- pools ----------------------------------------------------------------------------

class Pool:
    """What set-up makes for one workload: documents written to the work
    directory, pack signatures, and the query scenarios."""

    def __init__(self, workload: str, workdir: str, root: str, in_process_cli: bool = False):
        self.workdir = workdir
        self._files = 0
        self._packs: dict = {}
        self.root = root
        self.cli_bytes = 0  # output of the in-process CLI runs
        self._in_process_cli = in_process_cli
        self.scenarios = (
            [Scenario(i) for i in range(QUERY_SCENARIOS)] if workload == "query" else []
        )
        self.templates = BUILDERS[workload](self)

    def cli_runner(self, argv) -> bytes:
        """One CLI operation: a `python -m computads.cli` subprocess, or
        `computads.cli.main` in this process for the traced run.  Returns
        its standard output; a non-zero exit status raises."""
        if self._in_process_cli:
            status, out = inprocess_cli(argv)
            self.cli_bytes += len(out)
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "computads.cli"] + argv,
                cwd=self.root,
                env=child_env(self.root),
                capture_output=True,
                timeout=CLI_TIMEOUT_S,
            )
            status, out = proc.returncode, proc.stdout
        if status != 0:
            raise CliFailure(f"exit status {status}")
        return out

    def kan2(self):
        return self._pack("kan", 2)

    def kan3(self):
        return self._pack("kan", 3)

    def _pack(self, which, arg):
        if (which, arg) not in self._packs:
            self._packs[(which, arg)] = gen.pack_signature(which, arg)
        return self._packs[(which, arg)]

    def write(self, doc) -> str:
        path = os.path.join(self.workdir, f"doc{self._files}.json")
        self._files += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def held(self, inputs) -> list:
        """The kernel objects whose caches `cache.entries` reads."""
        if self.scenarios:
            return [o for s in self.scenarios for o in s.held()]
        found = []
        stack = [inputs]
        while stack:
            x = stack.pop()
            if isinstance(x, (tuple, list)):
                stack.extend(x)
            elif isinstance(x, computad.Computad):
                found += [x, x.signature]
            elif isinstance(x, signature.Signature):
                found.append(x)
            elif isinstance(x, algebra.Algebra):
                found.append(x.signature)
        return found


CACHE_ATTRS = ("_terms_by_depth", "_supp_cache", "_pplex_cache", "_rep_cache", "_boundary_cache")


def cache_entries(objects) -> int:
    seen = {}
    for o in objects:
        seen[id(o)] = o
    total = 0
    for o in seen.values():
        for attr in CACHE_ATTRS:
            cache = getattr(o, attr, None)
            if cache is not None:
                total += len(cache)
    return total


BUILDERS = {
    "cli": cli_templates,
    "enumerate": enumerate_templates,
    "search": search_templates,
    "query": query_templates,
}
