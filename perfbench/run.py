#!/usr/bin/env python3
"""Benchmark of the computads kernel and its CLI.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-digests

Run it from the root of a source tree; it imports the kernel from `src/` and
the term oracle from `tests/`, and writes only under `.perfbench-*/` there.

Workloads (see `workloads.py`): `cli` runs one `python -m computads.cli`
subprocess per operation; `enumerate`, `search` and `query` call the kernel
in-process.  Each is a closed loop with one client: the next operation starts
when the previous one has been checked.

`--trace 0` measures: it sets up `SETUP_TRIALS` times (a child process times
the kernel import, then documents and objects are generated and a few
operations warm up) and reports the median as `setup_s`; then it runs
decks of operations, a whole round of decks at a time (a round has every
input variant equally often), until `--seconds` have passed and at least
`MIN_OPS` operations were made.  Latencies are the timed kernel calls only;
preparing inputs and checking answers happens between them.  `ops_per_s` is
completed operations over the summed latencies.  In-process workloads
collect garbage before each operation, outside its latency, so that no
operation pays for, or keeps in memory, what an earlier one left behind.
`peak_rss_mb` is the peak resident set of this process, or for `cli` of the
largest child.

`--trace 1` runs a fixed prefix of the operation sequence (`TRACE_DECKS`
decks, so that counts repeat exactly) twice on freshly set-up inputs: once
plain and once with every public kernel function wrapped (`tracing.py`).  It
reports per-layer calls, self time and share, the named counters, and
`tracing.overhead_frac`, and writes the spans to `.perfbench-out/`.

`--record-digests` runs every operation variant once and rewrites
`digests.json`, the SHA-256 of each canonical answer.  It fails if an answer
misses its known value or differs from its oracle (the enumerated term lists
against `tests/oracles.fixpoint_terms`), so the measured runs check against
digests that were verified and never run an oracle themselves.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Every wrong answer, error,
non-zero exit or timeout counts as failed; `failed / attempted` is the
failed fraction.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli", "enumerate", "search", "query")
MIN_OPS = 100
SETUP_TRIALS = 5
GRACE_S = 60  # a run stops mid-deck this long after --seconds
WARMUP_OPS = {"cli": 2}  # default: every template once
TRACE_DECKS = {"cli": 16, "enumerate": 8, "search": 8, "query": 32}
DIGESTS = os.path.join(HERE, "digests.json")
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import computads.cli, computads.packs, computads.cubical, computads.globular; "
    "print(time.perf_counter() - t)"
)


def _fail_setup(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


if not os.path.isdir(os.path.join(ROOT, "src", "computads")):
    _fail_setup(f"no kernel sources under {os.path.join(ROOT, 'src')}")
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Pool, cache_entries, digest  # noqa: E402


def child(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable] + args,
        cwd=ROOT,
        env=workloads.child_env(ROOT),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
        **kwargs,
    )


# -- the operation sequence ------------------------------------------------------

def decks(templates, workload: str, seed: int):
    """Endless decks: every template once per deck, in a seeded order, each
    with the next variant from a seeded permutation of its pool.  After
    `round_length(templates)` decks every variant of every template has
    come up equally often."""
    rng = random.Random(f"{workload}:{seed}")
    streams: list[list[int]] = [[] for _ in templates]
    while True:
        deck = []
        for i, t in enumerate(templates):
            if not streams[i]:
                perm = list(range(t.variants))
                rng.shuffle(perm)
                streams[i] = perm
            deck.append((t, streams[i].pop()))
        rng.shuffle(deck)
        yield deck


def round_length(templates) -> int:
    return math.lcm(*(t.variants for t in templates))


def op_prefix(templates, workload: str, seed: int, n_decks: int) -> list:
    gen_decks = decks(templates, workload, seed)
    return [op for _ in range(n_decks) for op in next(gen_decks)]


class Checker:
    def __init__(self, workload: str):
        with open(DIGESTS, encoding="utf-8") as fh:
            self.digests = json.load(fh).get(workload, {})

    def __call__(self, template, v: int, result, known: bool = True) -> tuple[str | None, str]:
        """Returns (problem or None, digest of the canonical answer)."""
        d = digest(template.canon(result))
        if known and template.expect is not None:
            problem = template.expect(v, result)
            if problem:
                return f"{template.name}[{v}]: {problem}", d
        want = self.digests.get(template.name, {}).get(str(v))
        if want is None:
            return f"{template.name}[{v}]: no recorded digest", d
        if want != d:
            return f"{template.name}[{v}]: answer digest differs from the recorded one", d
        return None, d


def timed(template, inputs):
    """Run one operation; returns (result, seconds, error)."""
    start = perf_counter()
    try:
        result = template.run(inputs)
    except Exception as exc:  # a kernel failure is a failed operation
        return None, perf_counter() - start, f"{template.name}: {type(exc).__name__}: {exc}"
    return result, perf_counter() - start, None


# -- set-up ------------------------------------------------------------------------

def set_up(workload: str, workdir: str, in_process_cli: bool = False) -> Pool:
    os.makedirs(workdir)
    pool = Pool(workload, workdir, ROOT, in_process_cli=in_process_cli)
    warm = pool.templates[: WARMUP_OPS.get(workload, len(pool.templates))]
    for t in warm:
        t.run(t.prepare(0))
    return pool


def timed_set_up(workload: str, tmpdir: str, trials: int) -> tuple[Pool, list[float]]:
    times = []
    pool = None
    for trial in range(trials):
        pool = None
        gc.collect()
        import_s = float(child(["-c", IMPORT_PROBE]).stdout)
        start = perf_counter()
        pool = set_up(workload, os.path.join(tmpdir, f"setup{trial}"))
        times.append(import_s + perf_counter() - start)
    return pool, times


# -- measured run -------------------------------------------------------------------

def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def measure(workload: str, seed: int, seconds: float, tmpdir: str) -> dict:
    pool, setups = timed_set_up(workload, tmpdir, SETUP_TRIALS)
    check = Checker(workload)
    latencies: list[float] = []
    problems: list[str] = []
    per_round = round_length(pool.templates)
    collect = workload != "cli"
    gc.collect()
    start = perf_counter()
    for n, deck in enumerate(decks(pool.templates, workload, seed), 1):
        for template, v in deck:
            inputs = template.prepare(v)
            if collect:
                gc.collect()
            result, seconds_taken, error = timed(template, inputs)
            latencies.append(seconds_taken)
            if error is None:
                error, _ = check(template, v, result)
            if error:
                problems.append(error)
            del inputs, result
            if perf_counter() - start > seconds + GRACE_S:
                break
        elapsed = perf_counter() - start
        if elapsed > seconds + GRACE_S:
            break
        if n % per_round == 0 and elapsed >= seconds and len(latencies) >= MIN_OPS:
            break
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    ordered = sorted(latencies)
    p90, beyond = percentile(ordered, 0.9)
    completed = len(latencies) - len(problems)
    return {
        "attempted": len(latencies),
        "failed": len(problems),
        "problems": problems,
        "notes": [
            f"{len(latencies)} operations in {perf_counter() - start:.1f} s, "
            f"{beyond} samples beyond p90",
            "setup trials (s): " + ", ".join(f"{s:.4f}" for s in setups),
        ],
        "metrics": {
            "ops_per_s": (completed / sum(latencies), "1/s"),
            "latency_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
            "latency_p90_ms": (p90 * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        },
    }


# -- traced run ----------------------------------------------------------------------

def import_seconds() -> float:
    """Cumulative `-X importtime` of the outermost computads module."""
    proc = child(["-X", "importtime", "-c", "import computads.cli"])
    best = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip().startswith("computads"):
            best = max(best, int(parts[1]))
    return best / 1e6


def floor_ms() -> float:
    start = perf_counter()
    child(["-c", "pass"])
    return (perf_counter() - start) * 1e3


def run_pass(pool, ops, check, tracer=None, known=True):
    """Run ``ops`` once; returns latencies, answer digests, problems and the
    mean cache size read after each operation."""
    latencies, digests, problems, entries = [], [], [], []
    pause = tracer.paused_section if tracer else contextlib.nullcontext
    for i, (template, v) in enumerate(ops):
        with pause():
            inputs = template.prepare(v)
            gc.collect()
        if tracer:
            tracer.op_id = i
        result, seconds_taken, error = timed(template, inputs)
        latencies.append(seconds_taken)
        with pause():
            d = None
            if error is None:
                error, d = check(template, v, result, known=known)
            entries.append(cache_entries(pool.held(inputs)))
        digests.append(d)
        if error:
            problems.append(error)
    return latencies, digests, problems, statistics.mean(entries)


def trace_run(workload: str, seed: int, tmpdir: str) -> dict:
    in_process = workload == "cli"
    check = Checker(workload)
    pool = set_up(workload, os.path.join(tmpdir, "plain"), in_process_cli=in_process)
    ops = op_prefix(pool.templates, workload, seed, TRACE_DECKS[workload])
    plain_lat, plain_digests, problems, _ = run_pass(pool, ops, check)

    pool = set_up(workload, os.path.join(tmpdir, "traced"), in_process_cli=in_process)
    ops = op_prefix(pool.templates, workload, seed, TRACE_DECKS[workload])
    tracer = Tracer()
    tracer.install()
    try:
        lat, traced_digests, traced_problems, entries = run_pass(
            pool, ops, check, tracer=tracer, known=False
        )
    finally:
        tracer.uninstall()
    problems += traced_problems
    for (template, v), a, b in zip(ops, plain_digests, traced_digests):
        if a != b:
            problems.append(f"{template.name}[{v}]: traced answer differs from the plain one")

    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, f"spans-{workload}.txt"))

    total = sum(lat)
    m: dict[str, tuple[float, str]] = {}
    for layer, (calls, self_s) in tracer.layer_totals().items():
        m[f"{layer}.calls"] = (calls, "count")
        m[f"{layer}.self_s"] = (self_s, "s")
        m[f"{layer}.share"] = (self_s / total, "ratio")
    c, t = tracer.counters, tracer.timers
    gluing = c["computad.iso.gluing_checks"]
    m.update(
        {
            "cli.import_s": (statistics.median(import_seconds() for _ in range(3)), "s"),
            "cli.floor_ms": (statistics.median(floor_ms() for _ in range(5)), "ms"),
            "io_json.out_bytes": (pool.cli_bytes if in_process else 0, "B"),
            "io_json.emit_s": (tracer.self_of("cli._emit"), "s"),
            "terms.boundary.calls": (tracer.calls_of("terms.boundary"), "count"),
            "terms.serialize.calls": (tracer.calls_of("terms.serialize"), "count"),
            "monad.terms_out": (c["monad.terms_out"], "count"),
            "monad.terms_per_s": (_rate(c, t, "monad.terms_out"), "1/s"),
            "plex.shapes_out": (c["plex.shapes_out"], "count"),
            "plex.shapes_per_s": (_rate(c, t, "plex.shapes_out"), "1/s"),
            "plex.pserialize.calls": (tracer.calls_of("plex.pserialize"), "count"),
            "computad.iso.calls": (tracer.calls_of("computad.find_isomorphism"), "count"),
            "computad.iso.gluing_checks": (gluing, "count"),
            "computad.iso.useful_ratio": (
                c["computad.iso.bijection_gens"] / gluing if gluing else 0.0,
                "ratio",
            ),
            "computad.colimit.calls": (tracer.calls_of("computad.colimit_var"), "count"),
            "computad.colimit.gens": (c["computad.colimit.gens"], "count"),
            "presheaf.hom.calls": (tracer.calls_of("presheaf.enumerate_hom"), "count"),
            "presheaf.hom.results": (c["presheaf.hom.results"], "count"),
            "factorization.support.calls": (tracer.calls_of("factorization.support"), "count"),
            "algebra.eval.calls": (
                tracer.calls_of("algebra.eval_term") + tracer.calls_of("algebra.eval_in_env"),
                "count",
            ),
            "cache.entries": (entries, "count"),
            "tracing.overhead_frac": (1 - sum(plain_lat) / total, "ratio"),
        }
    )
    return {
        "attempted": len(plain_lat) + len(lat),
        "failed": len(problems),
        "problems": problems,
        "notes": [
            f"{len(ops)} operations per pass; {len(tracer.spans)} spans kept, "
            f"{tracer.dropped} past the cap",
        ],
        "metrics": m,
    }


def _rate(counters, timers, name: str) -> float:
    return counters[name] / timers[name] if timers[name] else 0.0


# -- digests ------------------------------------------------------------------------

def record_digests(tmpdir: str) -> None:
    out: dict[str, dict] = {}
    for workload in WORKLOADS:
        workdir = os.path.join(tmpdir, workload)
        os.makedirs(workdir)
        pool = Pool(workload, workdir, ROOT)
        table = out.setdefault(workload, {})
        for template in pool.templates:
            for v in range(template.variants):
                result, _, error = timed(template, template.prepare(v))
                if error is None and template.expect is not None:
                    error = template.expect(v, result)
                d = digest(template.canon(result)) if error is None else None
                if template.oracle is not None and d != digest(template.oracle(v)):
                    error = error or "answer differs from the oracle's"
                if error:
                    _fail_setup(f"cannot record {workload} {template.name}[{v}]: {error}")
                table.setdefault(template.name, {})[str(v)] = d
        print(f"{workload}: {sum(len(t) for t in table.values())} digests")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- main ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")

    tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.record_digests:
            record_digests(tmpdir)
            return 0
        if args.trace:
            report = trace_run(args.workload, args.seed, tmpdir)
        else:
            report = measure(args.workload, args.seed, args.seconds, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    for problem in report["problems"][:20]:
        print(f"FAILED {problem}")
    for note in report["notes"]:
        print(note)
    attempted, failed = report["attempted"], report["failed"]
    print(f"{args.workload}: failed_frac {failed / attempted:.4f} ({failed} of {attempted})")
    for name, (value, unit) in report["metrics"].items():
        print(f"{args.workload}: {name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
