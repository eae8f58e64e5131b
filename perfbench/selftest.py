#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py [workload ...]

Checks, for each workload (all four by default):
  - the same seed gives the same operation sequence and the same answer
    digests, on freshly set-up inputs, and another seed gives another
    sequence;
  - a traced run gives the same answers as the plain run (`trace_run` counts
    every difference as a failure) and fails nothing;
  - two traced runs with the same seed, each its own `run.py --trace 1`
    process with its own `PYTHONHASHSEED`, give exactly the same counts;
  - a short measured run fails nothing.
Exits with status 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

EXACT = ("monad.terms_out", "plex.shapes_out", "computad.iso.gluing_checks")


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def answers(workload: str, seed: int, tmpdir: str) -> tuple[list, list]:
    pool = run.set_up(workload, tmpdir)
    ops = run.op_prefix(pool.templates, workload, seed, 2)
    check = run.Checker(workload)
    digests = []
    for template, v in ops:
        result, _, error = run.timed(template, template.prepare(v))
        if error is None:
            error, d = check(template, v, result)
        if error:
            fail(f"{workload}: {error}")
        digests.append(d)
    return [(t.name, v) for t, v in ops], digests


def traced_counts(workload: str, hash_seed: str) -> dict:
    """Counts of a `run.py --trace 1` process; fails on any failed check."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--trace", "1"],
        cwd=run.ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        fail(f"{workload}: traced run exited with {proc.returncode}: {proc.stderr[-500:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if report["failed"] or not report["correct"]:
        fail(f"{workload}: traced run failed {report['failed']} operations")
    return {
        name: m["value"]
        for name, m in report["metrics"].items()
        if name.endswith(".calls") or name in EXACT
    }


def check_workload(workload: str, tmpdir: str) -> None:
    seq_a, dig_a = answers(workload, 7, os.path.join(tmpdir, "a"))
    seq_b, dig_b = answers(workload, 7, os.path.join(tmpdir, "b"))
    seq_c, _ = answers(workload, 8, os.path.join(tmpdir, "c"))
    if seq_a != seq_b or dig_a != dig_b:
        fail(f"{workload}: seed 7 gave two different sequences or answers")
    if seq_a == seq_c:
        fail(f"{workload}: seeds 7 and 8 gave the same sequence")
    print(f"ok {workload}: sequence and digests repeat per seed ({len(seq_a)} ops)")

    first = traced_counts(workload, "1")
    second = traced_counts(workload, "2")
    if first != second:
        diff = {k: (v, second[k]) for k, v in first.items() if v != second[k]}
        fail(f"{workload}: traced counts differ between runs: {diff}")
    print(f"ok {workload}: traced answers match plain ones; counts repeat across processes")

    report = run.measure(workload, 7, 1, os.path.join(tmpdir, "m"))
    if report["failed"]:
        fail(f"{workload}: measured run: {report['problems'][:3]}")
    print(f"ok {workload}: failed_frac 0 over {report['attempted']} operations")


def main(argv: list[str]) -> int:
    tmpdir = tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=run.ROOT)
    try:
        for workload in argv or run.WORKLOADS:
            check_workload(workload, os.path.join(tmpdir, workload))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
