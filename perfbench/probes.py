#!/usr/bin/env python3
"""Cliff probes: the known blow-ups of the kernel, each run once in a child
process with a wall-clock timeout and an address-space limit.

    python3 perfbench/probes.py

Each probe gets `TIMEOUT_S` of wall time and `MEMORY_MB` of address space.
The walks list their generators in chain order (`o0, o1, ..., o10`), as
the test fixtures build them.  Each probe ends as `ok` (with its wall time,
peak resident set and result size), `timeout`, `memory` (the child hit its
address-space limit and raised MemoryError) or `killed`.  The limit is set
inside the child, so the run never reaches the machine's own memory limit.  The results are printed and
written to `.perfbench-out/probes.json`.  They are informational: none of
them feeds the benchmark's gated metrics.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 120
MEMORY_MB = 2048

PROBES = (
    "plexes.kan2.[2].w2",
    "plexes.kan3.[3].w2",
    "nerve_iso.walk11",
    "filtration.walk12",
)


def run_probe(name: str) -> int:
    """Child side: run one probe and print its figures as JSON."""
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import gen
    from computads import computad, io_json, plex
    from computads.packs import sigma_kan
    from workloads import filtration_report

    if name.startswith("plexes."):
        n = int(name[len("plexes.kan")])
        sort, weight = name.split(".")[2], int(name.rsplit(".w", 1)[1])
        sig = sigma_kan(n)
        start = perf_counter()
        size = len(plex.enumerate_polyplexes(sig, sort, weight))
    elif name == "nerve_iso.walk11":
        c = io_json.computad_from_json(gen.walk(11)[0].doc(sort_names=False))
        start = perf_counter()
        size = int(computad.isomorphic(plex.reconstruct_from_nerve(c), c))
    else:
        c = io_json.computad_from_json(gen.walk(12)[0].doc(sort_names=False))
        start = perf_counter()
        size = int(filtration_report(c)["replay_isomorphic"])
    seconds = perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"status": "ok", "seconds": seconds, "peak_rss_mb": peak, "result": size}))
    return 0


def probe(name: str) -> dict:
    start = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", name],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"status": "timeout", "seconds": perf_counter() - start}
    if proc.returncode == 0:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    if "MemoryError" in proc.stderr:
        return {"status": "memory", "seconds": perf_counter() - start}
    return {
        "status": "killed",
        "returncode": proc.returncode,
        "seconds": perf_counter() - start,
        "stderr": proc.stderr[-500:],
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"] and len(argv) == 2 and argv[1] in PROBES:
        limit = MEMORY_MB * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        return run_probe(argv[1])
    if argv:
        sys.stderr.write("usage: python3 perfbench/probes.py\n")
        return 2

    results = {}
    for name in PROBES:
        results[name] = probe(name)
        print(name, json.dumps(results[name]), flush=True)
    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "probes.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {"timeout_s": TIMEOUT_S, "memory_mb": MEMORY_MB, "probes": results},
            fh,
            indent=1,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
