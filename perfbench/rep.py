"""One repetition of one workload, in the fresh process that runs this file.

Usage: ``python3 perfbench/rep.py WORKLOAD SEED TRACE WORKDIR``

Prints one JSON line: the ``time.monotonic()`` stamp at which set-up
finished (the parent subtracts its spawn stamp to get ``setup_s``), the
workload's wall time, the process's peak RSS, the output digest and
operation counts, and — when ``TRACE`` is 1 — the per-layer ledger.
Engine caches start empty because the process is new, as they do for a
user's ``repro`` invocation.
"""

from __future__ import annotations

import json
import pathlib
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main(argv: list) -> int:
    name, seed, trace, workdir = argv[0], int(argv[1]), argv[2] == "1", pathlib.Path(argv[3])
    run = workloads.WORKLOADS[name]
    workloads.setup()
    ready = time.monotonic()
    report = {"ready_monotonic": ready}
    if trace:
        from ledger import Ledger, leftover_wrappers

        from repro import obs

        with Ledger() as ledger:
            t0 = time.perf_counter()
            outcome = run(seed, workdir)
            wall = time.perf_counter() - t0
        layers = ledger.metrics(wall)
        layers["obs.spans"] = len(obs.tagged_spans())
        report["layers"] = layers
        report["leftover_wrappers"] = leftover_wrappers(ledger)
    else:
        t0 = time.perf_counter()
        outcome = run(seed, workdir)
        wall = time.perf_counter() - t0
    report.update(
        wall_s=wall,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        digest=outcome.digest,
        attempted=outcome.attempted,
        failed=outcome.failed,
        problems=outcome.problems,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
