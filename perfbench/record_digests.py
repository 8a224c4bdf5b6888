"""Record the output digests the benchmark checks against.

Usage: ``python3 perfbench/record_digests.py``

Runs one untraced repetition of ``campaign``, ``fleet`` and ``chaos`` for
each of :data:`SEEDS` and writes ``perfbench/digests.json``. ``observed``
is checked against the ``campaign`` digest. If any repetition's output
checks fail, the script exits non-zero and leaves ``digests.json`` as it
was. Re-record only when a change is meant to alter the simulated
results, and say so.
"""

from __future__ import annotations

import json
import sys

from run import DIGESTS, run_rep

#: the seeds whose digests are recorded; seed 2 is the held-out seed
SEEDS = range(1, 13)


def main() -> int:
    table = {}
    bad = 0
    for workload in ("campaign", "fleet", "chaos"):
        table[workload] = {}
        for seed in SEEDS:
            rep = run_rep(workload, seed, trace=False)
            if rep.get("crashed") or rep["problems"]:
                print(f"{workload} seed {seed}: {rep['problems']}", file=sys.stderr)
                bad += 1
                continue
            table[workload][str(seed)] = rep["digest"]
            print(f"{workload} seed {seed}: {rep['digest']}", file=sys.stderr)
    if bad:
        print(f"{bad} repetitions failed; {DIGESTS.name} left unchanged", file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
