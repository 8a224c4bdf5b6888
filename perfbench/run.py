"""The reproduction's wall-clock benchmark.

Usage::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Runs repetitions of one workload, each in a fresh process
(``perfbench/rep.py``), until ``--seconds`` of measuring are used up
(at least :data:`MIN_REPS`). Every repetition's output is checked; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

* ``--trace 0``: the end-to-end metrics, medians over the repetitions:
  ``wall_s`` (workload start to verified result), ``setup_s`` (process
  spawn to workload start: imports plus image and module prewarm),
  ``peak_rss_mib`` and ``ok_frac`` (operations that succeeded over those
  attempted).
* ``--trace 1``: one repetition under the per-layer ledger
  (``perfbench/ledger.py``), then untraced repetitions for the
  ``trace.overhead_frac`` baseline; reports every per-layer metric.

All numbers are host time and memory; simulated seconds only enter the
output digests. See ``perfbench/NOTES.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

#: workload and metric names with their units, as ``BENCHMARK.json`` declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
#: untraced repetitions per run at the least, whatever ``--seconds`` says
MIN_REPS = 3
#: one repetition may not take longer than this (seconds)
REP_TIMEOUT = 120.0


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    # No on-disk measurement cache: nothing carries between repetitions.
    env["REPRO_MEASURE_CACHE"] = "off"
    env.pop("PYTHONPATH", None)
    return env


def _crashed(problem: str) -> dict:
    return {"crashed": True, "attempted": 1, "failed": 1, "problems": [problem]}


def run_rep(workload: str, seed: int, trace: bool) -> dict:
    """Run one repetition in a fresh process; returns its report.

    A repetition that crashes or times out is reported as one failed
    operation.
    """
    workdir = HERE / f".work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "rep.py"), workload, str(seed),
           "1" if trace else "0", str(workdir)]
    try:
        spawned = time.monotonic()
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
            timeout=REP_TIMEOUT, text=True,
        )
        ended = time.monotonic()
    except subprocess.TimeoutExpired:
        return _crashed(f"repetition timed out after {REP_TIMEOUT:g} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return _crashed(f"repetition exited with {proc.returncode}")
    report = json.loads(lines[-1])
    report["setup_s"] = report.pop("ready_monotonic") - spawned
    report["rep_s"] = ended - spawned
    return report


def recorded_digest(workload: str, seed: int) -> Optional[str]:
    """The digest recorded for this workload and seed, if there is one.

    ``observed`` runs the same simulation as ``campaign`` and must
    reproduce its digest.
    """
    table = json.loads(DIGESTS.read_text())
    key = "campaign" if workload == "observed" else workload
    return table.get(key, {}).get(str(seed))


def check_reps(workload: str, seed: int, reps: List[dict]) -> List[str]:
    """Output problems across repetitions; empty when every output is right."""
    problems = [p for rep in reps for p in rep["problems"]]
    digests = {rep["digest"] for rep in reps if not rep.get("crashed")}
    if len(digests) > 1:
        problems.append(f"repetitions disagree: digests {sorted(digests)}")
    expected = recorded_digest(workload, seed)
    if expected is not None and digests - {expected}:
        problems.append(f"digest {sorted(digests)} != recorded {expected}")
    for rep in reps:
        if rep.get("leftover_wrappers"):
            problems.append(f"ledger left wrappers: {rep['leftover_wrappers']}")
    return problems


def _failed_ops(rep: dict, correct: bool) -> int:
    # A repetition whose output check fails counts every operation failed.
    return rep["failed"] if correct else rep["attempted"]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    reps: List[dict] = []
    traced = run_rep(workload, seed, trace=True) if trace else None
    min_reps = 1 if trace else MIN_REPS
    while True:
        rep = run_rep(workload, seed, trace=False)
        reps.append(rep)
        if rep.get("crashed"):
            break
        elapsed = time.monotonic() - started
        typical = statistics.median(r["rep_s"] for r in reps)
        if len(reps) >= min_reps and elapsed + typical > seconds:
            break
    checked = reps + ([traced] if traced else [])
    problems = check_reps(workload, seed, checked)
    correct = not problems
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(_failed_ops(r, correct) for r in checked)
    for problem in problems:
        print(f"output check failed: {problem}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed}
    good = [r for r in reps if not r.get("crashed")]
    if trace:
        layers = dict(traced.get("layers", {}))
        if good and layers:
            untraced = statistics.median(r["wall_s"] for r in good)
            layers["trace.overhead_frac"] = layers["trace.wall_s"] / untraced
        result["metrics"] = {
            name: {"value": layers.get(name, 0.0), "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
    else:
        values = {
            name: statistics.median(r[name] for r in good) if good else 0.0
            for name in ("wall_s", "setup_s", "peak_rss_mib")
        }
        values["ok_frac"] = 1.0 - failed / attempted
        result["metrics"] = {
            name: {"value": values[name], "unit": unit}
            for name, unit in E2E_UNITS.items()
        }
    print(f"{workload} seed {seed}: {len(reps)} untraced repetitions", file=sys.stderr)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program to measure at {SRC / 'repro'}", file=sys.stderr)
        return 2
    # Byte-compile up front so no repetition's set-up pays for it.
    compileall.compile_dir(str(SRC), quiet=2)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
