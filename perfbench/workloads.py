"""The benchmark's four workloads: run one, digest its output, check it.

Each workload function takes the seed and a scratch directory and
returns an :class:`Outcome`. The digest covers the output a speed-only
change must reproduce exactly (simulated statistics are deterministic
per seed); the problems list holds every structural output check that
failed. Simulated seconds appear only inside digests and checks, never
as performance numbers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List

#: fleet workload shape: one crun-wamr deployment spread over 32 nodes
FLEET_PODS = 10_000
FLEET_NODES = 32
FLEET_MAX_PODS = max(500, math.ceil(FLEET_PODS / FLEET_NODES))

#: chaos workload shape, as ``repro chaos`` runs it by default
CHAOS_PODS = 400
CHAOS_RATE = 0.25


@dataclass
class Outcome:
    """What one workload run produced, reduced to what the benchmark checks."""

    digest: str
    #: operations: pods brought to Running and ready, plus each claim
    #: check, invariant or export check
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def count(self, ok: bool, what: str) -> None:
        """Count one checked operation; a failed one is also a problem."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def count_pods(self, total: int, ready: int, what: str) -> None:
        self.attempted += total
        self.failed += total - ready
        if ready != total:
            self.problems.append(f"{what}: {ready}/{total} pods ready")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _measurement_json(m) -> str:
    return json.dumps(dataclasses.asdict(m), sort_keys=True)


def setup() -> None:
    """Imports plus image and module prewarm: what precedes any workload."""
    from repro.measure import campaign, chaos, experiment  # noqa: F401
    from repro.obs import export, timeseries  # noqa: F401
    from repro.measure.pool import prewarm_process_caches

    prewarm_process_caches()


def run_campaign_workload(seed: int, workdir: pathlib.Path) -> Outcome:
    """The paper's §IV: 9 configs × densities 10/100/400, telemetry off."""
    from repro.measure.campaign import render_campaign, run_campaign

    result = run_campaign(seed=seed, jobs=1, cache=None)
    cells = sorted(result.measurements.items())
    out = Outcome(
        digest=_sha(
            render_campaign(result)
            + "".join(_measurement_json(m) for _, m in cells)
        )
    )
    for (config, count), m in cells:
        ready = round(m.ready_fraction * count)
        if any(m.exit_codes):
            ready = 0
        out.count_pods(count, ready, f"{config} n={count}")
    for claim in result.claims:
        out.count(claim.holds, f"claim {claim.claim_id}: {claim.measured}")
    return out


def run_fleet_workload(seed: int, workdir: pathlib.Path) -> Outcome:
    """One 10 000-pod crun-wamr deployment over a 32-node fleet."""
    from repro.measure.experiment import ExperimentRunner

    m = ExperimentRunner(seed=seed).run(
        "crun-wamr", FLEET_PODS, nodes=FLEET_NODES, max_pods=FLEET_MAX_PODS
    )
    out = Outcome(digest=_sha(_measurement_json(m)))
    ready = round(m.ready_fraction * m.count)
    if any(m.exit_codes):
        ready = 0
    out.count_pods(m.count, ready, "fleet")
    out.count(m.nodes == FLEET_NODES, f"fleet spans {m.nodes} nodes")
    return out


def run_chaos_workload(seed: int, workdir: pathlib.Path) -> Outcome:
    """``repro chaos``: 400 pods under the full-lifecycle fault plan."""
    from repro.measure.chaos import run_chaos

    m = run_chaos(count=CHAOS_PODS, seed=seed, rate=CHAOS_RATE)
    report = m.to_dict()
    out = Outcome(digest=_sha(json.dumps(report, sort_keys=True)))
    out.count_pods(m.count, m.ready_pods, "chaos")
    for check in m.invariants:
        out.count(check.passed, f"invariant {check.name}: {check.detail}")
    out.count(m.converged, "chaos converged")
    return out


def run_observed_workload(seed: int, workdir: pathlib.Path) -> Outcome:
    """The campaign with telemetry, sampling and all three exports on."""
    from repro import obs
    from repro.obs import export, timeseries

    obs.set_enabled(True)
    timeseries.set_sampling(True, timeseries.DEFAULT_PERIOD)
    out = run_campaign_workload(seed, workdir)
    paths = {
        "trace": workdir / "trace.json",
        "metrics": workdir / "metrics.prom",
        "timeseries": workdir / "timeseries.jsonl",
    }
    export.write_outputs(
        str(paths["trace"]), str(paths["metrics"]), str(paths["timeseries"])
    )
    parsers: Dict[str, Callable[[str], object]] = {
        "trace": lambda text: export.validate_chrome_trace(json.loads(text)),
        "metrics": export.parse_prometheus_text,
        "timeseries": export.parse_timeseries_jsonl,
    }
    for name, path in paths.items():
        try:
            parsed = parsers[name](path.read_text())
        except ValueError as exc:
            out.count(False, f"{name} export rejected: {exc}")
        else:
            out.count(bool(parsed), f"{name} export is empty")
    return out


WORKLOADS: Dict[str, Callable[[int, pathlib.Path], Outcome]] = {
    "campaign": run_campaign_workload,
    "fleet": run_fleet_workload,
    "chaos": run_chaos_workload,
    "observed": run_observed_workload,
}
