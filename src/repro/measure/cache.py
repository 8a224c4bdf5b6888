"""Persistent on-disk cache for deployment measurements.

Simulated experiments are deterministic functions of (source tree, seed,
config, density), so their results can be memoized across processes and
invocations: warm re-runs of figures, tests, and `repro campaign` skip
simulation entirely. Entries are keyed by a digest of every ``.py`` file
under ``repro`` — any source change silently invalidates the whole cache
(stale files are just never read again).

Layout: one JSON file per measurement,
``<root>/<digest16>_<seed>_<config>_<count>.json``. JSON
float serialization round-trips exactly (repr-based), so a cache hit is
byte-identical to the simulation it replaced — rendered figures and
campaign summaries cannot drift between cold and warm runs. No
environment setting changes what a simulation computes (the config id
alone selects the variant, e.g. ``crun-wamr-zygote``), so the key needs
nothing else. Entries also record the wall-clock seconds the simulation
took, which the campaign engine reads as per-cell cost estimates for
longest-expected-cost-first scheduling.

The root directory resolves, in order: an explicit constructor argument,
``$REPRO_MEASURE_CACHE`` (the value ``off`` disables caching entirely),
then ``<repo>/.repro-cache/measurements``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from typing import Dict, Optional

from repro.measure.experiment import (
    DeploymentMeasurement,
    MemorySample,
    NodeUsage,
)
from repro.measure.stats import Summary

_PACKAGE_ROOT = pathlib.Path(__file__).resolve().parents[1]  # src/repro
_REPO_ROOT = _PACKAGE_ROOT.parents[1]

_digest_cache: Optional[str] = None


def source_tree_digest() -> str:
    """Digest of every ``.py`` file in the ``repro`` package (computed once)."""
    global _digest_cache
    if _digest_cache is None:
        h = hashlib.sha256()
        for path in sorted(_PACKAGE_ROOT.rglob("*.py")):
            h.update(str(path.relative_to(_PACKAGE_ROOT)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
        _digest_cache = h.hexdigest()
    return _digest_cache


def measurement_to_dict(m: DeploymentMeasurement) -> Dict:
    return {
        "config": m.config,
        "count": m.count,
        "memory": {
            "metrics_server_mean": m.memory.metrics_server_mean,
            "metrics_server_std": m.memory.metrics_server_std,
            "free_per_container": m.memory.free_per_container,
        },
        "startup_seconds": m.startup_seconds,
        "per_pod_start": {
            "n": m.per_pod_start.n,
            "mean": m.per_pod_start.mean,
            "std": m.per_pod_start.std,
            "minimum": m.per_pod_start.minimum,
            "maximum": m.per_pod_start.maximum,
        },
        "exit_codes": list(m.exit_codes),
        "ready_fraction": m.ready_fraction,
        "phase_means": m.phase_means,
        "nodes": m.nodes,
        "per_node": [
            {
                "name": u.name,
                "pods": u.pods,
                "working_set_bytes": u.working_set_bytes,
                "warm_starts": u.warm_starts,
                "cold_starts": u.cold_starts,
            }
            for u in m.per_node
        ],
    }


def measurement_from_dict(data: Dict) -> DeploymentMeasurement:
    return DeploymentMeasurement(
        config=data["config"],
        count=data["count"],
        memory=MemorySample(**data["memory"]),
        startup_seconds=data["startup_seconds"],
        per_pod_start=Summary(**data["per_pod_start"]),
        exit_codes=tuple(data["exit_codes"]),
        ready_fraction=data["ready_fraction"],
        phase_means=dict(data["phase_means"]),
        # Entries written before the fleet axis lack these keys.
        nodes=data.get("nodes", 1),
        per_node=tuple(NodeUsage(**u) for u in data.get("per_node", ())),
    )


class MeasurementCache:
    """Digest-keyed measurement store under one directory."""

    def __init__(self, root: Optional[pathlib.Path] = None) -> None:
        if root is None:
            root = pathlib.Path(
                os.environ.get("REPRO_MEASURE_CACHE")
                or _REPO_ROOT / ".repro-cache" / "measurements"
            )
        self.root = pathlib.Path(root)

    def _path(self, seed: int, config: str, count: int) -> pathlib.Path:
        return self.root / f"{source_tree_digest()[:16]}_{seed}_{config}_{count}.json"

    def get(self, seed: int, config: str, count: int) -> Optional[DeploymentMeasurement]:
        path = self._path(seed, config, count)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return measurement_from_dict(data["measurement"])

    def cost_estimate(self, seed: int, config: str, count: int) -> Optional[float]:
        """Wall-clock seconds a prior run of this cell took, if recorded."""
        try:
            wall = json.loads(self._path(seed, config, count).read_text()).get(
                "wall_seconds"
            )
        except (OSError, ValueError):
            return None
        if isinstance(wall, (int, float)) and wall > 0:
            return float(wall)
        return None

    def put(
        self,
        seed: int,
        config: str,
        count: int,
        m: DeploymentMeasurement,
        wall_seconds: Optional[float] = None,
    ) -> None:
        path = self._path(seed, config, count)
        payload = {
            "source_digest": source_tree_digest(),
            "seed": seed,
            "wall_seconds": wall_seconds,
            "measurement": measurement_to_dict(m),
        }
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            # Write-then-rename: concurrent sessions never see torn files.
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, indent=1)
            os.replace(tmp, path)
        except OSError:
            pass  # read-only filesystem: run uncached


def default_cache() -> Optional[MeasurementCache]:
    """The ambient cache, or None when ``REPRO_MEASURE_CACHE=off``."""
    if os.environ.get("REPRO_MEASURE_CACHE") == "off":
        return None
    return MeasurementCache()
