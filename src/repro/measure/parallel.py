"""Experiment scheduling: fan a measurement matrix out over worker processes.

The §IV campaign is 9 configurations × 3 densities = 27 *independent*
seeded experiments; nothing about them shares state (each builds its own
cluster), so they parallelize embarrassingly. :func:`run_matrix` runs a
(config, density) work list through the campaign engine
(:mod:`repro.measure.series`): cache hits short-circuit, misses are
scheduled longest-expected-cost-first over a **persistent warm-worker
pool** (:mod:`repro.measure.pool`) whose forked workers inherit
pre-warmed engine caches and keep them hot across cells, and results —
including per-cell telemetry deltas — merge deterministically in the
caller's pair order (workers race, the merge order never does).

``jobs=1`` stays fully in-process and shares the module-level experiment
memo (`repro.measure.experiment.measure`) with the figure generators —
the default for library callers and tests. The CLI auto-detects
``--jobs`` from the CPU count.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.measure.experiment import DeploymentMeasurement
from repro.measure.series import Cell, DEFAULT_CACHE, auto_jobs, execute_cells

__all__ = [
    "DEFAULT_CACHE",
    "MatrixKey",
    "auto_jobs",
    "run_matrix",
]

MatrixKey = Tuple[str, int]


def run_matrix(
    pairs: Iterable[MatrixKey],
    seed: int = 1,
    jobs: int = 1,
    cache=DEFAULT_CACHE,
) -> Dict[MatrixKey, DeploymentMeasurement]:
    """Measure every (config, density) pair, in parallel when ``jobs > 1``.

    Results are keyed by pair and merged in the caller's pair order
    regardless of worker completion order. Cache hits (same source tree,
    seed, config, density) are returned without simulating;
    misses are simulated and written back. With telemetry enabled, the
    workers' metrics/span deltas merge back deterministically, so
    ``--trace-out``/``--metrics-out`` work at any ``--jobs N``.
    """
    pairs = list(dict.fromkeys(pairs))
    cells = [
        Cell(series="matrix", kind="deploy", config=config, count=count, seed=seed)
        for config, count in pairs
    ]
    results, _ = execute_cells(cells, jobs=jobs, cache=cache)
    return {
        (cell.config, cell.count): results[cell.key] for cell in cells
    }
