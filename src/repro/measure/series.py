"""Declarative experiment series: the campaign engine.

Campaigns used to be hand-written runner functions — one per figure, one
per experiment family — each fanning work through a throwaway process
pool. This module replaces that with **experiment series as data**
(pavilion2-style): a series is a config dict with matrix expansion,
inheritance, and seed derivation; the engine expands it into a DAG of
:class:`Cell`\\ s (stage barriers), schedules the cells over a persistent
warm-worker pool with longest-expected-cost-first ordering, merges
per-cell telemetry deterministically, and checkpoints a resumable
manifest per completed cell.

Spec schema (every key optional unless noted)::

    {
      "name": "figures",              # required: series identifier
      "description": "...",
      "base": "campaign",             # inherit another spec (name or dict)
      "kind": "deploy",               # deploy | recovery | chaos
      "seed": 1,                      # series seed (cells inherit it)
      "derive_seeds": False,          # per-cell seeds from sha256(seed, key)
      "matrix": {                     # cartesian product over axes
        "config": ["crun-wamr", ...], #   "config"/"count" are cell fields,
        "count": [10, 100, 400],      #   other axes become cell params
      },
      "params": {"rate": 0.25},       # constant params for every cell
      "include": [{...}],             # explicit extra cells
      "exclude": [{...}],             # matrix holes (subset match)
      "stages": [{...}, {...}],       # sub-specs run as DAG stage barriers
    }

Inheritance merges scalars (child wins), matrix axes (child axis
replaces base axis), and params (dict merge); cycles are rejected.
Expansion is **order-independent** — the cell set, canonical order, and
per-cell seeds do not depend on axis listing order — and never yields
duplicate cells. ``derive_seeds`` derives each cell's seed from a sha256
of the series seed and the cell coordinates (stable across processes and
expansions, unlike ``hash()``).

Resume: :class:`SeriesManifest` journals completed cells keyed by the
source-tree digest, seed, and expanded-cell digest.
An interrupted series re-run with the same manifest reloads finished
deploy cells from the measurement cache and re-runs only the remainder;
summaries are byte-identical because cache hits round-trip exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.core.integration import RUNTIME_CONFIGS
from repro.errors import SeriesError
from repro.measure.cache import (
    MeasurementCache,
    default_cache,
    source_tree_digest,
)
from repro.measure.experiment import DENSITIES, ExperimentRunner, measure

#: sentinel: "use the ambient default cache" (an explicit None disables)
DEFAULT_CACHE = object()

#: experiment kinds the engine can dispatch
KINDS = ("deploy", "recovery", "chaos")

#: params each kind accepts (deploy cells must stay param-free: the
#: measurement cache keys on (seed, config, count) only)
_KIND_PARAMS = {
    "deploy": frozenset(),
    "recovery": frozenset({"max_rounds"}),
    "chaos": frozenset({"rate", "max_rounds"}),
}

_SPEC_KEYS = frozenset(
    {
        "name",
        "description",
        "base",
        "kind",
        "seed",
        "derive_seeds",
        "matrix",
        "params",
        "include",
        "exclude",
        "stages",
    }
)


def auto_jobs() -> int:
    """Worker count when the caller asks for auto-detection."""
    return os.cpu_count() or 1


# -- cells ---------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One experiment in a series: (kind, config, count, seed, params).

    ``nodes`` is the fleet-size shard axis (deploy cells only). It
    defaults to 1 and is deliberately *absent* from the key, the seed
    coordinates, and the sort key whenever it is 1, so every pre-fleet
    series keeps byte-identical manifests, derived seeds, and ordering.
    """

    series: str
    kind: str
    config: str
    count: int
    seed: int
    params: Tuple[Tuple[str, Any], ...] = ()
    stage: int = 0
    nodes: int = 1

    @property
    def key(self) -> str:
        """Stable identity used for manifests, dedup, and result lookup."""
        parts = [self.kind, self.config, f"n{self.count}", f"s{self.seed}"]
        if self.nodes != 1:
            parts.append(f"nodes{self.nodes}")
        parts += [f"{k}={v}" for k, v in self.params]
        return ":".join(parts)

    @property
    def cacheable(self) -> bool:
        """Deploy cells map 1:1 onto the measurement-cache key space.

        Fleet cells (nodes > 1) are outside that key space and always
        re-run (they are deterministic per seed).
        """
        return self.kind == "deploy" and not self.params and self.nodes == 1

    def sort_key(self) -> Tuple:
        return (
            self.stage,
            self.kind,
            self.config,
            self.count,
            self.nodes,
            self.params,
            self.seed,
        )


def derive_seed(series_seed: int, coordinates: str) -> int:
    """Deterministic per-cell seed: stable across processes and expansions."""
    digest = hashlib.sha256(f"{series_seed}|{coordinates}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


# -- spec validation + inheritance ---------------------------------------------


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SeriesError(message)


def resolve_spec(
    spec, registry: Optional[Mapping[str, dict]] = None, _seen: Tuple[str, ...] = ()
) -> dict:
    """Look up by name, resolve the ``base`` inheritance chain, merge."""
    if registry is None:
        registry = SHIPPED_SERIES
    if isinstance(spec, str):
        _check(spec in registry, f"unknown series {spec!r} (have {sorted(registry)})")
        _check(spec not in _seen, f"series inheritance cycle: {' -> '.join(_seen + (spec,))}")
        return resolve_spec(dict(registry[spec]), registry, _seen + (spec,))
    _check(isinstance(spec, dict), f"series spec must be a dict or name, got {type(spec).__name__}")
    spec = dict(spec)
    base = spec.pop("base", None)
    if base is None:
        return spec
    if isinstance(base, str) and base in _seen:
        raise SeriesError(f"series inheritance cycle: {' -> '.join(_seen + (base,))}")
    parent = resolve_spec(base, registry, _seen)
    merged = dict(parent)
    merged.pop("name", None)
    merged.pop("description", None)
    for key, value in spec.items():
        if key == "matrix":
            axes = dict(parent.get("matrix", {}))
            axes.update(value)
            merged["matrix"] = axes
        elif key == "params":
            params = dict(parent.get("params", {}))
            params.update(value)
            merged["params"] = params
        else:
            merged[key] = value
    return merged


def validate_spec(spec, registry: Optional[Mapping[str, dict]] = None) -> dict:
    """Resolve + schema-check a spec; returns the normalized dict."""
    spec = resolve_spec(spec, registry)
    unknown = set(spec) - _SPEC_KEYS
    _check(not unknown, f"unknown spec keys: {sorted(unknown)}")
    name = spec.get("name")
    _check(isinstance(name, str) and bool(name), "spec needs a non-empty 'name'")
    kind = spec.get("kind", "deploy")
    _check(kind in KINDS, f"{name}: kind must be one of {KINDS}, got {kind!r}")
    _check(isinstance(spec.get("seed", 1), int), f"{name}: seed must be an int")
    _check(
        isinstance(spec.get("derive_seeds", False), bool),
        f"{name}: derive_seeds must be a bool",
    )
    stages = spec.get("stages")
    if stages is not None:
        _check(
            isinstance(stages, list) and stages,
            f"{name}: stages must be a non-empty list of sub-specs",
        )
        _check(
            "matrix" not in spec and "include" not in spec,
            f"{name}: top-level matrix/include and stages are mutually exclusive",
        )
        for i, stage in enumerate(stages):
            _check(isinstance(stage, dict), f"{name}: stage {i} must be a dict")
            _check("stages" not in stage, f"{name}: stages cannot nest")
        return spec

    matrix = spec.get("matrix", {})
    include = spec.get("include", [])
    _check(isinstance(matrix, dict), f"{name}: matrix must be a dict of axes")
    _check(
        bool(matrix) or bool(include),
        f"{name}: a stage-less spec needs a matrix or include list",
    )
    for axis, values in matrix.items():
        _check(
            isinstance(values, (list, tuple)) and len(values) > 0,
            f"{name}: matrix axis {axis!r} must be a non-empty list",
        )
        if axis == "config":
            _check(
                all(isinstance(v, str) for v in values),
                f"{name}: config values must be strings",
            )
        elif axis == "count":
            _check(
                all(isinstance(v, int) and v > 0 for v in values),
                f"{name}: count values must be positive ints",
            )
        elif axis == "nodes":
            _check(
                kind == "deploy",
                f"{name}: the 'nodes' axis is only valid for deploy series",
            )
            _check(
                all(isinstance(v, int) and v > 0 for v in values),
                f"{name}: nodes values must be positive ints",
            )
        else:
            _check(
                all(isinstance(v, (str, int, float, bool)) for v in values),
                f"{name}: axis {axis!r} values must be scalars",
            )
    allowed = _KIND_PARAMS[kind]
    extra_axes = set(matrix) - {"config", "count", "nodes"}
    param_keys = extra_axes | set(spec.get("params", {}))
    _check(
        param_keys <= allowed,
        f"{name}: params {sorted(param_keys - allowed)} not valid for kind "
        f"{kind!r} (allowed: {sorted(allowed)})",
    )
    for entries, label in ((include, "include"), (spec.get("exclude", []), "exclude")):
        _check(isinstance(entries, list), f"{name}: {label} must be a list of dicts")
        for entry in entries:
            _check(isinstance(entry, dict), f"{name}: {label} entries must be dicts")
    return spec


# -- expansion -----------------------------------------------------------------


def _expand_stage(
    spec: dict, name: str, seed: int, stage: int
) -> List[Cell]:
    kind = spec.get("kind", "deploy")
    derive = spec.get("derive_seeds", False)
    base_params = dict(spec.get("params", {}))
    matrix = {axis: list(dict.fromkeys(values)) for axis, values in spec.get("matrix", {}).items()}
    excludes = spec.get("exclude", [])

    combos: List[Dict[str, Any]] = [{}]
    for axis in sorted(matrix):  # sorted: expansion independent of key order
        combos = [dict(c, **{axis: v}) for c in combos for v in matrix[axis]]
    combos += [dict(entry) for entry in spec.get("include", [])]

    cells: Dict[str, Cell] = {}
    for combo in combos:
        if any(
            all(combo.get(k) == v for k, v in entry.items()) and entry
            for entry in excludes
        ):
            continue
        config = combo.get("config", base_params.get("config"))
        count = combo.get("count")
        nodes = combo.get("nodes", 1)
        _check(
            isinstance(config, str) and bool(config),
            f"{name}: every cell needs a 'config' (matrix axis or include key)",
        )
        _check(
            isinstance(count, int) and count > 0,
            f"{name}: every cell needs a positive 'count'",
        )
        _check(
            isinstance(nodes, int) and nodes > 0,
            f"{name}: 'nodes' must be a positive int",
        )
        _check(
            nodes == 1 or kind == "deploy",
            f"{name}: 'nodes' != 1 is only valid for deploy cells",
        )
        params = dict(base_params)
        params.update(
            {
                k: v
                for k, v in combo.items()
                if k not in ("config", "count", "nodes")
            }
        )
        params.pop("config", None)
        param_items = tuple(sorted(params.items()))
        coordinates = f"{kind}:{config}:n{count}:" + ",".join(
            f"{k}={v}" for k, v in param_items
        )
        if nodes != 1:
            # Appended (never inline) so every nodes=1 coordinate string —
            # and therefore every derived seed — predates the fleet axis.
            coordinates += f":nodes{nodes}"
        cell_seed = derive_seed(seed, coordinates) if derive else seed
        cell = Cell(
            series=name,
            kind=kind,
            config=config,
            count=count,
            seed=cell_seed,
            params=param_items,
            stage=stage,
            nodes=nodes,
        )
        cells[cell.key] = cell  # dedup: identical coordinates collapse
    return sorted(cells.values(), key=Cell.sort_key)


def expand_series(
    spec,
    seed: Optional[int] = None,
    registry: Optional[Mapping[str, dict]] = None,
) -> List[Cell]:
    """Expand a spec (or shipped-series name) into its canonical cell list.

    The returned order is the engine's *sequential order*: ``--jobs 1``
    runs cells in it, and parallel runs merge results and telemetry back
    into it — which is what makes summaries and trace exports
    byte-identical at any worker count.
    """
    spec = validate_spec(spec, registry)
    name = spec["name"]
    if seed is None:
        seed = spec.get("seed", 1)
    stages = spec.get("stages")
    if stages is None:
        return _expand_stage(spec, name, seed, stage=0)
    cells: List[Cell] = []
    shared = {
        k: v for k, v in spec.items() if k in ("kind", "derive_seeds", "params")
    }
    for i, stage_spec in enumerate(stages):
        merged = dict(shared)
        for key, value in stage_spec.items():
            if key == "params":
                params = dict(shared.get("params", {}))
                params.update(value)
                merged["params"] = params
            else:
                merged[key] = value
        merged.setdefault("name", name)
        merged = validate_spec(dict(merged, name=name), registry={})
        cells.extend(_expand_stage(merged, name, seed, stage=i))
    _check(bool(cells), f"{name}: expansion produced no cells")
    return cells


# -- shipped series ------------------------------------------------------------

#: Declarative definitions of every experiment family the repo ships.
#: ``repro series list`` renders these; CI expands and validates each.
SHIPPED_SERIES: Dict[str, dict] = {
    "campaign": {
        "name": "campaign",
        "description": "paper §IV matrix: every runtime config × density",
        "kind": "deploy",
        "seed": 1,
        "matrix": {"config": list(RUNTIME_CONFIGS), "count": list(DENSITIES)},
    },
    "figures": {
        "name": "figures",
        "description": "cells behind Figs 3-10 (inherits the campaign matrix)",
        "base": "campaign",
    },
    "crun-memory": {
        "name": "crun-memory",
        "description": "Figs 3-4 slice: Wasm runtimes embedded in crun",
        "base": "campaign",
        "matrix": {
            "config": ["crun-wamr", "crun-wasmedge", "crun-wasmer", "crun-wasmtime"]
        },
    },
    "zygote": {
        "name": "zygote",
        "description": "cold crun-wamr baseline, then snapshot-clone warm run",
        "kind": "deploy",
        "seed": 1,
        "stages": [
            {"matrix": {"config": ["crun-wamr"], "count": [400]}},
            {"matrix": {"config": ["crun-wamr-zygote"], "count": [400]}},
        ],
    },
    "recovery": {
        "name": "recovery",
        "description": "self-healing under ≥30% transient startup faults",
        "kind": "recovery",
        "seed": 1,
        "matrix": {"config": ["crun-wamr"], "count": [100]},
    },
    "chaos": {
        "name": "chaos",
        "description": "full-lifecycle fault injection with invariant checks",
        "kind": "chaos",
        "seed": 1,
        "matrix": {"config": ["crun-wamr"], "count": [400]},
        "params": {"rate": 0.25},
    },
    "fleet": {
        "name": "fleet",
        "description": "cross-node fan-out: fixed density swept over fleet sizes",
        "kind": "deploy",
        "seed": 1,
        "matrix": {
            "config": ["crun-wamr", "crun-wamr-zygote"],
            "count": [400],
            "nodes": [1, 4, 8],
        },
    },
}


def run_cell(cell: Cell) -> Any:
    """Execute one cell; returns its kind's measurement object."""
    params = dict(cell.params)
    if cell.kind == "deploy":
        if cell.nodes != 1:
            return ExperimentRunner(seed=cell.seed).run(
                cell.config, cell.count, nodes=cell.nodes
            )
        # nodes=1 keeps the exact pre-fleet call shape (and stubs of it).
        return ExperimentRunner(seed=cell.seed).run(cell.config, cell.count)
    if cell.kind == "recovery":
        from repro.measure.recovery import run_recovery

        return run_recovery(
            config=cell.config, count=cell.count, seed=cell.seed, **params
        )
    if cell.kind == "chaos":
        from repro.measure.chaos import run_chaos

        return run_chaos(
            config=cell.config, count=cell.count, seed=cell.seed, **params
        )
    raise SeriesError(f"unknown cell kind {cell.kind!r}")


# -- manifest (resume) ---------------------------------------------------------


class SeriesManifest:
    """Per-cell completion journal making interrupted series resumable.

    The manifest is only honored when its identity header — series name,
    seed, source-tree digest, and the digest of the
    expanded cell list — matches the current run; any mismatch starts a
    fresh journal (the old one would describe different experiments).
    Completed *deploy* cells resume from the measurement cache; kinds
    without a persistent store re-run (they are deterministic per seed).
    """

    VERSION = 1

    def __init__(self, path) -> None:
        self.path = pathlib.Path(path)
        self._data: Dict[str, Any] = {}

    @staticmethod
    def _cells_digest(cells: Sequence[Cell]) -> str:
        raw = "\n".join(cell.key for cell in cells)
        return hashlib.sha256(raw.encode()).hexdigest()[:16]

    def begin(self, series: str, seed: int, cells: Sequence[Cell]) -> set:
        """Load-or-create the journal; returns the completed cell keys."""
        header = {
            "version": self.VERSION,
            "series": series,
            "seed": seed,
            "source_digest": source_tree_digest()[:16],
            "cells_digest": self._cells_digest(cells),
        }
        try:
            data = json.loads(self.path.read_text())
        except (OSError, ValueError):
            data = {}
        if all(data.get(k) == v for k, v in header.items()):
            self._data = data
        else:
            self._data = dict(header, completed={})
        return set(self._data["completed"])

    @property
    def completed(self) -> Dict[str, Optional[float]]:
        return dict(self._data.get("completed", {}))

    def mark(self, cell: Cell, wall_seconds: Optional[float] = None) -> None:
        """Record one finished cell (atomic write-then-rename)."""
        self._data.setdefault("completed", {})[cell.key] = wall_seconds
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.path.parent, suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                json.dump(self._data, fh, indent=1)
            os.replace(tmp, self.path)
        except OSError:
            pass  # read-only filesystem: run unjournaled


# -- execution -----------------------------------------------------------------


@dataclass
class SeriesResult:
    """Everything one series run yields, keyed by cell."""

    series: str
    cells: List[Cell]
    results: Dict[str, Any] = field(default_factory=dict)
    #: cells served from the measurement cache / manifest (not re-run)
    resumed: List[str] = field(default_factory=list)

    def get(self, cell: Cell) -> Any:
        return self.results[cell.key]

    @property
    def measurements(self) -> Dict[Tuple[str, int], Any]:
        """Deploy results keyed ``(config, count)`` — the figure shape.

        Fleet-sharded cells (nodes > 1) are excluded: they would collide
        on the figure key; read them via :meth:`fleet_measurements`.
        """
        return {
            (cell.config, cell.count): self.results[cell.key]
            for cell in self.cells
            if cell.kind == "deploy" and cell.nodes == 1 and cell.key in self.results
        }

    @property
    def fleet_measurements(self) -> Dict[Tuple[str, int, int], Any]:
        """Deploy results keyed ``(config, count, nodes)`` — all shards."""
        return {
            (cell.config, cell.count, cell.nodes): self.results[cell.key]
            for cell in self.cells
            if cell.kind == "deploy" and cell.key in self.results
        }


def _cost_estimate(store: Optional[MeasurementCache], cell: Cell) -> float:
    """Expected wall-seconds for LPT scheduling (cache-informed)."""
    if store is not None and cell.cacheable:
        wall = store.cost_estimate(cell.seed, cell.config, cell.count)
        if wall is not None:
            return wall
    weight = {"deploy": 1.0, "recovery": 3.0, "chaos": 8.0}[cell.kind]
    return float(cell.count) * weight


def execute_cells(
    cells: Sequence[Cell],
    jobs: int = 1,
    cache=DEFAULT_CACHE,
    manifest: Optional[SeriesManifest] = None,
    on_cell: Optional[Callable[[Cell, Any], None]] = None,
) -> Tuple[Dict[str, Any], List[str]]:
    """Run cells (sequential order = the given order); returns results.

    The shared engine under :func:`run_series` and ``run_matrix``:
    cache partitioning, the warm pool, LPT scheduling, deterministic
    telemetry merge, and manifest checkpointing all live here. Returns
    ``(results by cell key, resumed cell keys)``.
    """
    cells = list(cells)
    if jobs <= 0:
        jobs = auto_jobs()
    store: Optional[MeasurementCache] = (
        default_cache() if cache is DEFAULT_CACHE else cache
    )
    # jobs=1 with the ambient cache rides the module-level measure()
    # memo, sharing warm results with the figure generators in-process.
    use_memo = cache is DEFAULT_CACHE and store is not None

    completed = manifest.begin(cells[0].series, cells[0].seed, cells) if (
        manifest is not None and cells
    ) else set()

    results: Dict[str, Any] = {}
    resumed: List[str] = []
    pending: List[Cell] = []
    for cell in cells:
        hit = (
            store.get(cell.seed, cell.config, cell.count)
            if store is not None and cell.cacheable
            else None
        )
        if hit is not None:
            results[cell.key] = hit
            resumed.append(cell.key)
            if manifest is not None and cell.key not in completed:
                manifest.mark(cell)
            continue
        pending.append(cell)

    if not pending:
        return results, resumed

    def finish(cell: Cell, result: Any, wall: Optional[float], cached: bool) -> None:
        results[cell.key] = result
        if store is not None and cell.cacheable and not cached:
            store.put(cell.seed, cell.config, cell.count, result, wall_seconds=wall)
        if manifest is not None:
            manifest.mark(cell, wall)
        if on_cell is not None:
            on_cell(cell, result)

    effective = min(jobs, len(pending))
    if effective == 1:
        for cell in pending:
            t0 = time.perf_counter()
            if use_memo and cell.cacheable:
                result = measure(cell.config, cell.count, seed=cell.seed)
                finish(cell, result, time.perf_counter() - t0, cached=True)
            else:
                result = run_cell(cell)
                finish(cell, result, time.perf_counter() - t0, cached=False)
        return results, resumed

    from repro.measure.pool import TelemetrySettings, WorkerPool

    settings = TelemetrySettings.capture()
    indexed = list(enumerate(pending))
    costs = [_cost_estimate(store, cell) for cell in pending]
    outcomes: Dict[int, Any] = {}

    def on_outcome(outcome) -> None:
        outcomes[outcome.index] = outcome
        cell = pending[outcome.index]
        finish(cell, outcome.result, outcome.wall_seconds, cached=False)

    with WorkerPool(effective, telemetry=settings) as pool:
        stages = sorted({cell.stage for cell in pending})
        for stage in stages:
            batch = [(i, cell) for i, cell in indexed if cell.stage == stage]
            pool.run(batch, costs=[costs[i] for i, _ in batch], on_outcome=on_outcome)

    if settings.any:
        # Merge worker telemetry in sequential cell order: counters and
        # histograms add, gauges apply last-writer-wins, span groups and
        # time-series samples replay through fresh parent contexts (one
        # shared context per cell label keeps counter tracks aligned with
        # span tracks), and profiler stacks add — reproducing the exact
        # registry, trace, TSDB, and collapsed stacks a --jobs 1 run
        # would have built.
        from repro.obs import profile

        registry = obs.default_registry()
        for i, cell in indexed:
            outcome = outcomes.get(i)
            if outcome is None:
                continue
            if outcome.registry_delta is not None:
                registry.merge_delta(outcome.registry_delta)
            if outcome.span_groups or outcome.sample_groups:
                obs.adopt_telemetry_groups(
                    outcome.span_groups or [], outcome.sample_groups or []
                )
            if outcome.profile_delta:
                profile.merge_delta(outcome.profile_delta)

    return results, resumed


def run_series(
    spec,
    seed: Optional[int] = None,
    jobs: int = 1,
    cache=DEFAULT_CACHE,
    manifest=None,
    on_cell: Optional[Callable[[Cell, Any], None]] = None,
) -> SeriesResult:
    """Expand and execute a series (shipped name or spec dict).

    ``manifest`` — a path or :class:`SeriesManifest` — makes the run
    resumable: each completed cell is journaled, and a re-run skips
    cells already journaled *and* present in the measurement cache.
    ``on_cell`` fires after each completed cell (progress/interruption).
    """
    spec = validate_spec(spec)
    cells = expand_series(spec, seed=seed)
    if manifest is not None and not isinstance(manifest, SeriesManifest):
        manifest = SeriesManifest(manifest)
    results, resumed = execute_cells(
        cells, jobs=jobs, cache=cache, manifest=manifest, on_cell=on_cell
    )
    return SeriesResult(
        series=spec["name"], cells=cells, results=results, resumed=resumed
    )


__all__ = [
    "Cell",
    "DEFAULT_CACHE",
    "KINDS",
    "SHIPPED_SERIES",
    "SeriesManifest",
    "SeriesResult",
    "auto_jobs",
    "derive_seed",
    "execute_cells",
    "expand_series",
    "resolve_spec",
    "run_cell",
    "run_series",
    "validate_spec",
]
