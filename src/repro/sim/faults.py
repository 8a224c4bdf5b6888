"""Deterministic fault injection for the simulated stack.

A :class:`FaultPlan` arms named **injection points** along the pod
lifecycle. The original seven cover the startup critical path (image
pull, sandbox setup, shim spawn, engine compile/instantiate, CRI RPC,
main exec); the *runtime* points extend the plan past Running into every
fast path built since: guest traps and fuel/OOM exhaustion mid-run,
WASI syscall errors, zygote snapshot corruption, engine-cache entry
corruption (``cache.corrupt`` covers the decode/compile/prepare layers
and the digest-keyed specialized-code layer — a corrupted entry is
re-specialized under the same rebuild cap, falling back to unspecialized
prepared code if the pass fails), metrics-scrape loss, and
liveness/readiness probe failures.
Each point carries a firing probability, an optional max-occurrence
budget, and a transient-vs-permanent classification. Components ask the
plan at the matching point (via
:meth:`repro.container.nodeenv.NodeEnv.inject`) and the plan either does
nothing or raises :class:`~repro.errors.FaultInjected`.

Startup points are checked through the :class:`NodeEnv` the component
already holds. The runtime points fire deep inside layers that have no
node reference (``embed.run_wasi``, the engine caches, the WASI host
functions), so the container layer brackets guest dispatch in
:func:`fault_scope`, which arms a module-level **ambient context** of
``(plan, pod key)``. The guest-side layers consult :func:`ambient`; with
no scope armed that is a single module-global read returning ``None`` —
the disabled path stays within the BENCH_obs overhead ceiling.

Determinism: every ``(point, key)`` pair draws from its own named RNG
stream (``fault/<point>/<key>``), so the outcome of a given pod's n-th
retry at a given point depends only on the plan's seed — never on how
other pods' checks interleave. The same seed therefore reproduces the
same failure pattern, backoff schedule, and recovery timeline; budgets
are the only global state and the event kernel orders them
deterministically too. Fault scopes contain no kernel yields (guest
dispatch is synchronous within one activity step), so the ambient
context never interleaves across pods.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro import obs
from repro.errors import FaultInjected, SimulationError
from repro.sim.rng import RngStreams


class FaultPoint(enum.Enum):
    """Named injection points along the pod lifecycle."""

    # -- startup path (PR 1) -------------------------------------------------
    IMAGE_PULL = "image.pull"
    SANDBOX_SETUP = "sandbox.setup"
    SHIM_SPAWN = "shim.spawn"
    ENGINE_COMPILE = "engine.compile"
    ENGINE_INSTANTIATE = "engine.instantiate"
    CRI_RPC = "cri.rpc"
    MAIN_EXEC = "main.exec"
    # -- runtime path (post-Running chaos layer) -----------------------------
    GUEST_TRAP = "guest.trap"
    GUEST_EXHAUST = "guest.exhaust"
    WASI_SYSCALL = "wasi.syscall"
    ZYGOTE_CORRUPT = "zygote.corrupt"
    CACHE_CORRUPT = "cache.corrupt"
    METRICS_SCRAPE = "metrics.scrape"
    PROBE_LIVENESS = "probe.liveness"
    PROBE_READINESS = "probe.readiness"
    # -- fleet path (multi-node clusters) ------------------------------------
    NODE_FAIL = "node.fail"


#: points checked from inside guest execution (``run_wasi`` and below).
#: When any of these is armed, the run cache keys entries by zygote path
#: and a hit replays the pod's own per-(point, key) draws
#: (:func:`repro.engines.cache.run_cached`).
GUEST_RUNTIME_POINTS = frozenset(
    {
        FaultPoint.GUEST_TRAP,
        FaultPoint.GUEST_EXHAUST,
        FaultPoint.WASI_SYSCALL,
        FaultPoint.ZYGOTE_CORRUPT,
    }
)


@dataclass(frozen=True)
class FaultSpec:
    """One armed injection point.

    ``max_occurrences`` is the point's total firing budget across the
    whole run (``None`` = unlimited): with a finite budget, recovery is
    *guaranteed* to converge once the budget is spent, which the recovery
    experiment uses to bound worst-case retry storms.
    """

    point: FaultPoint
    probability: float
    transient: bool = True
    max_occurrences: Optional[int] = None
    message: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise SimulationError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.max_occurrences is not None and self.max_occurrences < 0:
            raise SimulationError("max_occurrences must be >= 0")


@dataclass(frozen=True)
class InjectedFault:
    """Record of one fault the plan actually fired."""

    point: FaultPoint
    key: str
    occurrence: int  # 1-based, per point
    transient: bool
    message: str


class FaultPlan:
    """Seeded set of :class:`FaultSpec`\\ s with firing bookkeeping."""

    def __init__(self, specs: Iterable[FaultSpec] = (), seed: int = 0) -> None:
        self._specs: Dict[FaultPoint, FaultSpec] = {}
        for spec in specs:
            if spec.point in self._specs:
                raise SimulationError(f"duplicate fault spec for {spec.point.value}")
            self._specs[spec.point] = spec
        self._rng = RngStreams(seed)
        self._fired: List[InjectedFault] = []
        self._fired_per_point: Dict[FaultPoint, int] = {}
        self._checks = 0
        self._m_checks = obs.counter(
            "repro_faults_checks_total",
            "armed injection-point checks performed",
        )
        self._m_injected = obs.counter(
            "repro_faults_injected_total",
            "faults actually fired, by injection point",
            ("point",),
        )
        # Registered always=True: the chaos campaign's counter-balance
        # invariants consume these functionally, telemetry on or off.
        self._m_fired = obs.counter(
            "repro_faults_fired_total",
            "faults fired, by injection point and transient/permanent kind",
            ("point", "kind"),
            always=True,
        )

    @property
    def seed(self) -> int:
        return self._rng.seed

    @property
    def fired(self) -> Tuple[InjectedFault, ...]:
        return tuple(self._fired)

    @property
    def checks(self) -> int:
        return self._checks

    def spec(self, point: FaultPoint) -> Optional[FaultSpec]:
        return self._specs.get(point)

    def count(self, point: FaultPoint) -> int:
        return self._fired_per_point.get(point, 0)

    def summary(self) -> Dict[str, int]:
        """Fired-fault counts per point value (for reports/experiments)."""
        return {
            point.value: count
            for point, count in sorted(
                self._fired_per_point.items(), key=lambda kv: kv[0].value
            )
        }

    # -- the injection decision ---------------------------------------------

    def check(self, point: FaultPoint, key: str) -> Optional[InjectedFault]:
        """Draw once for ``(point, key)``; returns the fault if it fires.

        Repeated checks of the same pair (a retry of the same pod) draw
        the *next* value of that pair's stream, so a transient fault can
        fire on attempt 1 and pass on attempt 2 — deterministically.
        """
        spec = self._specs.get(point)
        if spec is None or spec.probability <= 0.0:
            return None
        self._checks += 1
        self._m_checks.inc()
        used = self._fired_per_point.get(point, 0)
        if spec.max_occurrences is not None and used >= spec.max_occurrences:
            return None
        draw = float(self._rng.stream(f"fault/{point.value}/{key}").random())
        if draw >= spec.probability:
            return None
        fault = InjectedFault(
            point=point,
            key=key,
            occurrence=used + 1,
            transient=spec.transient,
            message=spec.message
            or f"injected {'transient' if spec.transient else 'permanent'} "
            f"fault at {point.value}",
        )
        self._fired_per_point[point] = used + 1
        self._fired.append(fault)
        self._m_injected.labels(point.value).inc()
        self._m_fired.labels(
            point.value, "transient" if spec.transient else "permanent"
        ).inc()
        return fault

    def arms_any(self, points: Iterable[FaultPoint]) -> bool:
        """Is any of ``points`` armed with a nonzero probability?"""
        return any(
            (spec := self._specs.get(p)) is not None and spec.probability > 0.0
            for p in points
        )

    def raise_if_fires(self, point: FaultPoint, key: str) -> None:
        """Check and raise :class:`FaultInjected` when the point fires."""
        fault = self.check(point, key)
        if fault is not None:
            raise FaultInjected(
                f"{fault.message} (point={point.value}, key={key}, "
                f"occurrence={fault.occurrence})",
                point=point.value,
                transient=fault.transient,
                key=key,
                occurrence=fault.occurrence,
            )


# --------------------------------------------------------------------------
# Ambient fault context: the bridge into layers with no NodeEnv reference
# --------------------------------------------------------------------------

#: the active (plan, key) pair, or None. A plain module global (not a
#: contextvar): fault scopes are synchronous within one kernel activity
#: step, so there is never more than one live scope.
_AMBIENT: Optional[Tuple["FaultPlan", str]] = None

#: disabled-path guard accounting for the overhead benchmark; the flag
#: check costs one branch on every ambient() call.
_COUNT_GUARDS = False
_GUARD_CALLS = 0


def ambient() -> Optional[Tuple["FaultPlan", str]]:
    """The active fault context, or ``None`` (the common, disabled path)."""
    global _GUARD_CALLS
    if _COUNT_GUARDS:
        _GUARD_CALLS += 1
    return _AMBIENT


@contextmanager
def fault_scope(plan: Optional["FaultPlan"], key: str) -> Iterator[None]:
    """Arm ``(plan, key)`` as the ambient fault context for the duration.

    ``plan=None`` is a no-op scope so call sites don't need to branch.
    Nested scopes are rejected: guest dispatch never nests, and silent
    shadowing would make draws depend on call order.
    """
    global _AMBIENT
    if plan is None:
        yield
        return
    if _AMBIENT is not None:
        raise SimulationError("nested fault_scope (guest dispatch re-entered?)")
    _AMBIENT = (plan, key)
    try:
        yield
    finally:
        _AMBIENT = None


@contextmanager
def count_disabled_guards() -> Iterator[None]:
    """Benchmark hook: count ambient() calls made while the scope is open
    (see ``benchmarks/test_chaos.py``'s disabled-path overhead projection)."""
    global _COUNT_GUARDS, _GUARD_CALLS
    _COUNT_GUARDS = True
    _GUARD_CALLS = 0
    try:
        yield
    finally:
        _COUNT_GUARDS = False


def guard_calls() -> int:
    """Guard evaluations recorded by the last/current counting scope."""
    return _GUARD_CALLS


def transient_plan(
    seed: int = 0,
    pull_probability: float = 0.3,
    compile_probability: float = 0.3,
    budget_per_point: Optional[int] = None,
) -> FaultPlan:
    """The recovery experiment's default plan: transient pull + compile
    failures at the paper-relevant rates (≥30% per attempt)."""
    return FaultPlan(
        [
            FaultSpec(
                FaultPoint.IMAGE_PULL,
                probability=pull_probability,
                transient=True,
                max_occurrences=budget_per_point,
            ),
            FaultSpec(
                FaultPoint.ENGINE_COMPILE,
                probability=compile_probability,
                transient=True,
                max_occurrences=budget_per_point,
            ),
        ],
        seed=seed,
    )


def fleet_plan(
    seed: int = 0,
    node_fail_probability: float = 1.0,
    max_node_failures: int = 1,
) -> FaultPlan:
    """The fleet experiment's plan: whole-node failure with a hard budget.

    Checked once per node (key = node name) by
    :meth:`repro.k8s.cluster.Cluster.inject_node_failures`: a firing node
    is cordoned (``unschedulable``) and drained, and the
    DeploymentController re-places its pods on the surviving fleet. The
    failure is permanent — nodes don't come back — so a finite
    ``max_node_failures`` budget bounds how much capacity a campaign can
    lose.
    """
    return FaultPlan(
        [
            FaultSpec(
                FaultPoint.NODE_FAIL,
                probability=node_fail_probability,
                transient=False,
                max_occurrences=max_node_failures,
            )
        ],
        seed=seed,
    )


def full_lifecycle_plan(
    seed: int = 0,
    rate: float = 0.25,
    budget_per_point: Optional[int] = 40,
    permanent_budget: int = 5,
) -> FaultPlan:
    """The chaos campaign's plan: every lifecycle stage armed at ``rate``.

    Startup *and* runtime points fire transiently at the same per-attempt
    rate; ``engine.instantiate`` is armed permanent with a small budget so
    the campaign also exercises terminal failure + DeploymentController
    replacement. Finite budgets guarantee convergence once spent — the
    campaign's invariants rely on that bound.
    """
    transient_points = (
        FaultPoint.IMAGE_PULL,
        FaultPoint.ENGINE_COMPILE,
        FaultPoint.GUEST_TRAP,
        FaultPoint.GUEST_EXHAUST,
        FaultPoint.WASI_SYSCALL,
        FaultPoint.ZYGOTE_CORRUPT,
        FaultPoint.CACHE_CORRUPT,
        FaultPoint.METRICS_SCRAPE,
        FaultPoint.PROBE_LIVENESS,
        FaultPoint.PROBE_READINESS,
    )
    specs = [
        FaultSpec(
            point,
            probability=rate,
            transient=True,
            max_occurrences=budget_per_point,
        )
        for point in transient_points
    ]
    specs.append(
        FaultSpec(
            FaultPoint.ENGINE_INSTANTIATE,
            probability=rate,
            transient=False,
            max_occurrences=permanent_budget,
        )
    )
    return FaultPlan(specs, seed=seed)
