"""The indexed scheduler against the linear scan it replaced.

``linear_place`` below is the filter-and-score loop the scheduler ran
before it kept equivalence classes and score heaps: every decision
filters and scores every node in name order, and only a strictly greater
score displaces the incumbent. It stays here as the oracle. The property
drives random fleets through binds, deletes, cordons, memory changes and
zygote snapshots, and requires every decision to pick the same node and
every failure to give the same reason. The scaling gate counts
working-set probes, so it fails only when a decision goes back to
scoring every node.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.container.startup import startup_profile
from repro.errors import OutOfMemory, SchedulingError
from repro.k8s.cluster import NodeSpec, build_cluster
from repro.k8s.scheduler import NodeSignals
from repro.sim.memory import GIB, MIB
from repro.workloads.images import WASM_IMAGE_REF


# -- the oracle: the linear filter-and-score scan ----------------------------


def _warm_capable(handler):
    try:
        return startup_profile(handler).warm is not None
    except KeyError:
        return False


def _linear_failure_reason(api, spec, handler):
    nodes = list(api.nodes.values())
    if not nodes:
        return "no_nodes"
    nodes = [n for n in nodes if not n.unschedulable]
    if not nodes:
        return "unschedulable"
    nodes = [n for n in nodes if n.matches_selector(spec.node_selector)]
    if not nodes:
        return "selector_mismatch"
    nodes = [n for n in nodes if n.supports_handler(handler)]
    if not nodes:
        return "unsupported_handler"
    return "capacity"


def linear_scores(scheduler, spec, signals=None):
    """Every feasible node's score, in name order, as the scan computed it."""
    api = scheduler.api
    signals = scheduler._signals if signals is None else signals
    handler = (
        api.runtime_classes[spec.runtime_class_name].handler
        if spec.runtime_class_name is not None
        else None
    )
    image = spec.containers[0].image if spec.containers else ""
    warm_capable = handler is not None and _warm_capable(handler)
    scores = []
    for node in sorted(api.nodes.values(), key=lambda n: n.name):
        free = node.max_pods - node.pod_count
        if (
            node.unschedulable
            or free <= 0
            or not node.supports_handler(handler)
            or not node.matches_selector(spec.node_selector)
        ):
            continue
        score = scheduler.balance_weight * (free / node.max_pods)
        sig = signals.get(node.name)
        if sig is not None:
            if scheduler.memory_weight:
                alloc = node.allocatable_memory or 1
                avail = 1.0 - sig.working_set() / alloc
                score += scheduler.memory_weight * (avail if avail > 0.0 else 0.0)
            if (
                scheduler.locality_weight
                and warm_capable
                and sig.zygote_warm(handler, image)
            ):
                score += scheduler.locality_weight
        scores.append((node.name, score))
    return scores, handler


def linear_place(scheduler, spec, signals=None):
    """``(node name, None)`` for a placement, ``(None, reason)`` for a failure."""
    scores, handler = linear_scores(scheduler, spec, signals)
    if not scores:
        return None, _linear_failure_reason(scheduler.api, spec, handler)
    best, best_score = scores[0]
    for name, score in scores[1:]:
        if score > best_score:  # strict: name order breaks ties
            best, best_score = name, score
    return best, None


def place_and_compare(cluster, spec, name):
    """Create one pod (the API server's watch schedules it) and check the
    decision against the oracle's, computed on the same state first."""
    expected, reason = linear_place(cluster.scheduler, spec)
    pod = cluster.api.create_pod(name, spec)
    assert pod.node_name == expected, (name, reason)
    if expected is None:
        with pytest.raises(SchedulingError) as err:
            cluster.scheduler.schedule(pod)
        assert err.value.reason == reason
    return pod


# -- random fleets -----------------------------------------------------------

_LABELS = ({}, {"zone": "a"}, {"zone": "b"}, {"zone": "a", "tier": "edge"})
_SELECTORS = ({}, {"zone": "a"}, {"zone": "b"}, {"tier": "edge"}, {"zone": "c"})
_CONFIGS = ("crun-wamr", "crun-wamr-zygote", "runc-python")
#: handler subsets a node shape may support (None = every known handler)
_HANDLERS = (
    None,
    ("crun-wamr", "crun-wamr-zygote"),
    ("crun-wamr-zygote", "runc-python"),
    ("crun-wamr",),
)

_shape = st.tuples(
    st.sampled_from((1, 2, 3, 7, 500)),  # max_pods
    st.sampled_from((1, 2, 4)),  # allocatable memory, GiB
    st.sampled_from(range(len(_LABELS))),
    st.sampled_from(range(len(_HANDLERS))),
)
#: operations between decisions and their weights; pods dominate, so
#: fleets fill up, cross capacity and tie repeatedly
_OPS = ("pod", "delete", "cordon", "alloc", "release", "zygote", "sweep")
_OP_WEIGHTS = (50, 8, 3, 12, 8, 12, 7)


def _check_sweep(cluster):
    """Retry every pending pod, checking each decision like a new one."""
    for pod in cluster.api.pending_pods():
        expected, reason = linear_place(cluster.scheduler, pod.spec)
        if expected is None:
            with pytest.raises(SchedulingError) as err:
                cluster.scheduler.schedule(pod)
            assert err.value.reason == reason
        else:
            assert cluster.scheduler.schedule(pod).name == expected


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    shapes=st.lists(
        st.tuples(_shape, st.integers(1, 10)), min_size=1, max_size=4
    ).filter(lambda groups: 2 <= sum(n for _, n in groups) <= 40),
    weights=st.tuples(
        st.sampled_from((1.0, 0.5)),
        st.sampled_from((1.0, 0.0, 2.5)),
        st.sampled_from((0.3, 1.7, 0.0)),
    ),
    op_seed=st.integers(0, 2**32 - 1),
    op_count=st.integers(20, 80),
)
def test_every_decision_matches_the_linear_scan(shapes, weights, op_seed, op_count):
    # The operation stream is drawn from a seeded RNG rather than by
    # hypothesis element by element: that keeps every kind of change
    # frequent in every example. A failure reports the seed.
    specs, handler_sets = [], []
    for (max_pods, mem_gib, labels, handlers), count in shapes:
        for _ in range(count):
            # Equal shapes make equal nodes, so scores tie by construction.
            specs.append(
                NodeSpec(
                    f"n{len(specs):02d}",
                    max_pods=max_pods,
                    memory_bytes=mem_gib * GIB,
                    labels=dict(_LABELS[labels]),
                )
            )
            handler_sets.append(_HANDLERS[handlers])
    balance, memory, locality = weights
    cluster = build_cluster(
        seed=5,
        node_specs=specs,
        balance_weight=balance,
        memory_weight=memory,
        locality_weight=locality,
    )
    names = sorted(cluster.nodes)
    for name, handlers in zip(names, handler_sets):
        if handlers is not None:
            cluster.nodes[name].info.runtime_handlers = list(handlers)
    rng = random.Random(op_seed)
    procs = []
    for i, kind in enumerate(rng.choices(_OPS, _OP_WEIGHTS, k=op_count)):
        node = cluster.nodes[rng.choice(names)]
        if kind == "pod":
            spec = cluster.pod_template(rng.choice(_CONFIGS))
            spec.node_selector = dict(rng.choice(_SELECTORS))
            place_and_compare(cluster, spec, f"p{i}")
        elif kind == "delete":
            bound = [p for p in cluster.api.pods.values() if p.node_name]
            if bound:
                cluster.api.delete_pod(rng.choice(bound))
        elif kind == "cordon":
            cluster.api.cordon(node.name)
        elif kind == "alloc":
            proc = node.env.memory.spawn(f"hog-{i}", cgroup=f"/test/hog-{i}")
            try:
                node.env.memory.map_private(proc, rng.randint(1, 512) * MIB)
            except OutOfMemory:
                pass
            procs.append((node.env.memory, proc))
        elif kind == "release":
            if procs:
                memory_model, proc = procs.pop(rng.randrange(len(procs)))
                memory_model.exit(proc)
        elif kind == "zygote":
            node.env.note_zygote("crun-wamr-zygote", WASM_IMAGE_REF)
        else:
            _check_sweep(cluster)


# -- cordon through the API server -------------------------------------------


def test_failed_node_with_the_top_score_is_never_chosen():
    # Placements go a, b, c, a: afterwards b holds the top score, and the
    # index has already rescored it since its last change, so only the
    # cordon can take it out of the cached feasible list and score heap.
    cluster = build_cluster(
        seed=3,
        node_specs=[
            NodeSpec("a", max_pods=10),
            NodeSpec("b", max_pods=9),
            NodeSpec("c", max_pods=8),
        ],
    )
    warm = [
        place_and_compare(cluster, cluster.pod_template("crun-wamr"), f"warm-{i}")
        for i in range(4)
    ]
    assert [p.node_name for p in warm] == ["a", "b", "c", "a"]
    scores, _ = linear_scores(cluster.scheduler, cluster.pod_template("crun-wamr"))
    ranked = sorted(scores, key=lambda item: -item[1])
    assert ranked[0][0] == "b" and ranked[0][1] > ranked[1][1]
    cluster.fail_node("b")
    placed = [
        place_and_compare(cluster, cluster.pod_template("crun-wamr"), f"after-{i}")
        for i in range(16)
    ]
    assert all(p.node_name in ("a", "c") for p in placed[:15])
    assert placed[15].node_name is None  # a and c are full; b stays cordoned


# -- deterministic scaling gate ----------------------------------------------


def test_each_decision_probes_only_dirty_nodes():
    """320 nodes, 2000 pods in waves that really start: a multi-candidate
    decision probes at most 1 + (nodes marked dirty since the last one)."""
    nodes, waves, per_wave = 320, 10, 200
    cluster = build_cluster(seed=2, node_count=nodes, max_pods=7)
    scheduler = cluster.scheduler
    probes = [0]
    exact = {}
    for name, sig in list(scheduler._signals.items()):
        exact[name] = sig

        def counted(ws=sig.working_set):
            probes[0] += 1
            return ws()

        scheduler._signals[name] = NodeSignals(
            working_set=counted, zygote_warm=sig.zygote_warm
        )
    decisions = []
    schedule = scheduler.schedule

    def observed(pod):
        dirty = len(scheduler._dirty)
        candidates = len(scheduler.feasible_nodes(pod))
        before = probes[0]
        if len(decisions) % 97 == 0:
            # Spot-check placements against the scan (uncounted probes).
            expected, _ = linear_place(scheduler, pod.spec, signals=exact)
        else:
            expected = None
        node = schedule(pod)
        if expected is not None:
            assert node.name == expected
        decisions.append((candidates, dirty, probes[0] - before))
        return node

    scheduler.schedule = observed
    for _ in range(waves):
        cluster.deploy_and_wait("crun-wamr", per_wave)
    assert len(decisions) == waves * per_wave
    multi = [d for d in decisions if d[0] > 1]
    assert len(multi) > 0.9 * len(decisions)
    for candidates, dirty, spent in multi:
        assert spent <= 1 + dirty, (candidates, dirty, spent)
    # The burst after the first decision rescores one node per placement.
    assert sum(spent for _, _, spent in decisions) < nodes + 4 * len(decisions)
