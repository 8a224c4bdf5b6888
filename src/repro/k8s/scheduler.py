"""Scheduler: binds pending pods to feasible nodes.

Filter-then-score, like kube-scheduler. Feasibility = schedulability
(failed nodes are cordoned out), capacity (max-pods, the 500/node
extension), node selector, and RuntimeClass handler support. Scoring
blends three normalized terms:

* **balance** — free-slot fraction (the least-pods spreading the paper's
  single-node figures were built on, generalized to heterogeneous
  ``max_pods``),
* **memory** — available-memory fraction from the O(1) accountant's
  ``node_working_set`` signal (bin-packing pressure term; nodes under
  memory pressure score lower),
* **locality** — a flat bonus for nodes that already hold a zygote
  snapshot for this pod's (handler, image), so warm-capable placements
  win warm starts instead of paying a cold start on a fresh node.

The memory/locality terms read per-node :class:`NodeSignals` attached by
``build_cluster``; a scheduler without signals (bare API-server tests)
degrades to pure balance scoring. Tie-break is deterministic: among
equal scores the first node in name order wins.

Placement is indexed, so a decision costs O(dirty nodes + log nodes)
rather than O(nodes), with placements bit-identical to a linear
filter-and-score scan (``tests/k8s/test_scheduler_index.py`` keeps that
scan as the oracle):

* **Equivalence classes.** Nodes with equal (labels, runtime handlers)
  pass or fail a (selector, handler) filter together, so the filter
  tests one representative per class. ``feasible_nodes`` returns a
  cached name-ordered list per (selector, handler), rebuilt only when a
  node enters or leaves the feasible set: its free slots cross 0↔1
  (from the API server's capacity watch: bind = -1, delete = +1), or
  ``APIServer.nodes_version`` moves (a node registers or is cordoned).
* **Score heaps.** Per (selector, handler, locality image) a heap holds
  ``(-score, name rank, stamp)`` entries; the top valid entry is the
  argmax, ties going to the lowest name rank as in the scan. A node's
  stamp moves whenever an input of its score changes, which retires its
  old entries; they are discarded when popped.
* **Dirty marks.** Score inputs change only through node-local hooks:
  the capacity watch, the memory model's working-set hook and the
  node's zygote-ready hook (both wired to the callback
  :meth:`Scheduler.attach_node_signals` returns). Each decision rescores
  only the nodes marked since that heap last looked, with the scan's
  own float arithmetic — during a deploy burst that is the one node
  just bound.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache, partial
from time import perf_counter
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import obs
from repro.errors import SchedulingError
from repro.k8s.apiserver import APIServer
from repro.k8s.objects import NodeInfo, Pod

#: wall-clock decision latency buckets: scheduling is microseconds here
_DECISION_BUCKETS = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 1e-2,
)


@lru_cache(maxsize=None)
def _has_warm_profile(handler: str) -> bool:
    """Whether a runtime handler's startup profile has a warm variant.

    Only zygote-capable configurations can ever benefit from snapshot
    locality; for everything else the locality term is skipped without
    querying the node at all.
    """
    try:
        from repro.container.startup import startup_profile

        return startup_profile(handler).warm is not None
    except KeyError:
        return False


@dataclass(frozen=True)
class NodeSignals:
    """Per-node state probes the scheduler scores against.

    ``working_set`` returns the node's current working set in bytes
    (:meth:`SystemMemoryModel.node_working_set`, the O(1) accountant);
    ``zygote_warm`` answers whether the node already holds a zygote
    snapshot for ``(config_id, image_ref)`` — i.e. whether a container
    placed there would clone warm instead of cold-starting.
    """

    working_set: Callable[[], int]
    zygote_warm: Callable[[str, str], bool]


class _ScoreHeap:
    """Score heap of one (selector, handler, locality image) query.

    ``entries`` are ``(-score, rank, stamp)``; an entry is valid while
    ``stamp`` equals its node's current stamp. ``dirty`` holds the ranks
    restamped since this heap last rescored them.
    """

    __slots__ = ("entries", "dirty")

    def __init__(self, entries: List[Tuple[float, int, int]]) -> None:
        heapq.heapify(entries)
        self.entries = entries
        self.dirty: Set[int] = set()


def _selector_key(selector: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(selector.items())) if selector else ()


class Scheduler:
    def __init__(
        self,
        api: APIServer,
        *,
        balance_weight: float = 1.0,
        memory_weight: float = 1.0,
        locality_weight: float = 0.3,
    ) -> None:
        self.api = api
        self.balance_weight = balance_weight
        self.memory_weight = memory_weight
        self.locality_weight = locality_weight
        api.watch_pods(self._on_pod_event)
        api.watch_capacity(self._on_capacity_event)
        self.scheduled_count = 0
        #: time-series sampler ticked on each placement (None = off)
        self.sampler = None
        self._signals: Dict[str, NodeSignals] = {}
        # -- node index, rebuilt whenever api.nodes_version moves ------------
        self._index_version = -1
        #: name-sorted node order; a node's position is its rank
        self._order: List[NodeInfo] = []
        self._rank: Dict[str, int] = {}
        #: rank -> equivalence class; class -> one member node
        self._class_of: List[int] = []
        self._class_rep: List[NodeInfo] = []
        #: free pod slots per node, maintained incrementally on bind/delete
        self._free_slots: Dict[str, int] = {}
        #: rank -> score stamp; bumped when a dirty node is flushed
        self._stamps: List[int] = []
        #: (selector, handler) -> classes passing the filter
        self._matching: Dict[tuple, Set[int]] = {}
        #: (selector, handler) -> name-ordered feasible nodes
        self._feasible: Dict[tuple, List[NodeInfo]] = {}
        #: ((selector, handler), locality image or None) -> score heap
        self._heaps: Dict[tuple, _ScoreHeap] = {}
        #: nodes whose score inputs changed since the last flush; the
        #: node hooks add to this set object, so it is never replaced
        self._dirty: Set[str] = set()
        self._obs_on = obs.enabled()
        self._m_placements = obs.counter(
            "repro_scheduler_placements_total", "pods bound to nodes", ("node",)
        )
        self._m_failures = obs.counter(
            "repro_scheduler_placement_failures_total",
            "scheduling attempts that found no feasible node",
            ("reason",),
        )
        self._m_latency = obs.histogram(
            "repro_scheduler_decision_seconds",
            "wall-clock latency of one scheduling decision",
            buckets=_DECISION_BUCKETS,
        )

    # -- wiring --------------------------------------------------------------

    def attach_node_signals(
        self, node_name: str, signals: NodeSignals
    ) -> Callable[[], None]:
        """Attach memory/zygote probes for one node (build_cluster does this).

        Returns the node's change callback. Wire it into every source the
        probes read (the memory model's working-set hook, the node's
        zygote-ready hook): the scheduler rescores a node only after it
        has been called.
        """
        self._signals[node_name] = signals
        self._dirty.add(node_name)
        return partial(self._dirty.add, node_name)

    def _on_pod_event(self, pod: Pod) -> None:
        # Event-driven scheduling: try to place newly pending pods.
        if pod.node_name is None and pod.phase.value == "Pending":
            try:
                self.schedule(pod)
            except SchedulingError:
                # Deliberate: the pod stays Pending for a later sweep()
                # retry once capacity frees up. The failure is not lost —
                # schedule() recorded it on the placement-failures
                # counter with its classified reason label.
                pass

    def _on_capacity_event(self, node_name: str, delta: int) -> None:
        free = self._free_slots.get(node_name)
        if free is not None:
            self._free_slots[node_name] = free + delta
            if (free > 0) != (free + delta > 0):
                self._feasible.clear()  # the node entered or left the set
            self._dirty.add(node_name)

    def _node_order(self) -> List[NodeInfo]:
        if self._index_version != self.api.nodes_version:
            self._rebuild_index()
        return self._order

    def _rebuild_index(self) -> None:
        order = sorted(self.api.nodes.values(), key=lambda n: n.name)
        classes: Dict[tuple, int] = {}
        self._class_rep = []
        self._class_of = []
        for node in order:
            shape = (tuple(sorted(node.labels.items())), tuple(node.runtime_handlers))
            cid = classes.get(shape)
            if cid is None:
                cid = classes[shape] = len(self._class_rep)
                self._class_rep.append(node)
            self._class_of.append(cid)
        self._order = order
        self._rank = {n.name: r for r, n in enumerate(order)}
        self._free_slots = {n.name: n.max_pods - n.pod_count for n in order}
        self._stamps = [0] * len(order)
        self._matching = {}
        self._feasible = {}
        self._heaps = {}
        self._dirty.clear()
        self._index_version = self.api.nodes_version

    # -- filter --------------------------------------------------------------

    def feasible_nodes(self, pod: Pod) -> List[NodeInfo]:
        """Name-ordered nodes ``pod`` may bind to (a cached list: do not
        mutate it)."""
        self._node_order()
        key = (
            _selector_key(pod.spec.node_selector),
            self.api.resolve_handler(pod),
        )
        nodes = self._feasible.get(key)
        if nodes is None:
            matching = self._matching_classes(key)
            free = self._free_slots
            nodes = self._feasible[key] = [
                node
                for node, cid in zip(self._order, self._class_of)
                if cid in matching and not node.unschedulable and free[node.name] > 0
            ]
        return nodes

    def _matching_classes(self, key: tuple) -> Set[int]:
        matching = self._matching.get(key)
        if matching is None:
            selector, handler = dict(key[0]), key[1]
            matching = self._matching[key] = {
                cid
                for cid, rep in enumerate(self._class_rep)
                if rep.supports_handler(handler) and rep.matches_selector(selector)
            }
        return matching

    def _failure_reason(self, pod: Pod, handler: Optional[str]) -> str:
        """Classify why no node was feasible (most-specific cause wins)."""
        nodes = list(self.api.nodes.values())
        if not nodes:
            return "no_nodes"
        nodes = [n for n in nodes if not n.unschedulable]
        if not nodes:
            return "unschedulable"
        nodes = [n for n in nodes if n.matches_selector(pod.spec.node_selector)]
        if not nodes:
            return "selector_mismatch"
        nodes = [n for n in nodes if n.supports_handler(handler)]
        if not nodes:
            return "unsupported_handler"
        return "capacity"

    # -- score + bind --------------------------------------------------------

    def _score(
        self, node: NodeInfo, handler: Optional[str], image: Optional[str]
    ) -> float:
        """Balance + memory, plus the locality bonus when ``image`` is set
        and the node holds a zygote for (handler, image)."""
        score = self.balance_weight * (
            self._free_slots[node.name] / node.max_pods
        )
        signals = self._signals.get(node.name)
        if signals is not None:
            if self.memory_weight:
                alloc = node.allocatable_memory or 1
                avail = 1.0 - signals.working_set() / alloc
                score += self.memory_weight * (avail if avail > 0.0 else 0.0)
            if image is not None and signals.zygote_warm(handler, image):
                score += self.locality_weight
        return score

    def _flush_dirty(self) -> None:
        """Restamp every dirty node and queue it on every score heap."""
        rank, stamps = self._rank, self._stamps
        ranks = []
        for name in self._dirty:
            r = rank.get(name)
            if r is not None:
                stamps[r] += 1
                ranks.append(r)
        self._dirty.clear()
        for heap in self._heaps.values():
            heap.dirty.update(ranks)

    def _best(
        self, pod: Pod, handler: Optional[str], candidates: List[NodeInfo]
    ) -> NodeInfo:
        """The highest-scoring candidate, first in name order on ties."""
        key = (_selector_key(pod.spec.node_selector), handler)
        image: Optional[str] = None
        if self.locality_weight and handler is not None and _has_warm_profile(handler):
            image = pod.spec.containers[0].image if pod.spec.containers else ""
        if self._dirty:
            self._flush_dirty()
        stamps = self._stamps
        heap = self._heaps.get((key, image))
        if heap is None:
            entries = []
            for node in candidates:
                r = self._rank[node.name]
                entries.append((-self._score(node, handler, image), r, stamps[r]))
            heap = self._heaps[(key, image)] = _ScoreHeap(entries)
        elif heap.dirty:
            entries = heap.entries
            order, free = self._order, self._free_slots
            matching, class_of = self._matching_classes(key), self._class_of
            for r in heap.dirty:
                node = order[r]
                if (
                    class_of[r] in matching
                    and not node.unschedulable
                    and free[node.name] > 0
                ):
                    heapq.heappush(
                        entries, (-self._score(node, handler, image), r, stamps[r])
                    )
            heap.dirty.clear()
            if len(entries) > 2 * len(candidates) + 8:
                # Drop retired entries so churn cannot grow the heap.
                entries[:] = [e for e in entries if e[2] == stamps[e[1]]]
                heapq.heapify(entries)
        entries = heap.entries
        while entries[0][2] != stamps[entries[0][1]]:
            heapq.heappop(entries)
        return self._order[entries[0][1]]

    def schedule(self, pod: Pod) -> NodeInfo:
        t0 = perf_counter() if self._obs_on else 0.0
        handler = self.api.resolve_handler(pod)
        candidates = self.feasible_nodes(pod)
        if not candidates:
            reason = self._failure_reason(pod, handler)
            self._m_failures.labels(reason).inc()
            err = SchedulingError(
                f"0/{len(self.api.nodes)} nodes available for pod {pod.name} "
                f"(handler={handler!r}, reason={reason})"
            )
            err.reason = reason
            raise err
        if len(candidates) == 1:
            # Fast path (and the paper's single-node topology): nothing
            # to rank, so skip the signal probes entirely — the N=1
            # figures see the exact pre-fleet scheduling behavior.
            best = candidates[0]
        else:
            best = self._best(pod, handler, candidates)
        self.api.bind_pod(pod, best.name)
        self.scheduled_count += 1
        self._m_placements.labels(best.name).inc()
        if self._obs_on:
            self._m_latency.observe(perf_counter() - t0)
        if self.sampler is not None:
            self.sampler.tick()
        return best

    def sweep(self) -> int:
        """Retry all pending pods; returns how many got placed."""
        placed = 0
        for pod in list(self.api.pending_pods()):
            try:
                self.schedule(pod)
                placed += 1
            except SchedulingError:
                continue
        return placed
