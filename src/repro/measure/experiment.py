"""The §IV experiment shape: deploy N identical pods, measure, tear down.

One :class:`ExperimentRunner` call = one bar of a memory figure or one
row of a startup figure: a fresh cluster, N single-container pods of one
runtime configuration, both memory channels sampled at steady state, and
the startup makespan (pod creation → last container's first guest
instruction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.k8s.cluster import Cluster, build_cluster
from repro.measure.free import FreeSampler
from repro.measure.stats import summarize, Summary
from repro.sim.memory import MIB


@dataclass(frozen=True)
class MemorySample:
    """Per-container memory through both channels, in bytes."""

    metrics_server_mean: float  # mean pod working set (metrics-server view)
    metrics_server_std: float
    free_per_container: float  # (Δused + Δbuff/cache) / N (free view)


@dataclass(frozen=True)
class NodeUsage:
    """One fleet node's share of a deployment, at steady state."""

    name: str
    pods: int
    working_set_bytes: int  # full node working set (Fig 4 channel)
    warm_starts: int  # zygote-capable containers that cloned a snapshot
    cold_starts: int  # zygote-capable containers that cold-started


@dataclass(frozen=True)
class DeploymentMeasurement:
    """Everything one deployment experiment yields."""

    config: str
    count: int
    memory: MemorySample
    startup_seconds: float  # deploy → last workload execution start
    per_pod_start: Summary  # distribution of per-pod start times
    exit_codes: Tuple[int, ...]
    ready_fraction: float  # containers whose stdout shows readiness
    #: mean simulated seconds per startup phase ("startup.pipeline",
    #: "startup.serialized", "startup.parallel", "startup.exec", ...)
    phase_means: Dict[str, float] = field(default_factory=dict)
    #: fleet size the deployment ran on (1 = the paper's testbed)
    nodes: int = 1
    #: per-node breakdown, in node-name order
    per_node: Tuple[NodeUsage, ...] = ()

    @property
    def metrics_mib(self) -> float:
        return self.memory.metrics_server_mean / MIB

    @property
    def free_mib(self) -> float:
        return self.memory.free_per_container / MIB

    @property
    def throughput(self) -> float:
        """Pods brought to first guest instruction per simulated second."""
        return self.count / self.startup_seconds if self.startup_seconds else 0.0

    @property
    def warm_fraction(self) -> Optional[float]:
        """Warm share of zygote-capable starts (None for other configs)."""
        warm = sum(u.warm_starts for u in self.per_node)
        total = warm + sum(u.cold_starts for u in self.per_node)
        return warm / total if total else None


class ExperimentRunner:
    """Runs deployment experiments on fresh clusters.

    Args:
        seed: determinism seed for the whole cluster.
        extra_images: additional OCI images to publish (and pre-pull) on
            every node — for experiments with non-default workloads.
    """

    def __init__(self, seed: int = 1, extra_images: Tuple = ()) -> None:
        self.seed = seed
        self.extra_images = tuple(extra_images)

    def run(
        self,
        config: str,
        count: int,
        env: Optional[Dict[str, str]] = None,
        image: Optional[str] = None,
        nodes: int = 1,
        max_pods: Optional[int] = None,
        locality_weight: float = 0.3,
    ) -> DeploymentMeasurement:
        if obs.enabled():
            # Each experiment gets its own trace context (one Chrome-trace
            # process row per deployment) and starts from cold engine
            # caches: cells of one config share a run-cache key, so guest
            # execution counters would otherwise depend on which cell of
            # the campaign ran first in this process. Chaos cells already
            # clear for the same reason; measurements themselves are
            # warmth-independent (test_no_cache_recomputes). State only —
            # zeroing the counters would break the worker delta protocol.
            from repro.engines import cache as engine_cache

            engine_cache.clear_cache_state()
            obs.new_context(f"deploy {config} n={count}")
        cluster = build_cluster(
            seed=self.seed,
            node_count=nodes,
            max_pods=max_pods if max_pods is not None else 500,
            locality_weight=locality_weight,
        )
        workers = list(cluster.nodes.values())
        for extra in self.extra_images:
            for worker in workers:
                worker.env.images.push(extra)
                worker.env.images.pull(extra.reference)
        samplers = [FreeSampler(w.env.memory) for w in workers]
        for sampler in samplers:
            sampler.mark_baseline()
        t0 = cluster.kernel.now

        pods = [
            cluster.make_pod(config, env=env, image=image) for _ in range(count)
        ]
        cluster.kernel.run_all(
            [cluster.nodes[p.node_name].kubelet.sync_pod(p) for p in pods]
        )
        from repro.k8s.objects import PodPhase

        failed = [p for p in pods if p.phase is not PodPhase.RUNNING]
        if failed:
            from repro.errors import KubernetesError

            raise KubernetesError(
                f"{len(failed)} pods failed: {failed[0].status_message}"
            )

        if cluster.monitor is not None:
            # Close the monitoring window: one final scrape at steady
            # state so gauges reflect convergence and alerts can resolve.
            cluster.monitor.sample_now()

        # Startup probe (paper §IV-E): measurement starts at deployment and
        # ends when the sample application starts executing in the last pod.
        starts = [p.exec_started_at - t0 for p in pods if p.exec_started_at is not None]
        makespan = max(starts)

        # Memory channels at steady state: pod working sets concatenate
        # across the fleet; the free(1) deltas sum (each node has its own
        # baseline, so daemon/kernel baselines cancel per node).
        working_sets = [
            float(w)
            for worker in workers
            for w in worker.metrics.pod_working_sets().values()
        ]
        ws_summary = summarize(working_sets)
        free_total = sum(s.delta().footprint_bytes for s in samplers)

        containers = [
            c
            for p in pods
            for c in cluster.nodes[p.node_name].kubelet.pod_containers[p.uid]
        ]
        ready = sum(1 for c in containers if b"ready" in c.stdout)
        if len(workers) == 1:
            phase_means = workers[0].env.tracer.phase_means(config=config)
        else:
            # Exact fleet-wide means: merge per-node (sum, count) pairs.
            sums: Dict[str, float] = {}
            counts: Dict[str, int] = {}
            for worker in workers:
                for cat, (total, n) in worker.env.tracer.phase_stats(
                    config=config
                ).items():
                    sums[cat] = sums.get(cat, 0.0) + total
                    counts[cat] = counts.get(cat, 0) + n
            phase_means = {c: sums[c] / counts[c] for c in sums}
        # One pass over the pods: per node, its pod count and its
        # containers' warm/cold zygote starts.
        by_node: Dict[str, List[int]] = {w.name: [0, 0, 0] for w in workers}
        for p in pods:
            tally = by_node[p.node_name]
            tally[0] += 1
            for c in cluster.nodes[p.node_name].kubelet.pod_containers[p.uid]:
                warm = c.facts.get("zygote_warm")
                if warm is True:
                    tally[1] += 1
                elif warm is False:
                    tally[2] += 1
        per_node = tuple(
            NodeUsage(
                name=worker.name,
                pods=by_node[worker.name][0],
                working_set_bytes=worker.env.memory.node_working_set(),
                warm_starts=by_node[worker.name][1],
                cold_starts=by_node[worker.name][2],
            )
            for worker in workers
        )
        measurement = DeploymentMeasurement(
            config=config,
            count=count,
            memory=MemorySample(
                metrics_server_mean=ws_summary.mean,
                metrics_server_std=ws_summary.std,
                free_per_container=free_total / count,
            ),
            startup_seconds=makespan,
            per_pod_start=summarize(starts),
            exit_codes=tuple(c.exit_code or 0 for c in containers),
            ready_fraction=ready / len(containers),
            phase_means=phase_means,
            nodes=len(workers),
            per_node=per_node,
        )
        cluster.teardown(pods)
        return measurement


#: densities used across the paper's memory figures
DENSITIES = (10, 100, 400)


@lru_cache(maxsize=None)
def _cached_measurement(seed: int, config: str, count: int) -> DeploymentMeasurement:
    import time

    from repro.measure.cache import default_cache  # deferred: avoids cycle

    store = default_cache()
    if store is not None:
        hit = store.get(seed, config, count)
        if hit is not None:
            return hit
    t0 = time.perf_counter()
    m = ExperimentRunner(seed=seed).run(config, count)
    wall = time.perf_counter() - t0
    if store is not None:
        store.put(seed, config, count, m, wall_seconds=wall)
    return m


def measure(config: str, count: int, seed: int = 1) -> DeploymentMeasurement:
    """Module-level cached experiment (figures share bars; e.g. crun-wamr
    appears in Figs 3–7 and 10 at the same densities).

    Layered over the persistent on-disk cache (:mod:`repro.measure.cache`):
    warm invocations of figures/tests skip simulation entirely. Set
    ``REPRO_MEASURE_CACHE=off`` to force fresh simulation."""
    return _cached_measurement(seed, config, count)


def density_sweep(config: str, seed: int = 1) -> Dict[int, DeploymentMeasurement]:
    return {n: measure(config, n, seed=seed) for n in DENSITIES}
