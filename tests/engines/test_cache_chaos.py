"""Cache-entry corruption: rebuild-once semantics and the run-cache replay.

Armed with ``cache.corrupt``, a warm decode/compile/prepare hit can come
back poisoned; the layer must drop the entry and rebuild it — at most
once per entry (``MAX_REBUILDS_PER_ENTRY``), so a hostile plan cannot
turn the cache into a permanent miss machine. And with any guest-runtime
point armed, a run-cache hit must replay the pod's own fault draws in
the order a real run makes them, so one pod's execution never answers
for another pod's faults.
"""

import pytest

from repro.engines import cache as engine_cache
from repro.engines.cache import (
    cache_rebuilds,
    cache_stats,
    compile_cached,
    decode_cached,
    reset_caches,
    run_cached,
)
from repro.engines import get_engine
from repro.errors import FaultInjected
from repro.sim.faults import FaultPlan, FaultPoint, FaultSpec, fault_scope
from repro.wasm import assemble_wat
from repro.wasm.embed import run_wasi
from repro.wasm.runtime import SpecializedFunction

WAT = r"""
(module
  (memory (export "memory") 1)
  (func (export "_start")))
"""


@pytest.fixture(autouse=True)
def _fresh_caches():
    reset_caches()
    yield
    reset_caches()


def _always_corrupt():
    return FaultPlan([FaultSpec(FaultPoint.CACHE_CORRUPT, probability=1.0)])


class TestCorruptRebuild:
    def test_decode_hit_corrupted_rebuilds_once(self):
        blob = assemble_wat(WAT)
        module, digest = decode_cached(blob)
        plan = _always_corrupt()
        with fault_scope(plan, "pod-1"):
            rebuilt, _ = decode_cached(blob)  # corrupt → miss → rebuild
            cached, _ = decode_cached(blob)  # rebuild budget spent → hit
        assert rebuilt is not module  # fresh decode, not the poisoned one
        assert cached is rebuilt
        # decode_cached also services the prepare and specialize layers;
        # every entry took its one rebuild and then went quiet.
        assert cache_rebuilds() == {
            ("decode", digest): 1,
            ("prepare", digest): 1,
            ("specialize", digest): 1,
        }
        assert plan.count(FaultPoint.CACHE_CORRUPT) == 3

    def test_compile_hit_corrupted_rebuilds_once(self):
        blob = assemble_wat(WAT)
        engine = get_engine("wamr")
        compiled = compile_cached(engine, blob)
        with fault_scope(_always_corrupt(), "pod-1"):
            rebuilt = compile_cached(engine, blob)
            assert compile_cached(engine, blob) is rebuilt
        assert rebuilt is not compiled
        key = ("compile", f"{engine.name}/{compiled.digest}")
        assert cache_rebuilds()[key] == 1

    def test_no_scope_means_no_corruption(self):
        blob = assemble_wat(WAT)
        module, _ = decode_cached(blob)
        assert decode_cached(blob)[0] is module
        assert cache_rebuilds() == {}

    def test_unarmed_plan_never_corrupts(self):
        blob = assemble_wat(WAT)
        module, _ = decode_cached(blob)
        plan = FaultPlan(
            [FaultSpec(FaultPoint.GUEST_TRAP, probability=1.0)]
        )
        with fault_scope(plan, "pod-1"):
            assert decode_cached(blob)[0] is module
        assert cache_rebuilds() == {}

    def test_rebuild_counts_reset_with_caches(self):
        blob = assemble_wat(WAT)
        decode_cached(blob)
        with fault_scope(_always_corrupt(), "pod-1"):
            decode_cached(blob)
        assert cache_rebuilds()
        reset_caches()
        assert cache_rebuilds() == {}


class TestSpecializeCorrupt:
    """``cache.corrupt`` on the specialized-code layer (PR 7)."""

    def test_specialized_hit_corrupted_respecializes_once(self):
        blob = assemble_wat(WAT)
        module, digest = decode_cached(blob)
        assert isinstance(module.funcs[0].prepared, SpecializedFunction)
        with fault_scope(_always_corrupt(), "pod-1"):
            rebuilt, _ = decode_cached(blob)  # corrupt → re-specialize
            decode_cached(blob)  # rebuild budget spent → hit
        # The rebuilt attachment is specialized again, not left baseline.
        assert isinstance(rebuilt.funcs[0].prepared, SpecializedFunction)
        assert cache_rebuilds()[("specialize", digest)] == 1

    def test_pass_failure_falls_back_to_prepared(self, monkeypatch):
        def boom(module):
            raise RuntimeError("specialization pass exploded")

        monkeypatch.setattr(engine_cache, "specialize_module", boom)
        blob = assemble_wat(WAT)
        module, _ = decode_cached(blob)
        # Unspecialized prepared code stays attached and nothing cached.
        pf = module.funcs[0].prepared
        assert pf is not None
        assert not isinstance(pf, SpecializedFunction)
        assert cache_stats()["specialize"]["entries"] == 0


#: a start section and an entrypoint that both call the host: two
#: start-phase and one entry-phase ``wasi.syscall`` draw per run
HOST_CALLS_WAT = r"""
(module
  (import "wasi_snapshot_preview1" "sched_yield" (func $yield (result i32)))
  (memory (export "memory") 1)
  (func $init (drop (call $yield)) (drop (call $yield)))
  (start $init)
  (func (export "_start") (drop (call $yield))))
"""


def _spent_plan():
    """Armed for the guest but unable to fire: runs complete and store."""
    return FaultPlan(
        [FaultSpec(FaultPoint.GUEST_TRAP, probability=1.0, max_occurrences=0)]
    )


def _serve(blob, plan, replay):
    """One pod's run of ``blob`` under ``plan`` on a fresh cache whose
    zygote is captured. With ``replay`` the restore-path entry is stored
    first, so the run is a hit; otherwise it executes the guest.

    Returns the result or the raised fault's fields, the plan's fired log
    and its check count.
    """
    reset_caches()
    engine = get_engine("wamr")
    with fault_scope(_spent_plan(), "pod-0"):
        run_cached(engine, blob, args=("m",))  # capture: not stored
        if replay:
            run_cached(engine, blob, args=("m",))  # restore: stored
    hits = cache_stats()["run"]["hits"]
    try:
        with fault_scope(plan, "pod-1"):
            outcome = run_cached(engine, blob, args=("m",))[1]
    except FaultInjected as exc:
        outcome = (exc.point, exc.key, exc.occurrence, exc.transient, str(exc))
    assert cache_stats()["run"]["hits"] - hits == int(replay)
    return outcome, plan.fired, plan.checks


class TestRunCacheReplay:
    def test_unarmed_plan_keeps_fault_free_key(self):
        blob = assemble_wat(WAT)
        engine = get_engine("wamr")
        _, memoized = run_cached(engine, blob, args=("m",))
        # probability=0 counts as unarmed: the fault-free entry serves.
        plan = FaultPlan([FaultSpec(FaultPoint.GUEST_TRAP, probability=0.0)])
        with fault_scope(plan, "pod-1"):
            assert run_cached(engine, blob, args=("m",))[1] is memoized
        assert cache_stats()["run"]["entries"] == 1

    def test_spent_budget_plan_memoizes(self):
        blob = assemble_wat(WAT)
        engine = get_engine("wamr")
        run_wasi(blob)  # capture the zygote, so both pods below restore
        with fault_scope(_spent_plan(), "pod-1"):
            run_cached(engine, blob, args=("m",))
            run_cached(engine, blob, args=("m",))
        run = cache_stats()["run"]
        assert (run["entries"], run["misses"], run["hits"]) == (1, 1, 1)

    def test_capture_run_is_not_stored(self):
        blob = assemble_wat(WAT)
        with fault_scope(_spent_plan(), "pod-1"):
            run_cached(get_engine("wamr"), blob, args=("m",))
        assert cache_stats()["run"]["entries"] == 0
        assert cache_stats()["zygote"]["entries"] == 1

    def test_replayed_results_match_memoized(self):
        blob = assemble_wat(WAT)
        engine = get_engine("wamr")
        _, memoized = run_cached(engine, blob, args=("m",))
        with fault_scope(_spent_plan(), "pod-1"):
            run_cached(engine, blob, args=("m",))
            _, replayed = run_cached(engine, blob, args=("m",))
        assert cache_stats()["run"]["hits"] == 1
        assert (replayed.exit_code, replayed.stdout, replayed.stderr) == (
            memoized.exit_code,
            memoized.stdout,
            memoized.stderr,
        )

    def test_host_calls_recorded_per_phase(self):
        blob = assemble_wat(HOST_CALLS_WAT)
        result, _, _ = _serve(blob, _spent_plan(), replay=True)
        assert (result.start_host_calls, result.entry_host_calls) == (2, 1)

    def test_hit_raises_same_syscall_fault_as_real_run(self):
        blob = assemble_wat(HOST_CALLS_WAT)

        def plan():
            return FaultPlan(
                [FaultSpec(FaultPoint.WASI_SYSCALL, probability=1.0)], seed=3
            )

        real = _serve(blob, plan(), replay=False)
        replayed = _serve(blob, plan(), replay=True)
        assert replayed == real
        point, key, occurrence, _, message = real[0]
        assert (point, key, occurrence) == ("wasi.syscall", "pod-1", 1)
        assert "wasi.syscall" in message

    @pytest.mark.parametrize("syscall_budget", [0, None])
    def test_start_phase_draws_precede_guest_trap(self, syscall_budget):
        """Budget 0: the syscall draws are checks that cannot fire, so
        ``checks`` counts the two start-phase draws before the trap.
        Unlimited: the first start-phase draw fires before the trap."""
        blob = assemble_wat(HOST_CALLS_WAT)

        def plan():
            return FaultPlan(
                [
                    FaultSpec(
                        FaultPoint.WASI_SYSCALL,
                        probability=1.0,
                        max_occurrences=syscall_budget,
                    ),
                    FaultSpec(FaultPoint.GUEST_TRAP, probability=1.0),
                ]
            )

        real = _serve(blob, plan(), replay=False)
        replayed = _serve(blob, plan(), replay=True)
        assert replayed == real
        expected = "guest.trap" if syscall_budget == 0 else "wasi.syscall"
        assert real[0][0] == expected
        assert real[2] == (3 if syscall_budget == 0 else 1)

    def test_quarantine_serves_cold_path_results(self):
        blob = assemble_wat(WAT)
        engine = get_engine("wamr")
        with fault_scope(_spent_plan(), "pod-0"):
            run_cached(engine, blob, args=("m",))  # capture
            _, restored = run_cached(engine, blob, args=("m",))
        assert restored.dirty_memory_bytes < restored.linear_memory_bytes
        corrupt = FaultPlan(
            [
                FaultSpec(
                    FaultPoint.ZYGOTE_CORRUPT, probability=1.0, max_occurrences=1
                )
            ]
        )
        results = []
        for pod in ("pod-1", "pod-2", "pod-3"):
            with fault_scope(corrupt, pod):
                results.append(run_cached(engine, blob, args=("m",))[1])
        assert corrupt.count(FaultPoint.ZYGOTE_CORRUPT) == 1
        for result in results:
            assert result.dirty_memory_bytes == result.linear_memory_bytes
        # Capture, restore and pod-1 (cold) execute; pod-2 and pod-3 hit
        # the cold-path entry pod-1 stored.
        assert results[0] is results[1] is results[2]
        run = cache_stats()["run"]
        assert (run["entries"], run["misses"], run["hits"]) == (2, 3, 2)
