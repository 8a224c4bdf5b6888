"""Cache-entry corruption: rebuild-once semantics and the run-cache bypass.

Armed with ``cache.corrupt``, a warm decode/compile/prepare hit can come
back poisoned; the layer must drop the entry and rebuild it — at most
once per entry (``MAX_REBUILDS_PER_ENTRY``), so a hostile plan cannot
turn the cache into a permanent miss machine. And with any guest-runtime
point armed, the run cache must get out of the way entirely: memoizing
one pod's execution would let its fault draw answer for every pod.
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
from repro.sim.faults import FaultPlan, FaultPoint, FaultSpec, fault_scope
from repro.wasm import assemble_wat
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


class TestRunCacheBypass:
    def test_armed_guest_points_bypass_run_cache(self):
        blob = assemble_wat(WAT)
        engine = get_engine("wamr")
        plan = FaultPlan(
            [FaultSpec(FaultPoint.GUEST_TRAP, probability=0.0)]
        )
        # probability=0 still counts as unarmed: memoization is safe.
        with fault_scope(plan, "pod-1"):
            run_cached(engine, blob, args=("m",))
            run_cached(engine, blob, args=("m",))
        assert cache_stats()["run"]["entries"] == 1

        reset_caches()
        # Armed (probability > 0) but with a spent budget: the bypass
        # decision keys on arming alone, and no fault actually fires.
        armed = FaultPlan(
            [FaultSpec(FaultPoint.GUEST_TRAP, probability=1.0, max_occurrences=0)]
        )
        with fault_scope(armed, "pod-1"):
            run_cached(engine, blob, args=("m",))
            run_cached(engine, blob, args=("m",))
        # Nothing memoized: every pod executes and draws its own faults.
        assert cache_stats()["run"]["entries"] == 0

    def test_bypass_results_match_memoized(self):
        blob = assemble_wat(WAT)
        engine = get_engine("wamr")
        _, memoized = run_cached(engine, blob, args=("m",))
        plan = FaultPlan(
            [FaultSpec(FaultPoint.GUEST_TRAP, probability=1.0, max_occurrences=0)]
        )
        with fault_scope(plan, "pod-1"):
            _, bypassed = run_cached(engine, blob, args=("m",))
        assert (bypassed.exit_code, bypassed.stdout, bypassed.stderr) == (
            memoized.exit_code,
            memoized.stdout,
            memoized.stderr,
        )
