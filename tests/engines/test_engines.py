"""Engine models: functional execution + resource accounting."""

import pytest

from repro.engines import available_engines, get_engine
from repro.engines.base import WasmEngine
from repro.engines.cache import (
    cache_stats,
    compile_cached,
    compile_stats,
    prepare_stats,
    reset_caches,
    run_cached,
    run_stats,
)
from repro.engines.profiles import ALL_PROFILES, STACK_VERSIONS
from repro.errors import EngineError
from repro.sim.memory import MIB
from repro.wasm import assemble_wat


@pytest.fixture(scope="module")
def blob(microservice_blob):
    return microservice_blob


class TestRegistry:
    def test_four_engines(self):
        assert available_engines() == ["wamr", "wasmedge", "wasmer", "wasmtime"]

    def test_engines_are_singletons(self):
        assert get_engine("wamr") is get_engine("WAMR")

    def test_unknown_engine(self):
        with pytest.raises(EngineError, match="unknown engine"):
            get_engine("v8")


class TestProfiles:
    def test_versions_match_table1(self):
        assert ALL_PROFILES["wamr"].version == STACK_VERSIONS["WAMR"]
        assert ALL_PROFILES["wasmtime"].version == STACK_VERSIONS["Wasmtime"]

    def test_wamr_is_smallest_embedded(self):
        wamr = ALL_PROFILES["wamr"]
        for other in ("wasmtime", "wasmer", "wasmedge"):
            assert wamr.base_rss < ALL_PROFILES[other].base_rss
            assert wamr.lib_text < ALL_PROFILES[other].lib_text

    def test_interpreters_have_unit_code_multiplier(self):
        assert ALL_PROFILES["wamr"].code_multiplier == 1.0
        assert ALL_PROFILES["wasmedge"].code_multiplier == 1.0

    def test_jits_multiply_code(self):
        assert ALL_PROFILES["wasmtime"].code_multiplier > 1
        assert ALL_PROFILES["wasmer"].code_multiplier > 1

    def test_latency_helpers(self):
        p = ALL_PROFILES["wasmtime"]
        assert p.compile_seconds(p.compile_bps) == pytest.approx(1.0)
        assert p.exec_seconds(p.interp_ips) == pytest.approx(1.0)


class TestCompileRun:
    def test_compile_validates(self, blob):
        compiled = get_engine("wamr").compile(blob)
        assert compiled.module_size == len(blob)
        assert compiled.artifact_bytes == len(blob)  # interp: 1x

    def test_jit_artifact_larger(self, blob):
        compiled = get_engine("wasmtime").compile(blob)
        assert compiled.artifact_bytes == 6 * len(blob)

    def test_compile_rejects_garbage(self):
        with pytest.raises(EngineError, match="rejected"):
            get_engine("wamr").compile(b"\x00asm garbage")

    def test_run_produces_real_output(self, blob):
        engine = get_engine("wamr")
        result = engine.run(engine.compile(blob), args=["svc"], env={})
        assert result.exit_code == 0
        assert b"microservice: ready" in result.stdout
        assert result.instructions > 1000
        assert result.linear_memory_bytes == 65536

    def test_identical_semantics_across_engines(self, blob):
        outputs = set()
        for name in available_engines():
            engine = get_engine(name)
            result = engine.run(engine.compile(blob), args=["svc"], env={"REQUESTS": "2"})
            outputs.add((result.exit_code, result.stdout, result.instructions))
        assert len(outputs) == 1, "engines must agree on guest semantics"

    def test_exec_seconds_differ_by_engine_speed(self, blob):
        wamr = get_engine("wamr")
        wasmtime = get_engine("wasmtime")
        r1 = wamr.run(wamr.compile(blob))
        r2 = wasmtime.run(wasmtime.compile(blob))
        assert r1.exec_seconds > r2.exec_seconds  # interp slower than JIT

    def test_run_trap_becomes_engine_error(self):
        bad = assemble_wat('(module (func (export "_start") unreachable))')
        engine = get_engine("wamr")
        with pytest.raises(EngineError, match="trap"):
            engine.run(engine.compile(bad))


class TestMemoryAccounting:
    def test_embedded_footprint_composition(self, blob):
        engine = get_engine("wamr")
        compiled = engine.compile(blob)
        linmem = 65536
        total = engine.embedded_private_bytes(compiled, linmem)
        p = engine.profile
        assert total == p.base_rss + p.per_instance + compiled.artifact_bytes + linmem

    def test_shim_child_footprint(self, blob):
        engine = get_engine("wasmtime")
        compiled = engine.compile(blob)
        assert (
            engine.shim_child_private_bytes(compiled, 65536)
            == engine.profile.shim_child_rss + 65536
        )

    def test_wamr_embedded_beats_others_by_construction(self, blob):
        linmem = 65536
        footprints = {}
        for name in available_engines():
            engine = get_engine(name)
            footprints[name] = engine.embedded_private_bytes(
                engine.compile(blob), linmem
            )
        assert min(footprints, key=footprints.get) == "wamr"
        # Paper's headline: >= ~50% smaller than the next engine.
        others = [v for k, v in footprints.items() if k != "wamr"]
        assert footprints["wamr"] < 0.5 * min(others)


class TestCache:
    def test_run_cached_reuses_results(self, blob):
        reset_caches()
        engine = get_engine("wamr")
        c1, r1 = run_cached(engine, blob, args=["svc"], env={"A": "1"})
        c2, r2 = run_cached(engine, blob, args=["svc"], env={"A": "1"})
        assert r1 is r2 and c1 is c2

    def test_cache_distinguishes_env(self, blob):
        reset_caches()
        engine = get_engine("wamr")
        _, r1 = run_cached(engine, blob, args=["svc"], env={"REQUESTS": "1"})
        _, r2 = run_cached(engine, blob, args=["svc"], env={"REQUESTS": "2"})
        assert r1.stdout != r2.stdout

    def test_cache_distinguishes_engine(self, blob):
        reset_caches()
        c1, _ = run_cached(get_engine("wamr"), blob, args=["x"])
        c2, _ = run_cached(get_engine("wasmtime"), blob, args=["x"])
        assert c1.artifact_bytes != c2.artifact_bytes

    def test_hit_miss_counters(self, blob):
        reset_caches()
        engine = get_engine("wamr")
        run_cached(engine, blob, args=["svc"])
        assert (compile_stats.misses, compile_stats.hits) == (1, 0)
        assert (run_stats.misses, run_stats.hits) == (1, 0)
        run_cached(engine, blob, args=["svc"])
        assert (compile_stats.misses, compile_stats.hits) == (1, 1)
        assert (run_stats.misses, run_stats.hits) == (1, 1)

    def test_prepare_cached_shared_across_engines(self, blob):
        # Flat code is engine-neutral: the second engine's decode re-uses
        # the prepared functions keyed by blob digest.
        reset_caches()
        c1 = compile_cached(get_engine("wamr"), blob)
        c2 = compile_cached(get_engine("wasmtime"), blob)
        assert prepare_stats.misses == 1 and prepare_stats.hits == 1
        assert (
            c1.module.funcs[0].prepared is c2.module.funcs[0].prepared is not None
        )

    def test_reset_caches_zeroes_state(self, blob):
        engine = get_engine("wamr")
        run_cached(engine, blob, args=["svc"])
        reset_caches()
        stats = cache_stats()
        for layer in ("compile", "prepare", "run"):
            assert stats[layer] == {"hits": 0, "misses": 0, "entries": 0}
