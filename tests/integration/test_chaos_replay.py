"""Differential check of the run-cache replay under chaos.

Under a plan arming guest-runtime points, a run-cache hit replays the
pod's fault draws instead of executing the guest. The oracle is the same
chaos campaign with every run executing, through a run cache that never
stores. Both must give the same measurement, fired log and check count.

The shipped microservice makes all its host calls from ``_start``, so a
second guest adds a start section that calls the host: only then does a
hit have start-phase ``wasi.syscall`` draws to replay.
"""

import pytest

from repro.engines import cache as engine_cache
from repro.k8s import cluster as cluster_mod
from repro.measure.chaos import run_chaos
from repro.oci.image import Image, ImageConfig, Layer
from repro.sim.faults import full_lifecycle_plan
from repro.wasm import assemble_wat
from repro.workloads.images import WASM_IMAGE_REF, build_wasm_image
from repro.workloads.microservice import MICROSERVICE_WAT

#: the microservice with a start section that reads the clock twice
START_CALLS_HOST_WAT = MICROSERVICE_WAT.replace(
    '  (func (export "_start")',
    "  (func $boot\n"
    "    (drop (call $clock_time_get (i32.const 1) (i64.const 1000) (i32.const 48)))\n"
    "    (drop (call $clock_time_get (i32.const 1) (i64.const 1000) (i32.const 48))))\n"
    "  (start $boot)\n"
    '  (func (export "_start")',
)


def _start_calls_host_image() -> Image:
    shipped = build_wasm_image()
    layer = Layer.from_files({"app/main.wasm": assemble_wat(START_CALLS_HOST_WAT)})
    return Image(
        reference=WASM_IMAGE_REF,
        config=ImageConfig(
            entrypoint=list(shipped.config.entrypoint),
            env=dict(shipped.config.env),
            annotations=dict(shipped.config.annotations),
        ),
        layers=[layer],
    )


class _NeverStores(dict):
    """A run cache on which every request misses and executes the guest."""

    def __setitem__(self, key, value) -> None:
        pass


def _chaos(seed: int):
    plan = full_lifecycle_plan(seed=seed, rate=0.25)
    hits = engine_cache.run_stats.hits
    measurement = run_chaos(count=60, seed=seed, plan=plan)
    return (
        (measurement.to_dict(), plan.fired, plan.checks),
        engine_cache.run_stats.hits - hits,
    )


@pytest.mark.parametrize("guest", ["shipped", "start_calls_host"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_replay_matches_forced_execution(seed, guest, monkeypatch):
    if guest == "start_calls_host":
        monkeypatch.setattr(cluster_mod, "build_wasm_image", _start_calls_host_image)
    replayed, replayed_hits = _chaos(seed)
    start_calls = {r.start_host_calls for r in engine_cache._RUN_CACHE.values()}
    assert start_calls == ({2} if guest == "start_calls_host" else {0})
    monkeypatch.setattr(engine_cache, "_RUN_CACHE", _NeverStores())
    executed, executed_hits = _chaos(seed)
    assert executed_hits == 0
    assert replayed_hits > 0  # the replay really served pods
    assert replayed == executed
