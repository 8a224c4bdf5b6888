"""Zygote warm-start end-to-end: deployment experiments on the testbed.

Asserts three properties: the zygote configuration converges
functionally, beats cold crun-wamr on both startup and memory, and —
the acceptance criterion — every non-zygote measurement is
byte-identical whether the engine restores guests from snapshots or
instantiates every one cold (``run_wasi(zygote=False)``).
"""

import functools

import pytest

from repro.engines.cache import reset_caches
from repro.measure.experiment import ExperimentRunner
from repro.wasm.embed import run_wasi

DENSITY = 15


@pytest.fixture()
def runner():
    return ExperimentRunner(seed=23)


class TestZygoteDeployment:
    def test_runs_to_ready(self, runner):
        m = runner.run("crun-wamr-zygote", DENSITY)
        assert m.ready_fraction == 1.0
        assert set(m.exit_codes) == {0}

    def test_leaner_than_cold_crun_wamr(self, runner):
        cold = runner.run("crun-wamr", DENSITY)
        warm = runner.run("crun-wamr-zygote", DENSITY)
        # The COW snapshot replaces most per-container private memory.
        assert warm.metrics_mib < 0.7 * cold.metrics_mib
        assert warm.free_mib < cold.free_mib

    def test_faster_at_density(self, runner):
        # The startup win comes from the serialized-phase growth term, so
        # measure at a density where it dominates.
        cold = runner.run("crun-wamr", 100)
        warm = runner.run("crun-wamr-zygote", 100)
        assert warm.startup_seconds < cold.startup_seconds


def _default_and_forced_cold(monkeypatch, config):
    reset_caches()
    default = ExperimentRunner(seed=7).run(config, DENSITY)
    monkeypatch.setattr(
        "repro.engines.base.run_wasi", functools.partial(run_wasi, zygote=False)
    )
    reset_caches()
    cold = ExperimentRunner(seed=7).run(config, DENSITY)
    return default, cold


class TestByteIdenticalAcceptance:
    def test_non_zygote_configs_unaffected_by_toggle(self, monkeypatch):
        """Figure/summary inputs must not move with the engine's warm path."""
        default, cold = _default_and_forced_cold(monkeypatch, "crun-wamr")
        assert default == cold  # full dataclass equality

    def test_python_baseline_unaffected_by_toggle(self, monkeypatch):
        default, cold = _default_and_forced_cold(monkeypatch, "runc-python")
        assert default == cold
