"""Specialization tier end-to-end: figure inputs must not move.

The acceptance criterion for the specialization tier is that it changes
*speed only*: every measurement feeding the paper's figures — working
sets, free-memory deltas, startup makespans, per-phase traces — is
byte-identical whether the guest runs specialized code or the
unspecialized prepared code a failed pass falls back to. This holds
because specialized code preserves exact instruction accounting (weight
sums equal ``source_instrs``) and the metered engine path debits fuel
through the same totals.

The unspecialized side makes the specialize pass raise, the same
fallback a real pass failure takes. The measurement caches (in-process
lru + on-disk) are defeated so both sides of every comparison run the
full simulation.
"""

import pytest

from repro.engines import cache as engine_cache
from repro.engines.cache import cache_stats, reset_caches
from repro.measure.experiment import ExperimentRunner, _cached_measurement, measure
from repro.measure.figures import fig8_startup_10
from repro.measure.report import render_series

DENSITY = 15


@pytest.fixture(autouse=True)
def fresh_measurements(monkeypatch):
    monkeypatch.setenv("REPRO_MEASURE_CACHE", "off")
    _cached_measurement.cache_clear()
    reset_caches()
    yield
    _cached_measurement.cache_clear()
    reset_caches()


def _fail_specialization(monkeypatch):
    def boom(module):
        raise RuntimeError("specialization pass exploded")

    monkeypatch.setattr(engine_cache, "specialize_module", boom)


def _both_sides(monkeypatch, run, wasm=True):
    """``run()`` with the tier, then with every specialize pass failing."""
    _cached_measurement.cache_clear()
    reset_caches()
    specialized = run()
    assert (cache_stats()["specialize"]["entries"] > 0) == wasm
    _fail_specialization(monkeypatch)
    _cached_measurement.cache_clear()
    reset_caches()
    fallback = run()
    assert cache_stats()["specialize"]["entries"] == 0
    return specialized, fallback


class TestMeasurementsByteIdentical:
    @pytest.mark.parametrize("config", ["crun-wamr", "crun-wasmtime"])
    def test_wasm_config_unaffected_by_toggle(self, config, monkeypatch):
        on, off = _both_sides(
            monkeypatch, lambda: ExperimentRunner(seed=7).run(config, DENSITY)
        )
        assert on == off  # full dataclass equality, phase traces included

    def test_python_baseline_unaffected(self, monkeypatch):
        on, off = _both_sides(
            monkeypatch,
            lambda: ExperimentRunner(seed=7).run("runc-python", DENSITY),
            wasm=False,
        )
        assert on == off


class TestFigureOutputsByteIdentical:
    def test_fig8_renders_identically(self, monkeypatch):
        on, off = _both_sides(
            monkeypatch, lambda: render_series(fig8_startup_10(seed=7))
        )
        assert on == off

    def test_measure_helper_identical_at_density(self, monkeypatch):
        # `measure` is the single entry point behind every figN_* series,
        # so identity here extends to all figures at this density.
        on, off = _both_sides(
            monkeypatch, lambda: measure("crun-wamr", DENSITY, seed=11)
        )
        assert on == off
