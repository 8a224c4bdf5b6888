"""Checks on the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench -q``
(about a minute). Not part of the tier-1 suite, which collects ``tests/``.
"""

from __future__ import annotations

import importlib
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
import run  # noqa: E402


def _bindings():
    """Every attribute the ledger patches, with the object bound there now."""
    importlib.import_module("repro.container.highlevel.runwasi")
    importlib.import_module("repro.core.wamr_handler")
    importlib.import_module("repro.container.lowlevel.crun")
    seen = {}
    for _, module, cls, names in ledger.TIMED_METHODS:
        owner = getattr(importlib.import_module(module), cls)
        for name in names:
            seen[(owner, name)] = owner.__dict__.get(name)
    for _, module, cls, name in ledger.TIMED_ACTIVITIES:
        owner = getattr(importlib.import_module(module), cls)
        seen[(owner, name)] = owner.__dict__.get(name)
    functions = [(m, n) for _, m, n in ledger.TIMED_FUNCTIONS]
    functions.append(("repro.engines.cache", "run_cached"))
    for module, name in functions:
        original = getattr(importlib.import_module(module), name)
        for mod in ledger._repro_modules():
            for attr, value in vars(mod).items():
                if value is original:
                    seen[(mod, attr)] = value
    return seen


def test_ledger_restores_every_patched_attribute_and_sees_from_imports():
    from repro.measure.experiment import ExperimentRunner

    before = _bindings()
    with ledger.Ledger() as book:
        ExperimentRunner(seed=3).run("crun-wamr", 12, nodes=2)
        ExperimentRunner(seed=3).run("shim-wasmtime", 4)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert ledger.leftover_wrappers(book) == []
    # Calls made through from-imported names are seen.
    assert book.calls["#run_cached"] == 16
    assert book.calls["oci.bundle/build_bundle"] == 16
    assert book.calls["k8s.kubelet/sync_pod"] == 16
    assert book.calls["container.create/create_container"] == 16
    assert book.calls["k8s.scheduler/schedule"] == 16
    assert book.sums["#feasible_nodes"] == 12 * 2 + 4


def test_ledger_reconciles():
    from repro.measure.experiment import ExperimentRunner

    with ledger.Ledger() as book:
        ExperimentRunner(seed=1).run("crun-wamr", 20)
    metrics = book.metrics(wall_s=10.0)
    self_s = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    attributed = book.attributed_ns() * ledger.NS
    assert self_s == pytest.approx(attributed, rel=1e-9)
    assert metrics["trace.unattributed_s"] == pytest.approx(10.0 - attributed)
    assert metrics["k8s.kubelet.syncs"] == 20
    assert metrics["sim.kernel.events"] > 0


@pytest.mark.parametrize("workload", ["campaign", "chaos"])
def test_traced_and_untraced_digests_match(workload):
    plain = run.run_rep(workload, 1, trace=False)
    traced = run.run_rep(workload, 1, trace=True)
    assert plain["problems"] == [] and traced["problems"] == []
    assert traced["digest"] == plain["digest"] == run.recorded_digest(workload, 1)
    assert traced["leftover_wrappers"] == []
    layers = traced["layers"]
    assert layers["trace.unattributed_s"] >= 0.0
    assert set(layers) | {"trace.overhead_frac"} == set(run.LAYER_UNITS)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_held_out_seed_passes_every_output_check(workload):
    rep = run.run_rep(workload, 2, trace=False)
    assert rep["problems"] == []
    assert rep["failed"] == 0
    assert rep["digest"] == run.recorded_digest(workload, 2)
