"""Unit tests for the specialization tier (`wasm/runtime/specialize`).

The constant-folding pass is exercised through `SpecializeReport`
counts and by inspecting the rewritten flat code (handler identity),
then the result is executed to confirm behaviour is unchanged. The
differential suites (`tests/wasm/test_differential.py`, the hypothesis
property) cover end-to-end equivalence; this file pins the mechanics:
what gets folded, and that instruction accounting and the fallback
chain survive the rewrite.
"""

import pytest

from repro import obs
from repro.errors import ExhaustionError
from repro.wasm import parse_wat, validate_module
from repro.wasm.runtime import (
    Interpreter,
    SpecializedFunction,
    Store,
    instantiate,
    prepare_module,
    specialize_module,
)
from repro.wasm.runtime.specialize import SpecializeReport, specialize_counts

LOOP = """
    (module (func (export "run") (param i32) (result i32)
      (local $acc i32)
      (block $out (loop $top
        (br_if $out (i32.eqz (local.get 0)))
        (local.set $acc (i32.add (local.get $acc) (local.get 0)))
        (local.set 0 (i32.sub (local.get 0) (i32.const 1)))
        (br $top)))
      (local.get $acc)))
"""


def _specialized(src):
    module = validate_module(parse_wat(src))
    prepare_module(module)
    report = SpecializeReport()
    specialize_module(module, report=report).attach(module)
    return module, report


def _run(module, func="run", args=(), fuel=None):
    store = Store()
    inst = instantiate(store, module)
    interp = Interpreter(store, fuel=fuel)
    return interp.invoke_export(inst, func, list(args))


def _handlers(module, fi=0):
    return [h.__name__ for h, _a, _w in module.funcs[fi].prepared.code]


class TestGlobalFolding:
    IMMUT = """
        (module (global $k i32 (i32.const 41))
          (func (export "run") (result i32)
            (i32.add (global.get $k) (i32.const 1))))
    """
    MUT = """
        (module (global $k (mut i32) (i32.const 41))
          (func (export "run") (result i32)
            (i32.add (global.get $k) (i32.const 1))))
    """

    def test_immutable_global_becomes_const(self):
        module, report = _specialized(self.IMMUT)
        assert report.folded == 1
        assert "h_global_get" not in _handlers(module)
        assert _run(module) == [42]

    def test_mutable_global_not_folded(self):
        module, report = _specialized(self.MUT)
        assert report.folded == 0
        assert "h_global_get" in _handlers(module)
        assert _run(module) == [42]

    def test_weight_sum_preserved(self):
        # Folding is 1:1, so every weight and the fuel cost survive it.
        module, report = _specialized(
            "(module (global $a i32 (i32.const 1)) (global $b i32 (i32.const 2))"
            ' (func (export "run") (result i32)'
            " (i32.add (i32.add (global.get $a) (global.get $b))"
            "          (i32.add (global.get $a) (i32.const 4)))))"
        )
        assert report.folded == 3
        pf = module.funcs[0].prepared
        assert len(pf.code) == len(pf.fallback.code)
        assert sum(w for _h, _a, w in pf.code) == pf.source_instrs
        # Exact fuel accounting at the boundary: the run costs
        # source_instrs units regardless of how much got folded.
        assert _run(module, fuel=pf.source_instrs) == [8]
        with pytest.raises(ExhaustionError):
            _run(module, fuel=pf.source_instrs - 1)


class TestDriver:
    def test_specialized_function_keeps_baseline_fallback(self):
        module, _ = _specialized(LOOP)
        sf = module.funcs[0].prepared
        assert isinstance(sf, SpecializedFunction)
        assert type(sf.fallback) is not SpecializedFunction

    def test_respecialize_is_idempotent(self):
        module, _ = _specialized(LOOP)
        first_fallback = module.funcs[0].prepared.fallback
        specialize_module(module).attach(module)
        sf = module.funcs[0].prepared
        assert sf.fallback is first_fallback  # never stacks tiers
        assert _run(module, args=(4,)) == [10]

    def test_counts_exposes_all_keys(self):
        counts = specialize_counts()
        assert set(counts) == {"functions_failed"}

    def test_pass_duration_observed(self):
        fam = obs.histogram(
            "repro_specialize_pass_seconds",
            "wall time of the specialization pass per module",
            always=True,
        )
        before = fam.labels().count
        _specialized(LOOP)
        assert fam.labels().count == before + 1
