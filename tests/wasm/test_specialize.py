"""Unit tests for the specialization tier passes (`wasm/runtime/specialize`).

Each pass is exercised in isolation through `SpecializeReport` counts
and by inspecting the rewritten flat code (handler identity), then the
result is executed to confirm behaviour is unchanged. The differential
suites (`tests/wasm/test_differential.py`, the hypothesis property)
cover end-to-end equivalence; this file pins the mechanics: what gets
folded, fused, elided, IC'd and compiled into inlined windows, and that
instruction accounting and the deopt chain survive every rewrite.
"""

import pytest

from repro import obs
from repro.errors import WasmTrap
from repro.wasm import parse_wat, validate_module
from repro.wasm.runtime import (
    Interpreter,
    SpecializedFunction,
    Store,
    instantiate,
    prepare_module,
    specialize_module,
)
from repro.wasm.runtime import compile as flat
from repro.wasm.runtime import specialize
from repro.wasm.runtime.ops import BINOPS, CMPOPS, UNOPS
from repro.wasm.runtime.specialize import SpecializeReport, specialize_counts
from repro.workloads.microservice import microservice_module

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


class TestPeepholeFusion:
    def test_const_const_binop_folds_to_const(self):
        module, report = _specialized(
            '(module (func (export "run") (result i32)'
            " (i32.mul (i32.const 6) (i32.const 7))))"
        )
        assert report.fused >= 1
        names = _handlers(module)
        assert "h_binop" not in names and "h_const_binop" not in names
        assert _run(module) == [42]

    def test_folded_global_feeds_fusion(self):
        # global.get -> const (pass 1) must then fuse with the binop
        # (pass 2), which pass 5 joins to the local.get and inlines.
        module, report = _specialized(
            "(module (global $k i32 (i32.const 5))"
            ' (func (export "run") (param i32) (result i32)'
            " (i32.add (local.get 0) (global.get $k))))"
        )
        assert report.folded == 1 and report.fused >= 1
        handler, args, weight = module.funcs[0].prepared.code[0]
        assert handler.__name__ == "h_get_const_i32_add"
        assert (args, weight) == ((0, 5), 3)
        assert _run(module, args=(37,)) == [42]

    def test_weight_sum_preserved(self):
        module, _ = _specialized(
            '(module (func (export "run") (result i32)'
            " (i32.add (i32.add (i32.const 1) (i32.const 2))"
            "          (i32.add (i32.const 3) (i32.const 4)))))"
        )
        pf = module.funcs[0].prepared
        assert sum(w for _h, _a, w in pf.code) == pf.source_instrs
        # Exact fuel accounting at the boundary: the run above costs
        # source_instrs units regardless of how much got folded.
        assert _run(module, fuel=pf.source_instrs) == [10]


class TestBoundsElision:
    MASKED = """
        (module (memory 1)
          (func (export "run") (param i32) (result i32)
            (i32.store (i32.and (local.get 0) (i32.const 0xfffc))
                       (i32.const 7))
            (i32.load (i32.and (local.get 0) (i32.const 0xfffc)))))
    """

    def test_masked_access_uses_unchecked_handlers(self):
        module, report = _specialized(self.MASKED)
        assert report.elided == 2
        names = _handlers(module)
        assert "u_i32_store" in names and "u_i32_load" in names
        assert _run(module, args=(123456,)) == [7]

    def test_unbounded_access_stays_checked(self):
        module, report = _specialized(
            '(module (memory 1) (func (export "run") (param i32) (result i32)'
            " (i32.load (local.get 0))))"
        )
        assert report.elided == 0
        assert not any(n.startswith("u_") for n in _handlers(module))
        with pytest.raises(WasmTrap, match="out of bounds memory access"):
            _run(module, args=(70000,))

    def test_mask_exceeding_minimum_stays_checked(self):
        # 0x1ffff + 4 > one page: the proof must fail even though the
        # address is masked.
        module, report = _specialized(
            '(module (memory 1) (func (export "run") (param i32) (result i32)'
            " (i32.load (i32.and (local.get 0) (i32.const 0x1ffff)))))"
        )
        assert report.elided == 0


class TestInlineCaches:
    TABLE = """
        (module (type $t (func (param i32) (result i32)))
          (table 3 funcref) (elem (i32.const 0) $sq $dbl)
          (func $sq (type $t) (i32.mul (local.get 0) (local.get 0)))
          (func $dbl (type $t) (i32.add (local.get 0) (local.get 0)))
          (func (export "run") (param i32 i32) (result i32)
            (call_indirect (type $t) (local.get 1) (local.get 0))))
    """

    def test_ic_installed_and_counts_misses(self):
        module, report = _specialized(self.TABLE)
        assert report.ic_sites == 1
        assert "h_call_indirect_ic" in _handlers(module, fi=2)
        before = specialize_counts()["deopts_ic_miss"]
        store = Store()
        inst = instantiate(store, module)
        interp = Interpreter(store)
        # First call misses and fills the cell; the repeat hits.
        assert interp.invoke_export(inst, "run", [0, 6]) == [36]
        assert interp.invoke_export(inst, "run", [0, 7]) == [49]
        mono = specialize_counts()["deopts_ic_miss"] - before
        assert mono == 1
        # Flipping the target invalidates the cell each time.
        assert interp.invoke_export(inst, "run", [1, 6]) == [12]
        assert interp.invoke_export(inst, "run", [0, 6]) == [36]
        assert specialize_counts()["deopts_ic_miss"] - before == 3

    def test_ic_traps_match_generic_path(self):
        module, _ = _specialized(self.TABLE)
        with pytest.raises(WasmTrap, match="undefined element"):
            _run(module, args=(9, 1))
        with pytest.raises(WasmTrap, match="uninitialized element"):
            _run(module, args=(2, 1))

    def test_ic_type_mismatch_message(self):
        src = """(module (type $t (func (result i64)))
            (table 1 funcref) (elem (i32.const 0) $f)
            (func $f (result i32) (i32.const 1))
            (func (export "run") (result i64)
              (call_indirect (type $t) (i32.const 0))))"""
        module, _ = _specialized(src)
        with pytest.raises(WasmTrap, match="indirect call type mismatch"):
            _run(module)


#: operands around every wrap, sign and shift-count edge, and values
#: outside the unsigned representation (the expressions must agree with
#: the ops.py callables on every int, not only on well-formed operands)
EDGES = (
    0, 1, 2, 5, 31, 32, 33, 63, 64, 65, 100,
    2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32,
    2**63 - 1, 2**63, 2**64 - 1, 2**64, -1, -(2**31),
)


class TestInlineSuperinstructions:
    @pytest.mark.parametrize("op", sorted(specialize._EXPRS))
    def test_inlined_handler_equals_operator_callable(self, op):
        # A one-operator window takes its operands off the real stack.
        handler = specialize._window_handler([("op", op)])
        f = {**BINOPS, **CMPOPS, **UNOPS}[op]
        unary = op in UNOPS
        for a in EDGES:
            for b in (None,) if unary else EDGES:
                want = f(a) if unary else f(a, b)
                if op in specialize._BOOL:
                    want = 1 if want else 0
                stack = [a] if unary else [a, b]
                assert handler(None, None, stack, (), 0) == 1
                assert stack == [want], (op, a, b)

    def test_only_non_trapping_integer_ops_inline(self):
        inlined = set(specialize._EXPRS)
        for op in list(BINOPS) + list(CMPOPS):
            trapping = "div" in op or "rem" in op
            assert (op in inlined) == (op[0] == "i" and not trapping), op
        assert inlined & set(UNOPS) == {
            "i32.eqz", "i64.eqz", "i32.wrap_i64",
            "i64.extend_i32_u", "i64.extend_i32_s",
        }

    def test_float_arithmetic_keeps_generic_handlers(self):
        module, report = _specialized(
            '(module (func (export "run") (param f64 f64) (result f64)'
            " (f64.mul (f64.add (local.get 0) (local.get 1)) (f64.const 0.5))))"
        )
        assert report.inlined == 0 and report.windows == 0
        assert _handlers(module) == ["h_lgg_binop", "h_const_binop", "h_end"]
        assert _run(module, args=(1.0, 2.0)) == [1.5]

    def test_microservice_mix_loop_is_four_dispatches(self):
        # 12 dispatches and 6 operator calls per iteration before pass 5.
        module = microservice_module()
        prepare_module(module)
        report = SpecializeReport()
        specialize_module(module, report=report).attach(module)
        assert report.windows > 0 and report.inlined > 0
        code = module.funcs[1].prepared.code  # $mix
        head = next(pc for pc, (h, _a, _w) in enumerate(code)
                    if h.__name__ == "h_get_get_i32_ge_u_br_if")
        back = next(pc for pc, (h, a, _w) in enumerate(code)
                    if h is flat.h_goto and a == head)
        loop = [(h.__name__, a, w) for h, a, w in code[head : back + 1]]
        exit_pc = code[head][1][-1]
        assert loop == [
            ("h_get_get_i32_ge_u_br_if", (1, 0, exit_pc), 4),  # i >= n: exit
            (  # acc = ((acc + i) * 0x5bd1e995) ^ (acc >> 13)
                "h_get_get_i32_add_const_i32_mul_get_const_i32_shr_u_i32_xor_set",
                (2, 1, 0x5BD1E995, 2, 13, 2),
                10,
            ),
            ("h_get_const_i32_add_set", (1, 1, 1), 4),  # i += 1
            ("h_goto", head, 1),
        ]
        assert specialize._branch_targets(code) == {head, exit_pc}

    def test_remap_rewrites_generated_branch_targets(self):
        handler = specialize._window_handler(
            [("get", 0), ("get", 1), ("op", "i32.lt_u"), ("br_if", 5)]
        )
        entries = [(handler, (0, 1, 5), 4), (flat.h_goto, 0, 1)]
        assert specialize._branch_targets(entries) == {5, 0}
        moved = specialize._remap_pcs(entries, {0: 0, 5: 3})
        assert moved == [(handler, (0, 1, 3), 4), (flat.h_goto, 0, 1)]

    def test_windows_of_one_shape_share_a_handler(self):
        module, _ = _specialized(
            '(module (func (export "run") (param i32 i32) (result i32)'
            " (local.set 0 (i32.add (local.get 0) (i32.const 1)))"
            " (local.set 1 (i32.add (local.get 1) (i32.const 2)))"
            " (i32.add (local.get 0) (local.get 1))))"
        )
        code = module.funcs[0].prepared.code
        assert code[0][0] is code[1][0]
        assert (code[0][1], code[1][1]) == ((0, 1, 0), (1, 2, 1))
        assert _run(module, args=(10, 20)) == [33]

    def test_window_never_spans_a_branch_target(self):
        # The block's end label lands on the `local.set`: the add before
        # it is inlined but must not absorb the branch target.
        module, _ = _specialized(
            '(module (func (export "run") (param i32) (result i32) (local i32)'
            " (local.set 1 (block (result i32)"
            "   (br_if 0 (i32.const 9) (local.get 0))"
            "   (drop)"
            "   (i32.add (local.get 0) (local.get 0))))"
            " (local.get 1)))"
        )
        names = _handlers(module)
        at = names.index("h_get_get_i32_add")
        assert names[at + 1] == "h_local_set"
        assert at + 1 in specialize._branch_targets(module.funcs[0].prepared.code)
        assert _run(module, args=(0,)) == [0]
        assert _run(module, args=(3,)) == [9]


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
        assert set(counts) == {"functions_failed", "deopts_ic_miss"}

    def test_pass_duration_observed(self):
        fam = obs.histogram(
            "repro_specialize_pass_seconds",
            "wall time of the specialization pass per module",
            always=True,
        )
        before = fam.labels().count
        _specialized(LOOP)
        assert fam.labels().count == before + 1
