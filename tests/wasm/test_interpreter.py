"""Interpreter semantics: numerics, control flow, memory, calls, traps."""

import math
import sys

import pytest

from repro.errors import ExhaustionError, WasmTrap
from repro.wasm import parse_wat, validate_module
from repro.wasm.runtime import (
    Interpreter,
    ReferenceInterpreter,
    Store,
    instantiate,
)


def run(src: str, func: str = "run", args=(), fuel=None):
    module = validate_module(parse_wat(src))
    store = Store()
    inst = instantiate(store, module)
    interp = Interpreter(store, fuel=fuel)
    return interp.invoke_export(inst, func, args)


def expr(body: str, result: str = "i32", params: str = "", args=()):
    plist = " ".join(f"(param {p})" for p in params.split()) if params else ""
    src = f'(module (func (export "run") {plist} (result {result}) {body}))'
    return run(src, args=args)[0]


class TestI32Arithmetic:
    def test_add_wraps(self):
        assert expr("(i32.add (i32.const 0x7fffffff) (i32.const 1))") == 0x80000000

    def test_sub_wraps(self):
        assert expr("(i32.sub (i32.const 0) (i32.const 1))") == 0xFFFFFFFF

    def test_mul(self):
        assert expr("(i32.mul (i32.const 1234) (i32.const 5678))") == 7006652

    def test_div_s_truncates_toward_zero(self):
        assert expr("(i32.div_s (i32.const -7) (i32.const 2))") == 0xFFFFFFFD  # -3

    def test_div_u(self):
        assert expr("(i32.div_u (i32.const -1) (i32.const 2))") == 0x7FFFFFFF

    def test_div_by_zero_traps(self):
        with pytest.raises(WasmTrap, match="divide by zero"):
            expr("(i32.div_s (i32.const 1) (i32.const 0))")

    def test_div_overflow_traps(self):
        with pytest.raises(WasmTrap, match="overflow"):
            expr("(i32.div_s (i32.const 0x80000000) (i32.const -1))")

    def test_rem_s_sign_follows_dividend(self):
        assert expr("(i32.rem_s (i32.const -7) (i32.const 3))") == 0xFFFFFFFF  # -1

    def test_rem_s_int_min(self):
        assert expr("(i32.rem_s (i32.const 0x80000000) (i32.const -1))") == 0

    def test_rem_u(self):
        assert expr("(i32.rem_u (i32.const 7) (i32.const 3))") == 1

    @pytest.mark.parametrize(
        "op,a,b,want",
        [
            ("and", 0b1100, 0b1010, 0b1000),
            ("or", 0b1100, 0b1010, 0b1110),
            ("xor", 0b1100, 0b1010, 0b0110),
        ],
    )
    def test_bitwise(self, op, a, b, want):
        assert expr(f"(i32.{op} (i32.const {a}) (i32.const {b}))") == want

    def test_shl_modulo_width(self):
        assert expr("(i32.shl (i32.const 1) (i32.const 33))") == 2

    def test_shr_s_sign_extends(self):
        assert expr("(i32.shr_s (i32.const -8) (i32.const 1))") == 0xFFFFFFFC

    def test_shr_u_zero_fills(self):
        assert expr("(i32.shr_u (i32.const -8) (i32.const 1))") == 0x7FFFFFFC

    def test_rotl_rotr(self):
        assert expr("(i32.rotl (i32.const 0x80000001) (i32.const 1))") == 3
        assert expr("(i32.rotr (i32.const 3) (i32.const 1))") == 0x80000001

    def test_clz_ctz_popcnt(self):
        assert expr("(i32.clz (i32.const 1))") == 31
        assert expr("(i32.clz (i32.const 0))") == 32
        assert expr("(i32.ctz (i32.const 8))") == 3
        assert expr("(i32.ctz (i32.const 0))") == 32
        assert expr("(i32.popcnt (i32.const 0xFF0F))") == 12

    def test_eqz(self):
        assert expr("(i32.eqz (i32.const 0))") == 1
        assert expr("(i32.eqz (i32.const 5))") == 0

    def test_signed_vs_unsigned_compare(self):
        assert expr("(i32.lt_s (i32.const -1) (i32.const 1))") == 1
        assert expr("(i32.lt_u (i32.const -1) (i32.const 1))") == 0


class TestI64:
    def test_add_wraps(self):
        assert (
            expr("(i64.add (i64.const 0x7fffffffffffffff) (i64.const 1))", "i64")
            == 0x8000000000000000
        )

    def test_mul_large(self):
        assert (
            expr("(i64.mul (i64.const 0x100000000) (i64.const 0x100000000))", "i64")
            == 0
        )

    def test_clz64(self):
        assert expr("(i64.clz (i64.const 1))", "i64") == 63

    def test_extend_s(self):
        assert (
            expr("(i64.extend_i32_s (i32.const -1))", "i64") == 0xFFFFFFFFFFFFFFFF
        )

    def test_extend_u(self):
        assert expr("(i64.extend_i32_u (i32.const -1))", "i64") == 0xFFFFFFFF

    def test_wrap(self):
        assert expr("(i32.wrap_i64 (i64.const 0x1_0000_0001))") == 1


class TestFloats:
    def test_f64_arith(self):
        assert expr("(f64.add (f64.const 1.5) (f64.const 2.25))", "f64") == 3.75

    def test_f32_rounds_to_single(self):
        got = expr("(f32.add (f32.const 0.1) (f32.const 0.2))", "f32")
        assert got == pytest.approx(0.3, abs=1e-6)
        assert got != 0.1 + 0.2  # double result would differ

    def test_div_by_zero_is_inf(self):
        assert expr("(f64.div (f64.const 1) (f64.const 0))", "f64") == math.inf
        assert expr("(f64.div (f64.const -1) (f64.const 0))", "f64") == -math.inf

    def test_zero_over_zero_is_nan(self):
        assert math.isnan(expr("(f64.div (f64.const 0) (f64.const 0))", "f64"))

    def test_min_max_nan_propagation(self):
        assert math.isnan(expr("(f64.min (f64.const nan) (f64.const 1))", "f64"))
        assert math.isnan(expr("(f64.max (f64.const 1) (f64.const nan))", "f64"))

    def test_min_of_signed_zeros(self):
        got = expr("(f64.min (f64.const -0.0) (f64.const 0.0))", "f64")
        assert math.copysign(1.0, got) < 0

    def test_nearest_ties_to_even(self):
        assert expr("(f64.nearest (f64.const 2.5))", "f64") == 2.0
        assert expr("(f64.nearest (f64.const 3.5))", "f64") == 4.0
        assert expr("(f64.nearest (f64.const -0.5))", "f64") == -0.0

    def test_sqrt(self):
        assert expr("(f64.sqrt (f64.const 9))", "f64") == 3.0
        assert math.isnan(expr("(f64.sqrt (f64.const -1))", "f64"))

    def test_copysign(self):
        assert expr("(f64.copysign (f64.const 3) (f64.const -1))", "f64") == -3.0

    def test_trunc_floor_ceil(self):
        assert expr("(f64.trunc (f64.const -1.7))", "f64") == -1.0
        assert expr("(f64.floor (f64.const -1.2))", "f64") == -2.0
        assert expr("(f64.ceil (f64.const 1.2))", "f64") == 2.0


class TestConversions:
    def test_trunc_in_range(self):
        assert expr("(i32.trunc_f64_s (f64.const -3.9))") == 0xFFFFFFFD  # -3

    def test_trunc_nan_traps(self):
        with pytest.raises(WasmTrap, match="invalid conversion"):
            expr("(i32.trunc_f64_s (f64.const nan))")

    def test_trunc_overflow_traps(self):
        with pytest.raises(WasmTrap, match="overflow"):
            expr("(i32.trunc_f64_s (f64.const 3e9))")

    def test_trunc_sat_clamps(self):
        assert expr("(i32.trunc_sat_f64_s (f64.const 3e9))") == 0x7FFFFFFF
        assert expr("(i32.trunc_sat_f64_s (f64.const -3e9))") == 0x80000000
        assert expr("(i32.trunc_sat_f64_s (f64.const nan))") == 0

    def test_trunc_sat_unsigned(self):
        assert expr("(i32.trunc_sat_f64_u (f64.const -5))") == 0
        assert expr("(i32.trunc_sat_f64_u (f64.const 5e9))") == 0xFFFFFFFF

    def test_convert_unsigned(self):
        assert expr("(f64.convert_i32_u (i32.const -1))", "f64") == 4294967295.0

    def test_reinterpret_roundtrip(self):
        assert (
            expr("(f64.reinterpret_i64 (i64.reinterpret_f64 (f64.const 1.5)))", "f64")
            == 1.5
        )

    def test_reinterpret_bits(self):
        assert expr("(i32.reinterpret_f32 (f32.const 1.0))") == 0x3F800000

    def test_sign_extension_ops(self):
        assert expr("(i32.extend8_s (i32.const 0x80))") == 0xFFFFFF80
        assert expr("(i32.extend16_s (i32.const 0x8000))") == 0xFFFF8000
        assert expr("(i64.extend32_s (i64.const 0x80000000))", "i64") == 0xFFFFFFFF80000000

    def test_demote_promote(self):
        assert expr("(f64.promote_f32 (f32.const 1.5))", "f64") == 1.5


class TestControlFlow:
    def test_if_then_else(self):
        src = """
        (module (func (export "run") (param i32) (result i32)
          (if (result i32) (local.get 0)
            (then (i32.const 10)) (else (i32.const 20)))))
        """
        assert run(src, args=[1]) == [10]
        assert run(src, args=[0]) == [20]

    def test_loop_with_br_if(self):
        src = """
        (module (func (export "run") (param i32) (result i32)
          (local $acc i32)
          (block $out (loop $top
            (br_if $out (i32.eqz (local.get 0)))
            (local.set $acc (i32.add (local.get $acc) (local.get 0)))
            (local.set 0 (i32.sub (local.get 0) (i32.const 1)))
            (br $top)))
          (local.get $acc)))
        """
        assert run(src, args=[5]) == [15]

    def test_br_table_dispatch(self):
        src = """
        (module (func (export "run") (param i32) (result i32)
          (block $b2 (block $b1 (block $b0
            (br_table $b0 $b1 $b2 (local.get 0)))
            (return (i32.const 100)))
           (return (i32.const 200)))
          (i32.const 300)))
        """
        assert run(src, args=[0]) == [100]
        assert run(src, args=[1]) == [200]
        assert run(src, args=[2]) == [300]
        assert run(src, args=[9]) == [300]  # default

    def test_br_with_value_from_block(self):
        assert expr("(block (result i32) (br 0 (i32.const 7)) )") == 7

    def test_return_early(self):
        src = """
        (module (func (export "run") (result i32)
          (return (i32.const 1)) ))
        """
        assert run(src) == [1]

    def test_unreachable_traps(self):
        with pytest.raises(WasmTrap, match="unreachable"):
            run('(module (func (export "run") unreachable))')

    def test_nested_loop_break_out_two_levels(self):
        src = """
        (module (func (export "run") (result i32)
          (local $i i32) (local $total i32)
          (block $out
            (loop $outer
              (local.set $i (i32.add (local.get $i) (i32.const 1)))
              (local.set $total (i32.add (local.get $total) (local.get $i)))
              (br_if $out (i32.ge_u (local.get $i) (i32.const 4)))
              (br $outer)))
          (local.get $total)))
        """
        assert run(src) == [10]

    def test_select(self):
        src = """
        (module (func (export "run") (param i32) (result i32)
          (select (i32.const 1) (i32.const 2) (local.get 0))))
        """
        assert run(src, args=[7]) == [1]
        assert run(src, args=[0]) == [2]


class TestCalls:
    def test_recursion(self):
        src = """
        (module (func $fact (export "run") (param i32) (result i32)
          (if (result i32) (i32.le_s (local.get 0) (i32.const 1))
            (then (i32.const 1))
            (else (i32.mul (local.get 0)
                           (call $fact (i32.sub (local.get 0) (i32.const 1))))))))
        """
        assert run(src, args=[6]) == [720]

    def test_mutual_recursion(self):
        src = """
        (module
          (func $is_even (export "run") (param i32) (result i32)
            (if (result i32) (i32.eqz (local.get 0))
              (then (i32.const 1))
              (else (call $is_odd (i32.sub (local.get 0) (i32.const 1))))))
          (func $is_odd (param i32) (result i32)
            (if (result i32) (i32.eqz (local.get 0))
              (then (i32.const 0))
              (else (call $is_even (i32.sub (local.get 0) (i32.const 1)))))))
        """
        assert run(src, args=[10]) == [1]
        assert run(src, args=[7]) == [0]

    def test_call_indirect(self):
        src = """
        (module
          (table 2 funcref)
          (elem (i32.const 0) $double $square)
          (func $double (param i32) (result i32) (i32.mul (local.get 0) (i32.const 2)))
          (func $square (param i32) (result i32) (i32.mul (local.get 0) (local.get 0)))
          (func (export "run") (param i32) (param i32) (result i32)
            (call_indirect (param i32) (result i32) (local.get 1) (local.get 0))))
        """
        assert run(src, args=[0, 5]) == [10]
        assert run(src, args=[1, 5]) == [25]

    def test_call_indirect_oob_traps(self):
        src = """
        (module (table 1 funcref)
          (func (export "run") (call_indirect (i32.const 5))))
        """
        with pytest.raises(WasmTrap, match="undefined element"):
            run(src)

    def test_call_indirect_null_traps(self):
        src = """
        (module (table 1 funcref)
          (func (export "run") (call_indirect (i32.const 0))))
        """
        with pytest.raises(WasmTrap, match="uninitialized"):
            run(src)

    def test_call_indirect_signature_mismatch_traps(self):
        src = """
        (module (table 1 funcref) (elem (i32.const 0) $f)
          (func $f (param i32))
          (func (export "run") (call_indirect (i32.const 0))))
        """
        with pytest.raises(WasmTrap, match="type mismatch"):
            run(src)

    def test_stack_exhaustion(self):
        src = """
        (module (func $loop (export "run") (result i32)
          (call $loop)))
        """
        with pytest.raises(ExhaustionError):
            run(src)

    def test_fuel_exhaustion(self):
        src = """
        (module (func (export "run")
          (loop $l (br $l))))
        """
        with pytest.raises(ExhaustionError, match="fuel"):
            run(src, fuel=10_000)

    def test_multi_local_defaults(self):
        src = """
        (module (func (export "run") (result i32)
          (local i32 i64 f32 f64 i32)
          (local.get 4)))
        """
        assert run(src) == [0]


class TestMemoryOps:
    def test_store_load_roundtrip(self):
        src = """
        (module (memory 1) (func (export "run") (result i32)
          (i32.store (i32.const 8) (i32.const 0xdeadbeef))
          (i32.load (i32.const 8))))
        """
        assert run(src) == [0xDEADBEEF]

    def test_narrow_loads_sign(self):
        src = """
        (module (memory 1) (func (export "run") (result i32)
          (i32.store8 (i32.const 0) (i32.const 0xFF))
          (i32.load8_s (i32.const 0))))
        """
        assert run(src) == [0xFFFFFFFF]

    def test_narrow_loads_unsigned(self):
        src = """
        (module (memory 1) (func (export "run") (result i32)
          (i32.store8 (i32.const 0) (i32.const 0xFF))
          (i32.load8_u (i32.const 0))))
        """
        assert run(src) == [0xFF]

    def test_store_truncates(self):
        src = """
        (module (memory 1) (func (export "run") (result i32)
          (i32.store16 (i32.const 0) (i32.const 0x12345678))
          (i32.load16_u (i32.const 0))))
        """
        assert run(src) == [0x5678]

    def test_little_endian_layout(self):
        src = """
        (module (memory 1) (func (export "run") (result i32)
          (i32.store (i32.const 0) (i32.const 0x11223344))
          (i32.load8_u (i32.const 0))))
        """
        assert run(src) == [0x44]

    def test_offset_immediate(self):
        src = """
        (module (memory 1) (func (export "run") (result i32)
          (i32.store offset=100 (i32.const 0) (i32.const 7))
          (i32.load (i32.const 100))))
        """
        assert run(src) == [7]

    def test_oob_load_traps(self):
        src = """
        (module (memory 1) (func (export "run") (result i32)
          (i32.load (i32.const 65533))))
        """
        with pytest.raises(WasmTrap, match="out of bounds"):
            run(src)

    def test_oob_store_traps(self):
        src = """
        (module (memory 1) (func (export "run")
          (i64.store (i32.const 65530) (i64.const 1))))
        """
        with pytest.raises(WasmTrap, match="out of bounds"):
            run(src)

    def test_memory_size_grow(self):
        src = """
        (module (memory 1 3) (func (export "run") (result i32)
          (drop (memory.grow (i32.const 1)))
          (memory.size)))
        """
        assert run(src) == [2]

    def test_memory_grow_beyond_max_fails(self):
        src = """
        (module (memory 1 2) (func (export "run") (result i32)
          (memory.grow (i32.const 5))))
        """
        assert run(src) == [0xFFFFFFFF]  # -1

    def test_grow_makes_new_pages_accessible(self):
        src = """
        (module (memory 1 2) (func (export "run") (result i32)
          (drop (memory.grow (i32.const 1)))
          (i32.store (i32.const 70000) (i32.const 9))
          (i32.load (i32.const 70000))))
        """
        assert run(src) == [9]

    def test_memory_fill_and_copy(self):
        src = """
        (module (memory 1) (func (export "run") (result i32)
          (memory.fill (i32.const 0) (i32.const 0xAB) (i32.const 4))
          (memory.copy (i32.const 8) (i32.const 0) (i32.const 4))
          (i32.load8_u (i32.const 11))))
        """
        assert run(src) == [0xAB]

    def test_f64_store_load(self):
        src = """
        (module (memory 1) (func (export "run") (result f64)
          (f64.store (i32.const 0) (f64.const 2.718281828))
          (f64.load (i32.const 0))))
        """
        assert run(src) == [pytest.approx(2.718281828)]


class TestGlobals:
    def test_global_get_set(self):
        src = """
        (module (global $g (mut i32) (i32.const 10))
          (func (export "run") (result i32)
            (global.set $g (i32.add (global.get $g) (i32.const 5)))
            (global.get $g)))
        """
        assert run(src) == [15]

    def test_globals_persist_across_invocations(self):
        module = validate_module(
            parse_wat(
                """
                (module (global $g (mut i32) (i32.const 0))
                  (func (export "bump") (result i32)
                    (global.set $g (i32.add (global.get $g) (i32.const 1)))
                    (global.get $g)))
                """
            )
        )
        store = Store()
        inst = instantiate(store, module)
        interp = Interpreter(store)
        assert interp.invoke_export(inst, "bump") == [1]
        assert interp.invoke_export(inst, "bump") == [2]
        assert interp.invoke_export(inst, "bump") == [3]


@pytest.mark.parametrize("cls", [Interpreter, ReferenceInterpreter])
def test_recursion_limit_restored_after_deepest_guest(cls):
    # Guest calls recurse on the Python stack, so invoke raises the
    # process recursion limit; it must hand the old limit back even when
    # the guest dies at max_call_depth.
    module = validate_module(parse_wat('(module (func $f (export "run") (call $f)))'))
    before = sys.getrecursionlimit()
    store = Store()
    interp = cls(store)
    inst = instantiate(store, module)
    with pytest.raises(ExhaustionError, match="call stack exhausted"):
        interp.invoke_export(inst, "run")
    assert interp._depth == 0
    assert sys.getrecursionlimit() == before
