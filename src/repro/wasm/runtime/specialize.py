"""Specialization tier: digest-keyed bytecode optimization with guarded deopt.

The flat interpreter (``compile.py``) still re-proves facts at run time
that prepare time already settled: immutable globals are re-read from the
store on every access, every memory access re-checks bounds the declared
memory minimum already guarantees, and every ``call_indirect`` re-walks
``table → store → type check``. This module is a second lowering stage
that rewrites finished :class:`PreparedFunction` code — the same
``(handler, args, weight)`` triples, the same dispatch loop — through
five passes, in order:

1. **Constant folding** — ``global.get`` of a module-defined immutable
   global with a constant initializer becomes ``h_const`` (the value is
   instance-independent by construction; imported globals are resolved
   per instance and are left alone).
2. **Peephole re-fusion** — the prepare-time fusion pass runs over
   structured bodies and misses pairs the fold just created; this pass
   re-runs it over the *flat* stream to a fixpoint (``const+binop`` →
   ``const_binop``, ``const+const_binop`` → ``const``, …), remapping
   every stored pc. Windows never merge across a branch target, and a
   fused entry carries the summed weight of its parts — fuel accounting
   stays exactly equal to the reference tree-walker.
3. **Bounds-check elision** — a per-basic-block abstract interpretation
   tracks unsigned upper bounds on stack values (constants, ``x & mask``
   results, comparison results); a checked load/store whose address is
   provably below the declared memory *minimum* (a lower bound on the
   memory's size for its whole lifetime — ``grow`` only extends) is
   swapped for an unchecked ``u_*`` handler.
4. **Inline caches** — each ``call_indirect`` site gets a mutable
   monomorphic cache cell guarded on ``(table identity, slot address)``;
   a hit skips the ``store.funcs`` index and the structural
   ``FuncType.__eq__``. A miss (counted in
   ``repro_specialize_deopts_total{reason="ic_miss"}``) takes the full
   generic path, including its exact trap messages, then refills the
   cell.
5. **Inlined superinstructions** — in the style of WAMR's fast
   interpreter, each straight-line window of pure integer code
   (``local.get``, constants, non-trapping i32/i64 operators), ended
   by at most one ``local.set``/``local.tee``/``br_if``/``if``, becomes
   one handler with the arithmetic written inline instead of calls
   into ``ops.py`` callables. A compiled loop's index update, its
   compare-and-branch and its body expressions each take one dispatch.
   Handlers are generated from source on first use and shared by every
   window of the same shape, so import pays nothing; floats, div/rem,
   loads, stores and calls keep the generic handlers.

The result runs on the unmodified flat dispatch loop, metered or not.
``engines/cache.py`` keys it by content digest (the ``specialize``
layer) so the passes run once per blob across N-hundred-pod
experiments; a pass failure leaves the unspecialized prepared code in
place. The ReferenceInterpreter remains the differential oracle for all
of it (``tests/wasm/test_differential.py``).
"""

from __future__ import annotations

import struct
import time
from typing import Dict, List, Optional, Set, Tuple

from repro import obs
from repro.errors import WasmTrap
from repro.wasm.ast import Module
from repro.wasm.runtime import compile as flat
from repro.wasm.runtime import values as V
from repro.wasm.runtime.compile import (
    PreparedFunction,
    _func_signatures,
    prepare_function,
)
from repro.wasm.runtime.ops import BINOPS, CMPOPS, UNOPS
from repro.wasm.types import PAGE_SIZE

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")

# always=True: tests and `repro inspect` consume these functionally.
_FUNCS_TOTAL = obs.counter(
    "repro_specialize_functions_total",
    "functions processed by the specialization tier, by outcome",
    ("outcome",),
    always=True,
)
_DEOPTS_TOTAL = obs.counter(
    "repro_specialize_deopts_total",
    "specialized-code guard failures falling back to a generic path",
    ("reason",),
    always=True,
)
#: real passes are sub-millisecond for the paper workloads; the default
#: request-scale buckets would collapse them into one bin
_PASS_BUCKETS = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0)
_PASS_SECONDS = obs.histogram(
    "repro_specialize_pass_seconds",
    "wall-clock latency of one specialize_module pass",
    buckets=_PASS_BUCKETS,
    always=True,
)

#: pre-bound child: the IC miss fires per megamorphic call site and
#: cannot afford a labels() lookup.
_IC_MISS = _DEOPTS_TOTAL.labels("ic_miss")


class SpecializedFunction(PreparedFunction):
    """Specialized flat code plus the original it deopts to.

    Runs on the unmodified dispatch loop. ``fallback`` is the
    unspecialized :class:`PreparedFunction` — kept so cache-layer
    corruption and pass failures can always restore baseline code, and
    so re-specializing an already-attached module never stacks
    tiers.
    """

    __slots__ = ("fallback",)

    def __init__(self, code: Tuple, fallback: PreparedFunction) -> None:
        super().__init__(
            code=code,
            n_results=fallback.n_results,
            local_defaults=fallback.local_defaults,
            source_instrs=fallback.source_instrs,
            name=fallback.name,
        )
        self.fallback = fallback


class SpecializedModule:
    """Specialized code for every defined function (digest-cache entry)."""

    __slots__ = ("functions",)

    def __init__(self, functions: List[PreparedFunction]) -> None:
        self.functions = functions

    def attach(self, module: Module) -> None:
        for func, pf in zip(module.funcs, self.functions):
            func.prepared = pf


# ---------------------------------------------------------------------------
# Unchecked memory handlers (installed by the bounds-elision pass only when
# `addr_bound + offset + width <= declared_minimum_bytes` is proven).
# ---------------------------------------------------------------------------


def u_i32_load(interp, frame, stack, args, pc):
    stack[-1] = _U32.unpack_from(frame.mem.data, stack[-1] + args)[0]
    return pc + 1


def u_i64_load(interp, frame, stack, args, pc):
    stack[-1] = _U64.unpack_from(frame.mem.data, stack[-1] + args)[0]
    return pc + 1


def u_f32_load(interp, frame, stack, args, pc):
    stack[-1] = _F32.unpack_from(frame.mem.data, stack[-1] + args)[0]
    return pc + 1


def u_f64_load(interp, frame, stack, args, pc):
    stack[-1] = _F64.unpack_from(frame.mem.data, stack[-1] + args)[0]
    return pc + 1


def u_loadn(interp, frame, stack, args, pc):
    off, width, signed, bits = args
    addr = stack[-1] + off
    value = int.from_bytes(frame.mem.data[addr : addr + width], "little")
    if signed:
        value = V.sign_extend(value, width * 8, bits)
    stack[-1] = value
    return pc + 1


def u_i32_store(interp, frame, stack, args, pc):
    value = stack.pop()
    _U32.pack_into(frame.mem.data, stack.pop() + args, value & V.MASK32)
    return pc + 1


def u_i64_store(interp, frame, stack, args, pc):
    value = stack.pop()
    _U64.pack_into(frame.mem.data, stack.pop() + args, value & V.MASK64)
    return pc + 1


def u_f32_store(interp, frame, stack, args, pc):
    value = stack.pop()
    _F32.pack_into(frame.mem.data, stack.pop() + args, value)
    return pc + 1


def u_f64_store(interp, frame, stack, args, pc):
    value = stack.pop()
    _F64.pack_into(frame.mem.data, stack.pop() + args, value)
    return pc + 1


def u_storen(interp, frame, stack, args, pc):
    off, width = args
    value = stack.pop()
    addr = stack.pop() + off
    frame.mem.data[addr : addr + width] = (
        value & ((1 << (width * 8)) - 1)
    ).to_bytes(width, "little")
    return pc + 1


# ---------------------------------------------------------------------------
# Inline-cached call_indirect
# ---------------------------------------------------------------------------


def _ic_type_mismatch(expected, actual):
    raise WasmTrap(
        f"indirect call type mismatch: expected {expected}, got {actual}"
    )


def h_call_indirect_ic(interp, frame, stack, args, pc):
    """``call_indirect`` with a monomorphic inline cache.

    ``args = (expected_type, n_params, cell)`` where ``cell`` is the
    per-site mutable ``[table, slot_addr, func_instance]``. The guard is
    table *identity* plus slot address: store function lists are
    append-only and ``FuncInstance`` objects are never rebound to a
    different address, so a hit cannot go stale even across
    ``table.set``-free module lifetimes. A miss replays the generic
    path — identical traps, in the same order as the flat handler — and
    refills the cell.
    """
    expected, n, cell = args
    store = interp.store
    table = store.tables[frame.instance.table_addrs[0]]
    idx = stack.pop()
    elements = table.elements
    if idx < 0 or idx >= len(elements):
        raise WasmTrap("undefined element")
    addr = elements[idx]
    if addr is None:
        raise WasmTrap("uninitialized element")
    if cell[0] is table and cell[1] == addr:
        fi = cell[2]
    else:
        fi = store.funcs[addr]
        if fi.type != expected:
            _ic_type_mismatch(expected, fi.type)
        _IC_MISS.inc()
        cell[0] = table
        cell[1] = addr
        cell[2] = fi
    if n:
        cargs = stack[-n:]
        del stack[-n:]
    else:
        cargs = []
    if fi.host_fn is None:
        stack.extend(interp._call_wasm(fi, cargs))
    else:
        result = fi.host_fn(*cargs)
        if result:
            stack.extend(result)
    return pc + 1


# ---------------------------------------------------------------------------
# Pass 1: constant-fold immutable globals
# ---------------------------------------------------------------------------


def _foldable_globals(module: Module) -> Dict[int, object]:
    """Joint-index-space map of foldable global values.

    Only *module-defined* immutable globals with a single-instruction
    constant initializer qualify: their value is identical in every
    instance (``_eval_const`` applies the same mask at instantiation).
    Imported globals resolve per instance; ``global.get`` of one stays a
    store read.
    """
    n_imported = sum(1 for imp in module.imports if imp.kind == "global")
    out: Dict[int, object] = {}
    for i, glob in enumerate(module.globals):
        if glob.type.mutable or len(glob.init) != 1:
            continue
        ins = glob.init[0]
        if ins.op == "i32.const":
            out[n_imported + i] = ins.args[0] & V.MASK32
        elif ins.op == "i64.const":
            out[n_imported + i] = ins.args[0] & V.MASK64
        elif ins.op in ("f32.const", "f64.const"):
            out[n_imported + i] = ins.args[0]
    return out


def _memory_min_bytes(module: Module) -> Optional[int]:
    """Declared minimum of memory 0 in bytes — a lifetime lower bound.

    ``MemoryInstance`` starts at the minimum and ``grow`` only extends,
    so an access proven below this line can never go out of bounds, for
    defined and imported memories alike (import limits are checked at
    link time).
    """
    for imp in module.imports:
        if imp.kind == "mem":
            return imp.desc.limits.minimum * PAGE_SIZE
    if module.mems:
        return module.mems[0].limits.minimum * PAGE_SIZE
    return None


# ---------------------------------------------------------------------------
# Flat-code CFG helpers shared by the peephole, elision and fusion passes
# ---------------------------------------------------------------------------

#: Handlers that carry one branch target: ``None`` when ``args`` is the
#: pc itself, else the index of the pc inside the ``args`` tuple. Pass 5
#: registers each generated branching handler here as it builds it.
_PC_SLOT: Dict[object, Optional[int]] = {
    flat.h_goto: None,
    flat.h_if: None,
    flat.h_br_if: None,
    flat.h_br_adjust: 0,
    flat.h_br_if_adjust: 0,
    flat.h_cmp_br_if: 1,
}


def _branch_targets(code) -> Set[int]:
    """Every pc that some branch can land on (fusion must not cross one)."""
    targets: Set[int] = set()
    for handler, args, _w in code:
        if handler in _PC_SLOT:
            slot = _PC_SLOT[handler]
            targets.add(args if slot is None else args[slot])
        elif handler is flat.h_br_table:
            table, default = args
            for t, _want, _arity in table:
                targets.add(t)
            targets.add(default[0])
    return targets


def _remap_pcs(entries, pcmap):
    """Rewrite every stored pc through ``pcmap`` after entries moved."""
    out = []
    for handler, args, weight in entries:
        if handler in _PC_SLOT:
            slot = _PC_SLOT[handler]
            if slot is None:
                args = pcmap[args]
            else:
                args = args[:slot] + (pcmap[args[slot]],) + args[slot + 1 :]
        elif handler is flat.h_br_table:
            table, default = args
            args = (
                tuple((pcmap[t], w, a) for t, w, a in table),
                (pcmap[default[0]], default[1], default[2]),
            )
        out.append((handler, args, weight))
    return out


# ---------------------------------------------------------------------------
# Pass 2: flat peephole fusion (to fixpoint)
# ---------------------------------------------------------------------------

_NOFOLD = object()


def _try_pure(f, *operands):
    """Apply a pure operator at specialization time; ``_NOFOLD`` if it
    would trap (e.g. folded div-by-zero must stay a runtime trap)."""
    try:
        return f(*operands)
    except Exception:
        return _NOFOLD


def _peephole_once(entries, targets):
    """One left-to-right fusion sweep; returns (entries, targets, changed).

    Merged windows never span a branch target (the second element of a
    candidate pair must not be jumped into) and a fused entry carries the
    summed weight — the fuel-exactness argument is the same as for
    prepare-time fusion: every candidate is side-effect-free before its
    last component.
    """
    out: List[tuple] = []
    pcmap: Dict[int, int] = {}
    changed = False
    i = 0
    n = len(entries)
    while i < n:
        pcmap[i] = len(out)
        handler, args, weight = entries[i]
        fused = None
        if handler is flat.h_const and i + 1 < n and (i + 1) not in targets:
            h2, a2, w2 = entries[i + 1]
            if h2 is flat.h_binop:
                fused = (flat.h_const_binop, (args, a2), weight + w2)
            elif h2 is flat.h_cmp:
                fused = (flat.h_const_cmp, (args, a2), weight + w2)
            elif h2 is flat.h_unop:
                value = _try_pure(a2, args)
                if value is not _NOFOLD:
                    fused = (flat.h_const, value, weight + w2)
            elif h2 is flat.h_const_binop:
                c2, f2 = a2
                value = _try_pure(f2, args, c2)
                if value is not _NOFOLD:
                    fused = (flat.h_const, value, weight + w2)
            elif h2 is flat.h_const_cmp:
                c2, f2 = a2
                value = _try_pure(f2, args, c2)
                if value is not _NOFOLD:
                    fused = (flat.h_const, 1 if value else 0, weight + w2)
        if fused is not None:
            out.append(fused)
            changed = True
            i += 2
        else:
            out.append((handler, args, weight))
            i += 1
    if not changed:
        return entries, targets, False
    pcmap[n] = len(out)  # end-of-code sentinel (never a real target)
    return _remap_pcs(out, pcmap), {pcmap[t] for t in targets}, True


def _peephole(entries, targets):
    fused = 0
    while True:
        before = len(entries)
        entries, targets, changed = _peephole_once(entries, targets)
        if not changed:
            return entries, targets, fused
        fused += before - len(entries)


# ---------------------------------------------------------------------------
# Pass 3: bounds-check elision
# ---------------------------------------------------------------------------

_AND32 = BINOPS["i32.and"]
_AND64 = BINOPS["i64.and"]
_EQZ32 = UNOPS["i32.eqz"]
_EQZ64 = UNOPS["i64.eqz"]

_CHECKED_LOADS = {
    flat.h_i32_load: (4, u_i32_load),
    flat.h_i64_load: (8, u_i64_load),
    flat.h_f32_load: (4, u_f32_load),
    flat.h_f64_load: (8, u_f64_load),
}
_CHECKED_STORES = {
    flat.h_i32_store: (4, u_i32_store),
    flat.h_i64_store: (8, u_i64_store),
    flat.h_f32_store: (4, u_f32_store),
    flat.h_f64_store: (8, u_f64_store),
}

#: handlers ending a basic block; abstract state dies with the block
_BLOCK_ENDERS = (
    flat.h_goto,
    flat.h_br_adjust,
    flat.h_br_table,
    flat.h_end,
    flat.h_return,
    flat.h_unreachable,
)


def _elide_bounds(module: Module, entries, targets, mem_min: Optional[int]):
    """Swap checked memory handlers for unchecked ones where an unsigned
    upper bound on the address proves ``addr + offset + width <= minimum``.

    The abstract state is a suffix of the operand stack: each slot holds
    an upper bound (values are unsigned by representation, so a bound is
    also a proof of non-negativity) or ``None``. It resets at branch
    targets and block enders; conditional branches only pop. Pops on an
    empty abstract stack model unknown deeper values.
    """
    if mem_min is None or mem_min <= 0:
        return entries, 0
    out = list(entries)
    elided = 0
    st: List[Optional[int]] = []

    def pop():
        return st.pop() if st else None

    for pc, (handler, args, _w) in enumerate(entries):
        if pc in targets:
            st.clear()
        if handler is flat.h_const:
            st.append(args if isinstance(args, int) else None)
        elif handler is flat.h_local_get or handler is flat.h_global_get:
            st.append(None)
        elif handler is flat.h_memory_size:
            st.append(None)
        elif handler is flat.h_local_set or handler is flat.h_global_set:
            pop()
        elif handler is flat.h_drop:
            pop()
        elif handler is flat.h_local_tee or handler is flat.h_nop:
            pass
        elif handler is flat.h_data_drop:
            pass
        elif handler is flat.h_select:
            pop()
            v2 = pop()
            v1 = pop()
            st.append(None if v1 is None or v2 is None else max(v1, v2))
        elif handler is flat.h_binop:
            b = pop()
            a = pop()
            if args is _AND32 or args is _AND64:
                if a is None:
                    st.append(b)
                elif b is None:
                    st.append(a)
                else:
                    st.append(min(a, b))
            else:
                st.append(None)
        elif handler is flat.h_cmp:
            pop()
            pop()
            st.append(1)
        elif handler is flat.h_unop:
            pop()
            st.append(1 if (args is _EQZ32 or args is _EQZ64) else None)
        elif handler is flat.h_lgg_binop:
            st.append(None)
        elif handler is flat.h_lgg_cmp:
            st.append(1)
        elif handler is flat.h_const_binop:
            c, f = args
            a = pop()
            if (f is _AND32 or f is _AND64) and isinstance(c, int):
                st.append(c if a is None else min(a, c))
            else:
                st.append(None)
        elif handler is flat.h_const_cmp:
            pop()
            st.append(1)
        elif handler is flat.h_lg_i32_load or handler is flat.h_lg_load:
            st.append(None)
        elif handler in _CHECKED_LOADS:
            width, unchecked = _CHECKED_LOADS[handler]
            bound = st[-1] if st else None
            if bound is not None and bound + args + width <= mem_min:
                out[pc] = (unchecked, args, entries[pc][2])
                elided += 1
            pop()
            st.append(None)
        elif handler is flat.h_loadn:
            off, width, _signed, _bits = args
            bound = st[-1] if st else None
            if bound is not None and bound + off + width <= mem_min:
                out[pc] = (u_loadn, args, entries[pc][2])
                elided += 1
            pop()
            st.append(None)
        elif handler in _CHECKED_STORES:
            width, unchecked = _CHECKED_STORES[handler]
            bound = st[-2] if len(st) >= 2 else None
            if bound is not None and bound + args + width <= mem_min:
                out[pc] = (unchecked, args, entries[pc][2])
                elided += 1
            pop()
            pop()
        elif handler is flat.h_storen:
            off, width = args
            bound = st[-2] if len(st) >= 2 else None
            if bound is not None and bound + off + width <= mem_min:
                out[pc] = (u_storen, args, entries[pc][2])
                elided += 1
            pop()
            pop()
        elif handler is flat.h_memory_grow:
            pop()
            st.append(None)
        elif (
            handler is flat.h_memory_fill
            or handler is flat.h_memory_copy
            or handler is flat.h_memory_init
        ):
            pop()
            pop()
            pop()
        elif handler is flat.h_call:
            idx, n_args = args
            for _ in range(n_args):
                pop()
            for _ in range(len(_func_signatures(module)[idx].results)):
                st.append(None)
        elif handler is flat.h_call_indirect or handler is h_call_indirect_ic:
            ft = args[0]
            for _ in range(len(ft.params) + 1):
                pop()
            for _ in range(len(ft.results)):
                st.append(None)
        elif (
            handler is flat.h_if
            or handler is flat.h_br_if
            or handler is flat.h_br_if_adjust
        ):
            pop()  # condition; fallthrough keeps the rest untouched
        elif handler is flat.h_cmp_br_if:
            pop()
            pop()
        elif handler in _BLOCK_ENDERS:
            st.clear()
        else:  # pragma: no cover - future handlers: be conservative
            st.clear()
    return out, elided


# ---------------------------------------------------------------------------
# Pass 4: inline caches at call_indirect sites
# ---------------------------------------------------------------------------


def _install_ics(entries):
    out = []
    installed = 0
    for handler, args, weight in entries:
        if handler is flat.h_call_indirect:
            expected, n = args
            out.append(
                (h_call_indirect_ic, (expected, n, [None, -1, None]), weight)
            )
            installed += 1
        else:
            out.append((handler, args, weight))
    return out, installed


# ---------------------------------------------------------------------------
# Pass 5: superinstructions with inlined integer arithmetic
# ---------------------------------------------------------------------------


def _int_exprs(bits: int) -> Tuple[Dict[str, str], Dict[str, str]]:
    """Inline Python expressions over operands ``a`` and ``b`` for the
    non-trapping ``i<bits>`` operators: (binops, comparisons).

    Each equals its ``ops.py`` callable for *every* Python int, not only
    for the unsigned representation the interpreter keeps (pinned by
    ``tests/wasm/test_specialize.py``): shift counts are masked as
    ``% bits`` is, and signed views are taken as ``signed32/64`` does,
    by flipping the sign bit of the masked value.
    """
    m = hex((1 << bits) - 1)
    s = hex(1 << (bits - 1))
    k = f"(b & {bits - 1})"
    p = f"i{bits}."
    binops = {
        p + "add": f"(a + b) & {m}",
        p + "sub": f"(a - b) & {m}",
        p + "mul": f"(a * b) & {m}",
        p + "and": "a & b",
        p + "or": "a | b",
        p + "xor": "a ^ b",
        p + "shl": f"(a << {k}) & {m}",
        p + "shr_u": f"a >> {k}",
        p + "shr_s": f"((((a & {m}) ^ {s}) - {s}) >> {k}) & {m}",
        p + "rotl": f"((a << {k}) | (a >> ({bits} - {k}))) & {m}",
        p + "rotr": f"((a >> {k}) | (a << ({bits} - {k}))) & {m}",
    }
    cmps = {p + "eq": "a == b", p + "ne": "a != b"}
    for name, rel in (("lt", "<"), ("gt", ">"), ("le", "<="), ("ge", ">=")):
        cmps[f"{p}{name}_u"] = f"a {rel} b"
        cmps[f"{p}{name}_s"] = f"((a & {m}) ^ {s}) {rel} ((b & {m}) ^ {s})"
    return binops, cmps


_BIN32, _CMP32 = _int_exprs(32)
_BIN64, _CMP64 = _int_exprs(64)
#: the non-trapping integer unary operators: expression over ``a``
_UNARY = {
    "i32.eqz": "a == 0",
    "i64.eqz": "a == 0",
    "i32.wrap_i64": "a & 0xffffffff",
    "i64.extend_i32_u": "a & 0xffffffff",
    "i64.extend_i32_s": "(((a & 0xffffffff) ^ 0x80000000) - 0x80000000)"
    " & 0xffffffffffffffff",
}
#: opcode name -> inline expression, for every inlinable operator
_EXPRS = {**_BIN32, **_BIN64, **_CMP32, **_CMP64, **_UNARY}
#: operators whose expression is a truth value (pushed as 1/0)
_BOOL = frozenset(_CMP32) | frozenset(_CMP64) | {"i32.eqz", "i64.eqz"}
#: operator callable (as bound into flat code) -> opcode name
_INLINE_OPS = {{**BINOPS, **CMPOPS, **UNOPS}[op]: op for op in _EXPRS}

#: window components that must come last: they write a local or branch
_SINKS = ("set", "tee", "br_if", "if")


def _components(handler, args):
    """The source instructions of a flat entry as window components
    ``(kind, immediate)``, or ``None`` if a window cannot absorb it."""
    if handler is flat.h_local_get:
        return [("get", args)]
    if handler is flat.h_const:
        return [("const", args)]
    if handler is flat.h_binop or handler is flat.h_cmp or handler is flat.h_unop:
        op = _INLINE_OPS.get(args)
        return None if op is None else [("op", op)]
    if handler is flat.h_lgg_binop or handler is flat.h_lgg_cmp:
        i, j, f = args
        op = _INLINE_OPS.get(f)
        return None if op is None else [("get", i), ("get", j), ("op", op)]
    if handler is flat.h_const_binop or handler is flat.h_const_cmp:
        c, f = args
        op = _INLINE_OPS.get(f)
        return None if op is None else [("const", c), ("op", op)]
    if handler is flat.h_cmp_br_if:
        f, target = args
        op = _INLINE_OPS.get(f)
        return None if op is None else [("op", op), ("br_if", target)]
    if handler is flat.h_local_set:
        return [("set", args)]
    if handler is flat.h_local_tee:
        return [("tee", args)]
    if handler is flat.h_br_if:
        return [("br_if", args)]
    if handler is flat.h_if:
        return [("if", args)]
    return None


def _window_source(name: str, comps) -> Tuple[str, Optional[int]]:
    """Python source of one handler running ``comps``, and the index of
    its branch target in ``args`` (``None``: no branch).

    Components run on a virtual stack of expressions. Immediates are read
    from ``args`` (so windows of one shape share a handler), every
    operator result is bound to a temporary, and an operand missing from
    the virtual stack is popped off the real one. Whatever is left is
    pushed at the end. Local reads are deferred to their use, which is
    exact because the only write, a ``set``/``tee`` sink, comes last and
    is emitted after the leftovers are pushed.
    """
    lines: List[str] = []
    imms: List[str] = []
    vs: List[Tuple[str, Optional[str]]] = []  # (value expr, truth expr)
    target = None

    def operand() -> Tuple[str, Optional[str]]:
        if vs:
            return vs.pop()
        popped = f"s{len(lines)}"
        lines.append(f"{popped} = stack.pop()")
        return popped, None

    def immediate() -> str:
        imms.append(f"x{len(imms)}")
        return imms[-1]

    def push_leftovers() -> None:
        values = [v for v, _t in vs]
        vs.clear()
        if len(values) == 1:
            lines.append(f"stack.append({values[0]})")
        elif values:
            lines.append(f"stack.extend(({', '.join(values)},))")

    for kind, x in comps:
        if kind == "get":
            vs.append((f"loc[{immediate()}]", None))
        elif kind == "const":
            vs.append((immediate(), None))
        elif kind == "op":
            if x in _UNARY:
                lines.append(f"a = {operand()[0]}")
            else:
                b = operand()[0]
                lines.append(f"a = {operand()[0]}")
                lines.append(f"b = {b}")
            tmp = f"v{len(lines)}"
            lines.append(f"{tmp} = {_EXPRS[x]}")
            vs.append((f"(1 if {tmp} else 0)", tmp) if x in _BOOL else (tmp, None))
        elif kind in ("set", "tee"):  # sinks come last
            lines.append(f"v = {operand()[0]}")
            if kind == "tee":
                vs.append(("v", None))
            push_leftovers()
            lines.append(f"loc[{immediate()}] = v")
        else:  # br_if / if
            value, truth = operand()
            push_leftovers()
            target = len(imms)
            taken = immediate()
            cond = truth or value
            if kind == "br_if":
                lines.append(f"return {taken} if {cond} else pc + 1")
            else:  # `if` falls through into the then-arm when true
                lines.append(f"return pc + 1 if {cond} else {taken}")
    if target is None:
        push_leftovers()
        lines.append("return pc + 1")
    head = []
    if imms:
        head.append(f"{', '.join(imms)}, = args")
    if any(kind in ("get", "set", "tee") for kind, _x in comps):
        head.append("loc = frame.locals")
    body = "\n    ".join(head + lines)
    return f"def {name}(interp, frame, stack, args, pc):\n    {body}\n", target


_GENERATED: Dict[str, object] = {}


def _window_handler(comps):
    """The handler for a window of components, built on first use and
    shared by every window of the same shape (nothing is generated at
    import)."""
    tags = [op.replace(".", "_") if kind == "op" else kind for kind, op in comps]
    name = "h_" + "_".join(tags)
    src, target = _window_source(name, comps)
    handler = _GENERATED.get(src)
    if handler is None:
        namespace: Dict[str, object] = {}
        exec(compile(src, f"<specialize {name}>", "exec"), namespace)
        handler = _GENERATED[src] = namespace[name]
        if target is not None:
            _PC_SLOT[handler] = target
    return handler


def _compile_windows(entries, targets):
    """Compile windows of pure integer code into single handlers;
    returns ``(entries, windows, inlined_operator_calls)``.

    A window grows from an absorbable entry over the following ones
    until the next is a branch target, is not absorbable (loads, stores,
    calls, floats, div/rem, trunc, ...), or a sink has been taken. Every
    component before the last is ``local.get``, a constant or an inlined
    non-trapping operator — pure and unable to trap — and the window
    carries the summed weight, so fuel partial credit stays exact.
    Branch targets in the new entries are old pcs until the final remap.
    """
    out: List[tuple] = []
    pcmap: Dict[int, int] = {}
    windows = inlined = 0
    i = 0
    n = len(entries)
    while i < n:
        pcmap[i] = len(out)
        handler, args, weight = entries[i]
        comps = _components(handler, args)
        j = i + 1
        if comps is not None:
            while comps[-1][0] not in _SINKS and j < n and j not in targets:
                more = _components(entries[j][0], entries[j][1])
                if more is None:
                    break
                comps += more
                weight += entries[j][2]
                j += 1
        ops = 0 if comps is None else sum(kind == "op" for kind, _x in comps)
        if comps is None or (j == i + 1 and not ops):
            out.append((handler, args, weight))
            i = j
            continue
        immediates = tuple(x for kind, x in comps if kind != "op")
        out.append((_window_handler(comps), immediates, weight))
        windows += 1
        inlined += ops
        i = j
    pcmap[n] = len(out)  # end-of-code sentinel (never a real target)
    return _remap_pcs(out, pcmap), windows, inlined


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


class SpecializeReport:
    """Per-module pass statistics (tests and `repro inspect`)."""

    __slots__ = ("folded", "fused", "elided", "ic_sites", "windows", "inlined")

    def __init__(self) -> None:
        self.folded = 0
        self.fused = 0
        self.elided = 0
        self.ic_sites = 0
        #: pass 5: windows compiled to one handler, and the operator
        #: calls they write inline
        self.windows = 0
        self.inlined = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


def _specialize_code(module, pf, fold_map, mem_min, report):
    entries = list(pf.code)
    targets = _branch_targets(pf.code)
    for pc, (handler, args, weight) in enumerate(entries):
        if handler is flat.h_global_get and args in fold_map:
            entries[pc] = (flat.h_const, fold_map[args], weight)
            report.folded += 1
    entries, targets, fused = _peephole(entries, targets)
    report.fused += fused
    entries, elided = _elide_bounds(module, entries, targets, mem_min)
    report.elided += elided
    entries, ic_sites = _install_ics(entries)
    report.ic_sites += ic_sites
    entries, windows, inlined = _compile_windows(entries, targets)
    report.windows += windows
    report.inlined += inlined
    code = tuple(entries)
    total = sum(w for _h, _a, w in code)
    assert total == pf.source_instrs, (
        f"specialization changed instruction accounting for {pf.name!r}: "
        f"{total} != {pf.source_instrs}"
    )
    return code


def specialize_module(
    module: Module,
    report: Optional[SpecializeReport] = None,
) -> SpecializedModule:
    """Specialize every defined function of ``module``.

    Returns a digest-cacheable :class:`SpecializedModule`; call
    ``.attach(module)`` to activate it (mirrors ``PreparedModule``).
    Already-specialized attachments are unwrapped through ``fallback``
    first, so re-specializing is idempotent, and any per-function pass
    failure falls back to the unspecialized prepared code (counted as
    outcome ``failed``) — specialization can lose performance, never
    correctness.
    """
    started = time.perf_counter()
    if report is None:
        report = SpecializeReport()
    fold_map = _foldable_globals(module)
    mem_min = _memory_min_bytes(module)
    functions: List[PreparedFunction] = []
    for func in module.funcs:
        pf = func.prepared
        base = getattr(pf, "fallback", None)
        if base is not None:
            pf = base
        if pf is None:
            pf = prepare_function(module, func)
            func.prepared = pf
        try:
            code = _specialize_code(module, pf, fold_map, mem_min, report)
        except Exception:
            _FUNCS_TOTAL.labels("failed").inc()
            functions.append(pf)
            continue
        _FUNCS_TOTAL.labels("bytecode").inc()
        functions.append(SpecializedFunction(code, pf))
    _PASS_SECONDS.observe(time.perf_counter() - started)
    return SpecializedModule(functions)


def specialize_counts() -> Dict[str, int]:
    """Functional read of the tier's counters (tests, `repro inspect`)."""
    return {
        "functions_failed": int(_FUNCS_TOTAL.labels("failed").value),
        "deopts_ic_miss": int(_IC_MISS.value),
    }
