"""Function preparation: lower validated ASTs to flat linear code.

The tree-walking reference interpreter re-dispatches on opcode strings and
implements ``br``/``return`` by raising Python exceptions that unwind
through nested block frames. This module removes all of that from the hot
path with a one-time *prepare* pass per function:

* ``block``/``loop``/``if`` disappear into computed jump offsets — every
  branch becomes a pc assignment with a precomputed stack-height repair
  (no exceptions, no label search);
* every instruction is pre-bound to a ``(handler, args, weight)`` triple,
  so per-step dispatch is one tuple unpack and one call instead of a
  40-arm string-comparison ladder;
* dominant instruction pairs are fused into superinstructions
  (``local.get local.get <binop>``, ``<const> <binop>``, ``<cmp> br_if``,
  ``local.get <load>``), cutting dispatches on the workloads' inner loops
  by ~30%.

``weight`` is the number of source AST instructions a flat entry stands
for. The interpreter adds weights to ``instructions_executed`` and debits
fuel by them, which keeps fuel accounting and metering *exactly* equal to
the reference tree-walker: ``block``/``loop`` headers still cost one
instruction on entry (they lower to a weight-1 no-op that backward
branches skip), the jump over an ``else`` arm costs zero, and a fused
pair costs the sum of its parts.

Prepared code is instance-independent: immediates are module-level
(function indices, types, offsets) and all store access goes through the
executing frame, so one prepared function serves every instantiation of
the module — ``engines/cache.py`` memoizes prepared modules per content
digest across the N-hundred-pod density experiments. The prepared form is
keyed to the exact ``Function`` object (``Function.prepared``); mutating
a body after first execution requires clearing that field.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from repro.errors import WasmTrap
from repro.wasm.ast import Function, Instr, Module
from repro.wasm.runtime import values as V
from repro.wasm.runtime.ops import BINOPS, CMPOPS, LOADS, STORES, UNOPS
from repro.wasm.types import ValType

_MASK32 = V.MASK32
_MASK64 = V.MASK64

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")


class PreparedFunction:
    """Flat executable form of one function body.

    ``code`` is a tuple of ``(handler, args, weight)`` triples; handlers
    take ``(interp, frame, stack, args, pc)`` and return the next pc
    (``-1`` terminates the activation).
    """

    __slots__ = (
        "code",
        "n_results",
        "local_defaults",
        "source_instrs",
        "name",
    )

    def __init__(
        self,
        code: Tuple,
        n_results: int,
        local_defaults: Tuple,
        source_instrs: int,
        name: str = "",
    ) -> None:
        self.code = code
        self.n_results = n_results
        self.local_defaults = local_defaults
        self.source_instrs = source_instrs  # AST instrs represented (= sum of weights)
        self.name = name


class PreparedModule:
    """Prepared code for every defined function, indexed like ``module.funcs``."""

    __slots__ = ("functions",)

    def __init__(self, functions: List[PreparedFunction]) -> None:
        self.functions = functions

    def attach(self, module: Module) -> None:
        """Share this prepared code with another decode of the same blob."""
        for func, pf in zip(module.funcs, self.functions):
            func.prepared = pf


def prepare_module(module: Module) -> PreparedModule:
    """Prepare every defined function, reusing already-attached code.

    An attached ``SpecializedFunction`` (specialization tier) is unwound
    to its unspecialized ``fallback`` first: the prepare layer caches
    *baseline* code only, so a corrupted or failed specialize layer can
    always fall back to it.
    """
    functions = []
    for func in module.funcs:
        pf = func.prepared
        base = getattr(pf, "fallback", None)
        if base is not None:
            pf = base
        if pf is None:
            pf = prepare_function(module, func)
            func.prepared = pf
        functions.append(pf)
    return PreparedModule(functions)


def prepare_function(module: Module, func: Function) -> PreparedFunction:
    """Lower one validated function body to flat code."""
    return _Lowering(module, func).finish()


def _func_signatures(module: Module):
    """Signatures over the joint (imports-first) function index space."""
    sigs = getattr(module, "_func_sigs", None)
    if sigs is None:
        sigs = [module.types[imp.desc] for imp in module.imports if imp.kind == "func"]
        sigs += [module.types[f.type_idx] for f in module.funcs]
        module._func_sigs = sigs
    return sigs


# ---------------------------------------------------------------------------
# Handlers. Uniform signature: (interp, frame, stack, args, pc) -> next pc.
# ---------------------------------------------------------------------------


def h_end(interp, frame, stack, args, pc):
    return -1


def h_nop(interp, frame, stack, args, pc):
    return pc + 1


def h_unreachable(interp, frame, stack, args, pc):
    raise WasmTrap("unreachable executed")


def h_local_get(interp, frame, stack, args, pc):
    stack.append(frame.locals[args])
    return pc + 1


def h_local_set(interp, frame, stack, args, pc):
    frame.locals[args] = stack.pop()
    return pc + 1


def h_local_tee(interp, frame, stack, args, pc):
    frame.locals[args] = stack[-1]
    return pc + 1


def h_const(interp, frame, stack, args, pc):
    stack.append(args)
    return pc + 1


def h_drop(interp, frame, stack, args, pc):
    del stack[-1]
    return pc + 1


def h_select(interp, frame, stack, args, pc):
    c = stack.pop()
    v2 = stack.pop()
    if not c:
        stack[-1] = v2
    return pc + 1


def h_binop(interp, frame, stack, args, pc):
    b = stack.pop()
    stack[-1] = args(stack[-1], b)
    return pc + 1


def h_cmp(interp, frame, stack, args, pc):
    b = stack.pop()
    stack[-1] = 1 if args(stack[-1], b) else 0
    return pc + 1


def h_unop(interp, frame, stack, args, pc):
    stack[-1] = args(stack[-1])
    return pc + 1


def h_global_get(interp, frame, stack, args, pc):
    stack.append(interp.store.globals[frame.instance.global_addrs[args]].value)
    return pc + 1


def h_global_set(interp, frame, stack, args, pc):
    interp.store.globals[frame.instance.global_addrs[args]].set(stack.pop())
    return pc + 1


# -- fused superinstructions ------------------------------------------------


def h_lgg_binop(interp, frame, stack, args, pc):
    i, j, f = args
    loc = frame.locals
    stack.append(f(loc[i], loc[j]))
    return pc + 1


def h_lgg_cmp(interp, frame, stack, args, pc):
    i, j, f = args
    loc = frame.locals
    stack.append(1 if f(loc[i], loc[j]) else 0)
    return pc + 1


def h_const_binop(interp, frame, stack, args, pc):
    c, f = args
    stack[-1] = f(stack[-1], c)
    return pc + 1


def h_const_cmp(interp, frame, stack, args, pc):
    c, f = args
    stack[-1] = 1 if f(stack[-1], c) else 0
    return pc + 1


def h_cmp_br_if(interp, frame, stack, args, pc):
    f, target = args
    b = stack.pop()
    a = stack.pop()
    return target if f(a, b) else pc + 1


def h_lg_i32_load(interp, frame, stack, args, pc):
    i, off = args
    data = frame.mem.data
    addr = frame.locals[i] + off
    if addr < 0 or addr + 4 > len(data):
        raise WasmTrap("out of bounds memory access")
    stack.append(_U32.unpack_from(data, addr)[0])
    return pc + 1


def h_lg_load(interp, frame, stack, args, pc):
    i, off, width, signed, bits, isfloat = args
    data = frame.mem.data
    addr = frame.locals[i] + off
    if addr < 0 or addr + width > len(data):
        raise WasmTrap("out of bounds memory access")
    if isfloat:
        value = (_F32 if bits == 32 else _F64).unpack_from(data, addr)[0]
    else:
        value = int.from_bytes(data[addr : addr + width], "little")
        if signed:
            value = V.sign_extend(value, width * 8, bits)
    stack.append(value)
    return pc + 1


# -- control flow -----------------------------------------------------------


def h_goto(interp, frame, stack, args, pc):
    return args


def h_if(interp, frame, stack, args, pc):
    # args = else/end target; fall through into the then arm when true.
    return pc + 1 if stack.pop() else args


def h_br_if(interp, frame, stack, args, pc):
    return args if stack.pop() else pc + 1


def h_return(interp, frame, stack, args, pc):
    return -1


def _repair(stack, want, arity):
    """Drop values stranded between the branch target's expected height
    and the ``arity`` carried values on top (spec label unwinding)."""
    if arity:
        stack[want - arity : len(stack) - arity] = []
    else:
        del stack[want:]


def h_br_adjust(interp, frame, stack, args, pc):
    target, want, arity = args
    _repair(stack, want, arity)
    return target


def h_br_if_adjust(interp, frame, stack, args, pc):
    if not stack.pop():
        return pc + 1
    target, want, arity = args
    _repair(stack, want, arity)
    return target


def h_br_table(interp, frame, stack, args, pc):
    targets, default = args
    idx = stack.pop()
    target, want, arity = targets[idx] if idx < len(targets) else default
    if want >= 0 and len(stack) != want:
        _repair(stack, want, arity)
    return target


def h_call(interp, frame, stack, args, pc):
    idx, n = args
    fi = interp.store.funcs[frame.instance.func_addrs[idx]]
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


def h_call_indirect(interp, frame, stack, args, pc):
    expected, n = args
    store = interp.store
    table = store.tables[frame.instance.table_addrs[0]]
    fi = store.funcs[table.get(stack.pop())]
    if fi.type != expected:
        raise WasmTrap(
            f"indirect call type mismatch: expected {expected}, got {fi.type}"
        )
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


# -- memory -----------------------------------------------------------------


def h_i32_load(interp, frame, stack, args, pc):
    data = frame.mem.data
    addr = stack[-1] + args
    if addr < 0 or addr + 4 > len(data):
        raise WasmTrap("out of bounds memory access")
    stack[-1] = _U32.unpack_from(data, addr)[0]
    return pc + 1


def h_i64_load(interp, frame, stack, args, pc):
    data = frame.mem.data
    addr = stack[-1] + args
    if addr < 0 or addr + 8 > len(data):
        raise WasmTrap("out of bounds memory access")
    stack[-1] = _U64.unpack_from(data, addr)[0]
    return pc + 1


def h_f32_load(interp, frame, stack, args, pc):
    data = frame.mem.data
    addr = stack[-1] + args
    if addr < 0 or addr + 4 > len(data):
        raise WasmTrap("out of bounds memory access")
    stack[-1] = _F32.unpack_from(data, addr)[0]
    return pc + 1


def h_f64_load(interp, frame, stack, args, pc):
    data = frame.mem.data
    addr = stack[-1] + args
    if addr < 0 or addr + 8 > len(data):
        raise WasmTrap("out of bounds memory access")
    stack[-1] = _F64.unpack_from(data, addr)[0]
    return pc + 1


def h_loadn(interp, frame, stack, args, pc):
    off, width, signed, bits = args
    data = frame.mem.data
    addr = stack[-1] + off
    if addr < 0 or addr + width > len(data):
        raise WasmTrap("out of bounds memory access")
    value = int.from_bytes(data[addr : addr + width], "little")
    if signed:
        value = V.sign_extend(value, width * 8, bits)
    stack[-1] = value
    return pc + 1


def h_i32_store(interp, frame, stack, args, pc):
    value = stack.pop()
    addr = stack.pop() + args
    data = frame.mem.data
    if addr < 0 or addr + 4 > len(data):
        raise WasmTrap("out of bounds memory access")
    _U32.pack_into(data, addr, value & _MASK32)
    return pc + 1


def h_i64_store(interp, frame, stack, args, pc):
    value = stack.pop()
    addr = stack.pop() + args
    data = frame.mem.data
    if addr < 0 or addr + 8 > len(data):
        raise WasmTrap("out of bounds memory access")
    _U64.pack_into(data, addr, value & _MASK64)
    return pc + 1


def h_f32_store(interp, frame, stack, args, pc):
    value = stack.pop()
    addr = stack.pop() + args
    data = frame.mem.data
    if addr < 0 or addr + 4 > len(data):
        raise WasmTrap("out of bounds memory access")
    _F32.pack_into(data, addr, value)
    return pc + 1


def h_f64_store(interp, frame, stack, args, pc):
    value = stack.pop()
    addr = stack.pop() + args
    data = frame.mem.data
    if addr < 0 or addr + 8 > len(data):
        raise WasmTrap("out of bounds memory access")
    _F64.pack_into(data, addr, value)
    return pc + 1


def h_storen(interp, frame, stack, args, pc):
    off, width = args
    value = stack.pop()
    addr = stack.pop() + off
    data = frame.mem.data
    if addr < 0 or addr + width > len(data):
        raise WasmTrap("out of bounds memory access")
    data[addr : addr + width] = (value & ((1 << (width * 8)) - 1)).to_bytes(
        width, "little"
    )
    return pc + 1


def h_memory_size(interp, frame, stack, args, pc):
    stack.append(frame.mem.pages)
    return pc + 1


def h_memory_grow(interp, frame, stack, args, pc):
    stack[-1] = frame.mem.grow(stack[-1]) & _MASK32
    return pc + 1


def h_memory_fill(interp, frame, stack, args, pc):
    n = stack.pop()
    val = stack.pop()
    dst = stack.pop()
    mem = frame.mem
    if dst + n > len(mem.data):
        raise WasmTrap("out of bounds memory access")
    mem.data[dst : dst + n] = bytes([val & 0xFF]) * n
    return pc + 1


def h_memory_copy(interp, frame, stack, args, pc):
    n = stack.pop()
    src = stack.pop()
    dst = stack.pop()
    mem = frame.mem
    if src + n > len(mem.data) or dst + n > len(mem.data):
        raise WasmTrap("out of bounds memory access")
    mem.data[dst : dst + n] = mem.data[src : src + n]
    return pc + 1


def h_memory_init(interp, frame, stack, args, pc):
    n = stack.pop()
    src = stack.pop()
    dst = stack.pop()
    payload = interp.store.datas[frame.instance.data_addrs[args]]
    if payload is None:
        if n or src:
            raise WasmTrap("out of bounds memory access")
        payload = b""
    mem = frame.mem
    if src + n > len(payload) or dst + n > len(mem.data):
        raise WasmTrap("out of bounds memory access")
    mem.data[dst : dst + n] = payload[src : src + n]
    return pc + 1


def h_data_drop(interp, frame, stack, args, pc):
    interp.store.datas[frame.instance.data_addrs[args]] = None
    return pc + 1


#: Handlers whose args embed a label id that must be rewritten to a pc.
_PATCH_SIMPLE = (h_goto, h_if, h_br_if)
_PATCH_ADJUST = (h_br_adjust, h_br_if_adjust)

#: The fused superinstruction handlers (introspection / tests).
SUPERINSTRUCTIONS = (
    h_lgg_binop,
    h_lgg_cmp,
    h_const_binop,
    h_const_cmp,
    h_cmp_br_if,
    h_lg_i32_load,
    h_lg_load,
)

_CONST_OPS = {
    "i32.const": _MASK32,
    "i64.const": _MASK64,
    "f32.const": None,
    "f64.const": None,
}


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


class _Ctrl:
    """One enclosing label: where a branch lands and how to repair the stack.

    ``target_height`` is the statically-known operand-stack height after a
    branch lands (``None`` for the function label, whose unwinding is done
    by the activation epilogue), ``arity`` the number of values the branch
    carries.
    """

    __slots__ = ("label", "target_height", "arity")

    def __init__(self, label: int, target_height: Optional[int], arity: int) -> None:
        self.label = label
        self.target_height = target_height
        self.arity = arity


class _Lowering:
    def __init__(self, module: Module, func: Function) -> None:
        self.module = module
        self.sigs = _func_signatures(module)
        self.func = func
        self.entries: List[list] = []  # [handler, args, weight], patched in finish()
        self.label_pc: List[Optional[int]] = []
        self.ctrl: List[_Ctrl] = []
        # Static operand-stack height; None while lowering dead code.
        self.h: Optional[int] = 0

    # -- emission helpers ---------------------------------------------------

    def emit(self, handler, args, weight: int) -> None:
        self.entries.append([handler, args, weight])

    def new_label(self) -> int:
        self.label_pc.append(None)
        return len(self.label_pc) - 1

    def place(self, label: int) -> None:
        self.label_pc[label] = len(self.entries)

    def bump(self, delta: int) -> None:
        if self.h is not None:
            self.h += delta

    def _bt_arity(self, bt) -> Tuple[int, int]:
        if bt is None:
            return 0, 0
        if isinstance(bt, ValType):
            return 0, 1
        ft = self.module.types[bt]
        return len(ft.params), len(ft.results)

    # -- top level ----------------------------------------------------------

    def finish(self) -> PreparedFunction:
        func = self.func
        ft = self.module.types[func.type_idx]
        end = self.new_label()
        self.ctrl.append(_Ctrl(end, None, len(ft.results)))
        self.lower(func.body)
        self.place(end)
        self.emit(h_end, None, 0)
        self._patch_labels()
        code = tuple((e[0], e[1], e[2]) for e in self.entries)
        return PreparedFunction(
            code=code,
            n_results=len(ft.results),
            local_defaults=tuple(V.default_value(t) for t in func.locals),
            source_instrs=sum(e[2] for e in self.entries),
            name=func.name or "",
        )

    def _patch_labels(self) -> None:
        L = self.label_pc
        for e in self.entries:
            hd = e[0]
            if hd in _PATCH_SIMPLE:
                e[1] = L[e[1]]
            elif hd in _PATCH_ADJUST:
                t, want, a = e[1]
                e[1] = (L[t], want, a)
            elif hd is h_cmp_br_if:
                f, t = e[1]
                e[1] = (f, L[t])
            elif hd is h_br_table:
                targets, default = e[1]
                e[1] = (
                    tuple((L[t], w, a) for t, w, a in targets),
                    (L[default[0]], default[1], default[2]),
                )

    # -- instruction sequences ----------------------------------------------

    def lower(self, body: List[Instr]) -> None:
        i = 0
        n = len(body)
        while i < n:
            ins = body[i]
            op = ins.op

            # -- superinstruction fusion (windows never span a branch
            # target: targets only exist at block boundaries, and the
            # window stays inside one structured body list) --------------
            if op == "local.get":
                if i + 2 < n and body[i + 1].op == "local.get":
                    f = BINOPS.get(body[i + 2].op)
                    if f is not None:
                        self.emit(
                            h_lgg_binop, (ins.args[0], body[i + 1].args[0], f), 3
                        )
                        self.bump(1)
                        i += 3
                        continue
                    f = CMPOPS.get(body[i + 2].op)
                    if f is not None:
                        self.emit(h_lgg_cmp, (ins.args[0], body[i + 1].args[0], f), 3)
                        self.bump(1)
                        i += 3
                        continue
                if i + 1 < n:
                    spec = LOADS.get(body[i + 1].op)
                    if spec is not None:
                        width, signed, kind, bits = spec
                        off = body[i + 1].args[1]
                        if body[i + 1].op == "i32.load":
                            self.emit(h_lg_i32_load, (ins.args[0], off), 2)
                        else:
                            self.emit(
                                h_lg_load,
                                (ins.args[0], off, width, signed, bits, kind == "f"),
                                2,
                            )
                        self.bump(1)
                        i += 2
                        continue
                self.emit(h_local_get, ins.args[0], 1)
                self.bump(1)
                i += 1
                continue
            if op in _CONST_OPS:
                mask = _CONST_OPS[op]
                value = ins.args[0] & mask if mask is not None else ins.args[0]
                if i + 1 < n:
                    f = BINOPS.get(body[i + 1].op)
                    if f is not None:
                        self.emit(h_const_binop, (value, f), 2)
                        self.bump(0)
                        i += 2
                        continue
                    f = CMPOPS.get(body[i + 1].op)
                    if f is not None:
                        self.emit(h_const_cmp, (value, f), 2)
                        self.bump(0)
                        i += 2
                        continue
                self.emit(h_const, value, 1)
                self.bump(1)
                i += 1
                continue
            f = CMPOPS.get(op)
            if f is not None and i + 1 < n and body[i + 1].op == "br_if":
                c = self.ctrl[-1 - body[i + 1].args[0]]
                th = c.target_height
                # Fuse only when the taken branch needs no stack repair.
                if th is None or self.h is None or self.h - 2 == th:
                    self.emit(h_cmp_br_if, (f, c.label), 2)
                    self.bump(-2)
                    i += 2
                    continue

            self._one(ins)
            i += 1

    def _one(self, ins: Instr) -> None:
        op = ins.op
        f = BINOPS.get(op)
        if f is not None:
            self.emit(h_binop, f, 1)
            self.bump(-1)
            return
        f = CMPOPS.get(op)
        if f is not None:
            self.emit(h_cmp, f, 1)
            self.bump(-1)
            return
        f = UNOPS.get(op)
        if f is not None:
            self.emit(h_unop, f, 1)
            return
        if op == "local.set":
            self.emit(h_local_set, ins.args[0], 1)
            self.bump(-1)
        elif op == "local.tee":
            self.emit(h_local_tee, ins.args[0], 1)
        elif op == "block":
            self._block(ins)
        elif op == "loop":
            self._loop(ins)
        elif op == "if":
            self._if(ins)
        elif op == "br":
            self._br(ins.args[0])
        elif op == "br_if":
            self._br_if(ins.args[0])
        elif op == "br_table":
            self._br_table(ins)
        elif op == "return":
            self.emit(h_return, None, 1)
            self.h = None
        elif op == "call":
            sig = self.sigs[ins.args[0]]
            self.emit(h_call, (ins.args[0], len(sig.params)), 1)
            self.bump(len(sig.results) - len(sig.params))
        elif op == "call_indirect":
            ft = self.module.types[ins.args[0]]
            self.emit(h_call_indirect, (ft, len(ft.params)), 1)
            self.bump(len(ft.results) - len(ft.params) - 1)
        elif op == "drop":
            self.emit(h_drop, None, 1)
            self.bump(-1)
        elif op == "select":
            self.emit(h_select, None, 1)
            self.bump(-2)
        elif op == "global.get":
            self.emit(h_global_get, ins.args[0], 1)
            self.bump(1)
        elif op == "global.set":
            self.emit(h_global_set, ins.args[0], 1)
            self.bump(-1)
        elif op in LOADS:
            width, signed, kind, bits = LOADS[op]
            off = ins.args[1]
            if op == "i32.load":
                self.emit(h_i32_load, off, 1)
            elif op == "i64.load":
                self.emit(h_i64_load, off, 1)
            elif op == "f32.load":
                self.emit(h_f32_load, off, 1)
            elif op == "f64.load":
                self.emit(h_f64_load, off, 1)
            else:
                self.emit(h_loadn, (off, width, signed, bits), 1)
        elif op in STORES:
            width, kind = STORES[op]
            off = ins.args[1]
            if op == "i32.store":
                self.emit(h_i32_store, off, 1)
            elif op == "i64.store":
                self.emit(h_i64_store, off, 1)
            elif op == "f32.store":
                self.emit(h_f32_store, off, 1)
            elif op == "f64.store":
                self.emit(h_f64_store, off, 1)
            else:
                self.emit(h_storen, (off, width), 1)
            self.bump(-2)
        elif op == "memory.size":
            self.emit(h_memory_size, None, 1)
            self.bump(1)
        elif op == "memory.grow":
            self.emit(h_memory_grow, None, 1)
        elif op == "memory.fill":
            self.emit(h_memory_fill, None, 1)
            self.bump(-3)
        elif op == "memory.copy":
            self.emit(h_memory_copy, None, 1)
            self.bump(-3)
        elif op == "memory.init":
            self.emit(h_memory_init, ins.args[0], 1)
            self.bump(-3)
        elif op == "data.drop":
            self.emit(h_data_drop, ins.args[0], 1)
        elif op == "nop":
            self.emit(h_nop, None, 1)
        elif op == "unreachable":
            self.emit(h_unreachable, None, 1)
            self.h = None
        else:
            raise WasmTrap(f"unknown instruction {op!r}")

    # -- structured control --------------------------------------------------

    def _block(self, ins: Instr) -> None:
        p, r = self._bt_arity(ins.blocktype)
        entry = self.h  # includes the block's params
        target = None if entry is None else entry - p + r
        end = self.new_label()
        # Header no-op: the reference walker charges `block` one instruction.
        self.emit(h_nop, None, 1)
        self.ctrl.append(_Ctrl(end, target, r))
        self.lower(ins.body)
        self.ctrl.pop()
        self.place(end)
        self.h = target

    def _loop(self, ins: Instr) -> None:
        p, r = self._bt_arity(ins.blocktype)
        entry = self.h
        # Header charged once on entry; backward branches re-enter *after*
        # it, matching the reference walker (which does not re-count `loop`
        # on each iteration).
        self.emit(h_nop, None, 1)
        start = self.new_label()
        self.place(start)
        self.ctrl.append(_Ctrl(start, entry, p))
        self.lower(ins.body)
        self.ctrl.pop()
        self.h = None if entry is None else entry - p + r

    def _if(self, ins: Instr) -> None:
        p, r = self._bt_arity(ins.blocktype)
        self.bump(-1)  # condition
        entry = self.h
        target = None if entry is None else entry - p + r
        end = self.new_label()
        self.ctrl.append(_Ctrl(end, target, r))
        if ins.else_body:
            els = self.new_label()
            self.emit(h_if, els, 1)
            self.lower(ins.body)
            self.emit(h_goto, end, 0)  # skip over else: free, like the walker
            self.place(els)
            self.h = entry
            self.lower(ins.else_body)
        else:
            self.emit(h_if, end, 1)
            self.lower(ins.body)
        self.ctrl.pop()
        self.place(end)
        self.h = target

    def _br(self, depth: int) -> None:
        c = self.ctrl[-1 - depth]
        th = c.target_height
        if th is None or self.h is None or self.h == th:
            self.emit(h_goto, c.label, 1)
        else:
            self.emit(h_br_adjust, (c.label, th, c.arity), 1)
        self.h = None

    def _br_if(self, depth: int) -> None:
        self.bump(-1)  # condition
        c = self.ctrl[-1 - depth]
        th = c.target_height
        if th is None or self.h is None or self.h == th:
            self.emit(h_br_if, c.label, 1)
        else:
            self.emit(h_br_if_adjust, (c.label, th, c.arity), 1)

    def _br_table(self, ins: Instr) -> None:
        self.bump(-1)  # index
        labels, default = ins.args

        def entry(depth: int):
            c = self.ctrl[-1 - depth]
            th = c.target_height
            if th is None or self.h is None:
                return (c.label, -1, 0)
            return (c.label, th, c.arity)

        self.emit(
            h_br_table,
            (tuple(entry(l) for l in labels), entry(default)),
            1,
        )
        self.h = None
