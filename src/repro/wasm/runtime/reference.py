"""Reference tree-walking interpreter (retained for differential testing).

This is the original structured interpreter: execution state is a value
stack (Python list) per function activation; control flow inside a
function uses two internal exceptions (`_Branch`, `_Return`) that unwind
to the matching structured block. Calls recurse on the Python stack with
an explicit depth limit; an optional fuel budget bounds total executed
instructions.

The production :class:`~repro.wasm.runtime.interpreter.Interpreter` runs
pre-compiled flat code instead (see ``compile.py``); this walker is the
executable specification it is differentially tested against — results,
traps, fuel accounting, and memory contents must agree instruction for
instruction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import ExhaustionError, WasmTrap
from repro.wasm.ast import Expr, Instr
from repro.wasm.runtime import values as V
from repro.wasm.runtime.interpreter import call_with_headroom
from repro.wasm.runtime.ops import BINOPS, CMPOPS, LOADS, STORES, UNOPS
from repro.wasm.runtime.store import FuncInstance, ModuleInstance, Store


class _Branch(Exception):
    __slots__ = ("depth",)

    def __init__(self, depth: int) -> None:
        self.depth = depth


class _Return(Exception):
    pass


class _Frame:
    __slots__ = ("locals", "instance")

    def __init__(self, locals_: List[object], instance: ModuleInstance) -> None:
        self.locals = locals_
        self.instance = instance


class ReferenceInterpreter:
    """Executes functions from a :class:`Store` by walking the AST."""

    def __init__(
        self,
        store: Store,
        fuel: Optional[int] = None,
        max_call_depth: int = 400,
    ) -> None:
        # Each guest frame costs ~24 Python frames here (call dispatch plus
        # one `_exec_block` frame per structured nesting level); make sure
        # the guest limit is reached first so exhaustion surfaces as a wasm
        # trap, not a RecursionError. `invoke` holds this limit only for
        # the duration of the call.
        self._frames_needed = 5000 + max_call_depth * 24
        self.store = store
        self.fuel = fuel
        self.max_call_depth = max_call_depth
        self._depth = 0
        self.instructions_executed = 0

    # -- public ----------------------------------------------------------------

    def invoke(self, func_addr: int, args: Sequence[object] = ()) -> List[object]:
        """Call a function by store address with Python-level arguments."""
        fi = self.store.funcs[func_addr]
        if len(args) != len(fi.type.params):
            raise WasmTrap(
                f"bad argument count for {fi.name or func_addr}: "
                f"expected {len(fi.type.params)}, got {len(args)}"
            )
        if fi.is_host:
            result = fi.host_fn(*args)  # type: ignore[misc]
            return list(result) if result is not None else []
        return call_with_headroom(
            self._frames_needed, self._call_wasm, fi, list(args)
        )

    def invoke_export(self, instance: ModuleInstance, name: str, args: Sequence[object] = ()):
        return self.invoke(instance.export_addr(name, "func"), args)

    # -- function activation ---------------------------------------------------

    def _call_wasm(self, fi: FuncInstance, args: List[object]) -> List[object]:
        assert fi.code is not None and fi.module is not None
        if self._depth >= self.max_call_depth:
            raise ExhaustionError("call stack exhausted")
        locals_ = args + [V.default_value(t) for t in fi.code.locals]
        frame = _Frame(locals_, fi.module)
        stack: List[object] = []
        self._depth += 1
        try:
            try:
                self._exec(fi.code.body, frame, stack)
            except _Return:
                pass
            except _Branch:
                # A branch out of the function body targets the implicit
                # function block: same as returning.
                pass
        finally:
            self._depth -= 1
        n = len(fi.type.results)
        if n == 0:
            return []
        results = stack[-n:]
        return results

    # -- instruction sequence --------------------------------------------------

    def _exec(self, body: Expr, frame: _Frame, stack: List[object]) -> None:
        fuel = self.fuel
        for ins in body:
            if fuel is not None:
                self.fuel -= 1  # type: ignore[operator]
                fuel = self.fuel
                if fuel < 0:
                    raise ExhaustionError("fuel exhausted")
            self.instructions_executed += 1
            op = ins.op

            # Hot paths first.
            if op == "local.get":
                stack.append(frame.locals[ins.args[0]])
            elif op == "i32.const" or op == "i64.const":
                # Consts are stored signed; runtime works unsigned.
                bits = 32 if op[1] == "3" else 64
                stack.append(ins.args[0] & ((1 << bits) - 1))
            elif op in BINOPS:
                b = stack.pop()
                a = stack.pop()
                stack.append(BINOPS[op](a, b))
            elif op in CMPOPS:
                b = stack.pop()
                a = stack.pop()
                stack.append(1 if CMPOPS[op](a, b) else 0)
            elif op in UNOPS:
                stack.append(UNOPS[op](stack.pop()))
            elif op == "local.set":
                frame.locals[ins.args[0]] = stack.pop()
            elif op == "local.tee":
                frame.locals[ins.args[0]] = stack[-1]
            elif op == "f32.const" or op == "f64.const":
                stack.append(ins.args[0])
            elif op == "block":
                self._exec_block(ins.body, frame, stack, loop=False)
            elif op == "loop":
                self._exec_block(ins.body, frame, stack, loop=True)
            elif op == "if":
                cond = stack.pop()
                chosen = ins.body if cond else ins.else_body
                self._exec_block(chosen, frame, stack, loop=False)
            elif op == "br":
                raise _Branch(ins.args[0])
            elif op == "br_if":
                if stack.pop():
                    raise _Branch(ins.args[0])
            elif op == "br_table":
                labels, default = ins.args
                idx = stack.pop()
                raise _Branch(labels[idx] if idx < len(labels) else default)
            elif op == "return":
                raise _Return()
            elif op == "call":
                self._do_call(frame.instance.func_addrs[ins.args[0]], stack)
            elif op == "call_indirect":
                self._do_call_indirect(ins, frame, stack)
            elif op == "drop":
                stack.pop()
            elif op == "select":
                c = stack.pop()
                v2 = stack.pop()
                v1 = stack.pop()
                stack.append(v1 if c else v2)
            elif op == "global.get":
                stack.append(self.store.globals[frame.instance.global_addrs[ins.args[0]]].value)
            elif op == "global.set":
                self.store.globals[frame.instance.global_addrs[ins.args[0]]].set(stack.pop())
            elif op in LOADS:
                self._do_load(ins, frame, stack)
            elif op in STORES:
                self._do_store(ins, frame, stack)
            elif op == "memory.size":
                stack.append(self._mem(frame).pages)
            elif op == "memory.grow":
                delta = stack.pop()
                stack.append(self._mem(frame).grow(delta) & V.MASK32)
            elif op == "memory.fill":
                n = stack.pop()
                val = stack.pop()
                dst = stack.pop()
                mem = self._mem(frame)
                if dst + n > len(mem.data):
                    raise WasmTrap("out of bounds memory access")
                mem.data[dst : dst + n] = bytes([val & 0xFF]) * n
            elif op == "memory.copy":
                n = stack.pop()
                src = stack.pop()
                dst = stack.pop()
                mem = self._mem(frame)
                if src + n > len(mem.data) or dst + n > len(mem.data):
                    raise WasmTrap("out of bounds memory access")
                mem.data[dst : dst + n] = mem.data[src : src + n]
            elif op == "memory.init":
                n = stack.pop()
                src = stack.pop()
                dst = stack.pop()
                payload = self.store.datas[frame.instance.data_addrs[ins.args[0]]]
                if payload is None:
                    if n or src:
                        raise WasmTrap("out of bounds memory access")
                    payload = b""
                mem = self._mem(frame)
                if src + n > len(payload) or dst + n > len(mem.data):
                    raise WasmTrap("out of bounds memory access")
                mem.data[dst : dst + n] = payload[src : src + n]
            elif op == "data.drop":
                self.store.datas[frame.instance.data_addrs[ins.args[0]]] = None
            elif op == "nop":
                pass
            elif op == "unreachable":
                raise WasmTrap("unreachable executed")
            else:  # pragma: no cover - validator rejects unknown ops
                raise WasmTrap(f"unknown instruction {op!r}")

    # -- helpers ---------------------------------------------------------------

    def _exec_block(self, body: Expr, frame: _Frame, stack: List[object], loop: bool) -> None:
        while True:
            try:
                self._exec(body, frame, stack)
                return
            except _Branch as br:
                if br.depth > 0:
                    br.depth -= 1
                    raise
                if not loop:
                    return
                # Branch to a loop label: iterate again.
                continue

    def _mem(self, frame: _Frame):
        return self.store.mems[frame.instance.mem_addrs[0]]

    def _do_call(self, func_addr: int, stack: List[object]) -> None:
        fi = self.store.funcs[func_addr]
        n = len(fi.type.params)
        args = stack[len(stack) - n :] if n else []
        del stack[len(stack) - n :]
        if fi.is_host:
            result = fi.host_fn(*args)  # type: ignore[misc]
            stack.extend(result if result is not None else [])
        else:
            stack.extend(self._call_wasm(fi, args))

    def _do_call_indirect(self, ins: Instr, frame: _Frame, stack: List[object]) -> None:
        table = self.store.tables[frame.instance.table_addrs[0]]
        elem_idx = stack.pop()
        func_addr = table.get(elem_idx)
        expected = frame.instance.module.types[ins.args[0]]
        actual = self.store.funcs[func_addr].type
        if actual != expected:
            raise WasmTrap(
                f"indirect call type mismatch: expected {expected}, got {actual}"
            )
        self._do_call(func_addr, stack)

    def _do_load(self, ins: Instr, frame: _Frame, stack: List[object]) -> None:
        width, signed, kind, bits = LOADS[ins.op]
        base = stack.pop()
        addr = base + ins.args[1]
        raw = self._mem(frame).read(addr, width)
        if kind == "i":
            value = int.from_bytes(raw, "little", signed=False)
            if signed:
                value = V.sign_extend(value, width * 8, bits)
            stack.append(value)
        else:
            stack.append(V.bits_to_f32(int.from_bytes(raw, "little")) if bits == 32
                         else V.bits_to_f64(int.from_bytes(raw, "little")))

    def _do_store(self, ins: Instr, frame: _Frame, stack: List[object]) -> None:
        width, kind = STORES[ins.op]
        value = stack.pop()
        base = stack.pop()
        addr = base + ins.args[1]
        if kind == "i":
            raw = (value & ((1 << (width * 8)) - 1)).to_bytes(width, "little")
        elif kind == "f32":
            raw = V.f32_to_bits(value).to_bytes(4, "little")
        else:
            raw = V.f64_to_bits(value).to_bytes(8, "little")
        self._mem(frame).write(addr, raw)
