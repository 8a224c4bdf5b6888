"""Flat-code Wasm interpreter: a pc loop over prepared linear code.

Function bodies are lowered once by :mod:`repro.wasm.runtime.compile`
into tuples of ``(handler, args, weight)`` triples with branch targets
resolved to pc values; execution is then a tight loop of

    handler, args, weight = code[pc]
    pc = handler(self, frame, stack, args, pc)

with no per-step opcode comparison and no exception-driven control flow.
The public API is byte-compatible with the original tree-walker (kept as
:class:`~repro.wasm.runtime.reference.ReferenceInterpreter`): ``invoke``
/ ``invoke_export`` signatures, fuel semantics (debited per source
instruction *before* it executes; ``ExhaustionError("fuel exhausted")``
with the exhausting instruction not counted), ``instructions_executed``
(counts source AST instructions, not flat entries — fused
superinstructions carry the summed weight of their parts), and all trap
messages. Code whose immutable globals the specialization tier
(``specialize.py``) folded to constants is the same kind of triple tuple,
entry for entry, and runs on this same loop.

Fuel bookkeeping is hoisted out of the common path: when ``fuel`` is
``None`` the loop accumulates the count in a local and flushes it once
per activation (a ``try/finally`` keeps the count exact across traps),
so the unmetered configuration pays no per-instruction conditional.
"""

from __future__ import annotations

import sys
from typing import List, Optional, Sequence

from repro.errors import ExhaustionError, WasmTrap
from repro.wasm.runtime.compile import prepare_function
from repro.wasm.runtime.store import FuncInstance, ModuleInstance, Store


class Frame:
    """Activation record: locals, owning instance, and its default memory.

    The memory is resolved once per call (and cached on the instance):
    ``MemoryInstance.grow`` extends the bytearray in place, so a cached
    reference stays valid across ``memory.grow``.
    """

    __slots__ = ("locals", "instance", "mem")

    def __init__(self, locals_: List[object], instance: ModuleInstance, mem) -> None:
        self.locals = locals_
        self.instance = instance
        self.mem = mem


def call_with_headroom(needed: int, fn, *args):
    """``fn(*args)`` with the process recursion limit at least ``needed``.

    Guest recursion runs on the Python stack, so deep guests need more
    than Python's default limit. The limit is process-global, so it is
    raised only for the duration of the call and then restored. Nested
    calls (a host function re-entering a guest) restore in LIFO order,
    so an inner call never lowers a limit an outer one still needs.
    """
    limit = sys.getrecursionlimit()
    if limit >= needed:
        return fn(*args)
    sys.setrecursionlimit(needed)
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(limit)


class Interpreter:
    """Executes functions from a :class:`Store` by running prepared flat code."""

    def __init__(
        self,
        store: Store,
        fuel: Optional[int] = None,
        max_call_depth: int = 400,
    ) -> None:
        # A guest call costs 3 Python frames in the flat scheme (the call
        # handler -> _call_wasm -> _run); budget 6 per guest frame for
        # headroom (host functions, instantiation nesting) plus a 1000
        # frame base for the embedder. `invoke` raises the limit to this
        # only for the duration of the call (`call_with_headroom`).
        self._frames_needed = 1000 + max_call_depth * 6
        self.store = store
        self.fuel = fuel
        self.max_call_depth = max_call_depth
        self._depth = 0
        self.instructions_executed = 0
        #: attached FunctionProfiler (obs.profile) or None; the None
        #: check is the whole disabled-path cost
        self.profiler = None

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
        if self._depth >= self.max_call_depth:
            raise ExhaustionError("call stack exhausted")
        code_obj = fi.code
        prepared = code_obj.prepared
        if prepared is None:
            # Lazy prepare for instances outside the engine cache; the
            # result is keyed to the Function object so it happens once.
            prepared = prepare_function(fi.module.module, code_obj)
            code_obj.prepared = prepared
        if prepared.local_defaults:
            args.extend(prepared.local_defaults)  # `args` is a fresh list
        inst = fi.module
        mem = inst.mem0
        if mem is None and inst.mem_addrs:
            mem = inst.mem0 = self.store.mems[inst.mem_addrs[0]]
        prof = self.profiler
        frame = Frame(args, inst, mem)
        stack: List[object] = []
        self._depth += 1
        if prof is None:
            try:
                self._run(prepared.code, frame, stack)
            finally:
                self._depth -= 1
        else:
            prof.enter(fi.name or "<anonymous>")
            base = self.instructions_executed
            try:
                self._run(prepared.code, frame, stack)
            finally:
                self._depth -= 1
                prof.exit(self.instructions_executed - base)
        n = prepared.n_results
        if n == 0:
            return []
        if len(stack) != n:
            # A branch to the function label leaves garbage below its
            # carried values; the epilogue discards it (spec return).
            return stack[-n:]
        return stack

    # -- dispatch loop ---------------------------------------------------------

    def _run(self, code, frame: Frame, stack: List[object]) -> None:
        pc = 0
        if self.fuel is None:
            # Unmetered: count in a local, flush once. The finally keeps
            # `instructions_executed` exact when a handler traps (the
            # trapping instruction is charged, as in the reference), and
            # the deltas commute across the nested activations.
            n_exec = 0
            try:
                while pc >= 0:
                    handler, args, weight = code[pc]
                    n_exec += weight
                    pc = handler(self, frame, stack, args, pc)
            finally:
                self.instructions_executed += n_exec
        else:
            while pc >= 0:
                handler, args, weight = code[pc]
                left = self.fuel - weight
                if left < 0:
                    # Partial credit for a fused pair straddling the
                    # limit: the reference charges each component before
                    # executing it, so `fuel` whole instructions complete
                    # and the one that exhausts is not counted. Fusion
                    # candidates are side-effect-free before their last
                    # component, so stopping the whole entry is exact.
                    self.instructions_executed += self.fuel
                    self.fuel = -1
                    raise ExhaustionError("fuel exhausted")
                self.fuel = left
                self.instructions_executed += weight
                pc = handler(self, frame, stack, args, pc)
