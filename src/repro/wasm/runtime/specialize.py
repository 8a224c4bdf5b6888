"""Specialization tier: digest-keyed constant folding of prepared code.

The flat interpreter (``compile.py``) re-reads every immutable global
from the store on each ``global.get``, although prepare time already
knows the value of a module-defined one. This module is a second
lowering stage that rewrites finished :class:`PreparedFunction` code —
the same ``(handler, args, weight)`` triples, the same dispatch loop —
through one pass:

**Constant folding** — ``global.get`` of a module-defined immutable
global with a constant initializer becomes ``h_const``. The value is
instance-independent by construction; imported globals are resolved per
instance and are left alone. The rewrite is 1:1, entry for entry, so
every branch target and every weight stays where prepare put it and
fuel accounting stays exactly equal to the reference tree-walker.

The result runs on the unmodified flat dispatch loop, metered or not.
``engines/cache.py`` keys it by content digest (the ``specialize``
layer) so the pass runs once per blob across N-hundred-pod experiments;
a pass failure leaves the unspecialized prepared code in place. The
ReferenceInterpreter remains the differential oracle
(``tests/wasm/test_differential.py``).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.wasm.ast import Module
from repro.wasm.runtime import compile as flat
from repro.wasm.runtime import values as V
from repro.wasm.runtime.compile import PreparedFunction, prepare_function

# always=True: tests and `repro inspect` consume these functionally.
_FUNCS_TOTAL = obs.counter(
    "repro_specialize_functions_total",
    "functions processed by the specialization tier, by outcome",
    ("outcome",),
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


class SpecializedFunction(PreparedFunction):
    """Specialized flat code plus the original it falls back to.

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


class SpecializeReport:
    """Per-module pass statistics: ``global.get`` sites folded."""

    __slots__ = ("folded",)

    def __init__(self) -> None:
        self.folded = 0


def _specialize_code(pf, fold_map, report):
    entries = list(pf.code)
    for pc, (handler, args, weight) in enumerate(entries):
        if handler is flat.h_global_get and args in fold_map:
            entries[pc] = (flat.h_const, fold_map[args], weight)
            report.folded += 1
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
            code = _specialize_code(pf, fold_map, report)
        except Exception:
            _FUNCS_TOTAL.labels("failed").inc()
            functions.append(pf)
            continue
        _FUNCS_TOTAL.labels("bytecode").inc()
        functions.append(SpecializedFunction(code, pf))
    _PASS_SECONDS.observe(time.perf_counter() - started)
    return SpecializedModule(functions)


def specialize_counts() -> Dict[str, int]:
    """Functional read of the tier's failure counter."""
    return {"functions_failed": int(_FUNCS_TOTAL.labels("failed").value)}
