"""Execution engine: store, instances, interpreter, instantiation.

Two interpreters share one store model: the production
:class:`Interpreter` runs flat pre-compiled code (see ``compile.py``),
while :class:`ReferenceInterpreter` walks the AST and serves as the
executable specification for differential testing. The specialization
tier (``specialize.py``) folds immutable globals into prepared code per
module digest, falling back to the prepared baseline if the pass fails.
"""

from repro.wasm.runtime.store import (
    FuncInstance,
    GlobalInstance,
    MemoryInstance,
    ModuleInstance,
    Store,
    TableInstance,
)
from repro.wasm.runtime.compile import (
    PreparedFunction,
    PreparedModule,
    prepare_function,
    prepare_module,
)
from repro.wasm.runtime.interpreter import Interpreter
from repro.wasm.runtime.reference import ReferenceInterpreter
from repro.wasm.runtime.specialize import (
    SpecializedFunction,
    SpecializedModule,
    specialize_module,
)
from repro.wasm.runtime.instantiate import instantiate
from repro.wasm.runtime.snapshot import (
    InstanceSnapshot,
    capture_snapshot,
    dirty_memory_bytes,
    restore_instance,
    verify_snapshot,
)

__all__ = [
    "InstanceSnapshot",
    "capture_snapshot",
    "dirty_memory_bytes",
    "restore_instance",
    "verify_snapshot",
    "Store",
    "ModuleInstance",
    "FuncInstance",
    "TableInstance",
    "MemoryInstance",
    "GlobalInstance",
    "Interpreter",
    "ReferenceInterpreter",
    "PreparedFunction",
    "PreparedModule",
    "prepare_function",
    "prepare_module",
    "SpecializedFunction",
    "SpecializedModule",
    "specialize_module",
    "instantiate",
]
