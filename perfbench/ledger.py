"""Outside-in wall-clock ledger over the ``repro`` layers.

The ledger patches the public functions at each layer boundary from the
benchmark's own files; nothing under ``src/`` knows it exists. Every
timed boundary keeps a call count and its *self* time: inclusive
``perf_counter_ns`` time minus the time of wrapped boundaries it called.
Self times therefore add up, and whatever wall time no boundary covers
is reported as ``trace.unattributed_s``.

Three rules keep the patching correct and leave no trace:

* Generator activities (``Kubelet.sync_pod``, ``Containerd.create_container``)
  are timed per resume: the wrapper returns an object the kernel drives
  through ``send``/``throw`` like the generator it wraps, so the time a
  suspended activity spends waiting on simulated events is never counted.
* A module-level function is replaced wherever it is bound, not only in
  its defining module: ``run_cached``, ``build_bundle`` and
  ``validate_module`` are from-imported by the modules that call them.
* Leaving the ``with`` block restores every patched attribute, and
  :func:`leftover_wrappers` finds any place still bound to a wrapper.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

NS = 1e-9

#: timed methods: (layer, module, class, method names)
TIMED_METHODS = (
    ("sim.kernel", "repro.sim.kernel", "Kernel", ("run",)),
    ("sim.rng", "repro.sim.rng", "RngStreams", ("stream", "jitter")),
    (
        "sim.memory",
        "repro.sim.memory",
        "SystemMemoryModel",
        (
            "map_private",
            "map_file",
            "map_cow",
            "spawn",
            "exit",
            "node_working_set",
            "cgroup_working_set",
            "cgroup_working_sets",
            "free_report",
        ),
    ),
    ("sim.trace", "repro.sim.trace", "Tracer", ("record",)),
    ("k8s.scheduler", "repro.k8s.scheduler", "Scheduler", ("schedule",)),
    (
        "k8s.apiserver",
        "repro.k8s.apiserver",
        "APIServer",
        ("create_pod", "bind_pod", "set_phase"),
    ),
    ("wasm.run", "repro.engines.base", "WasmEngine", ("run",)),
    ("obs.sampler", "repro.obs.timeseries", "Sampler", ("tick",)),
)

#: timed module-level functions: (layer, defining module, function name)
TIMED_FUNCTIONS = (
    ("oci.bundle", "repro.oci.bundle", "build_bundle"),
    ("engines.compile", "repro.engines.cache", "compile_cached"),
    ("wasm.decode", "repro.wasm.decoder", "decode_module"),
    ("wasm.validate", "repro.wasm.validation", "validate_module"),
    ("obs.export", "repro.obs.export", "write_outputs"),
    ("measure.cell", "repro.measure.series", "run_cell"),
)

#: generator activities timed per resume: (layer, module, class, method)
TIMED_ACTIVITIES = (
    ("k8s.kubelet", "repro.k8s.kubelet", "Kubelet", "sync_pod"),
    ("container.create", "repro.container.highlevel.containerd", "Containerd",
     "create_container"),
)


def _repro_modules() -> List[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class _Resumes:
    """Stands in for a generator; times each resume with the ledger's timer."""

    __slots__ = ("_gen", "_timed")

    def __init__(self, gen: Any, timed: Callable[..., Any]) -> None:
        self._gen = gen
        self._timed = timed

    def __iter__(self) -> "_Resumes":
        return self

    def __next__(self) -> Any:
        return self._timed(self._gen.send, None)

    def send(self, value: Any) -> Any:
        return self._timed(self._gen.send, value)

    def throw(self, *exc: Any) -> Any:
        return self._timed(self._gen.throw, *exc)

    def close(self) -> None:
        self._gen.close()


class Ledger:
    """Per-boundary call counts and self times, patched in for one ``with``.

    Timed boundaries are keyed ``"<layer>/<name>"``; count-only ones
    ``"#<name>"``. ``sums`` holds quantities read off results (nodes
    scanned, guest instructions, export bytes).
    """

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.sums: Counter = Counter()
        #: child time of each open frame; [0] is the time of top-level frames
        self._stack: List[int] = [0]
        self._methods: List[Tuple[type, str, Any, bool]] = []
        self._functions: List[Tuple[Any, Any]] = []
        self._cache_before: Dict[str, Dict[str, int]] = {}
        self._cache_after: Dict[str, Dict[str, int]] = {}

    # -- wrappers -------------------------------------------------------------

    def _timer(self, key: str) -> Callable[..., Any]:
        """``timer(fn, *args)`` calls ``fn`` and books its self time on ``key``."""
        clock = time.perf_counter_ns
        stack = self._stack
        self_ns = self.self_ns

        def timer(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self_ns[key] += elapsed - stack.pop()
                stack[-1] += elapsed

        return timer

    def timed(
        self,
        key: str,
        fn: Callable[..., Any],
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        timer = self._timer(key)
        calls = self.calls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[key] += 1
            result = timer(fn, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def activity(self, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        timer = self._timer(key)
        calls = self.calls

        def wrapper(*args: Any, **kwargs: Any) -> _Resumes:
            calls[key] += 1
            return _Resumes(fn(*args, **kwargs), timer)

        return wrapper

    def counted(
        self,
        key: str,
        fn: Callable[..., Any],
        amount: Optional[Callable[[Any], int]] = None,
    ) -> Callable[..., Any]:
        calls = self.calls
        sums = self.sums

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[key] += 1
            result = fn(*args, **kwargs)
            if amount is not None:
                sums[key] += amount(result)
            return result

        return wrapper

    # -- patching -------------------------------------------------------------

    def patch_method(self, cls: type, name: str, make: Callable[[Any], Any]) -> None:
        own = name in cls.__dict__
        original = getattr(cls, name)
        setattr(cls, name, make(original))
        self._methods.append((cls, name, original, own))

    def patch_function(self, module: Any, name: str, make: Callable[[Any], Any]) -> None:
        """Replace ``module.name`` in every ``repro`` module that binds it."""
        original = getattr(module, name)
        wrapper = make(original)
        for mod in _repro_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
        self._functions.append((original, wrapper))

    def _install(self) -> None:
        import importlib

        from repro.engines import cache as engine_cache
        from repro.k8s.kubelet import Kubelet
        from repro.k8s.scheduler import Scheduler
        from repro.sim.events import EventQueue

        def load(module: str, cls: Optional[str] = None) -> Any:
            mod = importlib.import_module(module)
            return getattr(mod, cls) if cls else mod

        for layer, module, cls, names in TIMED_METHODS:
            owner = load(module, cls)
            for name in names:
                key = f"{layer}/{name}"
                on_result = None
                if layer == "wasm.run":
                    on_result = self._guest_result
                self.patch_method(
                    owner, name, lambda f, k=key, r=on_result: self.timed(k, f, r)
                )
        for layer, module, name in TIMED_FUNCTIONS:
            on_result = self._export_result if layer == "obs.export" else None
            self.patch_function(
                load(module), name,
                lambda f, k=f"{layer}/{name}", r=on_result: self.timed(k, f, r),
            )
        for layer, module, cls, name in TIMED_ACTIVITIES:
            self.patch_method(
                load(module, cls), name, lambda f, k=f"{layer}/{name}": self.activity(k, f)
            )
        self.patch_method(EventQueue, "push", lambda f: self.counted("#events", f))
        self.patch_method(
            Kubelet, "_sync_attempt", lambda f: self.counted("#sync_attempts", f)
        )
        self.patch_method(
            Scheduler, "feasible_nodes",
            lambda f: self.counted("#feasible_nodes", f, len),
        )
        self.patch_function(
            engine_cache, "run_cached", lambda f: self.counted("#run_cached", f)
        )

    def _guest_result(self, result: Any) -> None:
        self.sums["wasm/instructions"] += result.instructions

    def _export_result(self, paths: List[str]) -> None:
        self.sums["obs.export/bytes"] += sum(os.path.getsize(p) for p in paths)

    def restore(self) -> None:
        for cls, name, original, own in reversed(self._methods):
            if own:
                setattr(cls, name, original)
            else:
                delattr(cls, name)
        self._methods.clear()
        for original, wrapper in reversed(self._functions):
            for mod in _repro_modules():
                for attr, value in list(vars(mod).items()):
                    if value is wrapper:
                        setattr(mod, attr, original)
        self._functions.clear()

    def __enter__(self) -> "Ledger":
        from repro.engines.cache import cache_stats

        self._cache_before = cache_stats()
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()
        from repro.engines.cache import cache_stats

        self._cache_after = cache_stats()

    # -- results --------------------------------------------------------------

    def _layer(self, layer: str) -> Tuple[int, float]:
        prefix = layer + "/"
        calls = sum(n for k, n in self.calls.items() if k.startswith(prefix))
        seconds = sum(t for k, t in self.self_ns.items() if k.startswith(prefix))
        return calls, seconds * NS

    def _cache_delta(self, layer: str, field: str) -> int:
        return self._cache_after[layer][field] - self._cache_before[layer][field]

    def attributed_ns(self) -> int:
        """Σ self time; equals the time spent inside top-level frames."""
        total = sum(self.self_ns.values())
        if total != self._stack[0] or len(self._stack) != 1:
            raise RuntimeError(
                f"ledger does not reconcile: Σ self {total} ns != "
                f"top-level {self._stack[0]} ns (depth {len(self._stack)})"
            )
        return total

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Every per-layer metric except ``trace.overhead_frac`` (which
        needs untraced runs) and ``obs.spans`` (read off the program)."""
        c = self.calls

        def calls(layer: str) -> int:
            return self._layer(layer)[0]

        def self_s(layer: str) -> float:
            return self._layer(layer)[1]

        compiles = self._cache_delta("compile", "hits") + self._cache_delta(
            "compile", "misses"
        )
        run_requests = c["#run_cached"]
        instr = self.sums["wasm/instructions"]
        return {
            "sim.kernel.events": c["#events"],
            "sim.kernel.self_s": self_s("sim.kernel"),
            "sim.rng.calls": calls("sim.rng"),
            "sim.rng.self_s": self_s("sim.rng"),
            "sim.memory.calls": calls("sim.memory"),
            "sim.memory.self_s": self_s("sim.memory"),
            "sim.memory.ws_probes": c["sim.memory/node_working_set"],
            "sim.trace.records": calls("sim.trace"),
            "sim.trace.self_s": self_s("sim.trace"),
            "k8s.scheduler.decisions": c["k8s.scheduler/schedule"],
            "k8s.scheduler.self_s": self_s("k8s.scheduler"),
            "k8s.scheduler.nodes_scanned": self.sums["#feasible_nodes"],
            "k8s.kubelet.syncs": c["k8s.kubelet/sync_pod"],
            "k8s.kubelet.attempts": c["#sync_attempts"],
            "k8s.kubelet.self_s": self_s("k8s.kubelet"),
            "k8s.apiserver.self_s": self_s("k8s.apiserver"),
            "container.creates": c["container.create/create_container"],
            "container.create.self_s": self_s("container.create"),
            "oci.bundles": c["oci.bundle/build_bundle"],
            "oci.bundle.self_s": self_s("oci.bundle"),
            "engines.compile.self_s": self_s("engines.compile"),
            "engines.compile.hit_ratio": (
                self._cache_delta("compile", "hits") / compiles if compiles else 0.0
            ),
            "engines.run.hit_ratio": (
                self._cache_delta("run", "hits") / run_requests if run_requests else 0.0
            ),
            "wasm.guest_runs": c["wasm.run/run"],
            "wasm.run.self_s": self_s("wasm.run"),
            "wasm.guest_instr": instr,
            "wasm.instr_per_s": instr / self_s("wasm.run") if instr else 0.0,
            "wasm.decode.self_s": self_s("wasm.decode"),
            "wasm.validate.self_s": self_s("wasm.validate"),
            "obs.export.self_s": self_s("obs.export"),
            "obs.export.bytes": self.sums["obs.export/bytes"],
            "obs.sampler.ticks": c["obs.sampler/tick"],
            "obs.sampler.self_s": self_s("obs.sampler"),
            "measure.cells": c["measure.cell/run_cell"],
            "measure.cell.self_s": self_s("measure.cell"),
            "trace.wall_s": wall_s,
            "trace.unattributed_s": wall_s - self.attributed_ns() * NS,
        }


def leftover_wrappers(ledger: Ledger) -> List[str]:
    """Places that still hold one of ``ledger``'s wrappers (should be none).

    A wrapper is recognised by the closure it keeps over the ledger.
    """
    found = []

    def ours(value: Any) -> bool:
        cells = getattr(value, "__closure__", None) or ()
        for cell in cells:
            try:
                content = cell.cell_contents
            except ValueError:
                continue
            if content is ledger or content is ledger.calls:
                return True
        return False

    for mod in _repro_modules():
        for attr, value in list(vars(mod).items()):
            if ours(value):
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(value, type):
                for name, member in list(vars(value).items()):
                    if ours(member):
                        found.append(f"{mod.__name__}.{value.__name__}.{name}")
    return found
