"""Memoization of deterministic guest work: compiles, runs, prepared code.

The guest is a pure function of (module, argv, environ, stdin, preopens):
the interpreter has no ambient inputs — WASI clocks and randomness are
injected and default to constants. Experiments that deploy the same image
hundreds of times therefore re-run identical computations; these caches
collapse them to one real execution per distinct input while every
container still gets its own memory accounting.

Six layers, all keyed by content digest so the blob is hashed once per
entry point:

* **decode** — decoded + validated :class:`~repro.wasm.ast.Module` per
  digest, for direct embed callers (``run_wasi`` on ``bytes``);
* **compile** — decoded/validated :class:`CompiledModule` per
  ``(engine, digest)``;
* **prepared code** — flat executable code (``runtime/compile.py``) per
  digest. Prepared functions are instance-independent, so one prepared
  module serves every instantiation and is re-attached to fresh decodes
  of the same blob;
* **specialize** — the constant-folding tier's
  :class:`~repro.wasm.runtime.specialize.SpecializedModule` per digest.
  Specialized code is instance-independent like prepared code — the
  pass folds only module-defined immutable globals — so it attaches to
  every decode of the blob. A failed pass leaves the unspecialized
  prepared code attached (performance lost, correctness kept);
* **zygote** — one :class:`~repro.wasm.runtime.snapshot.InstanceSnapshot`
  per digest: the post-initialization instance state the warm-start path
  clones instead of re-running two-phase instantiation. A ``None`` entry
  marks a digest probed and found unsnapshottable, so it is not re-tried;
* **run** — full :class:`EngineRunResult` per
  ``(engine, digest, argv, env, stdin)``, plus the zygote path (restore
  or cold) under a plan arming a guest-runtime point.

Each layer keeps hit/miss counters (:class:`CacheStats`, backed by the
``repro_engine_cache_requests_total`` registry family so they appear in
Prometheus exports) and :func:`reset_caches` clears state + counters so
seeded experiments and tests cannot leak across runs. The counters are
registered ``always=True``: they collect even with telemetry disabled,
because experiment metadata and tests consume them functionally.

Chaos hardening (PR 6): under an ambient fault scope
(:func:`repro.sim.faults.fault_scope`) the decode/compile/prepare and
specialize layers can be told a cached entry is corrupt
(``cache.corrupt``); a corrupt hit
is invalidated and rebuilt through the normal miss path, at most
:data:`MAX_REBUILDS_PER_ENTRY` times per entry so a hostile plan cannot
rebuild forever. The zygote layer adds a **quarantine**: a digest whose
snapshot failed checksum verification is dropped and marked poisoned —
:func:`zygote_get` stops serving it and :func:`zygote_known` keeps
reporting it probed, so the embed layer neither restores from it nor
re-captures it until :func:`reset_caches`. Under a plan arming any
guest-runtime point, a run-cache hit replays the pod's own fault draws
before it is served: an entry records the guest's host calls before
and after the ``guest.trap``/``guest.exhaust`` checkpoint, so a hit
draws ``wasi.syscall``, ``guest.trap`` and ``guest.exhaust`` in the
order a real run would and raises the same fault. One pod's injected
trap never answers for another pod.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Sequence, Set, Tuple

from repro import obs
from repro.engines.base import CompiledModule, EngineRunResult, WasmEngine
from repro.oci.digest import sha256_digest
from repro.sim import faults
from repro.wasm.ast import Module
from repro.wasm.decoder import decode_module
from repro.wasm.embed import choose_zygote_path
from repro.wasm.runtime.compile import PreparedModule, prepare_module
from repro.wasm.runtime.snapshot import InstanceSnapshot
from repro.wasm.runtime.specialize import SpecializedModule, specialize_module
from repro.wasm.validation import validate_module

_DECODE_CACHE: Dict[str, Module] = {}
_COMPILE_CACHE: Dict[Tuple[str, str], CompiledModule] = {}
_PREPARED_CACHE: Dict[str, PreparedModule] = {}
_SPECIALIZED_CACHE: Dict[str, SpecializedModule] = {}
_ZYGOTE_CACHE: Dict[str, Optional[InstanceSnapshot]] = {}
_RUN_CACHE: Dict[Tuple, EngineRunResult] = {}

#: digests whose snapshot was found corrupt; never served or re-captured
#: until :func:`reset_caches`.
_ZYGOTE_QUARANTINE: Set[str] = set()

#: digests whose snapshot passed checksum verification once already —
#: amortizes the sha256 so the happy path verifies each digest one time.
_ZYGOTE_VERIFIED: Set[str] = set()

#: modules the decode or compile layer validated, by ``id`` (the value
#: check guards against id reuse). Validity is a property of the module
#: object, not of cache state, so clearing the caches leaves this alone.
_VALIDATED: "weakref.WeakValueDictionary[int, Module]" = (
    weakref.WeakValueDictionary()
)

#: per-(layer, digest) rebuild count for corrupt cache entries.
_REBUILDS: Dict[Tuple[str, str], int] = {}

#: a corrupt entry is rebuilt at most this many times; past the cap the
#: entry is trusted as-is (capped retry — no infinite rebuild storms).
MAX_REBUILDS_PER_ENTRY = 1

_CACHE_REQUESTS = obs.counter(
    "repro_engine_cache_requests_total",
    "guest-work cache lookups by layer and outcome",
    ("layer", "outcome"),
    always=True,
)

# always=True: the chaos campaign's counter-balance invariants and the
# zygote-fallback tests consume these functionally.
_ZYGOTE_FALLBACKS = obs.counter(
    "repro_zygote_fallbacks_total",
    "zygote restores abandoned for cold instantiation, by reason",
    ("reason",),
    always=True,
)


class CacheStats:
    """Hit/miss counters for one cache layer (registry-backed)."""

    __slots__ = ("_hits", "_misses")

    def __init__(self, layer: str) -> None:
        self._hits = _CACHE_REQUESTS.labels(layer, "hit")
        self._misses = _CACHE_REQUESTS.labels(layer, "miss")

    @property
    def hits(self) -> int:
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        return int(self._misses.value)

    @property
    def total(self) -> int:
        return self.hits + self.misses

    def hit(self) -> None:
        self._hits.inc()

    def miss(self) -> None:
        self._misses.inc()

    def reset(self) -> None:
        self._hits.reset()
        self._misses.reset()


decode_stats = CacheStats("decode")
compile_stats = CacheStats("compile")
prepare_stats = CacheStats("prepare")
specialize_stats = CacheStats("specialize")
zygote_stats = CacheStats("zygote")
run_stats = CacheStats("run")


def _corrupt_hit(layer: str, digest: str) -> bool:
    """Did the ambient fault plan corrupt this cache hit?

    One module-global read when no fault scope is armed. A corrupt hit is
    counted as a ``rebuild`` outcome and capped per entry: once a given
    ``(layer, digest)`` has been rebuilt :data:`MAX_REBUILDS_PER_ENTRY`
    times, further corruption draws are skipped and the rebuilt entry is
    trusted — the retry is bounded by construction.
    """
    ctx = faults.ambient()
    if ctx is None:
        return False
    plan, _pod_key = ctx
    entry = (layer, digest)
    if _REBUILDS.get(entry, 0) >= MAX_REBUILDS_PER_ENTRY:
        return False
    fault = plan.check(faults.FaultPoint.CACHE_CORRUPT, f"{layer}/{digest}")
    if fault is None:
        return False
    _REBUILDS[entry] = _REBUILDS.get(entry, 0) + 1
    _CACHE_REQUESTS.labels(layer, "rebuild").inc()
    return True


def cache_rebuilds() -> Dict[Tuple[str, str], int]:
    """Per-(layer, digest) corrupt-entry rebuild counts (copy)."""
    return dict(_REBUILDS)


def decode_cached(
    blob: bytes, digest: Optional[str] = None
) -> Tuple[Module, str]:
    """Decode + validate ``blob`` once per digest (flat code attached).

    The direct-embed entry point: ``run_wasi`` on ``bytes`` routes here
    so repeated runs of one blob stop re-decoding and re-validating it.
    Returns the module together with its digest so callers can key the
    zygote layer without re-hashing.
    """
    if digest is None:
        digest = sha256_digest(blob)
    module = _DECODE_CACHE.get(digest)
    if module is not None and _corrupt_hit("decode", digest):
        _DECODE_CACHE.pop(digest, None)
        module = None
    if module is None:
        decode_stats.miss()
        module = decode_module(bytes(blob))
        validate_module(module)
        _VALIDATED[id(module)] = module
        _DECODE_CACHE[digest] = module
    else:
        decode_stats.hit()
    prepare_cached(module, digest)
    specialize_cached(module, digest)
    return module, digest


def compile_cached(
    engine: WasmEngine, blob: bytes, digest: Optional[str] = None
) -> CompiledModule:
    """Compile ``blob`` once per engine, and prepare its flat code once
    per digest (shared across engines — prepared code is engine-neutral)."""
    if digest is None:
        digest = sha256_digest(blob)
    key = (engine.name, digest)
    compiled = _COMPILE_CACHE.get(key)
    if compiled is not None and _corrupt_hit("compile", f"{engine.name}/{digest}"):
        _COMPILE_CACHE.pop(key, None)
        compiled = None
    if compiled is None:
        compile_stats.miss()
        compiled = engine.compile(blob)  # decodes and validates
        _VALIDATED[id(compiled.module)] = compiled.module
        compiled.digest = digest
        _COMPILE_CACHE[key] = compiled
    else:
        compile_stats.hit()
    prepare_cached(compiled.module, digest)
    specialize_cached(compiled.module, digest)
    return compiled


def cache_validated(module: Module) -> bool:
    """Did the decode or compile layer validate this very ``module``?

    ``run_wasi`` skips re-validating such modules; a hand-built module
    is never registered here and is validated on every run.
    """
    return _VALIDATED.get(id(module)) is module


# -- zygote layer (no get-or-create: capture happens mid-run in embed.py) --


def zygote_get(digest: str) -> Optional[InstanceSnapshot]:
    """The snapshot for ``digest``, or ``None`` (not captured yet, probed
    and unsnapshottable, or quarantined — disambiguate with
    :func:`zygote_known` / :func:`zygote_quarantined`)."""
    if digest in _ZYGOTE_QUARANTINE:
        return None
    return _ZYGOTE_CACHE.get(digest)


def zygote_known(digest: str) -> bool:
    """Has this digest been probed (successfully or not)? Quarantined
    digests stay "known" so the embed layer never re-captures them."""
    return digest in _ZYGOTE_CACHE or digest in _ZYGOTE_QUARANTINE


def zygote_put(digest: str, snapshot: Optional[InstanceSnapshot]) -> None:
    """Record a capture outcome; ``None`` poisons the digest (don't retry)."""
    _ZYGOTE_CACHE[digest] = snapshot
    _ZYGOTE_VERIFIED.discard(digest)


def zygote_quarantine(digest: str, reason: str = "corrupt") -> None:
    """Drop ``digest``'s snapshot and poison it until :func:`reset_caches`.

    Called when a restore-time checksum check fails (organic or injected
    corruption). The digest stays :func:`zygote_known` so every later run
    of the blob takes the cold two-phase path — a poisoned zygote is
    never retried, never re-captured, and never served again.
    """
    _ZYGOTE_CACHE.pop(digest, None)
    _ZYGOTE_VERIFIED.discard(digest)
    _ZYGOTE_QUARANTINE.add(digest)
    _ZYGOTE_FALLBACKS.labels(reason).inc()


def zygote_quarantined(digest: str) -> bool:
    """Is ``digest`` quarantined (snapshot found corrupt)?"""
    return digest in _ZYGOTE_QUARANTINE


def zygote_fallback_count(reason: str = "corrupt") -> int:
    """Cold fallbacks recorded for ``reason`` (functional counter read)."""
    return int(_ZYGOTE_FALLBACKS.labels(reason).value)


def zygote_verified(digest: str) -> bool:
    """Did ``digest``'s snapshot already pass checksum verification?"""
    return digest in _ZYGOTE_VERIFIED


def zygote_mark_verified(digest: str) -> None:
    """Record a successful checksum verification (amortizes re-checks)."""
    _ZYGOTE_VERIFIED.add(digest)


def prepare_cached(module, digest: str) -> PreparedModule:
    """Memoize flat code per (module digest, func index).

    A hit re-attaches the already-lowered functions to ``module`` so a
    fresh decode of a known blob skips the lowering pass entirely.
    """
    pm = _PREPARED_CACHE.get(digest)
    if pm is not None and _corrupt_hit("prepare", digest):
        _PREPARED_CACHE.pop(digest, None)
        pm = None
    if pm is None:
        prepare_stats.miss()
        pm = prepare_module(module)
        _PREPARED_CACHE[digest] = pm
    else:
        prepare_stats.hit()
        pm.attach(module)
    return pm


def specialize_cached(module, digest: str) -> Optional[SpecializedModule]:
    """Memoize the specialization tier's output per digest.

    Runs after :func:`prepare_cached`, so the unspecialized prepared code
    is always attached first — every failure path below simply leaves it
    in place. Returns ``None`` when the pass failed for the whole module;
    otherwise attaches the specialized functions and returns the cache
    entry.

    A corrupt hit under the chaos plan is dropped and re-specialized at
    most :data:`MAX_REBUILDS_PER_ENTRY` times, exactly like the other
    layers.
    """
    sm = _SPECIALIZED_CACHE.get(digest)
    if sm is not None and _corrupt_hit("specialize", digest):
        _SPECIALIZED_CACHE.pop(digest, None)
        sm = None
    if sm is None:
        specialize_stats.miss()
        try:
            sm = specialize_module(module)
        except Exception:
            # Whole-module pass failure: stay on prepared code.
            return None
        _SPECIALIZED_CACHE[digest] = sm
    else:
        specialize_stats.hit()
    sm.attach(module)
    return sm


def run_cached(
    engine: WasmEngine,
    blob: bytes,
    args: Sequence[str],
    env: Optional[Dict[str, str]] = None,
    stdin: bytes = b"",
) -> Tuple[CompiledModule, EngineRunResult]:
    """Run the guest once per distinct input; every later request is a hit.

    Under an ambient plan arming a guest-runtime point, a hit must not let
    one pod's run answer for every pod. The zygote path is chosen first
    (drawing ``zygote.corrupt``) and joins the key, because restore and
    cold runs differ in ``dirty_memory_bytes``; a hit then replays the
    pod's own fault draws (:func:`_replay_faults`) and raises exactly the
    fault a real run would have raised. Capture runs and runs that raise
    are not stored.
    """
    digest = sha256_digest(blob)  # hashed once: shared by compile + run keys
    compiled = compile_cached(engine, blob, digest=digest)
    key: Tuple = (
        engine.name,
        digest,
        tuple(args),
        tuple(sorted((env or {}).items())),
        stdin,
    )
    ctx = faults.ambient()
    path = None
    if ctx is not None and ctx[0].arms_any(faults.GUEST_RUNTIME_POINTS):
        path = choose_zygote_path(digest)
        key += (path.mode,)
    result = _RUN_CACHE.get(key)
    if result is not None:
        run_stats.hit()
        if path is not None:
            _replay_faults(ctx[0], ctx[1], result)
        return compiled, result
    run_stats.miss()
    result = engine.run(compiled, args=args, env=env, stdin=stdin, zygote_path=path)
    if path is None or not path.capture:
        _RUN_CACHE[key] = result
    return compiled, result


def _replay_faults(
    plan: faults.FaultPlan, pod_key: str, result: EngineRunResult
) -> None:
    """Draw the guest-runtime faults a real run of ``result`` would draw,
    in its order, raising the first that fires.

    ``run_wasi`` draws ``wasi.syscall`` on every host call of the start
    section, then ``guest.trap`` and ``guest.exhaust`` at its checkpoint,
    then ``wasi.syscall`` on every host call of the entrypoint.
    ``zygote.corrupt`` was already drawn by :func:`choose_zygote_path`.
    """
    for _ in range(result.start_host_calls):
        plan.raise_if_fires(faults.FaultPoint.WASI_SYSCALL, pod_key)
    if result.entry_host_calls is None:  # the start section exited
        return
    plan.raise_if_fires(faults.FaultPoint.GUEST_TRAP, pod_key)
    plan.raise_if_fires(faults.FaultPoint.GUEST_EXHAUST, pod_key)
    for _ in range(result.entry_host_calls):
        plan.raise_if_fires(faults.FaultPoint.WASI_SYSCALL, pod_key)


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Machine-readable snapshot of all layers (for experiment metadata)."""
    stats = {
        name: {"hits": s.hits, "misses": s.misses, "entries": len(store)}
        for name, s, store in (
            ("decode", decode_stats, _DECODE_CACHE),
            ("compile", compile_stats, _COMPILE_CACHE),
            ("prepare", prepare_stats, _PREPARED_CACHE),
            ("specialize", specialize_stats, _SPECIALIZED_CACHE),
            ("zygote", zygote_stats, _ZYGOTE_CACHE),
            ("run", run_stats, _RUN_CACHE),
        )
    }
    stats["zygote"]["quarantined"] = len(_ZYGOTE_QUARANTINE)
    stats["zygote"]["fallbacks"] = zygote_fallback_count()
    return stats


def clear_cache_state() -> None:
    """Drop all cached state, keeping the hit/miss counters monotonic.

    The per-cell determinism primitive: telemetry-enabled experiments
    clear state at cell start so every cell does the same cold-cache
    work regardless of process history, while the counters stay
    cumulative — the delta/merge protocol in :mod:`repro.measure.pool`
    and the time-series sampler both assume counters never decrease.
    """
    _DECODE_CACHE.clear()
    _COMPILE_CACHE.clear()
    _PREPARED_CACHE.clear()
    _SPECIALIZED_CACHE.clear()
    _ZYGOTE_CACHE.clear()
    _RUN_CACHE.clear()
    _ZYGOTE_QUARANTINE.clear()
    _ZYGOTE_VERIFIED.clear()
    _REBUILDS.clear()


def reset_caches() -> None:
    """Drop all cached state and zero the counters.

    Also clears the zygote quarantine/verified markers and the
    corrupt-entry rebuild ledger: a digest poisoned by one experiment's
    fault plan must restore cleanly in the next (no cross-experiment
    contamination of the measurement cache).
    """
    clear_cache_state()
    decode_stats.reset()
    compile_stats.reset()
    prepare_stats.reset()
    specialize_stats.reset()
    zygote_stats.reset()
    run_stats.reset()
    _ZYGOTE_FALLBACKS.reset()
