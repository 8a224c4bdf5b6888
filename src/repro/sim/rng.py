"""Named deterministic random streams.

Every stochastic term in the simulation (startup jitter, allocator slack)
draws from a stream named after the component that uses it. Streams are
derived from a root seed with SeedSequence spawning, so adding a new
consumer never perturbs the draws of existing ones — experiments stay
reproducible across library versions as long as stream names are stable.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np


class RngStreams:
    """Factory of independent, seeded :class:`numpy.random.Generator`\\ s.

    Most per-pod names are drawn from exactly once, by :meth:`jitter`.
    Such a one-shot name keeps only its draw count, not a generator: a
    later :meth:`jitter` or :meth:`stream` on it rebuilds the generator
    and replays the count with ``standard_normal(n)``, which consumes
    exactly the bits of ``n`` normal draws, so the sequence is the one a
    kept generator would have produced.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        #: names drawn from by jitter() alone, with their draw counts
        self._draws: Dict[str, int] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def _fresh(self, name: str) -> np.random.Generator:
        # Stable 32-bit hash of the name; Python's hash() is salted per
        # process and would break determinism.
        name_key = zlib.crc32(name.encode("utf-8"))
        return np.random.default_rng(np.random.SeedSequence([self._seed, name_key]))

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same (seed, name) pair always yields an identical sequence.
        """
        gen = self._streams.get(name)
        if gen is None:
            gen = self._fresh(name)
            drawn = self._draws.pop(name, 0)
            if drawn:
                gen.standard_normal(drawn)
            self._streams[name] = gen
        return gen

    def jitter(self, name: str, scale: float) -> float:
        """One absolute half-normal jitter draw with std ``scale``."""
        if name in self._streams or name in self._draws:
            gen = self.stream(name)
        else:
            gen = self._fresh(name)
            self._draws[name] = 1
        return abs(float(gen.normal(0.0, scale)))

    def fork(self, salt: int) -> "RngStreams":
        """Derive an independent stream family (e.g. one per repetition)."""
        return RngStreams(seed=(self._seed * 1_000_003 + salt) & 0x7FFFFFFF)
