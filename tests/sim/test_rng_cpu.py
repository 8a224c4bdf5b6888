"""RNG streams and CPU pressure model."""

import random
import zlib

import numpy as np
import pytest

from repro.sim.cpu import CpuModel
from repro.sim.rng import RngStreams


class TestRngStreams:
    def test_same_seed_same_name_reproduces(self):
        a = RngStreams(42).stream("jitter").normal(size=10)
        b = RngStreams(42).stream("jitter").normal(size=10)
        assert (a == b).all()

    def test_different_names_are_independent(self):
        r = RngStreams(42)
        a = r.stream("a").normal(size=10)
        b = r.stream("b").normal(size=10)
        assert not (a == b).all()

    def test_different_seeds_differ(self):
        a = RngStreams(1).stream("x").normal(size=10)
        b = RngStreams(2).stream("x").normal(size=10)
        assert not (a == b).all()

    def test_stream_is_cached(self):
        r = RngStreams(0)
        assert r.stream("x") is r.stream("x")

    def test_jitter_is_nonnegative(self):
        r = RngStreams(3)
        assert all(r.jitter("j", 0.5) >= 0 for _ in range(100))

    @pytest.mark.parametrize("trial", range(20))
    def test_mixed_jitter_and_stream_match_a_kept_generator(self, trial):
        # One-shot jitter names keep only a draw count; whatever order of
        # jitter and stream calls follows, each name's draws must equal
        # those of its own fresh generator.
        rnd = random.Random(trial)
        seed = rnd.randrange(2**31)
        streams = RngStreams(seed)
        reference = {}
        for _ in range(40):
            name = f"pod-{rnd.randrange(5)}/startup"
            ref = reference.get(name)
            if ref is None:
                key = zlib.crc32(name.encode("utf-8"))
                ref = reference[name] = np.random.default_rng(
                    np.random.SeedSequence([seed, key])
                )
            if rnd.random() < 0.7:
                scale = rnd.choice([0.001, 0.5, 3.0])
                got = streams.jitter(name, scale)
                assert got == abs(float(ref.normal(0.0, scale)))
            else:
                size = rnd.randrange(1, 4)
                got = streams.stream(name).normal(size=size)
                assert (got == ref.normal(size=size)).all()

    def test_one_shot_jitter_keeps_no_generator(self):
        r = RngStreams(7)
        for i in range(100):
            r.jitter(f"pod-{i}/startup", 1.0)
        assert r._streams == {}
        assert len(r._draws) == 100

    def test_fork_changes_draws(self):
        base = RngStreams(5)
        fork = base.fork(1)
        assert fork.seed != base.seed
        a = base.stream("x").normal(size=5)
        b = fork.stream("x").normal(size=5)
        assert not (a == b).all()

    def test_name_hash_is_stable_across_instances(self):
        # crc32-based derivation: no process-salted hash() involved.
        a = RngStreams(9).stream("startup/pod-1").integers(0, 1000, size=4)
        b = RngStreams(9).stream("startup/pod-1").integers(0, 1000, size=4)
        assert (a == b).all()


class TestCpuModel:
    def test_no_pressure_at_idle(self):
        cpu = CpuModel()
        assert cpu.pressure_factor(0, 0) == 1.0

    def test_pressure_grows_with_processes(self):
        cpu = CpuModel()
        assert cpu.pressure_factor(400, 0) > cpu.pressure_factor(10, 0)

    def test_pressure_grows_with_memory_beyond_floor(self):
        cpu = CpuModel()
        floor = int(cpu.pressure_floor_gib * 1024**3)
        assert cpu.pressure_factor(0, floor * 2) > cpu.pressure_factor(0, floor)

    def test_memory_below_floor_is_free(self):
        cpu = CpuModel()
        assert cpu.pressure_factor(0, 1024**3) == 1.0

    def test_run_queue_capacity_is_cores(self):
        cpu = CpuModel(cores=20)
        assert cpu.make_run_queue().capacity == 20
