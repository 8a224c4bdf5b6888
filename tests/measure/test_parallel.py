"""Parallel experiment scheduler + persistent measurement cache."""

import functools
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.measure.cache import (
    MeasurementCache,
    measurement_from_dict,
    measurement_to_dict,
    source_tree_digest,
)
from repro.measure.experiment import ExperimentRunner, measure
from repro.measure.parallel import auto_jobs, run_matrix
from repro.sim.memory import SystemMemoryModel

PAIRS = [("crun-wamr", 10), ("crun-python", 10)]


@pytest.fixture(scope="module")
def sequential():
    return run_matrix(PAIRS, seed=1, jobs=1)


class TestRunMatrix:
    def test_sequential_matches_measure(self, sequential):
        for config, count in PAIRS:
            assert sequential[(config, count)] == measure(config, count, seed=1)

    def test_parallel_results_identical(self, sequential, tmp_path):
        parallel = run_matrix(
            PAIRS, seed=1, jobs=2, cache=MeasurementCache(tmp_path / "cache")
        )
        assert parallel == sequential

    def test_merge_order_is_caller_order(self, sequential):
        reversed_result = run_matrix(list(reversed(PAIRS)), seed=1, jobs=1)
        assert list(reversed_result) == list(reversed(PAIRS))
        assert dict(reversed_result) == dict(sequential)

    def test_no_cache_recomputes(self, sequential):
        fresh = run_matrix(PAIRS, seed=1, jobs=1, cache=None)
        assert fresh == sequential

    def test_auto_jobs_positive(self):
        assert auto_jobs() >= 1


class TestMeasurementCache:
    def test_roundtrip_is_exact(self, sequential, tmp_path):
        cache = MeasurementCache(tmp_path / "cache")
        m = sequential[("crun-wamr", 10)]
        cache.put(1, "crun-wamr", 10, m)
        assert cache.get(1, "crun-wamr", 10) == m

    def test_miss_returns_none(self, tmp_path):
        cache = MeasurementCache(tmp_path / "cache")
        assert cache.get(99, "crun-wamr", 10) is None

    def test_json_serialization_is_lossless(self, sequential):
        m = sequential[("crun-python", 10)]
        data = json.loads(json.dumps(measurement_to_dict(m)))
        assert measurement_from_dict(data) == m

    def test_entries_keyed_by_source_digest(self, sequential, tmp_path):
        cache = MeasurementCache(tmp_path / "cache")
        m = sequential[("crun-wamr", 10)]
        cache.put(1, "crun-wamr", 10, m)
        (entry,) = (tmp_path / "cache").glob("*.json")
        assert entry.name.startswith(source_tree_digest()[:16])
        # A source-tree change produces a different digest prefix — the
        # stale entry is simply never read again.
        payload = json.loads(entry.read_text())
        assert payload["source_digest"] == source_tree_digest()

    def test_wall_seconds_recorded_for_cost_estimates(self, sequential, tmp_path):
        cache = MeasurementCache(tmp_path / "cache")
        m = sequential[("crun-wamr", 10)]
        assert cache.cost_estimate(1, "crun-wamr", 10) is None
        cache.put(1, "crun-wamr", 10, m, wall_seconds=0.125)
        assert cache.cost_estimate(1, "crun-wamr", 10) == 0.125

    def test_warm_run_skips_simulation(self, sequential, tmp_path, monkeypatch):
        cache = MeasurementCache(tmp_path / "cache")
        for (config, count), m in sequential.items():
            cache.put(1, config, count, m)

        def boom(self, *a, **k):  # pragma: no cover - must not run
            raise AssertionError("cache miss: simulation ran on a warm cache")

        monkeypatch.setattr(ExperimentRunner, "run", boom)
        warm = run_matrix(PAIRS, seed=1, jobs=2, cache=cache)
        assert warm == sequential


class TestPrewarm:
    def test_decode_failure_reaches_caller(self, monkeypatch):
        # A broken decode/prepare/specialize path must not hide at startup.
        from repro.engines import cache as engine_cache
        from repro.measure.pool import prewarm_process_caches

        def boom(blob):
            raise RuntimeError("decode path broken")

        monkeypatch.setattr(engine_cache, "decode_cached", boom)
        with pytest.raises(RuntimeError, match="decode path broken"):
            prewarm_process_caches()


class TestTelemetryMerge:
    """--trace-out/--metrics-out work at any --jobs N (satellite fix).

    Workers ship per-cell registry deltas and span groups; the parent
    merges them in sequential cell order. Simulation-driven counters and
    the trace export must be byte-identical to a --jobs 1 run. Families
    that track *process* state — engine-cache hit/miss stats,
    specialization/zygote warmth counters — are excluded: they differ
    even between two successive --jobs 1 runs in one process.
    """

    WARMTH_PREFIXES = ("repro_engine_cache", "repro_specialize", "repro_zygote")

    @pytest.fixture()
    def telemetry(self):
        from repro import obs

        was = obs.enabled()
        obs.set_enabled(True)
        obs.reset()
        yield obs
        obs.reset()
        obs.set_enabled(was)

    def _deterministic_counters(self, obs):
        out = {}
        for family in obs.default_registry().collect():
            if family.kind != "counter":
                continue
            if family.name.startswith(self.WARMTH_PREFIXES):
                continue
            out[family.name] = {
                labels: child.value for labels, child in family.samples()
            }
        return out

    def test_parallel_merge_equals_sequential_totals(self, telemetry):
        import json

        from repro.obs.export import chrome_trace

        obs = telemetry
        seq = run_matrix(PAIRS, seed=1, jobs=1, cache=None)
        seq_counters = self._deterministic_counters(obs)
        seq_trace = json.dumps(
            chrome_trace(obs.tagged_spans(), obs.context_labels()), sort_keys=True
        )
        seq_contexts = obs.context_labels()
        assert seq_counters, "sequential run recorded no counters"

        obs.reset()
        par = run_matrix(PAIRS, seed=1, jobs=2, cache=None)
        par_counters = self._deterministic_counters(obs)
        par_trace = json.dumps(
            chrome_trace(obs.tagged_spans(), obs.context_labels()), sort_keys=True
        )

        assert par == seq
        assert obs.context_labels() == seq_contexts
        assert par_counters == seq_counters
        assert par_trace == seq_trace

    def test_registry_families_survive_merge(self, telemetry):
        obs = telemetry
        run_matrix([("crun-wamr", 10)], seed=1, jobs=2, cache=None)
        names = {family.name for family in obs.default_registry().collect()}
        # Worker-side registrations propagate through the merged deltas.
        assert "repro_scheduler_placements_total" in names
        assert "repro_kubelet_pod_syncs_total" in names


class TestTimeseriesJobsIdentity:
    """--timeseries-out/--profile-out at any --jobs N (tentpole acceptance).

    Stronger than counter-total equality: the TSDB log (samples + alert
    transitions), the collapsed guest profile, and the --wasi latency
    table must be *byte-identical* between --jobs 1 and --jobs 2. The
    sampler's determinism contract (cold caches per cell, baseline
    deltas, zero suppression, wall-clock exclusion) is what makes this
    hold; any leak of process warmth into the sampled stream fails here.
    """

    @pytest.fixture()
    def full_telemetry(self):
        from repro import obs
        from repro.obs import profile, timeseries

        was = obs.enabled()
        obs.set_enabled(True)
        obs.reset()
        timeseries.set_sampling(True, timeseries.DEFAULT_PERIOD)
        profile.set_profiling(True)
        yield obs
        profile.set_profiling(False)
        timeseries.set_sampling(False)
        obs.reset()
        obs.set_enabled(was)

    def _artifacts(self, obs):
        from repro.obs import profile, timeseries
        from repro.obs.export import (
            prometheus_text,
            render_wasi,
            timeseries_jsonl,
        )

        return {
            "timeseries": timeseries_jsonl(
                timeseries.default_db().tagged_entries(), obs.context_labels()
            ),
            "profile": profile.collapsed(),
            "wasi": render_wasi(prometheus_text(obs.default_registry())),
        }

    def test_artifacts_byte_identical_across_jobs(self, full_telemetry):
        obs = full_telemetry
        seq_results = run_matrix(PAIRS, seed=1, jobs=1, cache=None)
        seq = self._artifacts(obs)
        assert seq["timeseries"], "sequential run sampled nothing"
        assert '"kind": "alert"' in seq["timeseries"], (
            "no alert transition in the sampled stream"
        )
        assert "_start" in seq["profile"]
        assert "hostcalls" in seq["wasi"]

        obs.reset()
        par_results = run_matrix(PAIRS, seed=1, jobs=2, cache=None)
        par = self._artifacts(obs)

        assert par_results == seq_results
        assert par == seq


class TestAuditModeExperiments:
    def test_audit_measurement_identical_to_default(self, sequential, monkeypatch):
        # Audit raises on any ledger drift, so equality here also means
        # every query of the experiment agreed with the full-scan oracle.
        monkeypatch.setattr(
            "repro.k8s.cluster.SystemMemoryModel",
            functools.partial(SystemMemoryModel, audit=True),
        )
        audited = ExperimentRunner(seed=1).run("crun-wamr", 10)
        assert audited == sequential[("crun-wamr", 10)]


#: retired environment toggles; exporting them must change nothing
_RETIRED_TOGGLES = {
    "REPRO_ZYGOTE": "off",
    "REPRO_MEMORY_ACCOUNTING": "reference",
    "REPRO_TELEMETRY": "on",
}

_PROBE = """
import json, pathlib, sys
from repro import obs
from repro.measure.cache import MeasurementCache, measurement_to_dict
from repro.measure.experiment import ExperimentRunner
m = ExperimentRunner(seed=1).run("crun-wamr-zygote", 10)
path = MeasurementCache(pathlib.Path(sys.argv[1]))._path(1, "crun-wamr-zygote", 10)
print(json.dumps({"enabled": obs.enabled(), "path": str(path),
                  "measurement": measurement_to_dict(m)}))
"""


class TestRetiredToggles:
    def test_exported_toggles_change_nothing(self, tmp_path):
        """A user who still exports an old toggle gets the default run."""
        clean = ExperimentRunner(seed=1).run("crun-wamr-zygote", 10)
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, **_RETIRED_TOGGLES)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", _PROBE, str(tmp_path)],
            env=env,
            check=True,
            capture_output=True,
            text=True,
        ).stdout
        probe = json.loads(out)
        assert probe["enabled"] is False
        assert probe["path"] == str(
            MeasurementCache(tmp_path)._path(1, "crun-wamr-zygote", 10)
        )
        assert measurement_from_dict(probe["measurement"]) == clean
