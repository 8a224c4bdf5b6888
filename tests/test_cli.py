"""CLI behaviour (argument parsing + end-to-end subcommands)."""

import pathlib

import pytest

from repro.cli import main
from repro.workloads.microservice import MICROSERVICE_WAT, build_microservice_wasm


@pytest.fixture()
def wat_file(tmp_path) -> pathlib.Path:
    path = tmp_path / "svc.wat"
    path.write_text(MICROSERVICE_WAT)
    return path


@pytest.fixture()
def wasm_file(tmp_path) -> pathlib.Path:
    path = tmp_path / "svc.wasm"
    path.write_bytes(build_microservice_wasm())
    return path


class TestToolchainCommands:
    def test_wat2wasm(self, wat_file, tmp_path, capsys):
        out = tmp_path / "out.wasm"
        assert main(["wat2wasm", str(wat_file), "-o", str(out)]) == 0
        assert out.read_bytes()[:4] == b"\x00asm"
        assert "wrote" in capsys.readouterr().out

    def test_wat2wasm_default_output(self, wat_file):
        assert main(["wat2wasm", str(wat_file)]) == 0
        assert wat_file.with_suffix(".wasm").exists()

    def test_wasm2wat_prints(self, wasm_file, capsys):
        assert main(["wasm2wat", str(wasm_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("(module") and "fd_write" in out

    def test_wasm2wat_roundtrip_through_files(self, wasm_file, tmp_path):
        wat_out = tmp_path / "dis.wat"
        assert main(["wasm2wat", str(wasm_file), "-o", str(wat_out)]) == 0
        wasm_out = tmp_path / "re.wasm"
        assert main(["wat2wasm", str(wat_out), "-o", str(wasm_out)]) == 0
        assert wasm_out.read_bytes() == wasm_file.read_bytes()

    def test_validate_wat(self, wat_file, capsys):
        assert main(["validate", str(wat_file)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_wasm(self, wasm_file, capsys):
        assert main(["validate", str(wasm_file)]) == 0

    def test_validate_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.wasm"
        bad.write_bytes(b"nope")
        assert main(["validate", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent.wasm"]) == 1


class TestCcCommand:
    def test_compile_and_run_c(self, tmp_path, capsys):
        src = tmp_path / "app.c"
        src.write_text(
            'int main(void) { puts("from C"); putd(6 * 7); return 3; }'
        )
        assert main(["cc", str(src)]) == 0
        out_path = src.with_suffix(".wasm")
        assert out_path.read_bytes()[:4] == b"\x00asm"
        capsys.readouterr()
        code = main(["run", str(out_path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == "from C\n42\n"

    def test_run_c_source_directly(self, tmp_path, capsys):
        src = tmp_path / "direct.c"
        src.write_text("int main(void) { putd(env_int(\"N\", 11)); return 0; }")
        assert main(["run", str(src), "--env", "N=5"]) == 0
        assert capsys.readouterr().out == "5\n"

    def test_cc_error_reporting(self, tmp_path, capsys):
        src = tmp_path / "bad.c"
        src.write_text("int main(void) { return missing(); }")
        assert main(["cc", str(src)]) == 1
        assert "unknown function" in capsys.readouterr().err

    def test_cc_output_disassembles(self, tmp_path, capsys):
        src = tmp_path / "app.c"
        src.write_text("int twice(int x) { return 2 * x; } int main(void) { return twice(2); }")
        out = tmp_path / "app.wasm"
        assert main(["cc", str(src), "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["wasm2wat", str(out)]) == 0
        text = capsys.readouterr().out
        assert "i32.mul" in text


class TestRunCommand:
    def test_run_wasm(self, wasm_file, capsys):
        code = main(["run", str(wasm_file), "--env", "REQUESTS=2", "--stats"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.count("request served") == 2
        assert "instructions=" in captured.err

    def test_run_wat_directly(self, wat_file, capsys):
        assert main(["run", str(wat_file)]) == 0
        assert "ready" in capsys.readouterr().out

    def test_run_fuel_exhaustion(self, tmp_path, capsys):
        spin = tmp_path / "spin.wat"
        spin.write_text('(module (func (export "_start") (loop $l (br $l))))')
        assert main(["run", str(spin), "--fuel", "1000"]) == 1
        assert "error" in capsys.readouterr().err


class TestDeployCommand:
    def test_deploy_summary(self, capsys):
        assert main(["deploy", "--config", "crun-wamr", "-n", "4", "--phases"]) == 0
        out = capsys.readouterr().out
        assert "memory (metrics)" in out
        assert "startup.parallel" in out

    def test_deploy_unknown_config(self, capsys):
        assert main(["deploy", "--config", "docker-v8", "-n", "2"]) == 1


class TestTelemetryExport:
    @pytest.fixture()
    def restore_obs(self):
        from repro import obs

        was = obs.enabled()
        yield
        obs.reset()
        obs.set_enabled(was)

    def test_deploy_exports_trace_and_metrics(self, tmp_path, capsys, restore_obs):
        import json

        from repro.obs.export import parse_prometheus_text, validate_chrome_trace

        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.prom"
        assert main([
            "deploy", "--config", "crun-wamr", "-n", "3",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert str(trace) in out and str(metrics) in out
        assert validate_chrome_trace(json.loads(trace.read_text())) > 0
        families = parse_prometheus_text(metrics.read_text())
        assert "repro_scheduler_placements_total" in families

    def test_inspect_renders_breakdown(self, tmp_path, capsys, restore_obs):
        trace = tmp_path / "t.jsonl"
        assert main([
            "deploy", "--config", "crun-wamr", "-n", "2", "--trace-out", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["inspect", str(trace)]) == 0
        table = capsys.readouterr().out
        assert "startup.pipeline" in table and "pod.sync" in table
        assert main(["inspect", str(trace), "--category", "startup"]) == 0
        assert "pod.sync" not in capsys.readouterr().out

    def test_inspect_missing_file(self, capsys):
        assert main(["inspect", "/nonexistent-trace.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_deploy_without_flags_leaves_telemetry_off(self, capsys):
        from repro import obs

        was = obs.enabled()
        assert main(["deploy", "--config", "crun-wamr", "-n", "2"]) == 0
        assert obs.enabled() == was


class TestFiguresCommand:
    def test_single_table(self, capsys):
        assert main(["figures", "table1"]) == 0
        assert "WAMR" in capsys.readouterr().out

    def test_unknown_figure(self, capsys):
        assert main(["figures", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err


class TestSeriesCommand:
    def test_list_shows_every_shipped_series(self, capsys):
        assert main(["series", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("campaign", "figures", "zygote", "recovery", "chaos"):
            assert name in out
        assert "27 cells" in out

    def test_validate_expands_all_shipped_specs(self, capsys):
        assert main(["series", "validate"]) == 0
        out = capsys.readouterr().out
        assert "campaign: ok (27 cells)" in out
        assert "zygote: ok (2 cells)" in out

    def test_validate_unknown_series_fails(self, capsys):
        assert main(["series", "validate", "no-such"]) == 1
        assert "unknown series" in capsys.readouterr().err

    def test_run_requires_a_name(self, capsys):
        assert main(["series", "run"]) == 2
        assert "name required" in capsys.readouterr().err

    def test_run_recovery_series(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["series", "run", "recovery", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "done recovery:crun-wamr:n100:s1" in out
        assert "1/1 cells" in out

    def test_campaign_uses_cache_dir(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["campaign", "--seed", "1", "--jobs", "1", "--cache-dir", str(cache)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert any(cache.rglob("*.json"))
        assert main(argv) == 0
        assert capsys.readouterr().out == cold

    def test_run_journals_to_manifest(self, tmp_path, capsys):
        import json

        manifest = tmp_path / "series.json"
        assert main([
            "series", "run", "recovery",
            "--cache-dir", str(tmp_path / "cache"),
            "--manifest", str(manifest),
        ]) == 0
        capsys.readouterr()
        completed = json.loads(manifest.read_text())["completed"]
        assert list(completed) == ["recovery:crun-wamr:n100:s1"]
