"""Command-line interface.

Subcommands mirror the tools a user of the real system would reach for:

* ``wat2wasm`` / ``wasm2wat`` / ``validate`` — the Wasm toolchain,
* ``run`` — execute a module under WASI (the engines' code path),
* ``deploy`` — a deployment experiment on the simulated testbed,
* ``recover`` — a fault-injection recovery experiment,
* ``chaos`` — the full-lifecycle chaos campaign with convergence invariants,
* ``zygote`` — the snapshot-and-clone warm-start comparison,
* ``fleet`` — multi-node scaling sweep and snapshot-locality ablation,
* ``figures`` — regenerate the paper's tables/figures,
* ``series`` — list/validate/run declarative experiment series,
* ``inspect`` — per-phase/per-layer breakdown of an exported trace file,
  plus ``--wasi`` for the eWAPA-style hostcall latency table,
* ``monitor`` — ASCII dashboard over an exported time-series file.

The experiment subcommands accept ``--trace-out FILE`` and
``--metrics-out FILE`` to export the run's telemetry (Chrome trace-event
JSON / JSONL spans, Prometheus text metrics), ``--timeseries-out FILE``
to run the sim-clock sampler and export its TSDB as JSONL, and
``--profile-out FILE`` for the collapsed-stack interpreter profile.

Usable as ``python -m repro <cmd>`` or the ``repro`` console script.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

from repro.errors import ReproError


def _cmd_wat2wasm(args: argparse.Namespace) -> int:
    from repro.wasm import assemble_wat

    source = pathlib.Path(args.input).read_text()
    blob = assemble_wat(source, validate=not args.no_validate)
    out = pathlib.Path(args.output or pathlib.Path(args.input).with_suffix(".wasm"))
    out.write_bytes(blob)
    print(f"wrote {len(blob)} bytes to {out}")
    return 0


def _cmd_wasm2wat(args: argparse.Namespace) -> int:
    from repro.wasm import decode_module
    from repro.wasm.names import apply_name_section
    from repro.wasm.wat import print_wat

    module = apply_name_section(decode_module(pathlib.Path(args.input).read_bytes()))
    text = print_wat(module)
    if args.output:
        pathlib.Path(args.output).write_text(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_cc(args: argparse.Namespace) -> int:
    from repro.cc import compile_c_binary

    source = pathlib.Path(args.input).read_text()
    blob = compile_c_binary(source)
    out = pathlib.Path(args.output or pathlib.Path(args.input).with_suffix(".wasm"))
    out.write_bytes(blob)
    print(f"compiled {args.input} -> {out} ({len(blob)} bytes)")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.wasm import decode_module, parse_wat, validate_module

    path = pathlib.Path(args.input)
    if path.suffix == ".wat":
        module = parse_wat(path.read_text())
    else:
        module = decode_module(path.read_bytes())
    validate_module(module)
    print(
        f"{path}: valid — {module.total_funcs()} functions "
        f"({module.num_imported_funcs()} imported), "
        f"{len(module.exports)} exports, {module.code_size()} instructions"
    )
    return 0


def _load_module_bytes(path: pathlib.Path) -> bytes:
    if path.suffix == ".wat":
        from repro.wasm import assemble_wat

        return assemble_wat(path.read_text())
    if path.suffix == ".c":
        from repro.cc import compile_c_binary

        return compile_c_binary(path.read_text())
    return path.read_bytes()


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.wasm.embed import run_wasi

    blob = _load_module_bytes(pathlib.Path(args.input))
    env = {}
    for item in args.env or []:
        key, _, value = item.partition("=")
        env[key] = value
    if args.profile_out:
        from repro.obs import profile

        profile.set_profiling(True)
    result = run_wasi(
        blob,
        args=[args.input, *(args.args or [])],
        env=env,
        fuel=args.fuel,
    )
    if args.profile_out:
        from repro.obs import profile

        pathlib.Path(args.profile_out).write_text(profile.collapsed())
        print(f"wrote {args.profile_out}", file=sys.stderr)
    sys.stdout.write(result.stdout.decode("utf-8", "replace"))
    sys.stderr.write(result.stderr.decode("utf-8", "replace"))
    if args.stats:
        print(
            f"[exit={result.exit_code} instructions={result.instructions} "
            f"linear-memory={result.memory_bytes}B]",
            file=sys.stderr,
        )
    return result.exit_code


def _wants_telemetry(args: argparse.Namespace) -> bool:
    return bool(
        getattr(args, "trace_out", None)
        or getattr(args, "metrics_out", None)
        or getattr(args, "timeseries_out", None)
        or getattr(args, "profile_out", None)
    )


def _enable_telemetry(args: argparse.Namespace) -> bool:
    """Turn the telemetry subsystem on when an export flag was given.

    Must run before any cluster is built: metric handles and tracer sinks
    bind at component construction, and the sampler only attaches to
    clusters built while sampling is on.
    """
    if not _wants_telemetry(args):
        return False
    from repro import obs

    obs.set_enabled(True)
    if getattr(args, "timeseries_out", None):
        from repro.obs import timeseries

        timeseries.set_sampling(True, timeseries.DEFAULT_PERIOD)
    if getattr(args, "profile_out", None):
        from repro.obs import profile

        profile.set_profiling(True)
    return True


def _export_telemetry(args: argparse.Namespace) -> None:
    from repro.obs.export import write_outputs

    for path in write_outputs(
        args.trace_out,
        args.metrics_out,
        getattr(args, "timeseries_out", None),
        getattr(args, "profile_out", None),
    ):
        print(f"wrote {path}")


def _cmd_deploy(args: argparse.Namespace) -> int:
    from repro.measure.experiment import ExperimentRunner

    telemetry = _enable_telemetry(args)
    m = ExperimentRunner(seed=args.seed).run(
        args.config, args.count, nodes=args.nodes
    )
    print(f"config:            {m.config}")
    print(f"containers:        {m.count} (ready: {m.ready_fraction:.0%})")
    print(f"memory (metrics):  {m.metrics_mib:.2f} MiB/container")
    print(f"memory (free):     {m.free_mib:.2f} MiB/container")
    print(f"startup makespan:  {m.startup_seconds:.2f} s")
    if m.nodes > 1:
        print(f"fleet:             {m.nodes} nodes "
              f"({m.throughput:.1f} pods/s)")
        for u in m.per_node:
            print(
                f"  {u.name:12s} pods={u.pods:<5d} "
                f"ws={u.working_set_bytes / (1024 * 1024):8.1f} MiB  "
                f"warm/cold={u.warm_starts}/{u.cold_starts}"
            )
    if args.phases:
        print("phase means:")
        for phase, seconds in sorted(m.phase_means.items()):
            print(f"  {phase:22s} {seconds * 1000:8.1f} ms")
    if telemetry:
        _export_telemetry(args)
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.measure.recovery import render_recovery, run_recovery
    from repro.sim.faults import transient_plan

    telemetry = _enable_telemetry(args)
    plan = transient_plan(
        seed=args.seed,
        pull_probability=args.pull_probability,
        compile_probability=args.compile_probability,
    )
    m = run_recovery(
        config=args.config, count=args.count, seed=args.seed, plan=plan
    )
    print(render_recovery(m))
    if telemetry:
        _export_telemetry(args)
    return 0 if m.converged and m.failed_pods == 0 else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.measure.chaos import render_chaos, run_chaos

    telemetry = _enable_telemetry(args)
    m = run_chaos(
        config=args.config,
        count=args.count,
        seed=args.seed,
        rate=args.rate,
    )
    print(render_chaos(m))
    if args.bench_out:
        payload = json.dumps(m.to_dict(), indent=2, sort_keys=True)
        pathlib.Path(args.bench_out).write_text(payload + "\n")
        print(f"wrote {args.bench_out}")
    if telemetry:
        _export_telemetry(args)
    return 0 if m.all_hold() else 1


def _cmd_zygote(args: argparse.Namespace) -> int:
    from repro.measure.zygote import render_zygote, run_zygote_experiment

    telemetry = _enable_telemetry(args)
    comp = run_zygote_experiment(seed=args.seed, count=args.count)
    print(render_zygote(comp))
    if telemetry:
        _export_telemetry(args)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.measure.campaign import render_campaign, run_campaign

    telemetry = _enable_telemetry(args)
    cache = _series_cache(args)
    if telemetry and cache is not None:
        # Cache hits skip simulation — and with it the telemetry the
        # export is supposed to capture. Worker telemetry itself merges
        # back deterministically at any --jobs N.
        print("telemetry export: bypassing the measurement cache")
        cache = None
    result = run_campaign(
        seed=args.seed,
        jobs=args.jobs,
        cache=cache,
        manifest=args.manifest,
        nodes=args.nodes,
    )
    print(render_campaign(result))
    if args.nodes != 1:
        # Claim bands are calibrated for the paper's single-node testbed;
        # fleet campaigns beat the startup bands by design, so the
        # verdicts are informational and don't drive the exit code.
        print(f"(claims evaluated informationally at --nodes {args.nodes})")
    if telemetry:
        _export_telemetry(args)
    return 0 if (args.nodes != 1 or result.all_hold()) else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from repro.measure.fleet import (
        render_fleet,
        render_locality,
        run_fleet,
        run_locality_ablation,
    )

    telemetry = _enable_telemetry(args)
    fleets = tuple(args.fleets)
    scaling = run_fleet(
        config=args.config, count=args.count, fleets=fleets, seed=args.seed
    )
    print(render_fleet(scaling))
    ablation = None
    if args.locality:
        ablation = run_locality_ablation(seed=args.seed)
        print()
        print(render_locality(ablation))
    if args.bench_out:
        payload = {
            "config": scaling.config,
            "count": scaling.count,
            "seed": scaling.seed,
            "points": [
                {
                    "nodes": p.nodes,
                    "startup_seconds": p.measurement.startup_seconds,
                    "throughput": p.throughput,
                    "speedup": scaling.speedup(p.nodes),
                    "warm_fraction": p.warm_fraction,
                }
                for p in scaling.points
            ],
        }
        if ablation is not None:
            payload["locality"] = {
                "config": ablation.config,
                "warm_fraction_with": ablation.warm_fraction_with,
                "warm_fraction_without": ablation.warm_fraction_without,
                "warm_gain": ablation.warm_gain,
            }
        pathlib.Path(args.bench_out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.bench_out}")
    if telemetry:
        _export_telemetry(args)
    return 0


def _series_cache(args: argparse.Namespace):
    from repro.measure.cache import MeasurementCache
    from repro.measure.series import DEFAULT_CACHE

    if getattr(args, "no_cache", False):
        return None
    if getattr(args, "cache_dir", None):
        return MeasurementCache(pathlib.Path(args.cache_dir))
    return DEFAULT_CACHE


def _cmd_series(args: argparse.Namespace) -> int:
    from repro.measure.series import (
        SHIPPED_SERIES,
        expand_series,
        run_series,
        validate_spec,
    )

    if args.action == "list":
        for name in sorted(SHIPPED_SERIES):
            cells = expand_series(name)
            spec = validate_spec(name)
            print(
                f"{name:14s} {len(cells):3d} cells  kind={spec.get('kind', 'deploy'):8s} "
                f"{spec.get('description', '')}"
            )
        return 0

    if args.action == "validate":
        names = args.names or sorted(SHIPPED_SERIES)
        for name in names:
            cells = expand_series(name)
            keys = [cell.key for cell in cells]
            if len(set(keys)) != len(keys):
                print(f"{name}: duplicate cells after expansion", file=sys.stderr)
                return 2
            print(f"{name}: ok ({len(cells)} cells)")
        return 0

    # run
    if not args.names:
        print("series run: name required (see `repro series list`)", file=sys.stderr)
        return 2
    telemetry = _enable_telemetry(args)
    cache = _series_cache(args)
    if telemetry and cache is not None:
        print("telemetry export: bypassing the measurement cache")
        cache = None
    exit_code = 0
    for name in args.names:
        result = run_series(
            name,
            seed=args.seed,
            jobs=args.jobs,
            cache=cache,
            manifest=args.manifest,
            on_cell=lambda cell, _m: print(f"  done {cell.key}"),
        )
        fresh = len(result.results) - len(result.resumed)
        print(
            f"{name}: {len(result.results)}/{len(result.cells)} cells "
            f"({len(result.resumed)} from cache, {fresh} simulated)"
        )
        for cell in result.cells:
            m = result.results.get(cell.key)
            if cell.kind == "deploy" and m is not None:
                print(
                    f"  {cell.key:42s} mem={m.metrics_mib:8.2f} MiB  "
                    f"startup={m.startup_seconds:7.2f} s"
                )
        for cell in result.cells:
            m = result.results.get(cell.key)
            ok = getattr(m, "converged", None)
            if ok is False or getattr(m, "all_hold", lambda: True)() is False:
                exit_code = 1
    if telemetry:
        _export_telemetry(args)
    return exit_code


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.obs.export import (
        load_trace_events,
        render_breakdown,
        render_metrics,
        render_node_breakdown,
        render_wasi,
    )

    if args.trace is None and not ((args.wasi or args.nodes) and args.metrics):
        print(
            "inspect: a trace file is required unless --wasi or --nodes "
            "is used with --metrics",
            file=sys.stderr,
        )
        return 2
    first = True
    if args.trace is not None:
        records = load_trace_events(pathlib.Path(args.trace))
        print(
            render_breakdown(
                records, category=args.category, top=args.top, sort=args.sort
            )
        )
        first = False
    if args.wasi:
        text = pathlib.Path(args.metrics).read_text()
        if not first:
            print()
        print(render_wasi(text, top=args.top, sort=args.sort))
        first = False
    if args.nodes:
        text = pathlib.Path(args.metrics).read_text()
        if not first:
            print()
        print(render_node_breakdown(text))
        first = False
    if args.metrics and not (args.wasi or args.nodes):
        text = pathlib.Path(args.metrics).read_text()
        if not first:
            print()
        print(render_metrics(text, prefix=args.metrics_prefix))
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.obs.export import parse_timeseries_jsonl, render_dashboard

    records = parse_timeseries_jsonl(pathlib.Path(args.timeseries).read_text())
    print(render_dashboard(records, series=args.series, width=args.width))
    return 0


_FIGURES = {
    "table1": ("table1_software_stack", "render_table1"),
    "table2": ("table2_experiments_overview", "render_table2"),
    "fig3": ("fig3_crun_memory_metrics", "render_series"),
    "fig4": ("fig4_crun_memory_free", "render_series"),
    "fig5": ("fig5_runwasi_memory_free", "render_series"),
    "fig6": ("fig6_python_memory_metrics", "render_series"),
    "fig7": ("fig7_python_memory_free", "render_series"),
    "fig8": ("fig8_startup_10", "render_series"),
    "fig9": ("fig9_startup_400", "render_series"),
    "fig10": ("fig10_overview", "render_series"),
}


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.measure import figures as figmod
    from repro.measure import report as repmod

    targets = args.ids or list(_FIGURES)
    for fig_id in targets:
        if fig_id not in _FIGURES:
            print(f"unknown figure {fig_id!r}; known: {', '.join(_FIGURES)}",
                  file=sys.stderr)
            return 2
        gen_name, render_name = _FIGURES[fig_id]
        generator = getattr(figmod, gen_name)
        renderer = getattr(repmod, render_name)
        data = (
            generator()
            if fig_id.startswith("table")
            else generator(seed=args.seed, jobs=args.jobs)
        )
        print(renderer(data))
        print()
    return 0


def _add_telemetry_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="export spans: Chrome trace-event JSON (Perfetto-loadable), "
             "or JSONL when FILE ends in .jsonl",
    )
    p.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="export metrics in Prometheus text exposition format",
    )
    p.add_argument(
        "--timeseries-out", default=None, metavar="FILE",
        help="run the sim-clock sampler + SLO/alert engine and export "
             "the time-series database as JSONL (see `repro monitor`)",
    )
    p.add_argument(
        "--profile-out", default=None, metavar="FILE",
        help="export the per-function interpreter profile as "
             "collapsed stacks (flamegraph.pl-compatible)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Memory Efficient WebAssembly Containers — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wat2wasm", help="assemble WAT text to a binary module")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.add_argument("--no-validate", action="store_true")
    p.set_defaults(func=_cmd_wat2wasm)

    p = sub.add_parser("wasm2wat", help="disassemble a binary module to WAT")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_wasm2wat)

    p = sub.add_parser("cc", help="compile mini-C source to a wasm module")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_cc)

    p = sub.add_parser("validate", help="validate a .wasm or .wat module")
    p.add_argument("input")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("run", help="run a module under WASI")
    p.add_argument("input", help=".wasm or .wat file")
    p.add_argument("args", nargs="*", help="guest argv[1:]")
    p.add_argument("--env", action="append", metavar="K=V")
    p.add_argument("--fuel", type=int, default=None)
    p.add_argument("--stats", action="store_true")
    p.add_argument(
        "--profile-out", default=None, metavar="FILE",
        help="write the guest's per-function self-time profile as "
             "collapsed stacks (flamegraph.pl-compatible)",
    )
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("deploy", help="run a deployment experiment")
    p.add_argument("--config", default="crun-wamr")
    p.add_argument("-n", "--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--nodes", type=int, default=1,
        help="fleet size to shard the deployment across (default: 1, "
             "the paper's single-node testbed)",
    )
    p.add_argument("--phases", action="store_true", help="show phase breakdown")
    _add_telemetry_flags(p)
    p.set_defaults(func=_cmd_deploy)

    p = sub.add_parser("recover", help="run a fault-injection recovery experiment")
    p.add_argument("--config", default="crun-wamr")
    p.add_argument("-n", "--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pull-probability", type=float, default=0.3)
    p.add_argument("--compile-probability", type=float, default=0.3)
    _add_telemetry_flags(p)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser(
        "chaos", help="run the full-lifecycle chaos campaign with invariants"
    )
    p.add_argument("--config", default="crun-wamr")
    p.add_argument("-n", "--count", type=int, default=400)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--rate", type=float, default=0.25,
        help="per-attempt firing probability at every armed point",
    )
    p.add_argument(
        "--bench-out", default=None, metavar="FILE",
        help="write the measurement (invariants, recovery percentiles) as JSON",
    )
    _add_telemetry_flags(p)
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser("zygote", help="run the zygote warm-start comparison")
    p.add_argument("-n", "--count", type=int, default=400)
    p.add_argument("--seed", type=int, default=1)
    _add_telemetry_flags(p)
    p.set_defaults(func=_cmd_zygote)

    p = sub.add_parser("campaign", help="run the full §IV campaign and summary")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "-j", "--jobs", type=int, default=0,
        help="experiment worker processes (0 = auto-detect CPU count)",
    )
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="measurement cache directory (default: $REPRO_MEASURE_CACHE "
             "or <repo>/.repro-cache/measurements)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="simulate every experiment even if cached",
    )
    p.add_argument(
        "--manifest", default=None, metavar="FILE",
        help="series manifest: checkpoint per completed cell; an "
             "interrupted campaign re-run resumes from it",
    )
    p.add_argument(
        "--nodes", type=int, default=1,
        help="fan every experiment out across a simulated N-node fleet "
             "(claim thresholds are calibrated for --nodes 1)",
    )
    _add_telemetry_flags(p)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "fleet",
        help="multi-node scaling sweep and zygote-locality ablation",
    )
    p.add_argument("--config", default="crun-wamr")
    p.add_argument("-n", "--count", type=int, default=400)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--fleets", type=int, nargs="+", default=[1, 2, 4, 8], metavar="N",
        help="fleet sizes to sweep (default: 1 2 4 8)",
    )
    p.add_argument(
        "--locality", action="store_true",
        help="also run the snapshot-locality ablation (warm-start "
             "fraction with vs without the placement bonus)",
    )
    p.add_argument(
        "--bench-out", default=None, metavar="FILE",
        help="write the scaling points (and ablation) as JSON",
    )
    _add_telemetry_flags(p)
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser(
        "series",
        help="declarative experiment series: list, validate, or run them",
    )
    p.add_argument(
        "action", choices=("list", "validate", "run"),
        help="list shipped series, expand+validate specs, or execute",
    )
    p.add_argument("names", nargs="*", metavar="NAME", help="series names")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="experiment worker processes (0 = auto-detect CPU count)",
    )
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="measurement cache directory",
    )
    p.add_argument("--no-cache", action="store_true")
    p.add_argument(
        "--manifest", default=None, metavar="FILE",
        help="checkpoint per completed cell for resumable runs",
    )
    _add_telemetry_flags(p)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser(
        "inspect", help="per-phase/per-layer breakdown of an exported trace"
    )
    p.add_argument(
        "trace", nargs="?", default=None,
        help="trace file from --trace-out (.json or .jsonl); optional "
             "with --wasi --metrics",
    )
    p.add_argument(
        "--category", default=None, metavar="PREFIX",
        help="only spans whose category starts with PREFIX (e.g. 'startup')",
    )
    p.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="also render a Prometheus export from --metrics-out "
             "(engine-cache, zygote and specialization-pass families "
             "and the rest)",
    )
    p.add_argument(
        "--metrics-prefix", default=None, metavar="PREFIX",
        help="only metric families starting with PREFIX "
             "(e.g. 'repro_specialize')",
    )
    p.add_argument(
        "--wasi", action="store_true",
        help="render the eWAPA-style per-hostcall latency table from "
             "the --metrics file instead of the raw metric dump",
    )
    p.add_argument(
        "--nodes", action="store_true",
        help="render the per-node fleet breakdown (placements, working "
             "set, warm/cold starts, evictions) from the --metrics file",
    )
    p.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="keep only the N heaviest rows (span categories / hostcalls)",
    )
    p.add_argument(
        "--sort", choices=("total", "count", "mean"), default="total",
        help="row ranking metric (default: total)",
    )
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser(
        "monitor", help="ASCII dashboard over a --timeseries-out export"
    )
    p.add_argument("timeseries", help="JSONL file from --timeseries-out")
    p.add_argument(
        "--series", default=None, metavar="PREFIX",
        help="series name prefix to plot (default: repro_monitor_)",
    )
    p.add_argument(
        "--width", type=int, default=60, metavar="N",
        help="sparkline width in characters (default: 60)",
    )
    p.set_defaults(func=_cmd_monitor)

    p = sub.add_parser("figures", help="regenerate paper tables/figures")
    p.add_argument("ids", nargs="*", metavar="FIG", help="e.g. fig3 fig9 (default: all)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="fan the figure cells over worker processes "
             "(0 = auto-detect CPU count)",
    )
    p.set_defaults(func=_cmd_figures)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
