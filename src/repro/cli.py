"""Command-line interface: ``repro <subcommand>``.

Subcommands
-----------
``stats``
    Print Table-1-style statistics of a (scaled) dataset.
``run``
    Run one (dataset, workload, system) experiment and print metrics;
    ``--workload`` names a :mod:`repro.workloads` registry entry and
    ``--memory-mode`` picks the engine's vertex-state placement.
``figure``
    Regenerate a table/figure of the paper (``repro figure figure11``).
``requirements``
    Print Equation 6's external-memory requirements for a link.
``sweep``
    Run a declarative sweep from a YAML ``ExperimentSpec`` file
    (``repro sweep --config examples/sweep_config.yaml``); specs
    support ``extend:`` chaining and ``--set`` dotted overrides
    (docs/SCALING.md).
``chase``
    Run the pointer-chase latency microbenchmark for a target.
``lint``
    Run the simulation-correctness linter (``repro lint src/``).
``profile``
    Run a traced traversal on the functional engine and print the top
    spans by inclusive time (``repro profile --workload bfs``).
``bench``
    Run the benchmark harness and write ``BENCH_<family>.json`` files
    (``repro bench --families des traversal``); ``--compare A B`` diffs
    two result files and ``--check BASE CAND`` applies the regression
    gate (see ``docs/PERFORMANCE.md``).

``run`` and ``profile`` accept ``--trace PATH`` to write the collected
telemetry as JSON-lines (``--trace-format jsonl``) or a Chrome
trace-event file loadable in Perfetto (``--trace-format chrome``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import figures, systems
from .core.experiment import run_experiment
from .core.report import format_table
from .engine.engine import MEMORY_MODES
from .errors import ReproError
from .exec.spec import KNOWN_ALGORITHMS
from .graph.datasets import DEFAULT_SCALE, load_dataset
from .interconnect.pcie import PCIeLink
from .units import USEC, to_usec

__all__ = ["main", "build_parser"]

def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'GPU Graph Processing on CXL-Based "
            "Microsecond-Latency External Memory' (SC-W 2023)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="dataset statistics (Table 1)")
    _add_dataset_args(stats)

    run = sub.add_parser("run", help="run one experiment")
    _add_dataset_args(run)
    run.add_argument(
        "--workload", default="bfs", choices=list(KNOWN_ALGORITHMS),
        help="workload registry name (repro.workloads)",
    )
    run.add_argument(
        "--memory-mode", default="semi-external",
        choices=list(MEMORY_MODES),
        help="engine vertex-state placement; fully-external also runs "
        "the functional engine and reports the extra fetched bytes",
    )
    run.add_argument(
        "--system",
        default="emogi",
        choices=systems.available(),
        help="system configuration to price the workload on",
    )
    run.add_argument(
        "--link", default=None, choices=["gen3", "gen4", "gen5"],
        help="PCIe link generation (default: gen4; gen3 for cxl)",
    )
    run.add_argument(
        "--added-latency-us", type=float, default=0.0,
        help="CXL latency bridge setting (cxl system only)",
    )
    run.add_argument(
        "--alignment", type=int, default=16, help="alignment (xlfdd system only)"
    )
    _add_trace_args(run)

    figure = sub.add_parser("figure", help="regenerate a paper table/figure")
    figure.add_argument("name", choices=sorted(figures.ALL_FIGURES))
    figure.add_argument("--scale", type=int, default=None)
    figure.add_argument("--seed", type=int, default=0)
    figure.add_argument(
        "--plot", action="store_true",
        help="also render the series as an ASCII chart",
    )
    figure.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the rows to PATH (.csv / .json / .txt)",
    )

    req = sub.add_parser("requirements", help="Equation 6 requirements")
    req.add_argument("--link", default="gen4", choices=["gen3", "gen4", "gen5"])
    req.add_argument(
        "--transfer-bytes", type=float, default=89.6,
        help="average transfer size d (default d_EMOGI)",
    )

    evaluate = sub.add_parser(
        "evaluate", help="run the full evaluation matrix (Figures 6 + 11)"
    )
    evaluate.add_argument("--scale", type=int, default=13)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the paper's headline claims hold",
    )

    sweep = sub.add_parser(
        "sweep",
        help="run a declarative sweep from a YAML spec (docs/SCALING.md)",
    )
    sweep.add_argument(
        "--config", required=True, metavar="PATH",
        help="YAML ExperimentSpec with a sweep: section "
        "(supports extend: chaining; see examples/sweep_config.yaml)",
    )
    sweep.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        dest="overrides",
        help="dotted-path spec override, e.g. --set graph.scale=12 "
        "(repeatable; applied after the file's extend: chain)",
    )
    sweep.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the sweep result as canonical JSON",
    )

    chase = sub.add_parser("chase", help="pointer-chase latency microbenchmark")
    chase.add_argument(
        "--target", default="dram1",
        choices=["dram0", "dram1", "cxl0", "cxl3"],
    )
    chase.add_argument("--added-latency-us", type=float, default=0.0)
    chase.add_argument("--hops", type=int, default=256)

    lint = sub.add_parser(
        "lint", help="simulation-correctness linter (docs/ANALYSIS.md)"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format", default="text", choices=["text", "json"],
        dest="output_format", help="report format",
    )
    lint.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    lint.add_argument(
        "--show-suppressed", action="store_true",
        help="include suppressed findings in the text report",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )

    bench = sub.add_parser(
        "bench",
        help="benchmark harness: run families, compare runs, gate regressions",
    )
    bench.add_argument(
        "--families", nargs="*", default=None, metavar="FAMILY",
        help="benchmark families to run (default: all); see --list",
    )
    bench.add_argument(
        "--out-dir", default="bench_results", metavar="DIR",
        help="directory for BENCH_<family>.json files (default: bench_results)",
    )
    bench.add_argument(
        "--repeats", type=int, default=3, metavar="N",
        help="timed runs per benchmark (default 3; best is reported)",
    )
    bench.add_argument(
        "--warmup", type=int, default=1, metavar="N",
        help="untimed warmup runs per benchmark (default 1)",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="smaller inputs (CI-sized); recorded in the payload config",
    )
    bench.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="print the scenario catalogue and exit",
    )
    bench.add_argument(
        "--compare", nargs=2, default=None, metavar=("BASE", "CAND"),
        help="diff two BENCH_*.json files (per-benchmark delta table)",
    )
    bench.add_argument(
        "--check", nargs=2, default=None, metavar=("BASE", "CAND"),
        help="like --compare but exit 1 on regression beyond the threshold",
    )
    bench.add_argument(
        "--threshold", type=float, default=None, metavar="X",
        help="regression gate threshold as a fraction (default 0.15)",
    )
    bench.add_argument(
        "--metric", default="normalized", choices=["normalized", "raw"],
        help="compare machine-normalized times (default) or raw seconds",
    )
    bench.add_argument(
        "--allow-new", action="store_true",
        help="with --check: pass when the baseline file is missing "
        "(a newly added family has no committed baseline yet); "
        "--compare always tolerates a missing baseline",
    )

    profile = sub.add_parser(
        "profile",
        help="traced traversal on the functional engine; top spans by time",
    )
    _add_dataset_args(profile)
    profile.add_argument(
        "--workload", default="bfs", choices=list(KNOWN_ALGORITHMS),
        help="workload registry name (repro.workloads)",
    )
    profile.add_argument(
        "--memory-mode", default="semi-external",
        choices=list(MEMORY_MODES),
        help="engine vertex-state placement",
    )
    profile.add_argument(
        "--system",
        default="xlfdd",
        choices=systems.available(),
        help="system whose access discipline backs the engine",
    )
    profile.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="span names to show (default 10)",
    )
    profile.add_argument(
        "--flamegraph", action="store_true",
        help="also print collapsed flamegraph stacks",
    )
    _add_trace_args(profile)
    return parser


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="collect telemetry and write it to PATH",
    )
    parser.add_argument(
        "--trace-format", default="chrome", choices=["jsonl", "chrome"],
        help="trace file format: JSON-lines or Chrome trace events "
        "(Perfetto-loadable; default)",
    )


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", default="urand", choices=["urand", "kron", "friendster"]
    )
    parser.add_argument("--scale", type=int, default=DEFAULT_SCALE)
    parser.add_argument("--seed", type=int, default=0)


def _cmd_stats(args: argparse.Namespace) -> str:
    from .graph.stats import graph_stats

    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    return format_table([graph_stats(graph).as_dict()], title="dataset statistics")


def _system_from_args(args: argparse.Namespace):
    """Build the requested system via the registry, applying CLI knobs."""
    link_name = args.link or ("gen3" if args.system == "cxl" else "gen4")
    link = PCIeLink.from_name(link_name)
    kwargs: dict[str, object] = {}
    if args.system == "xlfdd":
        kwargs["alignment_bytes"] = args.alignment
    if args.system == "cxl":
        kwargs["added_latency"] = args.added_latency_us * USEC
    return systems.get(args.system, link, **kwargs)


def _write_trace(tracer, args: argparse.Namespace) -> str:
    """Write the tracer's records to ``args.trace`` in the chosen format."""
    from .telemetry.export import write_chrome_trace, write_jsonl

    if args.trace_format == "chrome":
        path = write_chrome_trace(tracer.records, args.trace)
    else:
        path = write_jsonl(tracer.records, args.trace)
    return (
        f"trace written to {path} "
        f"({len(tracer.records)} records, {args.trace_format})"
    )


def _cmd_run(args: argparse.Namespace) -> str:
    from .telemetry.tracer import NULL_TRACER, Tracer, use_tracer

    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    system = _system_from_args(args)
    tracer = Tracer() if args.trace else NULL_TRACER
    with use_tracer(tracer):
        output = _run_experiment_body(args, graph, system)
    if args.trace:
        output += "\n" + _write_trace(tracer, args)
    return output


def _run_experiment_body(args: argparse.Namespace, graph, system) -> str:
    result = run_experiment(graph, args.workload, system)
    output = format_table([result.as_row()], title=system.describe())
    if args.memory_mode != "semi-external":
        from . import workloads

        workload = workloads.get(args.workload)
        graph = workload.prepare(graph)
        semi = workload.run(
            workloads.build_engine(graph, system, memory_mode="semi-external")
        )
        fully = workload.run(
            workloads.build_engine(graph, system, memory_mode=args.memory_mode)
        )
        ratio = (
            fully.stats.fetched_bytes / semi.stats.fetched_bytes
            if semi.stats.fetched_bytes
            else 1.0
        )
        output += (
            f"\nmemory mode {args.memory_mode}: "
            f"{fully.stats.fetched_bytes:,} B fetched vs "
            f"{semi.stats.fetched_bytes:,} B semi-external "
            f"({ratio:.3f}x)"
        )
    return output


def _cmd_figure(args: argparse.Namespace) -> str:
    kwargs = {"seed": args.seed} if args.seed is not None else {}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    fn = figures.ALL_FIGURES[args.name]
    # Figures 9/10 and the requirements table are scale/seed-independent.
    import inspect

    accepted = inspect.signature(fn).parameters
    kwargs = {k: v for k, v in kwargs.items() if k in accepted}
    result = fn(**kwargs)
    parts = [result.render()]
    if args.plot:
        parts.append("")
        parts.append(figures.plot_figure(result))
    if args.output:
        from .core.export import save_rows

        path = save_rows(result.rows, args.output)
        parts.append(f"rows written to {path}")
    return "\n".join(parts)


def _cmd_requirements(args: argparse.Namespace) -> str:
    from .core.requirements import requirements_for

    link = PCIeLink.from_name(args.link)
    req = requirements_for(link, transfer_bytes=args.transfer_bytes)
    return req.describe()


def _cmd_chase(args: argparse.Namespace) -> str:
    from .config import AGILEX_CHANNEL_BANDWIDTH, CXL_BASE_ADDED_LATENCY
    from .interconnect.topology import paper_topology
    from .sim.des import DESConfig
    from .sim.pointer_chase import pointer_chase_latency
    from .units import MB_PER_S

    topology = paper_topology()
    device_added = (
        CXL_BASE_ADDED_LATENCY + args.added_latency_us * USEC
        if args.target.startswith("cxl")
        else args.added_latency_us * USEC
    )
    latency = topology.path_latency(args.target, device_added)
    config = DESConfig(
        link_bandwidth=12_000 * MB_PER_S,
        latency=latency,
        device_iops=AGILEX_CHANNEL_BANDWIDTH / 64,
        device_internal_bandwidth=AGILEX_CHANNEL_BANDWIDTH,
    )
    result = pointer_chase_latency(config, hops=args.hops)
    return (
        f"{args.target}: {to_usec(result.latency):.2f} us over "
        f"{result.hops} dependent reads"
    )


def _parse_override_value(text: str):
    """``--set`` values: JSON scalars where they parse, strings otherwise."""
    import json

    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _cmd_sweep(args: argparse.Namespace) -> str:
    from .core.sweep import run_sweep
    from .errors import SpecError
    from .exec.yamlspec import load_spec

    loaded = load_spec(args.config)
    if loaded.sweep is None:
        raise SpecError(
            f"{args.config} has no sweep: section; declare sweep.axes "
            "(see examples/sweep_config.yaml)"
        )
    spec = loaded.spec
    overrides = {}
    for entry in args.overrides:
        key, sep, value = entry.partition("=")
        if not sep or not key:
            raise SpecError(
                f"--set expects KEY=VALUE with a dotted key, got {entry!r}"
            )
        overrides[key.strip()] = _parse_override_value(value)
    if overrides:
        spec = spec.with_overrides(overrides)
    result = run_sweep(spec, loaded.sweep)
    rows = []
    for row in result.rows:
        out_row = dict(row["overrides"])
        out_row["runtime_s"] = row["runtime"]
        if "normalized_runtime" in row:
            out_row["normalized_runtime"] = row["normalized_runtime"]
        out_row["system"] = row["system"]
        out_row["bound"] = row["bound"]
        rows.append(out_row)
    parts = [
        format_table(
            rows,
            title=f"sweep: {result.spec.graph.dataset}/"
            f"{result.spec.algorithm} over {' x '.join(result.axes)} "
            f"({len(rows)} points)",
        )
    ]
    if args.out:
        from pathlib import Path

        from .bench.schema import canonical_json

        Path(args.out).write_text(
            canonical_json(result.as_dict()), encoding="utf-8"
        )
        parts.append(f"wrote {args.out}")
    return "\n".join(parts)


def _cmd_evaluate(args: argparse.Namespace) -> tuple[str, int]:
    from .core.suite import run_evaluation

    report = run_evaluation(scale=args.scale, seed=args.seed)
    output = report.render()
    if not args.check:
        return output, 0
    checks = report.headline_checks()
    lines = [
        f"  [{'ok' if passed else 'FAIL'}] {name}"
        for name, passed in checks.items()
    ]
    output += "\nheadline checks:\n" + "\n".join(lines)
    return output, 0 if all(checks.values()) else 1


def _cmd_lint(args: argparse.Namespace) -> tuple[str, int]:
    from pathlib import Path

    from .analysis.core import all_rules
    from .analysis.driver import lint_paths
    from .analysis.reporters import render_json, render_text

    if args.list_rules:
        lines = [f"{rule.id}  {rule.title}\n    {rule.rationale}" for rule in all_rules()]
        return "\n".join(lines), 0
    result = lint_paths(args.paths)
    if args.output_format == "json":
        report = render_json(result)
    else:
        report = render_text(result, show_suppressed=args.show_suppressed)
    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
        report = f"report written to {args.output}"
    return report, result.exit_code


def _cmd_profile(args: argparse.Namespace) -> str:
    from . import workloads
    from .core.experiment import default_source
    from .telemetry.export import render_flamegraph, render_profile
    from .telemetry.tracer import Tracer, use_tracer

    workload = workloads.get(args.workload)
    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    system = systems.get(args.system)
    graph = workload.prepare(graph)
    tracer = Tracer()
    with use_tracer(tracer):
        engine = workloads.build_engine(
            graph, system, memory_mode=args.memory_mode
        )
        run = workload.run(engine, default_source(graph))
    parts = [
        f"{workload.name} on {graph.name} via {system.name} "
        f"({args.memory_mode}): "
        f"{run.steps} steps, {run.stats.fetched_bytes:,} B fetched "
        f"(RAF {run.stats.read_amplification:.2f})",
        "",
        render_profile(tracer.records, top=args.top),
    ]
    if args.flamegraph:
        parts += ["", render_flamegraph(tracer.records)]
    if args.trace:
        parts.append(_write_trace(tracer, args))
    return "\n".join(parts)


def _cmd_bench(args: argparse.Namespace) -> tuple[str, int]:
    from pathlib import Path

    from .bench.compare import (
        baseline_missing_rows,
        check_regression,
        compare_results,
        load_result,
        render_comparison,
    )
    from .bench.runner import run_benchmarks
    from .bench.scenarios import scenario_catalog

    if args.list_scenarios:
        return format_table(scenario_catalog(), title="benchmark scenarios"), 0
    if args.compare and args.check:
        return "error: --compare and --check are mutually exclusive", 2
    if args.compare:
        base_path, cand_path = args.compare
        if not Path(base_path).is_file():
            cand = load_result(cand_path)
            rows = baseline_missing_rows(cand, metric=args.metric)
            title = (
                f"{cand['family']}: {base_path} (missing baseline) vs "
                f"{cand_path} ({args.metric})"
            )
            output = render_comparison(rows, title=title)
            output += (
                "\nbaseline not found: all candidate benchmarks reported "
                "as new"
            )
            return output, 0
        base, cand = (load_result(p) for p in args.compare)
        rows = compare_results(base, cand, metric=args.metric)
        title = (
            f"{base['family']}: {args.compare[0]} vs {args.compare[1]} "
            f"({args.metric})"
        )
        return render_comparison(rows, title=title), 0
    if args.check:
        base_path, cand_path = args.check
        if not Path(base_path).is_file():
            # The gate stays strict by default: a vanished baseline must
            # not silently pass.  --allow-new opts a new family in.
            cand = load_result(cand_path)
            rows = baseline_missing_rows(cand, metric=args.metric)
            title = (
                f"{cand['family']} regression gate: {base_path} "
                f"(missing baseline) vs {cand_path} ({args.metric})"
            )
            output = render_comparison(rows, title=title)
            if args.allow_new:
                output += (
                    "\ngate passed: no baseline for this family yet "
                    "(--allow-new)"
                )
                return output, 0
            output += (
                f"\nGATE FAILED: baseline {base_path} not found; pass "
                "--allow-new if this family is newly added"
            )
            return output, 1
        base, cand = (load_result(p) for p in args.check)
        ok, rows = check_regression(
            base, cand, threshold=args.threshold, metric=args.metric
        )
        title = (
            f"{base['family']} regression gate: {args.check[0]} vs "
            f"{args.check[1]} ({args.metric})"
        )
        output = render_comparison(rows, title=title)
        if ok:
            output += "\ngate passed: no benchmark regressed beyond the threshold"
        else:
            output += (
                "\nGATE FAILED: regression beyond the threshold or "
                "verify mismatch (see rows)"
            )
        return output, 0 if ok else 1
    paths = run_benchmarks(
        args.families,
        out_dir=args.out_dir,
        quick=args.quick,
        warmup=args.warmup,
        repeats=args.repeats,
    )
    return "\n".join(f"wrote {p}" for p in paths), 0


_COMMANDS = {
    "stats": _cmd_stats,
    "run": _cmd_run,
    "figure": _cmd_figure,
    "requirements": _cmd_requirements,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "chase": _cmd_chase,
    "lint": _cmd_lint,
    "profile": _cmd_profile,
    "bench": _cmd_bench,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    code = 0
    if isinstance(output, tuple):
        output, code = output
    print(output)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
