"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [[], ["serve"], ["plan", "--surface", "s.json"]],
    ids=["no-command", "serve", "plan"],
)
def test_parser_requires_subcommand(argv):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)


def test_stats(capsys):
    code, out, _ = run_cli(capsys, "stats", "--dataset", "urand", "--scale", "10")
    assert code == 0
    assert "avg_degree" in out


def test_run_emogi(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--dataset", "urand", "--scale", "10", "--system", "emogi"
    )
    assert code == 0
    assert "emogi-dram" in out
    assert "runtime_s" in out


def test_run_cxl_with_latency(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "--dataset", "urand", "--scale", "10",
        "--system", "cxl", "--added-latency-us", "2",
    )
    assert code == 0
    assert "cxl+2us" in out
    assert "gen3" in out  # CXL defaults to the paper's Gen3 link


def test_run_xlfdd_alignment(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "--dataset", "urand", "--scale", "10",
        "--system", "xlfdd", "--alignment", "64",
    )
    assert code == 0
    assert "xlfdd-64B" in out


def test_figure_scale_independent(capsys):
    code, out, _ = run_cli(capsys, "figure", "figure10")
    assert code == 0
    assert "5,700" in out


def test_figure_with_scale(capsys):
    code, out, _ = run_cli(capsys, "figure", "table2", "--scale", "10")
    assert code == 0
    assert "depth" in out


def test_figure_unknown_name_rejected_by_parser():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure", "figure42"])


def test_requirements(capsys):
    code, out, _ = run_cli(capsys, "requirements", "--link", "gen3")
    assert code == 0
    assert "133.93 MIOPS" in out
    assert "1.91 us" in out


def test_requirements_custom_transfer(capsys):
    code, out, _ = run_cli(
        capsys, "requirements", "--link", "gen4", "--transfer-bytes", "256"
    )
    assert code == 0
    assert "93.75 MIOPS" in out


def test_requirements_invalid_transfer_is_clean_error(capsys):
    code, out, err = run_cli(
        capsys, "requirements", "--transfer-bytes", "-5"
    )
    assert code == 1
    assert "error:" in err


def test_chase_dram(capsys):
    code, out, _ = run_cli(capsys, "chase", "--target", "dram1", "--hops", "8")
    assert code == 0
    assert "1.2" in out


def test_chase_cxl_with_added_latency(capsys):
    code, out, _ = run_cli(
        capsys, "chase", "--target", "cxl3", "--added-latency-us", "3", "--hops", "8"
    )
    assert code == 0
    assert "4.7" in out


def test_evaluate_small_scale(capsys):
    code, out, _ = run_cli(capsys, "evaluate", "--scale", "11", "--check")
    assert code == 0
    assert "Figure 6 matrix" in out
    assert "[ok]" in out
    assert "FAIL" not in out


def test_figure_plot_flag(capsys):
    code, out, _ = run_cli(capsys, "figure", "figure10", "--plot")
    assert code == 0
    assert "bandwidth_MBps vertical" in out


def test_figure_output_csv(capsys, tmp_path):
    target = tmp_path / "fig.csv"
    code, out, _ = run_cli(
        capsys, "figure", "figure10", "--output", str(target)
    )
    assert code == 0
    assert target.exists()
    assert target.read_text().startswith("added_latency_us")


def test_run_writes_chrome_trace(capsys, tmp_path):
    import json

    from repro.telemetry import validate_chrome_trace

    target = tmp_path / "run.trace.json"
    code, out, _ = run_cli(
        capsys,
        "run", "--dataset", "urand", "--scale", "10",
        "--system", "xlfdd", "--trace", str(target),
    )
    assert code == 0
    assert "trace written to" in out
    trace = json.loads(target.read_text())
    validate_chrome_trace(trace)
    names = {e["name"] for e in trace["traceEvents"]}
    assert "experiment.run" in names


def test_run_writes_jsonl_trace(capsys, tmp_path):
    import json

    target = tmp_path / "run.jsonl"
    code, out, _ = run_cli(
        capsys,
        "run", "--dataset", "urand", "--scale", "10",
        "--system", "emogi", "--trace", str(target),
        "--trace-format", "jsonl",
    )
    assert code == 0
    records = [json.loads(line) for line in target.read_text().splitlines()]
    assert any(r["name"] == "experiment.run" for r in records)


def test_run_without_trace_flag_writes_nothing(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "run", "--dataset", "urand", "--scale", "10", "--system", "emogi"
    )
    assert code == 0
    assert "trace written" not in out
    assert list(tmp_path.iterdir()) == []


def test_profile_prints_top_spans(capsys):
    code, out, _ = run_cli(
        capsys,
        "profile", "--dataset", "urand", "--scale", "10",
        "--workload", "bfs", "--system", "xlfdd", "--top", "3",
    )
    assert code == 0
    assert "span" in out and "inclusive" in out
    assert "engine.bfs" in out
    assert "engine.step" in out


def test_profile_flamegraph_and_trace(capsys, tmp_path):
    target = tmp_path / "prof.jsonl"
    code, out, _ = run_cli(
        capsys,
        "profile", "--dataset", "urand", "--scale", "10",
        "--workload", "cc", "--system", "bam",
        "--flamegraph", "--trace", str(target), "--trace-format", "jsonl",
    )
    assert code == 0
    assert "engine.cc;engine.step" in out
    assert target.exists()


def test_run_unknown_system_rejected_by_parser(capsys):
    with pytest.raises(SystemExit):
        run_cli(
            capsys,
            "run", "--dataset", "urand", "--scale", "10", "--system", "nvlink",
        )


class TestSweepCommand:
    def _example(self):
        from pathlib import Path

        return str(
            Path(__file__).resolve().parent.parent
            / "examples"
            / "sweep_config.yaml"
        )

    def test_sweep_from_yaml(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        code, out, _ = run_cli(
            capsys,
            "sweep", "--config", self._example(),
            "--set", "graph.scale=10",
            "--out", str(out_path),
        )
        assert code == 0
        assert "normalized_runtime" in out
        assert "9 points" in out
        import json

        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["spec"]["graph"]["scale"] == 10
        assert len(payload["rows"]) == 9

    def test_sweep_missing_section_fails(self, capsys, tmp_path):
        config = tmp_path / "nosweep.yaml"
        config.write_text("algorithm: bfs\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "sweep", "--config", str(config))
        assert code == 1
        assert "no sweep" in err

    def test_sweep_bad_set_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--config", self._example(), "--set", "scale"
        )
        assert code == 1
        assert "KEY=VALUE" in err
