"""Benchmark harness: schema, determinism, golden pinning, CLI, gate.

Three guarantees ride on these tests:

* the emitted ``BENCH_<family>.json`` payloads conform to the schema in
  :mod:`repro.bench.schema` (and malformed payloads are rejected loudly);
* scenario *configurations* are byte-identical across reruns — only the
  measured times may differ — so trajectory comparisons are apples to
  apples;
* the optimized traversal kernels produce bit-identical outputs to the
  pre-optimization implementations: the golden digests below were
  captured on the build immediately *before* the mask-dedupe frontier /
  fused-event DES rewrite (see docs/PERFORMANCE.md) and must never
  change.
"""

import functools
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench import (
    DEFAULT_THRESHOLD,
    KNOWN_FAMILIES,
    SCHEMA_VERSION,
    canonical_json,
    check_regression,
    compare_results,
    gate_threshold,
    load_result,
    prepare_family,
    render_comparison,
    run_family,
    run_scenario,
    scenario_catalog,
    validate_payload,
)
from repro.cli import main
from repro.errors import BenchError

# ---------------------------------------------------------------------------
# Golden digests: captured from the pre-optimization build (quick-mode
# scenarios, 2^14-vertex urand graph, seed 1).  The optimized kernels must
# reproduce them bit for bit.
# ---------------------------------------------------------------------------
GOLDEN_QUICK_DIGESTS = {
    "bfs": "6d0dabe540ed0235",
    "sssp": "43715be1cbcd4197",
    "cc": "73af72eb92c5040b",
}


def minimal_payload(**overrides):
    """A small but fully valid payload for schema tests."""
    payload = {
        "schema": SCHEMA_VERSION,
        "family": "des",
        "config": {"quick": True, "repeats": 2, "warmup": 0},
        "machine": {
            "python": "3.11.0",
            "numpy": "1.26.0",
            "platform": "test",
            "cpu_count": 4,
            "calibration_s": 0.01,
        },
        "benchmarks": [
            {
                "name": "des_step_mixed",
                "family": "des",
                "params": {"requests": 10},
                "times_s": [0.02, 0.03],
                "best_s": 0.02,
                "mean_s": 0.025,
                "normalized_best": 2.0,
                "throughput": {"unit": "requests/s", "value": 500.0},
                "verify": {"requests": 10},
            }
        ],
    }
    payload.update(overrides)
    return payload


def payload_with_bench(name, normalized, best=0.02):
    p = minimal_payload()
    b = dict(p["benchmarks"][0])
    b["name"] = name
    b["normalized_best"] = normalized
    b["best_s"] = best
    b["times_s"] = [best, best * 1.5]
    b["mean_s"] = best * 1.25
    p["benchmarks"] = [b]
    return p


class TestSchema:
    def test_minimal_payload_validates(self):
        validate_payload(minimal_payload())

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(BenchError, match="schema"):
            validate_payload(minimal_payload(schema="repro.bench/v0"))

    def test_unknown_family_rejected(self):
        with pytest.raises(BenchError, match="family"):
            validate_payload(minimal_payload(family="warp"))

    def test_missing_machine_key_rejected(self):
        payload = minimal_payload()
        del payload["machine"]["calibration_s"]
        with pytest.raises(BenchError, match="calibration_s"):
            validate_payload(payload)

    def test_empty_benchmarks_rejected(self):
        with pytest.raises(BenchError, match="non-empty"):
            validate_payload(minimal_payload(benchmarks=[]))

    def test_missing_bench_key_rejected(self):
        payload = minimal_payload()
        del payload["benchmarks"][0]["verify"]
        with pytest.raises(BenchError, match="verify"):
            validate_payload(payload)

    def test_best_must_equal_min_times(self):
        payload = minimal_payload()
        payload["benchmarks"][0]["best_s"] = 0.5
        with pytest.raises(BenchError, match="min"):
            validate_payload(payload)

    def test_nonpositive_time_rejected(self):
        payload = minimal_payload()
        payload["benchmarks"][0]["times_s"] = [0.0, 0.03]
        with pytest.raises(BenchError, match="positive"):
            validate_payload(payload)

    def test_family_mismatch_rejected(self):
        payload = minimal_payload()
        payload["benchmarks"][0]["family"] = "memsim"
        with pytest.raises(BenchError, match="family"):
            validate_payload(payload)

    def test_canonical_json_is_sorted_and_newline_terminated(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')


class TestDeterminism:
    def test_scenario_configs_byte_identical_across_reruns(self):
        """Params (and their canonical serialization) never drift."""
        for family in KNOWN_FAMILIES:
            first = prepare_family(family, quick=True)
            second = prepare_family(family, quick=True)
            names_a = [(p.name, canonical_json(p.params)) for p in first]
            names_b = [(p.name, canonical_json(p.params)) for p in second]
            assert names_a == names_b

    def test_catalog_covers_every_family(self):
        rows = scenario_catalog()
        assert {r["family"] for r in rows} == set(KNOWN_FAMILIES)
        assert len({r["benchmark"] for r in rows}) == len(rows)

    def test_verify_blocks_identical_across_runs(self):
        """Two full timed runs of one scenario return the same verify."""
        prepared = prepare_family("des", quick=True)[0]
        a = run_scenario(prepared, warmup=0, repeats=1)
        b = run_scenario(prepared, warmup=0, repeats=2)
        assert a["verify"] == b["verify"]

    def test_run_family_emits_valid_schema(self):
        machine = {
            "python": "x",
            "numpy": "y",
            "platform": "z",
            "cpu_count": 1,
            "calibration_s": 0.01,
        }
        payload = run_family("des", quick=True, warmup=0, repeats=1, machine=machine)
        validate_payload(payload)
        assert payload["config"] == {"quick": True, "repeats": 1, "warmup": 0}

    def test_repeats_must_be_positive(self):
        prepared = prepare_family("des", quick=True)[0]
        with pytest.raises(BenchError, match="repeats"):
            run_scenario(prepared, warmup=0, repeats=0)


BASELINE_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "baseline"


def _baseline_verify_blocks():
    """``(family, scenario, verify)`` of every committed quick baseline."""
    rows = []
    for family in KNOWN_FAMILIES:
        payload = json.loads((BASELINE_DIR / f"BENCH_{family}.json").read_text())
        rows.extend(
            pytest.param(family, b["name"], b["verify"], id=f"{family}-{b['name']}")
            for b in payload["benchmarks"]
        )
    return rows


@functools.lru_cache(maxsize=None)
def _quick_scenarios(family):
    return {p.name: p for p in prepare_family(family, quick=True)}


class TestGoldenOutputs:
    """Optimized kernels == pre-optimization kernels, bit for bit."""

    @pytest.mark.parametrize("name", ["bfs", "sssp", "cc"])
    def test_traversal_digest_matches_pre_optimization_build(self, name):
        verify = dict(_quick_scenarios("traversal")[name].run())
        assert verify["digest"] == GOLDEN_QUICK_DIGESTS[name]

    @pytest.mark.parametrize("family,name,expected", _baseline_verify_blocks())
    def test_quick_verify_block_matches_baseline(self, family, name, expected):
        """Every ``repro bench --quick`` output equals the committed baseline."""
        assert dict(_quick_scenarios(family)[name].run()) == expected


class TestCompare:
    def test_equal_payloads_all_ok(self):
        base = payload_with_bench("a", 2.0)
        ok, rows = check_regression(base, base)
        assert ok and [r["status"] for r in rows] == ["ok"]

    def test_regression_beyond_threshold_fails(self):
        base = payload_with_bench("a", 2.0)
        cand = payload_with_bench("a", 2.4)  # +20% > 15%
        ok, rows = check_regression(base, cand)
        assert not ok
        assert rows[0]["status"] == "REGRESSION"

    def test_slowdown_within_threshold_passes(self):
        base = payload_with_bench("a", 2.0)
        cand = payload_with_bench("a", 2.2)  # +10% < 15%
        ok, rows = check_regression(base, cand)
        assert ok and rows[0]["status"] == "ok"

    def test_missing_benchmark_fails_gate(self):
        base = payload_with_bench("a", 2.0)
        cand = payload_with_bench("b", 2.0)
        ok, rows = check_regression(base, cand)
        assert not ok
        statuses = {r["benchmark"]: r["status"] for r in rows}
        assert statuses["a"] == "MISSING (gate fail)"
        assert statuses["b"] == "new"

    def test_verify_mismatch_fails_gate(self):
        base = payload_with_bench("a", 2.0)
        cand = payload_with_bench("a", 1.0)  # faster, but different output
        cand["benchmarks"][0]["verify"] = {"requests": 11}
        ok, rows = check_regression(base, cand)
        assert not ok
        assert rows[0]["status"] == "VERIFY MISMATCH"

    def test_threshold_override(self):
        base = payload_with_bench("a", 2.0)
        cand = payload_with_bench("a", 2.4)
        ok, _ = check_regression(base, cand, threshold=0.30)
        assert ok
        assert gate_threshold() == DEFAULT_THRESHOLD
        assert gate_threshold(0.30) == 0.30

    def test_family_mismatch_raises(self):
        with pytest.raises(BenchError, match="family"):
            compare_results(
                minimal_payload(), minimal_payload(family="memsim")
            )

    def test_raw_metric_uses_seconds(self):
        base = payload_with_bench("a", 2.0, best=0.02)
        cand = payload_with_bench("a", 99.0, best=0.02)
        rows = compare_results(base, cand, metric="raw")
        assert rows[0]["ratio"] == pytest.approx(1.0)

    def test_render_comparison_mentions_every_row(self):
        base = payload_with_bench("a", 2.0)
        cand = payload_with_bench("b", 2.0)
        rows = compare_results(base, cand)
        table = render_comparison(rows, title="t")
        assert "a" in table and "b" in table and "missing" in table

    def test_load_result_rejects_garbage(self, tmp_path):
        with pytest.raises(BenchError, match="not found"):
            load_result(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(BenchError, match="not valid JSON"):
            load_result(bad)


class TestCLI:
    def run_cli(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    def test_bench_list(self, capsys):
        code, out = self.run_cli(capsys, "bench", "--list")
        assert code == 0
        for family in KNOWN_FAMILIES:
            assert family in out

    def test_bench_run_writes_valid_file(self, capsys, tmp_path):
        code, out = self.run_cli(
            capsys,
            "bench", "--families", "des", "--quick",
            "--repeats", "1", "--warmup", "0",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        path = tmp_path / "BENCH_des.json"
        assert path.is_file()
        payload = load_result(path)  # validates
        assert payload["family"] == "des"
        # Canonical: reserializing the parsed payload is byte-identical.
        assert canonical_json(payload) == path.read_text(encoding="utf-8")

    def test_bench_unknown_family_errors(self, capsys, tmp_path):
        code = main(["bench", "--families", "warp", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "unknown bench family" in capsys.readouterr().err

    def test_bench_compare_and_check(self, capsys, tmp_path):
        base_p = tmp_path / "base.json"
        cand_p = tmp_path / "cand.json"
        base_p.write_text(canonical_json(payload_with_bench("a", 2.0)))
        cand_p.write_text(canonical_json(payload_with_bench("a", 2.4)))
        code, out = self.run_cli(
            capsys, "bench", "--compare", str(base_p), str(cand_p)
        )
        assert code == 0 and "+20.0%" in out
        code, out = self.run_cli(
            capsys, "bench", "--check", str(base_p), str(cand_p)
        )
        assert code == 1 and "GATE FAILED" in out
        code, out = self.run_cli(
            capsys,
            "bench", "--check", str(base_p), str(cand_p),
            "--threshold", "0.5",
        )
        assert code == 0 and "gate passed" in out

    def test_compare_and_check_mutually_exclusive(self, capsys, tmp_path):
        p = tmp_path / "x.json"
        p.write_text(canonical_json(minimal_payload()))
        code, out = self.run_cli(
            capsys,
            "bench", "--compare", str(p), str(p), "--check", str(p), str(p),
        )
        assert code == 2


class TestCommittedBaseline:
    """The in-repo baseline artifacts stay valid and loadable."""

    @pytest.mark.parametrize("family", KNOWN_FAMILIES)
    def test_baseline_artifact_validates(self, family):
        payload = load_result(BASELINE_DIR / f"BENCH_{family}.json")
        assert payload["config"]["quick"] is True
        names = {b["name"] for b in payload["benchmarks"]}
        catalog = {
            r["benchmark"] for r in scenario_catalog() if r["family"] == family
        }
        assert names == catalog
