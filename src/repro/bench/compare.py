"""Comparing two benchmark result files: delta tables and the CI gate.

``repro bench --compare a.json b.json`` renders a per-benchmark delta
table; ``repro bench --check base.json cand.json`` additionally applies
the regression gate: any matched benchmark whose candidate time exceeds
the baseline by more than the threshold (default 15%, override with
``--threshold`` or the ``REPRO_BENCH_GATE_THRESHOLD`` environment
variable) fails the gate, as does one whose ``verify`` block differs
from the baseline's (a faster run of different outputs is no win) or a
benchmark present in the baseline but missing from the candidate.

Cross-machine comparisons use ``normalized_best`` (time divided by the
host's calibration score) so a committed baseline from one machine gates
CI runs on another; ``metric="raw"`` compares wall seconds directly for
same-machine trajectories.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Mapping

from ..core.report import format_table
from ..errors import BenchError
from .schema import validate_payload

__all__ = [
    "DEFAULT_THRESHOLD",
    "gate_threshold",
    "load_result",
    "compare_results",
    "baseline_missing_rows",
    "render_comparison",
    "check_regression",
]

DEFAULT_THRESHOLD = 0.15

_METRIC_KEYS = {"normalized": "normalized_best", "raw": "best_s"}


def gate_threshold(override: float | None = None) -> float:
    """Resolve the gate threshold: CLI flag > environment > default."""
    if override is not None:
        value = override
    else:
        env = os.environ.get("REPRO_BENCH_GATE_THRESHOLD")
        if env is None:
            return DEFAULT_THRESHOLD
        try:
            value = float(env)
        except ValueError as exc:
            raise BenchError(
                f"REPRO_BENCH_GATE_THRESHOLD={env!r} is not a number"
            ) from exc
    if not 0 < value < 10:
        raise BenchError(f"gate threshold must be in (0, 10), got {value}")
    return value


def load_result(path: str | Path) -> dict[str, Any]:
    """Read and validate one ``BENCH_*.json`` file."""
    p = Path(path)
    if not p.is_file():
        raise BenchError(f"bench result not found: {p}")
    try:
        payload = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise BenchError(f"{p} is not valid JSON: {exc}") from exc
    validate_payload(payload)
    return payload


def _by_name(payload: Mapping[str, Any]) -> dict[str, Mapping[str, Any]]:
    return {bench["name"]: bench for bench in payload["benchmarks"]}


def compare_results(
    base: Mapping[str, Any],
    cand: Mapping[str, Any],
    *,
    metric: str = "normalized",
) -> list[dict[str, Any]]:
    """Per-benchmark delta rows between two payloads of the same family.

    ``ratio`` is candidate/baseline (above 1.0 = slower); unmatched
    benchmarks get a ``missing``/``new`` status and no ratio.
    """
    if metric not in _METRIC_KEYS:
        raise BenchError(f"metric must be one of {sorted(_METRIC_KEYS)}, got {metric!r}")
    if base["family"] != cand["family"]:
        raise BenchError(
            f"cannot compare family {base['family']!r} against {cand['family']!r}"
        )
    key = _METRIC_KEYS[metric]
    base_by, cand_by = _by_name(base), _by_name(cand)
    rows: list[dict[str, Any]] = []
    for name in list(base_by) + [n for n in cand_by if n not in base_by]:
        b, c = base_by.get(name), cand_by.get(name)
        if b is not None and c is not None:
            ratio = c[key] / b[key]
            rows.append(
                {
                    "benchmark": name,
                    "base": b[key],
                    "cand": c[key],
                    "ratio": ratio,
                    "delta_pct": 100.0 * (ratio - 1.0),
                    "status": "slower" if ratio > 1.0 else "faster",
                }
            )
        elif b is not None:
            rows.append(
                {
                    "benchmark": name,
                    "base": b[key],
                    "cand": None,
                    "ratio": None,
                    "delta_pct": None,
                    "status": "missing",
                }
            )
        else:
            rows.append(
                {
                    "benchmark": name,
                    "base": None,
                    "cand": c[key],
                    "ratio": None,
                    "delta_pct": None,
                    "status": "new",
                }
            )
    return rows


def baseline_missing_rows(
    cand: Mapping[str, Any], *, metric: str = "normalized"
) -> list[dict[str, Any]]:
    """Rows for a candidate whose baseline file does not exist.

    A newly added family has no committed baseline yet; every candidate
    benchmark is reported with status ``new`` (no ratio) instead of the
    comparison failing on the missing file.
    """
    if metric not in _METRIC_KEYS:
        raise BenchError(
            f"metric must be one of {sorted(_METRIC_KEYS)}, got {metric!r}"
        )
    key = _METRIC_KEYS[metric]
    return [
        {
            "benchmark": bench["name"],
            "base": None,
            "cand": bench[key],
            "ratio": None,
            "delta_pct": None,
            "status": "new",
        }
        for bench in cand["benchmarks"]
    ]


def render_comparison(rows: list[dict[str, Any]], *, title: str) -> str:
    """ASCII delta table of :func:`compare_results` rows."""
    display = []
    for row in rows:
        display.append(
            {
                "benchmark": row["benchmark"],
                "base": "-" if row["base"] is None else f"{row['base']:.6g}",
                "cand": "-" if row["cand"] is None else f"{row['cand']:.6g}",
                "ratio": "-" if row["ratio"] is None else f"{row['ratio']:.3f}x",
                "delta": (
                    "-"
                    if row["delta_pct"] is None
                    else f"{row['delta_pct']:+.1f}%"
                ),
                "status": row["status"],
            }
        )
    return format_table(display, title=title)


def check_regression(
    base: Mapping[str, Any],
    cand: Mapping[str, Any],
    *,
    threshold: float | None = None,
    metric: str = "normalized",
) -> tuple[bool, list[dict[str, Any]]]:
    """Apply the regression gate; return ``(ok, annotated rows)``.

    A matched benchmark fails when its ``verify`` block differs from the
    baseline's or when ``ratio > 1 + threshold``; a baseline benchmark
    missing from the candidate also fails (silently dropping a slow
    benchmark must not pass the gate).  New candidate benchmarks are
    informational.
    """
    limit = 1.0 + gate_threshold(threshold)
    rows = compare_results(base, cand, metric=metric)
    base_by, cand_by = _by_name(base), _by_name(cand)
    ok = True
    for row in rows:
        name = row["benchmark"]
        if row["status"] == "missing":
            ok = False
            row["status"] = "MISSING (gate fail)"
        elif row["status"] == "new":
            continue
        elif dict(base_by[name]["verify"]) != dict(cand_by[name]["verify"]):
            ok = False
            row["status"] = "VERIFY MISMATCH"
        elif row["ratio"] > limit:
            ok = False
            row["status"] = "REGRESSION"
        else:
            row["status"] = "ok"
    return ok, rows
