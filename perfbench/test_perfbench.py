"""Tests of the benchmark itself, at small graph scales.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (ROOT / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = 8
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def small(name: str) -> workloads.Workload:
    if name == "engine":
        return workloads.EngineWorkload(0, scale=SMALL, paper_scale=SMALL)
    return workloads.WORKLOADS[name](0, scale=SMALL)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced(request):
    workload = small(request.param)
    workload.setup()
    out, rec = tracing.traced_call(workload.iterate)
    return workload, out, rec


def test_layer_self_times_sum_to_traced_run_s(traced):
    _, _, rec = traced
    name, parent, start, end = rec.spans[0]
    assert (name, parent) == (tracing.ROOT_SPAN, -1)
    summary = tracing.summarize(rec)
    layers = sum(summary[f"layer.{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers == pytest.approx(end - start, rel=1e-9)
    assert all(summary[f"layer.{layer}.self_s"] >= 0 for layer in tracing.LAYERS)


def test_traced_layers_do_the_work(traced):
    workload, _, rec = traced
    summary = tracing.summarize(rec)
    busiest = {"evaluate": "graph", "engine": "engine", "figures": "memsim"}
    assert summary[f"layer.{busiest[workload.name]}.self_s"] > 0
    if workload.name == "evaluate":
        assert summary["graph.build.distinct_ratio"] == 0.5
    if workload.name == "engine":
        assert summary["engine.raf"] >= 1.0
        assert summary["engine.useful_bytes"] > 0


def test_traced_output_is_unchanged(traced):
    workload, out, _ = traced
    assert workload.check(out) == []
    assert workload.digest(out) == workload.digest(workload.iterate())


def test_outputs_pass_reference_checks(traced):
    workload, out, _ = traced
    assert workload.reference_check(out) == []
    errors = workload.fidelity(out)
    assert sorted(errors) == sorted(k for k in run.END_TO_END_UNITS if k.startswith("err."))
    assert all(math.isfinite(v) for v in errors.values())


def _bound_objects() -> list[tuple[object, str, object]]:
    return [
        (t.owner, t.attr, t.owner.__dict__.get(t.attr, "<inherited>"))
        if isinstance(t.owner, type)
        else (t.owner, t.attr, getattr(t.owner, t.attr))
        for t in tracing.targets()
    ]


def test_remove_restores_every_original_object():
    before = _bound_objects()
    patches = tracing.install(tracing.SpanRecorder())
    assert len(patches) == len(before)
    assert all(getattr(owner, attr) is not original for owner, attr, original in before)
    tracing.remove(patches)
    after = _bound_objects()
    for (owner, attr, original), (_, _, now) in zip(before, after):
        assert now is original, f"{owner}.{attr} not restored"


def test_traced_call_removes_wrappers_when_the_call_raises():
    before = _bound_objects()

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracing.traced_call(boom)
    assert all(a[2] is b[2] for a, b in zip(before, _bound_objects()))


def test_flipped_digest_is_a_failed_operation():
    workload = small("evaluate")
    workload.setup()
    out = workload.iterate()
    digest = workload.digest(out)
    good = run.Checker(workload, digest)
    good.verify(out)
    assert (good.attempted, good.failed) == (1, 0)
    flipped = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    bad = run.Checker(workload, flipped)
    bad.verify(out)
    bad.verify(out)
    assert (bad.attempted, bad.failed) == (2, 2)


def test_exception_is_a_failed_operation():
    checker = run.Checker(small("evaluate"), None)
    assert checker.attempt(lambda: 1 / 0) is None
    checker.check_once(lambda: [])
    assert (checker.attempted, checker.failed) == (2, 1)


def test_names_and_units_match_benchmark_json(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert sorted(run.NAMES) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    _, _, rec = traced
    layer_names = list(tracing.summarize(rec))
    layer_names += ["trace.run_s", "trace.untraced_run_s", "trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: run.layer_unit(n) for n in layer_names
    }
