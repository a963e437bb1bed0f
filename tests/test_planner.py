"""Capacity planner: surface build determinism and queries."""

import json

import pytest

from repro.bench.schema import canonical_json
from repro.errors import PlannerError
from repro.exec import ExperimentSpec, SystemSpec
from repro.planner import (
    SURFACE_SCHEMA,
    build_surface,
    default_grid,
    load_surface,
    plan_query,
    save_surface,
    validate_surface,
)


@pytest.fixture(scope="module")
def quick_surface():
    return build_surface(quick=True)


class TestGrid:
    def test_quick_grid_size(self):
        assert len(default_grid(quick=True)) == 10

    def test_full_grid_size(self):
        assert len(default_grid()) == 72

    def test_deterministic_order(self):
        assert default_grid(quick=True) == default_grid(quick=True)

    def test_quick_is_single_link(self):
        assert {c["link"] for c in default_grid(quick=True)} == {"gen4"}


class TestBuildSurface:
    def test_schema_and_workload(self, quick_surface):
        assert quick_surface["schema"] == SURFACE_SCHEMA
        workload = quick_surface["workload"]
        assert workload["dataset"] == "urand"
        assert workload["algorithm"] == "bfs"
        assert workload["edge_list_bytes"] > 0
        assert len(quick_surface["configs"]) == 10

    def test_emogi_normalizes_to_one(self, quick_surface):
        emogi = [
            c for c in quick_surface["configs"] if c["registry"] == "emogi"
        ]
        assert emogi and all(c["normalized_runtime"] == 1.0 for c in emogi)

    def test_grid_without_emogi_gets_same_link_ratios(self, quick_surface):
        # The EMOGI baseline is priced at each config's link even when
        # the grid has no EMOGI config of its own.
        grid = [c for c in default_grid(quick=True) if c["system"] != "emogi"]
        surface = build_surface(grid=grid)
        full = {
            (c["system"], c["link"]): c["normalized_runtime"]
            for c in quick_surface["configs"]
        }
        ratios = [c["normalized_runtime"] for c in surface["configs"]]
        assert ratios == [full[(c["system"], c["link"])] for c in surface["configs"]]
        assert all(r != 1.0 for r in ratios)

    def test_rebuild_is_byte_identical(self, quick_surface):
        again = build_surface(quick=True)
        assert canonical_json(again) == canonical_json(quick_surface)

    def test_rejects_customized_workload_system(self):
        workload = ExperimentSpec(system=SystemSpec(name="xlfdd"))
        with pytest.raises(PlannerError, match="system section"):
            build_surface(workload=workload, quick=True)

    def test_rejects_empty_grid(self):
        with pytest.raises(PlannerError, match="at least one config"):
            build_surface(grid=[])

    def test_save_load_round_trip(self, quick_surface, tmp_path):
        path = save_surface(quick_surface, tmp_path / "surface.json")
        loaded = load_surface(path)
        assert canonical_json(loaded) == canonical_json(quick_surface)


class TestValidateSurface:
    def test_wrong_schema(self):
        with pytest.raises(PlannerError, match="unsupported surface schema"):
            validate_surface({"schema": "repro.planner/v0"})

    def test_missing_configs(self, quick_surface):
        broken = dict(quick_surface)
        broken["configs"] = []
        with pytest.raises(PlannerError, match="no configs"):
            validate_surface(broken)

    def test_missing_config_keys(self, quick_surface):
        broken = dict(quick_surface)
        broken["configs"] = [{"system": "emogi"}]
        with pytest.raises(PlannerError, match="missing key"):
            validate_surface(broken)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "surface.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(PlannerError, match="malformed"):
            load_surface(path)


class TestPlanQuery:
    def _ref_bytes(self, surface):
        return float(surface["workload"]["edge_list_bytes"])

    def test_reference_query_returns_ranked_rows(self, quick_surface):
        rows = plan_query(
            quick_surface, edge_bytes=self._ref_bytes(quick_surface), top=None
        )
        assert len(rows) == len(quick_surface["configs"])
        # Sorted by (rank, runtime, cost, name): ranks are non-decreasing
        # and rank 1 leads the list.
        ranks = [r["pareto_rank"] for r in rows]
        assert ranks == sorted(ranks)
        assert ranks[0] == 1

    def test_pareto_rank_one_is_non_dominated(self, quick_surface):
        rows = plan_query(
            quick_surface, edge_bytes=self._ref_bytes(quick_surface), top=None
        )
        frontier = [r for r in rows if r["pareto_rank"] == 1]
        for a in frontier:
            for b in rows:
                dominates = (
                    b["est_runtime_s"] <= a["est_runtime_s"]
                    and b["cost_usd"] <= a["cost_usd"]
                    and (
                        b["est_runtime_s"] < a["est_runtime_s"]
                        or b["cost_usd"] < a["cost_usd"]
                    )
                )
                assert not dominates

    def test_runtime_scales_linearly_with_edge_bytes(self, quick_surface):
        ref = self._ref_bytes(quick_surface)
        one = plan_query(quick_surface, edge_bytes=ref, top=None)
        double = plan_query(quick_surface, edge_bytes=2 * ref, top=None)
        by_key = {(r["system"], r["link"]): r for r in double}
        for row in one:
            scaled = by_key.get((row["system"], row["link"]))
            if scaled is not None:
                assert scaled["est_runtime_s"] == pytest.approx(
                    2 * row["est_runtime_s"]
                )

    def test_slo_filter(self, quick_surface):
        ref = self._ref_bytes(quick_surface)
        rows = plan_query(quick_surface, edge_bytes=ref, top=None)
        slo = sorted(r["est_runtime_s"] for r in rows)[1]  # keeps >= 2 rows
        kept = plan_query(
            quick_surface, edge_bytes=ref, slo_runtime_s=slo, top=None
        )
        assert 0 < len(kept) < len(rows) + 1
        assert all(r["est_runtime_s"] <= slo for r in kept)

    def test_capacity_filter_matches_surface(self, quick_surface):
        edge_bytes = 1e15  # beyond every finite pool in the quick grid
        rows = plan_query(quick_surface, edge_bytes=edge_bytes, top=None)
        expected = [
            c
            for c in quick_surface["configs"]
            if c["capacity_bytes"] is None or c["capacity_bytes"] >= edge_bytes
        ]
        assert len(rows) == len(expected)

    def test_link_filter(self, quick_surface):
        # The quick grid is gen4-only, so gen3 matches nothing.
        assert (
            plan_query(
                quick_surface,
                edge_bytes=self._ref_bytes(quick_surface),
                link="gen3",
            )
            == []
        )

    def test_top_caps_result(self, quick_surface):
        rows = plan_query(
            quick_surface, edge_bytes=self._ref_bytes(quick_surface), top=3
        )
        assert len(rows) == 3

    def test_invalid_inputs(self, quick_surface):
        with pytest.raises(PlannerError, match="edge_bytes"):
            plan_query(quick_surface, edge_bytes=0)
        with pytest.raises(PlannerError, match="slo_runtime_s"):
            plan_query(quick_surface, edge_bytes=1.0, slo_runtime_s=-1)
        with pytest.raises(PlannerError, match="top"):
            plan_query(quick_surface, edge_bytes=1.0, top=0)

    def test_deterministic_answers(self, quick_surface):
        ref = self._ref_bytes(quick_surface)
        a = plan_query(quick_surface, edge_bytes=ref, slo_runtime_s=1.0)
        b = plan_query(quick_surface, edge_bytes=ref, slo_runtime_s=1.0)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
