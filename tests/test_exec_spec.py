"""ExperimentSpec validation, overrides, and the YAML loader."""

import json

import pytest

from repro.errors import SpecError
from repro.exec import ExperimentSpec, GraphSpec, SweepConfig, SystemSpec, load_spec
from repro.exec.spec import SweepAxis
from repro.exec.yamlspec import deep_merge, expand_dotted, parse_spec_document


class TestGraphSpec:
    def test_defaults(self):
        g = GraphSpec()
        assert g.dataset == "urand"
        assert g.seed == 0

    def test_scale_range(self):
        with pytest.raises(SpecError, match=r"graph\.scale"):
            GraphSpec(scale=0)
        with pytest.raises(SpecError, match=r"graph\.scale"):
            GraphSpec(scale=31)

    def test_unknown_key_lists_valid_fields(self):
        with pytest.raises(SpecError) as exc:
            GraphSpec.from_dict({"dataset": "urand", "sclae": 10})
        message = str(exc.value)
        assert "'sclae'" in message
        # The error names every valid field so typos are self-diagnosing.
        for field in ("dataset", "scale", "seed"):
            assert field in message


class TestSystemSpec:
    def test_link_enum(self):
        with pytest.raises(SpecError, match="gen3, gen4, gen5"):
            SystemSpec(link="gen6")

    def test_options_keys_must_be_identifiers(self):
        with pytest.raises(SpecError, match="identifiers"):
            SystemSpec(options={"alignment-bytes": 64})

    def test_unknown_key(self):
        with pytest.raises(SpecError, match="'links'"):
            SystemSpec.from_dict({"name": "xlfdd", "links": "gen4"})


class TestExperimentSpec:
    def test_round_trips_through_dict(self):
        spec = ExperimentSpec(
            graph=GraphSpec(dataset="kron", scale=12, seed=3),
            system=SystemSpec(name="xlfdd", link="gen4", options={"drives": 4}),
            algorithm="sssp",
            source=7,
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_is_json_serializable(self):
        spec = ExperimentSpec()
        json.dumps(spec.to_dict(), sort_keys=True)

    def test_unknown_algorithm(self):
        with pytest.raises(SpecError, match="bfs"):
            ExperimentSpec(algorithm="dfs")

    def test_unknown_top_level_key(self):
        with pytest.raises(SpecError) as exc:
            ExperimentSpec.from_dict({"algorithm": "bfs", "graf": {}})
        assert "'graf'" in str(exc.value)
        assert "graph" in str(exc.value)

    @pytest.mark.parametrize(
        "section",
        [
            {"fault": {"read_error_rate": 0.5}},
            {"traffic": {"duration_s": 1.0}},
            {"workload": {"name": "pagerank", "memory_mode": "fully-external"}},
        ],
        ids=["fault", "traffic", "workload"],
    )
    def test_unread_sections_are_unknown_keys(self, section):
        # Nothing prices these sections, so accepting them would price a
        # spec as if they were not there.
        with pytest.raises(SpecError) as exc:
            ExperimentSpec.from_dict({"algorithm": "bfs", **section})
        message = str(exc.value)
        assert repr(next(iter(section))) in message
        assert "valid fields: algorithm, graph, source, system" in message

    def test_with_overrides_nested(self):
        spec = ExperimentSpec()
        out = spec.with_overrides(
            {"graph.scale": 14, "system.options.alignment_bytes": 64}
        )
        assert out.graph.scale == 14
        assert out.system.options == {"alignment_bytes": 64}
        # The original is untouched (specs are frozen values).
        assert spec.graph.scale != 14 or spec.system.options == {}

    def test_with_overrides_typo_raises(self):
        with pytest.raises(SpecError, match="'sclae'"):
            ExperimentSpec().with_overrides({"graph.sclae": 14})

    def test_override_through_scalar_raises(self):
        with pytest.raises(SpecError, match="non-mapping"):
            ExperimentSpec().with_overrides({"algorithm.x": 1})


class TestSweepConfig:
    def test_points_last_axis_fastest(self):
        config = SweepConfig(
            axes=(
                SweepAxis(key="a", values=(1, 2)),
                SweepAxis(key="b", values=("x", "y")),
            )
        )
        assert list(config.points()) == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]
        assert config.num_points == 4

    def test_empty_axis_rejected(self):
        with pytest.raises(SpecError, match="no values"):
            SweepAxis(key="a", values=())

    def test_from_dict_requires_axes(self):
        with pytest.raises(SpecError, match="at least one axis"):
            SweepConfig.from_dict({"axes": {}})

    def test_axis_values_must_be_list(self):
        with pytest.raises(SpecError, match="list of values"):
            SweepConfig.from_dict({"axes": {"a": 3}})

    def test_unknown_section_key(self):
        with pytest.raises(SpecError, match="'axis'"):
            SweepConfig.from_dict({"axis": {"a": [1]}})


class TestDottedExpansion:
    def test_expands_and_merges(self):
        out = expand_dotted(
            {"system.name": "xlfdd", "system": {"link": "gen4"}}
        )
        assert out == {"system": {"name": "xlfdd", "link": "gen4"}}

    def test_conflicting_shapes_raise(self):
        with pytest.raises(SpecError, match="conflicts"):
            expand_dotted({"algorithm": "bfs", "algorithm.x": 1})

    def test_deep_merge_replaces_scalars(self):
        base = {"a": {"b": 1, "c": 2}, "d": [1]}
        assert deep_merge(base, {"a": {"b": 9}, "d": [2]}) == {
            "a": {"b": 9, "c": 2},
            "d": [2],
        }


class TestYamlLoader:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_extend_chain_with_overrides(self, tmp_path):
        self._write(
            tmp_path,
            "base.yaml",
            "graph: {dataset: urand, scale: 10}\nsystem: {name: emogi, link: gen4}\n",
        )
        leaf = self._write(
            tmp_path,
            "leaf.yaml",
            "extend: base.yaml\nsystem.name: xlfdd\n"
            "sweep:\n  axes:\n    system.options.alignment_bytes: [16, 64]\n"
            "  baseline:\n    system.name: emogi\n",
        )
        loaded = load_spec(leaf)
        assert loaded.spec.system.name == "xlfdd"
        assert loaded.spec.system.link == "gen4"  # inherited from base
        assert loaded.spec.graph.scale == 10
        assert loaded.sweep is not None
        assert loaded.sweep.axes[0].key == "system.options.alignment_bytes"
        assert loaded.sweep.baseline == {"system.name": "emogi"}
        from pathlib import Path

        assert [Path(s).name for s in loaded.sources] == ["base.yaml", "leaf.yaml"]

    def test_sweep_axis_keys_not_expanded(self, tmp_path):
        """Dotted keys inside ``sweep:`` are override paths, not nesting."""
        path = self._write(
            tmp_path,
            "spec.yaml",
            "system.name: xlfdd\n"
            "sweep:\n  axes:\n    system.options.alignment_bytes: [16]\n",
        )
        loaded = load_spec(path)
        assert loaded.sweep.axes[0].key == "system.options.alignment_bytes"

    def test_cycle_detected(self, tmp_path):
        self._write(tmp_path, "a.yaml", "extend: b.yaml\n")
        path = self._write(tmp_path, "b.yaml", "extend: a.yaml\n")
        with pytest.raises(SpecError, match="circular extend"):
            load_spec(path)

    def test_unknown_key_fails_typed(self, tmp_path):
        path = self._write(tmp_path, "bad.yaml", "algoritm: bfs\n")
        with pytest.raises(SpecError, match="'algoritm'"):
            load_spec(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read"):
            load_spec(tmp_path / "nope.yaml")

    def test_non_mapping_document(self, tmp_path):
        path = self._write(tmp_path, "list.yaml", "- 1\n- 2\n")
        with pytest.raises(SpecError, match="mapping"):
            load_spec(path)

    def test_parse_spec_document_direct(self):
        loaded = parse_spec_document(
            {"graph.scale": 11, "sweep": {"axes": {"graph.seed": [0, 1]}}}
        )
        assert loaded.spec.graph.scale == 11
        assert loaded.sweep.num_points == 2

    def test_committed_example_loads(self):
        from pathlib import Path

        example = (
            Path(__file__).resolve().parent.parent
            / "examples"
            / "sweep_config.yaml"
        )
        loaded = load_spec(example)
        assert loaded.spec.system.name == "xlfdd"
        assert loaded.sweep is not None
        assert loaded.sweep.num_points == 9
        assert loaded.sweep.baseline["system.name"] == "emogi"
