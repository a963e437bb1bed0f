"""The serial executor's order contract and sweep-result round-trips."""

import json
import pickle

import numpy as np

from repro.bench.schema import canonical_json
from repro.core.evalcache import clear_evaluation_cache
from repro.core.sweep import SweepPoint, run_sweep
from repro.exec import (
    ExperimentSpec,
    GraphSpec,
    SerialExecutor,
    SweepConfig,
    SystemSpec,
)
from repro.exec.spec import SweepAxis


def _quick_sweep():
    """A small Figure-5-shaped sweep: 4 alignments, EMOGI baseline."""
    spec = ExperimentSpec(
        graph=GraphSpec(dataset="urand", scale=10),
        system=SystemSpec(name="xlfdd", link="gen4"),
    )
    config = SweepConfig(
        axes=(
            SweepAxis(
                key="system.options.alignment_bytes",
                values=(16, 64, 512, 4096),
            ),
        ),
        baseline={"system.name": "emogi", "system.options": {}},
    )
    return spec, config


class TestExecutorContract:
    def test_serial_preserves_order(self):
        assert SerialExecutor().map(abs, [-3, 1, -2]) == [3, 1, 2]


class TestSweepPointRoundTrip:
    """Regression: points built from NumPy scalars round-trip cleanly.

    Sweep axes used to leak ``np.float64``/``np.int64`` into points,
    which pickled non-canonically and made ``json.dumps`` fail.
    """

    def test_numpy_inputs_coerced_to_builtins(self):
        point = SweepPoint(
            x=np.int64(64),
            runtime=np.float64(1.5e-3),
            normalized_runtime=np.float64(1.2),
            system=np.str_("xlfdd-64B"),
            bound="iops",
        )
        assert type(point.x) is float
        assert type(point.runtime) is float
        assert type(point.normalized_runtime) is float
        assert type(point.system) is str

    def test_pickle_round_trip(self):
        point = SweepPoint(
            x=np.float64(16.0),
            runtime=2e-3,
            normalized_runtime=np.float64(1.0),
            system="xlfdd-16B",
            bound="bandwidth",
        )
        clone = pickle.loads(pickle.dumps(point))
        assert clone == point
        assert type(clone.x) is float

    def test_canonical_json_round_trip(self):
        point = SweepPoint(
            x=np.int64(4096),
            runtime=np.float64(3e-3),
            normalized_runtime=np.float64(2.5),
            system="bam",
            bound="iops",
        )
        text = json.dumps(point.as_dict(), sort_keys=True)
        assert SweepPoint.from_dict(json.loads(text)) == point

    def test_sweep_result_canonical_json(self):
        spec, config = _quick_sweep()
        clear_evaluation_cache()
        result = run_sweep(spec, config)
        payload = canonical_json(result.as_dict())
        parsed = json.loads(payload)
        assert len(parsed["rows"]) == config.num_points
        assert parsed["baseline_runtime"] > 0
        points = result.points()
        assert [p.x for p in points] == [16.0, 64.0, 512.0, 4096.0]
        assert all(type(p.runtime) is float for p in points)
