"""Executors: determinism across transports, round-trips.

The load-bearing property test here pins the repo's central executor
guarantee: a sweep priced through ``ProcessPoolExecutor(workers=4)`` is
*byte-identical* (canonical JSON) to the same sweep priced serially.
"""

import json
import pickle

import numpy as np
import pytest

from repro.bench.schema import canonical_json
from repro.core.evalcache import clear_evaluation_cache
from repro.core.sweep import SweepPoint, run_sweep
from repro.errors import ExecError
from repro.exec import (
    ExperimentSpec,
    GraphSpec,
    ProcessPoolExecutor,
    SerialExecutor,
    SweepConfig,
    SystemSpec,
)
from repro.exec.executor import default_chunk_size, make_executor
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

    def test_make_executor_names(self):
        assert make_executor("serial").name == "serial"
        ex = make_executor("process", workers=2)
        assert ex.name == "process" and ex.workers == 2
        with pytest.raises(ExecError, match="unknown executor"):
            make_executor("threads")

    def test_default_chunk_size(self):
        # ~4 chunks per worker, never below 1.
        assert default_chunk_size(0, 4) == 1
        assert default_chunk_size(3, 4) == 1
        assert default_chunk_size(100, 4) == 7  # ceil(100 / 16)
        assert default_chunk_size(16, 1) == 4

    def test_process_pool_rejects_unpicklable_fn(self):
        # The pickle pre-check fires before any worker spawns, so a
        # closure fails fast with a typed, self-explanatory error.
        ex = ProcessPoolExecutor(workers=2)
        with pytest.raises(ExecError, match="not picklable"):
            ex.map(lambda p: p, [1, 2])

    def test_process_pool_invalid_shapes(self):
        with pytest.raises(ExecError):
            ProcessPoolExecutor(workers=0)
        with pytest.raises(ExecError):
            ProcessPoolExecutor(workers=2, chunk_size=0)


class TestExecutorEquivalence:
    """Satellite: serial and 4-worker process results are byte-identical."""

    def test_process_pool_byte_identical_to_serial(self):
        spec, config = _quick_sweep()
        clear_evaluation_cache()
        serial = run_sweep(spec, config, executor=SerialExecutor())
        clear_evaluation_cache()
        with ProcessPoolExecutor(workers=4) as ex:
            pooled = run_sweep(spec, config, executor=ex)
        assert canonical_json(serial.as_dict()) == canonical_json(pooled.as_dict())


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
