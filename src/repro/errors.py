"""Exception hierarchy for :mod:`repro`.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "GraphFormatError",
    "GraphGenerationError",
    "TraceError",
    "DeviceError",
    "CapacityError",
    "SimulationError",
    "ModelError",
    "WorkloadError",
    "TelemetryError",
    "BenchError",
    "SpecError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ConfigError(ReproError, ValueError):
    """A configuration value is missing, malformed, or inconsistent."""


class GraphFormatError(ReproError, ValueError):
    """A graph violates the CSR format invariants (or a file is corrupt)."""


class GraphGenerationError(ReproError, ValueError):
    """Graph generator parameters are invalid (e.g. negative degree)."""


class TraceError(ReproError, ValueError):
    """An access trace is malformed or inconsistent with its graph."""


class DeviceError(ReproError, ValueError):
    """A device model was configured or used incorrectly."""


class CapacityError(DeviceError):
    """Data does not fit on the configured device or device pool."""


class SimulationError(ReproError, RuntimeError):
    """The discrete-event simulator reached an inconsistent state."""


class ModelError(ReproError, ValueError):
    """An analytical-model query has no solution or invalid inputs."""


class WorkloadError(ModelError):
    """A workload registry lookup or registration is invalid.

    Subclasses :class:`ModelError` so callers that predate the
    :mod:`repro.workloads` registry (``except ModelError``) keep
    catching unknown-algorithm failures.  The message always lists the
    valid workload names.
    """


class TelemetryError(ReproError, ValueError):
    """The telemetry layer was configured or fed malformed data."""


class BenchError(ReproError, ValueError):
    """A benchmark scenario, result file, or comparison is invalid."""


class SpecError(ConfigError):
    """A declarative :class:`~repro.exec.ExperimentSpec` is invalid.

    Raised for unknown keys, out-of-range values, malformed YAML
    documents, and broken ``extend:`` chains.  The message always names
    the offending key *and* the valid alternatives, because specs are
    written by hand and "unknown key" without a field list is a
    guessing game.
    """
