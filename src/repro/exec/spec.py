"""The declarative experiment description: :class:`ExperimentSpec`.

One frozen dataclass names everything a priced experiment needs — the
graph (dataset/scale/seed), the system configuration (a
:mod:`repro.systems` registry name plus factory options), the algorithm
and its source vertex.  ``repro sweep`` (:func:`repro.core.run_sweep`)
and the capacity planner's surfaces (:func:`repro.planner.build_surface`)
take it as their input type.  Because a spec is plain data it
round-trips through ``to_dict``/``from_dict`` (canonical JSON) and
pickles across process boundaries.

``from_dict`` is strict: unknown keys raise a typed
:class:`~repro.errors.SpecError` listing the valid fields, because
specs are hand-written YAML and silent key drops hide typos.
Overrides address nested fields with dotted paths
(``system.options.alignment_bytes``), the same syntax the YAML loader
and the ``repro sweep --set`` flag use.

The spec resolves only its link (:meth:`ExperimentSpec.resolve_link`,
which imports the link type at call time); ``repro.core.sweep`` builds
each system from the :mod:`repro.systems` registry.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

from ..errors import SpecError
from ..graph.datasets import DEFAULT_SCALE

__all__ = [
    "GraphSpec",
    "SystemSpec",
    "ExperimentSpec",
    "SweepAxis",
    "SweepConfig",
]

#: Algorithms a spec may name (every :mod:`repro.workloads` entry).
KNOWN_ALGORITHMS = (
    "bfs",
    "sssp",
    "cc",
    "pagerank",
    "kcore",
    "triangle_count",
    "label_propagation",
    "random_walk",
)

#: Link generations a spec may name (``None`` keeps the factory default).
KNOWN_LINKS = ("gen3", "gen4", "gen5")


def _reject_unknown(
    data: Mapping[str, Any], valid: Sequence[str], section: str
) -> None:
    """Raise :class:`SpecError` naming unknown keys and the valid set."""
    unknown = sorted(set(data) - set(valid))
    if unknown:
        raise SpecError(
            f"unknown key(s) {', '.join(repr(k) for k in unknown)} in "
            f"{section}; valid fields: {', '.join(sorted(valid))}"
        )


def _require_mapping(data: Any, section: str) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise SpecError(
            f"{section} must be a mapping, got {type(data).__name__}"
        )
    return data


def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


@dataclass(frozen=True)
class GraphSpec:
    """Which graph to run on: a Table-1 dataset at a chosen scale."""

    dataset: str = "urand"
    scale: int = DEFAULT_SCALE
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.dataset, str) or not self.dataset:
            raise SpecError("graph.dataset must be a non-empty string")
        if not isinstance(self.scale, int) or not 1 <= self.scale <= 30:
            raise SpecError(
                f"graph.scale must be an integer in [1, 30], got {self.scale!r}"
            )
        if not isinstance(self.seed, int):
            raise SpecError(f"graph.seed must be an integer, got {self.seed!r}")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GraphSpec":
        data = _require_mapping(data, "graph")
        _reject_unknown(data, _field_names(cls), "graph")
        return cls(**data)


@dataclass(frozen=True)
class SystemSpec:
    """Which system prices the workload: a registry name plus options.

    ``options`` forwards verbatim to the :mod:`repro.systems` factory
    (``alignment_bytes`` for xlfdd, ``added_latency`` seconds for cxl,
    ...), so every factory knob stays reachable without this class
    having to know them all.  ``link`` is a PCIe generation name;
    ``None`` keeps the factory's own default.
    """

    name: str = "emogi"
    link: str | None = None
    options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise SpecError("system.name must be a non-empty string")
        if self.link is not None and self.link not in KNOWN_LINKS:
            raise SpecError(
                f"system.link must be one of {', '.join(KNOWN_LINKS)} or "
                f"null, got {self.link!r}"
            )
        opts = _require_mapping(self.options, "system.options")
        for key in opts:
            if not isinstance(key, str) or not key.isidentifier():
                raise SpecError(
                    f"system.options keys must be identifiers, got {key!r}"
                )
        object.__setattr__(self, "options", dict(opts))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SystemSpec":
        data = _require_mapping(data, "system")
        _reject_unknown(data, _field_names(cls), "system")
        return cls(**data)


@dataclass(frozen=True)
class ExperimentSpec:
    """The one declarative input type for sweeps, suites, and the planner.

    Construction validates locally checkable facts (shapes, ranges,
    enum-like names); registry names (``system.name``) are validated on
    resolution so the spec layer never imports the heavy model stack.
    """

    graph: GraphSpec = field(default_factory=GraphSpec)
    system: SystemSpec = field(default_factory=SystemSpec)
    algorithm: str = "bfs"
    source: int | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in KNOWN_ALGORITHMS:
            raise SpecError(
                f"algorithm must be one of {', '.join(KNOWN_ALGORITHMS)}, "
                f"got {self.algorithm!r}"
            )
        if self.source is not None and (
            not isinstance(self.source, int) or self.source < 0
        ):
            raise SpecError("source must be a non-negative integer or null")

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Nested plain-data view; ``from_dict`` inverts it exactly."""
        return {
            "graph": dataclasses.asdict(self.graph),
            "system": dataclasses.asdict(self.system),
            "algorithm": self.algorithm,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Strict inverse of :meth:`to_dict` (unknown keys raise)."""
        data = _require_mapping(data, "experiment spec")
        _reject_unknown(data, _field_names(cls), "experiment spec")
        kwargs: dict[str, Any] = {}
        if "graph" in data:
            kwargs["graph"] = GraphSpec.from_dict(data["graph"])
        if "system" in data:
            kwargs["system"] = SystemSpec.from_dict(data["system"])
        if "algorithm" in data:
            kwargs["algorithm"] = data["algorithm"]
        if "source" in data:
            kwargs["source"] = data["source"]
        return cls(**kwargs)

    # -- overrides --------------------------------------------------------

    def with_overrides(self, overrides: Mapping[str, Any]) -> "ExperimentSpec":
        """A new spec with dotted-path overrides applied.

        ``{"graph.scale": 12, "system.options.alignment_bytes": 64}``
        rebuilds the spec through the strict ``from_dict`` path, so a
        typo in any path segment raises :class:`SpecError` with the
        valid field list instead of silently creating dead keys.
        (``system.options.*`` is the one open namespace — factory
        keywords are validated by the factory itself on resolution.)
        """
        data = self.to_dict()
        for path, value in overrides.items():
            _apply_dotted(data, path, value)
        return ExperimentSpec.from_dict(data)

    # -- resolution -------------------------------------------------------

    def resolve_link(self) -> Any:
        """The named PCIe link, or ``None`` for the factory default."""
        if self.system.link is None:
            return None
        from ..interconnect.pcie import PCIeLink

        return PCIeLink.from_name(self.system.link)


def _apply_dotted(data: dict[str, Any], path: str, value: Any) -> None:
    """Set ``data[a][b][c] = value`` for ``path == "a.b.c"``."""
    parts = path.split(".")
    if not all(parts):
        raise SpecError(f"invalid override path {path!r}")
    node = data
    for part in parts[:-1]:
        child = node.get(part)
        if child is None:
            child = {}
            node[part] = child
        elif not isinstance(child, dict):
            raise SpecError(
                f"override path {path!r} descends into non-mapping "
                f"field {part!r}"
            )
        node = child
    node[parts[-1]] = value


@dataclass(frozen=True)
class SweepAxis:
    """One sweep dimension: a dotted override path and its values."""

    key: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.key, str) or not self.key:
            raise SpecError("sweep axis key must be a non-empty string")
        values = tuple(self.values)
        if not values:
            raise SpecError(f"sweep axis {self.key!r} has no values")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class SweepConfig:
    """The ``sweep:`` section of a spec file: axes plus the baseline.

    ``baseline`` is a dotted-override mapping producing the
    normalisation spec from the main one (the figures normalise by
    EMOGI on host DRAM); ``None`` skips normalisation.  It may override
    only ``system.*``: a baseline must price the identical workload.
    """

    axes: tuple[SweepAxis, ...]
    baseline: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if not self.axes:
            raise SpecError("sweep section needs at least one axis")
        outside = sorted(
            key for key in self.baseline or {} if key.split(".")[0] != "system"
        )
        if outside:
            raise SpecError(
                "sweep.baseline may only override system.* keys, got "
                f"{', '.join(repr(k) for k in outside)}; the baseline "
                "must price the identical workload"
            )

    def points(self) -> Iterator[dict[str, Any]]:
        """Dotted-override mappings for the cartesian grid, in axis order.

        The last axis varies fastest, matching nested-loop order — the
        order every result table and figure assumes.
        """
        def recurse(index: int, acc: dict[str, Any]) -> Iterator[dict[str, Any]]:
            if index == len(self.axes):
                yield dict(acc)
                return
            axis = self.axes[index]
            for value in axis.values:
                acc[axis.key] = value
                yield from recurse(index + 1, acc)
            acc.pop(axis.key, None)

        return recurse(0, {})

    @property
    def num_points(self) -> int:
        """Grid size (product of axis lengths)."""
        n = 1
        for axis in self.axes:
            n *= len(axis.values)
        return n

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepConfig":
        data = _require_mapping(data, "sweep")
        _reject_unknown(data, ("axes", "baseline"), "sweep")
        axes_data = _require_mapping(data.get("axes", {}), "sweep.axes")
        if not axes_data:
            raise SpecError("sweep.axes must name at least one axis")
        axes = []
        for key, values in axes_data.items():
            if not isinstance(values, (list, tuple)):
                raise SpecError(
                    f"sweep.axes[{key!r}] must be a list of values"
                )
            axes.append(SweepAxis(key=key, values=tuple(values)))
        baseline = data.get("baseline")
        if baseline is not None:
            baseline = dict(_require_mapping(baseline, "sweep.baseline"))
        return cls(axes=tuple(axes), baseline=baseline)
