"""Precomputed model surfaces: price the config grid once, query forever.

A *surface* is the analytical model evaluated over the device ×
alignment × topology (link) × striping grid on one reference workload,
persisted as canonical JSON (sorted keys, two-space indent, trailing
newline, no timestamps or host identity — the ``BENCH_*.json``
discipline, so identical inputs produce byte-identical files).  The
stored runtimes are *simulated* seconds from
:func:`repro.core.runtime_model.predict_runtime`, which makes surfaces
machine-independent and golden-testable.

Building a surface is the expensive, embarrassingly parallel step — the
reference trace is built once and every config is priced against it by
:func:`~repro.core.sweep.sweep_trace` through a
:class:`repro.exec.Executor` — and querying it
(:mod:`repro.planner.query`) is a sub-millisecond scan that never
re-runs the model.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Any, Mapping, Sequence

from .. import systems as systems_registry
from ..core.cost import media_for
from ..core.sweep import sweep_trace
from ..errors import PlannerError
from ..exec.executor import Executor, SerialExecutor
from ..exec.spec import ExperimentSpec, GraphSpec
from ..exec.tasks import workload_for
from ..interconnect.pcie import PCIeLink
from ..telemetry.tracer import get_tracer
from ..units import USEC

__all__ = [
    "SURFACE_SCHEMA",
    "default_workload",
    "default_grid",
    "build_surface",
    "save_surface",
    "validate_surface",
    "load_surface",
]

SURFACE_SCHEMA = "repro.planner/v1"

#: Reference-workload scale: matches the bench sweep family (fast to
#: build, large enough that bounds behave like the paper's).
_REF_SCALE = 10

#: Grid axes (full build).  Alignments follow Figure 5; added latencies
#: Figure 11; striping widths bracket the paper's 4-16 drive arrays.
_ALIGNMENTS = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
_XLFDD_DRIVES = (4, 16)
_CXL_ADDED_US = (0, 1, 2, 3)
_CXL_DEVICES = (2, 5, 8)
_FLASH_CXL_DEVICES = (2, 6, 12)
_LINKS = ("gen3", "gen4")

#: Quick grid for tests/benchmarks: one link, thinned axes.
_QUICK_ALIGNMENTS = (16, 64, 512, 4096)


def default_workload() -> ExperimentSpec:
    """The reference workload every surface config prices (BFS/urand)."""
    return ExperimentSpec(graph=GraphSpec(dataset="urand", scale=_REF_SCALE))


def default_grid(*, quick: bool = False) -> list[dict[str, Any]]:
    """Config dicts ``{"system", "link", "options"}`` for the grid.

    Deterministic order: link-major, then system family, then the
    family's knobs nested-loop style — the order the surface file and
    its golden tests assume.
    """
    links: Sequence[str] = ("gen4",) if quick else _LINKS
    alignments = _QUICK_ALIGNMENTS if quick else _ALIGNMENTS
    xlfdd_drives = (16,) if quick else _XLFDD_DRIVES
    cxl_added = (0, 2) if quick else _CXL_ADDED_US
    cxl_devices = (5,) if quick else _CXL_DEVICES
    flash_devices = (6,) if quick else _FLASH_CXL_DEVICES
    grid: list[dict[str, Any]] = []
    for link in links:
        grid.append({"system": "emogi", "link": link, "options": {}})
        grid.append({"system": "uvm", "link": link, "options": {}})
        grid.append({"system": "bam", "link": link, "options": {}})
        for drives in xlfdd_drives:
            for alignment in alignments:
                grid.append(
                    {
                        "system": "xlfdd",
                        "link": link,
                        "options": {
                            "alignment_bytes": alignment,
                            "drives": drives,
                        },
                    }
                )
        for devices in cxl_devices:
            for added_us in cxl_added:
                grid.append(
                    {
                        "system": "cxl",
                        "link": link,
                        "options": {
                            "added_latency": added_us * USEC,
                            "devices": devices,
                        },
                    }
                )
        for devices in flash_devices:
            grid.append(
                {
                    "system": "flash-cxl",
                    "link": link,
                    "options": {"devices": devices},
                }
            )
    return grid


def build_surface(
    *,
    workload: ExperimentSpec | None = None,
    grid: Sequence[Mapping[str, Any]] | None = None,
    executor: Executor | None = None,
    quick: bool = False,
) -> dict[str, Any]:
    """Price every grid config on the reference workload, in parallel.

    The reference trace is built once; each run of same-link configs
    (one per link in the link-major default grid) is one
    :func:`~repro.core.sweep.sweep_trace` call, normalised by EMOGI at
    that link, so the result is bit-identical for any executor.  Pool
    shape (device count, capacity) and media pricing class are resolved
    parent-side — factories are cheap; only model pricing fans out.
    """
    workload = workload or default_workload()
    if workload.system.name != "emogi" or workload.system.options:
        # The workload's own system section is ignored (the grid
        # replaces it); a customised one is almost certainly a mistake.
        raise PlannerError(
            "surface workload must leave the system section at its "
            "default; the grid supplies every system configuration"
        )
    configs = [dict(c) for c in (grid if grid is not None else default_grid(quick=quick))]
    if not configs:
        raise PlannerError("surface grid must contain at least one config")
    graph, trace = workload_for(
        workload.graph.dataset,
        workload.graph.scale,
        workload.graph.seed,
        workload.algorithm,
        workload.source,
    )
    executor = executor or SerialExecutor()
    entries: list[dict[str, Any]] = []
    with get_tracer().span(
        "planner.surface.build", configs=len(configs), executor=executor.name
    ):
        for name, run in itertools.groupby(configs, key=lambda c: c["link"]):
            link = PCIeLink.from_name(name)
            run = list(run)
            points = sweep_trace(
                trace,
                [{"system": c["system"], "options": c.get("options")} for c in run],
                link,
                executor=executor,
            )
            for config, point in zip(run, points):
                options = dict(config.get("options") or {})
                system = systems_registry.get(config["system"], link, **options)
                entries.append(
                    {
                        "registry": config["system"],
                        "system": point.system,
                        "link": name,
                        "options": options,
                        "runtime_s": point.runtime,
                        "normalized_runtime": point.normalized_runtime,
                        "bound": point.bound,
                        "devices": system.pool.count,
                        "capacity_bytes": system.pool.capacity_bytes,
                        "media": media_for(system).name,
                    }
                )
    return {
        "schema": SURFACE_SCHEMA,
        "workload": {
            "dataset": workload.graph.dataset,
            "scale": workload.graph.scale,
            "seed": workload.graph.seed,
            "algorithm": workload.algorithm,
            "edge_list_bytes": int(graph.edge_list_bytes),
        },
        "configs": entries,
    }


def save_surface(surface: Mapping[str, Any], path: str | Path) -> Path:
    """Write ``surface`` as canonical JSON; returns the path."""
    # Deferred: repro.bench imports this package at import time (the
    # sweep_parallel scenarios), so a top-level back-import would cycle.
    from ..bench.schema import canonical_json

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(surface), encoding="utf-8")
    return path


_REQUIRED_CONFIG_KEYS = (
    "system",
    "link",
    "runtime_s",
    "devices",
    "capacity_bytes",
    "media",
)


def validate_surface(surface: Any) -> dict[str, Any]:
    """Schema-check a loaded surface; returns it typed as a dict."""
    if not isinstance(surface, Mapping):
        raise PlannerError(
            f"surface must be a JSON object, got {type(surface).__name__}"
        )
    if surface.get("schema") != SURFACE_SCHEMA:
        raise PlannerError(
            f"unsupported surface schema {surface.get('schema')!r}; "
            f"expected {SURFACE_SCHEMA!r}"
        )
    workload = surface.get("workload")
    if not isinstance(workload, Mapping) or "edge_list_bytes" not in workload:
        raise PlannerError("surface workload section missing edge_list_bytes")
    if float(workload["edge_list_bytes"]) <= 0:
        raise PlannerError("surface workload edge_list_bytes must be positive")
    configs = surface.get("configs")
    if not isinstance(configs, list) or not configs:
        raise PlannerError("surface has no configs")
    for i, entry in enumerate(configs):
        if not isinstance(entry, Mapping):
            raise PlannerError(f"surface config #{i} is not an object")
        missing = [k for k in _REQUIRED_CONFIG_KEYS if k not in entry]
        if missing:
            raise PlannerError(
                f"surface config #{i} missing key(s): {', '.join(missing)}"
            )
    return dict(surface)


def load_surface(path: str | Path) -> dict[str, Any]:
    """Load and validate a surface file."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise PlannerError(f"cannot read surface {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PlannerError(f"malformed surface JSON in {path}: {exc}") from exc
    return validate_surface(payload)
