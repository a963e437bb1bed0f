"""Access-signature descriptors for workload classification.

Following the accelerator-workload taxonomy of Dann et al. (and the
paper's own Section 2.1 characterisation of BFS as fine-grained,
random, on-demand), every registered workload carries an
:class:`AccessSignature`: the fractions of its traffic that are
sequential reads and writes, plus a qualitative frontier-density
profile and reuse class.  The signature is *descriptive*: kernels do
not consult it, and the docs table in ``docs/WORKLOADS.md`` lists
these values.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import WorkloadError

__all__ = ["AccessSignature", "FRONTIER_PROFILES", "REUSE_CLASSES"]

#: How the per-step frontier evolves over a run.
FRONTIER_PROFILES = ("point", "wavefront", "dense", "shrinking", "sparse")

#: How often the same edge sublists are re-read within one run.
REUSE_CLASSES = ("low", "medium", "high")


@dataclass(frozen=True)
class AccessSignature:
    """How a workload touches external memory.

    Attributes
    ----------
    sequential_read_fraction:
        Share of read traffic issued in ascending-address order (dense
        full-vertex sweeps are ~sequential; frontier expansion is not).
    write_fraction:
        Share of total traffic that is vertex-property write-back (BFS
        depths, SSSP distances, CC labels, PageRank ranks).
    frontier_profile:
        One of :data:`FRONTIER_PROFILES` — the step-size shape.
    reuse:
        One of :data:`REUSE_CLASSES` — cache-friendliness of the run.
    """

    sequential_read_fraction: float
    write_fraction: float
    frontier_profile: str
    reuse: str = "low"

    def __post_init__(self) -> None:
        for name in ("sequential_read_fraction", "write_fraction"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not 0.0 <= float(value) <= 1.0:
                raise WorkloadError(f"{name} must be in [0, 1], got {value!r}")
        if self.frontier_profile not in FRONTIER_PROFILES:
            raise WorkloadError(
                f"unknown frontier profile {self.frontier_profile!r}; "
                f"choose from {', '.join(FRONTIER_PROFILES)}"
            )
        if self.reuse not in REUSE_CLASSES:
            raise WorkloadError(
                f"unknown reuse class {self.reuse!r}; "
                f"choose from {', '.join(REUSE_CLASSES)}"
            )

    def as_dict(self) -> dict[str, float | str]:
        """Flat dict for docs tables and canonical-JSON reports."""
        return {
            "sequential_read_fraction": self.sequential_read_fraction,
            "write_fraction": self.write_fraction,
            "frontier_profile": self.frontier_profile,
            "reuse": self.reuse,
        }
