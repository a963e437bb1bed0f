"""Interconnect models: PCIe link, CXL.mem protocol, system topology.

The paper's central claim is that the PCIe link to the GPU — its effective
bandwidth ``W`` and its outstanding-read limit ``N_max`` — is the binding
constraint for GPU graph traversal (Section 3).  These models provide
those two numbers per link generation, the CXL flit-splitting rules that
halve the GPU-visible tag budget (Section 4.2.2), and the NUMA topology
that produces Figure 9's latency deltas.
"""

from .. import _attach

__all__ = [
    "PCIeGeneration",
    "PCIeLink",
    "PCIE_GEN3",
    "PCIE_GEN4",
    "PCIE_GEN5",
    "flits_per_request",
    "split_into_flits",
    "device_side_bytes",
    "gpu_visible_outstanding",
    "check_tag_budget",
    "SystemTopology",
    "DeviceAttachment",
    "paper_topology",
]

__getattr__, __dir__ = _attach(
    __name__,
    {
        ".pcie": (
            "PCIeGeneration", "PCIeLink", "PCIE_GEN3", "PCIE_GEN4",
            "PCIE_GEN5",
        ),
        ".cxl_proto": (
            "flits_per_request", "split_into_flits", "device_side_bytes",
            "gpu_visible_outstanding", "check_tag_budget",
        ),
        ".topology": ("SystemTopology", "DeviceAttachment", "paper_topology"),
    },
)
