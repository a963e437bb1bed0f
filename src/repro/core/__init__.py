"""The paper's contribution: analytical model, experiments, sweeps.

``equations`` implements Equations 1-6 verbatim; ``analysis`` the Section
3.3 study of EMOGI and BaM; ``requirements`` the external-memory
requirement calculator (Observation 2's "a few microseconds");
``runtime_model`` prices traces end to end; ``experiment`` wires graphs,
algorithms, access methods, devices and links into the paper's named
configurations; ``sweep`` drives the figure-generating parameter sweeps;
``report`` renders results next to the paper's numbers.
"""

from .. import _attach

__all__ = [
    "ThroughputModel",
    "runtime",
    "throughput",
    "throughput_slope",
    "optimal_transfer_size",
    "example_throughput_model",
    "ExternalMemoryRequirements",
    "requirements_for",
    "paper_gen4_requirements",
    "paper_gen3_requirements",
    "xlfdd_requirements",
    "MethodAnalysis",
    "analyze_emogi",
    "analyze_bam",
    "runtime_vs_transfer_size",
    "interpolate_fetched_bytes",
    "SystemModel",
    "RuntimeResult",
    "predict_runtime",
    "predict_runtime_des",
    "ExperimentResult",
    "emogi_system",
    "bam_system",
    "xlfdd_system",
    "cxl_system",
    "flash_cxl_system",
    "uvm_system",
    "default_source",
    "run_experiment",
    "run_algorithm",
    "SweepPoint",
    "SweepResult",
    "run_sweep",
    "sweep_trace",
    "alignment_grid",
    "comparison_grid",
    "cxl_latency_grid",
    "normalized",
    "format_table",
    "format_series",
    "geometric_mean",
    "markdown_table",
    "MediaCost",
    "MEDIA_COSTS",
    "media_for",
    "system_memory_cost",
    "cost_performance",
    "rows_to_csv",
    "rows_to_json",
    "save_rows",
    "load_rows",
    "sparkline",
    "ascii_chart",
    "PlacementReport",
    "placement_report",
    "stripe_size_sweep",
    "EvaluationReport",
    "run_evaluation",
]

__getattr__, __dir__ = _attach(
    __name__,
    {
        ".equations": (
            "ThroughputModel", "runtime", "throughput", "throughput_slope",
            "optimal_transfer_size", "example_throughput_model",
        ),
        ".requirements": (
            "ExternalMemoryRequirements", "requirements_for",
            "paper_gen4_requirements", "paper_gen3_requirements",
            "xlfdd_requirements",
        ),
        ".analysis": (
            "MethodAnalysis", "analyze_emogi", "analyze_bam",
            "runtime_vs_transfer_size", "interpolate_fetched_bytes",
        ),
        ".runtime_model": (
            "SystemModel", "RuntimeResult", "predict_runtime",
            "predict_runtime_des",
        ),
        ".experiment": (
            "ExperimentResult", "emogi_system", "bam_system", "xlfdd_system",
            "cxl_system", "flash_cxl_system", "uvm_system", "default_source",
            "run_experiment", "run_algorithm",
        ),
        ".sweep": (
            "SweepPoint", "SweepResult", "alignment_grid", "comparison_grid",
            "cxl_latency_grid", "normalized", "run_sweep", "sweep_trace",
        ),
        ".report": (
            "format_table", "format_series", "geometric_mean",
            "markdown_table",
        ),
        ".cost": (
            "MediaCost", "MEDIA_COSTS", "media_for", "system_memory_cost",
            "cost_performance",
        ),
        ".export": ("rows_to_csv", "rows_to_json", "save_rows", "load_rows"),
        ".plot": ("sparkline", "ascii_chart"),
        ".placement": (
            "PlacementReport", "placement_report", "stripe_size_sweep",
        ),
        ".suite": ("EvaluationReport", "run_evaluation"),
    },
)
