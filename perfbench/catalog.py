"""Per-layer metrics: how each is derived from a traced pass, and what it predicts.

BENCHMARK.json holds every metric's name and unit. What it cannot hold is
written here: for each per-layer metric, the end-to-end metric and workload
it should move, and the workload where the prediction is no change. A test
keeps the two lists equal.

A metric whose span never ran in a pass reads 0. That covers both a layer
the workload does not exercise and a name a later change moved or deleted;
run.py lists such metrics under "not_measured" in the run's facts.
"""

from __future__ import annotations

CLI_MIX, ZSWEEP, LARGE = "cli-mix", "zsweep-corr", "large-register"

# metric: (moves, little_on)
PREDICTIONS = {
    "import.numpy_s": (f"setup_s; cli_latency_* on {CLI_MIX}", f"wall_s on {LARGE}"),
    "import.scipy_s": (f"setup_s; cli_latency_* on {CLI_MIX}", f"wall_s on {LARGE}"),
    "import.dqc1sim_self_s": (f"setup_s; cli_latency_* on {CLI_MIX}", f"wall_s on {LARGE}"),
    "import.total_s": (f"setup_s; cli_latency_* on {CLI_MIX}", f"wall_s on {LARGE}"),
    "cli.main_s": (f"cli_latency_* on {CLI_MIX}", LARGE),
    "cli.self_s": (f"cli_latency_* on {CLI_MIX}", LARGE),
    "cli.sweep_point_s": (f"cli_latency_* on {CLI_MIX}; points_per_s on {ZSWEEP}", LARGE),
    "cli.bytes_written": (f"cli_latency_* on {CLI_MIX}", LARGE),
    "correlations.discord_s": (f"points_per_s on {ZSWEEP}; wall_s, peak_rss_mb on {LARGE}", CLI_MIX),
    "correlations.discord_calls": (f"points_per_s on {ZSWEEP}; wall_s on {LARGE}", CLI_MIX),
    "correlations.minimiser_s": (f"points_per_s on {ZSWEEP}; wall_s, peak_rss_mb on {LARGE}", CLI_MIX),
    "correlations.refine_s": (f"points_per_s on {ZSWEEP}", CLI_MIX),
    "correlations.optimizer_evals": (f"points_per_s on {ZSWEEP}", CLI_MIX),
    "correlations.mutual_information_s": (f"points_per_s on {ZSWEEP}; wall_s on {LARGE}", CLI_MIX),
    "correlations.tangle_s": (f"points_per_s on {ZSWEEP}", CLI_MIX),
    "qmath.density_matrix_s": (f"wall_s on {LARGE}", ZSWEEP),
    "qmath.density_matrix_calls": (f"wall_s on {LARGE}", ZSWEEP),
    "qmath.vn_entropy_s": (f"wall_s on {LARGE}", ZSWEEP),
    "qmath.partial_trace_s": (f"wall_s on {LARGE}", ZSWEEP),
    "qmath.fidelity_s": (f"wall_s on {LARGE}", ZSWEEP),
    "dqc1.output_state_s": (f"wall_s on {LARGE}", ZSWEEP),
    "dqc1.unitary_matrix_s": (f"wall_s on {LARGE}", ZSWEEP),
    "dqc1.unitary_matrix_calls": (f"wall_s on {LARGE}", ZSWEEP),
    "dqc1.exact_expectations_s": (f"wall_s on {LARGE}", ZSWEEP),
    "sampling.estimate_trace_s": (f"cli_latency_* on {CLI_MIX} (trace, sweep)", "elsewhere, under 1%"),
    "sampling.shots_per_s": (f"cli_latency_* on {CLI_MIX} (trace, sweep)", "elsewhere, under 1%"),
    "tomography.simulate_counts_s": (f"points_per_s on {ZSWEEP}, about 3%", LARGE),
    "tomography.reconstruct_s": (f"points_per_s on {ZSWEEP}, about 3%", LARGE),
    "clifford.circuit_from_json_s": (f"wall_s on {LARGE}", ZSWEEP),
    "clifford.propagate_s": (f"wall_s on {LARGE}", ZSWEEP),
    "clifford.gates_per_s": (f"wall_s on {LARGE}", ZSWEEP),
    "clifford.verify_zero_discord_s": (f"cli_latency_* on {CLI_MIX}", ZSWEEP),
    "serialize.load_json_s": (f"wall_s on {LARGE}", ZSWEEP),
    "serialize.unitary_from_json_s": (f"wall_s on {LARGE}", ZSWEEP),
    "serialize.density_from_json_s": (f"cli_latency_* on {CLI_MIX}", ZSWEEP),
    "serialize.bytes_read": (f"wall_s on {LARGE}", ZSWEEP),
    "cli.layer_self_s": (f"cli_latency_* on {CLI_MIX}", LARGE),
    "qmath.layer_self_s": (f"wall_s on {LARGE}", ZSWEEP),
    "dqc1.layer_self_s": (f"wall_s on {LARGE}", ZSWEEP),
    "sampling.layer_self_s": (f"cli_latency_* on {CLI_MIX}", "elsewhere, under 1%"),
    "correlations.layer_self_s": (f"points_per_s on {ZSWEEP}; wall_s on {LARGE}", CLI_MIX),
    "tomography.layer_self_s": (f"points_per_s on {ZSWEEP}", LARGE),
    "clifford.layer_self_s": (f"wall_s on {LARGE}", ZSWEEP),
    "serialize.layer_self_s": (f"wall_s on {LARGE}", ZSWEEP),
    "bench.untraced_s": ("none; benchmark glue outside every span", "none"),
    "bench.traced_wall_s": ("none; the sum of the layer self times and bench.untraced_s", "none"),
    "bench.trace_overhead_frac": ("none; it is the tracing cost", "none"),
}


def layer_metrics(summary, extra: dict) -> dict:
    """Per-layer metrics of one traced pass (spans.Summary plus counts read
    from the outputs). Import metrics and the trace overhead come from run.py."""
    inc, own, calls, count = summary.inclusive_s, summary.self_s, summary.calls, summary.counters

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    metrics = {
        "cli.main_s": inc["cli.main"],
        "cli.self_s": own["cli.main"],
        "cli.sweep_point_s": rate(inc["cli.sweep_point"], calls["cli.sweep_point"]),
        "cli.bytes_written": extra["bytes_written"],
        "correlations.discord_s": inc["correlations.discord"],
        "correlations.discord_calls": calls["correlations.discord"],
        # The grid search and the refinement's own Python run inside these
        # two spans; their children (entropies, states, minimize) are excluded.
        "correlations.minimiser_s": own["correlations.discord"] + own["correlations.correlation_report"],
        "correlations.refine_s": inc["correlations.minimize"],
        "correlations.optimizer_evals": extra["optimizer_evals"],
        "correlations.mutual_information_s": inc["correlations.mutual_information"],
        "correlations.tangle_s": inc["correlations.tangle"],
        "qmath.density_matrix_s": inc["qmath.DensityMatrix"],
        "qmath.density_matrix_calls": calls["qmath.DensityMatrix"],
        "qmath.vn_entropy_s": inc["qmath.vn_entropy"],
        "qmath.partial_trace_s": inc["qmath.partial_trace"],
        "qmath.fidelity_s": inc["qmath.fidelity"],
        "dqc1.output_state_s": own["dqc1.output_state"],
        "dqc1.unitary_matrix_s": inc["dqc1.UnitaryMatrix"],
        "dqc1.unitary_matrix_calls": calls["dqc1.UnitaryMatrix"],
        "dqc1.exact_expectations_s": inc["dqc1.exact_expectations"],
        "sampling.estimate_trace_s": inc["sampling.estimate_trace"],
        "sampling.shots_per_s": rate(count["sampling.estimate_trace"], inc["sampling.estimate_trace"]),
        "tomography.simulate_counts_s": inc["tomography.simulate_counts"],
        "tomography.reconstruct_s": inc["tomography.reconstruct"],
        "clifford.circuit_from_json_s": inc["clifford.circuit_from_json"],
        "clifford.propagate_s": inc["clifford.propagate"],
        "clifford.gates_per_s": rate(count["clifford.propagate"], inc["clifford.propagate"]),
        "clifford.verify_zero_discord_s": inc["clifford.verify_zero_discord"],
        "serialize.load_json_s": inc["serialize.load_json"],
        "serialize.unitary_from_json_s": inc["serialize.unitary_from_json"],
        "serialize.density_from_json_s": inc["serialize.density_from_json"],
        "serialize.bytes_read": count["serialize.load_json"],
        "bench.untraced_s": summary.untraced_s(),
        "bench.traced_wall_s": summary.wall_s,
    }
    for layer, seconds in summary.layer_self_s.items():
        metrics[f"{layer}.layer_self_s"] = seconds
    return metrics
