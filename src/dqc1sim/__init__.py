"""One-clean-qubit (DQC1) trace-estimation simulator and analysis toolkit."""

__version__ = "0.1.0"

from .qmath import DensityMatrix, fidelity
from .dqc1 import (
    UnitaryMatrix,
    exact_expectations,
    normalized_trace,
    output_state,
    reduced_control,
    z_theta,
)
from .sampling import chi2_reduced, estimate_trace, shots_required
from .correlations import (
    MEASURE_CONTROL,
    MEASURE_REGISTER,
    concurrence,
    correlation_report,
    discord,
    tangle,
)
from .clifford import (
    CliffordCircuit,
    SignedPauliString,
    dqc1_clifford_expectations,
    propagate,
    verify_zero_discord,
)
from .tomography import (
    ReconstructionError,
    reconstruct,
    simulate_counts,
)

__all__ = [
    "DensityMatrix", "fidelity",
    "UnitaryMatrix", "exact_expectations", "normalized_trace", "output_state",
    "reduced_control", "z_theta",
    "chi2_reduced", "estimate_trace", "shots_required",
    "MEASURE_CONTROL", "MEASURE_REGISTER", "concurrence", "correlation_report",
    "discord", "tangle",
    "CliffordCircuit", "SignedPauliString", "dqc1_clifford_expectations", "propagate",
    "verify_zero_discord",
    "ReconstructionError", "reconstruct", "simulate_counts",
]
