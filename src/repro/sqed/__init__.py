"""sQED / U(1) lattice-gauge simulation application (paper §II.A)."""

from .encodings import QubitEncoding, QuditEncoding, insert_depolarizing_noise
from .noise_study import (
    EncodingComparison,
    compare_encodings,
    noise_threshold,
    trajectory_damage,
)
from .observables import (
    MassGapResult,
    estimate_mass_gap,
    exact_gap_trajectory,
    gap_probe_state,
    trotter_gap_trajectory,
)
from .pauli import PauliTerm, matrix_to_pauli_terms, pauli_terms_to_matrix
from .rotor import HamiltonianTerm, RotorChain, RotorSiteOperators
from .rotor2d import RotorLadder2D, ladder_mode_layout
from .rotor3d import RotorLattice3D, SwapNetworkEstimate, swap_network_overhead
from .trotter import (
    evolve_observable_trajectory,
    exact_observable_trajectory,
    second_order_step_from_terms,
    trotter_circuit,
    trotter_step_from_terms,
)

__all__ = [
    "QubitEncoding",
    "QuditEncoding",
    "insert_depolarizing_noise",
    "EncodingComparison",
    "compare_encodings",
    "noise_threshold",
    "trajectory_damage",
    "MassGapResult",
    "estimate_mass_gap",
    "exact_gap_trajectory",
    "gap_probe_state",
    "trotter_gap_trajectory",
    "PauliTerm",
    "matrix_to_pauli_terms",
    "pauli_terms_to_matrix",
    "HamiltonianTerm",
    "RotorChain",
    "RotorSiteOperators",
    "RotorLadder2D",
    "ladder_mode_layout",
    "RotorLattice3D",
    "SwapNetworkEstimate",
    "swap_network_overhead",
    "evolve_observable_trajectory",
    "exact_observable_trajectory",
    "second_order_step_from_terms",
    "trotter_circuit",
    "trotter_step_from_terms",
]
