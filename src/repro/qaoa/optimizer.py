"""Classical outer loop for qudit QAOA.

Nelder-Mead over the ``2p`` angles with a linear-ramp initial schedule —
the standard, restart-friendly choice for small p.  Expectation values are
exact (statevector + cost vector); the noisy/sampled path lives in
:mod:`repro.qaoa.ndar`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.exceptions import SimulationError
from .circuits import expected_clashes, qaoa_state
from .coloring import ColoringProblem

__all__ = ["QAOAResult", "linear_ramp_schedule", "optimize_qaoa"]


@dataclass(frozen=True)
class QAOAResult:
    """Optimised QAOA angles and their quality.

    Attributes:
        gammas: phase-separation angles.
        betas: mixing angles.
        expected_cost: expected clash count at the optimum.
        approximation_ratio: against brute-force best (exact for small N).
        n_evaluations: cost-function calls spent.
    """

    gammas: tuple[float, ...]
    betas: tuple[float, ...]
    expected_cost: float
    approximation_ratio: float
    n_evaluations: int


def linear_ramp_schedule(p: int, gamma_max: float = 0.8, beta_max: float = 0.6):
    """Linear-ramp initial angles: gamma ramps up, beta ramps down."""
    if p < 1:
        raise SimulationError("need at least one QAOA layer")
    ks = (np.arange(p) + 1.0) / p
    gammas = gamma_max * ks
    betas = beta_max * (1.0 - ks + 1.0 / p)
    return gammas, betas


def optimize_qaoa(
    problem: ColoringProblem,
    p: int = 1,
    permutations: list[list[int]] | None = None,
    maxiter: int = 120,
    initial: tuple[np.ndarray, np.ndarray] | None = None,
) -> QAOAResult:
    """Optimise the 2p QAOA angles by Nelder-Mead.

    Args:
        problem: coloring instance.
        p: QAOA depth.
        permutations: optional NDAR gauge remap folded into the cost —
            note the *scored* cost is remapped accordingly.
        maxiter: Nelder-Mead iteration cap.
        initial: optional ``(gammas, betas)`` warm start.

    Returns:
        A :class:`QAOAResult`.
    """
    from scipy.optimize import minimize

    cost_vector = problem.cost_vector()
    if permutations is not None:
        cost_vector = _remap_cost_vector(problem, cost_vector, permutations)
    evaluations = 0

    def objective(params: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        gammas, betas = params[:p], params[p:]
        state = qaoa_state(problem, gammas, betas, permutations)
        return expected_clashes(problem, state, cost_vector)

    if initial is None:
        g0, b0 = linear_ramp_schedule(p)
    else:
        g0, b0 = initial
    x0 = np.concatenate([g0, b0])
    res = minimize(
        objective, x0, method="Nelder-Mead", options={"maxiter": maxiter, "fatol": 1e-4}
    )
    gammas, betas = res.x[:p], res.x[p:]
    expected = float(res.fun)
    ratio = problem.approximation_ratio(expected)
    return QAOAResult(
        gammas=tuple(float(g) for g in gammas),
        betas=tuple(float(b) for b in betas),
        expected_cost=expected,
        approximation_ratio=ratio,
        n_evaluations=evaluations,
    )


def _remap_cost_vector(
    problem: ColoringProblem,
    cost_vector: np.ndarray,
    permutations: list[list[int]],
) -> np.ndarray:
    """Cost vector of the gauge-remapped problem: cost'(x) = cost(pi(x))."""
    from ..core.dims import digit_matrix

    digits = digit_matrix(problem.dims)
    remapped = np.empty_like(cost_vector)
    perm_arrays = [np.asarray(p) for p in permutations]
    mapped_digits = np.column_stack(
        [perm_arrays[node][digits[:, node]] for node in range(problem.n_nodes)]
    )
    # flat index of mapped digits (same dims for every wire)
    d = problem.n_colors
    flat = np.zeros(len(cost_vector), dtype=np.int64)
    for node in range(problem.n_nodes):
        flat = flat * d + mapped_digits[:, node]
    remapped = cost_vector[flat]
    return remapped
