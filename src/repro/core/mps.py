"""Matrix-product-state simulation of large mixed-dimension qudit registers.

Every other backend in :mod:`repro.core` stores the full ``D = prod(dims)``
state, which caps paper-scale studies near 7-9 qutrits.  An MPS stores one
rank-3 tensor per site — ``(chi_left, d_site, chi_right)`` — so memory and
time scale with the *entanglement* (bond dimension ``chi``) instead of the
register size, opening 15-20+ qutrit circuits whose dense statevector could
never be allocated.

Evolution is TEBD-style local gate contraction with SVD truncation:

* **single-site gates** contract into one tensor — never any SVD;
* **adjacent two-site diagonal/permutation gates** (controlled-phase, CSUM,
  the NDAR relabellings — classified by :mod:`repro.core.structure`) are
  applied through a cached *operator-Schmidt* factorisation ``U = sum_k
  S_k (x) T_k``: the bond expands exactly by the operator rank with **no
  state SVD and zero truncation error** as long as the expanded bond stays
  within the cap (a lazy zero-loss compression reels the bond back in when
  it exceeds the exact rank bound);
* **adjacent dense two-site gates** (and structured gates whose expansion
  would blow the cap) merge the pair into a theta tensor — with the
  diagonal/permutation theta update still an elementwise multiply/gather,
  no gate reshape — and split by truncated SVD, accumulating the discarded
  Born weight in :attr:`MPSState.truncation_error`;
* **non-adjacent two-qudit gates** route via adjacent-site swap insertion
  (a theta transpose + SVD per hop, handling unequal neighbour dimensions
  transparently) and swap back afterwards;
* **channels** are unravelled stochastically per trajectory: Born weights
  come from the local environment (the orthogonality-centre invariant makes
  them exact), with a constant-weight fast path for channels whose Kraus
  operators all satisfy ``K†K ∝ I`` (depolarising / Weyl channels).

The canonical form, the SVD splits, the unitary path and the expectation
values are the tensor-train core shared with the LPDO engine
(:class:`~repro.core.tensor_utils.TensorTrainState`); this module adds the
stochastic channel unravelling, amplitudes, sampling and densification.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .circuit import Instruction, QuditCircuit
from .exceptions import DimensionError, SimulationError
from .rng import RngLike, ensure_rng
from .structure import GateStructure
from .tensor_utils import (
    DENSE_CAP,
    Ops,
    TensorTrainState,
    _check_digits,
    operator_schmidt_factors,
)

__all__ = ["MPSState", "operator_schmidt_factors"]


def _gram_diag(op: np.ndarray, structure: GateStructure) -> np.ndarray | None:
    """Diagonal of ``K†K`` if it is exactly diagonal, else ``None``.

    Structured operators never need the matrix product: a diagonal ``K``
    has gram ``|diag|^2`` and a monomial ``K`` has ``gram[source[r]] =
    |values[r]|^2``.
    """
    if structure.diag is not None:
        return np.abs(structure.diag) ** 2
    if structure.source is not None:
        out = np.empty(structure.dim)
        values = structure.values
        out[structure.source] = 1.0 if values is None else np.abs(values) ** 2
        return out
    gram = op.conj().T @ op
    off = gram.copy()
    np.fill_diagonal(off, 0)
    if off.any():
        return None
    return np.real(np.diagonal(gram)).copy()


class MPSState(TensorTrainState):
    """A pure state of a qudit register in matrix-product form.

    Args:
        tensors: per-site tensors of shape ``(chi_l, d_i, chi_r)`` with
            matching bonds; the first/last bonds must be 1.
        dims: per-site dimensions (validated against the tensors).
        max_bond: bond-dimension cap ``chi``; ``None`` evolves exactly
            (bond grows as entanglement demands — feasible only for small
            or weakly-entangled registers).
        svd_tol: relative singular-value cutoff; values below
            ``svd_tol * s_max`` are always discarded (they carry only
            numerical noise).

    Example:
        >>> qc = QuditCircuit([3, 3]); qc.fourier(0); qc.csum(0, 1)
        >>> mps = MPSState.zero([3, 3]).evolve(qc)
        >>> round(mps.probability_of([1, 1]), 3)
        0.333
    """

    backend = "mps"
    _kraus_label = ""

    def norm(self) -> float:
        """2-norm of the encoded state."""
        return float(np.sqrt(max(self._norm_sq(), 0.0)))

    def _renormalize(self) -> None:
        norm = self.norm()
        if norm < 1e-300:
            raise SimulationError("cannot normalise a zero MPS")
        self._tensors[self._lo] = self._tensors[self._lo] / norm

    # ------------------------------------------------------------------
    # channels / reset (stochastic unravelling, one trajectory)
    # ------------------------------------------------------------------
    def _kraus_weights_local(
        self, start: int, k: int, ops: Ops
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Candidate branches and Born weights on a contiguous run.

        With the canonical interval shrunk onto the run, the environment
        is orthogonal and ``||K theta||_F^2`` *is* the Born weight.
        """
        self._canonicalize(start, start + k - 1)
        theta = self._merge_theta(start, k)
        candidates = []
        weights = np.empty(len(ops))
        for idx, (_, structure) in enumerate(ops):
            cand = self._apply_theta(theta, structure)
            candidates.append(cand)
            weights[idx] = float(np.real(np.vdot(cand, cand)))
        return candidates, weights

    def _apply_channel(self, instruction: Instruction, rng: RngLike) -> None:
        """Stochastically apply one Kraus branch with its Born probability."""
        gen = ensure_rng(rng)
        ops, targets, contiguous = self._channel_ops(instruction)
        k = len(targets)
        grams = [_gram_diag(op, st) for op, st in ops]
        uniform = [
            g
            for g in grams
            if g is not None and np.ptp(g) <= 1e-12 * (np.abs(g).max() + 1e-30)
        ]
        if len(uniform) == len(grams):
            # K†K ∝ I for every branch: weights are state-independent.
            weights = np.array([g[0] for g in uniform])
            choice = int(gen.choice(len(ops), p=weights / weights.sum()))
            _, st = ops[choice]
            if contiguous:
                if k == 1:
                    self._apply_site(targets[0], st, unitary=False)
                else:
                    self._apply_run(targets[0], k, st)
                    self._lo = min(self._lo, targets[0])
            else:
                self._route_and_apply(
                    targets, lambda start: self._apply_run(start, 2, st)
                )
            self._renormalize()
            return

        def _choose(start: int, run: int) -> None:
            candidates, weights = self._kraus_weights_local(start, run, ops)
            total = weights.sum()
            if total <= 0:
                raise SimulationError("all Kraus branches annihilated the state")
            choice = int(gen.choice(len(ops), p=weights / total))
            theta = candidates[choice] / np.sqrt(weights[choice])
            if run == 1:
                self._tensors[start] = theta
                self._lo = min(self._lo, start)
                self._hi = max(self._hi, start)
            else:
                self._split_run(start, theta)

        if contiguous:
            _choose(targets[0], k)
        else:
            self._route_and_apply(targets, lambda start: _choose(start, 2))

    def _reset_site(self, site: int, rng: RngLike) -> None:
        """Projectively measure one wire and re-prepare it in |0>."""
        rng = ensure_rng(rng)
        self._canonicalize(site, site)
        t = self._tensors[site]
        probs = np.real(np.einsum("lsr,lsr->s", t.conj(), t))
        total = probs.sum()
        if total <= 0:
            raise SimulationError("cannot measure a zero-norm state")
        outcome = int(rng.choice(len(probs), p=probs / total))
        collapsed = np.zeros_like(t)
        collapsed[:, 0, :] = t[:, outcome, :] / np.sqrt(probs[outcome] / total)
        self._tensors[site] = collapsed

    # ------------------------------------------------------------------
    # circuit evolution
    # ------------------------------------------------------------------
    def evolve(self, circuit: QuditCircuit, rng: RngLike = None) -> "MPSState":
        """Run a circuit and return the evolved state (self is unchanged).

        Channel instructions are unravelled stochastically — this is *one*
        trajectory; average several evolutions (or use the ``mps`` backend
        with ``n_trajectories``) to estimate noisy expectations.

        Args:
            circuit: circuit over the same register dims.
            rng: generator / integer seed for stochastic instructions,
                resolved once for the whole run (``None`` uses the shared
                global generator from :mod:`repro.core.rng`).
        """
        gen = None
        if circuit.is_noisy():
            gen = ensure_rng(rng)
        return self._run(circuit, gen)

    # ------------------------------------------------------------------
    # observables
    # ------------------------------------------------------------------
    def amplitude(self, digits: Sequence[int]) -> complex:
        """Amplitude ``<digits|psi>`` in ``O(n chi^2)``."""
        digits = _check_digits(self._dims, digits)
        vec = self._tensors[0][:, digits[0], :]
        for i in range(1, self.num_sites):
            vec = vec @ self._tensors[i][:, digits[i], :]
        return complex(vec[0, 0])

    def probability_of(self, digits: Sequence[int]) -> float:
        """Probability of one basis outcome (normalised)."""
        return float(np.abs(self.amplitude(digits)) ** 2 / self._norm_sq())

    def sample(
        self,
        shots: int,
        rng: np.random.Generator | int | None = None,
    ) -> dict[tuple[int, ...], int]:
        """Draw computational-basis outcomes by sequential site sampling.

        Each shot walks the chain once (``O(n d chi^2)``) — no dense
        probability vector is ever built, so sampling works at register
        sizes where ``prod(dims)`` outcomes could not even be enumerated.
        """
        if shots < 1:
            raise SimulationError("need at least one shot")
        rng = ensure_rng(rng)
        self._canonicalize(0, 0)
        counts: dict[tuple[int, ...], int] = {}
        for _ in range(shots):
            prefix = np.ones((1,), dtype=complex)
            digits = []
            for i in range(self.num_sites):
                amps = np.einsum("a,adr->dr", prefix, self._tensors[i])
                probs = np.real(np.einsum("dr,dr->d", amps.conj(), amps))
                total = probs.sum()
                if total <= 0:
                    raise SimulationError("cannot sample a zero-norm state")
                outcome = int(rng.choice(len(probs), p=probs / total))
                digits.append(outcome)
                prefix = amps[outcome] / np.sqrt(probs[outcome])
            key = tuple(digits)
            counts[key] = counts.get(key, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # densification (small registers only)
    # ------------------------------------------------------------------
    def to_statevector(self):
        """Contract into a dense :class:`~repro.core.statevector.Statevector`.

        Raises:
            SimulationError: if the register dimension exceeds ~4M
                amplitudes — at that point the MPS *is* the representation.
        """
        if self.dim > DENSE_CAP:
            raise SimulationError(f"register dimension {self.dim} too large to densify")
        from .statevector import Statevector  # local import avoids a cycle

        vec = self._tensors[0].reshape(self._dims[0], -1)
        for i in range(1, self.num_sites):
            t = self._tensors[i]
            vec = (vec @ t.reshape(t.shape[0], -1)).reshape(-1, t.shape[2])
        return Statevector(vec.reshape(-1), self.dims)

    def probabilities(self) -> np.ndarray:
        """Dense Born-rule probability vector (small registers only)."""
        probs = self.to_statevector().probabilities()
        return probs / probs.sum()

    def fidelity(self, other: "MPSState") -> float:
        """``|<self|other>|^2 / (<self|self><other|other>)`` via bond contraction."""
        if other.dims != self.dims:
            raise DimensionError("fidelity requires matching register dims")
        env = np.ones((1, 1), dtype=complex)
        for a, b in zip(self._tensors, other._tensors):
            env = np.einsum("xy,xdr,yds->rs", env, a.conj(), b, optimize=True)
        overlap = float(np.abs(env[0, 0]) ** 2)
        return overlap / (self._norm_sq() * other._norm_sq())

    def __repr__(self) -> str:
        return (
            f"MPSState(dims={self.dims}, max_bond={self.max_bond}, "
            f"bonds={self.bond_dimensions()}, "
            f"truncation_error={self.truncation_error:.3e})"
        )
