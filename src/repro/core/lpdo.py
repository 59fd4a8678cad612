"""Locally-purified density-operator (density-MPO) simulation of noisy registers.

The dense :class:`~repro.core.density.DensityMatrix` is exact but ``O(D^2)``
in memory, capping the paper's noise studies near 5 qutrits; the MPS backend
scales but unravels channels *stochastically*, so every noisy expectation
carries Monte-Carlo error.  This module closes the gap: a **locally purified
density operator** stores one rank-4 tensor per site,

    ``A_i`` of shape ``(chi_left, d_i, kappa_i, chi_right)``,

with a *physical* leg ``d_i``, a *Kraus* (purification) leg ``kappa_i``, and
the usual bonds.  The encoded state is ``rho = X X†`` where ``X`` is the MPS
over the joint ``(physical, Kraus)`` legs — positivity is structural, never
enforced numerically.

* **Unitaries** act on the physical legs through the tensor-train core
  shared with :class:`~repro.core.mps.MPSState`
  (:class:`~repro.core.tensor_utils.TensorTrainState`): diagonal/permutation
  gates on adjacent pairs apply through the cached operator-Schmidt bond
  expansion (no state SVD), dense gates merge a theta tensor and split with
  truncated SVD, and non-adjacent pairs route via swap insertion.
  Discarded Born weight accumulates in :attr:`LPDOState.truncation_error`.
* **Channels are exact, not sampled**: applying Kraus family ``{K_m}``
  grows the target site's Kraus leg by the factor ``m`` —
  ``A'[l, p', (k, m), r] = sum_p K_m[p', p] A[l, p, k, r]`` — which
  reproduces ``rho' = sum_m K_m rho K_m†`` with *zero* stochastic noise.
  The grown leg is then recompressed by an SVD that is lossless up to the
  leg's exact rank and, past ``max_kraus``, lossy with the discarded
  trace weight tracked in :attr:`LPDOState.purification_error`.
* **Observables** (``expectation`` / ``sample`` / ``probabilities_of``)
  contract the purification double layer locally — no dense object is ever
  built, so exact noisy evolution reaches 12-16+ qutrit registers whose
  density matrix (``3^24`` entries) could never be allocated.

The shared core keeps the canonical-form interval with QR sweeps over the
joint ``(physical, Kraus)`` leg, so truncations are locally optimal and
expectations contract only the non-orthogonal segment.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from . import budget as _budget
from .circuit import Instruction, QuditCircuit
from .exceptions import SimulationError
from .mps import MPSState
from .rng import RngLike, ensure_rng, sanitize_probabilities
from ..obs import metrics as _metrics
from .structure import classify_gate
from .tensor_utils import DENSE_CAP, Ops, TensorTrainState, _check_digits

__all__ = ["LPDOState"]


class LPDOState(TensorTrainState):
    """A (possibly mixed) qudit-register state in locally-purified form.

    Args:
        tensors: per-site tensors of shape ``(chi_l, d_i, kappa_i, chi_r)``
            with matching bonds; the first/last bonds must be 1.
        dims: per-site physical dimensions (validated against the tensors).
        max_bond: bond-dimension cap ``chi``; ``None`` evolves the bond
            exactly.
        max_kraus: Kraus-leg cap ``kappa``; ``None`` keeps every leg at its
            exact rank (lossless recompression only) — full accuracy, with
            memory growing as channels accumulate mixedness.
        svd_tol: relative singular-value cutoff shared by bond and Kraus
            truncations.

    Example:
        >>> from repro.core.channels import dephasing
        >>> qc = QuditCircuit([3, 3]); qc.fourier(0); qc.csum(0, 1)
        >>> qc.channel(dephasing(3, 0.5).kraus, 0, name="deph")
        >>> rho = LPDOState.zero([3, 3]).evolve(qc)
        >>> round(rho.probabilities_of([1, 1]), 3)
        0.333
    """

    backend = "lpdo"
    _kraus_label = "k"

    def __init__(
        self,
        tensors: Sequence[np.ndarray],
        dims: Sequence[int],
        *,
        max_bond: int | None = None,
        max_kraus: int | None = None,
        svd_tol: float = 1e-12,
    ) -> None:
        super().__init__(tensors, dims, max_bond=max_bond, svd_tol=svd_tol)
        if max_kraus is not None and max_kraus < 1:
            raise SimulationError("max_kraus must be >= 1")
        self.max_kraus = max_kraus
        #: Cumulative trace weight discarded by Kraus-leg truncations.
        self.purification_error = 0.0

    @classmethod
    def from_mps(
        cls,
        mps: MPSState,
        *,
        max_kraus: int | None = None,
    ) -> "LPDOState":
        """Pure-state LPDO of an MPS (every Kraus leg is size 1).

        The source's ``max_bond`` / ``svd_tol`` and — crucially — its
        accumulated ``truncation_error`` carry over, so the error account
        stays honest when a bounded-chi MPS seeds a noisy LPDO run.
        """
        out = cls(
            [t[:, :, None, :] for t in mps._tensors],
            mps.dims,
            max_bond=mps.max_bond,
            max_kraus=max_kraus,
            svd_tol=mps.svd_tol,
        )
        out.truncation_error = mps.truncation_error
        out._lo, out._hi = mps._lo, mps._hi
        return out

    def kraus_dimensions(self) -> tuple[int, ...]:
        """Current Kraus-leg dimension at each site (1 while pure)."""
        return tuple(t.shape[2] for t in self._tensors)

    def trace(self) -> float:
        """``Tr(rho)`` — 1 for physical states up to truncation rescaling."""
        return self._norm_sq()

    # ------------------------------------------------------------------
    # bond shrink and Kraus-leg recompression
    # ------------------------------------------------------------------
    def _shrink_bond_from_centre(self, i: int) -> None:
        """Optimally truncate the bond left of site ``i`` without a theta merge.

        Requires the canonical centre to sit at ``i`` (its left neighbour
        left-orthogonal): the Schmidt spectrum across that bond is then the
        singular spectrum of the centre's ``(chi_l, d k chi_r)`` unfolding,
        so one small SVD truncates the bond and the kept left basis is
        absorbed into the (still left-orthogonal) neighbour — far cheaper
        than merging the two sites when either Kraus leg is wide.
        """
        t = self._tensors[i]
        l, d, k, r = t.shape
        left, right = self._split_once(t.reshape(l, d * k * r))
        self._tensors[i - 1] = np.tensordot(self._tensors[i - 1], left, axes=(3, 0))
        self._tensors[i] = right.reshape(-1, d, k, r)

    def _truncate_kraus(self, site: int) -> None:
        """Recompress site ``site``'s Kraus leg after a channel grew it.

        The encoded state depends on the leg only through ``M M†`` with
        ``M`` the ``(l*d*r, kappa)`` unfolding, so an SVD keeping the
        leading singular triplets is lossless up to the leg's *numerical*
        rank and — past ``max_kraus`` — discards trace weight tracked in
        :attr:`purification_error` (the kept spectrum is rescaled so the
        trace is preserved).  Recompression runs after every channel:
        without it the leg would multiply by the Kraus count per channel
        even when the state's mixedness (the actual rank) has saturated.
        """
        t = self._tensors[site]
        k = t.shape[2]
        cap = self.max_kraus
        if k <= 1 or (k <= 2 and (cap is None or k <= cap)):
            return
        self._tensors[site] = self._compress_kraus_leg(t, cap)
        # The isometric leg rotation is only trace-preserving, not
        # orthogonality-preserving, once values are discarded — widen the
        # canonical interval so later contractions stay exact.
        self._lo = min(self._lo, site)
        self._hi = max(self._hi, site)

    def _compress_kraus_leg(self, t: np.ndarray, cap: int | None) -> np.ndarray:
        """Compress a rank-4 tensor's Kraus axis, recording discarded weight.

        Eigendecomposition of the ``kappa x kappa`` Gram matrix: same
        ``O(l d r kappa^2)`` flops as an SVD of the tall unfolding, but the
        dominant cost is a GEMM instead of a bidiagonalisation, and the
        (never needed) left factor is not computed.
        """
        l, d, k, r = t.shape
        mat = t.transpose(0, 1, 3, 2).reshape(l * d * r, k)
        gram = mat.conj().T @ mat
        lam, vec = np.linalg.eigh(gram)
        lam = np.clip(lam[::-1], 0.0, None)  # descending spectrum (= s^2)
        vec = vec[:, ::-1]
        if lam[0] <= 0:
            raise SimulationError("cannot recompress a zero Kraus leg")
        # The squared-tolerance threshold is floored at the Gram-eigh noise
        # scale: relative eigenvalue noise is ~eps, so anything below it is
        # numerically zero — without the floor svd_tol**2 (e.g. 1e-24)
        # keeps pure noise directions and legs never shrink to their rank.
        tol = max(self.svd_tol**2, 64.0 * np.finfo(float).eps)
        keep = lam > tol * lam[0]
        if cap is not None:
            keep[cap:] = False
        keep[0] = True
        total = float(np.sum(lam))
        kept = float(np.sum(lam[keep]))
        discarded = 1.0 - kept / total
        if discarded > 1e-16:
            self.purification_error += discarded
        _budget.record_purification(float(discarded), int(np.count_nonzero(keep)))
        new = (mat @ vec[:, keep]) * np.sqrt(total / kept)
        if _metrics.enabled:
            _metrics.set_gauge(
                "kraus_dim", int(np.count_nonzero(keep)), backend=self.backend
            )
            _metrics.set_gauge(
                "purification_error", self.purification_error, backend=self.backend
            )
        return np.ascontiguousarray(new.reshape(l, d, r, -1).transpose(0, 1, 3, 2))

    # ------------------------------------------------------------------
    # channels (exact: the Kraus leg absorbs the sum over operators)
    # ------------------------------------------------------------------
    def _apply_kraus_pair(self, start: int, ops: Ops) -> None:
        """Exactly apply a Kraus family on the adjacent pair ``(start, start+1)``.

        The *whole family* is Schmidt-split across the bond cut —
        ``K_m = sum_q A_q (x) B_{q,m}`` with rank ``R <= d_left^2`` — so
        each site absorbs a small local factor (bond grows by ``R``, the
        right site's Kraus leg by the Kraus count ``M``) and no merged
        theta carrying all ``M`` branches is ever materialised.  Large
        families (a joint depolarising channel has ``(d_l d_r)^2``
        operators) are accumulated onto the leg in chunks: whenever the
        accumulated leg exceeds ``limit`` and chunks remain, it is
        truncated to ``limit`` columns, so the peak leg size — and with it
        the Gram-matrix cost — stays bounded instead of scaling with ``M``.
        These interim truncations are lossy: they run off the
        orthogonality centre and rescale the kept columns by the local
        ``sqrt(total / kept)`` before later chunks are appended.

        Every chunk's ``(chi_l, chi_r)`` fibres lie in the span ``W`` of
        the right site's ``B[:, b, k, :]`` slices, of dimension at most
        ``d_right * kappa``.  When that is smaller than ``chi_l * chi_r``,
        one QR of ``B``'s ``(chi_l chi_r, d_right kappa)`` unfolding gives
        an orthonormal basis of ``W``; the chunks are built from the
        triangular factor and the accumulated leg is mapped back through
        the basis once at the end.  The basis is an isometry, so in exact
        arithmetic every Gram matrix, kept column and rescale factor is the
        one the full tensors would give, at a fraction of the rows.  Both
        grown legs are then recompressed with the site at the orthogonality
        centre, so those final ``purification_error`` /
        ``truncation_error`` fractions are exact trace weights.
        """
        d_left, d_right = self._dims[start], self._dims[start + 1]
        count = len(ops)
        family = np.stack([op for op, _ in ops]).reshape(
            count, d_left, d_right, d_left, d_right
        )
        mat = family.transpose(1, 3, 2, 4, 0).reshape(
            d_left * d_left, d_right * d_right * count
        )
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        keep = s > 1e-14 * s[0]
        u, s, vh = u[:, keep], s[keep], vh[keep]
        root = np.sqrt(s)
        left = (u * root).T.reshape(-1, d_left, d_left)
        right = (root[:, None] * vh).reshape(-1, d_right, d_right, count)
        self._canonicalize(start, start + 1)
        a, b = self._tensors[start], self._tensors[start + 1]
        la, _, ka, ra = a.shape
        lb, _, kb, rb = b.shape
        rank = left.shape[0]
        new_a = np.einsum("qab,lbkr->lakrq", left, a).reshape(la, d_left, ka, ra * rank)
        basis: np.ndarray | None = None
        if lb * rb > d_right * kb:
            # Reduced basis of the right site (see the docstring).
            basis, tri = np.linalg.qr(
                b.transpose(0, 3, 1, 2).reshape(lb * rb, d_right * kb)
            )
            b = tri.reshape(-1, d_right, kb, 1)
        rows, cols = b.shape[0], b.shape[3]
        cap = self.max_kraus
        limit = 64 if cap is None else max(4 * cap, 32)
        step = max(1, limit // max(kb, 1))
        acc: Any = None
        for first_op in range(0, count, step):
            block = right[:, :, :, first_op : first_op + step]
            piece = np.einsum("qcbm,lbkr->lqckmr", block, b, optimize=True).reshape(
                rows * rank, d_right, kb * block.shape[3], cols
            )
            acc = piece if acc is None else np.concatenate((acc, piece), axis=2)
            if acc.shape[2] > limit and first_op + step < count:
                acc = self._compress_kraus_leg(acc, None if cap is None else limit)
        if basis is not None:
            acc = np.einsum(
                "lrj,jqck->lqckr",
                basis.reshape(lb, rb, rows),
                acc.reshape(rows, rank, d_right, -1),
                optimize=True,
            ).reshape(lb * rank, d_right, -1, rb)
        self._tensors[start] = new_a
        self._tensors[start + 1] = acc
        self._lo = min(self._lo, start)
        self._hi = max(self._hi, start + 1)
        # Move the centre onto the grown site so both recompressions are
        # locally optimal, shed the Kraus growth first (it makes the bond
        # SVD that follows cheaper), then reel the expanded bond back in.
        self._canonicalize(start + 1, start + 1)
        self._truncate_kraus(start + 1)
        self._shrink_bond_from_centre(start + 1)

    def _apply_kraus_run(self, start: int, m: int, ops: Ops) -> None:
        """Exactly apply a Kraus family on ``m`` contiguous sites.

        ``rho' = sum_m K_m rho K_m†`` is reproduced with no sampling: one
        site absorbs the family directly on its Kraus leg, a pair goes
        through the family bond-split (:meth:`_apply_kraus_pair`), and
        longer runs (rare) stack every branch on a merged theta.
        """
        if m == 2:
            self._apply_kraus_pair(start, ops)
            return
        self._canonicalize(start, start + m - 1)
        theta = self._merge_theta(start, m)
        branches = [self._apply_theta(theta, st) for _, st in ops]
        stacked = np.stack(branches, axis=-2)
        merged = stacked.reshape(
            theta.shape[:-2] + (theta.shape[-2] * len(ops), theta.shape[-1])
        )
        if m == 1:
            self._tensors[start] = merged
            self._lo = min(self._lo, start)
            self._hi = max(self._hi, start)
        else:
            self._split_run(start, merged)
        self._truncate_kraus(start + m - 1)

    def _apply_channel(self, instruction: Instruction, rng: RngLike) -> None:
        """Exactly apply one channel instruction (``rng`` is ignored)."""
        ops, targets, contiguous = self._channel_ops(instruction)
        if contiguous:
            self._apply_kraus_run(targets[0], len(targets), ops)
            return
        self._route_and_apply(
            targets, lambda start: self._apply_kraus_run(start, 2, ops)
        )

    def _reset_site(self, site: int, rng: RngLike) -> None:
        """Trace out one wire and re-prepare it in |0> (exact, no sampling)."""
        d = self._dims[site]
        ops: Ops = []
        for level in range(d):
            op = np.zeros((d, d), dtype=complex)
            op[0, level] = 1.0
            ops.append((op, classify_gate(op)))
        self._apply_kraus_run(site, 1, ops)

    # ------------------------------------------------------------------
    # circuit evolution
    # ------------------------------------------------------------------
    def evolve(self, circuit: QuditCircuit, rng: RngLike = None) -> "LPDOState":
        """Run a circuit and return the evolved state (self is unchanged).

        Channels are applied *exactly* through the Kraus leg — unlike the
        MPS backend there is nothing stochastic here, so one evolution is
        the full noisy answer (``rng`` is accepted and ignored).
        """
        return self._run(circuit)

    # ------------------------------------------------------------------
    # observables
    # ------------------------------------------------------------------
    def probabilities_of(self, digits: Sequence[int]) -> float:
        """Probability ``<digits| rho |digits> / Tr(rho)`` in ``O(n chi^3 kappa)``."""
        env = np.ones((1, 1), dtype=complex)
        for t, digit in zip(self._tensors, _check_digits(self._dims, digits)):
            block = t[:, digit]
            env = np.einsum("xy,xkr,yks->rs", env, block.conj(), block, optimize=True)
        value = float(np.real(env[0, 0]))
        return value / self._norm_sq()

    # Alias matching the dense DensityMatrix surface.
    probability_of = probabilities_of

    def sample(
        self,
        shots: int,
        rng: np.random.Generator | int | None = None,
    ) -> dict[tuple[int, ...], int]:
        """Draw computational-basis outcomes by sequential site sampling.

        Each shot walks the chain once with a ``chi x chi`` conditional
        environment — no dense probability vector is ever built.
        """
        if shots < 1:
            raise SimulationError("need at least one shot")
        rng = ensure_rng(rng)
        self._canonicalize(0, 0)
        counts: dict[tuple[int, ...], int] = {}
        for _ in range(shots):
            env = np.ones((1, 1), dtype=complex)
            digits = []
            for t in self._tensors:
                cond = np.einsum("xy,xdkr,ydks->drs", env, t.conj(), t, optimize=True)
                probs = sanitize_probabilities(np.trace(cond, axis1=1, axis2=2))
                outcome = int(rng.choice(len(probs), p=probs))
                digits.append(outcome)
                weight = float(np.real(np.trace(cond[outcome])))
                env = cond[outcome] / weight
            key = tuple(digits)
            counts[key] = counts.get(key, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # densification (small registers only)
    # ------------------------------------------------------------------
    def to_density_matrix(self):
        """Contract into a dense :class:`~repro.core.density.DensityMatrix`.

        Raises:
            SimulationError: if the density matrix would exceed ~4M entries
                — at that point the LPDO *is* the representation.
        """
        if self.dim * self.dim > DENSE_CAP:
            raise SimulationError(f"register dimension {self.dim} too large to densify")
        from .density import DensityMatrix  # local import avoids a cycle

        # Double-layer contraction with each site's Kraus leg summed on the
        # spot — intermediates scale with ``D_partial^2 chi^2``, never with
        # the (globally redundant) product of Kraus legs.
        cur = np.ones((1, 1, 1, 1), dtype=complex)  # (ket, bra, r, s)
        for t in self._tensors:
            cur = np.einsum("PQcx,cdkr,xeks->PdQers", cur, t, t.conj(), optimize=True)
            cur = cur.reshape(
                cur.shape[0] * cur.shape[1],
                cur.shape[2] * cur.shape[3],
                cur.shape[4],
                cur.shape[5],
            )
        return DensityMatrix(cur[:, :, 0, 0], self.dims)

    def probabilities(self) -> np.ndarray:
        """Dense basis-outcome probability vector (small registers only)."""
        probs = self.to_density_matrix().probabilities()
        return probs / probs.sum()

    def __repr__(self) -> str:
        return (
            f"LPDOState(dims={self.dims}, max_bond={self.max_bond}, "
            f"max_kraus={self.max_kraus}, bonds={self.bond_dimensions()}, "
            f"kraus={self.kraus_dimensions()}, "
            f"truncation_error={self.truncation_error:.3e}, "
            f"purification_error={self.purification_error:.3e})"
        )
