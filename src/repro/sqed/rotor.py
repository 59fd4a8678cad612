"""Truncated U(1) rotor-chain Hamiltonian — the sQED workhorse.

Following the paper's description of Gustafson's model (ref [11]): after
integrating out the scalar matter, the (1+1)D sQED Hamiltonian on ``Ns``
linear sites reduces to "linear and quadratic terms (involving only single
or adjacent sites) composed by ladder and diagonal operators
``Lz|m> = m|m>``".  Concretely we implement::

    H =  sum_i [ (g2/2) Lz_i^2  +  mu Lz_i ]
       + sum_<ij> [ J (U_i U_j† + h.c.)  +  c Lz_i Lz_j ]

with ``U|m> = |m+1>`` the (truncated) raising ladder.  The infinite rotor
tower is truncated to ``m in {-s, ..., +s}`` giving a ``d = 2s+1``-level
qudit per site — ``s=1`` is the qutrit encoding of ref [11]; higher ``s``
is the "qudits beyond qutrits (max m = d)" generalisation the paper
proposes.

:class:`RotorLattice` is the base the chain, the 2D ladder and the 3D
lattice share: it assembles the Hamiltonian from ``terms()`` as a sparse
matrix and reads gaps off it with Lanczos (ARPACK), so gaps are computed
well past the sizes a dense ``eigvalsh`` reaches.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh

from ..core.exceptions import DimensionError

__all__ = ["RotorSiteOperators", "HamiltonianTerm", "RotorLattice", "RotorChain"]

#: Largest register :meth:`RotorLattice.to_matrix` builds densely.
MAX_DENSE_DIM = 8192
#: Largest register :meth:`RotorLattice.to_sparse` assembles (3^12 and
#: 5^8 fit; a 2^20 Lanczos basis of 20 vectors is ~170 MB).
MAX_SPARSE_DIM = 1 << 20
#: Seed of the Lanczos start vector, fixed so every gap is reproducible.
LANCZOS_SEED = 0


@dataclass(frozen=True)
class RotorSiteOperators:
    """Single-site operators of the truncated rotor.

    Attributes:
        spin: truncation ``s``; the site dimension is ``d = 2s + 1``.
    """

    spin: int

    def __post_init__(self) -> None:
        if self.spin < 1:
            raise DimensionError(f"truncation spin {self.spin} must be >= 1")

    @property
    def dim(self) -> int:
        """Site dimension ``2s + 1``."""
        return 2 * self.spin + 1

    def lz(self) -> np.ndarray:
        """Electric-field operator ``Lz = diag(-s, ..., +s)``."""
        return np.diag(np.arange(-self.spin, self.spin + 1, dtype=float)).astype(
            complex
        )

    def raising(self) -> np.ndarray:
        """Link raising operator ``U|m> = |m+1>`` (zero at the top)."""
        d = self.dim
        mat = np.zeros((d, d), dtype=complex)
        for k in range(d - 1):
            mat[k + 1, k] = 1.0
        return mat

    def lowering(self) -> np.ndarray:
        """``U† = raising().conj().T``."""
        return self.raising().conj().T

    def hop(self) -> np.ndarray:
        """Two-site exchange ``U (x) U† + U† (x) U``."""
        raising, lowering = self.raising(), self.lowering()
        return np.kron(raising, lowering) + np.kron(lowering, raising)


@dataclass(frozen=True)
class HamiltonianTerm:
    """One local term ``coefficient * O_1 (x) O_2 (x) ...`` on given sites.

    Attributes:
        sites: site indices, ascending, length 1 or 2.
        operator: dense Hermitian matrix over the listed sites (big-endian).
        label: human-readable tag (``'electric'``, ``'hop'``, ``'zz'``...).
    """

    sites: tuple[int, ...]
    operator: np.ndarray
    label: str

    @property
    def n_sites(self) -> int:
        """Locality of the term."""
        return len(self.sites)


class RotorLattice:
    """Shared Hamiltonian machinery of the rotor lattices.

    A lattice supplies ``n_sites``, ``ops`` and ``terms()``; this base
    assembles the register Hamiltonian from the terms and reads spectra
    off it.  Nothing is built until a method asks for it.
    """

    n_sites: int
    ops: RotorSiteOperators

    def terms(self) -> list[HamiltonianTerm]:
        """All local Hamiltonian terms, in a fixed order."""
        raise NotImplementedError

    @property
    def site_dim(self) -> int:
        """Per-site qudit dimension."""
        return self.ops.dim

    @property
    def dims(self) -> tuple[int, ...]:
        """Register dimensions ``(d, d, ..., d)``."""
        return (self.site_dim,) * self.n_sites

    def to_sparse(self) -> sparse.csr_matrix:
        """Hamiltonian over the full register as a CSR matrix.

        Each term is scattered by index arithmetic on the register
        digits and the terms are summed in ``terms()`` order, so every
        entry is the floating-point sum :meth:`to_matrix` forms.

        Raises:
            DimensionError: above total dimension ``MAX_SPARSE_DIM``.
        """
        d, dim = self.site_dim, self.site_dim**self.n_sites
        if dim > MAX_SPARSE_DIM:
            raise DimensionError(
                f"total dimension {dim} exceeds MAX_SPARSE_DIM = {MAX_SPARSE_DIM}"
            )
        index = np.arange(dim)
        strides = d ** np.arange(self.n_sites - 1, -1, -1)
        ham = sparse.csr_matrix((dim, dim), dtype=complex)
        for term in self.terms():
            # ``base``: registers with every term site at level 0;
            # ``offsets[b]``: what local basis state ``b`` adds to them.
            base = index
            offsets = np.zeros(1, dtype=index.dtype)
            for site in term.sites:
                base = base[base // strides[site] % d == 0]
                offsets = (offsets[:, None] + np.arange(d) * strides[site]).ravel()
            outs, ins = np.nonzero(term.operator)
            rows = (offsets[outs, None] + base).ravel()
            cols = (offsets[ins, None] + base).ravel()
            vals = np.repeat(term.operator[outs, ins], base.size)
            ham = ham + sparse.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
        return ham

    def to_matrix(self) -> np.ndarray:
        """Dense Hamiltonian by embedding every term (small-D oracle).

        Raises:
            DimensionError: above total dimension ``MAX_DENSE_DIM``.
        """
        from ..core.statevector import embed_unitary

        dim = self.site_dim**self.n_sites
        if dim > MAX_DENSE_DIM:
            raise DimensionError(
                f"total dimension {dim} exceeds MAX_DENSE_DIM = {MAX_DENSE_DIM}"
            )
        ham = np.zeros((dim, dim), dtype=complex)
        for term in self.terms():
            ham += embed_unitary(term.operator, self.dims, term.sites)
        return ham

    def spectrum(self, k: int | None = None) -> np.ndarray:
        """Lowest ``k`` eigenvalues, ascending (all of them if omitted).

        For ``1 <= k < D`` Lanczos (ARPACK ``eigsh``) runs on
        :meth:`to_sparse` from a start vector seeded with
        ``LANCZOS_SEED``; ``k`` omitted or equal to ``D`` diagonalises
        :meth:`to_matrix` densely.

        Raises:
            DimensionError: if ``k`` is outside ``[1, D]``.
        """
        dim = self.site_dim**self.n_sites
        if k is None or k == dim:
            return np.linalg.eigvalsh(self.to_matrix())
        if not 1 <= k < dim:
            raise DimensionError(f"asked for {k} eigenvalues, need 1 <= k <= {dim}")
        ham = self.to_sparse()
        if not ham.data.imag.any():
            ham = ham.real
        start = np.random.default_rng(LANCZOS_SEED).standard_normal(dim)
        eigs = eigsh(ham, k=k, which="SA", tol=0, v0=start, return_eigenvectors=False)
        return np.sort(eigs)

    def mass_gap(self) -> float:
        """Spectral gap ``E_1 - E_0`` — the observable ref [11] extracts."""
        eigs = self.spectrum(2)
        return float(eigs[1] - eigs[0])

    def ground_state(self) -> np.ndarray:
        """Ground-state amplitudes by dense exact diagonalisation."""
        _, vecs = np.linalg.eigh(self.to_matrix())
        return vecs[:, 0]

    def __repr__(self) -> str:
        args = ", ".join(
            f"{name}={self.ops.spin if name == 'spin' else getattr(self, name)!r}"
            for name in inspect.signature(type(self)).parameters
        )
        return f"{type(self).__name__}({args})"


class RotorChain(RotorLattice):
    """The truncated U(1) rotor chain on ``n_sites`` linear sites.

    Args:
        n_sites: number of lattice sites (>= 2).
        spin: rotor truncation; site dimension is ``2*spin + 1``.
        g2: gauge coupling (coefficient of ``Lz^2 / 2``).
        hopping: coefficient ``J`` of the ladder hopping term.
        mu: linear (background-field) coefficient.
        zz: nearest-neighbour ``Lz Lz`` coefficient.
        periodic: wrap the chain into a ring.
    """

    # Class-level copies: paperbench's tracer patches these two by name
    # on RotorChain itself to time the exact-diagonalisation path.
    spectrum = RotorLattice.spectrum
    to_matrix = RotorLattice.to_matrix

    def __init__(
        self,
        n_sites: int,
        spin: int = 1,
        g2: float = 1.0,
        hopping: float = 0.3,
        mu: float = 0.0,
        zz: float = 0.0,
        periodic: bool = False,
    ) -> None:
        if n_sites < 2:
            raise DimensionError("rotor chain needs at least 2 sites")
        self.n_sites = int(n_sites)
        self.ops = RotorSiteOperators(spin)
        self.g2 = float(g2)
        self.hopping = float(hopping)
        self.mu = float(mu)
        self.zz = float(zz)
        self.periodic = bool(periodic)

    def bonds(self) -> list[tuple[int, int]]:
        """Nearest-neighbour site pairs."""
        pairs = [(i, i + 1) for i in range(self.n_sites - 1)]
        if self.periodic and self.n_sites > 2:
            pairs.append((0, self.n_sites - 1))
        return pairs

    def terms(self) -> list[HamiltonianTerm]:
        """All local Hamiltonian terms (single-site + bond terms)."""
        lz = self.ops.lz()
        out: list[HamiltonianTerm] = []
        for site in range(self.n_sites):
            local = 0.5 * self.g2 * (lz @ lz) + self.mu * lz
            if np.abs(local).max() > 0:
                out.append(HamiltonianTerm((site,), local, "electric"))
        for i, j in self.bonds():
            if self.hopping != 0.0:
                out.append(
                    HamiltonianTerm((i, j), self.hopping * self.ops.hop(), "hop")
                )
            if self.zz != 0.0:
                out.append(HamiltonianTerm((i, j), self.zz * np.kron(lz, lz), "zz"))
        return out
