"""Gate library for qudit and bosonic-mode registers.

Every function returns a dense complex ``numpy`` matrix.  Single-qudit gates
act on a ``d``-dimensional space; two-qudit gates on ``d1 * d2``.  Bosonic
gates (displacement, beam splitter, Kerr) are built from truncated ladder
operators.  They stay exactly unitary, but truncation to ``d`` Fock levels
changes their matrix elements near the cutoff, with an error controlled by
the population near the truncation edge — exactly the regime the paper's
cavity qudits operate in.

Conventions:

* Weyl (generalised Pauli) operators: ``X|k> = |k+1 mod d>``,
  ``Z|k> = w^k |k>`` with ``w = exp(2 pi i / d)``.
* Two-qudit matrices are big-endian: the first qudit is the most
  significant digit, matching :mod:`repro.core.dims`.
* ``CSUM|a,b> = |a, b+a mod d>`` — the qudit Clifford extension of CNOT
  highlighted by the paper as the key engineering challenge.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from .exceptions import DimensionError

__all__ = [
    "identity",
    "weyl_x",
    "weyl_z",
    "weyl",
    "fourier",
    "parity_op",
    "level_rotation",
    "snap",
    "rz_level",
    "number_op",
    "annihilation",
    "creation",
    "position_quadrature",
    "momentum_quadrature",
    "displacement",
    "displacement_eigenbasis",
    "kerr",
    "beamsplitter",
    "cross_kerr",
    "csum",
    "csum_dagger",
    "controlled_phase",
    "controlled_unitary",
    "permutation_gate",
    "subspace_mixer_hamiltonian",
    "qudit_mixer",
    "complete_mixer_hamiltonian",
    "qudit_complete_mixer",
    "gell_mann_basis",
    "is_unitary",
    "is_hermitian",
]


def _check_dim(d: int) -> int:
    d = int(d)
    if d < 2:
        raise DimensionError(f"gate dimension must be >= 2, got {d}")
    return d


def identity(d: int) -> np.ndarray:
    """Identity on a ``d``-level qudit."""
    return np.eye(_check_dim(d), dtype=complex)


def weyl_x(d: int, power: int = 1) -> np.ndarray:
    """Cyclic shift ``X^power``: ``|k> -> |k + power mod d>``."""
    d = _check_dim(d)
    mat = np.zeros((d, d), dtype=complex)
    for k in range(d):
        mat[(k + power) % d, k] = 1.0
    return mat


def weyl_z(d: int, power: int = 1) -> np.ndarray:
    """Clock operator ``Z^power``: ``|k> -> w^{k*power} |k>``."""
    d = _check_dim(d)
    omega = np.exp(2j * np.pi / d)
    return np.diag(omega ** (power * np.arange(d)))


def weyl(d: int, a: int, b: int) -> np.ndarray:
    """Weyl displacement ``X^a Z^b`` — the qudit Pauli group generators.

    The ``d*d`` operators ``{X^a Z^b}`` form an orthogonal basis of the
    ``d x d`` matrices under the Hilbert-Schmidt inner product; qudit
    depolarising noise is uniform over the non-identity ones.
    """
    return weyl_x(d, a) @ weyl_z(d, b)


def fourier(d: int) -> np.ndarray:
    """Discrete Fourier gate, the qudit Hadamard: ``F|k> = d^-1/2 sum_j w^{jk}|j>``."""
    d = _check_dim(d)
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * np.pi * j * k / d) / np.sqrt(d)


def parity_op(d: int) -> np.ndarray:
    """Photon-number parity ``(-1)^n`` — the observable behind Wigner readout."""
    d = _check_dim(d)
    return np.diag((-1.0 + 0j) ** np.arange(d))


def level_rotation(
    d: int, i: int, j: int, theta: float, phi: float = 0.0
) -> np.ndarray:
    """Givens rotation by ``theta`` in the ``(|i>, |j>)`` two-level subspace.

    The unitary acts as identity outside the subspace and as::

        [[cos(t/2),              -e^{-i phi} sin(t/2)],
         [e^{i phi} sin(t/2),     cos(t/2)           ]]

    on ``(|i>, |j>)``.  Sequences of these are universal for SU(d) and are
    the textbook decomposition target for qudit single-mode control.
    """
    d = _check_dim(d)
    if not (0 <= i < d and 0 <= j < d) or i == j:
        raise DimensionError(f"invalid rotation levels ({i}, {j}) for d={d}")
    mat = identity(d)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    mat[i, i] = c
    mat[j, j] = c
    mat[i, j] = -np.exp(-1j * phi) * s
    mat[j, i] = np.exp(1j * phi) * s
    return mat


def snap(d: int, phases: Sequence[float]) -> np.ndarray:
    """Selective Number-dependent Arbitrary Phase gate.

    ``SNAP(theta)|n> = e^{i theta_n}|n>`` — the transmon-mediated phase gate
    that, together with displacements, is universal for a single cavity
    mode (paper §I).  ``phases`` may be shorter than ``d``; missing entries
    default to zero phase.
    """
    d = _check_dim(d)
    if len(phases) > d:
        raise DimensionError(f"{len(phases)} phases for a {d}-level qudit")
    full = np.zeros(d)
    full[: len(phases)] = np.asarray(phases, dtype=float)
    return np.diag(np.exp(1j * full))


def rz_level(d: int, k: int, theta: float) -> np.ndarray:
    """Phase ``e^{i theta}`` on the single level ``|k>`` (a 1-hot SNAP)."""
    d = _check_dim(d)
    if not 0 <= k < d:
        raise DimensionError(f"level {k} out of range for d={d}")
    phases = np.zeros(d)
    phases[k] = theta
    return snap(d, phases)


def number_op(d: int) -> np.ndarray:
    """Photon-number operator ``n = diag(0, 1, ..., d-1)``."""
    return np.diag(np.arange(_check_dim(d), dtype=float)).astype(complex)


def annihilation(d: int) -> np.ndarray:
    """Truncated ladder operator ``a|n> = sqrt(n)|n-1>``."""
    d = _check_dim(d)
    return np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1).astype(complex)


def creation(d: int) -> np.ndarray:
    """Truncated raising operator ``a† = annihilation(d).conj().T``."""
    return annihilation(d).conj().T


def position_quadrature(d: int) -> np.ndarray:
    """``x = (a + a†)/sqrt(2)`` in the truncated Fock space."""
    a = annihilation(d)
    return (a + a.conj().T) / np.sqrt(2.0)


def momentum_quadrature(d: int) -> np.ndarray:
    """``p = -i (a - a†)/sqrt(2)`` in the truncated Fock space."""
    a = annihilation(d)
    return -1j * (a - a.conj().T) / np.sqrt(2.0)


@lru_cache(maxsize=64)
def displacement_eigenbasis(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs ``(lam, V)`` of ``H = i(a† - a) = V diag(lam) V†``.

    ``H`` is the Hermitian generator of real displacements,
    ``D(r) = exp(-i r H)``.  Cached per ``d``; the arrays are read-only so
    no caller can change the cache.
    """
    a = annihilation(d)
    lam, vecs = np.linalg.eigh(1j * (a.conj().T - a))
    lam.flags.writeable = False
    vecs.flags.writeable = False
    return lam, vecs


def displacement(d: int, alpha: complex | np.ndarray) -> np.ndarray:
    """Truncated displacement ``D(alpha) = exp(alpha a† - alpha* a)``.

    Closed form: with ``alpha = r e^{i phi}`` and ``R(phi) = diag(e^{i phi n})``,
    ``D(alpha) = R(phi) V e^{-i r lam} V† R(phi)†`` where ``V, lam`` diagonalise
    ``i(a† - a)`` (:func:`displacement_eigenbasis`).  The truncated generator
    is anti-Hermitian, so the operator is exactly unitary; truncation changes
    its matrix elements near the Fock cutoff relative to the true ``D(alpha)``,
    negligibly while ``|alpha|^2 << d`` — the physical requirement that cavity
    states stay well below the qudit cutoff.

    ``alpha`` may be an array of amplitudes; the result then stacks one
    ``d x d`` matrix per amplitude along the leading axes.
    """
    lam, vecs = displacement_eigenbasis(d)
    alpha = np.asarray(alpha, dtype=complex)[..., None]
    levels = np.arange(vecs.shape[0])
    rotated = np.exp(1j * np.angle(alpha) * levels)[..., None] * vecs
    spectrum = np.exp(-1j * np.abs(alpha) * lam)[..., None, :]
    return (rotated * spectrum) @ rotated.conj().swapaxes(-1, -2)


def kerr(d: int, chi_t: float) -> np.ndarray:
    """Self-Kerr evolution ``exp(-i chi_t n(n-1)/2)`` for angle ``chi_t``."""
    n = np.arange(_check_dim(d))
    return np.diag(np.exp(-1j * chi_t * n * (n - 1) / 2.0))


def beamsplitter(
    d1: int, d2: int, theta: float, phi: float = 0.0
) -> np.ndarray:
    """Two-mode beam-splitter ``exp(theta (e^{i phi} a† b - e^{-i phi} a b†))``.

    The native entangling interaction between cavity modes driven at their
    frequency difference (paper §I).  ``theta = pi/4`` is a 50:50 splitter;
    ``theta = pi/2`` swaps the modes (up to phases).
    """
    a = np.kron(annihilation(_check_dim(d1)), identity(d2))
    b = np.kron(identity(d1), annihilation(_check_dim(d2)))
    gen = np.exp(1j * phi) * a.conj().T @ b - np.exp(-1j * phi) * a @ b.conj().T
    return expm(theta * gen)


def cross_kerr(d1: int, d2: int, chi_t: float) -> np.ndarray:
    """Cross-Kerr evolution ``exp(-i chi_t n1 n2)`` — diagonal entangler."""
    n1 = np.arange(_check_dim(d1))
    n2 = np.arange(_check_dim(d2))
    phases = -chi_t * np.outer(n1, n2).ravel()
    return np.diag(np.exp(1j * phases))


def csum(d_control: int, d_target: int | None = None) -> np.ndarray:
    """``CSUM|a,b> = |a, b + a mod d_target>`` — qudit extension of CNOT.

    The paper singles this gate out (Table I, "main challenge") as the key
    entangling primitive for both the sQED simulation and the QAOA phase
    separator.  For mixed dimensions the shift is taken mod ``d_target``.
    """
    d_control = _check_dim(d_control)
    d_target = d_control if d_target is None else _check_dim(d_target)
    dim = d_control * d_target
    mat = np.zeros((dim, dim), dtype=complex)
    for a in range(d_control):
        for b in range(d_target):
            mat[a * d_target + (b + a) % d_target, a * d_target + b] = 1.0
    return mat


def csum_dagger(d_control: int, d_target: int | None = None) -> np.ndarray:
    """Inverse CSUM: ``|a,b> -> |a, b - a mod d_target>``."""
    return csum(d_control, d_target).conj().T


def controlled_phase(d1: int, d2: int, strength: float = 1.0) -> np.ndarray:
    """``CZ_d``-type gate ``|a,b> -> exp(2 pi i s a b / d2) |a,b>``.

    With ``strength = 1`` and ``d1 == d2 == d`` this is the qudit CZ, and
    ``(I ⊗ F†) CZ (I ⊗ F) = CSUM`` — the Fourier route to CSUM synthesis.
    """
    d1, d2 = _check_dim(d1), _check_dim(d2)
    a = np.arange(d1)
    b = np.arange(d2)
    phases = 2.0 * np.pi * strength * np.outer(a, b).ravel() / d2
    return np.diag(np.exp(1j * phases))


def controlled_unitary(
    d_control: int, unitary: np.ndarray, control_value: int
) -> np.ndarray:
    """Apply ``unitary`` to the target iff the control is ``|control_value>``."""
    d_control = _check_dim(d_control)
    if not 0 <= control_value < d_control:
        raise DimensionError(
            f"control value {control_value} out of range for d={d_control}"
        )
    unitary = np.asarray(unitary, dtype=complex)
    d_target = unitary.shape[0]
    if unitary.shape != (d_target, d_target):
        raise DimensionError("controlled_unitary requires a square matrix")
    mat = np.eye(d_control * d_target, dtype=complex)
    lo = control_value * d_target
    mat[lo : lo + d_target, lo : lo + d_target] = unitary
    return mat


def permutation_gate(perm: Sequence[int]) -> np.ndarray:
    """Basis-relabelling unitary ``|k> -> |perm[k]>``.

    NDAR's gauge remapping (paper §II.B) is exactly conjugation by these.
    """
    perm = list(perm)
    d = len(perm)
    if sorted(perm) != list(range(d)):
        raise DimensionError(f"{perm} is not a permutation of 0..{d - 1}")
    mat = np.zeros((d, d), dtype=complex)
    for k, target in enumerate(perm):
        mat[target, k] = 1.0
    return mat


def subspace_mixer_hamiltonian(d: int) -> np.ndarray:
    """Nearest-level hopping Hamiltonian ``sum_k |k><k+1| + h.c.``.

    The single-qudit mixing generator used for QAOA color mixing — it is the
    truncated quadrature ``x`` with unit matrix elements, reachable with
    sideband drives.
    """
    d = _check_dim(d)
    mat = np.zeros((d, d), dtype=complex)
    for k in range(d - 1):
        mat[k, k + 1] = 1.0
        mat[k + 1, k] = 1.0
    return mat


def qudit_mixer(d: int, beta: float) -> np.ndarray:
    """QAOA mixing unitary ``exp(-i beta H_mix)`` on one qudit."""
    return expm(-1j * beta * subspace_mixer_hamiltonian(d))


def complete_mixer_hamiltonian(d: int) -> np.ndarray:
    """All-to-all hopping ``sum_{k != l} |k><l|``.

    Unlike the nearest-level ladder this generator is invariant under any
    permutation of the levels, which makes qudit QAOA gauge-covariant
    under color relabellings — the property NDAR's remapping relies on.
    """
    d = _check_dim(d)
    return np.ones((d, d), dtype=complex) - np.eye(d, dtype=complex)


def qudit_complete_mixer(d: int, beta: float) -> np.ndarray:
    """Permutation-symmetric mixing unitary ``exp(-i beta (J - I))``.

    Memoised on ``(int(d), float(beta))``: a QAOA circuit applies the same
    mixer to every node in every round, so each angle costs one ``expm``.
    The returned array is shared and read-only.
    """
    return _complete_mixer(_check_dim(d), float(beta))


@lru_cache(maxsize=256)
def _complete_mixer(d: int, beta: float) -> np.ndarray:
    mixer = expm(-1j * beta * complete_mixer_hamiltonian(d))
    mixer.flags.writeable = False
    return mixer


def gell_mann_basis(d: int, *, include_identity: bool = False) -> list[np.ndarray]:
    """Generalised Gell-Mann matrices — a Hermitian operator basis of su(d).

    Returns ``d^2 - 1`` traceless Hermitian matrices (symmetric, antisymmetric
    and diagonal families), normalised so ``Tr(G_i G_j) = 2 delta_ij``.  Used
    by the qudit QRAC encoding (paper §II.B): problem variables are associated
    with expectation values of these observables.

    Args:
        d: qudit dimension.
        include_identity: prepend ``sqrt(2/d) I`` so the set is a complete
            orthogonal basis of Hermitian ``d x d`` matrices.
    """
    d = _check_dim(d)
    basis: list[np.ndarray] = []
    if include_identity:
        basis.append(np.sqrt(2.0 / d) * np.eye(d, dtype=complex))
    # Symmetric and antisymmetric off-diagonal families.
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            basis.append(sym)
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -1j
            asym[k, j] = 1j
            basis.append(asym)
    # Diagonal family.
    for level in range(1, d):
        diag = np.zeros(d, dtype=complex)
        diag[:level] = 1.0
        diag[level] = -float(level)
        diag *= np.sqrt(2.0 / (level * (level + 1)))
        basis.append(np.diag(diag))
    return basis


def is_unitary(mat: np.ndarray, atol: float = 1e-10) -> bool:
    """True if ``mat`` is unitary to absolute tolerance ``atol``."""
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return False
    return np.allclose(mat.conj().T @ mat, np.eye(mat.shape[0]), atol=atol)


def is_hermitian(mat: np.ndarray, atol: float = 1e-10) -> bool:
    """True if ``mat`` is Hermitian to absolute tolerance ``atol``."""
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return False
    return np.allclose(mat, mat.conj().T, atol=atol)
