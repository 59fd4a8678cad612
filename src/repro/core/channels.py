"""Qudit noise channels as Kraus-operator families.

These channels model the error processes the paper calls out for cavity
qudits: photon loss (amplitude damping in the Fock basis), dephasing from
the dispersive transmon coupling, and generic depolarising noise over the
Weyl (generalised Pauli) group used for encoding-comparison studies.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

import numpy as np

from .exceptions import DimensionError
from .gates import weyl, weyl_z

__all__ = [
    "QuditChannel",
    "depolarizing",
    "dephasing",
    "photon_loss",
    "thermal_heating",
    "weyl_channel",
    "unitary_channel",
    "identity_channel",
    "loss_probability_from_t1",
    "dephasing_probability_from_t2",
]


class QuditChannel:
    """A completely-positive trace-preserving map given by Kraus operators.

    Attributes:
        name: channel name for bookkeeping.
        kraus: tuple of Kraus matrices ``K_i`` with ``sum K_i† K_i = I``.
        depolarizing_p: the probability ``p`` of a family built by
            :func:`depolarizing`, ``None`` for every other channel.
            :meth:`QuditCircuit.channel` carries it onto the instruction.
    """

    def __init__(
        self,
        kraus: Sequence[np.ndarray],
        name: str = "channel",
        atol: float = 1e-8,
    ) -> None:
        ops = tuple(np.asarray(k, dtype=complex) for k in kraus)
        if not ops:
            raise DimensionError("channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
        for op in ops:
            if op.shape != (dim, dim):
                raise DimensionError("all Kraus operators must be square, same dim")
        total = sum(op.conj().T @ op for op in ops)
        if not np.allclose(total, np.eye(dim), atol=atol):
            raise DimensionError(
                f"channel {name!r} is not trace preserving "
                f"(max deviation {np.abs(total - np.eye(dim)).max():.2e})"
            )
        self.name = name
        self.kraus = ops
        self.depolarizing_p: float | None = None

    @property
    def dim(self) -> int:
        """Hilbert-space dimension the channel acts on."""
        return self.kraus[0].shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Apply the channel to a density matrix."""
        rho = np.asarray(rho, dtype=complex)
        out = np.zeros_like(rho)
        for op in self.kraus:
            out += op @ rho @ op.conj().T
        return out

    def compose(self, other: "QuditChannel") -> "QuditChannel":
        """Channel running ``self`` then ``other`` (``other ∘ self``)."""
        if other.dim != self.dim:
            raise DimensionError("cannot compose channels of different dims")
        ops = [b @ a for a in self.kraus for b in other.kraus]
        return QuditChannel(ops, name=f"{other.name}∘{self.name}")

    def average_fidelity(self) -> float:
        """Average gate fidelity of the channel relative to identity.

        Uses ``F_avg = (sum_i |Tr K_i|^2 / d + 1) / (d + 1)``, the standard
        entanglement-fidelity formula.
        """
        d = self.dim
        ent = sum(abs(np.trace(k)) ** 2 for k in self.kraus) / d**2
        return float((ent * d + 1.0) / (d + 1.0))

    def __repr__(self) -> str:
        return (
            f"QuditChannel(name={self.name!r}, dim={self.dim}, "
            f"n_kraus={len(self.kraus)})"
        )


def identity_channel(d: int) -> QuditChannel:
    """The do-nothing channel."""
    return QuditChannel([np.eye(d, dtype=complex)], name="id")


def unitary_channel(unitary: np.ndarray, name: str = "unitary") -> QuditChannel:
    """Wrap a unitary as a single-Kraus channel."""
    return QuditChannel([np.asarray(unitary, dtype=complex)], name=name)


def depolarizing(d: int, p: float) -> QuditChannel:
    """Qudit depolarising channel.

    With probability ``p`` the state is hit by a uniformly random
    *non-identity* Weyl operator ``X^a Z^b``; with probability ``1-p``
    nothing happens.  This is the error model used in the encoding-threshold
    study (paper §II.A via ref [11]).

    Families are memoised on ``(int(d), float(p))``: repeated calls return
    the same channel object, whose Kraus arrays are read-only, so the
    trace-preservation check runs once per family.  The channel records
    ``p`` as :attr:`QuditChannel.depolarizing_p`.  Because the Weyl group
    twirls every operator to its trace, the density engine applies such a
    channel in closed form, ``(1 - λ) ρ + λ Tr_S(ρ) ⊗ I/d`` with
    ``λ = p d² / (d² - 1)``, instead of contracting ``d²`` operators.
    """
    d, p = int(d), float(p)
    if not 0.0 <= p <= 1.0:
        raise DimensionError(f"probability p={p} outside [0, 1]")
    return _depolarizing(d, p)


@functools.lru_cache(maxsize=128)
def _depolarizing(d: int, p: float) -> QuditChannel:
    n_errors = d * d - 1
    ops = [math.sqrt(1.0 - p) * np.eye(d, dtype=complex)]
    for a in range(d):
        for b in range(d):
            if a == 0 and b == 0:
                continue
            ops.append(math.sqrt(p / n_errors) * weyl(d, a, b))
    channel = QuditChannel(ops, name=f"depol(d={d},p={p:.3g})")
    for op in channel.kraus:
        op.flags.writeable = False
    channel.depolarizing_p = p
    return channel


def dephasing(d: int, p: float) -> QuditChannel:
    """Weyl dephasing: random ``Z^k`` (k != 0) with total probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise DimensionError(f"probability p={p} outside [0, 1]")
    ops = [math.sqrt(1.0 - p) * np.eye(d, dtype=complex)]
    for k in range(1, d):
        ops.append(math.sqrt(p / (d - 1)) * weyl_z(d, k))
    return QuditChannel(ops, name=f"dephase(d={d},p={p:.3g})")


def photon_loss(d: int, gamma: float) -> QuditChannel:
    """Bosonic amplitude damping over ``d`` Fock levels.

    Each photon independently survives with probability ``1 - gamma``; the
    Kraus operator for losing ``l`` photons is::

        K_l = sum_n sqrt(C(n, l)) sqrt((1-gamma)^(n-l) gamma^l) |n-l><n|

    This is the dominant cavity error process and the attractor NDAR
    exploits: repeated loss drives any state toward ``|0>``.
    """
    if not 0.0 <= gamma <= 1.0:
        raise DimensionError(f"loss probability gamma={gamma} outside [0, 1]")
    ops = []
    for lost in range(d):
        op = np.zeros((d, d), dtype=complex)
        for n in range(lost, d):
            amp = math.sqrt(math.comb(n, lost)) * math.sqrt(
                (1.0 - gamma) ** (n - lost) * gamma**lost
            )
            op[n - lost, n] = amp
        ops.append(op)
    return QuditChannel(ops, name=f"loss(d={d},g={gamma:.3g})")


def thermal_heating(d: int, epsilon: float) -> QuditChannel:
    """Weak thermal excitation: raise ``|n> -> |n+1>`` with probability ~``epsilon``.

    First-order model of the small upward transition rate present in real
    cavities (n_th > 0).  The top Fock level has nowhere to go and is left
    untouched.  Valid for ``epsilon << 1``.
    """
    if not 0.0 <= epsilon <= 0.5:
        raise DimensionError(f"heating probability {epsilon} outside [0, 0.5]")
    raise_op = np.zeros((d, d), dtype=complex)
    for n in range(d - 1):
        raise_op[n + 1, n] = math.sqrt(epsilon)
    keep = np.diag(np.sqrt(1.0 - epsilon * (np.arange(d) < d - 1)))
    return QuditChannel(
        [keep.astype(complex), raise_op], name=f"heat(d={d},e={epsilon:.3g})"
    )


def weyl_channel(d: int, probabilities: dict[tuple[int, int], float]) -> QuditChannel:
    """General Weyl (qudit Pauli) channel with per-``(a, b)`` probabilities.

    The identity component is inferred so probabilities sum to 1.
    """
    total = sum(probabilities.values())
    if total > 1.0 + 1e-12 or any(p < 0 for p in probabilities.values()):
        raise DimensionError("Weyl probabilities must be >= 0 and sum to <= 1")
    ops = [math.sqrt(max(0.0, 1.0 - total)) * np.eye(d, dtype=complex)]
    for (a, b), p in sorted(probabilities.items()):
        if p > 0:
            ops.append(math.sqrt(p) * weyl(d, a % d, b % d))
    return QuditChannel(ops, name=f"weyl(d={d})")


def loss_probability_from_t1(duration: float, t1: float) -> float:
    """Per-gate photon-loss probability ``1 - exp(-duration / T1)``."""
    if duration < 0 or t1 <= 0:
        raise DimensionError("duration must be >= 0 and T1 > 0")
    return 1.0 - math.exp(-duration / t1)


def dephasing_probability_from_t2(duration: float, t2: float) -> float:
    """Per-gate dephasing probability ``(1 - exp(-duration / T2)) / 2``."""
    if duration < 0 or t2 <= 0:
        raise DimensionError("duration must be >= 0 and T2 > 0")
    return (1.0 - math.exp(-duration / t2)) / 2.0
