"""Coupled dissipative oscillators — the physical reservoir (paper §II.C).

Implements the two-mode interacting reservoir of Dudas et al. (ref [25])::

    H = sum_i omega_i a_i† a_i + g (a_1† a_2 + h.c.),    L_i = sqrt(kappa_i) a_i

with input injected by a resonant displacement drive on mode 1.  With nine
usable Fock levels per mode the joint basis provides 81 measurable
populations — the "81 neurons" of claim C5.

Two evolution backends:

* exact vectorised Lindblad (``LindbladPropagator``) — O(D^4) memory in the
  joint dimension, fine for validation at small truncation;
* split-step (unitary half-step + exact per-mode photon-loss channel) —
  O(D^2), used for the full 9x9 reservoir.  The splitting error is
  O((kappa dt) * (g dt)) per step, negligible at reservoir time scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from ..core.channels import photon_loss
from ..core.exceptions import DimensionError, SimulationError
from ..core.gates import annihilation, number_op

__all__ = ["CoupledOscillators", "SplitStepEvolver"]


@dataclass(frozen=True)
class CoupledOscillators:
    """Parameters and operators of the two-mode reservoir.

    Attributes:
        levels: Fock truncation per mode (9 reproduces the 81-neuron setup).
        omega_1: detuning of mode 1 (rotating frame of the drive).
        omega_2: detuning of mode 2.
        coupling: beam-splitter coupling ``g``.
        kappa_1: loss rate of mode 1.
        kappa_2: loss rate of mode 2.

    The defaults are the NARMA-2-tuned working point found by the
    hyperparameter sweep in ``benchmarks/bench_table1_reservoir.py``.
    """

    levels: int = 9
    omega_1: float = 0.0
    omega_2: float = 2.5
    coupling: float = 1.2
    kappa_1: float = 0.2
    kappa_2: float = 0.2

    def __post_init__(self) -> None:
        if self.levels < 2:
            raise DimensionError("need at least 2 Fock levels per mode")
        if self.kappa_1 < 0 or self.kappa_2 < 0:
            raise DimensionError("loss rates must be >= 0")

    @property
    def dim(self) -> int:
        """Joint Hilbert-space dimension ``levels^2``."""
        return self.levels**2

    @property
    def dims(self) -> tuple[int, int]:
        """Per-mode dimensions."""
        return (self.levels, self.levels)

    # ------------------------------------------------------------------
    # operators (joint space, mode 1 is the leading factor)
    # ------------------------------------------------------------------
    def a1(self) -> np.ndarray:
        """Annihilation operator of mode 1 on the joint space."""
        return np.kron(annihilation(self.levels), np.eye(self.levels))

    def a2(self) -> np.ndarray:
        """Annihilation operator of mode 2 on the joint space."""
        return np.kron(np.eye(self.levels), annihilation(self.levels))

    def n1(self) -> np.ndarray:
        """Photon number of mode 1."""
        return np.kron(number_op(self.levels), np.eye(self.levels))

    def n2(self) -> np.ndarray:
        """Photon number of mode 2."""
        return np.kron(np.eye(self.levels), number_op(self.levels))

    def hamiltonian(self) -> np.ndarray:
        """Drift Hamiltonian ``sum omega_i n_i + g (a1† a2 + h.c.)``."""
        a1, a2 = self.a1(), self.a2()
        ham = self.omega_1 * self.n1() + self.omega_2 * self.n2()
        ham = ham + self.coupling * (a1.conj().T @ a2 + a2.conj().T @ a1)
        return ham

    def drive_operator(self) -> np.ndarray:
        """Input-coupling operator ``a1 + a1†`` (resonant displacement)."""
        a1 = self.a1()
        return a1 + a1.conj().T

    def collapse_ops(self) -> list[np.ndarray]:
        """Lindblad jump operators with rates absorbed."""
        ops = []
        if self.kappa_1 > 0:
            ops.append(np.sqrt(self.kappa_1) * self.a1())
        if self.kappa_2 > 0:
            ops.append(np.sqrt(self.kappa_2) * self.a2())
        return ops

    def vacuum(self) -> np.ndarray:
        """Joint vacuum density matrix."""
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        rho[0, 0] = 1.0
        return rho


class SplitStepEvolver:
    """Split-step propagator: driven unitary + exact per-mode loss channel.

    One step of duration ``dt`` with drive value ``u`` applies::

        rho -> Loss_2( Loss_1( U(u) rho U(u)† ) )

    with ``U(u) = exp(-i dt (H + u * D))`` and ``Loss_i`` the exact
    amplitude-damping channel with ``gamma_i = 1 - exp(-kappa_i dt)``.

    Args:
        oscillators: reservoir parameters.
        dt: step duration.
        drive_quantisation: inputs are rounded to this many decimals before
            propagator lookup so repeated values hit the unitary cache.
        cache_size: cached drive unitaries.
    """

    def __init__(
        self,
        oscillators: CoupledOscillators,
        dt: float,
        drive_quantisation: int = 4,
        cache_size: int = 512,
    ) -> None:
        if dt <= 0:
            raise SimulationError("dt must be positive")
        self.osc = oscillators
        self.dt = float(dt)
        self.drive_quantisation = int(drive_quantisation)
        self._cache: dict[float, np.ndarray] = {}
        self._cache_size = int(cache_size)
        self._ham = oscillators.hamiltonian()
        self._drive = oscillators.drive_operator()
        d = oscillators.levels
        #: Photon-loss Kraus family of one step per lossy mode (wire -> ops).
        self.loss_families: dict[int, tuple[np.ndarray, ...]] = {}
        for mode, kappa in enumerate((oscillators.kappa_1, oscillators.kappa_2)):
            gamma = 1.0 - np.exp(-kappa * dt)
            if gamma > 0:
                self.loss_families[mode] = photon_loss(d, gamma).kraus
        eye = np.eye(d, dtype=complex)
        self._loss_1 = [
            np.kron(k, eye) for k in self.loss_families[0]
        ] if 0 in self.loss_families else None
        self._loss_2 = [
            np.kron(eye, k) for k in self.loss_families[1]
        ] if 1 in self.loss_families else None

    def _unitary(self, drive: float) -> np.ndarray:
        key = round(float(drive), self.drive_quantisation)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        u = expm(-1j * self.dt * (self._ham + key * self._drive))
        if len(self._cache) >= self._cache_size:
            self._cache.pop(next(iter(self._cache)))
        self._cache[key] = u
        return u

    def quantise_drive(self, drive: float) -> float:
        """The drive value rounded to the propagator-cache resolution."""
        return round(float(drive), self.drive_quantisation)

    def unitary_for(self, drive: float) -> np.ndarray:
        """The cached one-step joint unitary ``exp(-i dt (H + drive D))``."""
        return self._unitary(drive)

    @staticmethod
    def _apply_kraus(rho: np.ndarray, kraus: list[np.ndarray]) -> np.ndarray:
        out = np.zeros_like(rho)
        for op in kraus:
            out += op @ rho @ op.conj().T
        return out

    def step(self, rho: np.ndarray, drive: float = 0.0) -> np.ndarray:
        """Advance one step under the given drive value."""
        u = self._unitary(drive)
        rho = u @ rho @ u.conj().T
        if self._loss_1 is not None:
            rho = self._apply_kraus(rho, self._loss_1)
        if self._loss_2 is not None:
            rho = self._apply_kraus(rho, self._loss_2)
        trace = float(np.real(np.trace(rho)))
        if trace <= 0:
            raise SimulationError("trace collapsed in split-step evolution")
        return rho / trace
