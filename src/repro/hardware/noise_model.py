"""Device-derived circuit-level noise model.

Converts the hardware parameters (per-mode T1/T2, gate durations) into the
channel insertions the simulators understand: after every gate, each touched
mode suffers photon loss with probability ``1 - exp(-tau / T1)`` and Weyl
dephasing with probability ``(1 - exp(-tau / T2)) / 2``, where ``tau`` is
the gate duration.  Gates that occupy the transmon additionally inherit a
depolarising contribution from the ancilla's lifetime — the mechanism behind
the paper's observation that the transmon is "used only as a catalyst" yet
still dominates the error budget of slow gates.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.channels import (
    QuditChannel,
    dephasing,
    dephasing_probability_from_t2,
    depolarizing,
    loss_probability_from_t1,
    photon_loss,
)
from ..core.circuit import QuditCircuit
from ..core.exceptions import DeviceError
from .device import CavityQPU
from .isa import NATIVE_GATES

__all__ = ["DeviceNoiseModel", "NoiseParameters"]


@dataclass(frozen=True)
class NoiseParameters:
    """Noise probabilities for one gate on one mode."""

    loss: float
    dephase: float
    transmon_depol: float

    def total_error(self) -> float:
        """First-order combined error probability."""
        return 1.0 - (1.0 - self.loss) * (1.0 - self.dephase) * (
            1.0 - self.transmon_depol
        )


class DeviceNoiseModel:
    """Circuit-level noise derived from a :class:`CavityQPU`.

    Args:
        device: hardware model supplying coherences and timings.
        transmon_error_fraction: fraction of the transmon's decoherence
            (over the gate duration) charged to the mode as depolarising
            error when the gate uses the ancilla.
    """

    def __init__(
        self, device: CavityQPU, transmon_error_fraction: float = 0.5
    ) -> None:
        if not 0.0 <= transmon_error_fraction <= 1.0:
            raise DeviceError("transmon_error_fraction must be in [0, 1]")
        self.device = device
        self.transmon_error_fraction = transmon_error_fraction

    # ------------------------------------------------------------------
    # per-gate parameters
    # ------------------------------------------------------------------
    def gate_noise(self, gate_name: str, mode: int) -> NoiseParameters:
        """Noise probabilities of one gate acting on one physical mode."""
        if not 0 <= mode < self.device.n_modes:
            raise DeviceError(f"mode {mode} out of range")
        duration = self.device.timings.duration_of(gate_name)
        mode_params = self.device.modes[mode].coherence
        loss = loss_probability_from_t1(duration, mode_params.t1)
        dephase = dephasing_probability_from_t2(duration, mode_params.t2)
        transmon_depol = 0.0
        native = NATIVE_GATES.get(gate_name)
        uses_transmon = native.uses_transmon if native else True
        if uses_transmon:
            transmon = self.device.cavities[self.device.modes[mode].cavity].transmon
            transmon_depol = self.transmon_error_fraction * loss_probability_from_t1(
                duration, transmon.t1
            )
        return NoiseParameters(loss, dephase, transmon_depol)

    def gate_fidelity(self, gate_name: str, modes: tuple[int, ...]) -> float:
        """First-order fidelity of one gate across its target modes."""
        fidelity = 1.0
        for mode in modes:
            fidelity *= 1.0 - self.gate_noise(gate_name, mode).total_error()
        return fidelity

    # ------------------------------------------------------------------
    # circuit instrumentation
    # ------------------------------------------------------------------
    def channels_after_gate(
        self, gate_name: str, mode: int
    ) -> list[QuditChannel]:
        """Noise channels to insert on ``mode`` after one gate."""
        params = self.gate_noise(gate_name, mode)
        d = self.device.modes[mode].dim
        out: list[QuditChannel] = []
        if params.loss > 0:
            out.append(photon_loss(d, params.loss))
        if params.dephase > 0:
            out.append(dephasing(d, params.dephase))
        if params.transmon_depol > 0:
            out.append(depolarizing(d, params.transmon_depol))
        return out

    def apply_to_circuit(
        self, circuit: QuditCircuit, layout: list[int] | None = None
    ) -> QuditCircuit:
        """Instrument a circuit with per-gate noise channels.

        Args:
            circuit: physical circuit (wire i runs on physical mode
                ``layout[i]``).
            layout: wire -> physical-mode map; identity if omitted.

        Returns:
            A new circuit with channel instructions inserted after every
            unitary.
        """
        layout = layout or list(range(circuit.num_qudits))
        if len(layout) != circuit.num_qudits:
            raise DeviceError(
                f"layout length {len(layout)} != circuit wires {circuit.num_qudits}"
            )
        for wire, mode in enumerate(layout):
            if self.device.modes[mode].dim != circuit.dims[wire]:
                raise DeviceError(
                    f"wire {wire} (d={circuit.dims[wire]}) mapped to mode {mode} "
                    f"(d={self.device.modes[mode].dim})"
                )
        noisy = QuditCircuit(circuit.dims, name=circuit.name + "+noise")
        for instruction in circuit:
            noisy.append(instruction)
            if instruction.kind != "unitary":
                continue
            for wire in instruction.qudits:
                for channel in self.channels_after_gate(
                    instruction.name, layout[wire]
                ):
                    noisy.channel(channel, wire, name=channel.name)
        return noisy

    def circuit_fidelity_estimate(
        self, circuit: QuditCircuit, layout: list[int] | None = None
    ) -> float:
        """Product-of-gate-fidelities estimate for a whole circuit.

        The standard first-order estimate used for "implementation
        estimation" in the paper's Table I: no simulation, just the error
        budget.
        """
        layout = layout or list(range(circuit.num_qudits))
        fidelity = 1.0
        for instruction in circuit:
            if instruction.kind != "unitary":
                continue
            modes = tuple(layout[w] for w in instruction.qudits)
            fidelity *= self.gate_fidelity(instruction.name, modes)
        return fidelity
