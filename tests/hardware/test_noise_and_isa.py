"""Tests for the ISA lowering table, noise model, and roadmap accounting."""

import numpy as np
import pytest

from repro.core import DensityMatrix, QuditCircuit
from repro.core.exceptions import DeviceError
from repro.hardware import (
    DeviceNoiseModel,
    forecast_device,
    is_native,
    linear_cavity_array,
    lowering_cost,
    roadmap_summary,
)
from repro.hardware.isa import LOWERING_RULES, NATIVE_GATES


class TestISA:
    def test_native_recognition(self):
        assert is_native("snap")
        assert is_native("bs")
        assert not is_native("csum")
        assert not is_native("fourier")

    def test_native_cost_is_unit(self):
        assert lowering_cost("snap", 5) == {"snap": 1}

    def test_csum_lowering_scales_with_d(self):
        small = lowering_cost("csum", 3)
        big = lowering_cost("csum", 8)
        assert big["snap"] > small["snap"]
        assert small["cphase"] == big["cphase"] == 1

    def test_unknown_gate(self):
        with pytest.raises(DeviceError):
            lowering_cost("mystery", 3)

    def test_rule_expansion_validation(self):
        with pytest.raises(DeviceError):
            LOWERING_RULES["csum"].expand(1)

    def test_all_lowered_gates_map_to_native(self):
        for rule in LOWERING_RULES.values():
            for native_name in rule.native_counts:
                assert native_name in NATIVE_GATES, native_name

    def test_transmon_usage_flags(self):
        assert not NATIVE_GATES["disp"].uses_transmon
        assert NATIVE_GATES["snap"].uses_transmon


class TestDeviceNoiseModel:
    @pytest.fixture()
    def device(self):
        return linear_cavity_array(2, 2, 3, seed=0)

    def test_gate_noise_positive(self, device):
        params = DeviceNoiseModel(device).gate_noise("csum", 0)
        assert params.loss > 0
        assert params.dephase > 0
        assert params.transmon_depol > 0
        assert 0 < params.total_error() < 1

    def test_displacement_skips_transmon(self, device):
        params = DeviceNoiseModel(device).gate_noise("disp", 0)
        assert params.transmon_depol == 0.0

    def test_slower_gate_noisier(self, device):
        nm = DeviceNoiseModel(device)
        fast = nm.gate_noise("disp", 0).total_error()
        slow = nm.gate_noise("csum", 0).total_error()
        assert slow > fast

    def test_gate_fidelity_multiplicative(self, device):
        nm = DeviceNoiseModel(device)
        single = nm.gate_fidelity("snap", (0,))
        double = nm.gate_fidelity("snap", (0, 1))
        assert double == pytest.approx(single * nm.gate_fidelity("snap", (1,)))

    def test_mode_out_of_range(self, device):
        with pytest.raises(DeviceError):
            DeviceNoiseModel(device).gate_noise("snap", 99)

    def test_fraction_validation(self, device):
        with pytest.raises(DeviceError):
            DeviceNoiseModel(device, transmon_error_fraction=1.5)

    def test_apply_to_circuit_inserts_channels(self, device):
        qc = QuditCircuit([3, 3])
        qc.fourier(0)
        qc.csum(0, 1)
        noisy = DeviceNoiseModel(device).apply_to_circuit(qc)
        kinds = [inst.kind for inst in noisy]
        assert "channel" in kinds
        dm = DensityMatrix.zero([3, 3]).evolve(noisy)
        assert dm.purity() < 1.0
        assert abs(dm.trace() - 1.0) < 1e-9

    def test_transmon_depolarizing_matches_plain_kraus(self, device):
        """The closed-form transmon channels agree with the bare Kraus families."""
        qc = QuditCircuit([3, 3])
        qc.fourier(0)
        qc.csum(0, 1)
        qc.snap(1, [0.0, 0.4, 1.1])
        noisy = DeviceNoiseModel(device).apply_to_circuit(qc)
        assert any(inst.depolarizing_p is not None for inst in noisy)
        plain = QuditCircuit(noisy.dims)
        for inst in noisy:
            if inst.kind == "channel":
                plain.channel(inst.kraus, inst.qudits, name=inst.name)
            else:
                plain.append(inst)
        closed = DensityMatrix.zero([3, 3]).evolve(noisy)
        reference = DensityMatrix.zero([3, 3]).evolve(plain)
        np.testing.assert_allclose(closed.matrix, reference.matrix, rtol=0, atol=1e-12)

    def test_apply_to_circuit_layout_dimension_check(self, device):
        qc = QuditCircuit([4])
        with pytest.raises(DeviceError):
            DeviceNoiseModel(device).apply_to_circuit(qc, layout=[0])

    def test_apply_layout_length_check(self, device):
        qc = QuditCircuit([3, 3])
        with pytest.raises(DeviceError):
            DeviceNoiseModel(device).apply_to_circuit(qc, layout=[0])

    def test_circuit_fidelity_estimate_monotone(self, device):
        nm = DeviceNoiseModel(device)
        qc = QuditCircuit([3, 3])
        qc.csum(0, 1)
        one = nm.circuit_fidelity_estimate(qc)
        two = nm.circuit_fidelity_estimate(qc.repeated(2))
        assert two == pytest.approx(one**2, rel=1e-9)

    def test_estimate_vs_simulation_agreement(self, device):
        """First-order estimate tracks the simulated fidelity loosely."""
        from repro.core import Statevector

        nm = DeviceNoiseModel(device)
        qc = QuditCircuit([3, 3])
        qc.fourier(0)
        qc.csum(0, 1)
        ideal = Statevector.zero([3, 3]).evolve(qc)
        noisy = DensityMatrix.zero([3, 3]).evolve(nm.apply_to_circuit(qc))
        simulated = noisy.fidelity_with_pure(ideal)
        estimated = nm.circuit_fidelity_estimate(qc)
        assert abs(simulated - estimated) < 0.05


class TestRoadmap:
    def test_forecast_device_shape(self):
        device = forecast_device()
        assert device.n_cavities == 10
        assert device.n_modes == 40
        assert set(device.mode_dims()) == {10}

    def test_capacity_claim_c7(self):
        """The paper's '>100 qubits' forecast: 40 modes x d=10."""
        summary = roadmap_summary()
        assert summary.exceeds_100_qubits
        assert abs(summary.qubit_equivalent - 40 * np.log2(10)) < 1e-9
        assert abs(summary.hilbert_dimension_log10 - 40.0) < 1e-12

    def test_small_device_fails_claim(self):
        summary = roadmap_summary(linear_cavity_array(2, 2, 3))
        assert not summary.exceeds_100_qubits

    def test_mixed_dim_sentinel(self):
        from repro.hardware import Cavity, CavityQPU, CoherenceParams, Mode

        coh = CoherenceParams(1e-3, 1e-3)
        tr = CoherenceParams(1e-4, 1e-4)
        device = CavityQPU(
            [Cavity(0, 2, tr)],
            [Mode(0, 0, 3, coh), Mode(0, 1, 4, coh)],
        )
        assert roadmap_summary(device).dim_per_mode == -1
