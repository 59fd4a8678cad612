"""Tests for the density-matrix simulator."""

import numpy as np
import pytest

from repro.core import DensityMatrix, QuditCircuit, Statevector, gates
from repro.core.channels import dephasing, depolarizing, photon_loss
from repro.core.exceptions import DimensionError
from repro.core.random_ops import random_statevector


def _bell_circuit(d=3):
    qc = QuditCircuit([d, d])
    qc.fourier(0)
    qc.csum(0, 1)
    return qc


class TestConstructors:
    def test_zero(self):
        dm = DensityMatrix.zero([3, 3])
        assert abs(dm.matrix[0, 0] - 1.0) < 1e-12
        assert abs(dm.trace() - 1.0) < 1e-12

    def test_from_statevector_purity(self):
        rng = np.random.default_rng(0)
        sv = Statevector(random_statevector(9, rng), [3, 3])
        dm = DensityMatrix.from_statevector(sv)
        assert abs(dm.purity() - 1.0) < 1e-10

    def test_maximally_mixed(self):
        dm = DensityMatrix.maximally_mixed([3, 3])
        assert abs(dm.purity() - 1.0 / 9.0) < 1e-12

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            DensityMatrix(np.eye(8), [3, 3])


class TestUnitaryEvolution:
    def test_matches_statevector(self):
        qc = _bell_circuit()
        dm = DensityMatrix.zero([3, 3]).evolve(qc)
        sv = Statevector.zero([3, 3]).evolve(qc)
        np.testing.assert_allclose(
            dm.matrix, np.outer(sv.vector, sv.vector.conj()), atol=1e-10
        )

    def test_apply_unitary_on_second_wire(self):
        dm = DensityMatrix.zero([2, 3]).apply_unitary(gates.weyl_x(3), 1)
        assert abs(dm.matrix[1, 1] - 1.0) < 1e-12

    def test_purity_preserved(self):
        dm = DensityMatrix.zero([3, 3]).evolve(_bell_circuit())
        assert abs(dm.purity() - 1.0) < 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            DensityMatrix.zero([3, 4]).evolve(_bell_circuit())


class TestChannelEvolution:
    def test_depolarizing_reduces_purity(self):
        dm = DensityMatrix.zero([3, 3]).evolve(_bell_circuit())
        noisy = dm.apply_channel(depolarizing(3, 0.2), 0)
        assert noisy.purity() < dm.purity()
        assert abs(noisy.trace() - 1.0) < 1e-10

    def test_channel_instruction_in_circuit(self):
        qc = _bell_circuit()
        qc.channel(depolarizing(3, 0.2).kraus, 0, name="depol")
        dm = DensityMatrix.zero([3, 3]).evolve(qc)
        assert dm.purity() < 1.0
        assert abs(dm.trace() - 1.0) < 1e-10

    def test_photon_loss_on_one_mode(self):
        """Loss on one mode of |2,2> lowers only that mode's mean photon."""
        dm = DensityMatrix.basis([4, 4], (2, 2))
        noisy = dm.apply_channel(photon_loss(4, 0.5), 0)
        n0 = np.real(np.trace(noisy.partial_trace([0]) @ gates.number_op(4)))
        n1 = np.real(np.trace(noisy.partial_trace([1]) @ gates.number_op(4)))
        assert abs(n0 - 1.0) < 1e-10
        assert abs(n1 - 2.0) < 1e-10

    def test_dephasing_kills_bell_coherence(self):
        dm = DensityMatrix.zero([3, 3]).evolve(_bell_circuit())
        heavy = dm
        for _ in range(40):
            heavy = heavy.apply_channel(dephasing(3, 0.5), 0)
        # Off-diagonal Bell coherences vanish; populations survive.
        assert abs(heavy.matrix[0, 4]) < 1e-6
        assert abs(heavy.matrix[0, 0] - 1.0 / 3.0) < 1e-10

    def test_reset_instruction(self):
        qc = QuditCircuit([3])
        qc.x(0)
        qc.reset(0)
        dm = DensityMatrix.zero([3]).evolve(qc)
        assert abs(dm.matrix[0, 0] - 1.0) < 1e-10


class TestObservables:
    def test_expectation_global(self):
        dm = DensityMatrix.maximally_mixed([2, 2])
        op = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
        assert abs(dm.expectation(op) - 1.5) < 1e-12

    def test_expectation_local(self):
        dm = DensityMatrix.basis([3, 4], (1, 3))
        assert abs(dm.expectation(gates.number_op(4), 1) - 3.0) < 1e-12

    def test_expectation_global_shape_check(self):
        dm = DensityMatrix.zero([3, 3])
        with pytest.raises(DimensionError):
            dm.expectation(np.eye(3))

    def test_fidelity_with_pure(self):
        qc = _bell_circuit()
        sv = Statevector.zero([3, 3]).evolve(qc)
        dm = DensityMatrix.zero([3, 3]).evolve(qc)
        assert abs(dm.fidelity_with_pure(sv) - 1.0) < 1e-10

    def test_fidelity_degrades_with_noise(self):
        qc = _bell_circuit()
        sv = Statevector.zero([3, 3]).evolve(qc)
        dm = DensityMatrix.zero([3, 3]).evolve(qc)
        noisy = dm.apply_channel(depolarizing(3, 0.3), 0)
        assert noisy.fidelity_with_pure(sv) < 1.0

    def test_probability_of(self):
        dm = DensityMatrix.basis([3, 3], (2, 1))
        assert abs(dm.probability_of((2, 1)) - 1.0) < 1e-12
        assert dm.probability_of((0, 0)) < 1e-12


class TestPartialTrace:
    def test_bell_reduction_maximally_mixed(self):
        dm = DensityMatrix.zero([3, 3]).evolve(_bell_circuit())
        np.testing.assert_allclose(dm.partial_trace([0]), np.eye(3) / 3, atol=1e-10)

    def test_keep_order(self):
        dm = DensityMatrix.basis([2, 3], (1, 2))
        rho = dm.partial_trace([1, 0])  # dims (3, 2), state |2,1>
        assert abs(rho[2 * 2 + 1, 2 * 2 + 1] - 1.0) < 1e-10

    def test_trace_preserved(self):
        dm = DensityMatrix.maximally_mixed([2, 3, 2])
        assert abs(np.trace(dm.partial_trace([1])) - 1.0) < 1e-10


class TestEntryPointValidation:
    """Bad wires and operator shapes raise DimensionError at every entry point."""

    def test_apply_kraus_empty_family(self):
        with pytest.raises(DimensionError):
            DensityMatrix.zero([3, 2]).apply_kraus([], 0)

    def test_apply_kraus_wrong_dimension(self):
        with pytest.raises(DimensionError):
            DensityMatrix.zero([3, 2]).apply_kraus([np.eye(2)], 0)

    def test_apply_kraus_ragged_family(self):
        with pytest.raises(DimensionError):
            DensityMatrix.zero([3, 2]).apply_kraus([np.eye(3), np.eye(2)], 0)

    def test_apply_unitary_wire_out_of_range(self):
        with pytest.raises(DimensionError):
            DensityMatrix.zero([3, 2]).apply_unitary(np.eye(3), 5)

    def test_apply_unitary_negative_wire(self):
        with pytest.raises(DimensionError):
            DensityMatrix.zero([3, 2]).apply_unitary(np.eye(3), -1)

    def test_apply_unitary_duplicate_wires(self):
        with pytest.raises(DimensionError):
            DensityMatrix.zero([3, 3]).apply_unitary(np.eye(9), (0, 0))

    def test_apply_unitary_wrong_dimension(self):
        with pytest.raises(DimensionError):
            DensityMatrix.zero([3, 2]).apply_unitary(np.eye(3), 1)

    def test_partial_trace_duplicate_wires(self):
        with pytest.raises(DimensionError):
            DensityMatrix.zero([3, 2]).partial_trace([0, 0])

    def test_partial_trace_wire_out_of_range(self):
        with pytest.raises(DimensionError):
            DensityMatrix.zero([3, 2]).partial_trace([7])

    def test_expectation_local_operator_wrong_shape(self):
        with pytest.raises(DimensionError):
            DensityMatrix.zero([3, 4]).expectation(gates.number_op(3), 1)

    def test_expectation_local_wire_out_of_range(self):
        with pytest.raises(DimensionError):
            DensityMatrix.zero([3, 4]).expectation(gates.number_op(4), 2)

    def test_valid_calls_unchanged(self):
        dm = DensityMatrix.zero([3, 2]).apply_unitary(gates.weyl_x(2), np.int64(1))
        assert abs(dm.expectation(gates.number_op(2), [1]) - 1.0) < 1e-12
        assert dm.partial_trace([]).shape == (1, 1)


class TestSampling:
    def test_sample_bell_correlations(self):
        rng = np.random.default_rng(1)
        dm = DensityMatrix.zero([3, 3]).evolve(_bell_circuit())
        counts = dm.sample(300, rng=rng)
        assert all(a == b for (a, b) in counts)
        assert sum(counts.values()) == 300


class TestStructuredChannelFastPath:
    """The vectorised Kraus paths agree with the generic apply_kraus loop."""

    def _reference_evolve(self, dims, circuit):
        state = DensityMatrix.zero(dims)
        for instruction in circuit:
            if instruction.kind == "unitary":
                state = state.apply_unitary(instruction.matrix, instruction.qudits)
            elif instruction.kind == "channel":
                state = state.apply_kraus(instruction.kraus, instruction.qudits)
        return state

    def test_all_diagonal_channel_single_multiply(self):
        dims = (3, 4)
        qc = QuditCircuit(dims)
        qc.fourier(0)
        qc.csum(0, 1)
        qc.channel(dephasing(4, 0.3).kraus, 1, name="deph")
        rng = np.random.default_rng(0)
        diag_a = np.sqrt(0.6) * np.exp(1j * rng.uniform(0, 1, 12))
        diag_b = np.sqrt(0.4) * np.exp(1j * rng.uniform(0, 1, 12))
        qc.channel([np.diag(diag_a), np.diag(diag_b)], (0, 1), name="diag2")
        fast = DensityMatrix.zero(dims).evolve(qc)
        reference = self._reference_evolve(dims, qc)
        np.testing.assert_allclose(fast.matrix, reference.matrix, atol=1e-12)
        assert abs(fast.trace() - 1.0) < 1e-10

    def test_mixed_structure_channels_match(self):
        dims = (3, 2, 3)
        qc = QuditCircuit(dims)
        qc.fourier(0)
        qc.csum(0, 2)
        qc.channel(depolarizing(3, 0.25).kraus, 0, name="depol")  # monomial ops
        qc.channel(photon_loss(3, 0.35).kraus, 2, name="loss")  # column-sparse
        qc.channel(dephasing(2, 0.2).kraus, 1, name="deph")  # diagonal
        fast = DensityMatrix.zero(dims).evolve(qc)
        reference = self._reference_evolve(dims, qc)
        np.testing.assert_allclose(fast.matrix, reference.matrix, atol=1e-12)

    def test_unsorted_targets_diagonal_channel(self):
        """Broadcast path handles ket/bra target axes in any wire order."""
        dims = (2, 3)
        qc = QuditCircuit(dims)
        qc.fourier(0)
        qc.fourier(1)
        rng = np.random.default_rng(3)
        diag_a = np.sqrt(0.7) * np.exp(1j * rng.uniform(0, 1, 6))
        diag_b = np.sqrt(0.3) * np.exp(1j * rng.uniform(0, 1, 6))
        qc.channel([np.diag(diag_a), np.diag(diag_b)], (1, 0), name="diag-rev")
        fast = DensityMatrix.zero(dims).evolve(qc)
        reference = self._reference_evolve(dims, qc)
        np.testing.assert_allclose(fast.matrix, reference.matrix, atol=1e-12)

    def test_kraus_structures_drive_dispatch(self):
        qc = QuditCircuit([3])
        qc.channel(dephasing(3, 0.4).kraus, 0, name="deph")
        structures = qc.instructions[0].kraus_structures()
        assert all(s.kind == "diagonal" for s in structures)

    @pytest.mark.parametrize(
        "channel, targets",
        [
            (depolarizing(9, 0.05), (0, 1)),
            (depolarizing(3, 0.3), (2,)),
            (depolarizing(9, 0.2), (2, 0)),
            (photon_loss(3, 0.35), (1,)),
            (dephasing(3, 0.4), (0,)),
        ],
        ids=["depol-pair", "depol-one", "depol-reversed", "loss", "dephasing"],
    )
    def test_apply_channel_matches_apply_kraus(self, channel, targets):
        """apply_channel takes evolve's routes; apply_kraus is the loop."""
        rng = np.random.default_rng(7)
        dims = (3, 3, 3)
        state = DensityMatrix.from_statevector(
            Statevector(random_statevector(27, rng), dims)
        )
        fast = state.apply_channel(channel, targets)
        reference = state.apply_kraus(channel.kraus, targets)
        np.testing.assert_allclose(fast.matrix, reference.matrix, rtol=0, atol=1e-12)
