"""Tests for the qudit circuit IR."""

import numpy as np
import pytest

from repro.core import QuditCircuit, gates
from repro.core.channels import depolarizing
from repro.core.circuit import Instruction
from repro.core.exceptions import CircuitError


class TestInstruction:
    def test_unitary_requires_matrix(self):
        with pytest.raises(CircuitError):
            Instruction(name="bad", kind="unitary", qudits=(0,))

    def test_channel_requires_kraus(self):
        with pytest.raises(CircuitError):
            Instruction(name="bad", kind="channel", qudits=(0,))

    def test_unknown_kind(self):
        with pytest.raises(CircuitError):
            Instruction(name="bad", kind="banana", qudits=(0,))

    def test_duplicate_wires(self):
        with pytest.raises(CircuitError):
            Instruction(
                name="bad",
                kind="unitary",
                qudits=(0, 0),
                matrix=np.eye(9, dtype=complex),
            )

    def test_dagger(self):
        inst = Instruction(
            name="f", kind="unitary", qudits=(0,), matrix=gates.fourier(3)
        )
        np.testing.assert_allclose(
            inst.dagger().matrix @ inst.matrix, np.eye(3), atol=1e-12
        )

    def test_dagger_of_measure_fails(self):
        inst = Instruction(name="measure", kind="measure", qudits=(0,))
        with pytest.raises(CircuitError):
            inst.dagger()

    def test_entangling_detection(self):
        one = Instruction(
            name="f", kind="unitary", qudits=(0,), matrix=gates.fourier(3)
        )
        two = Instruction(
            name="csum", kind="unitary", qudits=(0, 1), matrix=gates.csum(3)
        )
        assert not one.is_entangling()
        assert two.is_entangling()


class TestCircuitBuilding:
    def test_dims_and_total_dim(self):
        qc = QuditCircuit([2, 3, 4])
        assert qc.num_qudits == 3
        assert qc.dim == 24

    def test_wire_out_of_range(self):
        qc = QuditCircuit([3, 3])
        with pytest.raises(CircuitError):
            qc.fourier(2)

    def test_shape_mismatch_rejected(self):
        qc = QuditCircuit([3, 3])
        with pytest.raises(CircuitError):
            qc.unitary(np.eye(2), 0)

    def test_gate_conveniences_pick_wire_dimension(self):
        qc = QuditCircuit([2, 5])
        qc.fourier(0)
        qc.fourier(1)
        assert qc.instructions[0].matrix.shape == (2, 2)
        assert qc.instructions[1].matrix.shape == (5, 5)

    def test_two_qudit_mixed_dims(self):
        qc = QuditCircuit([2, 3])
        qc.csum(0, 1)
        assert qc.instructions[0].matrix.shape == (6, 6)

    def test_swap_requires_equal_dims(self):
        qc = QuditCircuit([2, 3])
        with pytest.raises(CircuitError):
            qc.swap(0, 1)

    def test_swap_action(self):
        qc = QuditCircuit([3, 3])
        qc.swap(0, 1)
        from repro.core import Statevector

        sv = Statevector.basis([3, 3], (2, 1)).evolve(qc)
        probs = sv.probabilities()
        assert abs(probs[1 * 3 + 2] - 1.0) < 1e-12

    def test_channel_append(self):
        qc = QuditCircuit([3])
        qc.channel(depolarizing(3, 0.1).kraus, 0, name="depol")
        assert qc.instructions[0].kind == "channel"

    def test_ragged_kraus_family_rejected(self):
        qc = QuditCircuit([3])
        ragged = [np.sqrt(0.5) * np.eye(3), np.sqrt(0.5) * np.eye(2)]
        with pytest.raises(CircuitError):
            qc.channel(ragged, 0)
        assert len(qc) == 0

    def test_ragged_kraus_family_rejected_on_replace(self):
        qc = QuditCircuit([3])
        qc.channel(depolarizing(3, 0.1).kraus, 0)
        ragged = Instruction(
            name="ragged",
            kind="channel",
            qudits=(0,),
            kraus=(np.eye(3, dtype=complex), np.eye(2, dtype=complex)),
        )
        with pytest.raises(CircuitError):
            qc.replace_instruction(0, ragged)

    def test_measure_all_default(self):
        qc = QuditCircuit([3, 3, 3])
        qc.measure()
        assert qc.instructions[0].qudits == (0, 1, 2)

    def test_permute_levels_validates_length(self):
        qc = QuditCircuit([3])
        with pytest.raises(CircuitError):
            qc.permute_levels(0, [0, 1])


class TestCircuitTransforms:
    def _bell_circuit(self):
        qc = QuditCircuit([3, 3])
        qc.fourier(0)
        qc.csum(0, 1)
        return qc

    def test_compose(self):
        qc = self._bell_circuit().compose(self._bell_circuit())
        assert len(qc) == 4

    def test_compose_dim_mismatch(self):
        with pytest.raises(CircuitError):
            self._bell_circuit().compose(QuditCircuit([3, 4]))

    def test_inverse_gives_identity(self):
        qc = self._bell_circuit()
        full = qc.compose(qc.inverse())
        np.testing.assert_allclose(full.to_unitary(), np.eye(9), atol=1e-10)

    def test_copy_is_independent(self):
        qc = self._bell_circuit()
        other = qc.copy()
        other.fourier(1)
        assert len(qc) == 2
        assert len(other) == 3

    def test_repeated(self):
        qc = self._bell_circuit().repeated(3)
        assert len(qc) == 6
        assert qc.repeated(0) is not None

    def test_repeated_negative(self):
        with pytest.raises(CircuitError):
            self._bell_circuit().repeated(-1)


class TestCircuitInspection:
    def test_count_ops(self):
        qc = QuditCircuit([3, 3])
        qc.fourier(0)
        qc.fourier(1)
        qc.csum(0, 1)
        assert qc.count_ops() == {"fourier": 2, "csum": 1}

    def test_num_entangling(self):
        qc = QuditCircuit([3, 3, 3])
        qc.csum(0, 1)
        qc.csum(1, 2)
        qc.fourier(0)
        assert qc.num_entangling() == 2

    def test_depth_parallel_gates(self):
        qc = QuditCircuit([3, 3, 3, 3])
        qc.fourier(0)
        qc.fourier(1)
        qc.csum(0, 1)
        qc.csum(2, 3)
        # fourier(0)||fourier(1) then csum(0,1); csum(2,3) fits in slot 1.
        assert qc.depth() == 2

    def test_depth_ignores_channels(self):
        qc = QuditCircuit([3])
        qc.fourier(0)
        qc.channel(depolarizing(3, 0.1).kraus, 0)
        qc.fourier(0)
        assert qc.depth() == 2

    def test_interaction_pairs(self):
        qc = QuditCircuit([3, 3, 3])
        qc.csum(0, 1)
        qc.csum(1, 0)
        qc.csum(1, 2)
        assert qc.interaction_pairs() == {(0, 1): 2, (1, 2): 1}

    def test_wires_used(self):
        qc = QuditCircuit([3, 3, 3])
        qc.fourier(2)
        assert qc.wires_used() == {2}

    def test_to_unitary_rejects_channels(self):
        qc = QuditCircuit([3])
        qc.channel(depolarizing(3, 0.1).kraus, 0)
        with pytest.raises(CircuitError):
            qc.to_unitary()

    def test_to_unitary_rejects_huge(self):
        qc = QuditCircuit([10] * 5)
        with pytest.raises(CircuitError):
            qc.to_unitary()

    def test_to_unitary_matches_manual_kron(self):
        qc = QuditCircuit([2, 3])
        qc.fourier(0)
        expected = np.kron(gates.fourier(2), np.eye(3))
        np.testing.assert_allclose(qc.to_unitary(), expected, atol=1e-12)

    def test_to_unitary_wire_order(self):
        """CSUM(control=1, target=0) must differ from CSUM(0, 1)."""
        qc01 = QuditCircuit([3, 3])
        qc01.csum(0, 1)
        qc10 = QuditCircuit([3, 3])
        qc10.csum(1, 0)
        assert not np.allclose(qc01.to_unitary(), qc10.to_unitary())
