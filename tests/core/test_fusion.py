"""Tests for the compiled circuit plan that every dense engine runs."""

import numpy as np
import pytest

from repro.core import QuditCircuit, Statevector, TrajectorySimulator, gates
from repro.core.random_ops import haar_unitary, random_statevector
from repro.core.structure import DIAGONAL, PERMUTATION


def _names(plan):
    return [step.instruction.name for step in plan]


def _reference_evolve(state, circuit):
    for instruction in circuit:
        if instruction.kind == "unitary":
            state = state.apply(instruction.matrix, instruction.qudits)
    return state


class TestFusedInstructions:
    def test_runs_fused_and_breaks_on_interleaving(self):
        dims = (3, 4, 2)
        qc = QuditCircuit(dims)
        qc.fourier(0)
        qc.z(0)
        qc.x(0)  # run of 3 on wire 0
        qc.csum(0, 1)  # breaks the run
        qc.z(1)
        qc.mixer(1, 0.3)  # run of 2 on wire 1
        qc.fourier(2)  # lone gate stays as-is
        plan = qc.plan()
        assert _names(plan) == ["fused[3]", "csum", "fused[2]", "fourier"]
        assert plan[0].instruction.qudits == (0,)
        assert plan[0].instruction.params["fused"] == ("fourier", "z", "x")

    def test_fused_product_order_is_correct(self):
        """Fusion multiplies in application order: last gate leftmost."""
        dims = (3,)
        qc = QuditCircuit(dims)
        qc.fourier(0)
        qc.z(0)
        plan = qc.plan()
        expected = gates.weyl_z(3) @ gates.fourier(3)
        np.testing.assert_allclose(plan[0].instruction.matrix, expected, atol=1e-14)

    def test_structured_runs_stay_structured(self):
        """diag*diag stays diagonal; diag*perm collapses to one monomial."""
        qc = QuditCircuit([4])
        qc.z(0)
        qc.snap(0, [0.1, 0.2, 0.3])
        assert qc.plan()[0].instruction.structure().kind == DIAGONAL
        qc2 = QuditCircuit([4])
        qc2.z(0)
        qc2.x(0)
        assert qc2.plan()[0].instruction.structure().kind == PERMUTATION

    def test_plan_cached_until_circuit_grows(self):
        qc = QuditCircuit([3])
        qc.z(0)
        qc.x(0)
        plan = qc.plan()
        assert qc.plan() is plan
        qc.fourier(0)
        assert len(qc.plan()) == 1  # re-fused into one run of 3
        assert qc.plan()[0].instruction.params["fused"] == ("z", "x", "fourier")

    def test_plan_invalidated_by_length_preserving_replacement(self):
        """Regression: a cache keyed on len(circuit) served a stale plan
        after replace_instruction — the mutation counter key must not."""
        from repro.core.circuit import Instruction

        qc = QuditCircuit([3])
        qc.z(0)
        qc.x(0)
        stale = qc.plan()
        replacement = Instruction(
            name="fourier",
            kind="unitary",
            qudits=(0,),
            matrix=gates.fourier(3),
        )
        qc.replace_instruction(1, replacement)
        fresh = qc.plan()
        assert fresh is not stale
        expected = gates.fourier(3) @ gates.weyl_z(3)
        np.testing.assert_allclose(fresh[0].instruction.matrix, expected, atol=1e-14)
        # The evolved state reflects the replacement, not the stale plan.
        sv = Statevector.zero([3]).evolve(qc)
        direct = Statevector.zero([3]).apply(gates.weyl_z(3), 0).apply(
            gates.fourier(3), 0
        )
        np.testing.assert_allclose(sv.vector, direct.vector, atol=1e-12)

    def test_replace_instruction_validates(self):
        from repro.core.circuit import Instruction
        from repro.core.exceptions import CircuitError

        qc = QuditCircuit([3, 2])
        qc.z(0)
        bad = Instruction(
            name="wrong-dim",
            kind="unitary",
            qudits=(1,),
            matrix=gates.fourier(3),  # dim 3 gate on a dim-2 wire
        )
        with pytest.raises(CircuitError):
            qc.replace_instruction(0, bad)
        with pytest.raises(IndexError):
            qc.replace_instruction(5, qc.instructions[0])

    def test_channels_and_measure_break_runs(self):
        from repro.core.channels import dephasing

        qc = QuditCircuit([3])
        qc.z(0)
        qc.channel(dephasing(3, 0.2).kraus, 0, name="deph")
        qc.x(0)
        assert _names(qc.plan()) == ["z", "deph", "x"]
        # A measure marker emits no step but still ends a fusion run.
        qc2 = QuditCircuit([3])
        qc2.z(0)
        qc2.measure()
        qc2.z(0)
        assert [s.kind for s in qc2.plan()] == ["unitary", "unitary"]


class TestFusedEvolution:
    def test_statevector_evolve_matches_unfused(self):
        rng = np.random.default_rng(0)
        dims = (3, 2, 4)
        qc = QuditCircuit(dims)
        for _ in range(3):
            for wire in (0, 1, 2):
                qc.unitary(haar_unitary(dims[wire], rng), wire, name="u")
                qc.z(wire)
        qc.csum(0, 1)
        for _ in range(2):
            qc.unitary(haar_unitary(4, rng), 2, name="u")
        sv = Statevector(random_statevector(24, rng), dims)
        np.testing.assert_allclose(
            sv.evolve(qc).vector,
            _reference_evolve(sv, qc).vector,
            atol=1e-12,
        )

    def test_trajectory_plan_invalidated_by_replacement(self):
        """Regression: the trajectory execution plan (and the id-keyed
        channel plans) must rebuild after a length-preserving mutation."""
        from repro.core.circuit import Instruction

        dims = (3, 3)
        qc = QuditCircuit(dims)
        qc.x(0)
        qc.x(1)
        simulator = TrajectorySimulator(qc, seed=0)
        stale = simulator.run_batch(2)
        qc.replace_instruction(
            1,
            Instruction(
                name="fourier", kind="unitary", qudits=(1,),
                matrix=gates.fourier(3),
            ),
        )
        fresh = simulator.run_batch(2)
        expected = Statevector.zero(dims).evolve(qc).vector
        for b in range(2):
            np.testing.assert_allclose(fresh[:, b], expected, atol=1e-12)
        assert np.abs(stale[:, 0] - fresh[:, 0]).max() > 0.1

    def test_trajectory_engine_uses_fusion(self):
        rng = np.random.default_rng(1)
        dims = (3, 3)
        qc = QuditCircuit(dims)
        qc.unitary(haar_unitary(3, rng), 0, name="a")
        qc.unitary(haar_unitary(3, rng), 0, name="b")
        qc.csum(0, 1)
        simulator = TrajectorySimulator(qc, seed=0)
        assert "fused[2]" in _names(qc.plan())
        final = simulator.run_batch(3)
        expected = Statevector.zero(dims).evolve(qc).vector
        for b in range(3):
            np.testing.assert_allclose(final[:, b], expected, atol=1e-12)


def _random_circuit(seed, dims, noisy):
    """Seeded mix of same-wire runs, diagonal runs, unsorted and distant
    pairs and, when ``noisy``, Kraus / depolarising channels and resets."""
    from repro.core.channels import dephasing, depolarizing, photon_loss

    rng = np.random.default_rng(seed)
    n = len(dims)
    qc = QuditCircuit(dims)
    for _ in range(30):
        w = int(rng.integers(n))
        a, b = (int(x) for x in rng.choice(n, 2, replace=False))
        choice = int(rng.integers(9 if noisy else 5))
        if choice == 0:  # same-wire run, mixed structures
            for _ in range(int(rng.integers(2, 4))):
                qc.unitary(haar_unitary(dims[w], rng), w, name="u")
                qc.x(w)
        elif choice == 1:  # diagonal run across wires
            qc.z(w)
            qc.snap(a, rng.random(dims[a]))
            qc.controlled_phase(b, a, float(rng.random()))
        elif choice == 2:  # unsorted / distant pair
            if dims[a] == dims[b]:
                qc.csum(b, a)
            else:
                qc.beamsplitter(b, a, float(rng.random()))
        elif choice == 3:
            qc.unitary(haar_unitary(dims[a] * dims[b], rng), (b, a), name="u2")
        elif choice == 4:
            qc.measure()
        elif choice == 5:
            qc.channel(photon_loss(dims[w], 0.2).kraus, w, name="loss")
        elif choice == 6:
            qc.channel(dephasing(dims[w], 0.3).kraus, w, name="deph")
        elif choice == 7:
            qc.channel(depolarizing(dims[a] * dims[b], 0.1), (b, a), name="dep2")
        else:
            qc.reset(w)
    return qc


def _reset_kraus(d):
    ops = []
    for k in range(d):
        op = np.zeros((d, d), dtype=complex)
        op[0, k] = 1.0
        ops.append(op)
    return ops


class TestOnePlan:
    @pytest.mark.parametrize("seed", range(4))
    def test_statevector_matches_dense_instruction_loop(self, seed):
        from repro.core.statevector import apply_matrix_dense

        dims = ((3, 2, 4, 3), (2, 3, 3))[seed % 2]
        qc = _random_circuit(seed, dims, noisy=False)
        assert any(step.kind == "diagonal" for step in qc.plan())
        sv = Statevector(random_statevector(int(np.prod(dims)), seed), dims)
        tensor = sv.tensor
        for ins in qc:
            if ins.kind == "unitary":
                tensor = apply_matrix_dense(tensor, ins.matrix, dims, ins.qudits)
        got = sv.evolve(qc).vector
        np.testing.assert_allclose(got, tensor.reshape(-1), rtol=0, atol=1e-12)
        assert abs(np.linalg.norm(got) - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_density_matches_instruction_loop(self, seed):
        from repro.core import DensityMatrix

        dims = ((3, 2, 3), (2, 3, 2))[seed % 2]
        qc = _random_circuit(seed + 10, dims, noisy=True)
        kinds = {step.kind for step in qc.plan()}
        assert {"unitary", "diagonal", "channel", "reset"} <= kinds
        state = DensityMatrix.from_statevector(
            Statevector(random_statevector(int(np.prod(dims)), seed), dims)
        )
        reference = state
        for ins in qc:
            if ins.kind == "unitary":
                reference = reference.apply_unitary(ins.matrix, ins.qudits)
            elif ins.kind == "channel":
                reference = reference.apply_kraus(ins.kraus, ins.qudits)
            elif ins.kind == "reset":
                reference = reference.apply_kraus(
                    _reset_kraus(dims[ins.qudits[0]]), ins.qudits
                )
        got = state.evolve(qc)
        np.testing.assert_allclose(got.matrix, reference.matrix, rtol=0, atol=1e-12)
        assert abs(got.trace() - 1.0) < 1e-12

    def test_mutation_invalidates_plan_for_every_engine(self):
        from repro.core import DensityMatrix
        from repro.core.circuit import Instruction

        dims = (3, 3)
        qc = QuditCircuit(dims)
        qc.fourier(0)
        qc.csum(0, 1)

        def runs():
            sv = Statevector.zero(dims).evolve(qc).vector
            rho = DensityMatrix.zero(dims).evolve(qc).matrix
            traj = TrajectorySimulator(qc, seed=0).run_batch(1)[:, 0]
            return sv, rho, traj

        def check(sv, rho, traj):
            expected = qc.to_unitary()[:, 0]
            np.testing.assert_allclose(sv, expected, atol=1e-12)
            np.testing.assert_allclose(traj, expected, atol=1e-12)
            np.testing.assert_allclose(
                rho, np.outer(expected, expected.conj()), atol=1e-12
            )

        check(*runs())
        before = qc.plan()
        qc.x(1)  # append
        assert qc.plan() is not before
        check(*runs())
        before = qc.plan()
        qc.replace_instruction(
            1,
            Instruction(
                name="cphase",
                kind="unitary",
                qudits=(0, 1),
                matrix=gates.controlled_phase(3, 3, 0.4),
            ),
        )
        assert qc.plan() is not before
        check(*runs())

    def test_equal_matrices_share_one_structure(self):
        one = QuditCircuit([3, 3])
        one.mixer(0, 0.4)
        one.csum(0, 1)
        two = QuditCircuit([3, 3, 3])
        two.mixer(2, 0.4)
        two.csum(2, 1)
        for a, b in zip(one.instructions, two.instructions):
            assert a is not b
            assert a.structure() is b.structure()
        from repro.core.channels import photon_loss

        one.channel(photon_loss(3, 0.2).kraus, 0)
        two.channel([k.copy() for k in photon_loss(3, 0.2).kraus], 1)
        pairs = zip(
            one.instructions[-1].kraus_structures(),
            two.instructions[-1].kraus_structures(),
        )
        assert all(a is b for a, b in pairs)

    def test_interned_structure_is_a_read_only_copy(self):
        from repro.core.structure import intern_structure

        matrix = gates.fourier(3)
        structure = intern_structure(matrix)
        assert structure.matrix is not matrix
        assert not structure.matrix.flags.writeable
        np.testing.assert_array_equal(structure.matrix, matrix)
