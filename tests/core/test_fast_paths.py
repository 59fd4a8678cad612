"""Property tests for the structured-gate fast paths and batched engine.

Every fast path (diagonal multiply, permutation gather, batched trailing
axis) must agree with the seed implementation — the dense ``tensordot``
reference kept verbatim as ``apply_matrix_dense`` — to 1e-12.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QuditCircuit, Statevector, TrajectorySimulator, gates
from repro.core.channels import unitary_channel
from repro.core.random_ops import haar_unitary, random_statevector
from repro.core.statevector import apply_matrix, apply_matrix_dense
from repro.core.structure import DENSE, DIAGONAL, PERMUTATION, classify_gate


def _random_diagonal(dim, rng):
    return np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, dim)))


def _nonidentity_permutation(dim, rng):
    perm = rng.permutation(dim)
    if np.array_equal(perm, np.arange(dim)):
        perm = np.roll(perm, 1)  # identity would classify as diagonal
    return perm


def _random_monomial(dim, rng):
    perm = _nonidentity_permutation(dim, rng)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[perm, np.arange(dim)] = np.exp(1j * rng.uniform(0, 2 * np.pi, dim))
    return mat


def _random_permutation(dim, rng):
    perm = _nonidentity_permutation(dim, rng)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[perm, np.arange(dim)] = 1.0
    return mat


_MAKERS = {
    DIAGONAL: _random_diagonal,
    PERMUTATION: _random_monomial,
    DENSE: lambda dim, rng: haar_unitary(dim, rng),
}


@st.composite
def _register_case(draw):
    """Random mixed-dim register, target subset (any order), matrix kind."""
    n = draw(st.integers(min_value=1, max_value=4))
    dims = tuple(draw(st.integers(min_value=2, max_value=5)) for _ in range(n))
    n_targets = draw(st.integers(min_value=1, max_value=min(n, 2)))
    targets = tuple(draw(st.permutations(range(n)))[:n_targets])
    kind = draw(st.sampled_from([DIAGONAL, PERMUTATION, DENSE]))
    batch = draw(st.sampled_from([0, 1, 3]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return dims, targets, kind, batch, seed


class TestFastPathsMatchDense:
    @given(_register_case())
    @settings(max_examples=120, deadline=None)
    def test_apply_matches_dense_reference(self, case):
        dims, targets, kind, batch, seed = case
        rng = np.random.default_rng(seed)
        gate_dim = int(np.prod([dims[t] for t in targets]))
        matrix = _MAKERS[kind](gate_dim, rng)
        structure = classify_gate(matrix)
        assert structure.kind == kind
        shape = dims if batch == 0 else dims + (batch,)
        tensor = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        fast = apply_matrix(tensor, matrix, dims, targets)
        dense = apply_matrix_dense(tensor, matrix, dims, targets)
        np.testing.assert_allclose(fast, dense, atol=1e-12)

    @given(_register_case())
    @settings(max_examples=60, deadline=None)
    def test_precomputed_structure_matches_on_the_fly(self, case):
        dims, targets, kind, batch, seed = case
        rng = np.random.default_rng(seed)
        gate_dim = int(np.prod([dims[t] for t in targets]))
        matrix = _MAKERS[kind](gate_dim, rng)
        tensor = rng.normal(size=dims) + 1j * rng.normal(size=dims)
        with_hint = apply_matrix(
            tensor, matrix, dims, targets, structure=classify_gate(matrix)
        )
        without = apply_matrix(tensor, matrix, dims, targets)
        np.testing.assert_array_equal(with_hint, without)

    def test_pure_permutation_has_no_values(self):
        rng = np.random.default_rng(0)
        structure = classify_gate(_random_permutation(6, rng))
        assert structure.kind == PERMUTATION
        assert structure.values is None


class TestClassification:
    """The paper's native gate set lands on the expected fast paths."""

    @pytest.mark.parametrize(
        "matrix, kind",
        [
            (gates.weyl_z(5, 2), DIAGONAL),
            (gates.snap(6, [0.1, 0.2, 0.3]), DIAGONAL),
            (gates.kerr(5, 0.7), DIAGONAL),
            (gates.cross_kerr(3, 4, 0.5), DIAGONAL),
            (gates.controlled_phase(3, 3), DIAGONAL),
            (gates.parity_op(4), DIAGONAL),
            (gates.weyl_x(5, 2), PERMUTATION),
            (gates.weyl(4, 1, 2), PERMUTATION),
            (gates.csum(3, 3), PERMUTATION),
            (gates.csum_dagger(3, 4), PERMUTATION),
            (gates.permutation_gate([2, 0, 1]), PERMUTATION),
            (gates.fourier(3), DENSE),
            (gates.displacement(6, 0.3), DENSE),
            (gates.qudit_mixer(3, 0.4), DENSE),
            (gates.level_rotation(4, 0, 2, 0.3), DENSE),
        ],
    )
    def test_gate_library_kinds(self, matrix, kind):
        assert classify_gate(matrix).kind == kind

    def test_near_diagonal_stays_dense(self):
        """Structural detection is exact: tiny off-diagonal => dense path."""
        matrix = np.eye(4, dtype=complex)
        matrix[0, 1] = 1e-15
        assert classify_gate(matrix).kind == DENSE

    def test_structure_identity_semantics(self):
        """GateStructure holds arrays: equality/hash are by identity."""
        a = classify_gate(np.eye(3, dtype=complex))
        b = classify_gate(np.eye(3, dtype=complex))
        assert a != b and a == a
        assert len({a, b}) == 2  # hashable, identity-based

    def test_instruction_structure_cached(self):
        qc = QuditCircuit([3])
        qc.z(0)
        instruction = qc.instructions[0]
        first = instruction.structure()
        assert first.kind == DIAGONAL
        assert instruction.structure() is first


class TestEvolveMixedKinds:
    def test_evolve_matches_dense_unitary(self):
        """A circuit mixing all three kinds agrees with the full matrix."""
        rng = np.random.default_rng(11)
        dims = (3, 4, 2)
        qc = QuditCircuit(dims)
        qc.z(0, power=2)  # diagonal
        qc.x(1, power=3)  # permutation
        qc.fourier(2)  # dense
        qc.controlled_phase(0, 1, 0.7)  # diagonal, 2-wire
        qc.csum(2, 0)  # permutation, 2-wire, unsorted targets
        qc.unitary(haar_unitary(12, rng), (0, 1), name="haar")  # dense 2-wire
        sv = Statevector(random_statevector(24, rng), dims)
        evolved = sv.evolve(qc).vector
        reference = qc.to_unitary() @ sv.vector
        np.testing.assert_allclose(evolved, reference, atol=1e-12)


class TestBatchedTrajectories:
    def test_unitary_batch_matches_single(self):
        rng = np.random.default_rng(5)
        dims = (3, 3)
        qc = QuditCircuit(dims)
        qc.fourier(0)
        qc.csum(0, 1)
        qc.z(1)
        sv = Statevector(random_statevector(9, rng), dims)
        final = TrajectorySimulator(qc, seed=0).run_batch(4, initial=sv)
        # deterministic circuit: every trajectory identical and correct
        expected = sv.evolve(qc).vector
        for b in range(4):
            np.testing.assert_allclose(final[:, b], expected, atol=1e-12)

    def test_single_kraus_channel_is_deterministic(self):
        dims = (3, 3)
        qc = QuditCircuit(dims)
        qc.fourier(0)
        qc.channel(unitary_channel(gates.weyl_x(3)).kraus, 1, name="ux")
        qc.csum(0, 1)
        batched = TrajectorySimulator(qc, seed=1).run_batch(5)
        loop_sim = TrajectorySimulator(qc, seed=1)
        reference = loop_sim._run_single(Statevector.zero(dims)).vector
        for b in range(5):
            np.testing.assert_allclose(batched[:, b], reference, atol=1e-12)

    def test_chunked_batches_match_unchunked(self):
        dims = (3, 3)
        qc = QuditCircuit(dims)
        qc.fourier(0)
        qc.csum(0, 1)
        full = TrajectorySimulator(qc, seed=2).run_batch(10)
        chunked = TrajectorySimulator(qc, seed=2, max_batch=3).run_batch(10)
        np.testing.assert_allclose(chunked, full, atol=1e-12)

    def test_batched_reset_sends_wire_to_zero(self):
        qc = QuditCircuit([3, 3])
        qc.fourier(0)
        qc.csum(0, 1)
        qc.reset(1)
        final = TrajectorySimulator(qc, seed=3).run_batch(16)
        probs = np.abs(final) ** 2
        # wire 1 must be |0> in every trajectory: indices 0, 3, 6 only
        support = probs[[0, 3, 6], :].sum(axis=0)
        np.testing.assert_allclose(support, 1.0, atol=1e-10)

    def test_batch_norms_preserved_under_noise(self):
        from repro.core.channels import depolarizing

        qc = QuditCircuit([3, 3])
        qc.fourier(0)
        qc.csum(0, 1)
        qc.channel(depolarizing(3, 0.5).kraus, 0, name="depol")
        final = TrajectorySimulator(qc, seed=4).run_batch(32)
        np.testing.assert_allclose(
            np.linalg.norm(final, axis=0), 1.0, atol=1e-10
        )

    def test_weight_plan_built_for_column_sparse_kraus(self):
        """Photon loss has diagonal K†K -> the GEMM weight plan applies."""
        from repro.core.channels import photon_loss

        qc = QuditCircuit([4])
        qc.channel(photon_loss(4, 0.3).kraus, 0, name="loss")
        sim = TrajectorySimulator(qc, seed=10)
        plan = sim._channel_weight_plan(qc.instructions[0])
        assert plan is not None and plan.shape == (4, 4)

    def test_general_kraus_fallback_converges(self):
        """Basis-rotated loss (non-diagonal K†K) uses the general path."""
        from repro.core import DensityMatrix
        from repro.core.channels import photon_loss

        rng = np.random.default_rng(13)
        rotation = haar_unitary(3, rng)
        kraus = [rotation @ k @ rotation.conj().T for k in photon_loss(3, 0.4).kraus]
        qc = QuditCircuit([3])
        qc.fourier(0)
        qc.channel(kraus, 0, name="rotated-loss")
        sim = TrajectorySimulator(qc, seed=11)
        assert sim._channel_weight_plan(qc.instructions[1]) is None
        average = sim.average_density(1500)
        exact = DensityMatrix.zero([3]).evolve(qc).matrix
        assert np.abs(average - exact).max() < 0.05

    def test_matrix_expectation_matches_callable(self):
        from repro.core.channels import dephasing

        qc = QuditCircuit([3])
        qc.fourier(0)
        qc.channel(dephasing(3, 0.3).kraus, 0, name="dephase")
        operator = gates.number_op(3)
        mean_mat, _ = TrajectorySimulator(qc, seed=6).matrix_expectation(
            operator, 64
        )
        mean_fn, _ = TrajectorySimulator(qc, seed=6).expectation(
            lambda s: float(np.real(s.expectation(operator, 0))), 64
        )
        assert abs(mean_mat - mean_fn) < 1e-10

    def test_circuit_growth_invalidates_execution_plan(self):
        """Appending gates after a run recompiles the circuit's plan."""
        qc = QuditCircuit([3])
        qc.z(0)
        sim = TrajectorySimulator(qc, seed=12)
        sim.run_batch(1)
        stale = qc.plan()
        qc.x(0)
        final = sim.run_batch(1)
        assert qc.plan() is not stale
        assert [s.instruction.name for s in qc.plan()] == ["fused[2]"]
        expected = (gates.weyl_x(3) @ gates.weyl_z(3))[:, 0]
        np.testing.assert_allclose(final[:, 0], expected, atol=1e-12)

    def test_evolve_states_accepts_unbatched_tensor(self):
        qc = QuditCircuit([3, 3])
        qc.fourier(0)
        sim = TrajectorySimulator(qc, seed=7)
        out = sim.evolve_states(Statevector.zero([3, 3]).tensor)
        assert out.shape == (3, 3)
        expected = Statevector.zero([3, 3]).evolve(qc).tensor
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestMeasureQuditSlicing:
    def test_collapse_matches_projector_semantics(self):
        rng = np.random.default_rng(9)
        dims = (3, 4)
        sv = Statevector(random_statevector(12, rng), dims)
        outcome, collapsed = sv.measure_qudit(1, rng=np.random.default_rng(0))
        # all amplitude lives on the measured outcome of wire 1
        tensor = collapsed.tensor
        mask = np.ones(4, dtype=bool)
        mask[outcome] = False
        assert np.abs(tensor[:, mask]).max() == 0.0
        assert abs(collapsed.norm() - 1.0) < 1e-12
        # surviving amplitudes are a rescale of the original slice
        original = sv.tensor[:, outcome]
        ratio = np.linalg.norm(original)
        np.testing.assert_allclose(
            tensor[:, outcome], original / ratio, atol=1e-12
        )
