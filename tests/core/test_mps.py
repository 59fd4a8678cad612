"""Property and unit tests for the matrix-product-state backend.

The headline guarantee: at unbounded bond dimension the MPS evolution of
any supported circuit matches the dense statevector to 1e-8 on mixed-dim
registers up to 7 wires (acceptance criterion of the MPS PR).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DensityMatrix, QuditCircuit, Statevector, gates
from repro.core.channels import dephasing, depolarizing, photon_loss
from repro.core.exceptions import DimensionError, SimulationError
from repro.core.mps import MPSState, operator_schmidt_factors
from repro.core.random_ops import haar_unitary, random_statevector
from repro.core.structure import classify_gate


def _random_diagonal(dim, rng):
    return np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, dim)))


def _random_monomial(dim, rng):
    perm = rng.permutation(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[perm, np.arange(dim)] = np.exp(1j * rng.uniform(0, 2 * np.pi, dim))
    return mat


_MAKERS = [_random_diagonal, _random_monomial, lambda d, rng: haar_unitary(d, rng)]


@st.composite
def _circuit_case(draw):
    """Random mixed-dim register (<= 7 wires) and random gate list."""
    n = draw(st.integers(min_value=2, max_value=7))
    dims = tuple(draw(st.integers(min_value=2, max_value=4)) for _ in range(n))
    n_gates = draw(st.integers(min_value=1, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    gate_specs = []
    for _ in range(n_gates):
        k = draw(st.integers(min_value=1, max_value=2))
        wires = tuple(draw(st.permutations(range(n)))[:k])
        maker = draw(st.integers(min_value=0, max_value=2))
        gate_specs.append((wires, maker))
    return dims, gate_specs, seed


def _build_circuit(dims, gate_specs, seed):
    rng = np.random.default_rng(seed)
    qc = QuditCircuit(dims)
    for wires, maker in gate_specs:
        gate_dim = 1
        for w in wires:
            gate_dim *= dims[w]
        qc.unitary(_MAKERS[maker](gate_dim, rng), wires, name=f"g{maker}")
    return qc


class TestFullChiMatchesDense:
    """Acceptance criterion: unbounded-chi MPS == dense statevector @ 1e-8."""

    @given(_circuit_case())
    @settings(max_examples=60, deadline=None)
    def test_random_circuits(self, case):
        dims, gate_specs, seed = case
        qc = _build_circuit(dims, gate_specs, seed)
        dense = Statevector.zero(dims).evolve(qc)
        mps = MPSState.zero(dims).evolve(qc)
        np.testing.assert_allclose(
            mps.to_statevector().vector, dense.vector, atol=1e-8
        )
        assert mps.truncation_error < 1e-12
        assert mps.dims == tuple(dims)  # swap routing restored the layout

    def test_seven_qutrit_mixed_dim_qaoa_style(self):
        """A deep structured circuit on a 7-wire mixed-dim register."""
        dims = (3, 2, 4, 3, 2, 3, 4)
        rng = np.random.default_rng(3)
        qc = QuditCircuit(dims)
        for i in range(7):
            qc.fourier(i)
        for layer in range(2):
            for i, j in [(0, 3), (1, 2), (4, 6), (2, 5), (0, 6)]:
                qc.controlled_phase(i, j, 0.3 + 0.1 * layer)
            for i in range(7):
                qc.unitary(
                    haar_unitary(dims[i], rng), i, name="mix"
                )
        for i, j in [(3, 0), (6, 2)]:  # unsorted targets
            if dims[i] == dims[j]:
                qc.csum(i, j)
        dense = Statevector.zero(dims).evolve(qc)
        mps = MPSState.zero(dims).evolve(qc)
        np.testing.assert_allclose(
            mps.to_statevector().vector, dense.vector, atol=1e-8
        )

    def test_contiguous_three_wire_gate(self):
        """Qubit-encoding style: a dense gate spanning a contiguous run."""
        dims = (2, 2, 2, 2)
        rng = np.random.default_rng(5)
        qc = QuditCircuit(dims)
        for i in range(4):
            qc.fourier(i)
        qc.unitary(haar_unitary(8, rng), (1, 2, 3), name="block")
        dense = Statevector.zero(dims).evolve(qc)
        mps = MPSState.zero(dims).evolve(qc)
        np.testing.assert_allclose(
            mps.to_statevector().vector, dense.vector, atol=1e-8
        )


class TestStructuredFastPath:
    def test_operator_schmidt_reconstructs(self):
        rng = np.random.default_rng(0)
        for matrix in (
            gates.csum(3, 3),
            gates.controlled_phase(3, 4, 0.7),
            haar_unitary(6, rng),
        ):
            d_left = 3
            d_right = matrix.shape[0] // d_left
            left, right = operator_schmidt_factors(matrix, d_left, d_right)
            rebuilt = sum(
                np.kron(left[k], right[k]) for k in range(left.shape[0])
            )
            np.testing.assert_allclose(rebuilt, matrix, atol=1e-10)

    def test_structured_pair_gate_does_no_svd(self):
        """Adjacent diagonal gate under the cap: zero truncation error and
        the bond grows exactly by the operator Schmidt rank."""
        dims = (3, 3)
        qc = QuditCircuit(dims)
        qc.fourier(0)
        qc.fourier(1)
        mps = MPSState.zero(dims, max_bond=16).evolve(qc)
        assert mps.bond_dimensions() == (1,)
        structure = classify_gate(gates.controlled_phase(3, 3, 0.5))
        rank = operator_schmidt_factors(structure.matrix, 3, 3)[0].shape[0]
        mps.apply_unitary(structure.matrix, (0, 1), structure=structure)
        assert mps.bond_dimensions() == (rank,)
        assert mps.truncation_error == 0.0

    def test_schmidt_factors_cached_on_structure(self):
        structure = classify_gate(gates.csum(3, 3))
        mps = MPSState.zero((3, 3))
        mps.apply_unitary(structure.matrix, (0, 1), structure=structure)
        assert ("op_schmidt", 3, 3) in structure.plans


class TestTruncation:
    def _entangling_circuit(self, dims, layers, seed=0):
        rng = np.random.default_rng(seed)
        qc = QuditCircuit(dims)
        for i in range(len(dims)):
            qc.fourier(i)
        for _ in range(layers):
            for i in range(len(dims) - 1):
                gate_dim = dims[i] * dims[i + 1]
                qc.unitary(haar_unitary(gate_dim, rng), (i, i + 1), name="hr")
        return qc

    def test_bond_cap_enforced_and_error_tracked(self):
        dims = (2,) * 8
        qc = self._entangling_circuit(dims, layers=4)
        capped = MPSState.zero(dims, max_bond=4).evolve(qc)
        assert max(capped.bond_dimensions()) <= 4
        assert capped.truncation_error > 0
        assert abs(capped.norm() - 1.0) < 1e-10

    def test_larger_chi_is_more_accurate(self):
        dims = (2,) * 8
        qc = self._entangling_circuit(dims, layers=3)
        exact = Statevector.zero(dims).evolve(qc)
        fids = []
        for chi in (2, 4, 8):
            approx = MPSState.zero(dims, max_bond=chi).evolve(qc)
            overlap = np.vdot(exact.vector, approx.to_statevector().vector)
            fids.append(abs(overlap) ** 2)
        assert fids[0] <= fids[1] + 1e-12 <= fids[2] + 2e-12
        assert fids[2] > 0.9

    def test_truncation_error_monotone_nondecreasing(self):
        dims = (2,) * 6
        qc = self._entangling_circuit(dims, layers=2)
        mps = MPSState.zero(dims, max_bond=2)
        seen = [0.0]
        for instruction in qc:
            mps.apply_instruction(instruction)
            assert mps.truncation_error >= seen[-1]
            seen.append(mps.truncation_error)
        assert seen[-1] > 0


class TestChannelsAndReset:
    def test_trajectory_average_matches_density(self):
        dims = (3, 2, 3)
        qc = QuditCircuit(dims)
        qc.fourier(0)
        qc.csum(0, 2)
        qc.channel(photon_loss(3, 0.3).kraus, 0, name="loss")
        qc.channel(depolarizing(2, 0.4).kraus, 1, name="depol")
        qc.channel(dephasing(3, 0.5).kraus, 2, name="deph")
        exact = DensityMatrix.zero(dims).evolve(qc)
        op = np.diag([0.0, 1.0, 2.0])
        target = float(np.real(exact.expectation(op, 0)))
        gen = np.random.default_rng(2)
        values = [
            float(np.real(MPSState.zero(dims).evolve(qc, rng=gen).expectation(op, 0)))
            for _ in range(600)
        ]
        assert abs(np.mean(values) - target) < 0.05

    def test_two_site_depolarizing_distant_wires(self):
        """Joint channel on non-adjacent wires routes via swaps."""
        dims = (2, 3, 2)
        qc = QuditCircuit(dims)
        qc.fourier(0)
        qc.channel(depolarizing(4, 0.6).kraus, (0, 2), name="depol2")
        exact = DensityMatrix.zero(dims).evolve(qc)
        op = np.diag([0.0, 1.0])
        target = float(np.real(exact.expectation(op, 0)))
        gen = np.random.default_rng(4)
        values = [
            float(np.real(MPSState.zero(dims).evolve(qc, rng=gen).expectation(op, 0)))
            for _ in range(600)
        ]
        assert abs(np.mean(values) - target) < 0.05

    def test_channel_keeps_state_normalised(self):
        qc = QuditCircuit([3, 3])
        qc.fourier(0)
        qc.csum(0, 1)
        qc.channel(photon_loss(3, 0.4).kraus, 1, name="loss")
        mps = MPSState.zero([3, 3]).evolve(qc, rng=0)
        assert abs(mps.norm() - 1.0) < 1e-10

    def test_reset_sends_wire_to_zero(self):
        qc = QuditCircuit([3, 3])
        qc.fourier(0)
        qc.csum(0, 1)
        qc.reset(1)
        mps = MPSState.zero([3, 3]).evolve(qc, rng=1)
        probs = mps.probabilities().reshape(3, 3)
        assert probs[:, 1:].max() < 1e-12
        assert abs(mps.norm() - 1.0) < 1e-10

    def test_seeded_evolution_replays(self):
        qc = QuditCircuit([3, 3])
        qc.fourier(0)
        qc.channel(depolarizing(3, 0.5).kraus, 0, name="depol")
        a = MPSState.zero([3, 3]).evolve(qc, rng=9)
        b = MPSState.zero([3, 3]).evolve(qc, rng=9)
        np.testing.assert_array_equal(
            a.to_statevector().vector, b.to_statevector().vector
        )


class TestObservables:
    def _random_state(self, dims, seed=0):
        rng = np.random.default_rng(seed)
        dim = int(np.prod(dims))
        sv = Statevector(random_statevector(dim, rng), dims)
        return sv, MPSState.from_statevector(sv)

    @pytest.mark.parametrize(
        "dims, targets",
        [
            ((3, 2, 4, 2), (0,)),
            ((3, 2, 4, 2), (2,)),
            ((3, 2, 4, 2), (1, 2)),       # adjacent
            ((3, 2, 4, 2), (0, 3)),       # distant
            ((3, 2, 4, 2), (3, 1)),       # unsorted distant
            ((2, 2, 2, 2), (0, 1, 2)),    # contiguous run
        ],
    )
    def test_expectation_matches_statevector(self, dims, targets):
        sv, mps = self._random_state(dims, seed=11)
        rng = np.random.default_rng(1)
        gate_dim = 1
        for t in targets:
            gate_dim *= dims[t]
        op = rng.normal(size=(gate_dim, gate_dim))
        op = op + op.T  # hermitian
        expected = complex(sv.expectation(op, targets))
        got = mps.expectation(op, targets)
        assert abs(got - expected) < 1e-10

    def test_amplitude_and_probability(self):
        dims = (3, 2, 3)
        sv, mps = self._random_state(dims, seed=2)
        digits = (2, 1, 0)
        index = np.ravel_multi_index(digits, dims)
        assert abs(mps.amplitude(digits) - sv.vector[index]) < 1e-12
        assert abs(
            mps.probability_of(digits) - abs(sv.vector[index]) ** 2
        ) < 1e-12

    def test_sampling_statistics_and_replay(self):
        dims = (3, 3)
        qc = QuditCircuit(dims)
        qc.fourier(0)
        qc.csum(0, 1)
        mps = MPSState.zero(dims).evolve(qc)
        counts = mps.sample(3000, rng=0)
        assert set(counts) == {(0, 0), (1, 1), (2, 2)}
        for value in counts.values():
            assert abs(value / 3000 - 1 / 3) < 0.05
        assert mps.sample(100, rng=5) == mps.sample(100, rng=5)

    def test_fidelity(self):
        dims = (2, 3, 2)
        sv, mps = self._random_state(dims, seed=7)
        assert abs(mps.fidelity(mps) - 1.0) < 1e-10
        other = MPSState.zero(dims)
        expected = abs(sv.vector[0]) ** 2
        assert abs(mps.fidelity(other) - expected) < 1e-10


class TestConstructorsAndErrors:
    def test_from_statevector_roundtrip(self):
        dims = (3, 2, 4)
        rng = np.random.default_rng(0)
        sv = Statevector(random_statevector(24, rng), dims)
        mps = MPSState.from_statevector(sv)
        np.testing.assert_allclose(
            mps.to_statevector().vector, sv.vector, atol=1e-12
        )

    def test_basis_and_zero(self):
        mps = MPSState.basis((3, 4), (2, 1))
        assert mps.probability_of((2, 1)) == pytest.approx(1.0)
        assert MPSState.zero((3, 4)).probability_of((0, 0)) == pytest.approx(1.0)
        assert mps.bond_dimensions() == (1,)

    def test_dimension_validation(self):
        with pytest.raises(DimensionError):
            MPSState.basis((3,), (0, 0))
        with pytest.raises(DimensionError):
            MPSState.basis((3,), (5,))
        qc = QuditCircuit([3, 3])
        with pytest.raises(DimensionError):
            MPSState.zero([3, 4]).evolve(qc)
        # Negative and out-of-range digits or wires never wrap around.
        mps = MPSState.zero([3, 3, 3])
        z = np.diag([1.0, -1.0, 0.0])
        with pytest.raises(SimulationError):
            mps.expectation(z, (-1,))
        with pytest.raises(SimulationError):
            mps.expectation(z, (3,))
        with pytest.raises(SimulationError):
            mps.apply_unitary(np.eye(9), (3, 0))
        with pytest.raises(SimulationError):
            mps.apply_unitary(np.eye(9), (1, 1))
        with pytest.raises(DimensionError):
            mps.expectation(np.eye(3), (0, 2))
        with pytest.raises(DimensionError):
            mps.amplitude((0, 0, 3))
        with pytest.raises(DimensionError):
            mps.probability_of((0, -1, 0))

    def test_three_wire_noncontiguous_gate_rejected(self):
        dims = (2, 2, 2, 2, 2)
        mps = MPSState.zero(dims)
        rng = np.random.default_rng(0)
        with pytest.raises(SimulationError):
            mps.apply_unitary(haar_unitary(8, rng), (0, 2, 4))

    def test_huge_register_refuses_densification(self):
        mps = MPSState.zero((3,) * 20)
        with pytest.raises(SimulationError):
            mps.to_statevector()

    def test_copy_is_independent(self):
        mps = MPSState.zero((3, 3))
        clone = mps.copy()
        clone.apply_unitary(gates.fourier(3), 0)
        assert mps.probability_of((0, 0)) == pytest.approx(1.0)
        assert clone.probability_of((0, 0)) == pytest.approx(1.0 / 3)


class TestScale:
    def test_twenty_qutrits_bounded_chi(self):
        """A register no dense backend can hold evolves and samples fine."""
        dims = (3,) * 20
        qc = QuditCircuit(dims)
        for i in range(20):
            qc.fourier(i)
        for i in range(19):
            qc.controlled_phase(i, i + 1, 0.4)
        qc.csum(0, 19)  # long-range routing at scale
        mps = MPSState.zero(dims, max_bond=8).evolve(qc)
        assert max(mps.bond_dimensions()) <= 8
        counts = mps.sample(5, rng=0)
        assert sum(counts.values()) == 5
        value = mps.expectation(np.diag([0.0, 1.0, 2.0]), 10)
        assert 0.0 <= float(np.real(value)) <= 2.0


class TestObservableCacheKeying:
    """Regression: a structure shared across registers must not reuse an
    axis-permuted matrix built for different wire dimensions."""

    def test_same_operator_bytes_different_register_dims(self):
        rng = np.random.default_rng(0)
        op = rng.normal(size=(6, 6))
        op = np.asarray(op + op.T, dtype=complex)
        values = []
        for dims in ((2, 3), (3, 2)):
            sv = Statevector(random_statevector(6, rng), dims)
            mps = MPSState.from_statevector(sv)
            got = mps.expectation(op, (1, 0))  # descending targets -> permute
            expected = complex(sv.expectation(op, (1, 0)))
            assert abs(got - expected) < 1e-10
            values.append(got)
        # The two registers genuinely disagree, so a stale cache would fail.
        assert abs(values[0] - values[1]) > 1e-12

    def test_repeated_expectation_uses_cached_structure(self):
        from repro.core.structure import intern_structure

        op = np.diag([0.0, 1.0, 2.0]).astype(complex)
        assert intern_structure(op) is intern_structure(op.copy())

    @pytest.mark.parametrize("engine", ["mps", "lpdo"])
    def test_memo_does_not_alias_the_callers_array(self, engine):
        """Regression: the expectation memo held the caller's buffer, so
        writing into it after one call changed later answers."""
        from repro.core.lpdo import LPDOState

        cls = MPSState if engine == "mps" else LPDOState
        rng = np.random.default_rng(3)
        sv = Statevector(random_statevector(9, rng), (3, 3))
        state = cls.from_statevector(sv)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = a + a.conj().T
        orig = a.copy()
        before = state.expectation(a, 0)
        assert abs(before - sv.expectation(orig, 0)) < 1e-10
        assert abs(before - 1.0) > 0.1
        a[:] = np.eye(3)
        assert state.expectation(orig.copy(), 0) == before
