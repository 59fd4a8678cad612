"""Tests for the statevector simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QuditCircuit, Statevector, gates
from repro.core.exceptions import DimensionError, SimulationError
from repro.core.random_ops import haar_unitary, random_statevector
from repro.core.statevector import embed_unitary


class TestConstructors:
    def test_zero_state(self):
        sv = Statevector.zero([3, 4])
        assert sv.dim == 12
        assert abs(sv.vector[0] - 1.0) < 1e-12
        assert abs(sv.norm() - 1.0) < 1e-12

    def test_basis_state(self):
        sv = Statevector.basis([3, 3], (2, 1))
        assert abs(sv.vector[7] - 1.0) < 1e-12

    def test_uniform(self):
        sv = Statevector.uniform([2, 3])
        np.testing.assert_allclose(sv.probabilities(), np.full(6, 1 / 6), atol=1e-12)

    def test_wrong_size_rejected(self):
        with pytest.raises(DimensionError):
            Statevector(np.zeros(5), [3, 3])

    def test_normalize_zero_state_fails(self):
        sv = Statevector(np.zeros(9), [3, 3])
        with pytest.raises(SimulationError):
            sv.normalized()


class TestApply:
    def test_single_qudit_gate(self):
        sv = Statevector.zero([3]).apply(gates.weyl_x(3), 0)
        assert abs(sv.vector[1] - 1.0) < 1e-12

    def test_gate_on_second_wire(self):
        sv = Statevector.zero([2, 3]).apply(gates.weyl_x(3), 1)
        assert abs(sv.vector[1] - 1.0) < 1e-12  # |0,1> index = 1

    def test_two_qudit_gate_wire_order(self):
        """csum with control on wire 1, target wire 0."""
        sv = Statevector.basis([3, 3], (0, 1))
        out = sv.apply(gates.csum(3), (1, 0))  # control = wire 1 value 1
        # target wire 0 becomes 0 + 1 = 1 -> |1,1> = index 4
        assert abs(out.vector[4] - 1.0) < 1e-12

    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_norm_preserved_by_random_unitaries(self, d, n):
        rng = np.random.default_rng(42)
        sv = Statevector(random_statevector(d**n, rng), [d] * n)
        for wire in range(n):
            sv = sv.apply(haar_unitary(d, rng), wire)
        assert abs(sv.norm() - 1.0) < 1e-10

    def test_apply_matches_embed_unitary(self):
        rng = np.random.default_rng(7)
        dims = (2, 3, 2)
        sv = Statevector(random_statevector(12, rng), dims)
        u = haar_unitary(6, rng)
        direct = sv.apply(u, (2, 1)).vector
        full = embed_unitary(u, dims, (2, 1))
        np.testing.assert_allclose(direct, full @ sv.vector, atol=1e-10)


class TestEvolve:
    def test_ghz_generalisation(self):
        qc = QuditCircuit([3, 3])
        qc.fourier(0)
        qc.csum(0, 1)
        probs = Statevector.zero([3, 3]).evolve(qc).probabilities()
        np.testing.assert_allclose(probs[[0, 4, 8]], np.full(3, 1 / 3), atol=1e-10)
        assert probs[[1, 2, 3, 5, 6, 7]].max() < 1e-12

    def test_dim_mismatch(self):
        qc = QuditCircuit([3, 3])
        with pytest.raises(DimensionError):
            Statevector.zero([3, 4]).evolve(qc)

    def test_channel_rejected(self):
        from repro.core.channels import depolarizing

        qc = QuditCircuit([3])
        qc.channel(depolarizing(3, 0.1).kraus, 0)
        with pytest.raises(SimulationError):
            Statevector.zero([3]).evolve(qc)

    def test_measure_marker_ignored(self):
        qc = QuditCircuit([3])
        qc.fourier(0)
        qc.measure()
        sv = Statevector.zero([3]).evolve(qc)
        assert abs(sv.norm() - 1.0) < 1e-12


class TestObservables:
    def test_expectation_number_operator(self):
        sv = Statevector.basis([4], (2,))
        val = sv.expectation(gates.number_op(4), 0)
        assert abs(val - 2.0) < 1e-12

    def test_expectation_local_on_multi_wire(self):
        sv = Statevector.basis([3, 4], (1, 3))
        assert abs(sv.expectation(gates.number_op(4), 1) - 3.0) < 1e-12

    def test_global_expectation_default_targets(self):
        sv = Statevector.uniform([2, 2])
        op = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
        assert abs(sv.expectation(op) - 1.5) < 1e-12

    def test_fidelity_self(self):
        rng = np.random.default_rng(3)
        sv = Statevector(random_statevector(9, rng), [3, 3])
        assert abs(sv.fidelity(sv) - 1.0) < 1e-12

    def test_fidelity_orthogonal(self):
        a = Statevector.basis([3], (0,))
        b = Statevector.basis([3], (1,))
        assert a.fidelity(b) < 1e-15

    def test_fidelity_dim_mismatch(self):
        with pytest.raises(DimensionError):
            Statevector.zero([3]).fidelity(Statevector.zero([4]))


class TestSampling:
    def test_sample_deterministic_state(self):
        counts = Statevector.basis([3, 3], (2, 0)).sample(100)
        assert counts == {(2, 0): 100}

    def test_sample_total_shots(self):
        rng = np.random.default_rng(0)
        counts = Statevector.uniform([3, 3]).sample(500, rng=rng)
        assert sum(counts.values()) == 500

    def test_sample_uniform_coverage(self):
        rng = np.random.default_rng(0)
        counts = Statevector.uniform([2, 2]).sample(4000, rng=rng)
        for outcome in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert abs(counts[outcome] / 4000 - 0.25) < 0.05

    def test_measure_qudit_collapses(self):
        rng = np.random.default_rng(5)
        qc = QuditCircuit([3, 3])
        qc.fourier(0)
        qc.csum(0, 1)
        sv = Statevector.zero([3, 3]).evolve(qc)
        outcome, collapsed = sv.measure_qudit(0, rng=rng)
        # correlated state: wire 1 must equal wire 0's outcome
        probs = collapsed.probabilities()
        assert abs(probs[outcome * 3 + outcome] - 1.0) < 1e-10


class TestPartialTrace:
    def test_product_state_reduction(self):
        sv = Statevector.basis([3, 4], (2, 1))
        rho = sv.partial_trace([0])
        expected = np.zeros((3, 3))
        expected[2, 2] = 1.0
        np.testing.assert_allclose(rho, expected, atol=1e-12)

    def test_entangled_state_is_mixed(self):
        qc = QuditCircuit([3, 3])
        qc.fourier(0)
        qc.csum(0, 1)
        sv = Statevector.zero([3, 3]).evolve(qc)
        rho = sv.partial_trace([1])
        np.testing.assert_allclose(rho, np.eye(3) / 3, atol=1e-10)

    @given(st.integers(min_value=2, max_value=4))
    @settings(max_examples=10, deadline=None)
    def test_trace_is_one(self, d):
        rng = np.random.default_rng(d)
        sv = Statevector(random_statevector(d * d, rng), [d, d])
        assert abs(np.trace(sv.partial_trace([0])) - 1.0) < 1e-10


@pytest.mark.parametrize("engine", ["statevector", "density"])
def test_bad_wires_raise_dimension_error(engine):
    """Both dense engines validate wires and operator shapes alike."""
    from repro.core import DensityMatrix

    pure = Statevector.uniform([2, 3])
    if engine == "statevector":
        state, apply = pure, pure.apply
    else:
        state = DensityMatrix.from_statevector(pure)
        apply = state.apply_unitary
    bad_calls = [
        lambda: apply(gates.weyl_x(3), -1),  # would wrap to wire 1
        lambda: apply(gates.weyl_x(3), 5),
        lambda: apply(gates.weyl_x(3), 0),  # 3x3 operator on a d=2 wire
        lambda: apply(np.eye(9), (1, 1)),
        lambda: state.expectation(gates.number_op(3), 2),
        lambda: state.partial_trace([5]),
        lambda: state.partial_trace([0, 0]),
    ]
    if engine == "statevector":
        bad_calls += [lambda: state.measure_qudit(5), lambda: state.measure_qudit(-1)]
    for call in bad_calls:
        with pytest.raises(DimensionError):
            call()
