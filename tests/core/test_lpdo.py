"""Property and unit tests for the locally-purified density-MPO backend.

The headline guarantee: at unbounded bond/Kraus dimension the LPDO
evolution of any supported noisy circuit matches the dense density matrix
to 1e-8 on mixed-dim registers up to 5 wires (acceptance criterion of the
LPDO PR) — channels included, with *zero* Monte-Carlo noise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DensityMatrix, LPDOState, QuditCircuit, Statevector, gates
from repro.core.channels import dephasing, depolarizing, photon_loss, thermal_heating
from repro.core.exceptions import DimensionError, SimulationError
from repro.core.random_ops import haar_unitary, random_statevector


def _random_diagonal(dim, rng):
    return np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, dim)))


def _random_monomial(dim, rng):
    perm = rng.permutation(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[perm, np.arange(dim)] = np.exp(1j * rng.uniform(0, 2 * np.pi, dim))
    return mat


_GATE_MAKERS = [_random_diagonal, _random_monomial, lambda d, rng: haar_unitary(d, rng)]

_CHANNEL_MAKERS = [
    lambda d, rng: depolarizing(d, float(rng.uniform(0.05, 0.6))),
    lambda d, rng: dephasing(d, float(rng.uniform(0.05, 0.6))),
    lambda d, rng: photon_loss(d, float(rng.uniform(0.05, 0.5))),
    lambda d, rng: thermal_heating(d, float(rng.uniform(0.02, 0.2))),
]


@st.composite
def _noisy_circuit_case(draw):
    """Random mixed-dim register (<= 5 wires) with gates *and* channels."""
    n = draw(st.integers(min_value=2, max_value=5))
    dims = tuple(draw(st.integers(min_value=2, max_value=4)) for _ in range(n))
    n_ops = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    specs = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["unitary", "unitary", "channel", "reset"]))
        k = draw(st.integers(min_value=1, max_value=2))
        if kind == "reset":
            k = 1
        wires = tuple(draw(st.permutations(range(n)))[:k])
        maker = draw(st.integers(min_value=0, max_value=3))
        specs.append((kind, wires, maker))
    return dims, specs, seed


def _build_circuit(dims, specs, seed):
    rng = np.random.default_rng(seed)
    qc = QuditCircuit(dims)
    for kind, wires, maker in specs:
        gate_dim = 1
        for w in wires:
            gate_dim *= dims[w]
        if kind == "unitary":
            qc.unitary(
                _GATE_MAKERS[maker % 3](gate_dim, rng), wires, name=f"g{maker}"
            )
        elif kind == "channel":
            qc.channel(
                _CHANNEL_MAKERS[maker](gate_dim, rng).kraus, wires, name=f"c{maker}"
            )
        else:
            qc.reset(wires[0])
    return qc


class TestFullRankMatchesDense:
    """Acceptance criterion: unbounded LPDO == dense DensityMatrix @ 1e-8."""

    @given(_noisy_circuit_case())
    @settings(max_examples=25, deadline=None)
    def test_random_noisy_circuits(self, case):
        dims, specs, seed = case
        qc = _build_circuit(dims, specs, seed)
        dense = DensityMatrix.zero(dims).evolve(qc)
        lpdo = LPDOState.zero(dims).evolve(qc)
        np.testing.assert_allclose(
            lpdo.to_density_matrix().matrix, dense.matrix, atol=1e-8
        )
        assert lpdo.truncation_error < 1e-10
        assert lpdo.purification_error < 1e-10
        assert lpdo.dims == tuple(dims)  # swap routing restored the layout

    def test_deep_structured_noisy_circuit(self):
        dims = (3, 2, 3, 2, 3)
        rng = np.random.default_rng(7)
        qc = QuditCircuit(dims)
        for i in range(5):
            qc.fourier(i)
        for layer in range(2):
            for i, j in [(0, 2), (1, 3), (2, 4), (0, 4)]:
                qc.controlled_phase(i, j, 0.3 + 0.1 * layer)
            for i in range(5):
                qc.unitary(haar_unitary(dims[i], rng), i, name="mix")
            qc.channel(photon_loss(3, 0.15).kraus, 0, name="loss")
            qc.channel(depolarizing(4, 0.3).kraus, (3, 1), name="depol2")
        dense = DensityMatrix.zero(dims).evolve(qc)
        lpdo = LPDOState.zero(dims).evolve(qc)
        np.testing.assert_allclose(
            lpdo.to_density_matrix().matrix, dense.matrix, atol=1e-8
        )

    def test_two_site_channel_in_reduced_right_basis(self):
        """A joint channel on a wide right site (chi_l chi_r > d kappa)
        accumulates its Kraus chunks in the span of that site's slices;
        the result must still be the exact channel."""
        dims = (3,) * 5
        sv = Statevector(random_statevector(3**5, np.random.default_rng(4)), dims)
        prep = QuditCircuit(dims)
        prep.channel(dephasing(3, 0.4).kraus, 3, name="deph")
        noisy = QuditCircuit(dims)
        noisy.channel(depolarizing(9, 0.35).kraus, (2, 3), name="depol2")
        lpdo = LPDOState.from_statevector(sv).evolve(prep)
        chi_l, chi_r = lpdo.bond_dimensions()[2:4]
        assert chi_l * chi_r > dims[3] * lpdo.kraus_dimensions()[3]
        lpdo = lpdo.evolve(noisy)
        dense = DensityMatrix.from_statevector(sv).evolve(prep).evolve(noisy)
        np.testing.assert_allclose(
            lpdo.to_density_matrix().matrix, dense.matrix, atol=1e-10
        )

    def test_noiseless_circuit_stays_pure(self):
        dims = (3, 3)
        qc = QuditCircuit(dims)
        qc.fourier(0)
        qc.csum(0, 1)
        lpdo = LPDOState.zero(dims).evolve(qc)
        assert lpdo.kraus_dimensions() == (1, 1)
        assert lpdo.to_density_matrix().purity() == pytest.approx(1.0)

    def test_channels_are_deterministic(self):
        """Unlike the MPS unravelling, two runs agree exactly — no rng."""
        dims = (3, 3)
        qc = QuditCircuit(dims)
        qc.fourier(0)
        qc.channel(depolarizing(3, 0.5).kraus, 0, name="depol")
        a = LPDOState.zero(dims).evolve(qc)
        b = LPDOState.zero(dims).evolve(qc)
        np.testing.assert_array_equal(
            a.to_density_matrix().matrix, b.to_density_matrix().matrix
        )


class TestTruncation:
    def _noisy_entangler(self, dims, layers, seed=0):
        rng = np.random.default_rng(seed)
        qc = QuditCircuit(dims)
        for i in range(len(dims)):
            qc.fourier(i)
        for _ in range(layers):
            for i in range(len(dims) - 1):
                qc.unitary(
                    haar_unitary(dims[i] * dims[i + 1], rng), (i, i + 1), name="hr"
                )
            for i in range(len(dims)):
                qc.channel(depolarizing(dims[i], 0.3).kraus, i, name="depol")
        return qc

    def test_caps_enforced_and_errors_tracked(self):
        dims = (2,) * 6
        qc = self._noisy_entangler(dims, layers=3)
        capped = LPDOState.zero(dims, max_bond=4, max_kraus=2).evolve(qc)
        assert max(capped.bond_dimensions()) <= 4
        assert max(capped.kraus_dimensions()) <= 2
        assert capped.truncation_error > 0
        assert capped.purification_error > 0
        assert abs(capped.trace() - 1.0) < 1e-10

    def test_larger_caps_are_more_accurate(self):
        dims = (2,) * 5
        qc = self._noisy_entangler(dims, layers=2)
        exact = DensityMatrix.zero(dims).evolve(qc)
        errors = []
        for cap in (2, 4, 16):
            approx = LPDOState.zero(dims, max_bond=cap, max_kraus=cap).evolve(qc)
            errors.append(
                np.abs(approx.to_density_matrix().matrix - exact.matrix).max()
            )
        assert errors[2] <= errors[0] + 1e-12
        assert errors[2] < 1e-6

    def test_error_counters_monotone_nondecreasing(self):
        dims = (2,) * 5
        qc = self._noisy_entangler(dims, layers=2)
        lpdo = LPDOState.zero(dims, max_bond=2, max_kraus=2)
        seen = [(0.0, 0.0)]
        for instruction in qc:
            lpdo.apply_instruction(instruction)
            assert lpdo.truncation_error >= seen[-1][0]
            assert lpdo.purification_error >= seen[-1][1]
            seen.append((lpdo.truncation_error, lpdo.purification_error))
        assert seen[-1][1] > 0


class TestObservables:
    def _random_mixed(self, dims, seed=0):
        """A genuinely mixed LPDO and its dense reference."""
        rng = np.random.default_rng(seed)
        qc = QuditCircuit(dims)
        for i in range(len(dims)):
            qc.unitary(haar_unitary(dims[i], rng), i, name="u")
        for i in range(len(dims) - 1):
            qc.unitary(
                haar_unitary(dims[i] * dims[i + 1], rng), (i, i + 1), name="uu"
            )
            qc.channel(dephasing(dims[i], 0.3).kraus, i, name="deph")
        return (
            DensityMatrix.zero(dims).evolve(qc),
            LPDOState.zero(dims).evolve(qc),
        )

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
    def test_expectation_matches_density(self, dims, targets):
        dense, lpdo = self._random_mixed(dims, seed=11)
        rng = np.random.default_rng(1)
        gate_dim = 1
        for t in targets:
            gate_dim *= dims[t]
        op = rng.normal(size=(gate_dim, gate_dim))
        op = op + op.T  # hermitian
        expected = complex(dense.expectation(op, targets))
        got = lpdo.expectation(op, targets)
        assert abs(got - expected) < 1e-8

    def test_probabilities_of_matches_density(self):
        dims = (3, 2, 3)
        dense, lpdo = self._random_mixed(dims, seed=3)
        for digits in [(0, 0, 0), (2, 1, 0), (1, 1, 2)]:
            assert lpdo.probabilities_of(digits) == pytest.approx(
                dense.probability_of(digits), abs=1e-10
            )

    def test_probabilities_vector_matches_density(self):
        dims = (3, 2, 3)
        dense, lpdo = self._random_mixed(dims, seed=5)
        reference = dense.probabilities()
        np.testing.assert_allclose(
            lpdo.probabilities(), reference / reference.sum(), atol=1e-10
        )

    def test_sampling_statistics_and_replay(self):
        dims = (3, 3)
        qc = QuditCircuit(dims)
        qc.fourier(0)
        qc.csum(0, 1)
        qc.channel(dephasing(3, 0.4).kraus, 0, name="deph")
        lpdo = LPDOState.zero(dims).evolve(qc)
        counts = lpdo.sample(3000, rng=0)
        assert set(counts) == {(0, 0), (1, 1), (2, 2)}
        for value in counts.values():
            assert abs(value / 3000 - 1 / 3) < 0.05
        assert lpdo.sample(100, rng=5) == lpdo.sample(100, rng=5)

    def test_trace_and_purity_under_noise(self):
        dims = (3, 3)
        qc = QuditCircuit(dims)
        qc.fourier(0)
        qc.csum(0, 1)
        qc.channel(depolarizing(3, 0.5).kraus, 0, name="depol")
        lpdo = LPDOState.zero(dims).evolve(qc)
        assert lpdo.trace() == pytest.approx(1.0, abs=1e-10)
        assert lpdo.to_density_matrix().purity() < 0.999


class TestConstructorsAndErrors:
    def test_from_statevector_roundtrip(self):
        dims = (3, 2, 4)
        rng = np.random.default_rng(0)
        sv = Statevector(random_statevector(24, rng), dims)
        lpdo = LPDOState.from_statevector(sv)
        np.testing.assert_allclose(
            lpdo.to_density_matrix().matrix,
            np.outer(sv.vector, sv.vector.conj()),
            atol=1e-12,
        )

    def test_basis_and_zero(self):
        lpdo = LPDOState.basis((3, 4), (2, 1))
        assert lpdo.probabilities_of((2, 1)) == pytest.approx(1.0)
        assert LPDOState.zero((3, 4)).probabilities_of((0, 0)) == pytest.approx(1.0)
        assert lpdo.bond_dimensions() == (1,)
        assert lpdo.kraus_dimensions() == (1, 1)

    def test_reset_sends_wire_to_zero_exactly(self):
        qc = QuditCircuit([3, 3])
        qc.fourier(0)
        qc.csum(0, 1)
        qc.reset(1)
        lpdo = LPDOState.zero([3, 3]).evolve(qc)
        probs = lpdo.probabilities().reshape(3, 3)
        assert probs[:, 1:].max() < 1e-12
        assert lpdo.trace() == pytest.approx(1.0, abs=1e-10)

    def test_dimension_validation(self):
        with pytest.raises(DimensionError):
            LPDOState.basis((3,), (0, 0))
        with pytest.raises(DimensionError):
            LPDOState.basis((3,), (5,))
        qc = QuditCircuit([3, 3])
        with pytest.raises(DimensionError):
            LPDOState.zero([3, 4]).evolve(qc)
        # Negative and out-of-range digits or wires never wrap around.
        lpdo = LPDOState.zero([3, 3])
        with pytest.raises(DimensionError):
            lpdo.probabilities_of([-3, 0])
        with pytest.raises(DimensionError):
            lpdo.probabilities_of([0, 3])
        with pytest.raises(SimulationError):
            lpdo.expectation(np.diag([1.0, -1.0, 0.0]), (-1,))
        with pytest.raises(SimulationError):
            lpdo.apply_unitary(np.eye(9), (2, 0))
        with pytest.raises(SimulationError):
            lpdo.apply_unitary(np.eye(9), (1, 1))
        with pytest.raises(DimensionError):
            lpdo.expectation(np.eye(3), (0, 1))

    def test_three_wire_noncontiguous_gate_rejected(self):
        dims = (2, 2, 2, 2, 2)
        lpdo = LPDOState.zero(dims)
        rng = np.random.default_rng(0)
        with pytest.raises(SimulationError):
            lpdo.apply_unitary(haar_unitary(8, rng), (0, 2, 4))

    def test_huge_register_refuses_densification(self):
        lpdo = LPDOState.zero((3,) * 20)
        with pytest.raises(SimulationError):
            lpdo.to_density_matrix()

    def test_copy_is_independent(self):
        lpdo = LPDOState.zero((3, 3))
        clone = lpdo.copy()
        clone.apply_unitary(gates.fourier(3), 0)
        assert lpdo.probabilities_of((0, 0)) == pytest.approx(1.0)
        assert clone.probabilities_of((0, 0)) == pytest.approx(1.0 / 3)


class TestScale:
    def test_twelve_qutrits_exact_noisy_evolution(self):
        """A register far beyond the dense density matrix (3^24 entries)
        evolves with exact channels — no trajectories, no dense objects."""
        dims = (3,) * 12
        qc = QuditCircuit(dims)
        for i in range(12):
            qc.fourier(i)
        for i in range(11):
            qc.controlled_phase(i, i + 1, 0.4)
        for i in range(12):
            qc.channel(photon_loss(3, 0.1).kraus, i, name="loss")
        qc.csum(0, 11)  # long-range routing at scale
        lpdo = LPDOState.zero(dims, max_bond=16, max_kraus=8).evolve(qc)
        assert max(lpdo.bond_dimensions()) <= 16
        assert max(lpdo.kraus_dimensions()) <= 8
        assert lpdo.trace() == pytest.approx(1.0, abs=1e-8)
        assert lpdo.truncation_error >= 0.0
        assert lpdo.purification_error >= 0.0
        counts = lpdo.sample(5, rng=0)
        assert sum(counts.values()) == 5
        value = lpdo.expectation(np.diag([0.0, 1.0, 2.0]), 6)
        assert 0.0 <= float(np.real(value)) <= 2.0


class TestCappedKrausPair:
    """Capped two-site channels: chunked Kraus accumulation with lossy
    interim truncations, as the sQED damage study drives it."""

    def test_six_site_damage_pinned(self):
        from repro.sqed.noise_study import damage_task

        damage = damage_task(
            0.03,
            method="lpdo",
            n_sites=6,
            spin=1,
            encoding="qudit",
            max_bond=16,
            max_kraus=8,
            t_total=1.0,
            n_steps=2,
        )
        assert abs(damage - 0.05521435029) < 1e-9

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "interim Kraus-chunk truncations rescale by a local-frame "
            "total/kept before un-rescaled chunks are appended, re-weighting "
            "the Kraus branches; see the ROADMAP open item 'Interim "
            "Kraus-chunk rescale breaks the trace'"
        ),
    )
    def test_noisy_trotter_steps_preserve_trace(self):
        from repro.sqed.encodings import QuditEncoding, insert_depolarizing_noise
        from repro.sqed.rotor import RotorChain

        enc = QuditEncoding(RotorChain(n_sites=6, spin=1, hopping=0.3))
        step = insert_depolarizing_noise(enc.trotter_step(0.5), enc, 0.03)
        digits = enc.product_state_digits([1, 0, 0, 0, 0, 0])
        lpdo = LPDOState.basis(enc.dims, digits, max_bond=16, max_kraus=8)
        for _ in range(2):
            lpdo = lpdo.evolve(step)
        assert abs(lpdo.trace() - 1.0) < 1e-9
