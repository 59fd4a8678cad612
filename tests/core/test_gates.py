"""Tests for the qudit/bosonic gate library."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from repro.core import gates
from repro.core.exceptions import DimensionError

dim_strategy = st.integers(min_value=2, max_value=8)
angle_strategy = st.floats(
    min_value=-2 * np.pi, max_value=2 * np.pi, allow_nan=False
)


class TestWeylOperators:
    @given(dim_strategy)
    def test_x_is_unitary(self, d):
        assert gates.is_unitary(gates.weyl_x(d))

    @given(dim_strategy)
    def test_z_is_unitary(self, d):
        assert gates.is_unitary(gates.weyl_z(d))

    @given(dim_strategy)
    def test_x_order_d(self, d):
        """X^d = I."""
        np.testing.assert_allclose(
            np.linalg.matrix_power(gates.weyl_x(d), d), np.eye(d), atol=1e-12
        )

    @given(dim_strategy)
    def test_z_order_d(self, d):
        np.testing.assert_allclose(
            np.linalg.matrix_power(gates.weyl_z(d), d), np.eye(d), atol=1e-12
        )

    @given(dim_strategy)
    def test_weyl_commutation(self, d):
        """ZX = w XZ with w = exp(2 pi i / d)."""
        x, z = gates.weyl_x(d), gates.weyl_z(d)
        omega = np.exp(2j * np.pi / d)
        np.testing.assert_allclose(z @ x, omega * x @ z, atol=1e-12)

    def test_x_action_on_basis(self):
        x = gates.weyl_x(3)
        vec = np.zeros(3)
        vec[1] = 1.0
        np.testing.assert_allclose(x @ vec, [0, 0, 1])
        np.testing.assert_allclose(x @ (x @ vec), [1, 0, 0])

    def test_x_negative_power(self):
        np.testing.assert_allclose(
            gates.weyl_x(5, -1), gates.weyl_x(5, 1).conj().T, atol=1e-12
        )

    @given(dim_strategy)
    def test_weyl_basis_orthogonality(self, d):
        """Tr(W_ab† W_cd) = d * delta — tested on a few random pairs."""
        rng = np.random.default_rng(d)
        for _ in range(3):
            a, b, c, e = rng.integers(0, d, size=4)
            inner = np.trace(gates.weyl(d, a, b).conj().T @ gates.weyl(d, c, e))
            if (a, b) == (c, e):
                assert abs(inner - d) < 1e-10
            else:
                assert abs(inner) < 1e-10

    def test_rejects_dim_one(self):
        with pytest.raises(DimensionError):
            gates.weyl_x(1)


class TestFourier:
    @given(dim_strategy)
    def test_unitary(self, d):
        assert gates.is_unitary(gates.fourier(d))

    @given(dim_strategy)
    def test_diagonalises_x(self, d):
        """F† X F = Z (up to the standard convention F X F† = Z†...)."""
        f, x, z = gates.fourier(d), gates.weyl_x(d), gates.weyl_z(d)
        np.testing.assert_allclose(f.conj().T @ z @ f, x, atol=1e-10)

    def test_qubit_case_is_hadamard(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(gates.fourier(2), h, atol=1e-12)

    @given(dim_strategy)
    def test_fourth_power_identity(self, d):
        f = gates.fourier(d)
        np.testing.assert_allclose(
            np.linalg.matrix_power(f, 4), np.eye(d), atol=1e-10
        )


class TestLevelRotation:
    @given(dim_strategy, angle_strategy, angle_strategy)
    def test_unitary(self, d, theta, phi):
        assert gates.is_unitary(gates.level_rotation(d, 0, d - 1, theta, phi))

    def test_full_rotation_swaps_levels(self):
        """theta = pi maps |i> -> |j> (up to phase)."""
        rot = gates.level_rotation(4, 1, 3, np.pi)
        vec = np.zeros(4)
        vec[1] = 1.0
        out = rot @ vec
        assert abs(abs(out[3]) - 1.0) < 1e-12

    def test_identity_outside_subspace(self):
        rot = gates.level_rotation(5, 0, 2, 1.234, 0.5)
        for level in (1, 3, 4):
            vec = np.zeros(5)
            vec[level] = 1.0
            np.testing.assert_allclose(rot @ vec, vec, atol=1e-12)

    def test_rejects_equal_levels(self):
        with pytest.raises(DimensionError):
            gates.level_rotation(3, 1, 1, 0.3)

    def test_rejects_out_of_range(self):
        with pytest.raises(DimensionError):
            gates.level_rotation(3, 0, 3, 0.3)


class TestSnap:
    def test_phases_applied_per_level(self):
        snap = gates.snap(3, [0.1, 0.2, 0.3])
        np.testing.assert_allclose(
            np.diag(snap), np.exp(1j * np.array([0.1, 0.2, 0.3])), atol=1e-12
        )

    def test_short_phase_list_padded(self):
        snap = gates.snap(4, [np.pi])
        np.testing.assert_allclose(np.diag(snap)[1:], np.ones(3), atol=1e-12)

    def test_too_many_phases_rejected(self):
        with pytest.raises(DimensionError):
            gates.snap(2, [0.1, 0.2, 0.3])

    @given(dim_strategy)
    def test_unitary(self, d):
        rng = np.random.default_rng(d)
        assert gates.is_unitary(gates.snap(d, rng.uniform(-np.pi, np.pi, d)))

    def test_rz_level_is_one_hot_snap(self):
        np.testing.assert_allclose(
            gates.rz_level(4, 2, 0.7), gates.snap(4, [0, 0, 0.7, 0]), atol=1e-12
        )


class TestLadderOperators:
    @given(dim_strategy)
    def test_commutator_truncation(self, d):
        """[a, a†] = I except at the truncation edge."""
        a = gates.annihilation(d)
        comm = a @ a.conj().T - a.conj().T @ a
        expected = np.eye(d)
        expected[-1, -1] = -(d - 1)  # truncation artefact
        np.testing.assert_allclose(comm, expected, atol=1e-12)

    @given(dim_strategy)
    def test_number_operator(self, d):
        a = gates.annihilation(d)
        np.testing.assert_allclose(
            a.conj().T @ a, gates.number_op(d), atol=1e-12
        )

    def test_annihilation_action(self):
        a = gates.annihilation(4)
        vec = np.zeros(4)
        vec[2] = 1.0
        out = a @ vec
        assert abs(out[1] - np.sqrt(2)) < 1e-12

    @given(dim_strategy)
    def test_quadrature_commutator(self, d):
        """[x, p] = i I away from the truncation edge."""
        x = gates.position_quadrature(d)
        p = gates.momentum_quadrature(d)
        comm = x @ p - p @ x
        np.testing.assert_allclose(
            comm[: d - 1, : d - 1], 1j * np.eye(d - 1), atol=1e-12
        )


class TestDisplacement:
    def test_small_alpha_nearly_unitary(self):
        disp = gates.displacement(20, 1.0)
        assert gates.is_unitary(disp, atol=1e-6)

    def test_vacuum_to_coherent(self):
        """D(alpha)|0> has Poisson photon statistics."""
        d, alpha = 25, 1.2
        vec = gates.displacement(d, alpha)[:, 0]
        n_mean = float(np.sum(np.arange(d) * np.abs(vec) ** 2))
        assert abs(n_mean - alpha**2) < 1e-3

    def test_inverse_displacement(self):
        d, alpha = 16, 0.7 + 0.3j
        prod = gates.displacement(d, alpha) @ gates.displacement(d, -alpha)
        # Truncation errors only near the edge; check the low-photon block.
        np.testing.assert_allclose(prod[:8, :8], np.eye(16)[:8, :8], atol=1e-6)

    @pytest.mark.parametrize("d", range(2, 26))
    def test_closed_form_matches_expm(self, d):
        """The eigenbasis closed form equals exp(alpha a† - alpha* a)."""
        a = np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1)
        rng = np.random.default_rng(d)
        radius = 2.0 * np.sqrt(rng.uniform(size=3))
        random = radius * np.exp(2j * np.pi * rng.uniform(size=3))
        for alpha in (0.0, 1.3, -0.6, 0.8j, -2.0j, *random):
            oracle = expm(alpha * a.T - np.conj(alpha) * a)
            np.testing.assert_allclose(
                gates.displacement(d, alpha), oracle, rtol=0, atol=1e-13
            )

    def test_exactly_unitary_despite_truncation(self):
        assert gates.is_unitary(gates.displacement(6, 1.7 - 0.9j), atol=1e-13)

    def test_amplitude_array_stacks_matrices(self):
        alphas = np.array([[0.3, -0.2j], [0.0, 1.1 + 0.4j]])
        stacked = gates.displacement(7, alphas)
        assert stacked.shape == (2, 2, 7, 7)
        for index in np.ndindex(alphas.shape):
            np.testing.assert_allclose(
                stacked[index], gates.displacement(7, alphas[index]), atol=1e-14
            )

    def test_eigenbasis_cache_is_read_only(self):
        lam, vecs = gates.displacement_eigenbasis(5)
        with pytest.raises(ValueError):
            lam[0] = 0.0
        with pytest.raises(ValueError):
            vecs[0, 0] = 0.0
        a = gates.annihilation(5)
        np.testing.assert_allclose(
            vecs @ np.diag(lam) @ vecs.conj().T, 1j * (a.conj().T - a), atol=1e-13
        )


class TestBeamsplitter:
    @given(st.integers(min_value=2, max_value=5), angle_strategy)
    @settings(max_examples=20, deadline=None)
    def test_unitary(self, d, theta):
        assert gates.is_unitary(gates.beamsplitter(d, d, theta))

    def test_preserves_total_photon_number(self):
        d = 4
        bs = gates.beamsplitter(d, d, 0.7, 0.2)
        n_total = np.kron(gates.number_op(d), np.eye(d)) + np.kron(
            np.eye(d), gates.number_op(d)
        )
        np.testing.assert_allclose(
            bs @ n_total @ bs.conj().T, n_total, atol=1e-9
        )

    def test_swap_angle_exchanges_single_photon(self):
        """theta = pi/2 maps |1, 0> -> |0, 1> up to phase."""
        d = 3
        bs = gates.beamsplitter(d, d, np.pi / 2)
        vec = np.zeros(d * d)
        vec[1 * d + 0] = 1.0  # |1, 0>
        out = bs @ vec
        assert abs(abs(out[0 * d + 1]) - 1.0) < 1e-9


class TestCsum:
    @given(st.integers(min_value=2, max_value=6))
    def test_action(self, d):
        mat = gates.csum(d)
        for a in range(d):
            for b in range(d):
                vec = np.zeros(d * d)
                vec[a * d + b] = 1.0
                out = mat @ vec
                assert abs(out[a * d + (a + b) % d] - 1.0) < 1e-12

    @given(st.integers(min_value=2, max_value=6))
    def test_unitary_and_inverse(self, d):
        mat = gates.csum(d)
        assert gates.is_unitary(mat)
        np.testing.assert_allclose(
            mat @ gates.csum_dagger(d), np.eye(d * d), atol=1e-12
        )

    def test_qubit_case_is_cnot(self):
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float
        )
        np.testing.assert_allclose(gates.csum(2), cnot, atol=1e-12)

    def test_mixed_dimensions(self):
        mat = gates.csum(2, 3)
        vec = np.zeros(6)
        vec[1 * 3 + 2] = 1.0  # |1, 2> -> |1, 0>
        out = mat @ vec
        assert abs(out[1 * 3 + 0] - 1.0) < 1e-12

    @given(st.integers(min_value=2, max_value=5))
    def test_order_d(self, d):
        """CSUM^d = I for equal dims."""
        np.testing.assert_allclose(
            np.linalg.matrix_power(gates.csum(d), d), np.eye(d * d), atol=1e-10
        )

    @given(st.integers(min_value=2, max_value=5))
    def test_fourier_route(self, d):
        """(I ⊗ F†) CZ (I ⊗ F) = CSUM — the synthesis identity."""
        f = gates.fourier(d)
        cz = gates.controlled_phase(d, d)
        route = (
            np.kron(np.eye(d), f.conj().T) @ cz @ np.kron(np.eye(d), f)
        )
        np.testing.assert_allclose(route, gates.csum(d), atol=1e-10)


class TestControlledOps:
    def test_controlled_phase_diagonal(self):
        cz = gates.controlled_phase(3, 3)
        assert np.allclose(cz, np.diag(np.diag(cz)))
        omega = np.exp(2j * np.pi / 3)
        assert abs(cz[4, 4] - omega) < 1e-12  # |1,1> picks up w^1

    def test_controlled_unitary_identity_block(self):
        u = gates.fourier(3)
        cu = gates.controlled_unitary(3, u, control_value=2)
        np.testing.assert_allclose(cu[:6, :6], np.eye(6), atol=1e-12)
        np.testing.assert_allclose(cu[6:, 6:], u, atol=1e-12)

    def test_controlled_unitary_bad_value(self):
        with pytest.raises(DimensionError):
            gates.controlled_unitary(3, np.eye(3), control_value=3)

    def test_cross_kerr_diagonal_entangler(self):
        ck = gates.cross_kerr(3, 3, np.pi)
        assert gates.is_unitary(ck)
        assert abs(ck[4, 4] - np.exp(-1j * np.pi)) < 1e-12


class TestPermutationGate:
    def test_cyclic_permutation_is_x(self):
        perm = [(k + 1) % 4 for k in range(4)]
        np.testing.assert_allclose(
            gates.permutation_gate(perm), gates.weyl_x(4), atol=1e-12
        )

    def test_rejects_non_permutation(self):
        with pytest.raises(DimensionError):
            gates.permutation_gate([0, 0, 1])


class TestMixer:
    @given(dim_strategy, angle_strategy)
    @settings(max_examples=25, deadline=None)
    def test_unitary(self, d, beta):
        assert gates.is_unitary(gates.qudit_mixer(d, beta))

    @given(dim_strategy)
    def test_hamiltonian_hermitian(self, d):
        assert gates.is_hermitian(gates.subspace_mixer_hamiltonian(d))

    def test_zero_angle_is_identity(self):
        np.testing.assert_allclose(gates.qudit_mixer(5, 0.0), np.eye(5), atol=1e-12)

    def test_mixes_all_levels(self):
        """Some angle must populate every level starting from |0>."""
        out = gates.qudit_mixer(4, 1.0)[:, 0]
        assert (np.abs(out) > 1e-4).all()


class TestGellMann:
    @given(st.integers(min_value=2, max_value=6))
    def test_count_and_tracelessness(self, d):
        basis = gates.gell_mann_basis(d)
        assert len(basis) == d * d - 1
        for mat in basis:
            assert abs(np.trace(mat)) < 1e-12
            assert gates.is_hermitian(mat)

    @given(st.integers(min_value=2, max_value=5))
    def test_orthonormality(self, d):
        basis = gates.gell_mann_basis(d)
        for i, gi in enumerate(basis):
            for j, gj in enumerate(basis):
                inner = np.trace(gi @ gj).real
                expected = 2.0 if i == j else 0.0
                assert abs(inner - expected) < 1e-10

    def test_qubit_case_is_paulis(self):
        sx, sy, sz = gates.gell_mann_basis(2)
        np.testing.assert_allclose(sx, [[0, 1], [1, 0]], atol=1e-12)
        np.testing.assert_allclose(sy, [[0, -1j], [1j, 0]], atol=1e-12)
        np.testing.assert_allclose(sz, [[1, 0], [0, -1]], atol=1e-12)

    def test_identity_completion(self):
        basis = gates.gell_mann_basis(3, include_identity=True)
        assert len(basis) == 9
        np.testing.assert_allclose(
            basis[0], np.sqrt(2 / 3) * np.eye(3), atol=1e-12
        )


class TestParity:
    def test_alternating_signs(self):
        np.testing.assert_allclose(
            np.diag(gates.parity_op(4)).real, [1, -1, 1, -1], atol=1e-12
        )


class TestChecks:
    def test_is_unitary_rejects_rectangular(self):
        assert not gates.is_unitary(np.ones((2, 3)))

    def test_is_unitary_rejects_non_unitary(self):
        assert not gates.is_unitary(np.diag([1.0, 2.0]))

    def test_is_hermitian(self):
        assert gates.is_hermitian(np.array([[1, 1j], [-1j, 2]]))
        assert not gates.is_hermitian(np.array([[1, 1j], [1j, 2]]))
