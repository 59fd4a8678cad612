"""Tests for SNAP+displacement variational synthesis (kept small & fast)."""

import numpy as np
import pytest

from repro.compile.synthesis.snap_displacement import (
    SnapDisplacementSequence,
    _forward,
    _infidelity_and_gradient,
    _pack,
    _unpack,
    default_layer_count,
    subspace_fidelity,
    synthesize_unitary,
)
from repro.core.exceptions import SynthesisError
from repro.core.gates import (
    displacement,
    fourier,
    qudit_complete_mixer,
    qudit_mixer,
    snap,
)


def _random_params(rng, n_layers, d_sim):
    alphas = 0.5 * (rng.normal(size=n_layers + 1) + 1j * rng.normal(size=n_layers + 1))
    return _pack(alphas, rng.uniform(-np.pi, np.pi, size=(n_layers, d_sim)))


class TestSubspaceFidelity:
    def test_perfect_match(self):
        target = fourier(3)
        full = np.eye(6, dtype=complex)
        full[:3, :3] = target
        assert abs(subspace_fidelity(full, target, 3) - 1.0) < 1e-12

    def test_orthogonal_block(self):
        target = np.eye(2, dtype=complex)
        full = np.zeros((4, 4), dtype=complex)
        full[0, 1] = full[1, 0] = 1.0  # X on the subspace
        assert subspace_fidelity(full, target, 2) < 1e-12

    def test_global_phase_invariance(self):
        target = fourier(3)
        full = np.zeros((5, 5), dtype=complex)
        full[:3, :3] = np.exp(1j * 0.77) * target
        assert abs(subspace_fidelity(full, target, 3) - 1.0) < 1e-12

    def test_leakage_penalised(self):
        """A unitary that leaks out of the subspace scores < 1."""
        target = np.eye(2, dtype=complex)
        full = np.eye(4, dtype=complex)
        # rotate |1> partially into |2>
        c, s = np.cos(0.4), np.sin(0.4)
        full[1, 1], full[1, 2], full[2, 1], full[2, 2] = c, -s, s, c
        assert subspace_fidelity(full, target, 2) < 1.0


class TestSequence:
    def test_matrix_shape_and_counts(self):
        seq = SnapDisplacementSequence(
            d_sim=5,
            d_target=3,
            alphas=(0.1 + 0j, 0.2 + 0j),
            snap_phases=((0.0,) * 5,),
        )
        assert seq.matrix().shape == (5, 5)
        assert seq.gate_counts() == {"snap": 1, "disp": 2}
        assert seq.n_layers == 1

    def test_zero_sequence_is_near_identity(self):
        seq = SnapDisplacementSequence(
            d_sim=4, d_target=2, alphas=(0j, 0j), snap_phases=((0.0,) * 4,)
        )
        np.testing.assert_allclose(seq.matrix(), np.eye(4), atol=1e-12)

    def test_matrix_is_the_objective_forward_product(self):
        """matrix() replays the exact operator the objective scored."""
        rng = np.random.default_rng(7)
        n_layers, d_sim, target = 4, 7, qudit_complete_mixer(3, 0.7)
        params = _random_params(rng, n_layers, d_sim)
        alphas, phases = _unpack(params, n_layers, d_sim)
        seq = SnapDisplacementSequence(
            d_sim=d_sim,
            d_target=3,
            alphas=tuple(complex(a) for a in alphas),
            snap_phases=tuple(tuple(float(p) for p in row) for row in phases),
        )
        np.testing.assert_allclose(
            seq.matrix(), _forward(d_sim, alphas, phases)[2][-1], rtol=0, atol=1e-14
        )
        infidelity, _ = _infidelity_and_gradient(params, target, n_layers, d_sim)
        replayed = 1.0 - subspace_fidelity(seq.matrix(), target, 3)
        assert abs(replayed - infidelity) < 1e-14

    def test_matrix_matches_gate_product(self):
        rng = np.random.default_rng(8)
        params = _random_params(rng, 3, 6)
        alphas, phases = _unpack(params, 3, 6)
        seq = SnapDisplacementSequence(
            d_sim=6,
            d_target=2,
            alphas=tuple(complex(a) for a in alphas),
            snap_phases=tuple(tuple(float(p) for p in row) for row in phases),
        )
        expected = displacement(6, alphas[0])
        for layer in range(3):
            expected = snap(6, phases[layer]) @ expected
            expected = displacement(6, alphas[layer + 1]) @ expected
        np.testing.assert_allclose(seq.matrix(), expected, rtol=0, atol=1e-13)


class TestGradient:
    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_matches_central_differences(self, d):
        """Exact gradient vs central differences, one layer at alpha = 0."""
        rng = np.random.default_rng(d)
        n_layers, d_sim = d + 1, d + 4
        target = qudit_complete_mixer(d, 0.7)
        params = _random_params(rng, n_layers, d_sim)
        params[1] = params[n_layers + 2] = 0.0  # alpha_1 = 0 exactly
        _, gradient = _infidelity_and_gradient(params, target, n_layers, d_sim)
        step = 1e-6
        numeric = np.empty_like(params)
        for index in range(params.size):
            shift = np.zeros_like(params)
            shift[index] = step
            up, _ = _infidelity_and_gradient(params + shift, target, n_layers, d_sim)
            down, _ = _infidelity_and_gradient(params - shift, target, n_layers, d_sim)
            numeric[index] = (up - down) / (2 * step)
        np.testing.assert_allclose(gradient, numeric, rtol=0, atol=1e-7)

    def test_value_is_one_minus_subspace_fidelity(self):
        rng = np.random.default_rng(11)
        params = _random_params(rng, 3, 6)
        target = qudit_mixer(2, 0.4)
        infidelity, _ = _infidelity_and_gradient(params, target, 3, 6)
        alphas, phases = _unpack(params, 3, 6)
        product = _forward(6, alphas, phases)[2][-1]
        assert infidelity == 1.0 - subspace_fidelity(product, target, 2)


class TestSynthesis:
    def test_qubit_mixer_converges(self):
        res = synthesize_unitary(
            qudit_mixer(2, 0.7), seed=0, max_restarts=2, maxiter=200
        )
        assert res.infidelity < 1e-3

    def test_qutrit_fourier_converges(self):
        res = synthesize_unitary(fourier(3), seed=1, max_restarts=2, maxiter=300)
        assert res.infidelity < 1e-2

    def test_achieved_unitary_close_to_target(self):
        target = qudit_mixer(2, 0.5)
        res = synthesize_unitary(target, seed=2, max_restarts=2, maxiter=200)
        achieved = res.achieved_unitary()
        # compare up to global phase via the fidelity itself
        overlap = abs(np.trace(target.conj().T @ achieved)) / 2
        assert overlap > 0.99

    def test_result_metadata(self):
        res = synthesize_unitary(
            qudit_mixer(2, 0.3), seed=3, max_restarts=1, maxiter=50
        )
        assert res.n_restarts_used == 1
        assert res.n_iterations >= 1
        assert abs(res.fidelity + res.infidelity - 1.0) < 1e-12

    def test_layer_count_heuristic(self):
        assert default_layer_count(4) == 5
        with pytest.raises(SynthesisError):
            default_layer_count(1)

    def test_rejects_non_square(self):
        with pytest.raises(SynthesisError):
            synthesize_unitary(np.ones((2, 3)))

    def test_rejects_zero_dimensional_target(self):
        with pytest.raises(SynthesisError):
            synthesize_unitary(np.array(1.0))

    def test_rejects_zero_restarts(self):
        with pytest.raises(SynthesisError):
            synthesize_unitary(qudit_mixer(2, 0.3), max_restarts=0)

    def test_rejects_negative_guard_levels(self):
        with pytest.raises(SynthesisError):
            synthesize_unitary(qudit_mixer(2, 0.3), guard_levels=-1)

    def test_rejects_negative_layer_count(self):
        with pytest.raises(SynthesisError):
            synthesize_unitary(qudit_mixer(2, 0.3), n_layers=-1)

    def test_zero_guard_levels_allowed(self):
        res = synthesize_unitary(
            qudit_mixer(2, 0.3), guard_levels=0, seed=5, max_restarts=1, maxiter=20
        )
        assert res.sequence.d_sim == 2

    def test_custom_layer_count_respected(self):
        res = synthesize_unitary(
            qudit_mixer(2, 0.3), n_layers=2, seed=4, max_restarts=1, maxiter=30
        )
        assert res.sequence.n_layers == 2
