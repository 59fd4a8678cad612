"""Tests for the reservoir pipeline: features, readout, tasks, ESN, shots."""

import numpy as np
import pytest

from repro.core.exceptions import SimulationError
from repro.reservoir import (
    CoupledOscillators,
    EchoStateNetwork,
    QuantumReservoir,
    RidgeReadout,
    mackey_glass_task,
    narma_task,
    nmse,
    sample_population_features,
    shot_noise_sweep,
    sine_square_task,
    train_test_split,
)


@pytest.fixture(scope="module")
def tiny_reservoir():
    osc = CoupledOscillators(levels=4, omega_2=2.5, coupling=1.2, kappa_1=0.2, kappa_2=0.2)
    return QuantumReservoir(osc, dt=1.0, input_gain=1.0, drive_bias=1.0)


class TestQuantumReservoir:
    def test_feature_shape(self, tiny_reservoir):
        feats = tiny_reservoir.run(np.linspace(0, 0.5, 10))
        assert feats.shape == (10, 16)
        assert tiny_reservoir.effective_neurons() == 16

    def test_features_are_probabilities(self, tiny_reservoir):
        feats = tiny_reservoir.run(np.linspace(0, 0.5, 8))
        assert (feats >= 0).all()
        np.testing.assert_allclose(feats.sum(axis=1), np.ones(8), atol=1e-8)

    def test_fading_memory(self, tiny_reservoir):
        """Two inputs differing only in the distant past converge."""
        base = np.full(40, 0.25)
        other = base.copy()
        other[0] = 0.5
        fa = tiny_reservoir.run(base)
        fb = tiny_reservoir.run(other)
        early = np.abs(fa[2] - fb[2]).max()
        late = np.abs(fa[-1] - fb[-1]).max()
        assert late < early / 5

    def test_input_sensitivity(self, tiny_reservoir):
        """Different present inputs give different features."""
        fa = tiny_reservoir.run([0.0, 0.0, 0.0])
        fb = tiny_reservoir.run([0.0, 0.0, 0.5])
        assert np.abs(fa[-1] - fb[-1]).max() > 1e-4

    def test_empty_input(self, tiny_reservoir):
        with pytest.raises(SimulationError):
            tiny_reservoir.run([])

    def test_wrong_shaped_initial_state(self, tiny_reservoir):
        for initial in (np.eye(4), np.ones(16)):
            with pytest.raises(SimulationError, match="expected \\(16, 16\\)"):
                tiny_reservoir.run([0.1, 0.2], initial=initial)


class TestReadout:
    def test_ridge_recovers_linear_map(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(200, 5))
        weights = rng.normal(size=5)
        targets = features @ weights + 0.7
        readout = RidgeReadout(alpha=1e-10).fit(features, targets)
        np.testing.assert_allclose(readout.weights, weights, atol=1e-6)
        assert abs(readout.bias - 0.7) < 1e-6

    def test_nmse_perfect_and_mean(self):
        targets = np.array([1.0, 2.0, 3.0, 4.0])
        assert nmse(targets, targets) == 0.0
        assert abs(nmse(np.full(4, targets.mean()), targets) - 1.0) < 1e-12

    def test_nmse_validation(self):
        with pytest.raises(SimulationError):
            nmse(np.ones(3), np.ones(3))  # zero variance

    def test_predict_before_fit(self):
        with pytest.raises(SimulationError):
            RidgeReadout().predict(np.ones((2, 2)))

    def test_train_test_split_chronological(self):
        features = np.arange(100).reshape(-1, 1).astype(float)
        targets = np.arange(100).astype(float)
        f_tr, y_tr, f_te, y_te = train_test_split(features, targets, 0.5, washout=10)
        assert y_tr[0] == 10
        assert y_te[0] > y_tr[-1]

    def test_split_validation(self):
        with pytest.raises(SimulationError):
            train_test_split(np.ones((10, 2)), np.ones(10), 0.99, washout=0)


class TestTasks:
    def test_narma2_deterministic(self):
        a = narma_task(50, order=2, seed=5)
        b = narma_task(50, order=2, seed=5)
        np.testing.assert_allclose(a.inputs, b.inputs)
        np.testing.assert_allclose(a.targets, b.targets)

    def test_narma10_runs(self):
        task = narma_task(100, order=10, seed=0)
        assert task.length == 100
        assert np.isfinite(task.targets).all()

    def test_narma_bad_order(self):
        with pytest.raises(SimulationError):
            narma_task(50, order=5)

    def test_mackey_glass_bounded_and_aperiodic(self):
        task = mackey_glass_task(200, horizon=3, seed=1)
        assert task.inputs.min() >= 0.0
        assert task.inputs.max() <= 0.5
        assert np.std(task.inputs) > 0.01

    def test_mackey_glass_target_is_shifted_input(self):
        task = mackey_glass_task(100, horizon=4, seed=2)
        np.testing.assert_allclose(task.inputs[4:], task.targets[:-4], atol=1e-12)

    def test_sine_square_labels(self):
        task = sine_square_task(n_segments=6, segment_length=8, seed=3)
        assert task.length == 48
        assert set(np.unique(task.targets)) <= {0.0, 1.0}


class TestEchoStateNetwork:
    def test_state_shape(self):
        esn = EchoStateNetwork(20, seed=0)
        states = esn.run(np.linspace(0, 0.5, 15))
        assert states.shape == (15, 20)

    def test_echo_state_property(self):
        """States from different initial conditions converge."""
        esn = EchoStateNetwork(30, spectral_radius=0.8, seed=1)
        inputs = np.full(60, 0.3)
        sa = esn.run(inputs, initial=np.zeros(30))
        sb = esn.run(inputs, initial=np.ones(30))
        assert np.abs(sa[-1] - sb[-1]).max() < 1e-3

    def test_learns_narma2(self):
        task = narma_task(300, order=2, seed=0)
        esn = EchoStateNetwork(50, seed=2)
        states = esn.run(task.inputs)
        f_tr, y_tr, f_te, y_te = train_test_split(states, task.targets, washout=20)
        score = RidgeReadout(1e-7).fit(f_tr, y_tr).score_nmse(f_te, y_te)
        assert score < 0.1

    def test_validation(self):
        with pytest.raises(SimulationError):
            EchoStateNetwork(0)
        with pytest.raises(SimulationError):
            EchoStateNetwork(5, leak=0.0)


class TestShotNoise:
    def test_sampled_features_are_frequencies(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(8), size=20)
        sampled = sample_population_features(probs, 100, rng)
        np.testing.assert_allclose(sampled.sum(axis=1), np.ones(20), atol=1e-12)
        counts = sampled * 100
        np.testing.assert_allclose(counts, np.round(counts), atol=1e-9)

    def test_more_shots_closer_to_exact(self):
        rng = np.random.default_rng(1)
        probs = rng.dirichlet(np.ones(8), size=50)
        few = sample_population_features(probs, 10, np.random.default_rng(2))
        many = sample_population_features(probs, 10000, np.random.default_rng(2))
        assert np.abs(many - probs).mean() < np.abs(few - probs).mean()

    def test_sweep_monotone_shape(self, tiny_reservoir):
        """NMSE improves (statistically) with the shot budget — claim C6."""
        task = narma_task(220, order=2, seed=0)
        feats = tiny_reservoir.run(task.inputs)
        sweep = shot_noise_sweep(
            feats, task.targets, [20, 20000], washout=20, seed=0
        )
        few, many, exact = sweep[0], sweep[1], sweep[2]
        assert exact.shots == 0
        assert few.nmse > many.nmse
        assert many.nmse > exact.nmse * 0.5  # sampled never hugely better

    def test_invalid_shots(self):
        with pytest.raises(SimulationError):
            sample_population_features(np.ones((2, 2)) / 2, 0)

