"""Tests for signal fitting and statistics helpers."""

import numpy as np
import pytest

from repro.analysis.fitting import (
    DampedCosineFit,
    dominant_frequency,
    fit_damped_cosine,
)
from repro.core.exceptions import SimulationError


class TestDominantFrequency:
    def test_pure_cosine(self):
        times = np.linspace(0, 20, 400)
        omega = 2.3
        values = np.cos(omega * times)
        assert abs(dominant_frequency(times, values) - omega) / omega < 0.01

    def test_offset_ignored(self):
        times = np.linspace(0, 30, 300)
        values = 5.0 + 0.1 * np.cos(1.1 * times)
        assert abs(dominant_frequency(times, values) - 1.1) < 0.05

    def test_two_tone_picks_stronger(self):
        times = np.linspace(0, 40, 800)
        values = 1.0 * np.cos(0.8 * times) + 0.2 * np.cos(2.9 * times)
        assert abs(dominant_frequency(times, values) - 0.8) < 0.05

    def test_too_short(self):
        with pytest.raises(SimulationError):
            dominant_frequency(np.array([0.0, 1.0]), np.array([1.0, 2.0]))

    def test_non_uniform_rejected(self):
        times = np.array([0.0, 1.0, 2.5, 3.0, 4.0])
        with pytest.raises(SimulationError):
            dominant_frequency(times, np.ones(5))

    @pytest.mark.parametrize(
        "times",
        [
            np.linspace(20, 0, 200),
            np.full(200, 3.0),
            np.where(np.arange(200) == 57, np.nan, np.linspace(0, 20, 200)),
        ],
        ids=["descending", "equal", "nan"],
    )
    def test_times_must_be_finite_and_increasing(self, times):
        values = np.cos(1.3 * times)
        with pytest.raises(SimulationError, match="strictly increasing"):
            dominant_frequency(times, values)


class TestDampedCosineFit:
    def test_recovers_parameters(self):
        times = np.linspace(0, 15, 300)
        values = 1.4 * np.exp(-0.1 * times) * np.cos(2.0 * times + 0.3) + 0.5
        fit = fit_damped_cosine(times, values)
        assert abs(fit.omega - 2.0) < 0.02
        assert abs(fit.decay - 0.1) < 0.02
        assert abs(fit.offset - 0.5) < 0.02
        assert fit.residual < 1e-6

    def test_amplitude_canonical_sign(self):
        times = np.linspace(0, 10, 200)
        values = -0.8 * np.cos(1.5 * times)
        fit = fit_damped_cosine(times, values)
        assert fit.amplitude > 0

    def test_noisy_signal_still_fits(self):
        rng = np.random.default_rng(0)
        times = np.linspace(0, 20, 400)
        clean = np.exp(-0.05 * times) * np.cos(1.2 * times)
        fit = fit_damped_cosine(times, clean + 0.02 * rng.standard_normal(400))
        assert abs(fit.omega - 1.2) < 0.05

    def test_repr(self):
        fit = DampedCosineFit(1.0, 0.1, 2.0, 0.0, 0.0, 1e-8)
        assert "omega" in repr(fit)
