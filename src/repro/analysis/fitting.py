"""Signal fitting: dominant frequencies and damped oscillations.

Used by the sQED mass-gap extraction (the gap appears as the dominant
oscillation frequency of a local observable) and by reservoir diagnostics.
"""

from __future__ import annotations

import numpy as np

from ..core.exceptions import SimulationError

__all__ = ["dominant_frequency", "fit_damped_cosine", "DampedCosineFit"]


def dominant_frequency(times: np.ndarray, values: np.ndarray) -> float:
    """Dominant non-zero angular frequency of a uniformly sampled signal.

    FFT with mean subtraction, 8x zero padding, and quadratic interpolation
    around the magnitude peak for sub-bin resolution.

    Args:
        times: finite, strictly increasing, uniformly spaced sample times
            (>= 4 samples).
        values: real signal samples.

    Returns:
        Angular frequency ``omega > 0`` of the largest spectral peak.

    Raises:
        SimulationError: on too-short input, or on sample times that are
            not finite, strictly increasing and uniform.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 4 or times.size != values.size:
        raise SimulationError("need >= 4 uniformly sampled points")
    dts = np.diff(times)
    if not (np.isfinite(times).all() and (dts > 0).all()):
        raise SimulationError("sample times must be finite and strictly increasing")
    if np.abs(dts - dts[0]).max() > 1e-9 * max(abs(dts[0]), 1e-30):
        raise SimulationError("samples must be uniformly spaced")
    dt = float(dts[0])
    signal = values - values.mean()
    n_fft = 8 * times.size
    spectrum = np.abs(np.fft.rfft(signal, n=n_fft))
    freqs = np.fft.rfftfreq(n_fft, d=dt)
    if spectrum.size < 3:
        raise SimulationError("spectrum too short")
    peak = int(np.argmax(spectrum[1:])) + 1  # skip DC
    if 1 <= peak < spectrum.size - 1:
        # Quadratic (parabolic) interpolation around the peak bin.
        alpha, beta, gamma = spectrum[peak - 1], spectrum[peak], spectrum[peak + 1]
        denom = alpha - 2 * beta + gamma
        shift = 0.5 * (alpha - gamma) / denom if abs(denom) > 1e-30 else 0.0
        shift = float(np.clip(shift, -0.5, 0.5))
    else:
        shift = 0.0
    bin_width = freqs[1] - freqs[0]
    return float(2.0 * np.pi * (freqs[peak] + shift * bin_width))


class DampedCosineFit:
    """Result of fitting ``a * exp(-gamma t) * cos(omega t + phi) + c``."""

    def __init__(self, amplitude, decay, omega, phase, offset, residual):
        self.amplitude = float(amplitude)
        self.decay = float(decay)
        self.omega = float(omega)
        self.phase = float(phase)
        self.offset = float(offset)
        self.residual = float(residual)

    def __repr__(self) -> str:
        return (
            f"DampedCosineFit(omega={self.omega:.4g}, gamma={self.decay:.4g}, "
            f"residual={self.residual:.3g})"
        )


def fit_damped_cosine(
    times: np.ndarray, values: np.ndarray, omega_guess: float | None = None
) -> DampedCosineFit:
    """Least-squares fit of a damped cosine to a real signal.

    Args:
        times: sample times.
        values: signal samples.
        omega_guess: initial angular frequency (FFT-derived if omitted).

    Returns:
        A :class:`DampedCosineFit`; ``residual`` is the RMS misfit.

    Raises:
        SimulationError: if the optimiser fails to converge.
    """
    from scipy.optimize import curve_fit

    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if omega_guess is None:
        omega_guess = dominant_frequency(times, values)

    def model(t, a, gamma, omega, phi, c):
        return a * np.exp(-gamma * t) * np.cos(omega * t + phi) + c

    amp0 = (values.max() - values.min()) / 2.0 or 1.0
    p0 = [amp0, 0.0, omega_guess, 0.0, values.mean()]
    try:
        popt, _ = curve_fit(model, times, values, p0=p0, maxfev=20000)
    except RuntimeError as exc:  # pragma: no cover - optimiser pathologies
        raise SimulationError(f"damped-cosine fit failed: {exc}") from exc
    residual = float(np.sqrt(np.mean((model(times, *popt) - values) ** 2)))
    amplitude, decay, omega, phase, offset = popt
    if amplitude < 0:  # canonicalise sign
        amplitude, phase = -amplitude, phase + np.pi
    return DampedCosineFit(amplitude, decay, abs(omega), phase, offset, residual)
