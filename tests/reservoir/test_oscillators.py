"""Tests for the coupled-oscillator reservoir physics."""

import numpy as np
import pytest

from repro.core import DensityMatrix
from repro.core.exceptions import DimensionError, SimulationError
from repro.core.gates import is_hermitian
from repro.core.lindblad import LindbladPropagator
from repro.reservoir import CoupledOscillators, SplitStepEvolver


@pytest.fixture()
def small_osc():
    return CoupledOscillators(levels=4, omega_2=1.5, coupling=0.8, kappa_1=0.2, kappa_2=0.2)


class TestCoupledOscillators:
    def test_dims(self, small_osc):
        assert small_osc.dim == 16
        assert small_osc.dims == (4, 4)

    def test_hamiltonian_hermitian(self, small_osc):
        assert is_hermitian(small_osc.hamiltonian())

    def test_mode_operators_commute(self, small_osc):
        a1, a2 = small_osc.a1(), small_osc.a2()
        np.testing.assert_allclose(a1 @ a2, a2 @ a1, atol=1e-12)

    def test_coupling_exchanges_photons(self, small_osc):
        """[H, n1 - n2] != 0 but [H, n1 + n2] = 0 (beam-splitter coupling)."""
        ham = small_osc.hamiltonian()
        n_tot = small_osc.n1() + small_osc.n2()
        np.testing.assert_allclose(ham @ n_tot, n_tot @ ham, atol=1e-10)
        n_diff = small_osc.n1() - small_osc.n2()
        assert np.abs(ham @ n_diff - n_diff @ ham).max() > 1e-6

    def test_collapse_ops_count(self, small_osc):
        assert len(small_osc.collapse_ops()) == 2
        lossless = CoupledOscillators(levels=3, kappa_1=0.0, kappa_2=0.0)
        assert lossless.collapse_ops() == []

    def test_vacuum(self, small_osc):
        vac = small_osc.vacuum()
        assert abs(vac[0, 0] - 1.0) < 1e-12
        assert abs(np.trace(vac) - 1.0) < 1e-12

    def test_validation(self):
        with pytest.raises(DimensionError):
            CoupledOscillators(levels=1)
        with pytest.raises(DimensionError):
            CoupledOscillators(kappa_1=-0.1)


class TestSplitStepEvolver:
    def test_trace_preserved(self, small_osc):
        evolver = SplitStepEvolver(small_osc, dt=0.5)
        rho = small_osc.vacuum()
        for u in (0.0, 0.5, 1.0):
            rho = evolver.step(rho, u)
            assert abs(np.trace(rho) - 1.0) < 1e-10
            assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_drive_populates_modes(self, small_osc):
        evolver = SplitStepEvolver(small_osc, dt=0.5)
        rho = evolver.step(small_osc.vacuum(), 1.5)
        n1 = float(np.real(np.trace(rho @ small_osc.n1())))
        assert n1 > 0.01

    def test_undriven_vacuum_is_fixed_point(self, small_osc):
        evolver = SplitStepEvolver(small_osc, dt=0.5)
        rho = evolver.step(small_osc.vacuum(), 0.0)
        assert abs(rho[0, 0] - 1.0) < 1e-10

    def test_matches_exact_lindblad(self):
        """Split-step converges to the exact master equation as dt -> 0."""
        osc = CoupledOscillators(
            levels=3, omega_2=1.0, coupling=0.5, kappa_1=0.3, kappa_2=0.3
        )
        drive = 0.8
        total_time = 1.0
        ham = osc.hamiltonian() + drive * osc.drive_operator()
        exact_prop = LindbladPropagator(ham, osc.collapse_ops(), dt=total_time)
        exact = exact_prop.step(osc.vacuum())

        def split(n_steps):
            evolver = SplitStepEvolver(osc, dt=total_time / n_steps)
            rho = osc.vacuum()
            for _ in range(n_steps):
                rho = evolver.step(rho, drive)
            return rho

        err_coarse = np.abs(split(4) - exact).max()
        err_fine = np.abs(split(32) - exact).max()
        assert err_fine < err_coarse / 4
        assert err_fine < 0.01

    @pytest.mark.parametrize("levels", [3, 4, 9])
    @pytest.mark.parametrize(
        "kappas", [(0.2, 0.35), (0.0, 0.3), (0.25, 0.0), (0.0, 0.0)]
    )
    def test_superoperator_step_matches_apply_kraus(self, levels, kappas):
        """Both loss channels as two GEMMs equal the Kraus sum per mode."""
        osc = CoupledOscillators(
            levels=levels, omega_2=1.5, coupling=0.8,
            kappa_1=kappas[0], kappa_2=kappas[1],
        )
        evolver = SplitStepEvolver(osc, dt=0.7)
        assert sorted(evolver.loss_families) == [
            mode for mode, kappa in enumerate(kappas) if kappa > 0
        ]
        rng = np.random.default_rng(levels)
        rho = evolver.step(osc.vacuum(), 1.3)
        for drive in rng.uniform(0.5, 1.5, size=3):
            u = evolver.unitary_for(drive)
            reference = DensityMatrix(u @ rho @ u.conj().T, osc.dims)
            for mode, kraus in evolver.loss_families.items():
                reference = reference.apply_kraus(kraus, mode)
            expected = reference.matrix / np.trace(reference.matrix).real
            rho = evolver.step(rho, drive)
            assert np.abs(rho - expected).max() <= 1e-13

    def test_unitary_cache(self, small_osc):
        evolver = SplitStepEvolver(small_osc, dt=0.5, cache_size=2)
        rho = small_osc.vacuum()
        evolver.step(rho, 0.1)
        evolver.step(rho, 0.1)
        assert len(evolver._cache) == 1
        evolver.step(rho, 0.2)
        evolver.step(rho, 0.3)
        assert len(evolver._cache) == 2

    def test_invalid_dt(self, small_osc):
        with pytest.raises(SimulationError):
            SplitStepEvolver(small_osc, dt=0.0)
