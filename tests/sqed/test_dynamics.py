"""Tests for Trotter evolution, mass-gap extraction, and the noise study."""

import numpy as np
import pytest

from repro.core import DensityMatrix, Statevector, get_backend
from repro.core.backends import DensityResult
from repro.core.exceptions import SimulationError
from repro.sqed import (
    QubitEncoding,
    QuditEncoding,
    RotorChain,
    RotorLadder2D,
    estimate_mass_gap,
    exact_gap_trajectory,
    gap_probe_state,
    insert_depolarizing_noise,
    noise_threshold,
    trajectory_damage,
    trotter_circuit,
    trotter_gap_trajectory,
)
from repro.sqed.trotter import (
    evolve_observable_trajectory,
    exact_observable_trajectory,
)


@pytest.fixture()
def chain():
    return RotorChain(2, spin=1, g2=1.0, hopping=0.3)


class TestTrotterCircuits:
    def test_first_order_converges(self, chain):
        from scipy.linalg import expm

        exact = expm(-1j * chain.to_matrix() * 1.0)
        coarse = trotter_circuit(chain, 1.0, 4).to_unitary()
        fine = trotter_circuit(chain, 1.0, 32).to_unitary()
        assert np.abs(fine - exact).max() < np.abs(coarse - exact).max()

    def test_second_order_beats_first(self, chain):
        from scipy.linalg import expm

        exact = expm(-1j * chain.to_matrix() * 1.0)
        first = trotter_circuit(chain, 1.0, 8, order=1).to_unitary()
        second = trotter_circuit(chain, 1.0, 8, order=2).to_unitary()
        assert np.abs(second - exact).max() < np.abs(first - exact).max()

    def test_works_for_2d_model(self):
        lattice = RotorLadder2D(2, 2, spin=1)
        qc = trotter_circuit(lattice, 0.5, 2)
        assert qc.num_qudits == 4

    def test_invalid_order(self, chain):
        with pytest.raises(SimulationError):
            trotter_circuit(chain, 1.0, 2, order=3)

    def test_invalid_steps(self, chain):
        with pytest.raises(SimulationError):
            trotter_circuit(chain, 1.0, 0)


class TestTrajectories:
    def test_exact_trajectory_constant_for_eigenstate(self, chain):
        ham = chain.to_matrix()
        _, vecs = np.linalg.eigh(ham)
        obs = QuditEncoding(chain).local_link_operator(0)
        times = np.linspace(0, 5, 20)
        traj = exact_observable_trajectory(ham, obs, vecs[:, 0], times)
        assert np.ptp(traj) < 1e-10

    def test_evolve_observable_length(self, chain):
        encoding = QuditEncoding(chain)
        step = encoding.trotter_step(0.1)
        obs = encoding.local_lz_operator(0)
        backend = get_backend("density")
        initial = backend.prepare(encoding.dims)
        traj = evolve_observable_trajectory(backend, initial, step, 5, obs)
        assert traj.shape == (6,)

    def test_trotter_matches_exact_trajectory(self, chain):
        encoding = QuditEncoding(chain)
        obs = encoding.local_link_operator(0)
        psi0 = gap_probe_state(chain)
        times = np.linspace(0, 2.0, 21)
        exact = exact_observable_trajectory(chain.to_matrix(), obs, psi0, times)
        step = encoding.trotter_step(0.1)
        initial = DensityResult(
            DensityMatrix.from_statevector(Statevector(psi0, chain.dims))
        )
        trotter = evolve_observable_trajectory(
            get_backend("density"), initial, step, 20, obs
        )
        assert np.abs(exact - trotter).max() < 0.02


class TestMassGap:
    def test_noiseless_extraction_accurate(self):
        chain = RotorChain(3, spin=1, g2=1.0, hopping=0.3)
        result = estimate_mass_gap(chain)
        assert result.relative_error < 0.05

    def test_probe_state_overlaps_both_levels(self, chain):
        psi = gap_probe_state(chain)
        _, vecs = np.linalg.eigh(chain.to_matrix())
        assert abs(vecs[:, 0].conj() @ psi) > 0.5
        assert abs(vecs[:, 1].conj() @ psi) > 0.5

    def test_noise_degrades_estimate(self):
        chain = RotorChain(2, spin=1, g2=1.0, hopping=0.3)
        clean = estimate_mass_gap(chain, n_steps=150)
        noisy = estimate_mass_gap(chain, n_steps=150, epsilon=0.05)
        assert noisy.relative_error >= clean.relative_error

    def test_exact_gap_trajectory_oscillates_at_gap(self, chain):
        from repro.analysis.fitting import dominant_frequency

        gap = chain.mass_gap()
        times = np.linspace(0, 4 * 2 * np.pi / gap, 240)
        obs = QuditEncoding(chain).local_link_operator(0)
        traj = exact_gap_trajectory(chain, obs, times)
        omega = dominant_frequency(times, traj)
        assert abs(omega - gap) / gap < 0.03


class TestNoiseStudy:
    def test_damage_zero_at_zero_noise(self, chain):
        encoding = QuditEncoding(chain)
        assert trajectory_damage(encoding, 0.0, t_total=1.0, n_steps=3) == 0.0

    def test_damage_monotone(self, chain):
        encoding = QuditEncoding(chain)
        lo = trajectory_damage(encoding, 0.01, t_total=2.0, n_steps=4)
        hi = trajectory_damage(encoding, 0.2, t_total=2.0, n_steps=4)
        assert hi > lo > 0

    def test_qubit_encoding_more_fragile(self, chain):
        """Same epsilon hurts the binary encoding much more — claim C1."""
        eps = 0.01
        qudit_damage = trajectory_damage(
            QuditEncoding(chain), eps, t_total=2.0, n_steps=4
        )
        qubit_damage = trajectory_damage(
            QubitEncoding(chain), eps, t_total=2.0, n_steps=4
        )
        assert qubit_damage > 2 * qudit_damage

    def test_threshold_brackets(self, chain):
        encoding = QuditEncoding(chain)
        threshold = noise_threshold(
            encoding, damage_tol=0.05, t_total=2.0, n_steps=4, bisection_steps=6
        )
        assert 0 < threshold <= 0.5
        below = trajectory_damage(encoding, threshold * 0.9, t_total=2.0, n_steps=4)
        assert below < 0.05 * 1.5  # near-threshold tolerance

    def test_negative_epsilon_rejected(self, chain):
        with pytest.raises(SimulationError):
            trajectory_damage(QuditEncoding(chain), -0.1)

    def test_unknown_method_rejected(self, chain):
        with pytest.raises(SimulationError):
            trajectory_damage(QuditEncoding(chain), 0.1, method="exact")

    def test_trajectory_method_matches_density(self, chain):
        """Batched Monte-Carlo damage converges to the density-matrix score."""
        encoding = QuditEncoding(chain)
        exact = trajectory_damage(encoding, 0.05, t_total=2.0, n_steps=4)
        sampled = trajectory_damage(
            encoding,
            0.05,
            t_total=2.0,
            n_steps=4,
            method="trajectories",
            n_trajectories=512,
            rng=0,
        )
        assert sampled > 0
        assert abs(sampled - exact) < 0.1

    def test_trajectory_method_clean_is_exact(self, chain):
        """Without noise the MC path is deterministic and scores zero."""
        encoding = QuditEncoding(chain)
        assert (
            trajectory_damage(
                encoding, 0.0, t_total=1.0, n_steps=3, method="trajectories"
            )
            == 0.0
        )

    def test_mps_method_matches_density(self, chain):
        """MPS-unravelled damage converges to the density-matrix score."""
        encoding = QuditEncoding(chain)
        exact = trajectory_damage(encoding, 0.05, t_total=2.0, n_steps=4)
        sampled = trajectory_damage(
            encoding,
            0.05,
            t_total=2.0,
            n_steps=4,
            method="mps",
            n_trajectories=256,
            rng=0,
        )
        assert sampled > 0
        assert abs(sampled - exact) < 0.1

    def test_mps_method_clean_is_exact(self, chain):
        encoding = QuditEncoding(chain)
        assert (
            trajectory_damage(
                encoding, 0.0, t_total=1.0, n_steps=3, method="mps"
            )
            == 0.0
        )

    def test_lpdo_method_matches_density(self, chain):
        """LPDO damage agrees with the exact density score — deterministic,
        no Monte-Carlo budget — within the capped-leg truncation error."""
        encoding = QuditEncoding(chain)
        exact = trajectory_damage(encoding, 0.05, t_total=2.0, n_steps=4)
        lpdo = trajectory_damage(
            encoding,
            0.05,
            t_total=2.0,
            n_steps=4,
            method="lpdo",
            max_bond=32,
            max_kraus=32,
        )
        assert lpdo > 0
        assert abs(lpdo - exact) < 1e-2
        # Deterministic: a second run reproduces the score bit-for-bit.
        again = trajectory_damage(
            encoding,
            0.05,
            t_total=2.0,
            n_steps=4,
            method="lpdo",
            max_bond=32,
            max_kraus=32,
        )
        assert again == lpdo

    def test_lpdo_method_clean_is_exact(self, chain):
        encoding = QuditEncoding(chain)
        assert (
            trajectory_damage(
                encoding, 0.0, t_total=1.0, n_steps=3, method="lpdo"
            )
            == 0.0
        )

    def test_lpdo_method_scales_past_dense_reach(self):
        """A 12-site chain (rho = 3^24 entries ≈ 4.1 TiB dense) scores
        damage with *exact* channels — no unravelling, no dense objects —
        and reports both truncation accounts."""
        chain12 = RotorChain(n_sites=12, spin=1)
        encoding = QuditEncoding(chain12)
        damage = trajectory_damage(
            encoding,
            0.03,
            t_total=1.0,
            n_steps=2,
            method="lpdo",
            max_bond=16,
            max_kraus=6,
        )
        assert damage > 0

    def test_mps_method_scales_past_dense_reach(self):
        """A 12-site chain (D = 3^12 ≈ 531k, rho = 2.2 TB) scores damage."""
        chain12 = RotorChain(n_sites=12, spin=1)
        encoding = QuditEncoding(chain12)
        damage = trajectory_damage(
            encoding,
            0.05,
            t_total=1.0,
            n_steps=3,
            method="mps",
            n_trajectories=4,
            rng=1,
            max_bond=16,
        )
        assert damage > 0


class TestBackendObservableDriver:
    def test_backend_driver_matches_density_driver(self, chain):
        encoding = QuditEncoding(chain)
        step = encoding.trotter_step(0.25)
        digits = encoding.product_state_digits([1] + [0] * (chain.n_sites - 1))
        # Reference: the density matrix stepped and read by hand.
        rho = DensityMatrix.basis(encoding.dims, digits)
        lz0 = encoding.local_lz_operator(0)
        reference = [np.real(rho.expectation(lz0))]
        for _ in range(5):
            rho = rho.evolve(step)
            reference.append(np.real(rho.expectation(lz0)))
        operator, targets = encoding.local_lz(0)
        for method in ("density", "mps", "lpdo", "trajectories", "auto"):
            backend = get_backend(method)
            initial = backend.prepare(encoding.dims, digits, n_trajectories=1)
            values = evolve_observable_trajectory(
                backend, initial, step, 5, operator, targets
            )
            np.testing.assert_allclose(values, reference, atol=1e-8)

    def test_qubit_encoding_local_lz_runs_through_mps(self, chain):
        encoding = QubitEncoding(chain)
        operator, targets = encoding.local_lz(0)
        assert list(targets) == encoding.site_qubits(0)
        digits = encoding.product_state_digits([0] * chain.n_sites)
        backend = get_backend("mps")
        values = evolve_observable_trajectory(
            backend,
            backend.prepare(encoding.dims, digits),
            encoding.trotter_step(0.25),
            3,
            operator,
            targets,
        )
        assert values.shape == (4,)

    def test_rejects_zero_steps(self, chain):
        encoding = QuditEncoding(chain)
        backend = get_backend("density")
        with pytest.raises(SimulationError):
            evolve_observable_trajectory(
                backend,
                backend.prepare(encoding.dims),
                encoding.trotter_step(0.25),
                0,
                *encoding.local_lz(0),
            )


#: ``trajectory_damage`` values recorded before every method shared one
#: stepwise driver: ``(encoding, method, epsilon, damage)`` on the 2-site
#: qutrit chain.  Each method's options are in ``_PINNED_OPTIONS``.
_PINNED_DAMAGE = [
    ("qudit", "density", 0.01, 0.02514955349583776),
    ("qudit", "density", 0.05, 0.11891125583164139),
    ("qudit", "trajectories", 0.01, 3.451823661381864e-16),
    ("qudit", "trajectories", 0.05, 0.13323593340742235),
    ("qudit", "auto", 0.01, 0.02514955349583779),
    ("qudit", "auto", 0.05, 0.11891125583164135),
    ("qudit", "mps", 0.01, 0.0),
    ("qudit", "mps", 0.05, 0.007895467852720741),
    ("qudit", "lpdo", 0.01, 0.002222710907947609),
    ("qudit", "lpdo", 0.05, 0.011074025738300224),
    ("qubit", "density", 0.01, 0.6236207046922958),
    ("qubit", "density", 0.05, 0.7716238469001098),
    ("qubit", "trajectories", 0.01, 0.4340185138120703),
    ("qubit", "trajectories", 0.05, 0.8040042358502767),
    ("qubit", "auto", 0.01, 0.6236207046922978),
    ("qubit", "auto", 0.05, 0.7716238469001117),
    ("qubit", "mps", 0.01, 0.1650262119882884),
    ("qubit", "mps", 0.05, 0.6780361105266299),
    ("qubit", "lpdo", 0.01, 0.28442085230799524),
    ("qubit", "lpdo", 0.05, 0.5556672418130963),
]

_PINNED_OPTIONS = {
    "density": dict(t_total=1.0, n_steps=2),
    "trajectories": dict(t_total=1.0, n_steps=2, n_trajectories=8, rng=0),
    "auto": dict(t_total=1.0, n_steps=2),
    "mps": dict(t_total=0.5, n_steps=1, n_trajectories=2, max_bond=8, rng=0),
    "lpdo": dict(t_total=0.5, n_steps=1, max_bond=4, max_kraus=4),
}


class TestSharedDriverPinned:
    """Routing every method through one driver left the scores unchanged."""

    @pytest.mark.parametrize(
        "encoding, method, epsilon, expected",
        _PINNED_DAMAGE,
        ids=[f"{enc}-{method}-{eps}" for enc, method, eps, _ in _PINNED_DAMAGE],
    )
    def test_damage_matches_pinned_value(
        self, chain, encoding, method, epsilon, expected
    ):
        cls = QuditEncoding if encoding == "qudit" else QubitEncoding
        damage = trajectory_damage(
            cls(chain), epsilon, method=method, **_PINNED_OPTIONS[method]
        )
        if method in ("density", "auto"):
            # The density engine (which "auto" picks at this size) rounds
            # differently from the one the pins were taken on: it reads
            # the site's reduced state and runs each gate and its noise as
            # one superoperator on the doubled register.
            assert abs(damage - expected) <= 1e-12
        else:
            assert damage == expected

    @pytest.mark.parametrize("epsilon", [0.0, 0.01])
    def test_gap_trajectory_matches_inline_density_loop(self, epsilon):
        chain = RotorChain(3, spin=1, g2=1.0, hopping=0.3)
        encoding = QuditEncoding(chain)
        obs = encoding.local_link_operator(0)
        times, values = trotter_gap_trajectory(chain, obs, 3.0, 12, epsilon)
        step = encoding.trotter_step(3.0 / 12)
        if epsilon > 0:
            step = insert_depolarizing_noise(step, encoding, epsilon)
        rho = DensityMatrix.from_statevector(
            Statevector(gap_probe_state(chain), chain.dims)
        )
        reference = [float(np.real(rho.expectation(obs)))]
        for _ in range(12):
            rho = rho.evolve(step)
            reference.append(float(np.real(rho.expectation(obs))))
        assert values.tolist() == reference
        assert times.tolist() == np.linspace(0.0, 3.0, 13).tolist()
