"""Tests for the rotor Hamiltonians and their shared sparse solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import DimensionError
from repro.core.gates import is_hermitian
from repro.sqed import (
    RotorChain,
    RotorLadder2D,
    RotorLattice3D,
    RotorSiteOperators,
    trotter_circuit,
)
from repro.sqed import rotor
from repro.sqed.rotor2d import ladder_mode_layout


class TestSiteOperators:
    def test_dim(self):
        assert RotorSiteOperators(1).dim == 3
        assert RotorSiteOperators(2).dim == 5

    def test_lz_spectrum(self):
        lz = RotorSiteOperators(2).lz()
        np.testing.assert_allclose(np.diag(lz).real, [-2, -1, 0, 1, 2])

    def test_raising_action(self):
        ops = RotorSiteOperators(1)
        raising = ops.raising()
        vec = np.zeros(3)
        vec[0] = 1.0  # m = -1
        np.testing.assert_allclose(raising @ vec, [0, 1, 0])
        # top state annihilated
        top = np.zeros(3)
        top[2] = 1.0
        np.testing.assert_allclose(raising @ top, np.zeros(3))

    def test_commutation_with_lz(self):
        """[Lz, U] = U (raising increases m by one), inside the truncation."""
        ops = RotorSiteOperators(2)
        lz, raising = ops.lz(), ops.raising()
        comm = lz @ raising - raising @ lz
        np.testing.assert_allclose(comm, raising, atol=1e-12)

    def test_invalid_spin(self):
        with pytest.raises(DimensionError):
            RotorSiteOperators(0)


class TestRotorChain:
    def test_dims(self):
        chain = RotorChain(4, spin=1)
        assert chain.dims == (3, 3, 3, 3)
        assert chain.site_dim == 3

    def test_needs_two_sites(self):
        with pytest.raises(DimensionError):
            RotorChain(1)

    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=10, deadline=None)
    def test_hamiltonian_hermitian(self, n_sites, spin):
        chain = RotorChain(n_sites, spin=spin, g2=0.7, hopping=0.4, mu=0.1, zz=0.2)
        assert is_hermitian(chain.to_matrix())

    def test_terms_structure(self):
        chain = RotorChain(3, spin=1, hopping=0.3, zz=0.1)
        labels = [t.label for t in chain.terms()]
        assert labels.count("electric") == 3
        assert labels.count("hop") == 2
        assert labels.count("zz") == 2

    def test_zero_couplings_drop_terms(self):
        chain = RotorChain(3, spin=1, g2=0.0, hopping=0.0, mu=0.0, zz=0.0)
        assert chain.terms() == []

    def test_periodic_adds_bond(self):
        open_chain = RotorChain(4, spin=1)
        ring = RotorChain(4, spin=1, periodic=True)
        assert len(ring.bonds()) == len(open_chain.bonds()) + 1

    def test_decoupled_spectrum(self):
        """hopping = 0: spectrum is the sum of single-site electric levels."""
        chain = RotorChain(2, spin=1, g2=2.0, hopping=0.0)
        eigs = chain.spectrum()
        # single-site levels: g2/2 * m^2 = {0, 1, 1} -> pair sums sorted
        expected = sorted(a + b for a in (0.0, 1.0, 1.0) for b in (0.0, 1.0, 1.0))
        np.testing.assert_allclose(eigs, expected, atol=1e-10)

    def test_mass_gap_positive(self):
        chain = RotorChain(3, spin=1, g2=1.0, hopping=0.3)
        assert chain.mass_gap() > 0

    def test_gap_grows_with_coupling(self):
        weak = RotorChain(2, spin=1, g2=0.5, hopping=0.1).mass_gap()
        strong = RotorChain(2, spin=1, g2=2.0, hopping=0.1).mass_gap()
        assert strong > weak

    def test_ground_state_normalised(self):
        gs = RotorChain(3, spin=1, hopping=0.3).ground_state()
        assert abs(np.linalg.norm(gs) - 1.0) < 1e-10

    def test_dense_guard(self):
        with pytest.raises(DimensionError):
            RotorChain(9, spin=2).to_matrix()


class TestRotorLadder2D:
    def test_shape(self):
        lattice = RotorLadder2D(3, 2, spin=1)
        assert lattice.n_sites == 6
        assert lattice.site_dim == 3

    def test_site_index_roundtrip(self):
        lattice = RotorLadder2D(4, 2)
        assert lattice.site_index(0, 0) == 0
        assert lattice.site_index(3, 1) == 7
        with pytest.raises(DimensionError):
            lattice.site_index(4, 0)

    def test_bond_count(self):
        """Lx x Ly open grid: (Lx-1)*Ly + Lx*(Ly-1) bonds."""
        lattice = RotorLadder2D(3, 2)
        assert len(lattice.bonds()) == 2 * 2 + 3 * 1

    def test_ladder_boundary_is_everything(self):
        lattice = RotorLadder2D(3, 2)
        assert sorted(lattice.boundary_sites()) == list(range(6))

    def test_interior_site_excluded(self):
        lattice = RotorLadder2D(3, 3)
        assert lattice.site_index(1, 1) not in lattice.boundary_sites()

    def test_hamiltonian_hermitian(self):
        lattice = RotorLadder2D(2, 2, spin=1, kappa=0.4)
        assert is_hermitian(lattice.to_matrix())

    def test_gap_positive(self):
        assert RotorLadder2D(2, 2, spin=1).mass_gap() > 0

    def test_table1_shape_definable(self):
        """The 9x2, d=4+ Table I target is constructible (not simulable)."""
        lattice = RotorLadder2D(9, 2, spin=2)  # d = 5 >= 4
        assert lattice.n_sites == 18
        assert lattice.site_dim >= 4
        assert len(lattice.terms()) > 0
        with pytest.raises(DimensionError):
            lattice.to_matrix()

    def test_mode_layout(self):
        lattice = RotorLadder2D(3, 2)
        layout = ladder_mode_layout(lattice, modes_per_cavity=2)
        # rung x lives in cavity x's modes
        assert layout == [0, 1, 2, 3, 4, 5]
        with pytest.raises(DimensionError):
            ladder_mode_layout(lattice, modes_per_cavity=1)

    def test_invalid_lattice(self):
        with pytest.raises(DimensionError):
            RotorLadder2D(1, 1)


# ----------------------------------------------------------------------
# shared RotorLattice: sparse assembly and Lanczos spectra
# ----------------------------------------------------------------------
FAMILIES = [
    RotorChain(4, spin=1),
    RotorChain(5, spin=1, periodic=True),
    RotorChain(3, spin=1, g2=0.3, mu=0.37, zz=-0.11, periodic=True),
    RotorChain(3, spin=2, g2=0.7, mu=0.13, zz=0.21),
    RotorLadder2D(3, 2, spin=1),
    RotorLadder2D(2, 2, spin=1, boundary_field=False),
    RotorLattice3D(2, 2, 1, spin=1),
    RotorLattice3D(2, 1, 2, spin=1, g2=0.3, kappa=0.77),
]


class TestRotorLattice:
    @pytest.mark.parametrize("model", FAMILIES, ids=repr)
    def test_sparse_equals_dense_exactly(self, model):
        np.testing.assert_array_equal(model.to_sparse().toarray(), model.to_matrix())

    @pytest.mark.parametrize("model", FAMILIES, ids=repr)
    def test_lanczos_matches_dense(self, model):
        dense = np.linalg.eigvalsh(model.to_matrix())
        for k in (1, 2, 3, 6):
            np.testing.assert_allclose(model.spectrum(k), dense[:k], rtol=0, atol=1e-10)

    def test_degenerate_first_excitation(self):
        """The periodic chain in FAMILIES really has E1 = E2 for Lanczos to find."""
        eigs = RotorChain(5, spin=1, periodic=True).spectrum(3)
        assert abs(eigs[2] - eigs[1]) < 1e-10

    @pytest.mark.parametrize(
        "g2, gap",
        [
            (0.5, 0.08678553141234002),
            (1.0, 0.19743167608102163),
            (2.0, 0.5806321716290483),
        ],
    )
    def test_dense_ed_gaps_reproduced(self, g2, gap):
        """The 6-site gaps the dense ``eigvalsh`` path produced."""
        chain = RotorChain(6, spin=1, g2=g2, hopping=0.3)
        assert abs(chain.mass_gap() - gap) < 1e-10

    def test_gap_deterministic_and_leaves_global_rng(self):
        """The start vector never draws from (or advances) NumPy's global RNG."""
        chain = RotorChain(6, spin=1, g2=1.0, hopping=0.3)
        before = np.random.get_state()  # repro: ignore[seed-discipline] — probes it
        first = chain.mass_gap()
        after = np.random.get_state()  # repro: ignore[seed-discipline] — probes it
        assert chain.mass_gap() == first
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    @pytest.mark.parametrize("k", [-1, 0, 10, 50])
    def test_spectrum_k_out_of_range(self, k):
        with pytest.raises(DimensionError):
            RotorChain(2, spin=1).spectrum(k)

    def test_spectrum_k_equal_dim_is_full(self):
        chain = RotorChain(2, spin=1)
        np.testing.assert_allclose(chain.spectrum(9), chain.spectrum(), atol=1e-12)

    def test_gap_beyond_dense_cap(self, monkeypatch):
        """3^9 = 19683 > MAX_DENSE_DIM: computed by Lanczos, start-independent."""
        chain = RotorChain(9, spin=1)
        with pytest.raises(DimensionError):
            chain.to_matrix()
        gap = chain.mass_gap()
        monkeypatch.setattr(rotor, "LANCZOS_SEED", 12345)
        assert gap > 0
        assert abs(chain.mass_gap() - gap) < 1e-10

    def test_sparse_cap(self):
        with pytest.raises(DimensionError, match="MAX_SPARSE_DIM"):
            RotorChain(13, spin=1).to_sparse()

    def test_repr_names_the_constructor_arguments(self):
        assert repr(RotorLattice3D(2, 2, 1, spin=2)) == (
            "RotorLattice3D(lx=2, ly=2, lz=1, spin=2, g2=1.0, kappa=0.4)"
        )
        assert repr(RotorChain(3)).startswith("RotorChain(n_sites=3, spin=1, ")

    @pytest.mark.parametrize(
        "model, digest",
        [
            (
                RotorChain(4, spin=2, g2=0.7, mu=0.1, zz=0.2, periodic=True),
                "59f4cef2f48e6625bca8402f47922ecb0c813f4c0319c768d61edd04405044de",
            ),
            (
                RotorLadder2D(3, 2, spin=1, kappa=0.4),
                "8da2e8d8d71e1aa6055aba71ebdb907c2236daefa6261572641cc900716faedf",
            ),
            (
                RotorLattice3D(2, 2, 1, spin=1),
                "96475b1c7cede700f3155f4fa970429254b7a5f635076fe1d1b435b170e5af45",
            ),
        ],
        ids=repr,
    )
    def test_trotter_fingerprint_pinned(self, model, digest):
        """``terms()`` is unchanged, so cached Trotter results stay valid."""
        circuit = trotter_circuit(model, t_total=0.5, n_steps=2, order=2)
        assert circuit.fingerprint() == digest
