"""Tests for the qudit/qubit encodings and noise instrumentation."""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.core import Statevector
from repro.core.exceptions import DimensionError
from repro.sqed import (
    QubitEncoding,
    QuditEncoding,
    RotorChain,
    insert_depolarizing_noise,
)


@pytest.fixture()
def chain():
    return RotorChain(2, spin=1, g2=1.0, hopping=0.3)


class TestQuditEncoding:
    def test_dims(self, chain):
        assert QuditEncoding(chain).dims == (3, 3)

    def test_trotter_step_accuracy(self, chain):
        """Small-dt step approximates exp(-i H dt) to O(dt^2)."""
        encoding = QuditEncoding(chain)
        dt = 0.02
        step = encoding.trotter_step(dt).to_unitary()
        exact = expm(-1j * dt * chain.to_matrix())
        assert np.abs(step - exact).max() < 5 * dt**2

    def test_entangling_counts(self, chain):
        encoding = QuditEncoding(chain)
        assert encoding.entangling_equivalents("hop") == 2
        assert encoding.entangling_equivalents("zz") == 1
        assert encoding.entangling_equivalents("electric") == 0
        assert encoding.entangling_per_step() == 2  # one bond, hop only

    def test_total_lz_conserved_by_step(self, chain):
        """The hop term conserves total Lz: step commutes with it."""
        encoding = QuditEncoding(chain)
        step = encoding.trotter_step(0.1).to_unitary()
        total = encoding.total_lz_operator()
        np.testing.assert_allclose(
            step @ total @ step.conj().T, total, atol=1e-9
        )

    def test_product_state_digits(self, chain):
        encoding = QuditEncoding(chain)
        assert encoding.initial_state_digits() == (1, 1)
        assert encoding.product_state_digits([1, -1]) == (2, 0)
        with pytest.raises(DimensionError):
            encoding.product_state_digits([2, 0])

    def test_local_operators(self, chain):
        encoding = QuditEncoding(chain)
        lz0 = encoding.local_lz_operator(0)
        state = Statevector.basis((3, 3), (2, 1))  # m = (+1, 0)
        assert abs(np.real(state.vector.conj() @ lz0 @ state.vector) - 1.0) < 1e-12
        with pytest.raises(DimensionError):
            encoding.local_lz_operator(5)

    def test_link_operator_offdiagonal(self, chain):
        encoding = QuditEncoding(chain)
        link = encoding.local_link_operator(0)
        assert np.abs(np.diag(link)).max() < 1e-12
        assert np.abs(link).max() > 0


class TestQubitEncoding:
    def test_qubit_count(self, chain):
        encoding = QubitEncoding(chain)
        assert encoding.qubits_per_site == 2
        assert encoding.n_qubits == 4
        assert encoding.dims == (2, 2, 2, 2)

    def test_site_qubits(self, chain):
        encoding = QubitEncoding(chain)
        assert encoding.site_qubits(1) == [2, 3]
        with pytest.raises(DimensionError):
            encoding.site_qubits(2)

    def test_embedding_preserves_spectrum(self, chain):
        """Embedded Lz has the site spectrum plus zeros on unused states."""
        encoding = QubitEncoding(chain)
        embedded = encoding._embed_site_operator(chain.ops.lz(), 1)
        eigs = sorted(np.linalg.eigvalsh(embedded))
        np.testing.assert_allclose(eigs, [-1, 0, 0, 1], atol=1e-12)

    def test_trotter_step_matches_qudit_physics(self, chain):
        """Both encodings evolve the encoded state identically (small dt)."""
        qudit = QuditEncoding(chain)
        qubit = QubitEncoding(chain)
        dt = 0.02
        psi = Statevector.basis(qudit.dims, qudit.product_state_digits([1, 0]))
        ref = psi.evolve(qudit.trotter_step(dt))
        psi_q = Statevector.basis(qubit.dims, qubit.product_state_digits([1, 0]))
        out_q = psi_q.evolve(qubit.trotter_step(dt))
        # Compare local Lz expectations, encoding-independent observables.
        for site in range(2):
            a = ref.expectation(chain.ops.lz(), site).real
            op = qubit.local_lz_operator(site)
            b = np.real(out_q.vector.conj() @ op @ out_q.vector)
            assert abs(a - b) < 1e-3

    def test_cnot_count_much_larger_than_qudit(self, chain):
        """The gate-count leverage behind claim C1."""
        qudit = QuditEncoding(chain)
        qubit = QubitEncoding(chain)
        ratio = qubit.cnots_per_step() / qudit.entangling_per_step()
        assert ratio > 10

    def test_step_cache(self, chain):
        encoding = QubitEncoding(chain)
        first = encoding.trotter_step(0.1)
        second = encoding.trotter_step(0.1)
        assert first is second

    def test_initial_digits(self, chain):
        encoding = QubitEncoding(chain)
        # m = 0 -> level 1 -> bits 01 per site
        assert encoding.initial_state_digits() == (0, 1, 0, 1)


class TestNoiseInsertion:
    def test_channels_inserted_for_entangling(self, chain):
        encoding = QuditEncoding(chain)
        step = encoding.trotter_step(0.1)
        noisy = insert_depolarizing_noise(step, encoding, 0.01)
        names = [inst.name for inst in noisy]
        assert "depol" in names
        assert len(noisy) > len(step)

    def test_zero_epsilon_single_fraction(self, chain):
        encoding = QuditEncoding(chain)
        step = encoding.trotter_step(0.1)
        noisy = insert_depolarizing_noise(step, encoding, 0.0)
        # epsilon = 0: no channels at all
        assert all(inst.kind == "unitary" for inst in noisy)

    def test_epsilon_validation(self, chain):
        encoding = QuditEncoding(chain)
        step = encoding.trotter_step(0.1)
        with pytest.raises(DimensionError):
            insert_depolarizing_noise(step, encoding, 1.5)

    def test_noise_reduces_fidelity(self, chain):
        from repro.core import DensityMatrix

        encoding = QuditEncoding(chain)
        step = encoding.trotter_step(0.1)
        noisy = insert_depolarizing_noise(step, encoding, 0.05)
        ideal = Statevector.zero(encoding.dims).evolve(step)
        rho = DensityMatrix.zero(encoding.dims).evolve(noisy)
        assert rho.fidelity_with_pure(ideal) < 1.0

    @pytest.mark.parametrize("encoding_cls", [QuditEncoding, QubitEncoding])
    def test_depolarized_density_matches_plain_kraus(self, chain, encoding_cls):
        """Every inserted channel is closed-form and agrees with its Kraus family."""
        from repro.core import DensityMatrix, QuditCircuit

        encoding = encoding_cls(chain)
        noisy = insert_depolarizing_noise(encoding.trotter_step(0.3), encoding, 0.05)
        plain = QuditCircuit(noisy.dims)
        for inst in noisy:
            if inst.kind == "channel":
                assert inst.depolarizing_p is not None
                plain.channel(inst.kraus, inst.qudits, name=inst.name)
            else:
                plain.append(inst)
        closed = DensityMatrix.zero(noisy.dims).evolve(noisy)
        reference = DensityMatrix.zero(noisy.dims).evolve(plain)
        np.testing.assert_allclose(closed.matrix, reference.matrix, rtol=0, atol=1e-12)
