"""Tests for the shared MPS/LPDO canonical-form and truncation kernels."""

import numpy as np
import pytest

from repro.core.exceptions import SimulationError
from repro.core.tensor_utils import qr_step_left, qr_step_right, truncated_svd


def _random_chain(rng, shapes):
    """A list of random complex tensors with the given shapes."""
    return [
        rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for shape in shapes
    ]


def _contract(tensors):
    """Dense vector encoded by a chain of (l, *mid, r) tensors."""
    out = tensors[0]
    for t in tensors[1:]:
        out = np.tensordot(out, t, axes=(-1, 0))
    return out.reshape(-1)


RANK3 = [(1, 3, 4), (4, 2, 5), (5, 3, 1)]
RANK4 = [(1, 3, 2, 4), (4, 2, 1, 5), (5, 3, 2, 1)]


class TestQRSteps:
    @pytest.mark.parametrize("shapes", [RANK3, RANK4])
    def test_right_step_preserves_state_and_orthogonality(self, shapes):
        rng = np.random.default_rng(0)
        tensors = _random_chain(rng, shapes)
        reference = _contract(tensors)
        qr_step_right(tensors, 0)
        np.testing.assert_allclose(_contract(tensors), reference, atol=1e-12)
        t = tensors[0]
        mat = t.reshape(-1, t.shape[-1])
        np.testing.assert_allclose(
            mat.conj().T @ mat, np.eye(mat.shape[1]), atol=1e-12
        )
        # Middle legs (physical, and Kraus for rank 4) are untouched.
        assert t.shape[1:-1] == shapes[0][1:-1]

    @pytest.mark.parametrize("shapes", [RANK3, RANK4])
    def test_left_step_preserves_state_and_orthogonality(self, shapes):
        rng = np.random.default_rng(1)
        tensors = _random_chain(rng, shapes)
        reference = _contract(tensors)
        qr_step_left(tensors, 2)
        np.testing.assert_allclose(_contract(tensors), reference, atol=1e-12)
        t = tensors[2]
        mat = t.reshape(t.shape[0], -1)
        np.testing.assert_allclose(
            mat @ mat.conj().T, np.eye(mat.shape[0]), atol=1e-12
        )
        assert t.shape[1:-1] == shapes[2][1:-1]

    @pytest.mark.parametrize("shapes", [RANK3, RANK4])
    def test_full_sweep_round_trip(self, shapes):
        """Sweeping right then left across the chain is a no-op on the state."""
        rng = np.random.default_rng(2)
        tensors = _random_chain(rng, shapes)
        reference = _contract(tensors)
        for i in range(len(tensors) - 1):
            qr_step_right(tensors, i)
        for i in range(len(tensors) - 1, 0, -1):
            qr_step_left(tensors, i)
        np.testing.assert_allclose(_contract(tensors), reference, atol=1e-12)


class TestTruncatedSVD:
    def test_exact_split_reconstructs(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
        left, right, discarded = truncated_svd(mat, max_keep=None, rel_tol=1e-14)
        np.testing.assert_allclose(left @ right, mat, atol=1e-12)
        assert discarded < 1e-14

    def test_capped_split_reports_weight_and_preserves_norm(self):
        rng = np.random.default_rng(4)
        mat = rng.normal(size=(8, 8))
        left, right, discarded = truncated_svd(mat, max_keep=3, rel_tol=1e-14)
        assert left.shape[1] == 3 and right.shape[0] == 3
        assert 0.0 < discarded < 1.0
        # Kept spectrum is rescaled so the Frobenius norm survives.
        np.testing.assert_allclose(
            np.linalg.norm(left @ right), np.linalg.norm(mat), atol=1e-12
        )
        # Discarded fraction matches the true tail weight.
        s = np.linalg.svd(mat, compute_uv=False)
        expected = 1.0 - (s[:3] ** 2).sum() / (s**2).sum()
        assert abs(discarded - expected) < 1e-12

    def test_always_keeps_one(self):
        mat = np.diag([1.0, 1e-20])
        left, right, _ = truncated_svd(mat, max_keep=None, rel_tol=1e-10)
        assert left.shape[1] == 1

    def test_zero_matrix_raises(self):
        with pytest.raises(SimulationError):
            truncated_svd(np.zeros((3, 3)), max_keep=None, rel_tol=1e-12)


class TestSharedAcrossBackends:
    def test_mps_and_lpdo_delegate_to_shared_kernels(self):
        """An MPS is an LPDO with kappa = 1: both canonicalise identically."""
        from repro.core.lpdo import LPDOState
        from repro.core.mps import MPSState

        rng = np.random.default_rng(5)
        from repro.core.statevector import Statevector

        vec = rng.normal(size=12) + 1j * rng.normal(size=12)
        state = Statevector(vec / np.linalg.norm(vec), (3, 2, 2))
        mps = MPSState.from_statevector(state)
        lpdo = LPDOState.from_mps(mps)
        mps._canonicalize(0, 0)
        lpdo._canonicalize(0, 0)
        for t_mps, t_lpdo in zip(mps._tensors, lpdo._tensors):
            np.testing.assert_allclose(
                t_mps, t_lpdo[:, :, 0, :], atol=1e-12
            )

    @pytest.mark.parametrize(
        "wires, kind, max_bond",
        [
            ((1, 2), "diagonal", None),  # operator-Schmidt bond expansion
            ((0, 1, 2), "dense", None),  # merged three-site theta
            ((3, 0), "dense", None),  # distant pair: swap routing
            ((0, 3), "diagonal", 2),  # routing and expansion under a cap
        ],
    )
    def test_pure_lpdo_evolves_like_its_mps(self, wires, kind, max_bond):
        """One unitary path: a pure LPDO tracks its MPS tensor-for-tensor."""
        from repro.core import QuditCircuit
        from repro.core.lpdo import LPDOState
        from repro.core.mps import MPSState
        from repro.core.random_ops import haar_unitary

        rng = np.random.default_rng(6)
        dims = (3, 2, 2, 3)
        prep = QuditCircuit(dims)
        for i in range(len(dims)):
            prep.fourier(i)
        prep.controlled_phase(1, 2, 0.7)
        mps = MPSState.zero(dims, max_bond=max_bond).evolve(prep)
        lpdo = LPDOState.from_mps(mps)
        size = int(np.prod([dims[w] for w in wires]))
        if kind == "diagonal":
            matrix = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size)))
        else:
            matrix = haar_unitary(size, rng)
        qc = QuditCircuit(dims)
        qc.unitary(matrix, wires, name=kind)
        mps, lpdo = mps.evolve(qc), lpdo.evolve(qc)
        assert lpdo.bond_dimensions() == mps.bond_dimensions()
        assert lpdo.kraus_dimensions() == (1,) * len(dims)
        assert lpdo.truncation_error == mps.truncation_error
        for i in range(len(dims)):
            np.testing.assert_allclose(
                lpdo.site_tensor(i)[:, :, 0, :], mps.site_tensor(i), atol=1e-12
            )
