"""The closed-form depolarising channel and the instruction that carries it.

A channel built by :func:`depolarizing` and appended as a channel object
records its probability on the instruction; the density engine then
applies ``(1 - λ) ρ + λ Tr_S(ρ) ⊗ I/d_S`` instead of contracting the Weyl
family.  Every other engine keeps the Kraus path, so its results must be
bit-identical to the same circuit built from the bare Kraus tuple.
"""

import hashlib

import numpy as np
import pytest

from repro import obs
from repro.core import (
    DensityMatrix,
    LPDOState,
    MPSState,
    QuditCircuit,
    TrajectorySimulator,
)
from repro.core.channels import dephasing, depolarizing, photon_loss
from repro.core.circuit import Instruction
from repro.core.exceptions import CircuitError
from repro.core.random_ops import random_density_matrix

PROBABILITIES = (0.0, 1e-3, 0.5, 1.0)

#: Mixed registers (qudits plus qubits) with contiguous, non-contiguous
#: and reversed targets.
REGISTERS = (
    ((3, 2, 3), (0, 1)),
    ((3, 2, 3), (0, 2)),
    ((3, 2, 3), (2, 0)),
    ((3, 2, 3), (2, 1, 0)),
    ((3, 2, 3), (1,)),
    ((4, 3), (1, 0)),
    ((2, 3, 2, 2), (3, 1)),
    ((2, 2, 2, 2), (1, 2)),
)


def _span(dims, targets):
    return int(np.prod([dims[t] for t in targets]))


def _noisy_circuit(dims, closed_form):
    """Entangle a mixed register, depolarising after every gate."""
    qc = QuditCircuit(dims)
    for wire in range(len(dims)):
        qc.fourier(wire)
    for a in range(len(dims) - 1):
        qc.controlled_phase(a, a + 1, strength=0.7)
        qc.csum(a, a + 1)
        family = depolarizing(dims[a] * dims[a + 1], 0.05)
        qc.channel(family if closed_form else family.kraus, (a, a + 1), name="depol")
        family = depolarizing(dims[a + 1], 0.02)
        qc.channel(family if closed_form else family.kraus, a + 1, name="depol")
    qc.channel(photon_loss(dims[0], 0.1), 0, name="loss")
    return qc


class TestClosedFormMatchesKraus:
    @pytest.mark.parametrize("dims, targets", REGISTERS)
    @pytest.mark.parametrize("p", PROBABILITIES)
    def test_against_apply_kraus(self, dims, targets, p):
        rng = np.random.default_rng(7)
        rho = DensityMatrix(random_density_matrix(int(np.prod(dims)), rng=rng), dims)
        family = depolarizing(_span(dims, targets), p)
        qc = QuditCircuit(dims)
        qc.channel(family, targets, name="depol")
        assert qc.instructions[0].depolarizing_p == p
        closed = rho.evolve(qc)
        reference = rho.apply_kraus(family.kraus, targets)
        np.testing.assert_allclose(closed.matrix, reference.matrix, rtol=0, atol=1e-12)
        assert abs(closed.trace() - 1.0) < 1e-12

    def test_whole_circuit_matches_plain_kraus(self):
        dims = (3, 2, 3)
        closed = DensityMatrix.zero(dims).evolve(_noisy_circuit(dims, True))
        plain = DensityMatrix.zero(dims).evolve(_noisy_circuit(dims, False))
        np.testing.assert_allclose(closed.matrix, plain.matrix, rtol=0, atol=1e-12)
        assert abs(closed.trace() - 1.0) < 1e-12

    def test_full_strength_on_whole_register_is_uniform_twirl(self):
        """p = (d²-1)/d² is λ = 1: every state goes to I/d."""
        d = 6
        rng = np.random.default_rng(1)
        rho = DensityMatrix(random_density_matrix(d, rng=rng), [2, 3])
        qc = QuditCircuit([2, 3])
        qc.channel(depolarizing(d, (d * d - 1) / (d * d)), (0, 1), name="depol")
        out = rho.evolve(qc)
        np.testing.assert_allclose(out.matrix, np.eye(d) / d, rtol=0, atol=1e-15)


class TestOtherEnginesKeepKrausPath:
    def test_lpdo_bit_identical(self):
        dims = (3, 2, 3)
        closed, plain = (
            LPDOState.zero(dims).evolve(_noisy_circuit(dims, c)).to_density_matrix()
            for c in (True, False)
        )
        assert np.array_equal(closed.matrix, plain.matrix)

    def test_mps_bit_identical(self):
        dims = (3, 2, 3)
        closed, plain = (
            MPSState.zero(dims).evolve(_noisy_circuit(dims, c), rng=11).to_statevector()
            for c in (True, False)
        )
        assert np.array_equal(closed.vector, plain.vector)

    def test_trajectories_bit_identical(self):
        dims = (3, 2, 3)
        closed, plain = (
            TrajectorySimulator(_noisy_circuit(dims, c), seed=5).average_density(16)
            for c in (True, False)
        )
        assert np.array_equal(closed, plain)


class TestDepolarizingInstruction:
    def test_bare_kraus_tuple_is_an_ordinary_channel(self):
        qc = QuditCircuit([3])
        qc.channel(depolarizing(3, 0.1).kraus, 0, name="depol")
        assert qc.instructions[0].depolarizing_p is None

    def test_other_channel_objects_carry_no_probability(self):
        qc = QuditCircuit([3])
        qc.channel(dephasing(3, 0.1), 0, name="deph")
        assert qc.instructions[0].depolarizing_p is None

    def test_probability_must_name_the_kraus_family(self):
        with pytest.raises(CircuitError):
            Instruction(
                name="depol",
                kind="channel",
                qudits=(0,),
                kraus=depolarizing(3, 0.1).kraus,
                depolarizing_p=0.2,
            )
        with pytest.raises(CircuitError):
            Instruction(
                name="deph",
                kind="channel",
                qudits=(0,),
                kraus=dephasing(3, 0.1).kraus,
                depolarizing_p=0.1,
            )

    def test_probability_only_on_channels(self):
        with pytest.raises(CircuitError):
            Instruction(
                name="u",
                kind="unitary",
                qudits=(0,),
                matrix=np.eye(3, dtype=complex),
                depolarizing_p=0.1,
            )

    def test_equal_family_values_accepted(self):
        """A value-equal copy of the family (e.g. after a cache eviction) is fine."""
        family = depolarizing(3, 0.1).kraus
        inst = Instruction(
            name="depol",
            kind="channel",
            qudits=(0,),
            kraus=tuple(op.copy() for op in family),
            depolarizing_p=0.1,
        )
        assert inst.depolarizing_p == 0.1


class TestFingerprints:
    def test_circuit_without_depolarizing_instruction_keeps_its_digest(self):
        """Digest pinned from before instructions could carry a probability."""
        qc = QuditCircuit([3, 2, 3])
        qc.fourier(0)
        qc.csum(0, 2)
        qc.channel(dephasing(2, 0.2).kraus, 1, name="deph")
        qc.channel(photon_loss(3, 0.35).kraus, 2, name="loss")
        qc.channel(depolarizing(9, 0.05).kraus, (0, 2), name="depol")
        qc.measure()
        qc.reset(1)
        assert qc.fingerprint() == (
            "319630c6d8d4098aa3d285b735b238f0f60b192c7754921544a2eea93d5526de"
        )

    def test_closed_form_and_plain_kraus_hash_differently(self):
        family = depolarizing(9, 0.05)
        closed, plain = QuditCircuit([3, 3]), QuditCircuit([3, 3])
        closed.channel(family, (0, 1), name="depol")
        plain.channel(family.kraus, (0, 1), name="depol")
        assert closed.fingerprint() != plain.fingerprint()

        def digest(inst):
            hasher = hashlib.sha256()
            inst.feed_fingerprint(hasher)
            return hasher.hexdigest()

        assert digest(closed.instructions[0]) != digest(plain.instructions[0])


class TestObservability:
    @pytest.fixture(autouse=True)
    def _clean_obs(self):
        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    def test_obs_on_equals_obs_off(self):
        dims = (3, 2, 3)
        qc = _noisy_circuit(dims, True)
        off = DensityMatrix.zero(dims).evolve(qc)
        obs.enable()
        on = DensityMatrix.zero(dims).evolve(qc)
        obs.disable()
        assert np.array_equal(on.matrix, off.matrix)
        counter = obs.metrics.REGISTRY.get("channel_applies")
        assert counter.value(backend="density", kind="depolarizing") == 4.0
        spans = [
            e for e in obs.tracing.events()
            if e["name"] == "channel_apply" and e["args"]["kind"] == "depolarizing"
        ]
        assert len(spans) == 4

