"""The depolarising noise template: one per clean step, bound per epsilon.

``insert_depolarizing_noise`` binds epsilon to a template built once per
clean circuit.  These tests hold the bound circuit to the circuit the
per-epsilon rebuild made (``_rebuilt``, the former implementation) and
the damage scores to the order in which epsilons are bound.
"""

import math

import numpy as np
import pytest

from repro.core import DensityMatrix, QuditCircuit
from repro.core import channels
from repro.core.channels import depolarizing
from repro.core.circuit import NoisyCircuit
from repro.sqed import (
    QubitEncoding,
    QuditEncoding,
    RotorChain,
    insert_depolarizing_noise,
    trajectory_damage,
)

ENCODINGS = [QuditEncoding, QubitEncoding]


@pytest.fixture()
def chain():
    return RotorChain(2, spin=1, g2=1.0, hopping=0.3)


def _rebuilt(circuit, encoding, epsilon, single_gate_fraction=0.1):
    """The noisy circuit as it was built anew for every epsilon."""
    noisy = QuditCircuit(circuit.dims, name=circuit.name + "+depol")
    for ins in circuit:
        noisy.append(ins)
        if ins.kind != "unitary":
            continue
        k = encoding.entangling_equivalents(ins.name)
        dim = math.prod(circuit.dims[w] for w in ins.qudits)
        if k > 0:
            p = 1.0 - (1.0 - epsilon) ** k
            if p > 0:
                noisy.channel(depolarizing(dim, p), ins.qudits, name="depol")
        elif epsilon > 0 and single_gate_fraction > 0:
            p = single_gate_fraction * epsilon
            noisy.channel(depolarizing(dim, p), ins.qudits, name="depol")
    return noisy


class TestBoundCircuit:
    @pytest.mark.parametrize("cls", ENCODINGS)
    # 1e-17: every k > 0 slot rounds to p = 0 and stays empty
    @pytest.mark.parametrize("epsilon", [0.0, 1e-17, 0.003, 0.2, 1.0])
    def test_matches_the_per_epsilon_rebuild(self, chain, cls, epsilon):
        encoding = cls(chain)
        step = encoding.trotter_step(0.3)
        reference = _rebuilt(step, encoding, epsilon)
        bound = insert_depolarizing_noise(step, encoding, epsilon)
        assert len(bound) == len(reference)  # before the list is built
        assert bound.count_ops() == reference.count_ops()
        assert bound.fingerprint() == reference.fingerprint()
        rho = DensityMatrix.basis(step.dims, encoding.initial_state_digits())
        again = insert_depolarizing_noise(step, encoding, epsilon)
        assert np.array_equal(rho.evolve(again).matrix, rho.evolve(reference).matrix)

    @pytest.mark.parametrize("cls", ENCODINGS)
    def test_binding_leaves_the_clean_step_alone(self, chain, cls):
        encoding = cls(chain)
        step = encoding.trotter_step(0.3)
        before = (step.fingerprint(), len(step))
        rho = DensityMatrix.basis(step.dims, encoding.initial_state_digits())
        for epsilon in (0.01, 0.0, 0.4):
            noisy = insert_depolarizing_noise(step, encoding, epsilon)
            rho.evolve(noisy)
            noisy.count_ops()
        assert (step.fingerprint(), len(step)) == before

    def test_one_template_per_clean_step(self, chain):
        encoding = QuditEncoding(chain)
        step = encoding.trotter_step(0.3)
        assert encoding.trotter_step(0.3) is step
        first = insert_depolarizing_noise(step, encoding, 0.01)
        second = insert_depolarizing_noise(step, encoding, 0.02)
        assert isinstance(first, NoisyCircuit)
        assert first.template is second.template
        assert insert_depolarizing_noise(step, encoding, 0.02, 0.5).template is not (
            first.template
        )

    def test_a_mutated_bound_circuit_runs_its_own_instructions(self, chain):
        encoding = QubitEncoding(chain)
        step = encoding.trotter_step(0.3)
        noisy = insert_depolarizing_noise(step, encoding, 0.05)
        reference = _rebuilt(step, encoding, 0.05)
        noisy.x(0)
        reference.x(0)
        rho = DensityMatrix.basis(step.dims, encoding.initial_state_digits())
        assert np.array_equal(rho.evolve(noisy).matrix, rho.evolve(reference).matrix)


class TestBindOrder:
    @pytest.mark.parametrize("cls", ENCODINGS)
    @pytest.mark.parametrize(
        "method, options",
        [
            ("density", dict(t_total=1.0, n_steps=2)),
            # small caps: the order of binds, not accuracy, is under test
            ("lpdo", dict(t_total=0.5, n_steps=1, max_bond=2, max_kraus=2)),
            ("mps", dict(t_total=0.5, n_steps=1, n_trajectories=1, max_bond=4)),
            ("trajectories", dict(t_total=1.0, n_steps=2, n_trajectories=2)),
        ],
        ids=["density", "lpdo", "mps", "trajectories"],
    )
    def test_damage_does_not_depend_on_earlier_binds(
        self, chain, cls, method, options
    ):
        """Pool workers see epsilons in any order."""
        warm = cls(chain)
        trajectory_damage(warm, 0.2, method=method, **options)
        fresh = trajectory_damage(cls(chain), 0.03, method=method, **options)
        assert trajectory_damage(warm, 0.03, method=method, **options) == fresh

    @pytest.mark.parametrize("cls", ENCODINGS)
    def test_density_damage_builds_no_depolarizing_family(self, chain, cls):
        encoding = cls(chain)
        trajectory_damage(encoding, 0.02, t_total=1.0, n_steps=2)
        misses = channels._depolarizing.cache_info().misses
        damage = trajectory_damage(encoding, 0.0123457, t_total=1.0, n_steps=2)
        assert damage > 0
        assert channels._depolarizing.cache_info().misses == misses
