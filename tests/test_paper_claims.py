"""The paper's headline claims, asserted at the sizes the paper states."""

from repro.compile.synthesis import synthesize_unitary
from repro.core.gates import qudit_complete_mixer


def test_ec2_snap_displacement_synthesis_up_to_d8():
    """E-C2: >99% SNAP+displacement fidelity for qudit rotations up to d = 8.

    Synthesises the QAOA complete-graph mixer at d = 2..8 (ref [20]).
    """
    infidelities = {
        d: synthesize_unitary(
            qudit_complete_mixer(d, 0.7),
            seed=0,
            max_restarts=3,
            maxiter=350,
            tol_infidelity=1e-4,
        ).infidelity
        for d in (2, 3, 4, 5, 6, 8)
    }
    worst = max(infidelities.values())
    assert worst < 1e-2, infidelities  # the paper's 99% bar
    assert worst <= 1e-3, infidelities  # today's worst case is 7.7e-4 (d = 6)
