"""The paper's headline claims, asserted at the sizes the paper states."""

import numpy as np

from repro.compile import noise_aware_map, trivial_map
from repro.compile.resources import estimate_resources
from repro.compile.synthesis import csum_circuit, csum_cost, synthesize_unitary
from repro.core import QuditCircuit
from repro.core.gates import csum as csum_matrix
from repro.core.gates import qudit_complete_mixer
from repro.hardware import (
    DeviceNoiseModel,
    forecast_device,
    linear_cavity_array,
    roadmap_summary,
)
from repro.reservoir import ReservoirTomograph
from repro.sqed import (
    RotorLadder2D,
    RotorLattice3D,
    swap_network_overhead,
    trotter_circuit,
)
from repro.sqed.rotor2d import ladder_mode_layout


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


def test_table1_row1_sqed_campaign_estimate():
    """Table I row 1: the 9x2, d = 5 sQED campaign, estimated not simulated.

    One second-order Trotter step on the forecast device with the ladder
    layout (vertical bonds co-located, horizontal bonds adjacent).  The
    time budget fits T1, but the gate-fidelity budget fails by orders of
    magnitude at today's SNAP/CSUM costs, while a single co-located CSUM
    is near-term feasible.
    """
    lattice = RotorLadder2D(lx=9, ly=2, spin=2, g2=1.0, kappa=0.4)
    device = forecast_device()
    layout = ladder_mode_layout(lattice, modes_per_cavity=4)
    step = trotter_circuit(lattice, t_total=0.2, n_steps=1, order=2)
    resources = estimate_resources(step, device, layout)
    noise = DeviceNoiseModel(device)
    coloc = csum_cost(device, layout[0], layout[1], noise)  # vertical bond
    adj = csum_cost(device, layout[0], layout[2], noise)  # horizontal bond
    assert resources.coherence_fraction < 1.0
    assert resources.fidelity < 0.1
    assert adj.fidelity < coloc.fidelity
    assert coloc.fidelity > 0.8


def test_e3d_2x2x2_fits_forecast_cavities_with_a_gap():
    """E-3D: a 2x2x2 qutrit lattice fits 4-mode cavities via a swap network.

    The gap (D = 6561) is pinned against one dense ``eigvalsh`` of the
    full Hamiltonian, 0.1230500428400072.
    """
    lattice = RotorLattice3D(2, 2, 2, spin=1)
    assert swap_network_overhead(lattice).modes_per_cavity_needed <= 4
    gap = lattice.mass_gap()
    assert gap > 0
    assert abs(gap - 0.1230500428400072) < 1e-10


def test_ecsum_csum_cost_and_exactness_vs_dimension():
    """E-CSUM: the Fourier-route CSUM at d = 2..10 (Table I challenge).

    An adjacent mode pair always loses fidelity to a co-located one, and
    the compiled circuit reproduces the CSUM matrix exactly up to d = 8.
    """
    for d in (2, 3, 4, 6, 8, 10):
        device = linear_cavity_array(3, 2, d)
        coloc = csum_cost(device, 0, 1)
        adj = csum_cost(device, 1, 2)
        assert adj.fidelity < coloc.fidelity, d
        if d <= 8:
            error = np.abs(csum_circuit(d).to_unitary() - csum_matrix(d)).max()
            assert error < 1e-9, (d, error)


def test_ec7_forecast_device_exceeds_100_qubits():
    """E-C7: ~10 cavities x 4 modes x d ~ 10 photons exceed 100 qubits."""
    summary = roadmap_summary(forecast_device())
    assert summary.exceeds_100_qubits
    assert 130 < summary.qubit_equivalent < 135


def test_etomo_reservoir_tomography_converges_with_training_size():
    """E-TOMO: 120 training states reconstruct a d = 4 cavity state (ref [28]).

    Mean fidelity over 12 test states, exact readout > 0.99 and 500
    shots per probe > 0.95, after the 8..120 training-size sweep.
    """
    rows = []
    for n_train in (8, 15, 30, 60, 120):
        exact = ReservoirTomograph(dim=4, seed=0).train(n_training_states=n_train)
        shot = ReservoirTomograph(dim=4, seed=0).train(
            n_training_states=n_train, shots=500
        )
        rows.append(
            (
                exact.evaluate(n_test_states=12),
                shot.evaluate(n_test_states=12, shots=500),
            )
        )
    exact_f, shot_f = rows[-1]
    assert exact_f > 0.99, rows
    assert shot_f > 0.95, rows


def _chain_workload(n, d=3, reps=2):
    qc = QuditCircuit([d] * n, name="chain")
    for _ in range(reps):
        for w in range(n):
            qc.fourier(w)
        for w in range(n - 1):
            qc.csum(w, w + 1)
    return qc


def _star_workload(n, d=3, reps=2):
    qc = QuditCircuit([d] * n, name="star")
    for _ in range(reps):
        for w in range(1, n):
            qc.csum(0, w)
    return qc


def test_emap_noise_aware_mapping_never_loses_to_trivial():
    """E-MAP: noise-aware vs in-order layout on spread-coherence devices.

    Mean fidelity gain over 4 devices (coherence spread 0.6) is >= 1 for
    the chain-5, star-5 and chain-8 workloads.
    """
    for workload in (_chain_workload(5), _star_workload(5), _chain_workload(8)):
        gains = []
        for seed in range(4):
            device = linear_cavity_array(4, 2, 3, coherence_spread=0.6, seed=seed)
            smart = noise_aware_map(workload, device, seed=seed)
            naive = trivial_map(workload, device)
            gains.append(smart.fidelity / max(naive.fidelity, 1e-12))
        assert np.mean(gains) >= 1.0 - 1e-9, (workload.name, gains)
