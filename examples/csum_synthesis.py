#!/usr/bin/env python
"""Engineering deep-dive: the CSUM challenge and gate synthesis.

Table I names CSUM synthesis the main challenge for two of the three
applications.  This example walks the compilation stack:

1. the exact Fourier route CSUM = (I x F†) CPHASE (I x F);
2. its cost and fidelity on co-located vs adjacent cavity modes;
3. variational SNAP+displacement synthesis of single-qudit gates;
4. the exact Givens fallback and the two-qudit classification;
5. the roadmap device's capacity claim.

Run:  python examples/csum_synthesis.py
"""

import numpy as np

from repro.compile.synthesis import (
    csum_circuit,
    csum_cost,
    decompose_unitary,
    synthesize_two_qudit,
    synthesize_unitary,
)
from repro.core.gates import csum, fourier, qudit_complete_mixer
from repro.hardware import linear_cavity_array, roadmap_summary


def fourier_route() -> None:
    print("=== CSUM via the Fourier route ===")
    d = 4
    qc = csum_circuit(d)
    err = np.abs(qc.to_unitary() - csum(d)).max()
    print(f"d={d}: ops {qc.count_ops()}, max reconstruction error {err:.2e}")


def device_cost() -> None:
    print("\n=== CSUM cost: co-located vs adjacent qumodes ===")
    device = linear_cavity_array(3, 2, 4)
    for pair, label in [((0, 1), "co-located"), ((1, 2), "adjacent")]:
        cost = csum_cost(device, *pair)
        print(
            f"  {label:<11}: {cost.n_snap} SNAP + {cost.n_disp} disp + "
            f"{cost.n_cphase} cphase, {cost.duration * 1e6:.1f} us, "
            f"fidelity {cost.fidelity:.4f}"
        )


def snap_displacement() -> None:
    print("\n=== SNAP+displacement synthesis of QAOA mixers ===")
    for d in (2, 3, 4):
        result = synthesize_unitary(
            qudit_complete_mixer(d, 0.7), seed=0, max_restarts=3, maxiter=300
        )
        print(
            f"  d={d}: infidelity {result.infidelity:.2e} with "
            f"{result.sequence.n_layers} SNAP layers"
        )
    print("(d up to 8, >99% fidelity: tests/test_paper_claims.py)")


def constructive_routes() -> None:
    print("\n=== constructive synthesis (never fails) ===")
    dec = decompose_unitary(fourier(5))
    print(f"  Fourier(5) -> {dec.n_rotations} Givens rotations + 1 SNAP layer")
    syn = synthesize_two_qudit(csum(3), 3, 3)
    print(
        f"  CSUM(3) two-qudit classification: {syn.n_rotations} rotations, "
        f"{syn.n_cross} cross, entangling cost {syn.entangling_cost()}"
    )


def roadmap() -> None:
    print("\n=== forecast device capacity (claim C7) ===")
    summary = roadmap_summary()
    print(
        f"  {summary.n_cavities} cavities x "
        f"{summary.n_modes // summary.n_cavities} modes, d={summary.dim_per_mode}: "
        f"dim = 10^{summary.hilbert_dimension_log10:.0f} "
        f"= {summary.qubit_equivalent:.1f} qubit equivalents "
        f"(exceeds 100: {summary.exceeds_100_qubits})"
    )


if __name__ == "__main__":
    fourier_route()
    device_cost()
    snap_displacement()
    constructive_routes()
    roadmap()
