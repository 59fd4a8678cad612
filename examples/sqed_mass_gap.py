#!/usr/bin/env python
"""sQED application: mass-gap extraction and the qudit-vs-qubit noise edge.

Reproduces the paper's §II.A story on a laptop-sized rotor chain:

1. extract the U(1) rotor mass gap from real-time Trotter dynamics and
   compare it with exact diagonalisation;
2. show how noise destroys the extraction;
3. measure the per-gate error each encoding tolerates (claim C1's
   mechanism) at reduced size.

Run:  python examples/sqed_mass_gap.py
"""

from repro.sqed import (
    QubitEncoding,
    QuditEncoding,
    RotorChain,
    estimate_mass_gap,
    trajectory_damage,
)


def mass_gap_demo() -> None:
    print("=== mass gap from real-time dynamics ===")
    chain = RotorChain(n_sites=3, spin=1, g2=1.0, hopping=0.3)
    print(f"model: {chain}")
    print(f"exact gap (ED): {chain.mass_gap():.4f}")
    for epsilon in (0.0, 0.002, 0.01):
        result = estimate_mass_gap(chain, epsilon=epsilon)
        print(
            f"  eps={epsilon:<6}: estimated gap {result.gap_estimated:.4f} "
            f"(rel. err {result.relative_error:.1%})"
        )


def encoding_fragility_demo() -> None:
    print("\n=== encoding fragility (claim C1 mechanism) ===")
    chain = RotorChain(n_sites=2, spin=1, g2=1.0, hopping=0.3)
    qudit = QuditEncoding(chain)
    qubit = QubitEncoding(chain)
    print(f"qudit entangling-equivalents / Trotter step: {qudit.entangling_per_step()}")
    print(f"qubit CNOTs / Trotter step                 : {qubit.cnots_per_step()}")
    for eps in (0.005, 0.02):
        dq = trajectory_damage(qudit, eps, t_total=2.0, n_steps=5)
        db = trajectory_damage(qubit, eps, t_total=2.0, n_steps=5)
        print(f"  eps={eps}: qudit damage {dq:.4f} | qubit damage {db:.4f}")
    print("(full 10-100x threshold-ratio sweep: tests/test_paper_claims.py, E-C1)")


if __name__ == "__main__":
    mass_gap_demo()
    encoding_fragility_demo()
