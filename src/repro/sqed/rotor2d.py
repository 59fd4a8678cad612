"""2+1D pure-gauge U(1) rotor Hamiltonian on a ladder lattice.

The paper's "Identified Opportunity" for simulation (§II.A): generalise
the 1D rotor chain to a 2D lattice by "embedding this problem onto a 1D
ladder of resonators each supporting two or possibly more bosonic modes",
using the dual-variable rotor Hamiltonian of Unmuth-Yockey (ref [12]).

In the dual formulation the plaquette variables of 2+1D U(1) gauge theory
become integer-valued rotors on the dual sites, with the same
diagonal-plus-ladder structure as the 1D chain::

    H = (g2/2) sum_p Lz_p^2  -  (1/(2 g2 a^2)) sum_<pq> (U_p U_q† + h.c.)
        -  (1/(2 g2 a^2)) sum_boundary (U_p + U_p†)

on the dual lattice of an ``Lx x Ly`` ladder.  Table I row 1 targets
``Ns = 9 x 2`` with ``d = 4+``: nine rungs of two plaquettes each.

Scale note: 18 sites at d=4 is a 6.9e10-dimensional Hilbert space — the
paper itself only *estimates* this campaign, which the transpiler's
resource estimate does; small instances (2x2, 3x2) have exact gaps from
the shared sparse Lanczos solver of :class:`~repro.sqed.rotor.RotorLattice`.
"""

from __future__ import annotations

from ..core.exceptions import DimensionError
from .rotor import HamiltonianTerm, RotorLattice, RotorSiteOperators

__all__ = ["RotorLadder2D", "ladder_mode_layout"]


class RotorLadder2D(RotorLattice):
    """Dual-rotor Hamiltonian of 2+1D U(1) gauge theory on an Lx x Ly grid.

    Sites are dual-lattice plaquettes indexed ``(x, y)`` with
    ``0 <= x < lx``, ``0 <= y < ly``, flattened row-major.

    Args:
        lx: plaquettes along the ladder (9 for the Table I campaign).
        ly: plaquettes across (2 for the ladder).
        spin: rotor truncation; site dimension is ``2*spin + 1``.
        g2: gauge coupling.
        kappa: hopping strength ``1 / (2 g2 a^2)`` (kept independent so the
            continuum-limit sweep can vary it directly).
        boundary_field: include the single-site ``U + U†`` boundary terms.
    """

    def __init__(
        self,
        lx: int,
        ly: int,
        spin: int = 1,
        g2: float = 1.0,
        kappa: float = 0.4,
        boundary_field: bool = True,
    ) -> None:
        if lx < 1 or ly < 1 or lx * ly < 2:
            raise DimensionError("lattice needs at least 2 plaquettes")
        self.lx = int(lx)
        self.ly = int(ly)
        self.ops = RotorSiteOperators(spin)
        self.g2 = float(g2)
        self.kappa = float(kappa)
        self.boundary_field = bool(boundary_field)
        self.n_sites = self.lx * self.ly

    def site_index(self, x: int, y: int) -> int:
        """Row-major flat index of plaquette (x, y)."""
        if not (0 <= x < self.lx and 0 <= y < self.ly):
            raise DimensionError(f"site ({x}, {y}) outside {self.lx}x{self.ly}")
        return x * self.ly + y

    def bonds(self) -> list[tuple[int, int]]:
        """Nearest-neighbour dual-site pairs (open boundaries)."""
        out = []
        for x in range(self.lx):
            for y in range(self.ly):
                if x + 1 < self.lx:
                    out.append((self.site_index(x, y), self.site_index(x + 1, y)))
                if y + 1 < self.ly:
                    out.append((self.site_index(x, y), self.site_index(x, y + 1)))
        return out

    def boundary_sites(self) -> list[int]:
        """Dual sites adjacent to the lattice boundary (all edge plaquettes)."""
        out = []
        for x in range(self.lx):
            for y in range(self.ly):
                if x in (0, self.lx - 1) or y in (0, self.ly - 1):
                    out.append(self.site_index(x, y))
        return out

    def terms(self) -> list[HamiltonianTerm]:
        """Local terms: electric, plaquette hopping, boundary field."""
        lz = self.ops.lz()
        out = [
            HamiltonianTerm((site,), 0.5 * self.g2 * (lz @ lz), "electric")
            for site in range(self.n_sites)
        ]
        hop = -self.kappa * self.ops.hop()
        for i, j in self.bonds():
            out.append(HamiltonianTerm((i, j), hop, "hop"))
        if self.boundary_field:
            boundary = -self.kappa * (self.ops.raising() + self.ops.lowering())
            for site in self.boundary_sites():
                out.append(HamiltonianTerm((site,), boundary, "boundary"))
        return out


def ladder_mode_layout(lattice: RotorLadder2D, modes_per_cavity: int = 2) -> list[int]:
    """Natural embedding of the ladder onto a linear multi-mode cavity chain.

    Rung ``x`` of the ladder (its ``ly`` plaquettes) maps to cavity ``x``'s
    co-located modes, so *vertical* bonds are co-located CSUMs and
    *horizontal* bonds are adjacent-cavity CSUMs — the two cases Table I
    distinguishes.

    Args:
        lattice: the 2D rotor problem.
        modes_per_cavity: modes available in each cavity (must be >= ly).

    Returns:
        ``layout[site] = physical mode index`` for a device built with the
        same ``modes_per_cavity``.

    Raises:
        DimensionError: if the cavity cannot host a full rung.
    """
    if modes_per_cavity < lattice.ly:
        raise DimensionError(
            f"need >= {lattice.ly} modes per cavity, got {modes_per_cavity}"
        )
    layout = []
    for x in range(lattice.lx):
        for y in range(lattice.ly):
            layout.append(x * modes_per_cavity + y)
    return layout
