"""Beyond 2D: small 3D rotor lattices via swap networks (paper §II.A).

"Going beyond 2D could also be possible for a small number of sites in
the near term by expanding the number of addressable modes per cavity and
use a swap network to allow 3D interactions."

This module builds the dual-rotor Hamiltonian on a small ``Lx x Ly x Lz``
lattice and estimates the swap-network overhead of embedding it on the
linear cavity chain: each cavity hosts one ``(y, z)`` column of modes, so
in-column bonds are co-located, along-chain bonds are adjacent, and the
remaining couplings ride the odd-even transposition network.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..compile.routing import swap_network_layers
from ..core.exceptions import DimensionError
from .rotor import HamiltonianTerm, RotorLattice, RotorSiteOperators

__all__ = ["RotorLattice3D", "SwapNetworkEstimate", "swap_network_overhead"]


class RotorLattice3D(RotorLattice):
    """Dual-rotor model on a small 3D grid (open boundaries).

    Args:
        lx: extent along the cavity chain.
        ly: first transverse extent.
        lz: second transverse extent.
        spin: rotor truncation (site dimension ``2*spin + 1``).
        g2: gauge coupling.
        kappa: hopping strength.
    """

    def __init__(
        self,
        lx: int,
        ly: int,
        lz: int,
        spin: int = 1,
        g2: float = 1.0,
        kappa: float = 0.4,
    ) -> None:
        if min(lx, ly, lz) < 1 or lx * ly * lz < 2:
            raise DimensionError("lattice needs at least 2 sites")
        self.lx, self.ly, self.lz = int(lx), int(ly), int(lz)
        self.ops = RotorSiteOperators(spin)
        self.g2 = float(g2)
        self.kappa = float(kappa)
        self.n_sites = self.lx * self.ly * self.lz

    def site_index(self, x: int, y: int, z: int) -> int:
        """Row-major flat index."""
        if not (0 <= x < self.lx and 0 <= y < self.ly and 0 <= z < self.lz):
            raise DimensionError(f"site ({x},{y},{z}) outside the lattice")
        return (x * self.ly + y) * self.lz + z

    def bonds(self) -> list[tuple[int, int]]:
        """Nearest-neighbour pairs along all three axes."""
        out = []
        for x in range(self.lx):
            for y in range(self.ly):
                for z in range(self.lz):
                    here = self.site_index(x, y, z)
                    if x + 1 < self.lx:
                        out.append((here, self.site_index(x + 1, y, z)))
                    if y + 1 < self.ly:
                        out.append((here, self.site_index(x, y + 1, z)))
                    if z + 1 < self.lz:
                        out.append((here, self.site_index(x, y, z + 1)))
        return out

    def terms(self) -> list[HamiltonianTerm]:
        """Electric + hopping terms (open boundaries, no boundary field)."""
        lz_op = self.ops.lz()
        out = [
            HamiltonianTerm((s,), 0.5 * self.g2 * (lz_op @ lz_op), "electric")
            for s in range(self.n_sites)
        ]
        hop = -self.kappa * self.ops.hop()
        for i, j in self.bonds():
            out.append(HamiltonianTerm((i, j), hop, "hop"))
        return out


@dataclass(frozen=True)
class SwapNetworkEstimate:
    """Swap-network embedding overhead of a 3D lattice on a linear chain.

    Attributes:
        n_columns: cavities used (one (y, z) column per cavity).
        modes_per_cavity_needed: ly * lz.
        direct_bonds: bonds executable without any swapping.
        networked_bonds: bonds served by the swap network.
        swap_layers: odd-even layers needed (= number of columns).
        total_swaps: SWAP gates across the full network.
    """

    n_columns: int
    modes_per_cavity_needed: int
    direct_bonds: int
    networked_bonds: int
    swap_layers: int
    total_swaps: int


def swap_network_overhead(lattice: RotorLattice3D) -> SwapNetworkEstimate:
    """Cost of bringing every 3D bond adjacent on the linear cavity chain.

    Column embedding: cavity ``x`` hosts all ``ly * lz`` sites with that
    ``x``.  In-column bonds (y- and z-axis) are co-located; x-axis bonds
    between consecutive columns are adjacent; there are no longer-range
    bonds on an open lattice, but a *full* odd-even network over columns is
    still reported since interleaved Trotter layers use it to parallelise
    the x-axis sweeps (and it is what enables periodic wrap-around).
    """
    column_size = lattice.ly * lattice.lz
    direct = 0
    networked = 0
    for i, j in lattice.bonds():
        col_i = i // column_size
        col_j = j // column_size
        if abs(col_i - col_j) <= 1:
            direct += 1
        else:  # pragma: no cover - open lattices have none; periodic would
            networked += 1
    layers = swap_network_layers(max(2, lattice.lx))
    total_swaps = sum(len(layer) for layer in layers)
    return SwapNetworkEstimate(
        n_columns=lattice.lx,
        modes_per_cavity_needed=column_size,
        direct_bonds=direct,
        networked_bonds=networked,
        swap_layers=len(layers),
        total_swaps=total_swaps,
    )
