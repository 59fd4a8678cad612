"""Routing of two-qudit gates onto the cavity connectivity graph.

Two pieces:

* :func:`route_circuit` — greedy SWAP insertion: every two-wire gate whose
  mapped modes are not directly connected is preceded by SWAPs that walk
  one operand along a shortest connectivity path.
* :func:`swap_network_layers` — the odd-even transposition network on a
  line, which brings *every* pair adjacent at least once in ``n`` layers.
  This is the "swap network to allow 3D interactions" the paper proposes
  for embedding higher-dimensional lattices on the linear cavity chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.circuit import QuditCircuit
from ..core.exceptions import CompilationError
from ..hardware.device import CavityQPU

__all__ = ["RoutedCircuit", "route_circuit", "swap_network_layers"]


@dataclass(frozen=True)
class RoutedCircuit:
    """Result of routing a mapped circuit.

    Attributes:
        circuit: physical circuit (wire i <-> physical slot i) with SWAPs
            inserted; wire order matches the *initial* layout.
        initial_layout: wire -> mode before the circuit starts.
        final_layout: wire -> mode after all SWAPs have executed.
        n_swaps: number of inserted two-wire SWAP gates.
        n_moves: number of moves into *empty* (unmapped) modes; physically a
            beam-splitter swap with vacuum, recorded as a single-wire
            ``move`` instruction so noise/resource accounting sees it.
    """

    circuit: QuditCircuit
    initial_layout: tuple[int, ...]
    final_layout: tuple[int, ...]
    n_swaps: int
    n_moves: int = 0


def route_circuit(
    circuit: QuditCircuit,
    device: CavityQPU,
    layout: list[int] | tuple[int, ...],
) -> RoutedCircuit:
    """Insert SWAPs so every two-wire gate acts on connected modes.

    The router tracks a dynamic wire->mode map.  For a gate on wires
    (a, b) whose modes are not adjacent in the connectivity graph, the
    operand *a* is walked along a shortest path until the pair is
    connected; each hop is a physical SWAP between same-dimension modes.

    Args:
        circuit: logical circuit.
        device: hardware model.
        layout: initial wire -> mode assignment.

    Returns:
        A :class:`RoutedCircuit`; the output circuit's wires are *logical*
        wires (dimension-preserving), with SWAP instructions annotated with
        the physical modes they exchange.

    Raises:
        CompilationError: if the layout does not map each wire to its own
            device mode, or if a SWAP would exchange modes of unequal
            dimension (no dimension-changing routing is modelled).
    """
    import networkx as nx

    layout = list(layout)
    if len(layout) != circuit.num_qudits:
        raise CompilationError("layout length mismatch")
    if len(set(layout)) != len(layout) or not all(
        0 <= mode < device.n_modes for mode in layout
    ):
        raise CompilationError(
            f"layout {layout} must map wires to distinct modes of {device.name}"
        )
    mode_of = dict(enumerate(layout))  # wire -> mode
    wire_of = {m: w for w, m in mode_of.items()}  # mode -> wire (mapped only)

    routed = QuditCircuit(circuit.dims, name=circuit.name + "+routed")
    n_swaps = 0
    n_moves = 0
    graph = device.connectivity

    def swap_wire_along(wire: int, to_mode: int) -> None:
        """Swap the state on `wire` into `to_mode` (must be a graph edge)."""
        nonlocal n_swaps, n_moves
        from_mode = mode_of[wire]
        if device.modes[from_mode].dim != device.modes[to_mode].dim:
            raise CompilationError(
                f"cannot SWAP modes {from_mode} and {to_mode} of unequal dims"
            )
        other_wire = wire_of.get(to_mode)
        if other_wire is None:
            # Swapping with an empty (vacuum) mode: logically a relabelling,
            # physically still one beam-splitter pulse — record it.
            import numpy as np

            routed.unitary(
                np.eye(circuit.dims[wire], dtype=complex),
                wire,
                name="move",
                from_mode=from_mode,
                to_mode=to_mode,
            )
            n_moves += 1
            del wire_of[from_mode]
            mode_of[wire] = to_mode
            wire_of[to_mode] = wire
            return
        if circuit.dims[wire] != circuit.dims[other_wire]:
            raise CompilationError(
                f"cannot SWAP wires {wire} and {other_wire} of unequal dims"
            )
        routed.swap(wire, other_wire)
        n_swaps += 1
        mode_of[wire], mode_of[other_wire] = to_mode, from_mode
        wire_of[to_mode], wire_of[from_mode] = wire, other_wire

    for instruction in circuit:
        if instruction.kind == "unitary" and instruction.num_qudits == 2:
            wire_a, wire_b = instruction.qudits
            while not device.are_connected(mode_of[wire_a], mode_of[wire_b]):
                path = nx.shortest_path(graph, mode_of[wire_a], mode_of[wire_b])
                swap_wire_along(wire_a, path[1])
            routed.append(instruction)
        else:
            routed.append(instruction)
    final = tuple(mode_of[w] for w in range(circuit.num_qudits))
    return RoutedCircuit(
        circuit=routed,
        initial_layout=tuple(layout),
        final_layout=final,
        n_swaps=n_swaps,
        n_moves=n_moves,
    )


def swap_network_layers(n: int) -> list[list[tuple[int, int]]]:
    """Odd-even transposition SWAP layers bringing all pairs adjacent.

    After the full ``n`` layers the line order is reversed and every pair
    of the ``n`` slots has been adjacent exactly once — the canonical trick
    for all-to-all interactions (and higher-dimensional lattice embeddings)
    on linearly connected hardware.

    Returns:
        ``n`` layers; each layer is a list of disjoint adjacent slot pairs.
    """
    if n < 2:
        raise CompilationError("swap network needs at least 2 slots")
    layers: list[list[tuple[int, int]]] = []
    for layer in range(n):
        start = layer % 2
        layers.append([(i, i + 1) for i in range(start, n - 1, 2)])
    return layers
