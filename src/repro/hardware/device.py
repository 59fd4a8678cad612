"""Parametric model of a multi-cavity bosonic qudit processor.

The architecture follows the paper's description: a linear array of 3D
SRF cavities, each hosting several long-lived electromagnetic modes
(*qumodes*) coupled to a single transmon ancilla per cavity.  Two qumodes
interact either

* *co-located* — same cavity, mediated by the shared transmon (fast,
  first-class), or
* *adjacent* — neighbouring cavities, mediated by inter-cavity coupling
  (slower, lower fidelity), matching Table I's distinction between CSUM
  "between co-located and adjacent qumodes".

Distant modes require routing (SWAP chains) — the compiler's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.exceptions import DeviceError
from .parameters import (
    CAVITY_DEFAULTS,
    TRANSMON_DEFAULTS,
    CoherenceParams,
    GateTimings,
)

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Mode", "Cavity", "CavityQPU", "linear_cavity_array"]


@dataclass(frozen=True)
class Mode:
    """One cavity electromagnetic mode usable as a qudit.

    Attributes:
        cavity: index of the host cavity.
        index_in_cavity: mode number within the cavity.
        dim: usable Fock levels (the qudit dimension d).
        coherence: this mode's T1/T2.
    """

    cavity: int
    index_in_cavity: int
    dim: int
    coherence: CoherenceParams

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise DeviceError(f"mode dimension {self.dim} must be >= 2")


@dataclass(frozen=True)
class Cavity:
    """A 3D cavity: several modes plus one transmon ancilla."""

    index: int
    n_modes: int
    transmon: CoherenceParams

    def __post_init__(self) -> None:
        if self.n_modes < 1:
            raise DeviceError("cavity needs at least one mode")


class CavityQPU:
    """A linear array of multimode cavities with transmon couplers.

    Modes are globally numbered ``0 .. n_modes-1`` in cavity order.  The
    connectivity graph has an edge between every co-located pair (weight
    tagged ``'colocated'``) and between every pair of modes in adjacent
    cavities (tagged ``'adjacent'``).

    Args:
        cavities: cavity descriptors, in chain order.
        modes: all modes, grouped by cavity (validated).
        timings: native gate durations.
        name: device label.
    """

    def __init__(
        self,
        cavities: list[Cavity],
        modes: list[Mode],
        timings: GateTimings | None = None,
        name: str = "cavity-qpu",
    ) -> None:
        if not cavities:
            raise DeviceError("device needs at least one cavity")
        self.cavities = list(cavities)
        self.modes = list(modes)
        self.timings = timings or GateTimings()
        self.name = name
        self._validate()
        self._graph = self._build_graph()

    def _validate(self) -> None:
        counts = [0] * len(self.cavities)
        for mode in self.modes:
            if not 0 <= mode.cavity < len(self.cavities):
                raise DeviceError(f"mode references unknown cavity {mode.cavity}")
            counts[mode.cavity] += 1
        for cavity, count in zip(self.cavities, counts):
            if count != cavity.n_modes:
                raise DeviceError(
                    f"cavity {cavity.index} declares {cavity.n_modes} modes "
                    f"but {count} were provided"
                )

    def _build_graph(self) -> nx.Graph:
        import networkx as nx

        graph = nx.Graph()
        for idx, mode in enumerate(self.modes):
            graph.add_node(idx, mode=mode)
        for i, mode_i in enumerate(self.modes):
            for j in range(i + 1, len(self.modes)):
                mode_j = self.modes[j]
                if mode_i.cavity == mode_j.cavity:
                    graph.add_edge(i, j, kind="colocated")
                elif abs(mode_i.cavity - mode_j.cavity) == 1:
                    graph.add_edge(i, j, kind="adjacent")
        return graph

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def n_modes(self) -> int:
        """Total number of qumodes on the device."""
        return len(self.modes)

    @property
    def n_cavities(self) -> int:
        """Number of cavities in the chain."""
        return len(self.cavities)

    @property
    def connectivity(self) -> nx.Graph:
        """Mode-level connectivity graph (co-located + adjacent edges)."""
        return self._graph

    def mode_dims(self) -> tuple[int, ...]:
        """Per-mode qudit dimensions in global mode order."""
        return tuple(mode.dim for mode in self.modes)

    def modes_in_cavity(self, cavity: int) -> list[int]:
        """Global indices of the modes hosted by one cavity."""
        if not 0 <= cavity < self.n_cavities:
            raise DeviceError(f"cavity {cavity} out of range")
        return [i for i, mode in enumerate(self.modes) if mode.cavity == cavity]

    def are_connected(self, mode_a: int, mode_b: int) -> bool:
        """True if the two modes can interact without routing."""
        return self._graph.has_edge(mode_a, mode_b)

    def edge_kind(self, mode_a: int, mode_b: int) -> str:
        """``'colocated'`` or ``'adjacent'`` for a connected pair.

        Raises:
            DeviceError: if the modes are not directly connected.
        """
        if not self.are_connected(mode_a, mode_b):
            raise DeviceError(f"modes {mode_a} and {mode_b} are not connected")
        return self._graph.edges[mode_a, mode_b]["kind"]

    def distance(self, mode_a: int, mode_b: int) -> int:
        """Connectivity-graph hop distance between two modes.

        Raises:
            DeviceError: if either mode is not on the device.
        """
        import networkx as nx

        for mode in (mode_a, mode_b):
            if not 0 <= mode < self.n_modes:
                raise DeviceError(f"mode {mode} out of range")
        return nx.shortest_path_length(self._graph, mode_a, mode_b)

    def two_mode_duration(self, mode_a: int, mode_b: int, base: float) -> float:
        """Duration of a connected two-mode gate.

        Adjacent-cavity operations run through the weaker inter-cavity
        coupling and are modelled as 2x slower than co-located ones.
        """
        kind = self.edge_kind(mode_a, mode_b)
        return base if kind == "colocated" else 2.0 * base

    def hilbert_dimension(self) -> int:
        """Total Hilbert-space dimension ``prod(d_i)``."""
        out = 1
        for mode in self.modes:
            out *= mode.dim
        return out

    def qubit_equivalent(self) -> float:
        """``log2`` of the Hilbert dimension — the paper's ">100 qubits" metric."""
        import math

        return sum(math.log2(mode.dim) for mode in self.modes)

    def __repr__(self) -> str:
        return (
            f"CavityQPU(name={self.name!r}, cavities={self.n_cavities}, "
            f"modes={self.n_modes}, dims={self.mode_dims()})"
        )


def linear_cavity_array(
    n_cavities: int,
    modes_per_cavity: int,
    dim: int,
    cavity_coherence: CoherenceParams | None = None,
    transmon_coherence: CoherenceParams | None = None,
    timings: GateTimings | None = None,
    coherence_spread: float = 0.0,
    seed: int | None = None,
    name: str | None = None,
) -> CavityQPU:
    """Build a homogeneous linear multi-cavity device.

    Args:
        n_cavities: number of cavities in the chain.
        modes_per_cavity: qumodes per cavity.
        dim: qudit dimension of every mode.
        cavity_coherence: per-mode T1/T2 (defaults to the forecast ms-class).
        transmon_coherence: ancilla T1/T2.
        timings: native gate durations.
        coherence_spread: relative log-normal spread of per-mode T1/T2,
            modelling fabrication variation; 0 gives identical modes.  A
            non-zero spread is what gives the noise-aware mapper something
            to exploit.
        seed: RNG seed for the spread.
        name: device label.

    Returns:
        A :class:`CavityQPU`.
    """
    import numpy as np

    if n_cavities < 1 or modes_per_cavity < 1:
        raise DeviceError("need at least one cavity and one mode per cavity")
    cavity_coherence = cavity_coherence or CAVITY_DEFAULTS
    transmon_coherence = transmon_coherence or TRANSMON_DEFAULTS
    rng = np.random.default_rng(seed)
    cavities = [
        Cavity(index=c, n_modes=modes_per_cavity, transmon=transmon_coherence)
        for c in range(n_cavities)
    ]
    modes = []
    for c in range(n_cavities):
        for m in range(modes_per_cavity):
            if coherence_spread > 0:
                factor = float(np.exp(rng.normal(0.0, coherence_spread)))
                coherence = cavity_coherence.scaled(factor)
            else:
                coherence = cavity_coherence
            modes.append(
                Mode(cavity=c, index_in_cavity=m, dim=dim, coherence=coherence)
            )
    label = name or f"linear-{n_cavities}x{modes_per_cavity}-d{dim}"
    return CavityQPU(cavities, modes, timings=timings, name=label)
