"""Qudit circuit intermediate representation.

:class:`QuditCircuit` is the central IR of the toolkit: an ordered list of
:class:`Instruction` objects acting on a register of mixed-dimension qudits.
Unlike mainstream qubit toolkits, every wire carries its own dimension, so a
circuit can mix, say, a ``d=10`` cavity mode with a ``d=3`` qutrit — the
situation the paper identifies as unsupported by existing stacks.

Instructions fall into three kinds:

* ``unitary`` — carries a dense matrix over its target wires;
* ``channel`` — carries a list of Kraus operators (noise insertion), plus
  the probability of a :func:`~repro.core.channels.depolarizing` family;
* ``measure`` / ``reset`` — non-unitary bookkeeping used by simulators.

:meth:`QuditCircuit.plan` compiles the instruction list into the
:class:`PlanStep` sequence that the dense engines (statevector, density
matrix, trajectories) all run.  :meth:`QuditCircuit.noise_template` puts
uniform depolarising noise on a circuit once, as a
:class:`DepolarizingTemplate`; its :meth:`~DepolarizingTemplate.bind`
gives the :class:`NoisyCircuit` at one per-gate strength.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from . import gates
from .channels import QuditChannel, depolarizing
from .dims import total_dim, validate_dims
from .exceptions import CircuitError, DimensionError
from .structure import DIAGONAL, GateStructure, broadcast_over_targets, intern_structure

__all__ = [
    "DepolarizingTemplate",
    "Instruction",
    "NoisyCircuit",
    "PlanStep",
    "QuditCircuit",
]

#: Instruction kinds understood by the simulators.
_KINDS = ("unitary", "channel", "measure", "reset")


@dataclass(frozen=True)
class Instruction:
    """One operation on a subset of circuit wires.

    Attributes:
        name: human-readable gate/channel name (used by resource counting).
        kind: one of ``unitary``, ``channel``, ``measure``, ``reset``.
        qudits: target wire indices, in matrix tensor order (big-endian).
        matrix: dense unitary for ``kind == 'unitary'`` else ``None``.
        kraus: Kraus operator list for ``kind == 'channel'`` else ``None``.
        params: free-form parameter record (angles, amplitudes, ...).
        depolarizing_p: probability of a channel whose ``kraus`` is the
            :func:`~repro.core.channels.depolarizing` family, else ``None``.
            Set by :meth:`QuditCircuit.channel` from the channel object;
            checked against ``kraus`` on construction.
    """

    name: str
    kind: str
    qudits: tuple[int, ...]
    matrix: np.ndarray | None = None
    kraus: tuple[np.ndarray, ...] | None = None
    params: dict = field(default_factory=dict)
    depolarizing_p: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise CircuitError(f"unknown instruction kind {self.kind!r}")
        if self.kind == "unitary" and self.matrix is None:
            raise CircuitError(f"unitary instruction {self.name!r} needs a matrix")
        if self.kind == "channel" and not self.kraus:
            raise CircuitError(f"channel instruction {self.name!r} needs Kraus ops")
        if len(set(self.qudits)) != len(self.qudits):
            raise CircuitError(f"duplicate target wires in {self.qudits}")
        if self.depolarizing_p is not None:
            self._check_depolarizing()

    def _check_depolarizing(self) -> None:
        """Require ``kraus`` to be the family that ``depolarizing_p`` names."""
        if self.kind != "channel":
            raise CircuitError(
                f"{self.kind} instruction {self.name!r} cannot be depolarising"
            )
        ops = self.kraus
        family = depolarizing(ops[0].shape[0], self.depolarizing_p).kraus
        if ops is not family and not (
            len(ops) == len(family)
            and all(np.array_equal(a, b) for a, b in zip(ops, family))
        ):
            raise CircuitError(
                f"channel {self.name!r} is not the depolarising family of "
                f"p={self.depolarizing_p}"
            )

    @property
    def num_qudits(self) -> int:
        """Number of wires this instruction touches."""
        return len(self.qudits)

    def structure(self) -> GateStructure | None:
        """Fast-path structure of a unitary's matrix, from the shared table.

        Looked up in :func:`~repro.core.structure.intern_structure` on
        first use and remembered on the instance, so every instruction with
        an equal matrix — across Trotter steps and circuits — shares one
        classification and its application plans.  ``None`` for
        non-unitary instructions.
        """
        if self.kind != "unitary":
            return None
        cached = self.__dict__.get("_structure")
        if cached is None:
            cached = intern_structure(self.matrix)
            object.__setattr__(self, "_structure", cached)
        return cached

    def kraus_structures(self) -> tuple[GateStructure, ...] | None:
        """Shared-table structures of a channel's Kraus operators.

        ``None`` for non-channel instructions.
        """
        if self.kind != "channel":
            return None
        cached = self.__dict__.get("_kraus_structures")
        if cached is None:
            cached = tuple(intern_structure(op) for op in self.kraus)
            object.__setattr__(self, "_kraus_structures", cached)
        return cached

    def is_entangling(self) -> bool:
        """True for unitaries touching two or more wires."""
        return self.kind == "unitary" and self.num_qudits >= 2

    def feed_fingerprint(self, hasher) -> None:
        """Feed this instruction's *content* into a hash object.

        Covers everything that affects simulation semantics — name, kind,
        wires, and the exact bytes (with dtype and shape) of the matrix /
        Kraus family — so two instructions hash alike iff they act
        identically.  ``params`` are deliberately excluded: they are
        free-form metadata already reflected in the matrices.  A
        depolarising probability is hashed only when set (the density
        engine applies that channel in closed form), so every other
        instruction hashes as it did before the field existed.
        """
        hasher.update(
            f"{self.name}|{self.kind}|{self.qudits}".encode()
        )
        if self.depolarizing_p is not None:
            hasher.update(f"|depolarizing={self.depolarizing_p!r}".encode())
        arrays = []
        if self.matrix is not None:
            arrays.append(self.matrix)
        if self.kraus is not None:
            arrays.extend(self.kraus)
        for arr in arrays:
            arr = np.ascontiguousarray(arr)
            hasher.update(f"{arr.dtype.str}|{arr.shape}".encode())
            hasher.update(arr.tobytes())

    def dagger(self) -> "Instruction":
        """Adjoint instruction (unitaries only)."""
        if self.kind != "unitary":
            raise CircuitError(f"cannot invert non-unitary {self.name!r}")
        return Instruction(
            name=self.name + "_dg",
            kind="unitary",
            qudits=self.qudits,
            matrix=self.matrix.conj().T,
            params=dict(self.params),
        )


@dataclass(eq=False)
class PlanStep:
    """One step of a compiled circuit plan (:meth:`QuditCircuit.plan`).

    Attributes:
        kind: ``"unitary"``, ``"diagonal"``, ``"channel"`` or ``"reset"``.
        instruction: the instruction the step runs (for ``"unitary"``
            possibly a fused run); ``None`` for ``"diagonal"``.
        diagonal: for ``"diagonal"`` — the full-register diagonal, shape
            ``dims``, of a run of two or more diagonal unitaries.
        cache: data an engine derives from the step (the trajectory
            engine's Born-weight rows); it lives exactly as long as the
            plan.
    """

    kind: str
    instruction: Instruction | None = None
    diagonal: np.ndarray | None = None
    cache: dict = field(default_factory=dict, repr=False)


def _wire_run(instruction: Instruction) -> object:
    """Grouping key: a single-wire unitary's wire, else a key of its own."""
    if instruction.kind == "unitary" and instruction.num_qudits == 1:
        return instruction.qudits
    return object()


def _fused(run: list[Instruction]) -> Instruction:
    """One instruction for a same-wire run: the product, last gate leftmost."""
    if len(run) == 1:
        return run[0]
    matrix = run[0].matrix
    for instruction in run[1:]:
        matrix = instruction.matrix @ matrix
    return Instruction(
        name=f"fused[{len(run)}]",
        kind="unitary",
        qudits=run[0].qudits,
        matrix=matrix,
        params={"fused": tuple(ins.name for ins in run)},
    )


def _is_diagonal(instruction: Instruction) -> bool:
    return instruction.kind == "unitary" and instruction.structure().kind == DIAGONAL


class QuditCircuit:
    """An ordered sequence of instructions over a mixed-dimension register.

    Example:
        >>> qc = QuditCircuit([3, 3])
        >>> qc.fourier(0)
        >>> qc.csum(0, 1)
        >>> qc.num_entangling()
        1
    """

    def __init__(self, dims: Sequence[int], name: str = "circuit") -> None:
        self.dims = validate_dims(dims)
        self.name = name
        self._instructions: list[Instruction] = []
        #: Mutation counter bumped by every instruction-list mutator.  The
        #: caches keyed on it (the compiled plan, the fingerprint) can
        #: never serve a stale entry after a length-preserving replacement.
        self._version = 0
        self._plan: tuple[int, tuple[PlanStep, ...]] | None = None

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    @property
    def num_qudits(self) -> int:
        """Number of wires."""
        return len(self.dims)

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension of the register."""
        return total_dim(self.dims)

    @property
    def instructions(self) -> tuple[Instruction, ...]:
        """Immutable view of the instruction list."""
        return tuple(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __repr__(self) -> str:
        return (
            f"QuditCircuit(name={self.name!r}, dims={self.dims}, "
            f"n_instructions={len(self)})"
        )

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def _check_wires(self, qudits: Sequence[int]) -> tuple[int, ...]:
        wires = tuple(int(q) for q in qudits)
        for q in wires:
            if not 0 <= q < self.num_qudits:
                raise CircuitError(
                    f"wire {q} out of range for {self.num_qudits}-qudit circuit"
                )
        return wires

    def _target_dim(self, wires: tuple[int, ...]) -> int:
        out = 1
        for q in wires:
            out *= self.dims[q]
        return out

    def _validate_instruction(self, instruction: Instruction) -> None:
        wires = self._check_wires(instruction.qudits)
        expected = self._target_dim(wires)
        if instruction.kind == "unitary":
            ops: tuple[np.ndarray, ...] = (instruction.matrix,)
        elif instruction.kind == "channel":
            ops = instruction.kraus
        else:
            ops = ()
        for op in ops:
            if op.shape != (expected, expected):
                raise CircuitError(
                    f"{instruction.name!r} has an operator of shape {op.shape} "
                    f"but wires {wires} span dimension {expected}"
                )

    def append(self, instruction: Instruction) -> None:
        """Append a pre-built instruction, validating wire dimensions."""
        self._validate_instruction(instruction)
        self._instructions.append(instruction)
        self._version += 1

    def replace_instruction(self, index: int, instruction: Instruction) -> None:
        """Replace the instruction at ``index`` in place (validated).

        The length-preserving mutator: simulators cache per-circuit
        execution plans keyed on the mutation counter, so a replacement
        invalidates them just like an append does.
        """
        self._instructions[index]  # raise IndexError before validating
        self._validate_instruction(instruction)
        self._instructions[index] = instruction
        self._version += 1

    def unitary(
        self,
        matrix: np.ndarray,
        qudits: int | Sequence[int],
        name: str = "unitary",
        **params,
    ) -> None:
        """Append a dense unitary on the given wire(s)."""
        if isinstance(qudits, (int, np.integer)):
            qudits = (int(qudits),)
        matrix = np.asarray(matrix, dtype=complex)
        self.append(
            Instruction(
                name=name,
                kind="unitary",
                qudits=tuple(qudits),
                matrix=matrix,
                params=params,
            )
        )

    def channel(
        self,
        kraus: Sequence[np.ndarray] | QuditChannel,
        qudits: int | Sequence[int],
        name: str = "channel",
        **params,
    ) -> None:
        """Append a Kraus channel on the given wire(s).

        ``kraus`` is a sequence of Kraus operators or a
        :class:`~repro.core.channels.QuditChannel`.  A channel from
        :func:`~repro.core.channels.depolarizing` carries its probability
        onto the instruction, and the density engine then applies it in
        closed form; its bare ``.kraus`` tuple is an ordinary channel.
        """
        if isinstance(qudits, (int, np.integer)):
            qudits = (int(qudits),)
        if isinstance(kraus, QuditChannel):
            ops, depolarizing_p = kraus.kraus, kraus.depolarizing_p
        else:
            ops = tuple(np.asarray(k, dtype=complex) for k in kraus)
            depolarizing_p = None
        self.append(
            Instruction(
                name=name,
                kind="channel",
                qudits=tuple(qudits),
                kraus=ops,
                params=params,
                depolarizing_p=depolarizing_p,
            )
        )

    def measure(self, qudits: int | Sequence[int] | None = None) -> None:
        """Append a computational-basis measurement marker."""
        if qudits is None:
            qudits = range(self.num_qudits)
        if isinstance(qudits, (int, np.integer)):
            qudits = (int(qudits),)
        self.append(
            Instruction(name="measure", kind="measure", qudits=tuple(qudits))
        )

    def reset(self, qudit: int) -> None:
        """Append a reset-to-|0> marker on one wire."""
        self.append(Instruction(name="reset", kind="reset", qudits=(int(qudit),)))

    # ------------------------------------------------------------------
    # gate-library conveniences
    # ------------------------------------------------------------------
    def x(self, qudit: int, power: int = 1) -> None:
        """Weyl shift ``X^power`` on one wire."""
        d = self.dims[self._check_wires([qudit])[0]]
        self.unitary(gates.weyl_x(d, power), qudit, name="x", power=power)

    def z(self, qudit: int, power: int = 1) -> None:
        """Weyl clock ``Z^power`` on one wire."""
        d = self.dims[self._check_wires([qudit])[0]]
        self.unitary(gates.weyl_z(d, power), qudit, name="z", power=power)

    def fourier(self, qudit: int) -> None:
        """Qudit Fourier (Hadamard analogue) on one wire."""
        d = self.dims[self._check_wires([qudit])[0]]
        self.unitary(gates.fourier(d), qudit, name="fourier")

    def snap(self, qudit: int, phases: Sequence[float]) -> None:
        """SNAP gate with the given per-Fock-level phases."""
        d = self.dims[self._check_wires([qudit])[0]]
        self.unitary(
            gates.snap(d, phases), qudit, name="snap", phases=tuple(phases)
        )

    def rotation(
        self, qudit: int, i: int, j: int, theta: float, phi: float = 0.0
    ) -> None:
        """Givens rotation in the ``(|i>, |j>)`` subspace of one wire."""
        d = self.dims[self._check_wires([qudit])[0]]
        self.unitary(
            gates.level_rotation(d, i, j, theta, phi),
            qudit,
            name="rot",
            levels=(i, j),
            theta=theta,
            phi=phi,
        )

    def displacement(self, qudit: int, alpha: complex) -> None:
        """Truncated displacement ``D(alpha)`` on one wire."""
        d = self.dims[self._check_wires([qudit])[0]]
        self.unitary(
            gates.displacement(d, alpha), qudit, name="disp", alpha=alpha
        )

    def mixer(self, qudit: int, beta: float) -> None:
        """QAOA nearest-level mixing unitary on one wire."""
        d = self.dims[self._check_wires([qudit])[0]]
        self.unitary(gates.qudit_mixer(d, beta), qudit, name="mixer", beta=beta)

    def csum(self, control: int, target: int) -> None:
        """CSUM with the first wire as control."""
        control, target = self._check_wires([control, target])
        mat = gates.csum(self.dims[control], self.dims[target])
        self.unitary(mat, (control, target), name="csum")

    def csum_dagger(self, control: int, target: int) -> None:
        """Inverse CSUM with the first wire as control."""
        control, target = self._check_wires([control, target])
        mat = gates.csum_dagger(self.dims[control], self.dims[target])
        self.unitary(mat, (control, target), name="csum_dg")

    def controlled_phase(
        self, control: int, target: int, strength: float = 1.0
    ) -> None:
        """Qudit CZ-type diagonal entangler."""
        control, target = self._check_wires([control, target])
        mat = gates.controlled_phase(
            self.dims[control], self.dims[target], strength
        )
        self.unitary(mat, (control, target), name="cphase", strength=strength)

    def beamsplitter(
        self, mode_a: int, mode_b: int, theta: float, phi: float = 0.0
    ) -> None:
        """Beam-splitter interaction between two wires."""
        mode_a, mode_b = self._check_wires([mode_a, mode_b])
        mat = gates.beamsplitter(
            self.dims[mode_a], self.dims[mode_b], theta, phi
        )
        self.unitary(mat, (mode_a, mode_b), name="bs", theta=theta, phi=phi)

    def swap(self, wire_a: int, wire_b: int) -> None:
        """SWAP two same-dimension wires."""
        wire_a, wire_b = self._check_wires([wire_a, wire_b])
        da, db = self.dims[wire_a], self.dims[wire_b]
        if da != db:
            raise CircuitError(f"cannot SWAP dimensions {da} and {db}")
        mat = np.zeros((da * db, da * db), dtype=complex)
        for a in range(da):
            for b in range(db):
                mat[b * da + a, a * db + b] = 1.0
        self.unitary(mat, (wire_a, wire_b), name="swap")

    def permute_levels(self, qudit: int, perm: Sequence[int]) -> None:
        """Relabel basis states of one wire by a permutation (NDAR remap)."""
        d = self.dims[self._check_wires([qudit])[0]]
        if len(perm) != d:
            raise CircuitError(f"permutation length {len(perm)} != dim {d}")
        self.unitary(
            gates.permutation_gate(perm), qudit, name="perm", perm=tuple(perm)
        )

    # ------------------------------------------------------------------
    # transformation
    # ------------------------------------------------------------------
    def compose(self, other: "QuditCircuit") -> "QuditCircuit":
        """Return a new circuit running ``self`` then ``other``."""
        if other.dims != self.dims:
            raise CircuitError(
                f"cannot compose dims {self.dims} with {other.dims}"
            )
        out = self.copy()
        for instruction in other:
            out.append(instruction)
        return out

    def inverse(self) -> "QuditCircuit":
        """Adjoint circuit (requires all-unitary instructions)."""
        out = QuditCircuit(self.dims, name=self.name + "_dg")
        for instruction in reversed(self._instructions):
            out.append(instruction.dagger())
        return out

    def copy(self) -> "QuditCircuit":
        """Shallow copy (instructions are immutable, so sharing is safe)."""
        out = QuditCircuit(self.dims, name=self.name)
        out._instructions = list(self._instructions)
        return out

    def repeated(self, reps: int) -> "QuditCircuit":
        """Concatenate ``reps`` copies of this circuit (Trotter steps)."""
        if reps < 0:
            raise CircuitError("repetition count must be >= 0")
        out = QuditCircuit(self.dims, name=f"{self.name}^{reps}")
        for _ in range(reps):
            for instruction in self._instructions:
                out.append(instruction)
        return out

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def plan(self) -> tuple[PlanStep, ...]:
        """The compiled plan every dense engine runs, memoised per mutation.

        Runs of same-wire single-qudit unitaries are fused into one
        matrix first; then each run of two or more diagonal unitaries
        becomes one ``"diagonal"`` step holding their full-register
        product.  A ``measure`` marker (terminal measurement is implicit in
        sampling) emits no step, but it keeps its place while runs are
        formed, so it ends both kinds of run.  Any mutation (``append``,
        ``replace_instruction``) recompiles on the next call.
        """
        if self._plan is not None and self._plan[0] == self._version:
            return self._plan[1]
        stream = [_fused(list(run)) for _, run in groupby(self, _wire_run)]
        steps: list[PlanStep] = []
        for diagonal, group in groupby(stream, _is_diagonal):
            run = list(group)
            if diagonal and len(run) >= 2:
                fused = np.ones(self.dims, dtype=complex)
                for ins in run:
                    fused *= broadcast_over_targets(
                        ins.structure().diag, self.dims, list(ins.qudits)
                    )
                steps.append(PlanStep("diagonal", diagonal=fused))
            else:
                steps.extend(PlanStep(i.kind, i) for i in run if i.kind != "measure")
        self._plan = (self._version, tuple(steps))
        return self._plan[1]

    def fingerprint(self) -> str:
        """Stable content hash of the circuit (hex digest).

        Two circuits share a fingerprint iff they have the same register
        dims and instruction-by-instruction identical content (names,
        kinds, wires, exact matrix / Kraus bytes).  The digest is computed
        with :mod:`hashlib`, so it is identical across processes and
        Python sessions — this is the circuit's identity in the campaign
        result cache (:mod:`repro.exec.cache`).  Memoised per mutation
        counter, so repeated cache lookups on an unchanged circuit hash
        once.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        hasher = hashlib.sha256()
        hasher.update(f"dims={self.dims}".encode())
        for instruction in self._instructions:
            instruction.feed_fingerprint(hasher)
        digest = hasher.hexdigest()
        self._fingerprint = (self._version, digest)
        return digest

    def noise_template(
        self, equivalents: Callable[[str], int], single_gate_fraction: float
    ) -> "DepolarizingTemplate":
        """This circuit's :class:`DepolarizingTemplate`, memoised per mutation.

        The memo holds the template of the last ``(equivalents,
        single_gate_fraction)`` asked for, so it stays one template per
        circuit.
        """
        key = (self._version, equivalents, single_gate_fraction)
        cached = getattr(self, "_noise_template", None)
        if cached is None or cached[0] != key:
            template = DepolarizingTemplate(self, equivalents, single_gate_fraction)
            cached = self._noise_template = (key, template)
        return cached[1]

    def is_noisy(self) -> bool:
        """True when the circuit carries channel or reset instructions."""
        return any(ins.kind in ("channel", "reset") for ins in self._instructions)

    def count_ops(self) -> dict[str, int]:
        """Histogram of instruction names."""
        out: dict[str, int] = {}
        for instruction in self._instructions:
            out[instruction.name] = out.get(instruction.name, 0) + 1
        return out

    def num_entangling(self) -> int:
        """Number of multi-wire unitaries (the dominant error source)."""
        return sum(1 for inst in self._instructions if inst.is_entangling())

    def depth(self) -> int:
        """Circuit depth counting each wire's busy slots (greedy ASAP)."""
        level = [0] * self.num_qudits
        depth = 0
        for instruction in self._instructions:
            if instruction.kind == "channel":
                continue  # noise markers do not consume a time slot
            start = max(level[q] for q in instruction.qudits)
            for q in instruction.qudits:
                level[q] = start + 1
            depth = max(depth, start + 1)
        return depth

    def to_unitary(self) -> np.ndarray:
        """Dense unitary of the whole circuit (small registers only).

        Raises:
            CircuitError: if the circuit contains non-unitary instructions
                or the register dimension exceeds 4096.
        """
        if self.dim > 4096:
            raise CircuitError(
                f"register dimension {self.dim} too large for dense unitary"
            )
        from .statevector import embed_unitary  # local import avoids a cycle

        out = np.eye(self.dim, dtype=complex)
        for instruction in self._instructions:
            if instruction.kind != "unitary":
                raise CircuitError(
                    f"{instruction.name!r} is not unitary; cannot build matrix"
                )
            full = embed_unitary(instruction.matrix, self.dims, instruction.qudits)
            out = full @ out
        return out

    def wires_used(self) -> set[int]:
        """Set of wires touched by at least one instruction."""
        used: set[int] = set()
        for instruction in self._instructions:
            used.update(instruction.qudits)
        return used

    def interaction_pairs(self) -> dict[tuple[int, int], int]:
        """Count of two-wire unitaries per (sorted) wire pair.

        This is the *interaction graph* consumed by the noise-aware mapper.
        """
        out: dict[tuple[int, int], int] = {}
        for instruction in self._instructions:
            if instruction.is_entangling() and instruction.num_qudits == 2:
                pair = tuple(sorted(instruction.qudits))
                out[pair] = out.get(pair, 0) + 1
        return out


class DepolarizingTemplate:
    """Uniform depolarising noise on a clean circuit, built once per circuit.

    The noise model stays apart from the circuit it instruments, as
    qibo's ``NoiseModel`` does: every unitary is followed by a *slot* on
    its wires.  A slot after a gate worth ``k > 0`` entangling-equivalents
    (``equivalents(name)``) takes ``p = 1 − (1 − ε)^k``; a slot after any
    other gate takes ``single_gate_fraction · ε`` (with a zero fraction
    those gates get no slot).  :meth:`bind` gives the circuit with the
    :func:`~repro.core.channels.depolarizing` channel of each slot whose
    ``p`` is positive right after its gate.

    :attr:`skeleton` is the clean circuit with an identity-channel
    placeholder in every slot, so the noisy circuit's shape is planned
    once; the density engine compiles that plan once and binds only the
    strengths per ``ε`` (:mod:`repro.core.density`).
    """

    def __init__(
        self,
        circuit: QuditCircuit,
        equivalents: Callable[[str], int],
        single_gate_fraction: float,
    ) -> None:
        self.single_gate_fraction = single_gate_fraction
        self.skeleton = QuditCircuit(circuit.dims, name=circuit.name + "+depol")
        # (wires, k) -> placeholder, and id(placeholder) -> (k, target dim)
        placeholders: dict[tuple, Instruction] = {}
        self._slots: dict[int, tuple[int, int]] = {}
        #: how many slots hold each ``k`` (0: the single-gate slots)
        self.counts: dict[int, int] = {}
        for ins in circuit:
            self.skeleton.append(ins)
            if ins.kind != "unitary":
                continue
            k = max(equivalents(ins.name), 0)
            if k == 0 and not single_gate_fraction > 0:
                continue
            slot = placeholders.get((ins.qudits, k))
            if slot is None:
                dim = self.skeleton._target_dim(ins.qudits)
                identity = (np.eye(dim, dtype=complex),)
                slot = Instruction("depol", "channel", ins.qudits, kraus=identity)
                placeholders[(ins.qudits, k)] = slot
                self._slots[id(slot)] = (k, dim)
            self.skeleton.append(slot)
            self.counts[k] = self.counts.get(k, 0) + 1
        #: data an engine derives from the template (the density compile)
        self.cache: dict = {}

    def slot(self, instruction: Instruction) -> tuple[int, int] | None:
        """``(k, target dim)`` of a :attr:`skeleton` placeholder, else ``None``."""
        return self._slots.get(id(instruction))

    def bind(self, epsilon: float) -> "NoisyCircuit":
        """The noisy circuit at per-entangling-gate probability ``epsilon``.

        Raises:
            DimensionError: for ``epsilon`` outside ``[0, 1]``.
        """
        if not 0.0 <= epsilon <= 1.0:
            raise DimensionError(f"epsilon={epsilon} outside [0, 1]")
        fraction = self.single_gate_fraction
        strengths = {
            k: 1.0 - (1.0 - epsilon) ** k if k > 0 else fraction * epsilon
            for k in self.counts
        }
        return NoisyCircuit(self, strengths)

    def instructions(self, strengths: dict[int, float]) -> list[Instruction]:
        """The skeleton with each slot's channel at ``strengths[k]``, or
        without the slot where that ``p`` is 0."""
        out: list[Instruction] = []
        channels: dict[int, Instruction] = {}  # one per placeholder
        for ins in self.skeleton:
            slot = self._slots.get(id(ins))
            if slot is None:
                out.append(ins)
                continue
            k, dim = slot
            p = strengths[k]
            if p > 0:
                if id(ins) not in channels:
                    family = depolarizing(dim, p)
                    channels[id(ins)] = Instruction(
                        "depol",
                        "channel",
                        ins.qudits,
                        kraus=family.kraus,
                        depolarizing_p=family.depolarizing_p,
                    )
                out.append(channels[id(ins)])
        return out


class NoisyCircuit(QuditCircuit):
    """A :class:`DepolarizingTemplate` bound at one strength per slot kind.

    An ordinary circuit to every engine, except that its instruction list
    is built on first use.  While it is unchanged and every slot holds a
    channel (:meth:`fills_template`), the density engine runs the
    template's compiled plan bound at :attr:`strengths` and never builds
    the list, so no depolarising Kraus family is formed.
    """

    def __init__(
        self, template: DepolarizingTemplate, strengths: dict[int, float]
    ) -> None:
        super().__init__(template.skeleton.dims, name=template.skeleton.name)
        self._listed: list[Instruction] | None = None  # built on first use
        self.template = template
        #: each slot kind's probability ``p``, by equivalents ``k``
        self.strengths = strengths
        #: data an engine derives from the bound circuit (the density ops)
        self.cache: dict = {}

    @property  # type: ignore[override]
    def _instructions(self) -> list[Instruction]:
        if self._listed is None:
            self._listed = self.template.instructions(self.strengths)
        return self._listed

    @_instructions.setter
    def _instructions(self, value: list[Instruction]) -> None:
        self._listed = value

    def __len__(self) -> int:
        if self._listed is not None:
            return len(self._listed)
        counts = self.template.counts
        empty = sum(n for k, n in counts.items() if not self.strengths[k] > 0)
        return len(self.template.skeleton) - empty

    def fills_template(self) -> bool:
        """True while this is the skeleton with a channel in every slot."""
        return self._version == 0 and all(p > 0 for p in self.strengths.values())

    def is_noisy(self) -> bool:
        if self._listed is None and any(p > 0 for p in self.strengths.values()):
            return True
        return super().is_noisy()
