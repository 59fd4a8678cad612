"""The density engine's compiled ops on the doubled register.

:meth:`DensityMatrix.evolve` compiles every plan step — a unitary fused
with the depolarising channel after it where that is faster — into one op
on the interleaved (ket, bra per wire) register.  These tests hold the
whole program to the operator-by-operator :meth:`DensityMatrix.apply_kraus`
reference, and every single op to the CPTP predicates below.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import DensityMatrix, QuditCircuit, gates
from repro.core.channels import dephasing, depolarizing, photon_loss
from repro.core.density import _compiled, _deinterleave, _interleave
from repro.core.random_ops import haar_unitary, random_density_matrix


# ----------------------------------------------------------------------
# CPTP predicates on a channel's Choi matrix
# ----------------------------------------------------------------------
def is_trace_preserving(choi: np.ndarray, dim: int, atol: float = 1e-12) -> bool:
    """``Tr_out J = I``, i.e. ``⟨I|S = ⟨I|``: every input keeps its trace."""
    reduced = np.einsum("aibi->ab", choi.reshape(dim, dim, dim, dim))
    return np.allclose(reduced, np.eye(dim), rtol=0, atol=atol)


def is_completely_positive(choi: np.ndarray, atol: float = 1e-12) -> bool:
    """``J`` is Hermitian with no eigenvalue below ``-atol``."""
    if not np.allclose(choi, choi.conj().T, rtol=0, atol=atol):
        return False
    return bool(np.linalg.eigvalsh(choi).min() >= -atol)


def _choi(op, dims) -> np.ndarray:
    """Choi matrix of one compiled op, from its action on ``|i⟩⟨j|``."""
    dim = int(np.prod(dims))
    choi = np.zeros((dim, dim, dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[i, j] = 1.0
            out = _deinterleave(op(_interleave(unit, dims)), dims)
            choi[i, :, j, :] = out
    return choi.reshape(dim * dim, dim * dim)


# ----------------------------------------------------------------------
# circuits
# ----------------------------------------------------------------------
def _random_kraus(dim, n_ops, rng):
    """A random CPTP family: blocks of a Haar isometry."""
    isometry = haar_unitary(dim * n_ops, rng=rng)[:, :dim]
    return [isometry[k * dim : (k + 1) * dim] for k in range(n_ops)]


def _mixed_circuit(rng) -> QuditCircuit:
    """Every op kind on dims (2, 3, 2, 4); depolarising at d_S = 2, 3, 4, 6, 24."""
    qc = QuditCircuit((2, 3, 2, 4))
    for wire in range(4):
        qc.fourier(wire)
    # dense gate + depolarising on the same wires, listed in another order
    qc.unitary(haar_unitary(6, rng=rng), (0, 1), name="u01")
    qc.channel(depolarizing(6, 0.07), (1, 0), name="depol")
    # non-adjacent, descending wires: a superoperator on a split block
    qc.unitary(haar_unitary(4, rng=rng), (2, 0), name="u20")
    qc.channel(depolarizing(4, 0.05), (0, 2), name="depol")
    # permutation + depolarising at d_S = 4 fuses; diagonal at d_S = 6 does not
    qc.unitary(gates.csum(2, 2), (0, 2), name="cnot")
    qc.channel(depolarizing(4, 0.03), (0, 2), name="depol")
    qc.controlled_phase(1, 2, strength=0.7)
    qc.channel(depolarizing(6, 0.04), (1, 2), name="depol")
    qc.x(3)
    qc.channel(depolarizing(4, 0.02), 3, name="depol")
    # lone depolarising channels, one with a spectator wire in its block
    qc.channel(depolarizing(2, 0.1), 0, name="depol")
    qc.channel(depolarizing(3, 0.08), 1, name="depol")
    qc.channel(depolarizing(8, 0.05), (3, 0), name="depol")
    # targets wider than a superoperator: operator by operator
    qc.unitary(haar_unitary(24, rng=rng), (3, 1, 2), name="u312")
    qc.channel(depolarizing(24, 0.02), (1, 2, 3), name="depol")
    qc.channel(_random_kraus(24, 2, rng), (2, 3, 1), name="wide")
    qc.measure()
    # structured channels and a channel after a gate on other wires
    qc.unitary(haar_unitary(3, rng=rng), 1, name="u1")
    qc.channel(photon_loss(4, 0.3), 3, name="loss")
    qc.channel(dephasing(3, 0.2), 1, name="deph")
    qc.channel(_random_kraus(6, 3, rng), (2, 1), name="kraus21")
    # a run of diagonal gates fuses into one full-register diagonal step
    qc.snap(1, [0.3, 0.5])
    qc.z(3)
    qc.controlled_phase(0, 1, strength=0.4)
    qc.reset(1)
    qc.unitary(haar_unitary(8, rng=rng), (3, 2), name="u32")
    qc.channel(depolarizing(8, 0.05), (2, 3), name="depol")
    qc.measure(0)
    return qc


def _qutrit_circuit(rng) -> QuditCircuit:
    """d_S = 9 on dims (3, 2, 3): fused, lone, and around a spectator."""
    qc = QuditCircuit((3, 2, 3))
    qc.fourier(0)
    qc.fourier(2)
    qc.unitary(haar_unitary(9, rng=rng), (0, 2), name="u02")
    qc.channel(depolarizing(9, 0.06), (2, 0), name="depol")
    qc.csum(2, 0)
    qc.channel(depolarizing(9, 0.04), (0, 2), name="depol")
    qc.channel(depolarizing(9, 0.02), (0, 2), name="depol")
    qc.unitary(haar_unitary(6, rng=rng), (1, 2), name="u12")
    qc.channel(depolarizing(6, 0.05), (1, 2), name="depol")
    qc.reset(0)
    return qc


def _reference(rho: DensityMatrix, circuit: QuditCircuit) -> DensityMatrix:
    """The circuit instruction by instruction through ``apply_kraus``."""
    for ins in circuit:
        if ins.kind == "unitary":
            rho = rho.apply_kraus([ins.matrix], ins.qudits)
        elif ins.kind == "channel":
            rho = rho.apply_kraus(ins.kraus, ins.qudits)
        elif ins.kind == "reset":
            d = circuit.dims[ins.qudits[0]]
            kraus = np.zeros((d, d, d), dtype=complex)
            kraus[:, 0, :] = np.eye(d)
            rho = rho.apply_kraus(list(kraus), ins.qudits)
    return rho


CIRCUITS = {"mixed-2324": _mixed_circuit, "qutrits-323": _qutrit_circuit}


class TestProgramMatchesKrausLoop:
    @pytest.mark.parametrize("build", CIRCUITS.values(), ids=CIRCUITS.keys())
    def test_evolve_matches_apply_kraus_loop(self, build):
        rng = np.random.default_rng(11)
        circuit = build(rng)
        dim = int(np.prod(circuit.dims))
        rho = DensityMatrix(random_density_matrix(dim, rng=rng), circuit.dims)
        out = rho.evolve(circuit)
        reference = _reference(rho, circuit)
        np.testing.assert_allclose(out.matrix, reference.matrix, rtol=0, atol=1e-12)
        assert abs(out.trace() - 1.0) < 1e-12
        # A second run reuses the ops cached on the plan.
        np.testing.assert_array_equal(rho.evolve(circuit).matrix, out.matrix)

    def test_program_exercises_every_op_kind(self):
        circuit = _mixed_circuit(np.random.default_rng(11))
        plan = circuit.plan()
        ops = _compiled(plan, circuit.dims)
        kernels = {op.kernel.__name__ for op in ops}
        assert {"apply_matrix", "_depolarize", "_sandwich", "multiply"} <= kernels
        assert kernels & {"_matmul", "_right_matmul"}
        # one telemetry event per instruction, however the steps fused
        assert sum(len(op.events) for op in ops) == len(plan)
        # u20, the CNOT and their noise share one two-qubit block
        assert max(len(op.events) for op in ops) >= 4
        assert len(ops) < len(plan)

    def test_qubit_gates_merge_into_two_qubit_blocks(self):
        """A Pauli rotation's ladder, basis changes and noise on two qubits
        compile to one op; qutrit pairs (81 x 81) stay apart."""
        rng = np.random.default_rng(4)
        qc = QuditCircuit((2, 2, 2))
        for wire in (1, 2):
            qc.unitary(haar_unitary(2, rng=rng), wire, name="h")
            qc.channel(depolarizing(2, 0.01), wire, name="depol")
        qc.x(0)  # other wires: the ops above merge back past it
        qc.unitary(gates.csum(2, 2), (1, 2), name="cnot")
        qc.channel(depolarizing(4, 0.02), (1, 2), name="depol")
        qc.unitary(np.diag(np.exp([0.3j, -0.3j])), 2, name="rz")
        qc.channel(depolarizing(2, 0.01), 2, name="depol")
        qc.unitary(gates.csum(2, 2), (1, 2), name="cnot")
        qc.channel(depolarizing(4, 0.02), (1, 2), name="depol")
        ops = _compiled(qc.plan(), qc.dims)
        assert [op.wires for op in ops] == [(1, 2), (0,)]
        rho = DensityMatrix(random_density_matrix(8, rng=rng), qc.dims)
        np.testing.assert_allclose(
            rho.evolve(qc).matrix, _reference(rho, qc).matrix, rtol=0, atol=1e-12
        )
        qutrits = QuditCircuit((3, 3))
        qutrits.fourier(0)
        qutrits.csum(0, 1)
        assert len(_compiled(qutrits.plan(), qutrits.dims)) == 2

    def test_ops_are_compiled_once_per_plan(self):
        circuit = _qutrit_circuit(np.random.default_rng(2))
        first = _compiled(circuit.plan(), circuit.dims)
        again = _compiled(circuit.plan(), circuit.dims)
        assert all(a is b for a, b in zip(first, again))

    def test_unitary_superoperator_keeps_its_structure(self):
        circuit = QuditCircuit((2, 2, 3))
        circuit.csum(0, 1)
        circuit.controlled_phase(1, 2, strength=0.3)
        circuit.x(2)
        ops = _compiled(circuit.plan(), circuit.dims)
        kinds = [op.args[-1].kind for op in ops]
        assert kinds == ["permutation", "diagonal", "permutation"]
        # cached on the shared structure, so every CNOT reuses it
        cnot = circuit.instructions[0].structure()
        assert cnot.plans[("liouville", (2, 2), (0, 1))] is ops[0].args[-1]


class TestCompiledOpsAreCPTP:
    @pytest.mark.parametrize(
        "dims, build",
        [((2, 3, 2), "small"), ((3, 3), "qutrits"), ((3, 2, 3), "wide")],
    )
    def test_every_op_is_cptp(self, dims, build):
        rng = np.random.default_rng(5)
        qc = QuditCircuit(dims)
        if build == "small":
            qc.unitary(haar_unitary(6, rng=rng), (2, 1), name="u")
            qc.channel(depolarizing(6, 0.1), (1, 2), name="depol")
            qc.unitary(gates.csum(2, 2), (2, 0), name="cnot")
            qc.channel(depolarizing(4, 0.2), (0, 2), name="depol")
            qc.channel(depolarizing(4, 0.3), (2, 0), name="depol")
            qc.channel(photon_loss(3, 0.4), 1, name="loss")
            qc.channel(dephasing(2, 0.3), 0, name="deph")
            qc.channel(_random_kraus(12, 2, rng), (2, 0, 1), name="wide")
            qc.unitary(haar_unitary(12, rng=rng), (1, 2, 0), name="u3")
            qc.snap(1, [0.2, 0.9])
            qc.z(0)
            qc.reset(1)
        elif build == "wide":
            qc.unitary(haar_unitary(18, rng=rng), (2, 0, 1), name="u")
            qc.channel(depolarizing(18, 0.1), (0, 1, 2), name="depol")
            qc.channel(_random_kraus(18, 2, rng), (1, 2, 0), name="wide")
        else:
            qc.unitary(haar_unitary(9, rng=rng), (1, 0), name="u")
            qc.channel(depolarizing(9, 0.2), (0, 1), name="depol")
            qc.channel(depolarizing(3, 1.0), 1, name="depol")
            qc.reset(0)
        dim = int(np.prod(dims))
        for op in _compiled(qc.plan(), dims):
            choi = _choi(op, dims)
            assert is_trace_preserving(choi, dim), op.events
            assert is_completely_positive(choi), op.events

    def test_predicates_reject_non_cptp_maps(self):
        dims = (2, 2)
        qc = QuditCircuit(dims)
        qc.unitary(np.diag([1.0, 2.0]), 0, name="not-unitary")
        (scale,) = _compiled(qc.plan(), dims)
        assert not is_trace_preserving(_choi(scale, dims), 4)
        # The transpose map is trace preserving but not completely
        # positive: its Choi matrix is the swap, with eigenvalue -1.
        swap = np.eye(4).reshape(2, 2, 2, 2).transpose(0, 1, 3, 2).reshape(4, 4)
        assert is_trace_preserving(swap, 2)
        assert not is_completely_positive(swap)


class TestFusedTelemetry:
    @pytest.fixture(autouse=True)
    def _clean_obs(self):
        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    def test_fused_ops_count_one_event_per_instruction(self):
        qc = QuditCircuit((2, 2))
        qc.fourier(0)
        qc.channel(depolarizing(2, 0.01), 0, name="depol")
        qc.csum(0, 1)
        qc.channel(depolarizing(4, 0.02), (0, 1), name="depol")
        (op,) = _compiled(qc.plan(), qc.dims)  # both pairs, then one block
        assert len(op.events) == 4
        off = DensityMatrix.zero(qc.dims).evolve(qc)
        obs.enable()
        on = DensityMatrix.zero(qc.dims).evolve(qc)
        obs.disable()
        assert np.array_equal(on.matrix, off.matrix)
        gates_ = obs.metrics.REGISTRY.get("gate_applies")
        channels = obs.metrics.REGISTRY.get("channel_applies")
        assert gates_.value(backend="density", kind="dense") == 1.0
        assert gates_.value(backend="density", kind="permutation") == 1.0
        assert channels.value(backend="density", kind="depolarizing") == 2.0
        names = [e["name"] for e in obs.tracing.events()]
        assert names.count("gate_apply") == 2
        assert names.count("channel_apply") == 2
