"""Core-engine throughput benchmark — structured fast paths + batched trajectories.

Measures the two hot paths the fast-path engine optimises, against the
*seed* implementation (dense ``tensordot`` per gate, Python loop per
trajectory) kept in-tree as ``apply_matrix_dense`` / a faithful reference
simulator below:

1. **Gate application**: diagonal (Weyl ``Z``, cross-Kerr) and permutation
   (Weyl ``X``, CSUM) gates on a 7-qutrit register, structured kernel vs
   dense contraction.
2. **Noisy-trajectory throughput**: 200 trajectories of a 7-qutrit
   NDAR-style circuit (QAOA layer + per-layer photon loss), batched engine
   vs the seed per-trajectory loop.
3. **E-C1 on the density engine** (``ec1_density``): one noisy Trotter
   step of the binary-encoded 2-site rotor chain (the ``paperbench``
   ``ec1_threshold`` size, 4 qubits) and the whole E-C1 comparison at
   ``bench_encoding_noise`` size, with the step's agreement with the
   operator-by-operator ``apply_kraus`` loop and its compiled-op count.
   Given ``--parent-src DIR`` (the ``src`` directory of another checkout,
   e.g. extracted by ``git archive <rev> | tar -x -C <dir>``), the same timings
   run against that tree too, each side in a fresh interpreter.
4. **Table I NDAR sample** (``trajectories.table1_ndar``): one round-0
   NDAR sample on the ``paperbench`` ``table1_grid`` shape (9 qutrits,
   20 shots, photon loss 0.25), its time split by plan-step kind —
   unitary, diagonal, channel and the terminal sample — with the sampled
   counts.  Given ``--parent-src``, the same runs against that tree too.
5. **Reservoir split step** (``reservoir``): one ``SplitStepEvolver``
   step of the two-mode reservoir at ``levels`` 4 and 9, photon loss
   applied as two Liouville-superoperator GEMMs, against the Kraus-sum
   reference it replaced (one ``K rho K†`` sandwich per kron'd Kraus
   operator of each mode), with the two paths' maximum deviation over a
   driven run.

Run as a script to (re)generate the committed ``BENCH_core.json`` at the
repo root::

    PYTHONPATH=src python benchmarks/bench_core_engine.py [--parent-src DIR]

The ``bench_smoke`` tier-1 tests call :func:`run_benchmarks` at tiny sizes
to catch fast-path regressions without slowing the suite; full-size runs
stay opt-in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import DensityMatrix, QuditCircuit, Statevector, TrajectorySimulator
from repro.core.dims import index_to_digits, total_dim
from repro.core.statevector import apply_matrix, apply_matrix_dense
from repro.core.structure import classify_gate
from repro.core import gates
from repro.qaoa import random_coloring_instance
from repro.qaoa.circuits import add_photon_loss, qaoa_circuit
from repro.qaoa.optimizer import linear_ramp_schedule
from repro.reservoir import CoupledOscillators, SplitStepEvolver
from repro.sqed import RotorChain, compare_encodings
from repro.sqed.encodings import QubitEncoding, insert_depolarizing_noise

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_core.json"


# ----------------------------------------------------------------------
# seed-reference trajectory simulator (dense path + Python loop per shot)
# ----------------------------------------------------------------------
class _SeedReferenceSimulator:
    """Faithful re-implementation of the seed (pre-fast-path) simulator.

    Mirrors the original ``TrajectorySimulator`` line for line: every gate
    goes through the dense ``tensordot`` contraction wrapped in a fresh
    ``Statevector``, every Kraus branch is applied to compute its Born
    weight, and every trajectory is a separate Python loop over the
    circuit — exactly the seed hot path this PR replaced.
    """

    def __init__(self, circuit: QuditCircuit, seed: int) -> None:
        self.circuit = circuit
        self._rng = np.random.default_rng(seed)

    def _apply(self, state: Statevector, matrix, targets) -> Statevector:
        tensor = apply_matrix_dense(
            state.tensor, matrix, self.circuit.dims, targets
        )
        return Statevector(tensor.reshape(-1), self.circuit.dims)

    def _jump(self, state, kraus, targets) -> Statevector:
        weights, candidates = [], []
        for op in kraus:
            new = self._apply(state, op, targets)
            weights.append(new.norm() ** 2)
            candidates.append(new)
        weights = np.asarray(weights)
        choice = int(self._rng.choice(len(kraus), p=weights / weights.sum()))
        return candidates[choice].normalized()

    def _run_single(self, initial: Statevector) -> Statevector:
        state = initial
        for instruction in self.circuit:
            if instruction.kind == "unitary":
                state = self._apply(state, instruction.matrix, instruction.qudits)
            elif instruction.kind == "channel":
                state = self._jump(state, instruction.kraus, instruction.qudits)
            elif instruction.kind == "measure":
                continue
            else:
                raise ValueError(f"unsupported kind {instruction.kind}")
        return state

    def sample(self, shots: int) -> dict[tuple[int, ...], int]:
        dims = self.circuit.dims
        initial = Statevector.zero(dims)
        counts: dict[tuple[int, ...], int] = {}
        for _ in range(shots):
            final = self._run_single(initial)
            probs = final.probabilities()
            index = int(
                self._rng.choice(len(probs), p=probs / probs.sum())
            )
            digits = index_to_digits(index, dims)
            counts[digits] = counts.get(digits, 0) + 1
        return counts


# ----------------------------------------------------------------------
# timing helpers
# ----------------------------------------------------------------------
def _time_loop(fn, repeats: int) -> float:
    """Best-of-3 mean seconds per call over ``repeats`` calls."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        best = min(best, (time.perf_counter() - start) / repeats)
    return best


def _bench_gate_apply(n_qutrits: int, repeats: int) -> tuple[dict, float]:
    """Structured kernels vs dense contraction on one register; returns
    (per-gate results + category summaries, max |fast - dense| error).

    Structures are classified once and reused across calls — exactly how
    the simulators use the per-instruction cache.
    """
    dims = (3,) * n_qutrits
    rng = np.random.default_rng(0)
    state = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    state /= np.linalg.norm(state)
    mid = n_qutrits // 2
    cases = {
        "weyl_z_diagonal_1wire": (gates.weyl_z(3), (0,), "diagonal"),
        "snap_diagonal_1wire": (gates.snap(3, [0.3, 0.1]), (mid,), "diagonal"),
        "cross_kerr_diagonal_2wire": (
            gates.cross_kerr(3, 3, 0.4), (0, n_qutrits - 1), "diagonal",
        ),
        "cphase_diagonal_2wire": (
            gates.controlled_phase(3, 3), (1, mid), "diagonal",
        ),
        "weyl_x_permutation_1wire": (gates.weyl_x(3), (mid,), "permutation"),
        "weyl_x_permutation_last_wire": (
            gates.weyl_x(3), (n_qutrits - 1,), "permutation",
        ),
        "csum_permutation_2wire": (
            gates.csum(3, 3), (1, n_qutrits - 1), "permutation",
        ),
    }
    out = {}
    max_error = 0.0
    by_category: dict[str, list[float]] = {}
    for name, (matrix, targets, category) in cases.items():
        structure = classify_gate(matrix)
        fast = apply_matrix(state, matrix, dims, targets, structure=structure)
        dense = apply_matrix_dense(state, matrix, dims, targets)
        max_error = max(max_error, float(np.abs(fast - dense).max()))
        fast_s = _time_loop(
            lambda m=matrix, t=targets, s=structure: apply_matrix(
                state, m, dims, t, structure=s
            ),
            repeats,
        )
        dense_s = _time_loop(
            lambda m=matrix, t=targets: apply_matrix_dense(state, m, dims, t),
            repeats,
        )
        speedup = dense_s / fast_s
        by_category.setdefault(category, []).append(speedup)
        out[name] = {
            "fast_us": round(fast_s * 1e6, 3),
            "dense_us": round(dense_s * 1e6, 3),
            "speedup": round(speedup, 2),
        }
    for category, speedups in by_category.items():
        out[f"{category}_geomean_speedup"] = round(
            float(np.exp(np.mean(np.log(speedups)))), 2
        )
    return out, max_error


def _ndar_style_circuit(n_nodes: int, loss: float) -> QuditCircuit:
    """One NDAR round's circuit: p=1 qutrit QAOA + per-layer photon loss."""
    problem = random_coloring_instance(n_nodes, 3, degree=min(4, n_nodes - 1), seed=21)
    circuit = qaoa_circuit(problem, [0.6], [0.4])
    return add_photon_loss(circuit, loss)


def _bench_trajectories(n_nodes: int, n_trajectories: int) -> dict:
    circuit = _ndar_style_circuit(n_nodes, loss=0.15)
    batched = TrajectorySimulator(circuit, seed=7)
    batched.sample(min(8, n_trajectories))  # warm structure/plan caches
    batched_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        batched.sample(n_trajectories)
        batched_s = min(batched_s, time.perf_counter() - start)
    reference = _SeedReferenceSimulator(circuit, seed=7)
    reference.sample(min(8, n_trajectories))
    start = time.perf_counter()
    reference.sample(n_trajectories)
    seed_loop_s = time.perf_counter() - start
    return {
        "register": [3] * n_nodes,
        "n_trajectories": n_trajectories,
        "n_instructions": len(circuit),
        "batched_s": round(batched_s, 4),
        "seed_loop_s": round(seed_loop_s, 4),
        "speedup": round(seed_loop_s / batched_s, 2),
        "batched_traj_per_s": round(n_trajectories / batched_s, 1),
        "seed_loop_traj_per_s": round(n_trajectories / seed_loop_s, 1),
    }


def _noisy_qubit_step() -> tuple[QubitEncoding, QuditCircuit]:
    """The ``ec1_threshold`` qubit point's step: 2 sites, one step of dt 3."""
    encoding = QubitEncoding(RotorChain(n_sites=2, spin=1, g2=1.0, hopping=0.3))
    step = encoding.trotter_step(3.0)
    return encoding, insert_depolarizing_noise(step, encoding, 0.01)


def _ec1_timings(step_repeats: int, ec1_bench: bool) -> dict:
    """Time the noisy step and (optionally) E-C1 with the public API only,
    so the same code can time another checkout's library."""
    encoding, step = _noisy_qubit_step()
    rho = DensityMatrix.basis(encoding.dims, encoding.product_state_digits([1, 0]))
    rho.evolve(step)  # compile and warm the plan
    best = float("inf")
    for _ in range(step_repeats):
        start = time.perf_counter()
        rho.evolve(step)
        best = min(best, time.perf_counter() - start)
    out = {"step_ms": round(best * 1e3, 3)}
    if ec1_bench:
        start = time.perf_counter()
        result = compare_encodings(
            RotorChain(n_sites=3, spin=1, g2=1.0, hopping=0.3),
            damage_tol=0.1,
            t_total=3.0,
            n_steps=8,
            bisection_steps=8,
        )
        out["ec1_s"] = round(time.perf_counter() - start, 3)
        out["thresholds"] = [result.qudit_threshold, result.qubit_threshold]
    return out


def _timings_in(src: Path | str, *flags: str) -> dict:
    """Run this script with ``flags`` in a fresh interpreter on the library
    at ``src`` and return the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=str(src))
    args = [sys.executable, __file__, *flags]
    done = subprocess.run(args, env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _ec1_timings_in(src: Path | str, step_repeats: int, ec1_bench: bool) -> dict:
    """:func:`_ec1_timings` in a fresh interpreter on the library at ``src``."""
    flags = ["--ec1-timings", str(step_repeats)]
    return _timings_in(src, *flags, *(["--ec1-bench"] if ec1_bench else []))


def _bench_ec1_density(
    step_repeats: int, ec1_bench: bool, parent_src: Path | str | None
) -> dict:
    """The ``ec1_density`` record: timings plus the step's exactness and
    compiled-op count against its plan."""
    from repro.core.density import _compiled

    encoding, step = _noisy_qubit_step()
    rho = DensityMatrix.basis(encoding.dims, encoding.product_state_digits([1, 0]))
    reference = rho
    for ins in step:
        reference = reference.apply_kraus(
            [ins.matrix] if ins.kind == "unitary" else ins.kraus, ins.qudits
        )
    error = float(np.abs(rho.evolve(step).matrix - reference.matrix).max())
    if ec1_bench:
        change = _ec1_timings_in(REPO_ROOT / "src", step_repeats, ec1_bench)
    else:
        change = _ec1_timings(step_repeats, ec1_bench)
    parent = (
        _ec1_timings_in(parent_src, step_repeats, ec1_bench)
        if parent_src is not None
        else None
    )
    record = {
        "noisy_qubit_step": {
            "register": list(encoding.dims),
            "instructions": len(step),
            "plan_steps": len(step.plan()),
            "compiled_ops": len(_compiled(step.plan(), encoding.dims)),
            "max_error_vs_apply_kraus": error,
            "change_ms": change["step_ms"],
            "parent_ms": parent["step_ms"] if parent else None,
        }
    }
    if ec1_bench:
        record["ec1_bench_size"] = {
            "chain": "RotorChain(3, spin=1), t_total=3, n_steps=8, bisection_steps=8",
            "thresholds": change["thresholds"],
            "change_s": change["ec1_s"],
            "parent_s": parent["ec1_s"] if parent else None,
            "parent_thresholds": parent["thresholds"] if parent else None,
        }
    return record


def _table1_ndar_timings(repeats: int) -> dict:
    """Median ms per plan-step kind of one round-0 Table I NDAR sample.

    Uses names both sides of a ``--parent-src`` comparison define: the
    engine's ``apply_step`` (unitary and diagonal steps), ``_jump_batch``
    (channels) and ``_sample_indices`` (the terminal sample) are wrapped in
    timers; ``other`` is the rest of ``sample`` (chunk set-up, the
    spread of a shared prefix).  Every repeat re-seeds the simulator, so
    all repeats draw the same counts.
    """
    import repro.core.trajectories as engine

    problem = random_coloring_instance(9, 3, degree=4, seed=11)
    gammas, betas = linear_ramp_schedule(1)
    circuit = add_photon_loss(qaoa_circuit(problem, gammas, betas), 0.25)
    spent: dict[str, float] = {}

    def timed(fn, kind_of):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            kind = kind_of(*args)
            spent[kind] = spent.get(kind, 0.0) + time.perf_counter() - start
            return result

        return wrapper

    simulator = engine.TrajectorySimulator
    patched = {
        (engine, "apply_step"): timed(
            engine.apply_step, lambda tensor, step, dims: step.kind
        ),
        (simulator, "_jump_batch"): timed(
            simulator._jump_batch, lambda *args: "channel"
        ),
        (simulator, "_sample_indices"): timed(
            simulator._sample_indices, lambda *args: "sample"
        ),
    }
    saved = {key: getattr(*key) for key in patched}
    for (owner, name), wrapper in patched.items():
        setattr(owner, name, wrapper)
    try:
        counts = simulator(circuit, seed=3).sample(20)  # warm plan caches
        rows = []
        for _ in range(repeats):
            spent.clear()
            start = time.perf_counter()
            assert simulator(circuit, seed=3).sample(20) == counts
            total = time.perf_counter() - start
            rows.append({**spent, "other": total - sum(spent.values()), "total": total})
    finally:
        for (owner, name), fn in saved.items():
            setattr(owner, name, fn)
    kinds = ("unitary", "diagonal", "channel", "sample", "other", "total")
    return {
        "ms": {
            kind: round(float(np.median([r.get(kind, 0.0) for r in rows])) * 1e3, 3)
            for kind in kinds
        },
        "counts": {
            "".join(map(str, digits)): n for digits, n in sorted(counts.items())
        },
    }


def _bench_table1_ndar(repeats: int, parent_src: Path | str | None) -> dict:
    """The ``trajectories.table1_ndar`` record: against a parent, each side
    runs in a fresh interpreter; alone, this tree runs in-process."""
    if parent_src is None:
        change, parent = _table1_ndar_timings(repeats), None
    else:
        change = _timings_in(REPO_ROOT / "src", "--ndar-timings", str(repeats))
        parent = _timings_in(parent_src, "--ndar-timings", str(repeats))
    return {
        "circuit": "random_coloring_instance(9, 3, degree=4, seed=11), "
        "p=1 linear-ramp angles, photon loss 0.25 after each mixer",
        "shots": 20,
        "repeats": repeats,
        "change_ms": change["ms"],
        "parent_ms": parent["ms"] if parent else None,
        "counts": change["counts"],
        "parent_counts": parent["counts"] if parent else None,
    }


def _kraus_sum_step(evolver: SplitStepEvolver):
    """The Kraus-sum split step: each mode's loss as ``sum_l K_l rho K_l†``
    over its Kraus operators kron'd up to the joint space."""
    eye = np.eye(evolver.osc.levels, dtype=complex)
    families = [
        [np.kron(k, eye) if mode == 0 else np.kron(eye, k) for k in kraus]
        for mode, kraus in sorted(evolver.loss_families.items())
    ]

    def step(rho: np.ndarray, drive: float) -> np.ndarray:
        u = evolver.unitary_for(drive)
        rho = u @ rho @ u.conj().T
        for ops in families:
            rho = sum(op @ rho @ op.conj().T for op in ops)
        return rho / float(np.real(np.trace(rho)))

    return step


def _bench_reservoir(n_steps: int, repeats: int) -> dict:
    """Per-step time of the superoperator split step against the Kraus sum
    at 16 and 81 neurons, on a state driven through ``n_steps`` NARMA-like
    inputs."""
    record = {}
    drives = 1.0 + np.random.default_rng(0).uniform(0.0, 0.5, size=n_steps)
    for level in (4, 9):
        osc = CoupledOscillators(levels=level)
        evolver = SplitStepEvolver(osc, dt=1.0)
        reference = _kraus_sum_step(evolver)
        rho = ref = osc.vacuum()
        deviation = 0.0
        for drive in drives:
            rho = evolver.step(rho, drive)
            ref = reference(ref, drive)
            deviation = max(deviation, float(np.abs(rho - ref).max()))
        kraus_s = _time_loop(lambda: reference(rho, drives[0]), repeats)
        super_s = _time_loop(lambda: evolver.step(rho, drives[0]), repeats)
        record[f"levels_{level}"] = {
            "levels": level,
            "neurons": osc.dim,
            "kraus_sum_us": round(kraus_s * 1e6, 2),
            "superoperator_us": round(super_s * 1e6, 2),
            "speedup": round(kraus_s / super_s, 2),
            "max_deviation": deviation,
        }
    return record


def run_benchmarks(
    n_qutrits: int = 7,
    gate_repeats: int = 300,
    n_traj_nodes: int = 7,
    n_trajectories: int = 200,
    ndar_repeats: int = 15,
    ec1_step_repeats: int = 20,
    ec1_bench: bool = True,
    reservoir_steps: int = 40,
    reservoir_repeats: int = 50,
    parent_src: Path | str | None = None,
    out_path: Path | str | None = None,
) -> dict:
    """Run the core-engine benchmark suite and optionally emit JSON.

    Args:
        n_qutrits: register size for the gate-apply section.
        gate_repeats: timed repetitions per gate kernel.
        n_traj_nodes: qutrits in the NDAR-style trajectory circuit.
        n_trajectories: trajectory count for the throughput section.
        ndar_repeats: timed Table I NDAR samples per side (median kept).
        ec1_step_repeats: timed runs of the noisy qubit step (best kept).
        ec1_bench: also time E-C1 at ``bench_encoding_noise`` size
            (tens of seconds; each side then runs in a fresh interpreter).
        reservoir_steps: driven steps over which the two split-step
            paths' deviation is tracked.
        reservoir_repeats: timed steps per path and size.
        parent_src: ``src`` directory of another checkout to time the
            ``ec1_density`` and ``table1_ndar`` sections against
            (``None``: this tree only).
        out_path: where to write the JSON report (``None`` = don't write).

    Returns:
        The report dictionary (also written to ``out_path`` if given).
    """
    gate_apply, max_error = _bench_gate_apply(n_qutrits, gate_repeats)
    trajectories = _bench_trajectories(n_traj_nodes, n_trajectories)
    report = {
        "meta": {
            "benchmark": "bench_core_engine",
            "numpy": np.__version__,
            "python": platform.python_version(),
            "gate_register_dim": total_dim((3,) * n_qutrits),
            "gate_repeats": gate_repeats,
        },
        "gate_apply": gate_apply,
        "trajectories": {
            "ndar_style": trajectories,
            "table1_ndar": _bench_table1_ndar(ndar_repeats, parent_src),
        },
        "ec1_density": _bench_ec1_density(ec1_step_repeats, ec1_bench, parent_src),
        "reservoir": _bench_reservoir(reservoir_steps, reservoir_repeats),
        "correctness": {"max_fastpath_vs_dense_error": max_error},
    }
    if out_path is not None:
        Path(out_path).write_text(json.dumps(report, indent=2) + "\n")
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--parent-src", type=Path, default=None,
        help="src directory of another checkout to time ec1_density and "
        "table1_ndar against",
    )
    parser.add_argument("--ec1-timings", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--ec1-bench", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--ndar-timings", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.ec1_timings is not None:
        print(json.dumps(_ec1_timings(args.ec1_timings, args.ec1_bench)))
        return
    if args.ndar_timings is not None:
        print(json.dumps(_table1_ndar_timings(args.ndar_timings)))
        return
    report = run_benchmarks(parent_src=args.parent_src, out_path=BENCH_JSON)
    print(json.dumps(report, indent=2))
    print(f"\nwrote {BENCH_JSON}")


if __name__ == "__main__":
    main()
