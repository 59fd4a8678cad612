"""Monte-Carlo quantum-trajectory simulation of noisy qudit circuits.

For registers too large for a density matrix (e.g. nine qutrits, D = 19683,
where rho would hold ~4x10^8 complex numbers), noise is unravelled into
stochastic Kraus jumps on a statevector: for each channel instruction one
Kraus operator is selected with its Born probability and the state is
renormalised.  Averaging over trajectories converges to the density-matrix
result; sampling measurement outcomes trajectory-by-trajectory reproduces
the noisy output distribution, which is all the QAOA/NDAR studies need.

**Batched engine.**  All trajectories evolve *simultaneously* as one tensor
with a trailing batch axis (shape ``dims + (B,)``), which every kernel in
:func:`~repro.core.statevector.apply_matrix` supports natively.  The engine
runs the circuit's compiled plan
(:meth:`~repro.core.circuit.QuditCircuit.plan`), the one the statevector
and density engines run, so same-wire gate runs and diagonal runs arrive
fused.  A unitary touches the whole batch in one structured kernel call; a
channel computes every Kraus candidate for every trajectory, selects one
branch per trajectory by vectorised inverse-CDF sampling of the Born
weights, and renormalises the whole batch at once; resets collapse and
re-zero a wire batch-wide.  This removes the per-trajectory Python
interpreter loop that dominated the seed implementation (see
``benchmarks/bench_core_engine.py`` and ``BENCH_core.json`` for the
measured speedup).  Batches are chunked so the *working set* stays bounded
however many trajectories are requested;
``sample``/``expectation``/``average_density`` stream over the chunks,
while ``run_batch``'s returned final-state array necessarily scales with
the request.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from .circuit import Instruction, PlanStep, QuditCircuit
from .dims import index_to_digits, total_dim
from .exceptions import SimulationError
from .rng import derive_seed, ensure_rng, spawn_seeds
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from .statevector import Statevector, apply_matrix, apply_step
from .structure import broadcast_over_targets

__all__ = ["TrajectorySimulator"]

#: Default cap on ``register_dim * batch`` amplitudes held at once (~64 MB
#: of complex128); larger trajectory requests are processed in chunks.
_MAX_BATCH_AMPLITUDES = 1 << 22


class TrajectorySimulator:
    """Stochastic noisy simulator over batched pure-state trajectories.

    Args:
        circuit: circuit containing unitary and channel instructions.
        seed: integer seed, a ``numpy.random.Generator`` to draw from, or
            ``None`` for the shared global generator (:mod:`repro.core.rng`)
            — pass one generator through a whole study for end-to-end
            reproducibility.
        max_batch: optional cap on trajectories evolved per chunk; defaults
            to whatever keeps the batch under ~64 MB of amplitudes.
    """

    def __init__(
        self,
        circuit: QuditCircuit,
        seed: int | np.random.Generator | None = None,
        max_batch: int | None = None,
    ) -> None:
        self.circuit = circuit
        self._rng = ensure_rng(seed)
        if max_batch is not None and max_batch < 1:
            raise SimulationError("max_batch must be >= 1")
        self._max_batch = max_batch

    # ------------------------------------------------------------------
    # batched engine
    # ------------------------------------------------------------------
    def _chunk_sizes(self, n_trajectories: int) -> list[int]:
        """Split a trajectory count into memory-bounded batch chunks."""
        dim = total_dim(self.circuit.dims)
        cap = self._max_batch or max(1, _MAX_BATCH_AMPLITUDES // dim)
        out = []
        remaining = n_trajectories
        while remaining > 0:
            take = min(cap, remaining)
            out.append(take)
            remaining -= take
        return out

    def evolve_states(
        self, tensor: np.ndarray, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Run the circuit once over a batch of states.

        Args:
            tensor: amplitudes of shape ``circuit.dims + (B,)`` — one
                trajectory per trailing-axis slice.  A rank-``n`` tensor
                (no batch axis) is also accepted and evolved as ``B = 1``.
            rng: generator for the stochastic draws of this run; defaults
                to the simulator's own stream.  The chunked drivers pass a
                spawned per-chunk generator here so each chunk's
                randomness is independent of every other chunk's draw
                count.

        Returns:
            The evolved batch, same shape as the input.
        """
        rng = self._rng if rng is None else rng
        dims = self.circuit.dims
        squeeze = tensor.ndim == len(dims)
        if squeeze:
            tensor = tensor[..., None]
        if tensor.shape[: len(dims)] != dims or tensor.ndim != len(dims) + 1:
            raise SimulationError(
                f"batch tensor shape {tensor.shape} does not match register "
                f"dims {dims} plus one batch axis"
            )
        for step in self.circuit.plan():
            if step.kind == "channel":
                tensor = self._jump_batch(tensor, step, rng)
            elif step.kind == "reset":
                tensor = self._reset_batch(tensor, step.instruction.qudits[0], rng)
            else:
                tensor = apply_step(tensor, step, dims)
        return tensor[..., 0] if squeeze else tensor

    def _categorical_draw(
        self,
        weights: np.ndarray,
        zero_message: str,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Vectorised inverse-CDF draw: one category per column of ``weights``.

        Args:
            weights: nonnegative array of shape ``(K, B)`` (need not be
                normalised per column).
            zero_message: error text when a column has zero total weight.
            rng: generator to draw from (defaults to the simulator stream).

        Returns:
            Integer array of shape ``(B,)`` with entries in ``[0, K)``.
        """
        totals = weights.sum(axis=0)
        if np.any(totals <= 0):
            raise SimulationError(zero_message)
        rng = self._rng if rng is None else rng
        draws = rng.random(weights.shape[1]) * totals
        cumulative = np.cumsum(weights, axis=0)
        return np.minimum(
            (cumulative < draws[None, :]).sum(axis=0), weights.shape[0] - 1
        )

    def _channel_weight_plan(self, instruction: Instruction) -> np.ndarray | None:
        """Born-weight GEMM plan for a channel, or ``None`` if inapplicable.

        When every Kraus operator ``K`` has diagonal ``K†K`` (true for
        diagonal and monomial operators and for column-sparse ops like
        photon loss), ``||K psi||^2 = sum_i G_ii |psi_i|^2`` — so all branch
        weights for the whole batch reduce to one ``(K, D) @ (D, B)`` matmul
        and only the selected branch ever needs applying.
        """
        dims = self.circuit.dims
        targets = list(instruction.qudits)
        rows = []
        for op in instruction.kraus:
            gram = op.conj().T @ op
            off = gram.copy()
            np.fill_diagonal(off, 0)
            if off.any():
                return None
            g_local = np.ascontiguousarray(np.real(np.diagonal(gram)))
            rows.append(
                np.broadcast_to(
                    broadcast_over_targets(g_local, dims, targets), dims
                ).reshape(-1)
            )
        return np.array(rows)

    def _jump_batch(
        self,
        tensor: np.ndarray,
        step: PlanStep,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Kraus jump on the whole batch: vectorised Born branch selection.

        The channel's Born-weight plan is built on first use and kept in
        the plan step's cache, so it lives exactly as long as the step.
        """
        instruction = step.instruction
        dims = self.circuit.dims
        kraus = instruction.kraus
        structures = instruction.kraus_structures()
        n_batch = tensor.shape[-1]
        dim = total_dim(dims)
        if "born" not in step.cache:
            step.cache["born"] = self._channel_weight_plan(instruction)
        weight_plan = step.cache["born"]
        flat = tensor.reshape(dim, n_batch)
        candidates: list[np.ndarray] | None = None
        if weight_plan is not None:
            born = flat.real**2 + flat.imag**2  # |psi_i|^2 per trajectory
            weights = weight_plan @ born
        else:
            candidates = []
            weights = np.empty((len(kraus), n_batch))
            for k, (op, structure) in enumerate(zip(kraus, structures)):
                cand = np.ascontiguousarray(
                    apply_matrix(
                        tensor, op, dims, instruction.qudits, structure=structure
                    ).reshape(dim, n_batch)
                )
                candidates.append(cand)
                view = cand.view(np.float64).reshape(dim, n_batch, 2)
                weights[k] = np.einsum("ibc,ibc->b", view, view)
        choice = self._categorical_draw(
            weights, "all Kraus branches annihilated the state", rng
        )
        norms = np.sqrt(weights[choice, np.arange(n_batch)])
        if candidates is not None:
            out = np.empty((dim, n_batch), dtype=complex)
            for k, cand in enumerate(candidates):
                mask = choice == k
                if mask.any():
                    out[:, mask] = cand[:, mask]
        else:
            # Apply the majority branch to the whole batch with one kernel
            # call, then patch only the minority columns — column masking
            # is far more expensive than the kernels themselves.
            counts = np.bincount(choice, minlength=len(kraus))
            major = int(counts.argmax())
            out = apply_matrix(
                tensor, kraus[major], dims, instruction.qudits,
                structure=structures[major],
            ).reshape(dim, n_batch)
            if not out.flags.writeable or out.base is tensor:
                out = out.copy()
            for k in range(len(kraus)):
                if k == major or counts[k] == 0:
                    continue
                mask = choice == k
                sub = np.ascontiguousarray(flat[:, mask]).reshape(dims + (-1,))
                out[:, mask] = apply_matrix(
                    sub, kraus[k], dims, instruction.qudits,
                    structure=structures[k],
                ).reshape(dim, -1)
        out /= norms[None, :]
        return out.reshape(tensor.shape)

    def _reset_batch(
        self,
        tensor: np.ndarray,
        wire: int,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Measure one wire batch-wide and send every outcome to |0>."""
        dims = self.circuit.dims
        d = dims[wire]
        n_batch = tensor.shape[-1]
        moved = np.moveaxis(tensor, wire, -2)  # (..., d, B)
        flat = moved.reshape(-1, d, n_batch)
        probs = (np.abs(flat) ** 2).sum(axis=0)  # (d, B)
        outcome = self._categorical_draw(
            probs, "cannot measure a zero-norm trajectory", rng
        )
        batch_idx = np.arange(n_batch)
        branch = flat[:, outcome, batch_idx]  # (D/d, B) amplitudes kept
        norms = np.sqrt(probs[outcome, batch_idx])
        collapsed = np.zeros_like(flat)
        collapsed[:, 0, :] = branch / norms[None, :]
        return np.moveaxis(collapsed.reshape(moved.shape), -2, wire)

    def run_batch(
        self, n_trajectories: int, initial: Statevector | None = None
    ) -> np.ndarray:
        """Evolve ``n_trajectories`` i.i.d. trajectories to their final states.

        Evolution is chunked so the *working* batch stays memory-bounded;
        note the returned array itself is ``O(dim * n_trajectories)`` — for
        huge trajectory counts prefer :meth:`sample` / :meth:`expectation`
        / :meth:`average_density`, which stream over the chunks.

        Returns:
            Complex array of shape ``(dim, n_trajectories)`` — column ``b``
            is trajectory ``b``'s final (normalised) statevector.
        """
        if n_trajectories < 1:
            raise SimulationError("need at least one trajectory")
        if initial is None:
            initial = Statevector.zero(self.circuit.dims)
        dim = initial.dim
        out = np.empty((dim, n_trajectories), dtype=complex)
        start = 0
        for final, _ in self._iter_batches(n_trajectories, initial):
            size = final.shape[1]
            out[:, start : start + size] = final
            start += size
        return out

    def _iter_batches(self, n_trajectories: int, initial: Statevector):
        """Yield ``(final_chunk, chunk_rng)`` pairs, one per memory chunk.

        Each chunk evolves under its own generator, seeded through
        :func:`~repro.core.rng.spawn_seeds` from a single draw on the
        simulator stream: chunk ``i``'s randomness depends only on that
        root and ``i`` — never on how many draws earlier chunks consumed —
        so per-chunk results are reproducible under any chunk execution
        order (the property the campaign runner's process pool relies on).
        The chunk generator is yielded alongside the final states so
        terminal sampling draws stay on the chunk's own stream.
        """
        dim = initial.dim
        sizes = self._chunk_sizes(n_trajectories)
        seeds = spawn_seeds(derive_seed(self._rng), len(sizes))
        for index, (size, seed) in enumerate(zip(sizes, seeds)):
            batch = np.ascontiguousarray(
                np.broadcast_to(
                    initial.tensor[..., None], initial.tensor.shape + (size,)
                )
            )
            gen = np.random.default_rng(seed)
            if _metrics.enabled or _tracing.enabled:
                _metrics.inc("trajectory_chunks", backend="trajectories")
                _metrics.inc(
                    "trajectories_evolved", size, backend="trajectories"
                )
                # The chunk is evolved inside the span, then yielded
                # outside it, so consumer time never inflates the span.
                with _tracing.span(
                    "trajectory_chunk",
                    backend="trajectories",
                    index=index,
                    size=size,
                ):
                    final = self.evolve_states(batch, rng=gen).reshape(dim, size)
                yield final, gen
            else:
                yield self.evolve_states(batch, rng=gen).reshape(dim, size), gen

    def _sample_indices(
        self, flat: np.ndarray, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """One Born-sampled basis index per trajectory column."""
        probs = np.abs(flat) ** 2
        return self._categorical_draw(
            probs, "cannot sample a zero-norm state", rng
        )

    # ------------------------------------------------------------------
    # reference (unbatched) implementation
    # ------------------------------------------------------------------
    def _run_single(self, initial: Statevector) -> Statevector:
        """Evolve one trajectory through the circuit (seed reference path).

        Kept as the correctness/benchmark baseline for the batched engine;
        not used by the public API.
        """
        state = initial
        for instruction in self.circuit:
            if instruction.kind == "unitary":
                state = state.apply(
                    instruction.matrix,
                    instruction.qudits,
                    structure=instruction.structure(),
                )
            elif instruction.kind == "channel":
                state = self._jump(state, instruction.kraus, instruction.qudits)
            elif instruction.kind == "measure":
                continue
            elif instruction.kind == "reset":
                wire = instruction.qudits[0]
                _, state = state.measure_qudit(wire, rng=self._rng)
                state = self._force_zero(state, wire)
            else:  # pragma: no cover - validated at circuit build time
                raise SimulationError(f"unknown kind {instruction.kind}")
        return state

    def _force_zero(self, state: Statevector, wire: int) -> Statevector:
        """Map whatever basis value the wire holds to |0> (post-measure reset)."""
        d = state.dims[wire]
        # After projective measurement the wire is in a definite basis state;
        # find it from the marginal and apply the cyclic shift sending it to 0.
        marginal = np.abs(state.tensor) ** 2
        axes = tuple(ax for ax in range(len(state.dims)) if ax != wire)
        probs = marginal.sum(axis=axes)
        value = int(np.argmax(probs))
        if value == 0:
            return state
        from .gates import weyl_x

        return state.apply(weyl_x(d, -value), wire)

    def _jump(
        self,
        state: Statevector,
        kraus: Sequence[np.ndarray],
        targets: tuple[int, ...],
    ) -> Statevector:
        """Pick one Kraus branch with Born probability and renormalise."""
        weights = []
        candidates = []
        for op in kraus:
            new = state.apply(op, targets)
            weight = new.norm() ** 2
            weights.append(weight)
            candidates.append(new)
        weights = np.asarray(weights)
        total = weights.sum()
        if total <= 0:
            raise SimulationError("all Kraus branches annihilated the state")
        choice = int(self._rng.choice(len(kraus), p=weights / total))
        return candidates[choice].normalized()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def sample(
        self,
        shots: int,
        initial: Statevector | None = None,
    ) -> dict[tuple[int, ...], int]:
        """Draw ``shots`` outcomes, one fresh trajectory per shot.

        All trajectories evolve together through the batched engine and
        terminal measurement is one vectorised Born draw per chunk.
        """
        if shots < 1:
            raise SimulationError("need at least one shot")
        if initial is None:
            initial = Statevector.zero(self.circuit.dims)
        counts: dict[tuple[int, ...], int] = {}
        for final, gen in self._iter_batches(shots, initial):
            indices = self._sample_indices(final, gen)
            values, occurrences = np.unique(indices, return_counts=True)
            for index, count in zip(values, occurrences):
                digits = index_to_digits(int(index), self.circuit.dims)
                counts[digits] = counts.get(digits, 0) + int(count)
        return counts

    def expectation(
        self,
        observable: Callable[[Statevector], float],
        n_trajectories: int,
        initial: Statevector | None = None,
    ) -> tuple[float, float]:
        """Trajectory-averaged expectation of a state functional.

        Args:
            observable: maps a final pure state to a real number.
            n_trajectories: number of stochastic repetitions.
            initial: starting state (defaults to all-|0>).

        Returns:
            ``(mean, standard_error)`` over trajectories.
        """
        if n_trajectories < 1:
            raise SimulationError("need at least one trajectory")
        if initial is None:
            initial = Statevector.zero(self.circuit.dims)
        dims = self.circuit.dims
        values = np.empty(n_trajectories)
        start = 0
        for final, _ in self._iter_batches(n_trajectories, initial):
            for b in range(final.shape[1]):
                values[start + b] = observable(Statevector(final[:, b], dims))
            start += final.shape[1]
        stderr = (
            float(values.std(ddof=1) / np.sqrt(n_trajectories))
            if n_trajectories > 1
            else 0.0
        )
        return float(values.mean()), stderr

    def matrix_expectation(
        self,
        operator: np.ndarray,
        n_trajectories: int,
        initial: Statevector | None = None,
    ) -> tuple[float, float]:
        """Trajectory-averaged ``<psi|O|psi>`` for a dense full-register operator.

        Fully vectorised over the batch — no per-trajectory Python loop —
        so it is the preferred form for observable sweeps.

        Returns:
            ``(mean, standard_error)`` of the real part over trajectories.
        """
        if n_trajectories < 1:
            raise SimulationError("need at least one trajectory")
        if initial is None:
            initial = Statevector.zero(self.circuit.dims)
        operator = np.asarray(operator, dtype=complex)
        values = np.empty(n_trajectories)
        start = 0
        for final, _ in self._iter_batches(n_trajectories, initial):
            values[start : start + final.shape[1]] = np.real(
                np.einsum("ib,ij,jb->b", final.conj(), operator, final)
            )
            start += final.shape[1]
        stderr = (
            float(values.std(ddof=1) / np.sqrt(n_trajectories))
            if n_trajectories > 1
            else 0.0
        )
        return float(values.mean()), stderr

    def average_density(
        self, n_trajectories: int, initial: Statevector | None = None
    ) -> np.ndarray:
        """Trajectory-averaged density matrix (small registers only)."""
        if n_trajectories < 1:
            raise SimulationError("need at least one trajectory")
        if initial is None:
            initial = Statevector.zero(self.circuit.dims)
        dim = initial.dim
        if dim > 512:
            raise SimulationError(
                f"register dim {dim} too large to accumulate a density matrix"
            )
        rho = np.zeros((dim, dim), dtype=complex)
        for final, _ in self._iter_batches(n_trajectories, initial):
            rho += final @ final.conj().T
        return rho / n_trajectories
