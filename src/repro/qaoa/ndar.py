"""Noise-Directed Adaptive Remapping (NDAR) for qudit QAOA.

Reproduction of claim C3 (paper §II.B, via Maciejewski et al. [21]): on a
noisy processor whose dominant error channel has an *attractor* state —
photon loss drives every cavity qudit toward ``|0>`` — the attractor can be
used as a search primitive.  After each round, relabel every qudit's basis
(a gauge transformation of the cost function) so that the best solution
found so far sits at the attractor ``|0...0>``.  Subsequent noisy rounds
then sample the neighbourhood of the incumbent, and the bias that destroys
vanilla QAOA becomes hill-climbing pressure.

The qudit generalisation replaces the Ising Z2 gauge freedom with the
``S_d`` per-qudit level-permutation freedom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.exceptions import SimulationError
from ..core.rng import derive_seed, spawn_seeds
from ..core.trajectories import TrajectorySimulator
from .circuits import add_photon_loss, qaoa_circuit
from .coloring import ColoringProblem
from .optimizer import linear_ramp_schedule

__all__ = [
    "NdarRound",
    "NdarResult",
    "run_ndar",
    "sample_noisy_qaoa",
    "ndar_restart_task",
    "ndar_restart_battery",
]


def sample_noisy_qaoa(
    problem: ColoringProblem,
    gammas,
    betas,
    loss_per_layer: float,
    shots: int,
    permutations: list[list[int]] | None = None,
    seed: int | np.random.Generator | None = None,
    method: str = "trajectories",
    target_error: float | None = None,
) -> dict[tuple[int, ...], int]:
    """Sample a noisy QAOA circuit via batched quantum trajectories.

    All ``shots`` trajectories evolve together through the batched engine
    (one vectorised kernel call per gate/channel).

    Args:
        problem: coloring instance.
        gammas: phase angles.
        betas: mixing angles.
        loss_per_layer: photon-loss probability inserted per mixing layer.
        shots: samples (= trajectories).
        permutations: NDAR gauge remap folded into the phase separator.
        seed: integer seed or a generator to draw from — pass one generator
            across rounds for end-to-end reproducibility.
        method: ``"trajectories"`` (the seed behaviour — batched MC
            unravelling) or ``"auto"``, which routes through
            :func:`repro.core.backends.get_backend` and lets the cost
            model pick the engine; sampling engines are allowed since
            the output is a shot histogram anyway.
        target_error: accuracy contract for ``method="auto"`` — the
            autopilot sizes caps/trajectory counts so the predicted
            error meets the budget.
    """
    circuit = qaoa_circuit(problem, gammas, betas, permutations)
    noisy = add_photon_loss(circuit, loss_per_layer)
    if method == "trajectories":
        return TrajectorySimulator(noisy, seed=seed).sample(shots)
    if method != "auto":
        raise SimulationError(f"unknown sampling method {method!r}")
    from ..core.backends import get_backend

    options: dict = {"allow_sampling": True}
    if target_error is not None:
        options["target_error"] = target_error
    backend = get_backend("auto", **options)
    run_seed, sample_seed = spawn_seeds(derive_seed(seed), 2)
    return backend.run(noisy, rng=run_seed).sample(shots, rng=sample_seed)


def _decode(sample: tuple[int, ...], permutations: list[list[int]]) -> tuple[int, ...]:
    """Map a measured digit string back to an original-problem coloring."""
    return tuple(permutations[node][digit] for node, digit in enumerate(sample))


def _attractor_permutation(best: tuple[int, ...], d: int) -> list[list[int]]:
    """Per-node permutations sending the incumbent coloring to |0...0>.

    We need ``pi_v(0) = best_v`` so that the attractor state decodes to the
    incumbent; the rest of each permutation is the cyclic completion.
    """
    perms = []
    for color in best:
        perms.append([(color + k) % d for k in range(d)])
    return perms


@dataclass(frozen=True)
class NdarRound:
    """Bookkeeping for one NDAR round."""

    round_index: int
    best_cost_seen: int
    round_best_cost: int
    mean_sampled_cost: float
    attractor_cost: int


@dataclass(frozen=True)
class NdarResult:
    """Outcome of an NDAR (or vanilla) noisy-QAOA campaign.

    Attributes:
        best_cost: lowest clash count ever sampled.
        best_assignment: the corresponding coloring (original problem frame).
        approximation_ratio: against brute-force best.
        rounds: per-round records.
    """

    best_cost: int
    best_assignment: tuple[int, ...]
    approximation_ratio: float
    rounds: tuple[NdarRound, ...]


def run_ndar(
    problem: ColoringProblem,
    n_rounds: int = 5,
    shots: int = 60,
    loss_per_layer: float = 0.15,
    p: int = 1,
    adaptive: bool = True,
    angles: tuple | None = None,
    seed: int | np.random.Generator | None = None,
    method: str = "trajectories",
    target_error: float | None = None,
) -> NdarResult:
    """Run the NDAR loop (or the vanilla baseline with ``adaptive=False``).

    Each round samples the noisy QAOA circuit, decodes samples through the
    current gauge, updates the incumbent, and (if adaptive) re-gauges so
    the incumbent sits at the photon-loss attractor.

    Args:
        problem: coloring instance.
        n_rounds: NDAR rounds.
        shots: samples per round.
        loss_per_layer: photon-loss strength per QAOA layer.
        p: QAOA depth.
        adaptive: enable the remapping (False = vanilla noisy QAOA with the
            same total shot budget, the paper's comparison baseline).
        angles: optional fixed ``(gammas, betas)``; defaults to the linear
            ramp (NDAR's gain does not require per-round re-optimisation).
        seed: RNG seed.
        method, target_error: sampling engine and accuracy contract,
            forwarded to :func:`sample_noisy_qaoa` each round.

    Returns:
        An :class:`NdarResult`.
    """
    if n_rounds < 1 or shots < 1:
        raise SimulationError("need >= 1 round and >= 1 shot")
    # One spawned child seed per round: round i's sampling depends only on
    # (seed, i), not on how many draws earlier rounds consumed, so a
    # campaign re-running a prefix of rounds reproduces them bit-for-bit.
    round_seeds = spawn_seeds(derive_seed(seed), n_rounds)
    d = problem.n_colors
    gammas, betas = angles if angles is not None else linear_ramp_schedule(p)
    identity = [list(range(d)) for _ in range(problem.n_nodes)]
    permutations = identity
    best_cost: int | None = None
    best_assignment: tuple[int, ...] | None = None
    rounds: list[NdarRound] = []
    for round_index in range(n_rounds):
        counts = sample_noisy_qaoa(
            problem,
            gammas,
            betas,
            loss_per_layer,
            shots,
            permutations=permutations if adaptive else None,
            seed=round_seeds[round_index],
            method=method,
            target_error=target_error,
        )
        round_best = None
        weighted_cost = 0.0
        total = 0
        for sample, count in counts.items():
            decoded = _decode(sample, permutations) if adaptive else sample
            cost = problem.cost(decoded)
            weighted_cost += cost * count
            total += count
            if round_best is None or cost < round_best[0]:
                round_best = (cost, decoded)
        assert round_best is not None
        if best_cost is None or round_best[0] < best_cost:
            best_cost, best_assignment = round_best
        attractor = _decode((0,) * problem.n_nodes, permutations)
        rounds.append(
            NdarRound(
                round_index=round_index,
                best_cost_seen=int(best_cost),
                round_best_cost=int(round_best[0]),
                mean_sampled_cost=weighted_cost / total,
                attractor_cost=problem.cost(attractor),
            )
        )
        if adaptive:
            permutations = _attractor_permutation(best_assignment, d)
    assert best_cost is not None and best_assignment is not None
    return NdarResult(
        best_cost=int(best_cost),
        best_assignment=tuple(best_assignment),
        approximation_ratio=problem.approximation_ratio(best_cost),
        rounds=tuple(rounds),
    )


# ----------------------------------------------------------------------
# campaign layer (repro.exec)
# ----------------------------------------------------------------------
def ndar_restart_task(
    restart: int = 0,
    n_nodes: int = 6,
    n_colors: int = 3,
    degree: int = 3,
    graph_seed: int = 0,
    n_rounds: int = 5,
    shots: int = 60,
    loss_per_layer: float = 0.15,
    p: int = 1,
    adaptive: bool = True,
    method: str = "trajectories",
    target_error: float | None = None,
    seed: int = 0,
) -> dict:
    """Campaign task: one independent seeded NDAR run on a fixed instance.

    The coloring instance is rebuilt from ``(n_nodes, n_colors, degree,
    graph_seed)`` inside the worker, so the point is fully described by
    plain parameters — hashable for the result cache, picklable for the
    pool.  ``restart`` carries no physics; it distinguishes the battery's
    otherwise-identical points so each draws its own spawned ``seed``.

    Returns:
        ``{"best_cost", "approximation_ratio", "best_assignment"}``.
    """
    from .coloring import random_coloring_instance

    problem = random_coloring_instance(
        n_nodes, n_colors, degree=degree, seed=graph_seed
    )
    result = run_ndar(
        problem,
        n_rounds=n_rounds,
        shots=shots,
        loss_per_layer=loss_per_layer,
        p=p,
        adaptive=adaptive,
        seed=seed,
        method=method,
        target_error=target_error,
    )
    return {
        "restart": int(restart),
        "best_cost": int(result.best_cost),
        "approximation_ratio": float(result.approximation_ratio),
        "best_assignment": list(result.best_assignment),
    }


def ndar_restart_battery(
    n_restarts: int = 8,
    *,
    workers: int | None = None,
    cache=None,
    checkpoint=None,
    seed: int = 0,
    target_cost: int | None = None,
    method: str = "trajectories",
    target_error: float | None = None,
    executor=None,
    policy=None,
    ledger=None,
    on_result=None,
    **task_params,
) -> dict:
    """Run an NDAR restart battery as one streamed, cached campaign.

    The paper's NDAR protocol is usually repeated from independent seeds
    and the best incumbent kept; this driver turns that battery into a
    campaign — restarts fan out across the worker pool, completed
    restarts are cached/checkpointed, and the summary aggregates
    deterministically (per-restart seeds are spawned, so the battery's
    outcome is independent of scheduling).

    With ``target_cost`` the battery **early-stops**: restarts are
    consumed as a stream in restart order, and consumption halts at the
    first restart whose best cost reaches the target — later restarts
    are neither waited for nor aggregated.  Because the stream order is
    the deterministic point order (not pool completion order), the
    early-stopped summary is bit-identical at any worker count.

    Args:
        n_restarts: independent NDAR repetitions.
        workers, cache, checkpoint, seed: forwarded to the executor /
            campaign spec (``workers`` is ignored when ``executor`` is
            given).
        target_cost: stop consuming once a restart's ``best_cost`` is
            ``<=`` this value (``None`` = run the full battery).
        method: sampling engine for every restart
            (:func:`sample_noisy_qaoa` semantics).
        target_error: accuracy contract for ``method="auto"`` restarts;
            also arms the executor's mid-run cap escalation.
        executor: an existing :class:`repro.exec.CampaignExecutor` whose
            warm pool should be reused.
        policy: a :class:`repro.exec.FailurePolicy` (or mode string) for
            the battery; defaults to the executor's policy.
        ledger: run-ledger override (a
            :class:`repro.obs.ledger.RunLedger`, a path, or ``False``
            to disable); by default the run record lands in the ledger
            co-located with the effective result cache.
        on_result: optional ``callback(point, value)`` fired as each
            restart resolves (completion order), via
            :meth:`repro.exec.CampaignHandle.on_result`; independent of
            the early-stop stream, which consumes in point order.
        **task_params: fixed :func:`ndar_restart_task` parameters
            (``n_nodes``, ``loss_per_layer``, ``n_rounds``, ...).

    Returns:
        ``{"best_cost", "best_restart", "approximation_ratio",
        "best_assignment", "mean_best_cost", "n_evaluated",
        "stopped_early", "campaign"}`` with ``campaign`` the underlying
        :class:`repro.exec.CampaignResult`.  When early-stopped it is a
        partial result over whatever points had resolved by stop time
        (at least the evaluated prefix; its ``points`` say exactly
        which) — the *summary* fields aggregate only the deterministic
        evaluated prefix.
    """
    from ..exec import Campaign, executor_scope, zip_sweep

    task_params = dict(task_params, method=method)
    if target_error is not None:
        task_params["target_error"] = target_error
    campaign = Campaign(
        task="repro.qaoa.ndar:ndar_restart_task",
        sweep=zip_sweep(restart=list(range(int(n_restarts)))),
        name="ndar-restart-battery",
        base_params=task_params,
        seed=seed,
        target_error=target_error,
    )
    scope = executor_scope(
        executor, workers=workers, cache=cache, policy=policy, ledger=ledger
    )
    with scope as (ex, kwargs):
        handle = ex.submit(campaign, checkpoint=checkpoint, **kwargs)
        handle.on_result(on_result)
        records: list[dict] = []
        stopped_early = False
        for record in handle.stream_results():
            records.append(record)
            if target_cost is not None and record["best_cost"] <= target_cost:
                stopped_early = True
                break
        if stopped_early:
            handle.cancel()  # the unread restarts stop occupying the pool
            result = handle.partial_result()
        else:
            result = handle.result()
    best = min(records, key=lambda record: record["best_cost"])
    return {
        "best_cost": best["best_cost"],
        "best_restart": best["restart"],
        "approximation_ratio": best["approximation_ratio"],
        "best_assignment": best["best_assignment"],
        "mean_best_cost": float(
            np.mean([record["best_cost"] for record in records])
        ),
        "n_evaluated": len(records),
        "stopped_early": stopped_early,
        "campaign": result,
    }
