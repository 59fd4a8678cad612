"""Encoding noise-threshold study — reproduction of claim C1.

Ref [11] found that native qutrit encodings of the rotor dynamics
"tolerated gate errors 10-100 times higher than qubit encodings".  The
mechanism is gate-count leverage: the qudit Trotter step spends a handful
of entangling equivalents per bond, while the binary-encoded step expands
each bond term into dozens of Pauli strings, each with its own CNOT
ladder.  At fixed per-gate error the qubit circuit therefore accumulates
proportionally more damage.

This module measures it directly: for each encoding, sweep the
per-entangling-gate depolarising strength, score the damage to a local
observable trajectory, find the threshold where damage crosses a fixed
tolerance, and report the qudit/qubit threshold ratio.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..core.backends import get_backend
from ..core.exceptions import SimulationError
from .encodings import QubitEncoding, QuditEncoding, insert_depolarizing_noise
from .rotor import RotorChain
from .trotter import evolve_observable_trajectory

__all__ = [
    "trajectory_damage",
    "noise_threshold",
    "EncodingComparison",
    "compare_encodings",
    "damage_task",
    "damage_campaign",
    "noise_threshold_campaign",
]


def _excitation_profile(n_sites: int) -> list[int]:
    """One unit of electric flux on site 0 — a non-stationary probe state."""
    profile = [0] * n_sites
    profile[0] = 1
    return profile


def trajectory_damage(
    encoding,
    epsilon: float,
    t_total: float = 4.0,
    n_steps: int = 12,
    site: int = 0,
    method: str = "density",
    n_trajectories: int = 128,
    rng: np.random.Generator | int | None = 0,
    max_bond: int | None = 0,
    max_kraus: int | None = 0,
    target_error: float | None = None,
) -> float:
    """RMS deviation of the noisy <Lz_site(t)> trajectory from noiseless.

    Both trajectories use the *same* Trotter circuit, isolating the effect
    of noise from Trotter error (ref [11] scores the same way).  Every
    method records them with the one stepwise driver
    (:func:`~repro.sqed.trotter.evolve_observable_trajectory`) on the
    encoding's local ``local_lz(site)`` pair, so only the engine differs.

    Args:
        encoding: :class:`QuditEncoding` or :class:`QubitEncoding`.
        epsilon: per-entangling-gate depolarising probability.
        t_total: evolution window.
        n_steps: Trotter steps.
        site: probed lattice site.
        method: any registered backend name
            (:func:`~repro.core.backends.available_backends`).
            ``"density"`` is the exact density-matrix evolution,
            ``"trajectories"`` the batched Monte-Carlo unravelling once
            ``D^2`` no longer fits, ``"mps"`` the bond-truncated
            matrix-product-state engine (memory independent of ``D``, but
            channels are unravelled stochastically), ``"lpdo"`` the
            locally-purified density-MPO engine — *exact* channel
            application at MPS-like cost, so damage scores at 9-16
            qutrits carry no Monte-Carlo noise — and ``"auto"`` lets the
            cost model pick (sampling engines stay out, so the density
            matrix while ``D^2`` fits and the LPDO beyond).
        n_trajectories: stochastic width of the noisy run (``"trajectories"``
            / ``"mps"``); the noiseless run is deterministic and uses one.
        rng: generator / seed for the stochastic methods (defaults to a
            fixed seed so threshold bisection sees a deterministic score).
        max_bond: bond-dimension cap (``"mps"``/``"lpdo"``).  The ``0``
            default resolves to the historical cap of 64 — or, under a
            ``target_error`` contract with ``method="auto"``, to "let the
            autopilot plan choose".  ``None`` disables the cap.
        max_kraus: Kraus-leg cap (``"lpdo"`` only), same ``0``-default
            convention with a historical cap of 16; ``None`` keeps the
            legs at their exact rank.
        target_error: accuracy contract forwarded to the ``"auto"``
            backend — :func:`repro.exec.select_backend` then picks the
            engine *and* its caps so the predicted truncation +
            purification + sampling error stays within budget, instead
            of using the hand-set defaults above.

    Returns:
        RMS trajectory deviation (0 for epsilon = 0).

    Raises:
        SimulationError: for a negative epsilon or an unregistered method.
    """
    if epsilon < 0:
        raise SimulationError("epsilon must be >= 0")
    contract = target_error is not None and method == "auto"
    if max_bond == 0:
        max_bond = None if contract else 64
    if max_kraus == 0:
        max_kraus = None if contract else 16
    auto_options = {"target_error": target_error} if contract else {}
    backend = get_backend(
        method, max_bond=max_bond, max_kraus=max_kraus, **auto_options
    )
    if epsilon == 0:
        return 0.0
    digits = encoding.product_state_digits(_excitation_profile(encoding.chain.n_sites))
    operator, targets = encoding.local_lz(site)
    clean_step = encoding.trotter_step(t_total / n_steps)

    def lz_trajectory(step, width: int) -> np.ndarray:
        initial = backend.prepare(
            encoding.dims, digits, n_trajectories=width, rng=rng
        )
        return evolve_observable_trajectory(
            backend, initial, step, n_steps, operator, targets
        )

    # The noiseless step draws nothing, so one stochastic trajectory is exact.
    clean = lz_trajectory(clean_step, 1)
    noisy_step = insert_depolarizing_noise(clean_step, encoding, epsilon)
    noisy = lz_trajectory(noisy_step, n_trajectories)
    return float(np.sqrt(np.mean((noisy - clean) ** 2)))


def noise_threshold(
    encoding,
    damage_tol: float = 0.1,
    t_total: float = 4.0,
    n_steps: int = 12,
    eps_hi: float = 0.5,
    bisection_steps: int = 12,
    method: str = "density",
    n_trajectories: int = 128,
    rng: np.random.Generator | int | None = 0,
    max_bond: int | None = 0,
    max_kraus: int | None = 0,
    target_error: float | None = None,
) -> float:
    """Largest epsilon whose trajectory damage stays below ``damage_tol``.

    Damage grows monotonically with epsilon, and thresholds span orders of
    magnitude between encodings, so the bisection runs in log space: the
    lower bracket is walked down by decades until it is tolerable, then
    log-midpoint bisection refines it.

    Args:
        method, n_trajectories, rng, max_bond, max_kraus, target_error:
            forwarded to :func:`trajectory_damage`.  ``method`` is any
            registered backend name and every one runs through the same
            stepwise driver: ``"density"`` (the default) and ``"lpdo"``
            score exactly, so the bisection sees no Monte-Carlo jitter;
            ``"trajectories"`` and ``"mps"`` unravel the noise for
            registers too large for a density matrix.

    Returns:
        Threshold epsilon (clamped to ``eps_hi`` if never exceeded, and to
        ``1e-8`` from below if even that is intolerable).
    """

    def _damage(eps: float) -> float:
        return trajectory_damage(
            encoding,
            eps,
            t_total,
            n_steps,
            method=method,
            n_trajectories=n_trajectories,
            rng=rng,
            max_bond=max_bond,
            max_kraus=max_kraus,
            target_error=target_error,
        )

    if _damage(eps_hi) < damage_tol:
        return eps_hi
    lo = eps_hi
    for _ in range(10):
        lo /= 10.0
        if lo < 1e-8:
            return 1e-8
        if _damage(lo) < damage_tol:
            break
    hi = lo * 10.0
    for _ in range(bisection_steps):
        mid = float(np.sqrt(lo * hi))
        if _damage(mid) < damage_tol:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class EncodingComparison:
    """Result of the qudit-vs-qubit threshold comparison.

    Attributes:
        qudit_threshold: tolerable per-gate error, native encoding.
        qubit_threshold: tolerable per-gate error, binary encoding.
        threshold_ratio: qudit / qubit — the paper's 10-100x claim.
        qudit_entangling_per_step: CSUM-equivalents per Trotter step.
        qubit_cnots_per_step: CNOTs per Trotter step.
        gate_count_ratio: qubit CNOTs / qudit equivalents.
    """

    qudit_threshold: float
    qubit_threshold: float
    threshold_ratio: float
    qudit_entangling_per_step: int
    qubit_cnots_per_step: int
    gate_count_ratio: float


def compare_encodings(
    chain: RotorChain,
    damage_tol: float = 0.1,
    t_total: float = 4.0,
    n_steps: int = 12,
    bisection_steps: int = 10,
) -> EncodingComparison:
    """Run the full C1 experiment on one rotor chain.

    Returns:
        An :class:`EncodingComparison`; the headline number is
        ``threshold_ratio``, expected to land in the 10-100x band for the
        qutrit chain of ref [11].
    """
    qudit = QuditEncoding(chain)
    qubit = QubitEncoding(chain)
    qudit_threshold = noise_threshold(
        qudit, damage_tol, t_total, n_steps, bisection_steps=bisection_steps
    )
    qubit_threshold = noise_threshold(
        qubit, damage_tol, t_total, n_steps, bisection_steps=bisection_steps
    )
    if qubit_threshold <= 0:
        raise SimulationError("qubit threshold collapsed to zero")
    qudit_count = qudit.entangling_per_step()
    qubit_count = qubit.cnots_per_step()
    return EncodingComparison(
        qudit_threshold=qudit_threshold,
        qubit_threshold=qubit_threshold,
        threshold_ratio=qudit_threshold / qubit_threshold,
        qudit_entangling_per_step=qudit_count,
        qubit_cnots_per_step=qubit_count,
        gate_count_ratio=qubit_count / max(qudit_count, 1),
    )


# ----------------------------------------------------------------------
# campaign layer (repro.exec)
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=8)
def _build_encoding(encoding: str, n_sites: int, spin: int, hopping: float,
                    g2: float, mu: float, zz: float, periodic: bool):
    """The encoding of one rotor-chain spec, memoised per process.

    A worker's campaign points then share one encoding, its Trotter
    step circuits and their compiled plans.  Callers only run and copy
    what it returns, never mutate it.
    """
    chain = RotorChain(
        n_sites=n_sites, spin=spin, g2=g2, hopping=hopping, mu=mu, zz=zz,
        periodic=periodic,
    )
    if encoding == "qudit":
        return QuditEncoding(chain)
    if encoding == "qubit":
        return QubitEncoding(chain)
    raise SimulationError(f"unknown encoding {encoding!r}")


def damage_task(
    epsilon: float,
    n_sites: int = 3,
    spin: int = 1,
    encoding: str = "qudit",
    t_total: float = 4.0,
    n_steps: int = 12,
    site: int = 0,
    method: str = "auto",
    n_trajectories: int = 128,
    max_bond: int | None = 0,
    max_kraus: int | None = 0,
    target_error: float | None = None,
    g2: float = 1.0,
    hopping: float = 0.3,
    mu: float = 0.0,
    zz: float = 0.0,
    periodic: bool = False,
    seed: int = 0,
) -> float:
    """Campaign task: one encoding-damage score from plain parameters.

    This is :func:`trajectory_damage` re-packaged for the campaign runner
    (:mod:`repro.exec`): every input is a JSON-like value, the rotor chain
    and encoding are rebuilt inside the worker process, the campaign's
    spawned per-point seed arrives as ``seed``, and the return value is a
    plain float — so points are hashable for the result cache and
    picklable across the worker pool.

    Args:
        epsilon: per-entangling-gate depolarising probability (the usual
            sweep axis).
        n_sites, spin, g2, hopping, mu, zz, periodic: rotor-chain spec.
        encoding: ``"qudit"`` or ``"qubit"``.
        t_total, n_steps, site, method, n_trajectories, max_bond,
        max_kraus: forwarded to :func:`trajectory_damage` (``method="auto"``
        lets the cost model pick density/LPDO per register size).
        target_error: accuracy contract for ``method="auto"`` — the
            autopilot plans engine and caps to meet it, and the campaign
            executor escalates ``max_bond``/``max_kraus`` mid-run when a
            point's tracked error overruns the budget.
        seed: stochastic-method seed (ignored by exact methods).

    Returns:
        The RMS trajectory damage.
    """
    enc = _build_encoding(encoding, n_sites, spin, hopping, g2, mu, zz, periodic)
    return float(
        trajectory_damage(
            enc,
            float(epsilon),
            t_total=t_total,
            n_steps=n_steps,
            site=site,
            method=method,
            n_trajectories=n_trajectories,
            rng=seed,
            max_bond=max_bond,
            max_kraus=max_kraus,
            target_error=target_error,
        )
    )


def _damage_campaign_spec(epsilons, name, seed, task_params, target_error=None):
    from ..exec import Campaign, zip_sweep

    return Campaign(
        task="repro.sqed.noise_study:damage_task",
        sweep=zip_sweep(epsilon=[float(e) for e in epsilons]),
        name=name,
        base_params=task_params,
        seed=seed,
        target_error=target_error,
    )


def damage_campaign(
    epsilons,
    *,
    workers: int | None = None,
    cache=None,
    checkpoint=None,
    seed: int = 0,
    name: str = "sqed-damage",
    method: str = "auto",
    target_error: float | None = None,
    executor=None,
    policy=None,
    ledger=None,
    on_result=None,
    **task_params,
):
    """Score a whole epsilon sweep as one parallel, cached campaign.

    Args:
        epsilons: depolarising strengths to score (one campaign point each).
        workers: worker-process count (``None`` = serial; ignored when an
            ``executor`` is passed).
        cache: a :class:`repro.exec.ResultCache` or directory path —
            completed points are skipped on reruns and shared with any
            overlapping campaign (the bisection below).
        checkpoint: resumable JSON-lines progress file.
        seed: campaign root seed (per-point seeds are spawned from it).
        name: campaign label.
        method: simulation engine for :func:`damage_task` (``"auto"``
            lets the cost model pick per register).
        target_error: accuracy contract — planned caps per point via the
            autopilot (``method="auto"``), plus mid-run executor
            escalation when a point's tracked error overruns the budget.
        executor: an existing :class:`repro.exec.CampaignExecutor` to run
            on — its warm pool is reused instead of forking a fresh one.
        policy: a :class:`repro.exec.FailurePolicy` (or mode string)
            governing point failures for this campaign; defaults to the
            executor's policy.
        ledger: run-ledger override (a
            :class:`repro.obs.ledger.RunLedger`, a path, or ``False``
            to disable); by default the run record lands in the ledger
            co-located with the effective result cache.
        on_result: optional ``callback(point, value)`` fired as each
            epsilon resolves (completion order — cache hits first), via
            :meth:`repro.exec.CampaignHandle.on_result`.
        **task_params: fixed :func:`damage_task` parameters (``n_sites``,
            ``encoding``, ...).

    Returns:
        A :class:`repro.exec.CampaignResult` whose ``values`` align with
        ``epsilons``.
    """
    from ..exec import executor_scope

    task_params = dict(task_params, method=method)
    if target_error is not None:
        task_params["target_error"] = target_error
    campaign = _damage_campaign_spec(epsilons, name, seed, task_params, target_error)
    scope = executor_scope(
        executor, workers=workers, cache=cache, policy=policy, ledger=ledger
    )
    with scope as (ex, kwargs):
        handle = ex.submit(campaign, checkpoint=checkpoint, **kwargs)
        return handle.on_result(on_result).result()


def noise_threshold_campaign(
    damage_tol: float = 0.1,
    eps_hi: float = 0.5,
    bisection_steps: int = 12,
    *,
    workers: int | None = None,
    cache=None,
    seed: int = 0,
    method: str = "auto",
    target_error: float | None = None,
    executor=None,
    policy=None,
    ledger=None,
    on_result=None,
    **task_params,
) -> float:
    """Campaign-backed noise-threshold bisection, streamed.

    Mirrors :func:`noise_threshold`'s log-space search, but every damage
    probe is evaluated *as a campaign point* on one persistent
    :class:`~repro.exec.CampaignExecutor`: the decade ladder that
    brackets the threshold fans out over the warm pool and is consumed
    **as a stream** — the bracket resolves as soon as the first
    sub-tolerance rung arrives, and the ladder is then cancelled
    (:meth:`~repro.exec.CampaignHandle.cancel`), so the deeper rungs
    neither wait nor hold the pool: beyond what the serial search
    computes, the pool computes only the rungs already running or done
    when the bracket is decided — and every bisection midpoint reuses
    the same pool, so the serial midpoint walk never pays fork cost.
    All probes route through the shared result cache: re-running the
    bisection, or running it after a broad :func:`damage_campaign`
    over the same parameters, skips every previously-scored probe.  With
    the default exact scoring (``method="auto"`` selecting density/LPDO)
    the returned threshold is identical to the serial
    :func:`noise_threshold` — streaming changes wall-clock only, since
    rungs are consumed in deterministic point order.

    Args:
        damage_tol: tolerable RMS damage.
        eps_hi: upper bracket.
        bisection_steps: log-midpoint refinement steps.
        workers: worker processes for the ladder campaign (ignored when
            an ``executor`` is passed).
        cache: shared result cache (directory path or ResultCache).
        seed: campaign root seed.
        method: simulation engine for the damage probes (same semantics
            as :func:`damage_campaign`).
        target_error: accuracy contract for the probes (same semantics
            as :func:`damage_campaign`).
        executor: an existing :class:`repro.exec.CampaignExecutor`; by
            default one is created (and closed) for this bisection.
        policy: a :class:`repro.exec.FailurePolicy` (or mode string) for
            the probe campaigns; defaults to the executor's policy.
        ledger: run-ledger override for the probe campaigns (same
            semantics as :func:`damage_campaign`).
        on_result: optional ``callback(point, value)`` fired for every
            probe the bisection evaluates (single probes, ladder rungs,
            and midpoints alike), via
            :meth:`repro.exec.CampaignHandle.on_result`.
        **task_params: fixed :func:`damage_task` parameters.

    Returns:
        Threshold epsilon (same clamping rules as :func:`noise_threshold`).
    """
    from ..exec import executor_scope

    task_params = dict(task_params, method=method)
    if target_error is not None:
        task_params["target_error"] = target_error

    def spec(epsilons):
        return _damage_campaign_spec(
            epsilons, "sqed-threshold-probe", seed, task_params, target_error
        )

    scope = executor_scope(
        executor, workers=workers, cache=cache, policy=policy, ledger=ledger
    )
    with scope as (ex, kwargs):

        def probe_one(epsilon) -> float:
            handle = ex.submit(spec([epsilon]), **kwargs)
            return handle.on_result(on_result).result().values[0]

        if probe_one(eps_hi) < damage_tol:
            return eps_hi
        # Decade ladder: one parallel campaign, streamed in rung order.
        # The bracket is decided at the first sub-tolerance rung; the
        # ladder is then cancelled, so its deeper rungs stop taking pool
        # slots from the bisection midpoints.
        ladder = []
        lo = eps_hi
        for _ in range(10):
            lo /= 10.0
            if lo < 1e-8:
                break
            ladder.append(lo)
        handle = ex.submit(spec(ladder), **kwargs).on_result(on_result)
        lo = None
        for eps, damage in zip(ladder, handle.stream_results()):
            if damage < damage_tol:
                lo = eps
                break
        handle.cancel()
        if lo is None:
            return 1e-8
        hi = lo * 10.0
        for _ in range(bisection_steps):
            mid = float(np.sqrt(lo * hi))
            if probe_one(mid) < damage_tol:
                lo = mid
            else:
                hi = mid
        return lo
