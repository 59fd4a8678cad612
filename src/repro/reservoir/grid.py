"""Campaign-driven hyperparameter grids for the quantum reservoir.

The reservoir's prediction quality hinges on a handful of analog knobs —
drive gain/bias, ridge regularisation, shot budget — and the cited studies
tune them by grid search.  Serially that is hours of repeated Lindblad
propagation; as a campaign (:mod:`repro.exec`) the grid fans out over
worker processes, every (reservoir, task, split) evaluation is cached by
content, and re-tuning after a code change reuses every unchanged point.
"""

from __future__ import annotations

import numpy as np

from ..core.exceptions import SimulationError
from .oscillators import CoupledOscillators
from .readout import RidgeReadout, train_test_split
from .reservoir import QuantumReservoir
from .shots import sample_population_features
from .tasks import mackey_glass_task, narma_task, sine_square_task

__all__ = ["reservoir_nmse_task", "reservoir_grid_campaign"]


def _build_task(task: str, length: int, task_seed: int):
    if task == "narma2":
        return narma_task(length, order=2, seed=task_seed)
    if task == "narma10":
        return narma_task(length, order=10, seed=task_seed)
    if task == "mackey_glass":
        return mackey_glass_task(length)
    if task == "sine_square":
        return sine_square_task(length)
    raise SimulationError(f"unknown reservoir task {task!r}")


def reservoir_nmse_task(
    task: str = "narma2",
    length: int = 120,
    task_seed: int = 7,
    levels: int = 4,
    coupling: float = 1.2,
    kappa: float = 0.2,
    input_gain: float = 1.0,
    drive_bias: float = 1.0,
    dt: float = 1.0,
    alphas=(1e-4,),
    washout: int = 20,
    train_fraction: float = 0.7,
    shots: int = 0,
    seed: int = 0,
) -> list[dict]:
    """Campaign task: train/test NMSE of one reservoir at every ridge α.

    Builds the two-mode reservoir from plain parameters inside the worker,
    runs the input sequence once, optionally corrupts the features with a
    ``shots``-shot multinomial readout (``shots=0`` = exact features),
    then fits one ridge readout per α on the chronological training split
    and scores the held-out test span.  α only enters the readout, so
    every α shares one reservoir run and, with ``shots > 0``, one
    shot-noise draw.

    Args:
        task: ``"narma2"`` / ``"narma10"`` / ``"mackey_glass"`` /
            ``"sine_square"``.
        length, task_seed: input-sequence spec.
        levels, coupling, kappa, dt: oscillator parameters (symmetric
            ``kappa`` on both modes).
        input_gain, drive_bias: reservoir drive knobs.
        alphas: ridge regularisation strengths to score.
        washout, train_fraction: readout training spec.
        shots: projective shots per time step (0 = exact populations).
        seed: the campaign's spawned per-point seed (drives shot noise).

    Returns:
        One ``{"alpha", "nmse", "train_nmse", "n_features"}`` record per
        α, in the order of ``alphas``.
    """
    series = _build_task(task, int(length), int(task_seed))
    osc = CoupledOscillators(
        levels=int(levels),
        coupling=float(coupling),
        kappa_1=float(kappa),
        kappa_2=float(kappa),
    )
    reservoir = QuantumReservoir(
        osc,
        dt=float(dt),
        input_gain=float(input_gain),
        drive_bias=float(drive_bias),
    )
    features = reservoir.run(series.inputs)
    if int(shots) > 0:
        features = sample_population_features(features, int(shots), seed)
    f_tr, y_tr, f_te, y_te = train_test_split(
        features, series.targets, train_fraction, washout
    )
    records = []
    for alpha in alphas:
        readout = RidgeReadout(alpha=float(alpha)).fit(f_tr, y_tr)
        records.append({
            "alpha": float(alpha),
            "nmse": float(readout.score_nmse(f_te, y_te)),
            "train_nmse": float(readout.score_nmse(f_tr, y_tr)),
            "n_features": int(reservoir.n_features),
        })
    return records


def reservoir_grid_campaign(
    *,
    input_gains=(0.5, 1.0),
    drive_biases=(0.5, 1.0),
    alphas=(1e-4,),
    shot_budgets=(0,),
    workers: int | None = None,
    cache=None,
    checkpoint=None,
    seed: int = 0,
    executor=None,
    policy=None,
    ledger=None,
    on_result=None,
    **task_params,
) -> dict:
    """Grid-search reservoir hyperparameters as one streamed campaign.

    The campaign sweeps the reservoir axes ``(input_gain, drive_bias,
    shots)`` only: each point simulates its reservoir once and scores
    every ridge α on the same features (:func:`reservoir_nmse_task`), so
    a ``G x B x A x S`` grid costs ``G x B x S`` reservoir runs and
    reports ``G x B x A x S`` rows.

    Args:
        input_gains, drive_biases, alphas, shot_budgets: grid axes
            (Cartesian product).
        workers, cache, checkpoint, seed: campaign execution knobs
            (see :func:`repro.exec.run_campaign`; ``workers`` is ignored
            when an ``executor`` is given).
        executor: an existing :class:`repro.exec.CampaignExecutor` —
            re-tuning loops that sweep many grids reuse its warm pool.
        policy: a :class:`repro.exec.FailurePolicy` (or mode string) for
            the grid campaign; defaults to the executor's policy.
        ledger: run-ledger override (a
            :class:`repro.obs.ledger.RunLedger`, a path, or ``False``
            to disable); by default the run record lands in the ledger
            co-located with the effective result cache.
        on_result: optional ``callback(point, value)`` invoked as each
            grid point completes (pool completion order) — a progress
            hook for long grids; ``value`` is that point's list of
            per-α records.  The returned ``best`` is selected from the
            final deterministic ordering either way.
        **task_params: fixed :func:`reservoir_nmse_task` parameters.

    Returns:
        ``{"best": {...}, "rows": [...], "campaign": CampaignResult}``.
        ``rows`` holds one record per ``(input_gain, drive_bias, alpha,
        shots)`` combination: the point's parameters with ``alpha`` in
        place of ``alphas``, plus ``nmse``, ``train_nmse`` and
        ``n_features``.  They come in point order, one per α within a
        point; failed points contribute none.  ``best`` is the row with
        the lowest ``nmse`` (the first one on a tie).
    """
    from ..exec import Campaign, executor_scope, grid_sweep

    task_params = dict(task_params, alphas=[float(v) for v in alphas])
    campaign = Campaign(
        task="repro.reservoir.grid:reservoir_nmse_task",
        sweep=grid_sweep(
            input_gain=[float(v) for v in input_gains],
            drive_bias=[float(v) for v in drive_biases],
            shots=[int(v) for v in shot_budgets],
        ),
        name="reservoir-grid",
        base_params=task_params,
        seed=seed,
    )
    scope = executor_scope(
        executor, workers=workers, cache=cache, policy=policy, ledger=ledger
    )
    with scope as (ex, kwargs):
        handle = ex.submit(campaign, checkpoint=checkpoint, **kwargs)
        result = handle.on_result(on_result).result()
    rows = []
    for point, records in zip(result.points, result.values):
        params = {k: v for k, v in point.params.items() if k != "alphas"}
        rows.extend({**params, **record} for record in records or ())
    best_index = int(np.argmin([row["nmse"] for row in rows]))
    return {"best": rows[best_index], "rows": rows, "campaign": result}
