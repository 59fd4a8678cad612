"""Declarative parameter sweeps and the campaign specification.

A :class:`Sweep` is an ordered, immutable list of parameter dictionaries —
built by Cartesian product (:func:`grid_sweep`), lock-step pairing
(:func:`zip_sweep`), or seeded random sampling (:func:`random_sweep`).  A
:class:`Campaign` binds a sweep to a *task* (a module-level function named
``"package.module:function"`` so worker processes can import it), shared
base parameters, and a root seed.

Per-point seeds are derived with :func:`repro.core.rng.spawn_seeds`
(``SeedSequence`` spawning): point ``i``'s seed depends only on the root
seed and ``i``, never on execution order or process layout, so a campaign
produces bit-identical results run serially, in parallel, resumed from a
checkpoint, or sliced across overlapping campaigns.
"""

from __future__ import annotations

import importlib
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..core.exceptions import SimulationError
from .cache import Canonical, point_key, stable_hash

__all__ = [
    "Sweep",
    "grid_sweep",
    "zip_sweep",
    "random_sweep",
    "Campaign",
    "CampaignPoint",
    "resolve_task",
    "retry_seed",
    "task_ref",
]


@dataclass(frozen=True)
class Sweep:
    """An ordered set of parameter points (each a plain dict).

    Build with the module helpers rather than directly:

        >>> sweep = grid_sweep(epsilon=[0.01, 0.1], n_steps=[4, 8])
        >>> len(sweep)
        4
    """

    points: tuple[dict[str, Any], ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.points)

    def __getitem__(self, index: int) -> dict[str, Any]:
        return self.points[index]

    def __add__(self, other: "Sweep") -> "Sweep":
        """Concatenate two sweeps (duplicate points are kept)."""
        return Sweep(self.points + other.points)


def _check_axes(axes: Mapping[str, Sequence[Any]]) -> dict[str, list[Any]]:
    if not axes:
        raise SimulationError("a sweep needs at least one axis")
    out: dict[str, list[Any]] = {}
    for name, values in axes.items():
        values = list(values)
        if not values:
            raise SimulationError(f"axis {name!r} has no values")
        out[name] = values
    return out


def grid_sweep(**axes: Sequence[Any]) -> Sweep:
    """Cartesian product of the named axes (row-major, first axis slowest).

    Args:
        **axes: ``name=[value, ...]`` pairs.
    """
    checked = _check_axes(axes)
    points: list[dict[str, Any]] = [{}]
    for name, values in checked.items():
        points = [{**point, name: value} for point in points for value in values]
    return Sweep(tuple(points))


def zip_sweep(**axes: Sequence[Any]) -> Sweep:
    """Lock-step pairing of equal-length axes (like :func:`zip`).

    Args:
        **axes: ``name=[value, ...]`` pairs, all the same length.
    """
    checked = _check_axes(axes)
    lengths = {name: len(values) for name, values in checked.items()}
    if len(set(lengths.values())) != 1:
        raise SimulationError(f"zip_sweep axes differ in length: {lengths}")
    names = list(checked)
    return Sweep(
        tuple(dict(zip(names, combo)) for combo in zip(*checked.values()))
    )


def random_sweep(n_points: int, seed: int = 0, **specs: Any) -> Sweep:
    """Seeded random sampling over parameter axes.

    Each axis spec is one of:

    * ``(lo, hi)`` — uniform float on ``[lo, hi)``;
    * ``(lo, hi, "log")`` — log-uniform float on ``[lo, hi)``;
    * ``(lo, hi, "int")`` — uniform integer on ``[lo, hi)``;
    * a list — uniform choice from the listed values.

    Sampling is fully determined by ``seed`` (and the axis order given),
    so the same call always yields the same sweep.

    Args:
        n_points: number of points to draw.
        seed: sampling seed.
        **specs: per-axis sampling specs.
    """
    if n_points < 1:
        raise SimulationError("need at least one random point")
    if not specs:
        raise SimulationError("a sweep needs at least one axis")
    rng = np.random.default_rng(seed)
    columns: dict[str, list[Any]] = {}
    for name, spec in specs.items():
        if isinstance(spec, list):
            if not spec:
                raise SimulationError(f"axis {name!r} has no values")
            idx = rng.integers(0, len(spec), size=n_points)
            columns[name] = [spec[int(i)] for i in idx]
        elif isinstance(spec, tuple) and len(spec) in (2, 3):
            lo, hi = float(spec[0]), float(spec[1])
            mode = spec[2] if len(spec) == 3 else "uniform"
            if mode == "log":
                if lo <= 0 or hi <= 0:
                    raise SimulationError(f"log axis {name!r} needs positive bounds")
                draws = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n_points))
                columns[name] = [float(v) for v in draws]
            elif mode == "int":
                draws = rng.integers(int(spec[0]), int(spec[1]), size=n_points)
                columns[name] = [int(v) for v in draws]
            elif mode == "uniform":
                draws = rng.uniform(lo, hi, size=n_points)
                columns[name] = [float(v) for v in draws]
            else:
                raise SimulationError(f"unknown sampling mode {mode!r}")
        else:
            raise SimulationError(
                f"axis {name!r}: expected (lo, hi[, mode]) or a value list"
            )
    names = list(columns)
    return Sweep(
        tuple({name: columns[name][i] for name in names} for i in range(n_points))
    )


def task_ref(task: str | Callable[..., Any]) -> str:
    """Canonical ``"module:function"`` reference of a campaign task.

    Args:
        task: either a reference string (validated by resolving it) or a
            module-level callable (its import path is derived and checked
            to round-trip, so worker processes are guaranteed to find it).
    """
    if isinstance(task, str):
        resolve_task(task)  # validate eagerly: fail at build, not in a worker
        return task
    ref = f"{task.__module__}:{task.__qualname__}"
    if resolve_task(ref) is not task:
        raise SimulationError(
            f"task {task!r} is not importable as {ref!r} — campaign tasks "
            f"must be module-level functions"
        )
    return ref


def resolve_task(ref: str) -> Callable[..., Any]:
    """Import the callable named by a ``"module:function"`` reference."""
    module_name, _, attr = ref.partition(":")
    if not module_name or not attr:
        raise SimulationError(
            f"task reference {ref!r} is not of the form 'module:function'"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise SimulationError(f"cannot import task module {module_name!r}: {exc}")
    obj: Any = module
    for part in attr.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            raise SimulationError(f"module {module_name!r} has no task {attr!r}")
    if not callable(obj):
        raise SimulationError(f"task {ref!r} is not callable")
    return obj


@dataclass(frozen=True)
class CampaignPoint:
    """One fully-resolved unit of campaign work.

    Attributes:
        index: position in the campaign's deterministic point order.
        params: merged parameter dict (base params overridden by the
            sweep point's values).
        seed: the point's spawned seed (``None`` for unseeded campaigns).
        key: content-hash cache key (stable across processes).
    """

    index: int
    params: dict[str, Any]
    seed: int | None
    key: str


@dataclass(frozen=True)
class Campaign:
    """A declarative batch of task evaluations.

    Attributes:
        task: module-level function reference (``"module:function"`` or
            the function itself).  The task is called as
            ``task(**params)``; seeded campaigns additionally inject a
            ``seed=<int>`` keyword (unless the params already carry one).
            Return values must be JSON-representable (numbers, strings,
            lists, dicts, numpy scalars/arrays) so they can be cached and
            checkpointed.
        sweep: the parameter points.
        name: label used in checkpoints and reports.
        base_params: parameters shared by every point (a sweep value with
            the same name wins).
        seed: root seed; per-point seeds are spawned from it so results
            do not depend on execution order.  ``None`` disables seed
            injection (deterministic tasks).
        version: bumped manually to invalidate cached results when the
            task's *implementation* changes without its signature changing.
        target_error: default error-budget contract for executions of
            this campaign — the executor re-runs points whose tracked
            truncation/purification error exceeds it, with escalated
            caps (see :meth:`repro.exec.CampaignExecutor.submit`).
            Deliberately *not* part of any point's cache key: the
            contract governs how points are executed, not what they
            compute.
    """

    task: str | Callable[..., Any]
    sweep: Sweep
    name: str = "campaign"
    base_params: Mapping[str, Any] = field(default_factory=dict)
    seed: int | None = 0
    version: str = "1"
    target_error: float | None = None

    def __len__(self) -> int:
        return len(self.sweep)

    @property
    def task_reference(self) -> str:
        """Canonical importable task reference."""
        return task_ref(self.task)

    def points(self) -> list[CampaignPoint]:
        """Resolve the sweep into hashable, seeded campaign points.

        A point's seed is spawned from a :class:`~numpy.random.SeedSequence`
        keyed on ``(campaign.seed, stable_hash(params))`` — it depends only
        on the root seed and the point's *content*, never on its position,
        execution order, worker layout, or process boundary.  Two
        campaigns sharing a root seed therefore assign the *same* seed
        (and the same cache key) to the same parameter point even when
        their sweeps differ in shape, which is what lets an adaptive
        bisection reuse points a broad sweep already computed.
        """
        ref = self.task_reference
        out: list[CampaignPoint] = []
        for index, values in enumerate(self.sweep):
            params = {**dict(self.base_params), **values}
            # The params are encoded once and hashed into both the seed
            # and the key.
            encoded = Canonical(params)
            # A 'seed' pinned in the params wins over spawning (the runner
            # never injects in that case), and the spawned value must then
            # stay out of the cache key too — otherwise identical
            # computations under different root seeds would miss each
            # other's cached results.
            seed = (
                _point_seed(self.seed, encoded)
                if self.seed is not None and "seed" not in params
                else None
            )
            out.append(
                CampaignPoint(
                    index=index,
                    params=params,
                    seed=seed,
                    key=point_key(ref, self.version, encoded, seed),
                )
            )
        return out


def _point_seed(root: int, params: Canonical) -> int:
    """Content-keyed seed spawn: depends only on (root, params)."""
    entropy = int(stable_hash(params)[:16], 16)
    child = np.random.SeedSequence([int(root) & (2**63 - 1), entropy])
    return int(child.generate_state(2, np.uint64)[0])


def retry_seed(point: CampaignPoint, attempt: int) -> int:
    """Deterministic per-``(point, attempt)`` seed for retry machinery.

    Used for backoff jitter (:meth:`repro.exec.FailurePolicy.backoff_delay`)
    and available to fault-injection schedules.  Deliberately *distinct*
    from the point's task seed: a retried execution must reuse the
    original spawned seed bit-for-bit (so recovered results equal the
    serial run), while the retry machinery still needs decorrelated
    randomness per attempt.  Depends only on the point's content key and
    the attempt number — never on wall-clock or process identity.

    Args:
        point: the resolved campaign point.
        attempt: 1-based execution attempt.

    Returns:
        A 63-bit seed, stable across processes and runs.
    """
    entropy = int(point.key[:16], 16)
    child = np.random.SeedSequence([entropy, int(attempt)])
    return int(child.generate_state(1, np.uint64)[0]) & (2**63 - 1)
