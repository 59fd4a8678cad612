"""Where the traced run wraps ``repro``: one entry per layer boundary.

Span names are ``<layer>.<what>``; the layer names are the ``repro``
subpackages (``exec``, ``sqed``, ``qaoa``, ``reservoir``, ``compile``,
``core``) plus ``kernel`` for the numpy/scipy linear algebra ``repro``
calls.  Study drivers and campaign tasks get spans of their own layer,
so time inside them that no finer wrapper claims is still that layer's
self time.
"""

from __future__ import annotations

import math

import numpy as np


def _len_result(key):
    return lambda args, kwargs, result: {key: len(result)}


def _eigh_flops(args, kwargs, result):
    """Computed from the shape, not measured: 9 n^3 (values and vectors),
    4/3 n^3 (values only), times 4 for complex input."""
    a = np.asarray(args[0])
    n = a.shape[-1]
    batch = math.prod(a.shape[:-2])
    vectors = isinstance(result, tuple) or hasattr(result, "eigenvectors")
    per = (9.0 if vectors else 4.0 / 3.0) * n**3
    return {"flops": batch * per * (4.0 if np.iscomplexobj(a) else 1.0)}


def install(tracer, handles: list) -> None:
    """Wrap every probed function; submitted handles go to ``handles``."""
    import numpy.linalg

    import repro.compile.synthesis as synthesis_pkg
    import repro.compile.synthesis.snap_displacement as snap
    import repro.core.gates
    import repro.exec.costmodel as costmodel
    import repro.qaoa.ndar as ndar
    import repro.qaoa.onehot
    import repro.reservoir.grid as grid
    import repro.reservoir.oscillators
    import repro.sqed.encodings
    import repro.sqed.noise_study as noise_study
    import repro.sqed.trotter
    from repro.core.density import DensityMatrix
    from repro.core.lpdo import LPDOState
    from repro.core.trajectories import TrajectorySimulator
    from repro.exec.cache import MISS, ResultCache
    from repro.exec.executor import CampaignExecutor, CampaignHandle
    from repro.obs.ledger import RunLedger
    from repro.reservoir.readout import RidgeReadout
    from repro.reservoir.reservoir import QuantumReservoir
    from repro.sqed.encodings import QubitEncoding, QuditEncoding
    from repro.sqed.rotor import RotorChain

    wrap = tracer.wrap

    # exec: submission, waiting on results, cache, ledger
    def keep_handle(args, kwargs, result):
        handles.append(result)
        return None

    wrap(CampaignExecutor, "submit", "exec.submit", keep_handle)
    wrap(CampaignHandle, "result", "exec.wait")
    tracer.wrap_generator(CampaignHandle, "stream_results", "exec.wait")
    wrap(
        ResultCache,
        "get",
        "exec.cache.get",
        lambda a, k, r: {"miss" if r is MISS else "hit": 1},
    )
    wrap(ResultCache, "put", "exec.cache.put")
    wrap(RunLedger, "append", "exec.ledger.append")

    # study drivers and campaign tasks
    for name in ("noise_threshold_campaign", "damage_campaign"):
        wrap(noise_study, name, "sqed.study")
    wrap(noise_study, "damage_task", "sqed.task")
    wrap(ndar, "ndar_restart_battery", "qaoa.study")
    wrap(ndar, "ndar_restart_task", "qaoa.task")
    wrap(grid, "reservoir_grid_campaign", "reservoir.study")
    wrap(grid, "reservoir_nmse_task", "reservoir.task")

    # sqed: circuit build and exact diagonalisation
    built = _len_result("instructions")
    wrap(QuditEncoding, "trotter_step", "sqed.circuit_build", built)
    wrap(QubitEncoding, "trotter_step", "sqed.circuit_build", built)
    wrap(noise_study, "insert_depolarizing_noise", "sqed.circuit_build", built)
    wrap(RotorChain, "spectrum", "sqed.ed")
    wrap(
        RotorChain,
        "to_matrix",
        "sqed.ed.build",
        lambda a, k, r: {"dim": r.shape[0]},
    )

    # qaoa / reservoir
    wrap(ndar, "run_ndar", "qaoa.ndar")
    wrap(QuantumReservoir, "run", "reservoir.run")
    wrap(RidgeReadout, "fit", "reservoir.readout")
    wrap(RidgeReadout, "score_nmse", "reservoir.readout")

    # compile: synthesis, its BFGS iterations and cost evaluations
    wrap(synthesis_pkg, "synthesize_unitary", "compile.synthesis")
    wrap(
        snap,
        "minimize",
        "compile.bfgs",
        lambda a, k, r: {"iterations": int(r.nit)} if r is not None else None,
    )
    tracer.count_calls(snap, "subspace_fidelity", "cost_evals")

    # core: engines and backend selection
    wrap(
        DensityMatrix,
        "evolve",
        "core.density.run",
        lambda a, k, r: {"instructions": len(a[1])},
    )
    wrap(LPDOState, "evolve", "core.lpdo.run")
    wrap(TrajectorySimulator, "sample", "core.trajectories.run")
    wrap(TrajectorySimulator, "evolve_states", "core.trajectories.run")
    wrap(costmodel, "select_backend", "core.auto.select")

    # kernel: numpy/scipy linear algebra as called from repro
    wrap(numpy.linalg, "svd", "kernel.svd")
    wrap(numpy.linalg, "qr", "kernel.qr")
    wrap(numpy.linalg, "eigh", "kernel.eigh", _eigh_flops)
    wrap(numpy.linalg, "eigvalsh", "kernel.eigh", _eigh_flops)
    for module in (
        repro.core.gates,
        repro.sqed.trotter,
        repro.sqed.encodings,
        repro.qaoa.onehot,
        repro.reservoir.oscillators,
    ):
        wrap(module, "expm", "kernel.expm")
