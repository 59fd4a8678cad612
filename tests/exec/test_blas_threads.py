"""BLAS threads in the supervised pool.

Each pool worker runs one BLAS thread, whatever the pool's width.  The
parent sets that count once around spawning the workers and restores
its own afterwards, so forked workers inherit the count without starting
any BLAS thread, and the parent's in-process points keep the library
default.
"""

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from repro.core import blas
from repro.exec import Campaign, CampaignExecutor, FaultPlan, run_campaign, zip_sweep

pytestmark = pytest.mark.skipif(
    blas.threads() == blas.UNCONTROLLED, reason="no controllable OpenBLAS loaded"
)


def blas_task(x, seed=0):
    """The worker's BLAS thread counts (module-level: pool-importable)."""
    return blas.threads()


def os_threads_task(x, seed=0):
    """The worker's OS thread count; runs no BLAS."""
    return len(os.listdir("/proc/self/task"))


def _campaign(task, n=4):
    return Campaign(task=task, sweep=zip_sweep(x=list(range(n))), seed=5)


def _planned():
    return {name: 1 for name in blas.threads()}


def test_blas_threads_restores_each_library():
    before = blas.threads()
    with blas.blas_threads(1):
        assert set(blas.threads().values()) == {1}
    assert blas.threads() == before


def test_every_loaded_bundled_build_is_controlled():
    """numpy's and scipy's own OpenBLAS builds, once both are loaded."""
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    loaded = {
        os.path.basename(path).split("-")[0].split(".")[0]
        for path in blas._loaded_objects()
        if os.path.basename(path).startswith("libscipy_openblas")
    }
    assert loaded <= set(blas.threads())


def test_a_library_loaded_after_the_first_call_is_found():
    """Load the module before scipy: its libraries must still be found,
    as a copy of the module loaded after scipy finds them."""
    script = """
import importlib.util, json, sys

def load():
    spec = importlib.util.spec_from_file_location("blas_copy", sys.argv[1])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

early = load()
import numpy
before = early.threads()
import scipy.linalg
after = early.threads()
with early.blas_threads(1):
    inside = early.threads()
print(json.dumps([before, after, inside, load().threads()]))
"""
    out = subprocess.run(
        [sys.executable, "-c", script, blas.__file__],
        capture_output=True,
        text=True,
        check=True,
    )
    before, after, inside, fresh = json.loads(out.stdout)
    assert after == fresh
    assert set(before) <= set(after)
    assert set(inside) == set(after)
    assert set(inside.values()) == {1}


@pytest.mark.parametrize("width", [2, 3])
def test_pool_task_sees_the_planned_count(width):
    with CampaignExecutor(width) as executor:
        values = executor.run(_campaign(blas_task)).values
    assert values == [_planned()] * 4


def test_pool_spawned_under_a_one_thread_cap_runs_one_thread():
    before = blas.threads()
    with blas.blas_threads(1):
        with CampaignExecutor(2) as executor:
            values = executor.run(_campaign(blas_task)).values
        assert set(blas.threads().values()) == {1}
    assert values == [{name: 1 for name in before}] * 4
    assert blas.threads() == before


def test_parent_count_unchanged_after_warm_and_respawn():
    before = blas.threads()
    plan = FaultPlan(seed=0, p_kill=1.0, max_faulty_attempts=1)
    with CampaignExecutor(2) as executor:
        executor.warm()
        assert blas.threads() == before
        handle = executor.submit(_campaign(blas_task), faults=plan, policy="retry")
        values = handle.result().values
        assert executor.stats["respawns"] >= 1
        assert blas.threads() == before
    # Every point ran on a respawned worker.
    assert values == [_planned()] * 4


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="counts the OS threads of a forked worker",
)
def test_forked_worker_starts_no_blas_threads():
    """A worker that sets its BLAS count at start runs OpenBLAS's
    thread server, whose threads spin beside the worker's own.  (Linux
    only, like the module: BLAS control needs ``dl_iterate_phdr``.)"""
    with CampaignExecutor(2) as executor:
        values = executor.run(_campaign(os_threads_task)).values
    assert values == [1] * 4


def test_pool_without_blas_control_spawns_as_before(monkeypatch):
    monkeypatch.setattr(blas, "_libraries", lambda: ())
    assert blas.threads() == blas.UNCONTROLLED
    campaign = _campaign(blas_task)
    with CampaignExecutor(2) as executor:
        pooled = executor.run(campaign)
        assert executor.stats["pools_created"] == 1
    assert pooled.values == run_campaign(campaign).values


def test_spawned_worker_sets_the_planned_count(monkeypatch):
    """Under spawn nothing is inherited: the worker sets the count."""
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(multiprocessing, "get_context", lambda *a: spawn)
    with CampaignExecutor(2) as executor:
        values = executor.run(_campaign(blas_task, n=2)).values
    assert values == [_planned()] * 2
