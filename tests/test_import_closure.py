"""Each study's modules load only the heavy dependencies that study runs.

``networkx`` (device graph, routing, coloring), ``scipy.optimize``
(damped-cosine fit, QAOA/QRAC optimisers, SNAP synthesis) and
``http.server`` (the telemetry endpoint) cost tenths of a second to
import.  Every case runs in a fresh interpreter with ``src`` first on its
path and reports which of them ended up in ``sys.modules``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
HEAVY = ("networkx", "scipy.optimize", "http.server")


def loaded_after(*steps: str, watch: tuple[str, ...] = HEAVY) -> list[set[str]]:
    """Run ``steps`` in order in one child; the ``watch`` packages loaded
    (themselves or any submodule) after each."""
    lines = ["import json, sys", f"sys.path.insert(0, {SRC!r})"]
    loaded = (
        f"[w for w in {watch!r} "
        "if any(m == w or m.startswith(w + '.') for m in sys.modules)]"
    )
    for step in steps:
        lines.append(step)
        lines.append(f"print(json.dumps({loaded}))")
    out = subprocess.run(
        [sys.executable, "-c", "\n".join(lines)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return [set(json.loads(line)) for line in out.stdout.splitlines()[-len(steps) :]]


@pytest.mark.parametrize(
    "modules, absent",
    [
        (("repro",), HEAVY),
        (
            ("repro.qaoa.ndar", "repro.reservoir.grid"),
            ("scipy.optimize", "http.server"),
        ),
        (
            ("repro.sqed.rotor", "repro.compile.synthesis", "repro.core.gates"),
            ("networkx", "http.server"),
        ),
    ],
    ids=["repro", "table1", "paper-claims"],
)
def test_study_imports_skip_unused_dependencies(modules, absent):
    (loaded,) = loaded_after("; ".join(f"import {name}" for name in modules))
    assert not loaded & set(absent)


def test_ec1_damage_task_never_loads_networkx_or_scipy_optimize():
    """Nor ``repro.compile`` or ``repro.hardware``: a 3D swap-network
    estimate is the only sQED use of them, and imports them when run."""
    after_import, after_run = loaded_after(
        "import repro.sqed.noise_study as noise_study",
        "noise_study.damage_task(0.01, n_sites=2, t_total=1.0, n_steps=1, "
        "method='density')",
        watch=HEAVY + ("repro.compile", "repro.hardware"),
    )
    assert not after_import
    assert not after_run & {"networkx", "scipy.optimize"}
    assert not after_run & {"repro.compile", "repro.hardware"}


def test_obs_server_loads_on_first_use():
    after_import, after_use = loaded_after(
        "import repro.obs as obs",
        "assert obs.ObsServer is obs.serve.ObsServer",
    )
    assert "http.server" not in after_import
    assert "http.server" in after_use
