"""The four paper studies, their seeded inputs, and their correctness checks.

Each study is run the way a user runs it: through the public driver in
``repro``, on the executor the harness hands in.  ``cold`` answers the
study with an empty result cache and ``replay`` answers it again; both
return ``(answer, operations, failures)``.  ``check`` compares the two
answers with the paper's claims and returns one message per miss.

Every input that depends on the workload seed is drawn from it by the
study; the program only ever sees the drawn values.  Checks on
seed-dependent outputs are properties (band, floor, replay == cold);
pinned reference values apply only to seed-free inputs.
"""

from __future__ import annotations

import numpy as np

#: ``RotorChain(6, spin=1, g2=g, hopping=0.3).mass_gap()`` by dense ED.
ED_SITES = 6
ED_GAPS = {
    0.5: 0.08678553141234002,
    1.0: 0.19743167608102163,
    2.0: 0.5806321716290483,
}
ED_TOL = 1e-10

#: 12-site qutrit chain, LPDO (max_bond=24, max_kraus=8), eps = 0.03.
#: Equal across BLAS thread counts only to ~1e-12, hence the tolerance.
LPDO_DAMAGE = 0.05521280744
LPDO_TOL = 1e-9

NDAR_FLOOR = 0.6  # Table I row 2 bench floor on the approximation ratio
SYNTHESIS_BAR = 1e-2  # E-C2: fidelity above 99 %
EC1_BAND = (10.0, 100.0)  # E-C1: qudit threshold 10-100x the qubit one


def _seeds(seed: int, n: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(x) for x in rng.integers(0, 2**31 - 1, size=n)]


class Study:
    name = ""
    #: Modules whose import is part of set-up.
    modules: tuple[str, ...] = ()
    #: Width of the run's shared ``CampaignExecutor`` (0: no executor).
    workers = 2
    #: Replays per iteration.  A pure cache replay takes about a
    #: millisecond, so ``replay_s`` is a median over many of them.
    replays = 25

    def __init__(self, seed: int) -> None:
        """Draw the study's seed-dependent inputs (none by default)."""

    def cold(self, executor, cache):
        raise NotImplementedError

    def replay(self, executor, cache, cold):
        return self.cold(executor, cache)

    def check(self, cold, replay) -> list[str]:
        raise NotImplementedError


class Counter:
    """``on_result`` hook: counts resolved points and failed ones."""

    def __init__(self) -> None:
        self.points = 0
        self.failed = 0

    def __call__(self, point, value) -> None:
        self.points += 1
        if value is None:
            self.failed += 1


class EC1Threshold(Study):
    """E-C1: qudit vs qubit noise-threshold bisections, then a replay."""

    name = "ec1_threshold"
    modules = ("repro.sqed.noise_study",)
    # Each replay re-dispatches the ladder rungs the cold stream never
    # read, so further replays would pile work onto the pool.
    replays = 1
    params = dict(
        damage_tol=0.1,
        eps_hi=0.5,
        bisection_steps=3,
        method="auto",
        n_sites=2,
        spin=1,
        t_total=3.0,
        n_steps=1,
    )

    def __init__(self, seed: int) -> None:
        (self.root_seed,) = _seeds(seed, 1)

    def cold(self, executor, cache):
        from repro.sqed.noise_study import noise_threshold_campaign

        counter = Counter()
        answer = {
            encoding: noise_threshold_campaign(
                executor=executor,
                cache=cache,
                seed=self.root_seed,
                on_result=counter,
                encoding=encoding,
                **self.params,
            )
            for encoding in ("qudit", "qubit")
        }
        return answer, counter.points, counter.failed

    def check(self, cold, replay):
        misses = []
        ratio = cold["qudit"] / cold["qubit"]
        if not EC1_BAND[0] <= ratio <= EC1_BAND[1]:
            misses.append(f"threshold ratio {ratio:.3g} outside {EC1_BAND}")
        if replay != cold:
            misses.append(f"replay {replay} != cold {cold}")
        return misses


class LPDODamage(Study):
    """12-site sQED damage on the LPDO engine, then a cached replay.

    One point: the executor computes a campaign with a single pending
    point in-process, so BLAS is not shared between pool workers here.
    """

    name = "lpdo_damage"
    modules = ("repro.sqed.noise_study",)
    epsilons = (0.03,)
    params = dict(
        method="lpdo",
        max_bond=24,
        max_kraus=8,
        n_sites=12,
        spin=1,
        encoding="qudit",
        t_total=1.0,
        n_steps=2,
    )

    def __init__(self, seed: int) -> None:
        (self.root_seed,) = _seeds(seed, 1)

    def cold(self, executor, cache):
        from repro.sqed.noise_study import damage_campaign

        result = damage_campaign(
            self.epsilons,
            executor=executor,
            cache=cache,
            seed=self.root_seed,
            **self.params,
        )
        answer = {"values": result.values, "cache_hits": result.cache_hits}
        return answer, len(result.values), len(result.errors)

    def check(self, cold, replay):
        misses = []
        damage = cold["values"][0]
        if damage is None or abs(damage - LPDO_DAMAGE) > LPDO_TOL:
            misses.append(f"damage {damage!r} != {LPDO_DAMAGE} +- {LPDO_TOL}")
        if replay["values"] != cold["values"]:
            misses.append("replay values differ from cold values")
        if replay["cache_hits"] != len(self.epsilons):
            misses.append(f"replay served {replay['cache_hits']} cache hits")
        return misses


class Table1Grid(Study):
    """Table I rows 2-3: NDAR restart battery + reservoir grid, then replay.

    The campaigns run on a one-worker executor, which computes points
    in-process.  On two pool workers every point's BLAS calls (``expm``
    of 16x16 propagators, trajectory GEMMs) contend with the other
    worker's BLAS threads; on a 2-core host that made the same study
    take anywhere from 2.2 to 8.4 s, too erratic to bound.
    """

    name = "table1_grid"
    workers = 1
    modules = ("repro.qaoa.ndar", "repro.reservoir.grid")
    ndar = dict(
        n_restarts=2,
        n_nodes=9,
        n_colors=3,
        degree=4,
        n_rounds=2,
        shots=20,
        loss_per_layer=0.25,
    )
    grid = dict(
        input_gains=(0.5, 0.75, 1.0, 1.25),
        drive_biases=(0.5, 0.75, 1.0, 1.25),
        alphas=(1e-4, 1e-6),
        task="narma2",
        length=120,
    )

    def __init__(self, seed: int) -> None:
        seeds = _seeds(seed, 4)
        self.battery_seed, self.grid_seed = seeds[0], seeds[1]
        self.graph_seed = seeds[2] % 10_000
        self.task_seed = seeds[3] % 10_000

    def cold(self, executor, cache):
        from repro.qaoa.ndar import ndar_restart_battery
        from repro.reservoir.grid import reservoir_grid_campaign

        battery = ndar_restart_battery(
            executor=executor,
            cache=cache,
            seed=self.battery_seed,
            graph_seed=self.graph_seed,
            **self.ndar,
        )
        grid = reservoir_grid_campaign(
            executor=executor,
            cache=cache,
            seed=self.grid_seed,
            task_seed=self.task_seed,
            **self.grid,
        )
        campaigns = (battery["campaign"], grid["campaign"])
        answer = {
            "ndar_ratio": battery["approximation_ratio"],
            "values": [c.values for c in campaigns],
            "points": sum(len(c.points) for c in campaigns),
            "cache_hits": sum(c.cache_hits for c in campaigns),
        }
        return answer, answer["points"], sum(len(c.errors) for c in campaigns)

    def check(self, cold, replay):
        misses = []
        if not cold["ndar_ratio"] >= NDAR_FLOOR:
            misses.append(f"NDAR ratio {cold['ndar_ratio']:.3f} < {NDAR_FLOOR}")
        if replay["cache_hits"] != replay["points"]:
            misses.append(
                f"replay: {replay['cache_hits']}/{replay['points']} cache hits"
            )
        if replay["values"] != cold["values"]:
            misses.append("replay values differ from cold values")
        return misses


class PaperClaims(Study):
    """ED mass gaps plus E-C2 SNAP synthesis, serial, no executor.

    Every input is seed-free.  The synthesis seed stays fixed because
    BFGS cost depends on the starting point: with seeds drawn from the
    workload seed, the median wall time of ten runs spread by 29 % of
    its median, more than any bound allows.  There is no result cache on
    this path; the replay re-verifies the stored pulse sequences instead
    of searching again.
    """

    name = "paper_claims"
    modules = ("repro.sqed.rotor", "repro.compile.synthesis", "repro.core.gates")
    workers = 0
    replays = 1
    dims = (3, 4)
    synthesis = dict(seed=0, max_restarts=4, maxiter=100, tol_infidelity=SYNTHESIS_BAR)

    def cold(self, executor, cache):
        from repro.compile.synthesis import synthesize_unitary
        from repro.core.gates import qudit_complete_mixer
        from repro.sqed.rotor import RotorChain

        gaps = [
            RotorChain(n_sites=ED_SITES, spin=1, g2=g2, hopping=0.3).mass_gap()
            for g2 in ED_GAPS
        ]
        results = [
            synthesize_unitary(qudit_complete_mixer(d, 0.7), **self.synthesis)
            for d in self.dims
        ]
        answer = {
            "gaps": gaps,
            "infidelities": [r.infidelity for r in results],
            "sequences": [r.sequence for r in results],
        }
        return answer, len(gaps) + len(results), 0

    def replay(self, executor, cache, cold):
        from repro.compile.synthesis.snap_displacement import subspace_fidelity
        from repro.core.gates import qudit_complete_mixer

        infidelities = [
            1.0 - subspace_fidelity(seq.matrix(), qudit_complete_mixer(d, 0.7), d)
            for d, seq in zip(self.dims, cold["sequences"])
        ]
        return {"infidelities": infidelities}, len(infidelities), 0

    def check(self, cold, replay):
        misses = []
        for gap, (g2, reference) in zip(cold["gaps"], ED_GAPS.items()):
            if abs(gap - reference) > ED_TOL:
                misses.append(f"gap at g2={g2}: {gap!r} != {reference!r}")
        for d, infidelity in zip(self.dims, cold["infidelities"]):
            if not infidelity < SYNTHESIS_BAR:
                misses.append(f"synthesis d={d}: infidelity {infidelity:.2e}")
        for d, a, b in zip(self.dims, cold["infidelities"], replay["infidelities"]):
            if abs(a - b) > 1e-12:
                misses.append(f"d={d}: stored sequence gives {b!r}, search gave {a!r}")
        return misses


STUDIES = {
    study.name: study
    for study in (EC1Threshold, LPDODamage, Table1Grid, PaperClaims)
}
