"""Tests for the error-budget autopilot (``target_error`` contract).

The load-bearing properties:

* **contract** — a plan produced for ``target_error`` predicts an error
  within budget, and an auto-backend run under the contract delivers an
  answer matching the dense reference within that budget;
* **monotone cost** — tightening the budget never makes the plan
  cheaper;
* **escalation determinism** — mid-run cap escalation produces
  bit-identical values and timelines across serial, pool, and resumed
  execution;
* **recalibration** — ledger samples move the cost/accuracy constants
  in the right direction, clamped, without mutating the input.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import QuditCircuit, get_backend, budget
from repro.core.channels import photon_loss
from repro.core.exceptions import SimulationError
from repro.exec import (
    BackendPlan,
    Campaign,
    CampaignExecutor,
    FailurePolicy,
    FaultPlan,
    RunLedger,
    recalibrate,
    run_campaign,
    select_backend,
    zip_sweep,
)
from repro.exec.costmodel import DEFAULT_CALIBRATION, load_calibration

REPO_ROOT = Path(__file__).resolve().parents[2]


def _noisy_circuit(n, loss=0.1):
    qc = QuditCircuit([3] * n)
    for i in range(n):
        qc.fourier(i)
    for i in range(n - 1):
        qc.csum(i, i + 1)
        qc.channel(photon_loss(3, loss).kraus, i + 1, name="loss")
    return qc


def leaky_task(x=0.0, max_bond=2, seed=0):
    """Module-level (pool-importable) task with a tunable error leak.

    Records a truncation of ``0.5 / max_bond`` against the active error
    account, so doubling the cap halves the delivered error — the
    executor's escalation ladder converges in a known number of steps.
    """
    budget.record_truncation(0.5 / max_bond, chi=max_bond)
    return {"x": x, "max_bond": max_bond}


class TestPlanContract:
    def test_plan_meets_target(self):
        plan = select_backend(
            [3] * 4,
            noisy=True,
            target_error=1e-6,
            calibration=DEFAULT_CALIBRATION,
        )
        assert isinstance(plan, BackendPlan)
        assert plan.target_error == pytest.approx(1e-6)
        assert plan.meets_target()
        assert plan.predicted_error <= 1e-6

    def test_tighter_target_never_cheaper(self):
        loose = select_backend(
            [3] * 10,
            noisy=True,
            allow_sampling=True,
            target_error=1e-2,
            calibration=DEFAULT_CALIBRATION,
        )
        tight = select_backend(
            [3] * 10,
            noisy=True,
            allow_sampling=True,
            target_error=1e-6,
            calibration=DEFAULT_CALIBRATION,
        )
        assert tight.predicted_cost_s >= loose.predicted_cost_s

    def test_explain_is_human_readable(self):
        plan = select_backend(
            [3] * 4,
            noisy=True,
            target_error=1e-6,
            calibration=DEFAULT_CALIBRATION,
        )
        text = plan.explain()
        assert plan.name in text
        assert "target" in text
        assert "predicted" in text

    def test_unknown_kwarg_rejected_loudly(self):
        with pytest.raises(SimulationError) as err:
            select_backend([3] * 4, noisy=True, target_eror=1e-6)
        # The message names the typo and lists the valid keywords.
        assert "target_eror" in str(err.value)
        assert "target_error" in str(err.value)

    def test_legacy_call_still_returns_choice(self):
        """No target: the legacy selection surface is unchanged."""
        choice = select_backend(
            [3] * 3, noisy=True, calibration=DEFAULT_CALIBRATION
        )
        assert choice.name == "density"

    def test_speed_only_plans_match_committed_anchors(self):
        """Speed-only selection reproduces the committed decision table.

        ``BENCH_exec.json["auto_selection"]`` records backend, options
        and the full estimate table for the anchors of
        ``benchmarks/bench_exec.py::auto_selection_table``; replanning
        them under the committed calibration must match exactly.
        """
        record = json.loads((REPO_ROOT / "BENCH_exec.json").read_text())
        anchors = {
            "4_qutrit_noiseless": ([3] * 4, False),
            "7_qutrit_noiseless": ([3] * 7, False),
            "3_qutrit_noisy": ([3] * 3, True),
            "12_qutrit_noisy": ([3] * 12, True),
            "20_qutrit_noisy": ([3] * 20, True),
        }
        assert set(record["auto_selection"]) == set(anchors)
        for label, (dims, noisy) in anchors.items():
            plan = select_backend(dims, noisy=noisy, calibration=load_calibration())
            committed = record["auto_selection"][label]
            assert plan.name == committed["backend"], label
            assert plan.options == committed["options"], label
            assert plan.estimates == committed["estimates"], label

    def test_caps_derived_from_register_not_baked_in(self):
        """Regression: tiny registers used to get the baked-in chi=32.

        Five qutrits can never need more than bond dimension 3**2 = 9;
        the plan's cap must come from the register, not a constant.
        """
        choice = select_backend(
            [3] * 5,
            noisy=True,
            memory_budget=200_000,
            calibration=DEFAULT_CALIBRATION,
        )
        assert choice.name == "lpdo"
        assert choice.options["max_bond"] == 9


class TestDeliveredError:
    @pytest.mark.parametrize("n", [3, 4])
    def test_auto_run_matches_dense_reference_within_target(self, n):
        target = 1e-6
        circuit = _noisy_circuit(n)
        auto = get_backend("auto", target_error=target)
        result = auto.run(circuit)
        reference = get_backend("density").run(circuit)
        op = np.diag([0.0, 1.0, 2.0])
        for wire in range(n):
            delivered = abs(
                result.expectation(op, wire) - reference.expectation(op, wire)
            )
            assert delivered <= target


class TestEscalation:
    def _campaign(self, n=3, target_error=0.1, **kwargs):
        defaults = dict(
            task=leaky_task,
            sweep=zip_sweep(x=[float(i) for i in range(n)]),
            base_params={"max_bond": 2},
            seed=42,
            target_error=target_error,
        )
        defaults.update(kwargs)
        return Campaign(**defaults)

    def test_serial_escalates_until_budget_met(self):
        result = run_campaign(self._campaign(), workers=1, cache=None)
        # 0.5/2 = 0.25 -> 0.125 -> 0.0625 <= 0.1: two escalations.
        assert [v["max_bond"] for v in result.values] == [8, 8, 8]
        for entry in result.timeline:
            assert entry["escalations"] == 2
            assert entry["attempts"] == 3
            assert entry["truncation_error"] == pytest.approx(0.0625)
            assert entry["max_chi"] == 8

    @pytest.mark.parametrize("mode", ["continue", "retry"])
    @pytest.mark.parametrize(
        "faults",
        [None, FaultPlan(seed=0, p_exception=0.5)],
        ids=["clean", "faulted"],
    )
    def test_pool_matches_serial_bit_for_bit(self, faults, mode):
        """Escalation and retries agree on both paths, faults included.

        Under the fault plan points 2 and 7 run clean, escalate, and
        then meet an injected exception on their second execution —
        which only lands if both paths number attempts by execution.
        """
        policy = FailurePolicy(mode=mode, max_attempts=3)
        runs = [
            run_campaign(
                self._campaign(n=8),
                workers=workers,
                cache=None,
                policy=policy,
                faults=faults,
            )
            for workers in (1, 3)
        ]
        serial, pooled = runs
        assert pooled.values == serial.values
        assert [
            {k: v for k, v in rec.items() if k != "traceback"}
            for rec in pooled.errors
        ] == [
            {k: v for k, v in rec.items() if k != "traceback"}
            for rec in serial.errors
        ]
        assert len(pooled.timeline) == len(serial.timeline) == 8
        if faults is None:
            assert all(entry["ok"] for entry in serial.timeline)
        for s, p in zip(serial.timeline, pooled.timeline):
            assert p["ok"] == s["ok"]
            for key in ("attempts", "escalations", "backoff_s"):
                assert p[key] == s[key]
            for key in ("truncation_error", "max_chi", "bond_truncations"):
                # A delivered point must report its account; an errored
                # one may carry none.
                if s["ok"]:
                    assert p[key] == s[key]
                else:
                    assert p.get(key) == s.get(key)

    def test_resumed_run_matches_clean(self, tmp_path):
        checkpoint = tmp_path / "progress.jsonl"
        with CampaignExecutor(1) as executor:
            handle = executor.submit(
                self._campaign(n=4), checkpoint=checkpoint, cache=None
            )
            stream = handle.stream_results()
            next(stream)  # leave the campaign partially complete
        assert len(checkpoint.read_text().splitlines()) == 1
        for line in checkpoint.read_text().splitlines():
            json.loads(line)
        resumed = run_campaign(
            self._campaign(n=4), workers=1, cache=None, checkpoint=checkpoint
        )
        clean = run_campaign(self._campaign(n=4), workers=1, cache=None)
        assert resumed.values == clean.values
        assert resumed.checkpoint_hits >= 1

    def test_no_target_no_escalation(self):
        result = run_campaign(
            self._campaign(target_error=None), workers=1, cache=None
        )
        assert [v["max_bond"] for v in result.values] == [2, 2, 2]
        for entry in result.timeline:
            assert entry["escalations"] == 0
            # The delivered account is still reported.
            assert entry["truncation_error"] == pytest.approx(0.25)

    def test_escalations_bounded_by_policy(self):
        policy = FailurePolicy(mode="continue", max_escalations=1)
        result = run_campaign(
            self._campaign(target_error=1e-6),
            workers=1,
            cache=None,
            policy=policy,
        )
        # One escalation allowed: 2 -> 4, then the best result stands.
        assert [v["max_bond"] for v in result.values] == [4, 4, 4]
        for entry in result.timeline:
            assert entry["escalations"] == 1

    def test_submit_target_overrides_campaign(self):
        with CampaignExecutor(1) as executor:
            handle = executor.submit(
                self._campaign(target_error=1e-6),
                cache=None,
                target_error=0.3,
            )
            result = handle.result()
        # 0.25 <= 0.3 already: the looser per-submission target wins.
        assert [v["max_bond"] for v in result.values] == [2, 2, 2]

    def test_run_record_carries_contract(self, tmp_path):
        with CampaignExecutor(1) as executor:
            handle = executor.submit(self._campaign(), cache=None)
            handle.result()
            record = handle.run_record()
        assert record["target_error"] == pytest.approx(0.1)
        assert record["policy"]["max_escalations"] == 3


class TestRecalibration:
    def _ledger(self, tmp_path, timeline):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append({"task": "t", "timeline": timeline})
        return ledger

    def test_error_account_samples_projects_timeline(self, tmp_path):
        ledger = self._ledger(
            tmp_path,
            [
                {
                    "exec_s": 0.1,
                    "truncation_error": 1e-4,
                    "max_chi": 8,
                    "bond_truncations": 3,
                },
                {"exec_s": 0.2},  # no truncation events: skipped
            ],
        )
        samples = ledger.error_account_samples(task="t")
        assert samples == [
            {"truncation_error": 1e-4, "max_chi": 8.0, "bond_truncations": 3.0}
        ]

    def test_cost_constant_scaled_and_clamped(self, tmp_path):
        ledger = self._ledger(tmp_path, [{"exec_s": 0.3}, {"exec_s": 0.3}])
        out = recalibrate(
            ledger, DEFAULT_CALIBRATION, engine="mps", predicted_point_s=0.15
        )
        assert out["mps_site_chi3_op_s"] == pytest.approx(
            2.0 * DEFAULT_CALIBRATION["mps_site_chi3_op_s"]
        )
        # A wildly wrong prediction is clamped to a factor of 32.
        clamped = recalibrate(
            ledger, DEFAULT_CALIBRATION, engine="mps", predicted_point_s=1e-9
        )
        assert clamped["mps_site_chi3_op_s"] == pytest.approx(
            32.0 * DEFAULT_CALIBRATION["mps_site_chi3_op_s"]
        )

    def test_accuracy_rates_refit_from_accounts(self, tmp_path):
        ledger = self._ledger(
            tmp_path,
            [
                {
                    "truncation_error": 1e-4,
                    "max_chi": 8,
                    "bond_truncations": 3,
                }
            ],
        )
        out = recalibrate(ledger, DEFAULT_CALIBRATION)
        assert out["trunc_err_per_gate"] != DEFAULT_CALIBRATION["trunc_err_per_gate"]
        assert 1e-12 <= out["trunc_err_per_gate"] <= 1.0

    def test_input_never_mutated_and_empty_ledger_is_identity(self, tmp_path):
        before = dict(DEFAULT_CALIBRATION)
        ledger = RunLedger(tmp_path / "empty.jsonl")
        out = recalibrate(
            ledger, DEFAULT_CALIBRATION, engine="mps", predicted_point_s=0.1
        )
        assert DEFAULT_CALIBRATION == before
        assert out == before


class TestFacade:
    def test_top_level_facade(self):
        import repro

        for name in (
            "Campaign",
            "CampaignExecutor",
            "FailurePolicy",
            "select_backend",
            "BackendPlan",
            "RunLedger",
        ):
            assert hasattr(repro, name)
            assert name in repro.__all__
