"""Budget/meter semantics and the guarded job entry point."""

from __future__ import annotations

import random
import time

import pytest

from repro.bdd.manager import BDDManager
from repro.core.config import DDBDDConfig
from repro.resilience.budget import CHECK_EVERY, Budget, BudgetExceeded
from repro.resilience.faults import activated
from repro.runtime.pool import SupernodeJob, _execute_job, run_supernode_job_guarded
from repro.runtime.signature import export_dag
from tests.conftest import random_truth_function


def _job(seed: int = 0, num_vars: int = 5, **over) -> SupernodeJob:
    mgr = BDDManager(num_vars, var_names=[f"v{i}" for i in range(num_vars)])
    func = random_truth_function(mgr, num_vars, random.Random(seed))
    dag = export_dag(mgr, func)
    config = DDBDDConfig(**over)
    return SupernodeJob.from_config(
        f"sn{seed}", dag, [0] * num_vars, [False] * num_vars, config, seq=1
    )


# ----------------------------------------------------------------------
# Budget / BudgetMeter units
# ----------------------------------------------------------------------
def test_unbounded_budget_never_breaches():
    budget = Budget()
    assert not budget.bounded
    meter = budget.meter()
    for _ in range(3 * CHECK_EVERY):
        meter.tick()
    meter.check()  # no raise


def test_deadline_breach():
    meter = Budget(deadline_s=0.01).meter()
    time.sleep(0.02)
    with pytest.raises(BudgetExceeded) as exc:
        meter.check()
    assert exc.value.reason == "deadline"
    assert exc.value.spent_s > 0.01


def test_node_ceiling_breach_needs_bound_source():
    meter = Budget(max_nodes=5).meter()
    meter.check()  # nodes unknown yet: reads as 0, no breach
    meter.bind_node_source(lambda: 10)
    with pytest.raises(BudgetExceeded) as exc:
        meter.check()
    assert exc.value.reason == "nodes"
    assert exc.value.spent_nodes == 10


def test_tick_checks_every_check_every():
    calls = []
    meter = Budget(max_nodes=1).meter()
    meter.bind_node_source(lambda: calls.append(1) or 0)
    for _ in range(CHECK_EVERY - 1):
        meter.tick()
    assert not calls, "no full check before the cadence boundary"
    meter.tick()
    assert len(calls) == 1


def test_forced_breach_reports_nodes():
    meter = Budget().meter(forced_breach=True)
    with pytest.raises(BudgetExceeded) as exc:
        meter.check()
    assert exc.value.reason == "nodes"


# ----------------------------------------------------------------------
# Guarded job execution
# ----------------------------------------------------------------------
def test_guarded_job_without_budget_matches_unguarded():
    job = _job(seed=3)
    outcome = run_supernode_job_guarded(job)
    assert outcome.ok and outcome.breach_reason == ""
    assert outcome.record == _execute_job(job, None)


def test_guarded_job_node_budget_breach():
    # A 5-var function needs more than one BDD node, so the eager check
    # at DP start must breach deterministically.
    job = _job(seed=1, job_node_budget=1)
    outcome = run_supernode_job_guarded(job)
    assert not outcome.ok
    assert outcome.record is None
    assert outcome.breach_reason == "nodes"
    assert outcome.spent_nodes > 1


def test_guarded_job_blowup_fault_forces_breach():
    job = _job(seed=2)
    with activated("blowup@job=1"):
        outcome = run_supernode_job_guarded(job)
    assert not outcome.ok and outcome.breach_reason == "nodes"
    # Same job, plan consumed: runs clean.
    assert run_supernode_job_guarded(job).ok


def test_guarded_job_stall_burns_real_deadline():
    # The meter starts before the job-site faults fire, so an injected
    # stall is indistinguishable from an organic hang.
    job = _job(seed=4, job_deadline_s=0.05)
    with activated("stall@job=1:0.2s"):
        outcome = run_supernode_job_guarded(job)
    assert not outcome.ok
    assert outcome.breach_reason == "deadline"
    assert outcome.spent_s >= 0.05
