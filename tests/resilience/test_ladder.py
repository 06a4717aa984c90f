"""The degradation ladder: every rung yields a verified cover, and the
flow splices degraded covers without breaking equivalence."""

from __future__ import annotations

import random

import pytest

from repro.analysis import check_failure_reports, has_code
from repro.analysis.diagnostics import ERROR, WARNING, errors_of
from repro.bdd.manager import BDDManager
from repro.core import DDBDDConfig, ddbdd_synthesize
from repro.resilience.ladder import RUNGS, degraded_job, resynthesize, shannon_record
from repro.runtime.emission import verify_record
from repro.runtime.pool import JobOutcome, SupernodeJob, run_supernode_job_guarded
from repro.runtime.signature import export_dag
from repro.runtime.stats import FailureReport
from tests.conftest import assert_equivalent, random_gate_network, random_truth_function


def _dag(seed: int, num_vars: int = 5):
    mgr = BDDManager(num_vars, var_names=[f"v{i}" for i in range(num_vars)])
    func = random_truth_function(mgr, num_vars, random.Random(seed))
    return export_dag(mgr, func)


def _job(seed: int = 0, num_vars: int = 5, **over) -> SupernodeJob:
    dag = _dag(seed, num_vars)
    rng = random.Random(seed + 1000)
    arrivals = [rng.randint(0, 3) for _ in range(num_vars)]
    polarities = [rng.random() < 0.5 for _ in range(num_vars)]
    return SupernodeJob.from_config(
        f"sn{seed}", dag, arrivals, polarities, DDBDDConfig(**over), seq=1
    )


# ----------------------------------------------------------------------
# Rung configurations
# ----------------------------------------------------------------------
def test_degraded_job_knobs():
    job = _job(thresh=20)
    assert degraded_job(job, "retry") is job
    tightened = degraded_job(job, "tighten")
    assert tightened.thresh == 8
    assert tightened.use_special_decompositions == job.use_special_decompositions
    plain = degraded_job(job, "plain")
    assert plain.thresh == 6
    assert not plain.use_special_decompositions
    assert not plain.timing_aware_reorder
    # Signature changes with the knobs: a degraded record could never
    # collide with the clean job's cache slot even if it were cached.
    assert tightened.signature() != job.signature()
    with pytest.raises(ValueError):
        degraded_job(job, "harder")


# ----------------------------------------------------------------------
# Shannon cone synthesis (the terminal rung)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_shannon_record_verifies(seed, k):
    num_vars = 5
    dag = _dag(seed, num_vars)
    rng = random.Random(seed + 99)
    arrivals = tuple(rng.randint(0, 4) for _ in range(num_vars))
    polarities = tuple(rng.random() < 0.5 for _ in range(num_vars))
    record = shannon_record(dag, arrivals, polarities, k)
    assert verify_record(record, dag, polarities, k)
    assert all(len(cell.fanins) <= k for cell in record.cells)
    assert record.states_visited == 0  # no DP ran


def test_shannon_record_literal_function():
    # A function that *is* a negated input: no LUTs at all, the record
    # resolves to the leaf itself.  The canonical export remaps the
    # lone support variable to canonical var 0.
    mgr = BDDManager(3, var_names=["v0", "v1", "v2"])
    dag = export_dag(mgr, mgr.nvar(1))
    assert dag.num_vars == 1
    record = shannon_record(dag, (7,), (False,), 5)
    assert verify_record(record, dag, (False,), 5)
    assert record.cells == ()  # pure pass-through, no LUT spent
    assert record.out_neg is True
    assert record.out_depth == 7  # pass-through keeps the arrival


# ----------------------------------------------------------------------
# resynthesize()
# ----------------------------------------------------------------------
def test_deadline_breach_retries_clean_and_matches():
    # A deadline breach gets one honest retry with a fresh clock; with
    # no stall left it must reproduce the clean record bit-for-bit.
    job = _job(seed=7, job_deadline_s=5.0)
    breach = JobOutcome(None, "deadline", 5.1, 120)
    record, report = resynthesize(job, breach)
    assert record == run_supernode_job_guarded(job).record
    assert report.kind == "budget" and report.reason == "deadline"
    assert report.rung == "retry" and report.retries == 1
    assert report.verified
    assert (report.spent_s, report.spent_nodes) == (5.1, 120)


def test_node_breach_skips_retry_rung():
    # Node breaches are deterministic: re-running the same job can only
    # breach again, so the ladder starts at "tighten".
    job = _job(seed=8)
    breach = JobOutcome(None, "nodes", 0.2, 4096)
    record, report = resynthesize(job, breach)
    assert report.rung in RUNGS[1:]
    assert verify_record(record, job.dag, job.polarities, job.k)


def test_hopeless_budget_lands_on_shannon():
    # A 1-node ceiling defeats every DP rung; only the unmetered
    # shannon rung can terminate the ladder.
    job = _job(seed=9, job_node_budget=1)
    breach = JobOutcome(None, "nodes", 0.0, 2)
    record, report = resynthesize(job, breach)
    assert report.rung == "shannon"
    assert report.retries == len(RUNGS) - 1
    assert verify_record(record, job.dag, job.polarities, job.k)


# ----------------------------------------------------------------------
# Flow-level: a blown-up job degrades, the result stays correct
# ----------------------------------------------------------------------
def test_flow_blowup_degrades_and_stays_equivalent():
    net = random_gate_network(11, n_pi=8, n_gates=40, n_po=4)
    result = ddbdd_synthesize(net, DDBDDConfig(faults="blowup@job=1"))
    stats = result.runtime_stats
    rows = [f for f in stats.failures if f.kind == "budget"]
    assert len(rows) == 1
    row = rows[0]
    assert (row.seq, row.reason) == (1, "nodes")
    assert row.rung in RUNGS[1:]
    assert row.verified
    # The degraded cover may differ cell-for-cell but never functionally.
    assert_equivalent(net, result.network, "blowup degradation")
    # The per-pass telemetry attributes the recovery to the synth pass.
    synth_rows = [p for p in stats.passes if p.name == "synth"]
    assert synth_rows and synth_rows[0].failures == 1


# ----------------------------------------------------------------------
# DD4xx diagnostics over failure rows
# ----------------------------------------------------------------------
def test_failure_reports_to_diagnostics():
    rows = [
        FailureReport("sn1", 1, "budget", "deadline", 1, rung="retry"),
        FailureReport("sn2", 2, "budget", "nodes", 2, rung="shannon"),
        FailureReport("sn3,sn4", 3, "pool", "BrokenProcessPool(...)", 1,
                      rung="respawn"),
    ]
    diags = check_failure_reports(rows)
    assert has_code(diags, "DD403")
    assert has_code(diags, "DD404")
    # Only the genuinely degraded rung raises DD401 — a clean retry
    # recovered the exact record and is not a quality event.
    dd401 = [d for d in diags if d.code == "DD401"]
    assert [d.where for d in dd401] == ["sn2"]
    assert all(d.severity == WARNING for d in diags)


def test_unverified_report_is_an_error():
    rows = [FailureReport("sn1", 1, "budget", "nodes", 4, rung="shannon",
                          verified=False)]
    diags = check_failure_reports(rows)
    assert errors_of(diags) and diags[0].code == "DD402"
    assert diags[0].severity == ERROR
