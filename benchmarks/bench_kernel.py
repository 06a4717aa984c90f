"""Kernel microbenchmarks: BDD operator core, reordering, cut sets, DP.

Times the synthesis hot-path layers in isolation — the dedicated binary
apply recursions, generic ITE, negation, cofactor/support queries, sift
reordering, the incremental Algorithm-4 cut sets, and one end-to-end
supernode DP — on fixed seeded workloads.  Each workload also reports a
structural *fingerprint* (node counts and the like): if a code change
alters the fingerprint, the timing comparison is meaningless and the
baseline must be regenerated deliberately.

Noise discipline: every workload runs ``REPEATS`` times and the
*median* wall time is reported — single-shot numbers on a shared 1-CPU
host swing by ±20%, which is wider than most real regressions.  The
committed JSON records the repeat count and interpreter version next to
the numbers so a future reader can tell how they were produced.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py             # full + quick, write baseline
    PYTHONPATH=src python benchmarks/bench_kernel.py --quick     # quick workloads only
    PYTHONPATH=src python benchmarks/bench_kernel.py --quick --check   # CI gate: fail on >2x regression

``--check`` compares median times against the checked-in
``BENCH_kernel.json`` and fails on a >2x slowdown of any microbenchmark
(a deliberately generous bound — CI machines are noisy; the goal is
catching accidental algorithmic regressions, not 10% drifts).
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.bdd.leveled import LeveledBDD
from repro.bdd.manager import BDDManager
from repro.bdd.reorder import sift_inplace
from repro.core.config import DDBDDConfig
from repro.runtime.pool import SupernodeJob, run_supernode_job_guarded
from repro.runtime.signature import export_dag

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_kernel.json"
SEED = 20260805
REGRESSION_FACTOR = 2.0
REPEATS = 5

# (bench result, fingerprint): seconds measured by the caller.
Fingerprint = int


def _pool(mgr: BDDManager, rng: random.Random, n_ops: int) -> List[int]:
    """Grow a pool of functions by seeded random binary applies.

    Operands are random cubes folded into a rolling accumulator that
    resets every 16 ops — mirrors the cube/cover shapes the synthesis
    flow feeds the kernel, and keeps BDD sizes bounded (unrestricted
    random combination converges to dense exponential-size functions
    and the benchmark stops measuring the cache machinery).
    """
    lits = [mgr.var(v) for v in range(mgr.num_vars)]
    lits += [mgr.nvar(v) for v in range(mgr.num_vars)]
    nlits = len(lits)
    # and/or dominant, xor occasional: repeated xor of cubes is the one
    # shape whose BDD size compounds multiplicatively.
    ops = (mgr.apply_and, mgr.apply_or, mgr.apply_or, mgr.apply_xor)
    pool: List[int] = []
    acc = lits[0]
    for i in range(n_ops):
        cube = lits[rng.randrange(nlits)]
        for _ in range(rng.randrange(1, 3)):
            cube = mgr.apply_and(cube, lits[rng.randrange(nlits)])
        acc = ops[rng.randrange(4)](acc, cube)
        if (i & 15) == 15:
            pool.append(acc)
            acc = lits[rng.randrange(nlits)]
    pool.append(acc)
    return pool


def bench_apply_binary(quick: bool) -> Fingerprint:
    """Dedicated AND/OR/XOR recursions with operator-tagged caches."""
    n_vars, n_ops = (12, 3000) if quick else (13, 10000)
    mgr = BDDManager(n_vars)
    _pool(mgr, random.Random(SEED), n_ops)
    return mgr.num_nodes


def _bounded_root(mgr: BDDManager, pool: List[int], cap: int) -> int:
    """Largest pool function whose BDD stays under ``cap`` nodes —
    keeps the quadratic structural benchmarks at a fixed scale."""
    best, best_n = pool[0], 0
    for f in pool:
        n = mgr.count_nodes(f)
        if best_n < n <= cap:
            best, best_n = f, n
    return best


def bench_ite(quick: bool) -> Fingerprint:
    """Generic 3-operand ITE (through standard-triple normalization).

    Triples are drawn from a *fixed* pool — feeding ITE results back in
    compounds operand sizes (ITE is O(|f|·|g|·|h|) worst case) and the
    benchmark degenerates into building one giant BDD.
    """
    n_vars, n_ops, n_ite = (10, 300, 1500) if quick else (11, 500, 6000)
    mgr = BDDManager(n_vars)
    rng = random.Random(SEED + 1)
    pool = _pool(mgr, rng, n_ops)
    acc = 0
    for _ in range(n_ite):
        f = pool[rng.randrange(len(pool))]
        g = pool[rng.randrange(len(pool))]
        h = pool[rng.randrange(len(pool))]
        acc += mgr.ite(f, g, h)
    return mgr.num_nodes + (acc & 0xFFFF)


def bench_negate_cofactor_support(quick: bool) -> Fingerprint:
    """Derived queries: negation, cofactors, memoized supports."""
    n_vars, n_ops = (12, 2000) if quick else (13, 5000)
    mgr = BDDManager(n_vars)
    rng = random.Random(SEED + 2)
    pool = _pool(mgr, rng, n_ops)
    acc = 0
    for f in pool:
        acc += mgr.negate(f)
        acc += len(mgr.support_frozen(f))
        acc += mgr.cofactor(f, rng.randrange(n_vars), bool(rng.randrange(2)))
    return mgr.num_nodes + (acc & 0xFFFF)


def bench_reorder_sift(quick: bool) -> Fingerprint:
    """Sift reordering with incremental live-set maintenance."""
    n_pairs = 9 if quick else 11
    mgr = BDDManager(2 * n_pairs)
    # Interleaving-hostile order: x_i paired with x_{i+n}, the classic
    # sift stress shape.
    f = mgr.ZERO
    for i in range(n_pairs):
        f = mgr.apply_or(f, mgr.apply_and(mgr.var(i), mgr.var(i + n_pairs)))
    live = sift_inplace(mgr, f, num_support=2 * n_pairs)
    return live


def bench_cut_sets(quick: bool) -> Fingerprint:
    """Incremental Algorithm-4 cut sets + shared-row Bs functions."""
    n_vars, n_ops = (11, 800) if quick else (13, 2000)
    mgr = BDDManager(n_vars)
    rng = random.Random(SEED + 3)
    pool = _pool(mgr, rng, n_ops)
    lb = LeveledBDD(mgr, _bounded_root(mgr, pool, 400 if quick else 800))
    acc = 0
    for i, u in enumerate(lb.nodes):
        top = lb.max_cut_level(u)
        for l in range(1, top + 1):
            cs = lb.cut_set(u, l)
            acc += len(cs)
        # Sub-BDD functions at the deepest cut on a node sample:
        # exercises the shared per-(cut, v) row memo.
        if i % 2 == 0:
            for v in lb.cut_set(u, top):
                acc += lb.bs_function(u, top, v) & 0xFF
    return len(lb.nodes) + (acc & 0xFFFFFF)


def bench_dp_supernode(quick: bool) -> Fingerprint:
    """One end-to-end supernode DP (reorder + cuts + packing + emit)."""
    n_vars, n_ops = (10, 600) if quick else (12, 1200)
    mgr = BDDManager(n_vars)
    rng = random.Random(SEED + 4)
    pool = _pool(mgr, rng, n_ops)
    dag = export_dag(mgr, _bounded_root(mgr, pool, 350 if quick else 600))
    job = SupernodeJob.from_config(
        "bench", dag, [0] * dag.num_vars, [False] * dag.num_vars, DDBDDConfig()
    )
    record = run_supernode_job_guarded(job).record
    return len(record.cells) * 1000 + record.out_depth


BENCHES: List[Tuple[str, Callable[[bool], Fingerprint]]] = [
    ("apply_binary", bench_apply_binary),
    ("ite", bench_ite),
    ("negate_cofactor_support", bench_negate_cofactor_support),
    ("reorder_sift", bench_reorder_sift),
    ("cut_sets", bench_cut_sets),
    ("dp_supernode", bench_dp_supernode),
]


def run_mode(quick: bool, repeats: int = REPEATS) -> Dict[str, dict]:
    """Run every bench ``repeats`` times; report the median wall time.

    The workloads are fully seeded, so the fingerprint must be identical
    across repeats — a mismatch means nondeterminism and aborts the run.
    """
    rows: Dict[str, dict] = {}
    for name, fn in BENCHES:
        times: List[float] = []
        fingerprint: Optional[Fingerprint] = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            fp = fn(quick)
            times.append(time.perf_counter() - t0)
            if fingerprint is None:
                fingerprint = fp
            elif fp != fingerprint:
                raise AssertionError(
                    f"{name}: fingerprint {fp} != {fingerprint} across repeats "
                    "(seeded workload went nondeterministic)"
                )
        rows[name] = {
            "seconds": round(statistics.median(times), 4),
            "min_seconds": round(min(times), 4),
            "fingerprint": fingerprint,
        }
    return rows


def check(current: Dict[str, dict], baseline: Dict[str, dict], mode: str) -> int:
    """Compare a run against the stored baseline; 0 = pass."""
    failures = []
    for name, row in current.items():
        base = baseline.get(name)
        if base is None:
            failures.append(f"{name}: no baseline entry (regenerate BENCH_kernel.json)")
            continue
        if row["fingerprint"] != base["fingerprint"]:
            failures.append(
                f"{name}: workload fingerprint changed "
                f"({base['fingerprint']} -> {row['fingerprint']}); "
                "regenerate the baseline deliberately"
            )
            continue
        ratio = row["seconds"] / base["seconds"] if base["seconds"] > 0 else 1.0
        flag = " <-- REGRESSION" if ratio > REGRESSION_FACTOR else ""
        print(f"  {name:26s} {base['seconds']:8.4f}s -> {row['seconds']:8.4f}s ({ratio:5.2f}x){flag}")
        if ratio > REGRESSION_FACTOR:
            failures.append(f"{name}: {ratio:.2f}x slower than baseline (> {REGRESSION_FACTOR}x)")
    if failures:
        print(f"\n{mode} kernel check FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"{mode} kernel check passed ({len(current)} benchmarks within {REGRESSION_FACTOR}x).")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small CI-sized workloads only")
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"compare against the baseline; fail on >{REGRESSION_FACTOR}x regression",
    )
    parser.add_argument("--out", default=str(DEFAULT_OUT), help="baseline JSON path")
    parser.add_argument(
        "--repeats", type=int, default=REPEATS, help="repeats per bench (median reported)"
    )
    args = parser.parse_args(argv)

    out = Path(args.out)
    modes = ["quick"] if args.quick else ["full", "quick"]
    results = {mode: run_mode(mode == "quick", repeats=args.repeats) for mode in modes}
    for mode in modes:
        total = sum(r["seconds"] for r in results[mode].values())
        print(f"{mode}: {total:.2f}s total (median of {args.repeats})")
        for name, row in results[mode].items():
            print(
                f"  {name:26s} {row['seconds']:8.4f}s"
                f"  (min {row['min_seconds']:.4f}s)"
            )

    if args.check:
        if not out.exists():
            print(f"no baseline at {out}; run without --check first", file=sys.stderr)
            return 1
        baseline = json.loads(out.read_text(encoding="utf-8"))
        rc = 0
        for mode in modes:
            rc |= check(results[mode], baseline.get(mode, {}), mode)
        return rc

    merged = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    merged.update(results)
    merged["meta"] = {
        "repeats": args.repeats,
        "statistic": "median",
        "python": platform.python_version(),
    }
    out.write_text(json.dumps(merged, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
