"""Measure the benchmark's baseline and write ``perfbench/baseline.json``.

Usage (from the repository root)::

    python3 perfbench/baseline.py --seeds 1-10

For every workload of ``BENCHMARK.json``, runs ``run.py`` once per
seed untraced, then once traced at the first seed.  Records how long
each run took, each end-to-end metric's values, median and quartiles,
and its spread (inter-quartile range over the median) against the
bound in ``BENCHMARK.json``; then the traced run's per-layer metrics
and a layer-share table: each layer's self time as a share of the
traced time, and the Amdahl bound that share implies (the end-to-end
speed-up if the layer cost nothing).  Exits 1 when a run fails or a
spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "table1": {
        "description": "The paper's Table-I suite (cht sct misex1 9sym sse ttt2 count lal), "
        "each circuit compiled in its own fresh process with jobs=1, cache off.",
        "why": "The headline Table-I wall time; the per-supernode DP (core.linear, core.dp, "
        "bdd.leveled, core.binpack) does most of the work on many small private managers.",
        "seed": "Registry circuits at every seed (goldens checked); the seed sets the compile order.",
    },
    "serve_mixed": {
        "description": "ddbdd serve (--workers 2, fresh cache root) under a closed loop of 2 "
        "lockstep clients, each its own tenant, sending 40 sync requests (jobs=2, cache=readwrite, "
        "emit=blif) over Table I plus alu2 my_adder comp16 alu4.",
        "why": "The only workload through serve, the queue, fleet singleflight and claim "
        "leases, the cache tiers and the worker pool; 28 of 40 requests repeat.",
        "seed": "A fixed multiset (each pool circuit once plus 28 repeats split by Zipf "
        "weights over the pool order) in seeded order.",
    },
}

#: For every metric but the ``circuit.<name>.wall_s`` rows: the layer
#: it measures and what it should move.  Names, units and directions
#: come from ``BENCHMARK.json``.
LAYERS: Dict[str, Dict[str, str]] = {
    "setup_s": {"layer": "process", "moves": "table1: interpreter import plus circuit build; serve: daemon spawn to first /healthz 200"},
    "wall_s": {"layer": "end_to_end", "moves": "table1: summed compile time; serve: stream makespan"},
    "peak_rss_mb": {"layer": "process", "moves": "table1: VmHWM of the compiling process; serve: the daemon's VmHWM"},
    "depth_sum": {"layer": "qor", "moves": "summed LUT depth over the distinct circuits; exact"},
    "lut_sum": {"layer": "qor", "moves": "summed LUT count over the distinct circuits; exact"},
    "req_per_s": {"layer": "end_to_end", "moves": "table1: circuits compiled per second; serve: requests per second"},
    "latency_p50_s": {"layer": "end_to_end", "moves": "table1: median per-circuit compile time; serve: median submit-to-reply"},
    "latency_tail_s": {"layer": "end_to_end", "moves": "table1: slowest circuit; serve: highest percentile with ten samples beyond it"},
    "collapse.self_s": {"layer": "core.collapse", "moves": "wall_s on table1, latency_p50_s on serve_mixed"},
    "collapse.merges": {"layer": "core.collapse", "moves": "exact count"},
    "reorder.self_s": {"layer": "bdd.reorder", "moves": "wall_s and peak_rss_mb on table1"},
    "reorder.calls": {"layer": "bdd.reorder", "moves": "exact count"},
    "kernel.nodes": {"layer": "bdd.manager", "moves": "peak_rss_mb; exact count"},
    "kernel.op_hits": {"layer": "bdd.manager", "moves": "exact count"},
    "kernel.op_entries": {"layer": "bdd.manager", "moves": "exact count"},
    "kernel.hit_ratio": {"layer": "bdd.manager", "moves": "wall_s on table1"},
    "dp.self_s": {"layer": "core.dp", "moves": "wall_s on table1, cold requests on serve_mixed"},
    "dp.states": {"layer": "core.dp", "moves": "exact count"},
    "dp.supernodes": {"layer": "core.dp", "moves": "exact count"},
    "linear.self_s": {"layer": "core.linear", "moves": "wall_s on table1"},
    "linear.calls": {"layer": "core.linear", "moves": "exact count"},
    "binpack.self_s": {"layer": "core.binpack", "moves": "wall_s on table1"},
    "binpack.calls": {"layer": "core.binpack", "moves": "exact count"},
    "leveled.self_s": {"layer": "bdd.leveled", "moves": "wall_s on table1"},
    "leveled.cut_set_calls": {"layer": "bdd.leveled", "moves": "exact count"},
    "netcover.self_s": {"layer": "mapping.netcover", "moves": "wall_s everywhere; lut_sum if covering changes"},
    "lutpack.self_s": {"layer": "core.lutpack", "moves": "wall_s everywhere; lut_sum if covering changes"},
    "network.self_s": {"layer": "network.transform", "moves": "wall_s everywhere (sweep + merge_duplicates)"},
    "fleet.self_s": {"layer": "runtime.fleet", "moves": "serve_mixed: run_wave self time, incl. waits on pool workers and claims"},
    "cache.self_s": {"layer": "runtime.tiers", "moves": "serve_mixed: tiered cache get/put"},
    "signature.self_s": {"layer": "runtime.signature", "moves": "serve_mixed: export_dag and signature hashing"},
    "serve.queue_wait_p50_s": {"layer": "serve.queue", "moves": "latency_p50_s on serve_mixed"},
    "serve.service_p50_s": {"layer": "serve.app", "moves": "latency_p50_s on serve_mixed"},
    "serve.http_overhead_p50_s": {"layer": "serve.app", "moves": "latency_p50_s on serve_mixed"},
    "fleet.claim_s": {"layer": "runtime.fleet", "moves": "latency_tail_s and req_per_s on serve_mixed"},
    "claims.held": {"layer": "runtime.fleet", "moves": "latency_tail_s on serve_mixed; timing dependent"},
    "claims.reaped": {"layer": "runtime.fleet", "moves": "latency_tail_s on serve_mixed; timing dependent"},
    "fleet.dedup_s": {"layer": "runtime.fleet", "moves": "latency_tail_s and req_per_s on serve_mixed"},
    "fleet.dedup_hits": {"layer": "runtime.fleet", "moves": "req_per_s on serve_mixed; timing dependent"},
    "fleet.jobs_computed": {"layer": "runtime.fleet", "moves": "req_per_s on serve_mixed"},
    "cache.s": {"layer": "runtime.tiers", "moves": "latency_p50_s and req_per_s on serve_mixed; none on table1"},
    "cache.memory_hits": {"layer": "runtime.tiers", "moves": "latency_p50_s on serve_mixed"},
    "cache.sqlite_hits": {"layer": "runtime.tiers", "moves": "latency_p50_s on serve_mixed"},
    "cache.misses": {"layer": "runtime.tiers", "moves": "latency_p50_s on serve_mixed"},
    "cache.puts": {"layer": "runtime.tiers", "moves": "latency_p50_s on serve_mixed"},
    "cache.hit_ratio": {"layer": "runtime.tiers", "moves": "latency_p50_s and req_per_s on serve_mixed"},
    "runtime.signature_s": {"layer": "runtime.schedule", "moves": "latency_p50_s on serve_mixed"},
    "runtime.splice_s": {"layer": "runtime.schedule", "moves": "latency_p50_s on serve_mixed"},
    "runtime.dp_s": {"layer": "runtime.schedule", "moves": "latency_p50_s on serve_mixed (cold requests)"},
    "unattributed_s": {"layer": "flow", "moves": "traced time inside no layer span"},
    "trace.overhead_ratio": {"layer": "benchmark", "moves": "traced over untraced wall_s"},
    "counters.nonrepeating": {"layer": "benchmark", "moves": "exact counters that differed between two runs"},
}


def _seeds(text: str) -> List[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench: Dict[str, Any], workload: str, seed: int, trace: int) -> Dict[str, Any]:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    run_s = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    info = json.loads(lines[-2]) if len(lines) > 1 else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    print(f"{workload} seed={seed} trace={trace} ok in {run_s:.1f}s", file=sys.stderr, flush=True)
    return {"run_s": run_s, "info": info.get("info", {}),
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def describe(bench: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Every metric of ``BENCHMARK.json`` with its layer and what it
    should move."""
    out = {}
    for section in ("end_to_end", "per_layer"):
        for metric in bench[section]:
            name = metric["name"]
            layer = LAYERS.get(name, {"layer": "circuit", "moves": "one circuit's compile time"})
            out[name] = {**{k: v for k, v in metric.items() if k != "name"}, "section": section, **layer}
    return out


def summarize(values: List[float]) -> Dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def layer_shares(per_layer: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    """Self-time share of every layer, and its Amdahl bound."""
    selfs = {k[: -len(".self_s")]: v for k, v in per_layer.items() if k.endswith(".self_s")}
    selfs["unattributed"] = per_layer["unattributed_s"]
    total = sum(selfs.values())
    table = {}
    for layer, seconds in sorted(selfs.items(), key=lambda kv: -kv[1]):
        share = seconds / total if total else 0.0
        table[layer] = {
            "self_s": seconds,
            "share": share,
            "amdahl_bound": 1.0 / (1.0 - share) if share < 1.0 else float("inf"),
        }
    return table


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = _seeds(args.seeds)
    out: Dict[str, Any] = {
        "command": f"python3 perfbench/baseline.py --seeds {args.seeds}",
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": bench["run_seconds"],
        "metrics": describe(bench),
        "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(bench, workload, seed, 0) for seed in seeds]
        traced = run_once(bench, workload, seeds[0], 1)
        end_to_end = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            summary = summarize([r["metrics"][name] for r in runs])
            summary["bound"] = bound
            summary["within_third_of_bound"] = summary["spread"] <= bound / 3
            if summary["spread"] > bound:
                ok = False
            end_to_end[name] = summary
            print(f"{workload:13s} {name:15s} median={summary['median']:.4g} "
                  f"spread={summary['spread']:.4f} bound={bound}", file=sys.stderr)
        out["workloads"][workload] = {
            **WORKLOADS[workload],
            "seeds": seeds,
            "run_s": summarize([r["run_s"] for r in runs]),
            "traced_run_s": traced["run_s"],
            "info": runs[0]["info"],
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "traced_info": traced["info"],
            "layer_shares": layer_shares(traced["metrics"]),
        }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
