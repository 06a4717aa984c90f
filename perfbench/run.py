"""The repository benchmark: one command per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 45 --trace 0

Workloads (``perfbench/baseline.json`` records why each was chosen):

* ``table1``       — the paper's Table-I suite, serial, cache off;
* ``serve_mixed``  — a two-client closed loop against ``ddbdd serve``.

A ``table1`` run compiles every circuit in its own fresh process (a
round), at least twice, and repeats rounds while ``--seconds`` allows;
a serve run drives whole request streams, each on a fresh daemon, the
same way (at least one; a stream takes 30-45 s on a 2-core host).
Reported times are medians over rounds or pool the streams' requests;
``setup_s`` is the median of at least :data:`SETUP_SAMPLES` set-ups.
``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
prints the per-layer metrics from traced rounds or a traced stream,
with one untraced one beside them for ``trace.overhead_ratio``.  Every
run checks its outputs (see :mod:`gate`) outside the timed region.
``--smoke`` shrinks every workload to a few small circuits so the
whole path runs in seconds.

The last stdout line is the result: ``{"correct", "attempted",
"failed", "metrics": {name: {"value", "unit"}}}``; the line before it
holds run details (rounds, which percentile the tail is, counters that
did not repeat).  The exit status is 0 when every output was correct,
1 when one was not and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("table1", "serve_mixed")


def _units(section: str) -> Dict[str, str]:
    """Metric name to unit for one ``BENCHMARK.json`` section."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in bench[section]}


END_TO_END = _units("end_to_end")
#: Every per-layer row, ``circuit.<name>.wall_s`` ones included.
PER_LAYER = _units("per_layer")

#: Per-layer rows read from the span counters (:mod:`spans`).
SPAN_COUNTERS = {
    "collapse.merges": "collapse.merges",
    "reorder.calls": "reorder.calls",
    "kernel.nodes": "kernel.nodes",
    "kernel.op_hits": "kernel.op_hits",
    "kernel.op_entries": "kernel.op_entries",
    "dp.states": "dp.states",
    "dp.supernodes": "dp.emit.calls",
    "linear.calls": "linear.calls",
    "binpack.calls": "binpack.calls",
    "leveled.cut_set_calls": "leveled.cut_set.calls",
}

#: Per-layer rows read from ``/metrics`` deltas of the serve daemon.
METRICS_DELTAS = {
    "fleet.claim_s": "stage_seconds.claim",
    "claims.held": "claims.held",
    "claims.reaped": "claims.reaped",
    "fleet.dedup_s": "stage_seconds.dedup",
    "fleet.dedup_hits": "fleet.dedup_hits",
    "fleet.jobs_computed": "fleet.jobs_computed",
    "cache.s": "stage_seconds.cache",
    "cache.memory_hits": "cache_tiers.memory.hits",
    "cache.sqlite_hits": "cache_tiers.sqlite.hits",
    "cache.misses": "cache_misses",
    "cache.puts": "cache_puts",
    "runtime.signature_s": "stage_seconds.signature",
    "runtime.splice_s": "stage_seconds.splice",
    "runtime.dp_s": "stage_seconds.dp",
}

#: ``/metrics`` counters a repeat of the same stream should reproduce;
#: the rest (hits, misses, dedup, claims) move with thread timing.
SERVE_EXACT = ("fleet.jobs_computed", "cache.puts")

#: ``table1`` rounds per run, at the least: a single 1-2 s compile moved by
#: a quarter from run to run with host load, so per-circuit times are
#: medians over rounds.
MIN_ROUNDS = 2
#: Set-ups per run, at the least (median reported): a set-up takes a
#: quarter of a second, and the median of three moved by a third from
#: run to run.  ``table1`` runs top up with set-up-only workers
#: cycling through the circuits, serve runs with extra daemons that are
#: started and drained.
SETUP_SAMPLES = 9
#: Circuits per workload in ``--smoke`` mode.
SMOKE = {
    "table1": ["sct", "9sym", "count"],
    "serve_mixed": ["sct", "9sym", "count"],
}


class Run:
    """Bookkeeping of one benchmark invocation."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.info: Dict[str, Any] = {}
        #: Gate verdicts by (circuit, BLIF text), shared by the streams.
        self.verdicts: Dict[Tuple[str, str], List[str]] = {}
        self.tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
        self.tmp.mkdir(parents=True, exist_ok=True)

    def fail(self, problems: List[str]) -> None:
        self.problems += problems


# ----------------------------------------------------------------------
# table1: every circuit compiles in a fresh worker process
# ----------------------------------------------------------------------
def _worker(run: Run, mode: str, name: str) -> Dict[str, Any]:
    """One worker process compiling circuit ``name``; its report gains
    ``setup_s``, measured from before the spawn."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, name]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=str(ROOT), env=env, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} {name} exited {proc.returncode}: {proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready_m"] - t0
    return report


def _round(run: Run, mode: str) -> Dict[str, Any]:
    """Every circuit of the workload once, in seed order, one process
    each (as ``ddbdd synth`` runs them), so one circuit's heap never
    slows the next.  Counters and layer times add up over circuits."""
    from circuits import compile_order

    names = SMOKE[run.args.workload] if run.args.smoke else None
    merged: Dict[str, Any] = {
        "circuits": {}, "setups": [], "peak_rss_mb": 0.0, "problems": [],
        "layers": defaultdict(float), "counters": defaultdict(int),
    }
    for name in compile_order(run.args.seed, names):
        report = _worker(run, mode, name)
        merged["circuits"].update(report["circuits"])
        merged["setups"].append(report["setup_s"])
        merged["peak_rss_mb"] = max(merged["peak_rss_mb"], report["peak_rss_mb"])
        merged["problems"] += report.get("problems", [])
        for key, value in report.get("layers", {}).items():
            merged["layers"][key] += value
        for key, value in report.get("counters", {}).items():
            merged["counters"][key] += value
    run.attempted += len(merged["circuits"])
    run.failed += len({p.split(":", 1)[0] for p in merged["problems"]})
    run.fail(merged["problems"])
    return merged


def _same_qor(run: Run, first: Dict[str, Any], other: Dict[str, Any]) -> None:
    for name, row in other["circuits"].items():
        ref = first["circuits"][name]
        if (row["depth"], row["area"]) != (ref["depth"], ref["area"]):
            run.failed += 1
            run.fail([f"{name}: depth/LUTs changed between rounds of one run"])


def _wall(report: Dict[str, Any]) -> float:
    return sum(row["seconds"] for row in report["circuits"].values())


def batch_end_to_end(run: Run) -> Dict[str, float]:
    """At least :data:`MIN_ROUNDS` rounds, more while ``--seconds``
    allows; only the first round runs the gate, later rounds must
    repeat its depth and LUT counts exactly."""
    rounds: List[Dict[str, Any]] = []

    def one_round() -> None:
        rounds.append(_round(run, "timed" if rounds else "gated"))
        if len(rounds) > 1:
            _same_qor(run, rounds[0], rounds[-1])

    _repeat(run, one_round, MIN_ROUNDS)
    names = list(rounds[0]["circuits"])
    per_circuit = {
        name: statistics.median(rep["circuits"][name]["seconds"] for rep in rounds)
        for name in names
    }
    wall = statistics.median(_wall(rep) for rep in rounds)
    setups = [s for rep in rounds for s in rep["setups"]]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_worker(run, "setup", names[len(setups) % len(names)])["setup_s"])
    run.info.update(rounds=len(rounds), setup_samples=len(setups),
                    latency_tail="slowest circuit", circuits=len(names))
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in rounds),
        "depth_sum": sum(r["depth"] for r in rounds[0]["circuits"].values()),
        "lut_sum": sum(r["area"] for r in rounds[0]["circuits"].values()),
        "req_per_s": len(names) / wall,
        "latency_p50_s": statistics.median(per_circuit.values()),
        "latency_tail_s": max(per_circuit.values()),
    }


def batch_per_layer(run: Run) -> Dict[str, float]:
    """One gated untraced round, then two traced rounds whose exact
    counters must agree."""
    import spans

    plain = _round(run, "gated")
    traced = [_round(run, "traced") for _ in range(2)]
    for rep in traced:
        _same_qor(run, plain, rep)
    differ = [
        key for key in spans.EXACT_COUNTERS
        if traced[0]["counters"].get(key, 0) != traced[1]["counters"].get(key, 0)
    ]
    if differ:
        run.failed += 1
        run.fail([f"exact counters differ between two traced runs: {differ}"])
    run.info["nonrepeating_counters"] = differ
    layers = {
        key: statistics.median(rep["layers"][key] for rep in traced)
        for key in traced[0]["layers"]
    }
    counters = traced[0]["counters"]
    out = _zero_layers()
    out.update({k: v for k, v in layers.items() if k in PER_LAYER})
    out.update({row: counters.get(key, 0) for row, key in SPAN_COUNTERS.items()})
    out["kernel.hit_ratio"] = _ratio(counters.get("kernel.op_hits", 0), counters.get("kernel.op_entries", 0))
    out["trace.overhead_ratio"] = layers["traced_wall_s"] / _wall(plain)
    out["counters.nonrepeating"] = len(differ)
    for name, row in plain["circuits"].items():
        out[f"circuit.{name}.wall_s"] = row["seconds"]
    return out


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
def _stream_names(run: Run) -> List[str]:
    from circuits import serve_stream

    from serve import CLIENTS

    if run.args.smoke:
        pool = SMOKE["serve_mixed"]
        return serve_stream(run.args.seed, n=4 * len(pool), pool=pool, clients=CLIENTS)
    return serve_stream(run.args.seed, clients=CLIENTS)


def _serve_once(run: Run, tag: str, traced: bool) -> Dict[str, Any]:
    """One fresh daemon, one stream, its gate and its drain."""
    import serve

    workdir = serve.fresh_dir(run.tmp, tag)
    spans_path = workdir / "spans.json" if traced else None
    daemon = serve.Daemon(ROOT, workdir, spans_path)
    try:
        stream = serve.run_stream(daemon, _stream_names(run))
        stream["peak_rss_mb"] = daemon.vm_hwm_mb()
    except BaseException:
        daemon.kill()
        raise
    drain_problems = daemon.drain()
    stream["setup_s"] = daemon.setup_s
    failed, problems = serve.check_replies(stream["replies"], run.verdicts)
    run.attempted += len(stream["replies"])
    run.failed += failed
    run.fail(problems + drain_problems)
    if drain_problems:
        run.failed += 1
    if spans_path is not None:
        stream["spans"] = json.loads(spans_path.read_text())
    return stream


def _setup_only(run: Run, tag: str) -> float:
    import serve

    daemon = serve.Daemon(ROOT, serve.fresh_dir(run.tmp, tag))
    problems = daemon.drain()
    if problems:
        run.failed += 1
        run.fail(problems)
    return daemon.setup_s


def serve_end_to_end(run: Run) -> Dict[str, float]:
    """Streams while ``--seconds`` allows, each on a fresh daemon; the
    latency percentiles pool the requests of every stream."""
    import serve

    streams: List[Dict[str, Any]] = []
    _repeat(run, lambda: streams.append(_serve_once(run, f"stream{len(streams)}", traced=False)))
    setups = [s["setup_s"] for s in streams]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_setup_only(run, f"setup{len(setups)}"))
    figures = serve.stream_metrics(streams)
    depth, lut = serve.qor_sums(streams[0]["replies"])
    run.info.update(
        streams=len(streams),
        latency_tail=f"p{figures['tail_percentile']:g} of {figures['samples']} requests",
        setup_samples=len(setups),
    )
    return {
        "setup_s": statistics.median(setups),
        "wall_s": figures["wall_s"],
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in streams),
        "depth_sum": depth,
        "lut_sum": lut,
        "req_per_s": figures["req_per_s"],
        "latency_p50_s": figures["latency_p50_s"],
        "latency_tail_s": figures["latency_tail_s"],
    }


def serve_per_layer(run: Run) -> Dict[str, float]:
    """An untraced stream and a traced one on fresh daemons, whose
    ``/metrics`` counters are compared."""
    import serve

    plain = _serve_once(run, "plain", traced=False)
    traced = _serve_once(run, "traced", traced=True)
    deltas = [{row: s["delta"].get(key, 0) for row, key in METRICS_DELTAS.items()} for s in (plain, traced)]
    differ = [
        key for key in sorted(METRICS_DELTAS)
        if PER_LAYER[key] == "count" and deltas[0][key] != deltas[1][key]
    ]
    # Timing-dependent counters are reported, not failed: a reaped
    # claim or a lost dedup race recomputes a supernode.
    run.info["nonrepeating_counters"] = differ
    broken = [key for key in SERVE_EXACT if key in differ]
    if broken:
        run.failed += 1
        run.fail([f"exact serve counters differ between the plain and traced streams: {broken}"])
    out = _zero_layers()
    layers = traced["spans"]["layers"]
    counters = traced["spans"]["counters"]
    out.update({k: v for k, v in layers.items() if k in PER_LAYER})
    out.update({row: counters.get(key, 0) for row, key in SPAN_COUNTERS.items()})
    out["kernel.hit_ratio"] = _ratio(counters.get("kernel.op_hits", 0), counters.get("kernel.op_entries", 0))
    out.update(deltas[1])
    hits = deltas[1]["cache.memory_hits"] + deltas[1]["cache.sqlite_hits"]
    out["cache.hit_ratio"] = _ratio(hits, deltas[1]["cache.misses"])
    figures = serve.stream_metrics([traced])
    for key in ("serve.queue_wait_p50_s", "serve.service_p50_s", "serve.http_overhead_p50_s"):
        out[key] = figures[key]
    out["trace.overhead_ratio"] = traced["makespan_s"] / plain["makespan_s"]
    out["counters.nonrepeating"] = len(broken)
    first: Dict[str, float] = {}
    for reply in plain["replies"]:
        body = reply["body"]
        if reply["name"] not in first and isinstance(body, dict) and body.get("finished_s") is not None:
            first[reply["name"]] = body["finished_s"] - body["started_s"]
    for name, seconds in first.items():
        out[f"circuit.{name}.wall_s"] = seconds
    return out


# ----------------------------------------------------------------------
def _repeat(run: Run, step: Callable[[], None], minimum: int = 1) -> None:
    """Run ``step`` ``minimum`` times, then again while another of the
    same length still fits in ``--seconds``."""
    start = time.monotonic()
    done = 0
    while True:
        t0 = time.monotonic()
        step()
        done += 1
        took = time.monotonic() - t0
        if done >= minimum and time.monotonic() - start + took > run.args.seconds:
            return


def _zero_layers() -> Dict[str, float]:
    """Every per-layer row at 0: a layer the workload does not reach
    did no work."""
    return {name: 0.0 for name in PER_LAYER}


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, seconds per run")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    # A terminated benchmark still stops its daemons and workers: the
    # exit unwinds through their clean-up blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args)
    try:
        if args.workload == "serve_mixed":
            values = serve_per_layer(run) if args.trace else serve_end_to_end(run)
        else:
            values = batch_per_layer(run) if args.trace else batch_end_to_end(run)
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)
        try:
            run.tmp.parent.rmdir()
        except OSError:
            pass
    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in values.items()
        if name in units
    }
    for problem in run.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({"info": run.info, "problems": run.problems[:20]}))
    correct = not run.problems and run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
