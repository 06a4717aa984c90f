"""Tests of the benchmark itself, on the ``--smoke`` inputs.

Run from the repository root: ``python3 -m pytest perfbench/test_smoke.py``.
Each workload runs end to end (untraced and traced) on a few small
circuits, through the correctness gate and the span writer, in
seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import circuits  # noqa: E402
import serve  # noqa: E402
import spans  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*BENCH["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload: str, trace: int) -> None:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    for metric in wanted:
        row = result["metrics"][metric["name"]]
        assert row["unit"] == metric["unit"]
        assert isinstance(row["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    assert not (ROOT / ".perfbench_tmp").exists()


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("table1", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_children() -> None:
    trace = [("circuit", 0.0, 10.0, -1, "a"), ("dp.emit", 1.0, 5.0, 0, "a"),
             ("linear", 2.0, 3.0, 1, "a"), ("collapse", 6.0, 8.0, 0, "a")]
    assert spans.self_times([trace]) == {"circuit": 4.0, "dp": 3.0, "linear": 1.0, "collapse": 2.0}


def test_tracer_nests_and_counts() -> None:
    tracer = spans.Tracer()
    inner = tracer.wrap("linear", lambda x: x + 1)
    outer = tracer.wrap("dp.emit", lambda x: inner(x) * 2)
    assert tracer.span("circuit", outer, 1) == 4
    (log,) = tracer.spans()
    assert [(name, parent) for name, _, _, parent, _ in log] == [
        ("circuit", -1), ("dp.emit", 0), ("linear", 1)]
    assert tracer.counters()["linear.calls"] == 1


def test_serve_stream_reorders_fixed_rounds() -> None:
    a, b = circuits.serve_stream(1), circuits.serve_stream(2)
    assert a == circuits.serve_stream(1) and a != b
    assert len(a) == circuits.SERVE_REQUESTS and set(a) == set(circuits.SERVE_POOL)

    def rounds(stream: list) -> list:
        return [tuple(stream[i : i + 2]) for i in range(0, len(stream), 2)]

    assert sorted(rounds(a)) == sorted(rounds(b))
    first_rounds = sorted(
        rounds(a)[[name in r for r in rounds(a)].index(True)] for name in set(a)
    )
    assert first_rounds == sorted(
        rounds(b)[[name in r for r in rounds(b)].index(True)] for name in set(b)
    )


def test_tail_percentile_leaves_ten_samples_beyond() -> None:
    for n in (40, 48, 64, 80, 100):
        q = int(serve.tail_percentile(n))
        assert n * (100 - q) >= 1000 > n * (100 - q - 1)
