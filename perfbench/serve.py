"""The ``serve_mixed`` workload: a closed loop against ``ddbdd serve``.

Each stream gets a fresh daemon (``--port 0 --workers 2`` on a fresh
cache root) and :data:`CLIENTS` client threads, each its own tenant,
that send the seeded request stream in lockstep, one synchronous
``POST /v1/synthesize`` per connection (``jobs=2``, ``cache=readwrite``
on the served root, ``emit: "blif"``).  Free-running clients were
tried first: which requests overlapped then depended on thread timing,
and the tail latency moved by 40% between runs.  ``/metrics`` is read before
and after the stream so only its deltas count.  The daemon is then
drained with SIGTERM and must exit 0.  The returned BLIFs are checked
after the makespan closes.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

CLIENTS = 2
WORKERS = 2
JOBS = 2
REQUEST_TIMEOUT_S = 150.0
START_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0

_LISTENING = re.compile(r"listening on http://[\d.]+:(\d+)")


class Daemon:
    """One ``ddbdd serve`` subprocess on an ephemeral port.

    With ``spans`` set, the daemon runs under :mod:`launcher`, which
    installs the span wrappers and writes the spans there at drain.
    """

    def __init__(self, root: Path, workdir: Path, spans: Optional[Path] = None) -> None:
        self.cache_root = workdir / "cache"
        self.cache_root.mkdir(parents=True)
        self.stderr_path = workdir / "daemon.stderr"
        serve_args = [
            "serve", "--port", "0", "--workers", str(WORKERS),
            "--cache-root", str(self.cache_root),
        ]
        if spans is None:
            cmd = [sys.executable, "-m", "repro.cli", *serve_args]
        else:
            cmd = [sys.executable, str(root / "perfbench" / "launcher.py"), str(spans), *serve_args]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        env.pop("DDBDD_FAULTS", None)
        env.pop("DDBDD_JOBS", None)
        self.lines: List[str] = []
        self._port: Optional[int] = None
        self._port_ready = threading.Event()
        t0 = time.monotonic()
        with open(self.stderr_path, "wb") as err:
            # A process group of its own: the daemon's forked pool
            # workers join it, so the group can be stopped whole.
            self.proc = subprocess.Popen(
                cmd, cwd=str(root), env=env, stdout=subprocess.PIPE, stderr=err,
                text=True, start_new_session=True,
            )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self._wait_healthy()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.monotonic() - t0

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.append(line.rstrip("\n"))
            match = _LISTENING.search(line)
            if match and self._port is None:
                self._port = int(match.group(1))
                self._port_ready.set()
        self._port_ready.set()

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        if not self._port_ready.wait(START_TIMEOUT_S) or self._port is None:
            raise RuntimeError(f"daemon did not announce a port: {self.diagnostics()}")
        while time.monotonic() < deadline:
            try:
                status, _ = self.request("GET", "/healthz", timeout=5.0)
                if status == 200:
                    return
            except OSError:
                pass
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"daemon never answered /healthz: {self.diagnostics()}")

    @property
    def port(self) -> int:
        assert self._port is not None
        return self._port

    def request(
        self, method: str, path: str, payload: Any = None, timeout: float = 30.0
    ) -> Tuple[int, Any]:
        """One request on its own connection; returns (status, JSON body)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            body = None if payload is None else json.dumps(payload)
            headers = {} if body is None else {"Content-Type": "application/json"}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        return resp.status, json.loads(data) if data else None

    def metrics(self) -> Dict[str, Any]:
        status, body = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return body

    def vm_hwm_mb(self) -> float:
        """The daemon's peak resident set so far (``VmHWM``), MiB."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing")

    def drain(self) -> List[str]:
        """SIGTERM, wait, and return the problems with the shutdown."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            rc = self.proc.wait(DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return [f"daemon did not drain within {DRAIN_TIMEOUT_S}s"]
        self._reader.join(10)
        self._stop_group()
        problems = []
        if rc != 0:
            problems.append(f"daemon exited {rc} after SIGTERM: {self.diagnostics()}")
        if not any("drained" in line for line in self.lines):
            problems.append("daemon printed no 'drained' line")
        return problems

    def kill(self) -> None:
        self._stop_group()
        self.proc.wait()
        self._reader.join(10)

    def _stop_group(self) -> None:
        """SIGKILL whatever is left of the daemon's process group and
        wait until it is gone."""
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                return
            self.proc.poll()  # reap the leader once it has died
            time.sleep(0.05)

    def diagnostics(self) -> str:
        try:
            tail = self.stderr_path.read_text()[-2000:]
        except OSError:
            tail = ""
        return f"stdout={self.lines[-5:]} stderr={tail!r}"


def _submit_payload(name: str, tenant: str, cache_root: Path) -> Dict[str, Any]:
    return {
        "benchmark": name,
        "mode": "sync",
        "tenant": tenant,
        "emit": "blif",
        "config": {"jobs": JOBS, "cache": "readwrite", "cache_dir": str(cache_root)},
    }


def run_stream(daemon: Daemon, stream: List[str]) -> Dict[str, Any]:
    """Drive ``stream`` through ``daemon`` with :data:`CLIENTS` closed-
    loop clients in lockstep: client ``k`` sends requests ``k, k +
    CLIENTS, ...`` and each round of requests starts when the previous
    one has all replied.  Which requests overlap is thus set by the
    stream, not by thread timing.  Returns the replies and timings."""
    replies: List[Optional[Dict[str, Any]]] = [None] * len(stream)
    barrier = threading.Barrier(CLIENTS)

    def client(k: int) -> None:
        tenant = f"bench{k}"
        for index in range(k, len(stream), CLIENTS):
            barrier.wait(REQUEST_TIMEOUT_S)
            name = stream[index]
            t0 = time.perf_counter()
            try:
                status, body = daemon.request(
                    "POST", "/v1/synthesize",
                    _submit_payload(name, tenant, daemon.cache_root),
                    timeout=REQUEST_TIMEOUT_S,
                )
                error = None
            except (OSError, ValueError) as exc:
                status, body, error = 0, None, repr(exc)
            t1 = time.perf_counter()
            replies[index] = {
                "name": name, "tenant": tenant, "sent": t0, "done": t1,
                "status": status, "body": body, "error": error,
            }

    if len(stream) % CLIENTS:
        raise ValueError(f"stream length {len(stream)} is not a multiple of {CLIENTS}")
    before = daemon.metrics()
    threads = [threading.Thread(target=client, args=(k,)) for k in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    after = daemon.metrics()
    done = [r for r in replies if r is not None]
    makespan = max(r["done"] for r in done) - min(r["sent"] for r in done)
    return {"replies": done, "makespan_s": makespan, "delta": metrics_delta(before, after)}


def metrics_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    """Flattened numeric ``/metrics`` differences (``a.b.c`` keys)."""

    def flat(tree: Dict[str, Any], prefix: str = "") -> Dict[str, float]:
        out: Dict[str, float] = {}
        for key, value in tree.items():
            if isinstance(value, dict):
                out.update(flat(value, f"{prefix}{key}."))
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                out[f"{prefix}{key}"] = value
        return out

    a, b = flat(before), flat(after)
    return {key: b[key] - a.get(key, 0) for key in b}


def check_replies(
    replies: List[Dict[str, Any]], verdicts: Dict[Tuple[str, str], List[str]]
) -> Tuple[int, List[str]]:
    """The correctness gate over one stream's replies: returns the
    number of failed requests and the problems found.  ``verdicts``
    maps (circuit, BLIF text) to its problems and is shared by the
    streams of one run, so a BLIF already checked is not checked
    twice."""
    from repro import build_circuit, parse_blif

    from gate import check_output, strip_po_buffers

    failed, problems = 0, []
    first_blif: Dict[str, str] = {}
    for reply in replies:
        name, body = reply["name"], reply["body"]
        found: List[str] = []
        if reply["error"] is not None:
            found.append(f"{name}: request failed: {reply['error']}")
        elif reply["status"] != 200 or not isinstance(body, dict) or body.get("state") != "done":
            found.append(f"{name}: HTTP {reply['status']}: {str(body)[:300]}")
        else:
            result = body["result"]
            blif = result["blif"]
            if first_blif.setdefault(name, blif) != blif:
                found.append(f"{name}: BLIF differs from the first reply for the same circuit")
            key = (name, blif)
            if key not in verdicts:
                mapped = strip_po_buffers(parse_blif(blif, name_hint=name))
                verdicts[key] = check_output(
                    name, build_circuit(name), mapped, result["depth"], result["area"]
                )
            found += verdicts[key]
        if found:
            failed += 1
            problems += found
    return failed, problems


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest whole percentile with at least ten samples above it."""
    return float(max(50, 100 * (n - 10) // n))


def stream_metrics(streams: List[Dict[str, Any]]) -> Dict[str, float]:
    """End-to-end and serve-layer figures of one or more streams; the
    latency percentiles pool every request of every stream."""
    replies = [r for s in streams for r in s["replies"]]
    latency = [r["done"] - r["sent"] for r in replies]
    ok = [r for r in replies if r["status"] == 200 and isinstance(r["body"], dict)]
    wait = [r["body"]["started_s"] - r["body"]["queued_s"] for r in ok]
    service = [r["body"]["finished_s"] - r["body"]["started_s"] for r in ok]
    overhead = [
        (r["done"] - r["sent"]) - (r["body"]["finished_s"] - r["body"]["queued_s"]) for r in ok
    ]
    tail_q = tail_percentile(len(latency))
    return {
        "wall_s": statistics.median(s["makespan_s"] for s in streams),
        "req_per_s": len(replies) / sum(s["makespan_s"] for s in streams),
        "latency_p50_s": statistics.median(latency),
        "latency_tail_s": percentile(latency, tail_q),
        "tail_percentile": tail_q,
        "samples": len(latency),
        "serve.queue_wait_p50_s": statistics.median(wait) if wait else 0.0,
        "serve.service_p50_s": statistics.median(service) if service else 0.0,
        "serve.http_overhead_p50_s": statistics.median(overhead) if overhead else 0.0,
    }


def qor_sums(replies: List[Dict[str, Any]]) -> Tuple[int, int]:
    """Summed depth and LUT count over the distinct circuits answered
    (the first reply of each; repeats are byte-identical)."""
    seen: Dict[str, Tuple[int, int]] = {}
    for r in replies:
        body = r["body"]
        if r["name"] not in seen and r["status"] == 200 and isinstance(body, dict) and body.get("result"):
            seen[r["name"]] = (body["result"]["depth"], body["result"]["area"])
    return sum(d for d, _ in seen.values()), sum(a for _, a in seen.values())


def fresh_dir(base: Path, tag: str) -> Path:
    path = base / tag
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
