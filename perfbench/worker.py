"""Compile one ``table1`` circuit in a fresh interpreter.

Usage: ``python3 perfbench/worker.py MODE CIRCUIT`` with ``src`` on
``PYTHONPATH``.  MODE is

* ``setup``  — import the package and build the circuit, nothing more;
* ``timed``  — ``setup``, then compile the circuit serially with the
  cache off, untraced;
* ``gated``  — ``timed``, then the correctness gate outside the timed
  region;
* ``traced`` — the same compile with :mod:`spans` wrappers installed.

The last stdout line is one JSON object.  ``ready_m`` is the
``time.monotonic()`` reading once set-up is done; the parent, which
took the same clock before spawning, turns it into the set-up time.
"""

from __future__ import annotations

import json
import sys
import time


def _peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``) in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(mode: str, name: str) -> dict:
    from repro import DDBDDConfig, build_circuit, ddbdd_synthesize

    net = build_circuit(name)
    out: dict = {"ready_m": time.monotonic()}
    if mode == "setup":
        return out
    config = DDBDDConfig(jobs=1, cache="off")
    if mode == "traced":
        import spans

        tracer = spans.Tracer()
        undo = spans.install(tracer)
        tracer.log().rid = name
        t0 = time.perf_counter()
        result = tracer.span("circuit", ddbdd_synthesize, net, config)
        seconds = time.perf_counter() - t0
        undo()
        tracer.kernel(result.network.mgr)
        out["layers"] = spans.layer_summary(tracer, "circuit")
        out["counters"] = tracer.counters()
    else:
        t0 = time.perf_counter()
        result = ddbdd_synthesize(net, config)
        seconds = time.perf_counter() - t0
    out["peak_rss_mb"] = _peak_rss_mb()
    out["circuits"] = {name: {"seconds": seconds, "depth": result.depth, "area": result.area}}
    if mode == "gated":
        from gate import check_output

        out["problems"] = check_output(
            name, build_circuit(name), result.network, result.depth, result.area
        )
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], sys.argv[2])))
