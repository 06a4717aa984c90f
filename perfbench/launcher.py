"""Run ``ddbdd serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/launcher.py SPANS_JSON serve [serve args]``
with ``src`` on ``PYTHONPATH``.  Installs :func:`spans.install_serve`,
runs ``repro.cli.main`` with the remaining arguments and, once the
daemon has drained, writes its layer summary and counters to
SPANS_JSON.  The exit status is the daemon's.

Supernodes the daemon hands to its process pool run in forked workers;
their spans stay there, so the per-layer DP times cover only the work
done in the daemon process itself.
"""

from __future__ import annotations

import json
import sys

import spans


def main(argv: list) -> int:
    from repro.cli import main as cli_main

    tracer = spans.Tracer()
    undo = spans.install_serve(tracer)
    try:
        rc = cli_main(argv[1:])
    finally:
        undo()
    summary = {
        "layers": spans.layer_summary(tracer, "serve"),
        "counters": tracer.counters(),
    }
    with open(argv[0], "w") as fh:
        json.dump(summary, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
