"""In-memory span tracing of the DDBDD layers, installed from outside.

:func:`install` wraps public functions of the flow where their callers
look them up, so no file of the program changes: each call becomes a
span ``(name, start, end, parent, rid)`` whose layer is the name up
to its first dot.  Spans stay in memory and
are reduced at the end by :func:`layer_summary`.  A layer's self time
is the summed duration of its spans minus the time their child spans
cover; calls within one thread nest, so the children of a span never
overlap.

Counters are recorded at the same boundaries: call counts per span
name, DP states from :meth:`BDDSynthesizer.emit`'s result, collapse merges from
:func:`partial_collapse`'s stats, and BDD-kernel counters from
``cache_stats()`` of the work manager, the mapped managers and every
synthesizer's private manager.
"""

from __future__ import annotations

import functools
import threading
from time import perf_counter
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(name, start, end, parent index, request id)``; the layer is the
#: name up to its first dot.
Span = Tuple[str, float, float, int, str]

#: Layers below the root span (``circuit`` or ``serve``), in report
#: order.
LAYERS = (
    "collapse", "reorder", "dp", "linear", "binpack", "leveled",
    "netcover", "lutpack", "network", "fleet", "cache", "signature",
)

#: Counters (keys of :meth:`Tracer.counters`) that must repeat
#: exactly between two serial runs of one input.
EXACT_COUNTERS = (
    "dp.states", "dp.emit.calls", "linear.calls", "binpack.calls",
    "leveled.cut_set.calls", "reorder.calls", "kernel.nodes",
    "kernel.op_hits", "kernel.op_entries", "collapse.merges",
)

_KERNEL_OPS = ("ite", "and", "xor")


class _ThreadLog:
    """One thread's spans, open-span stack, counters and request id."""

    __slots__ = ("spans", "stack", "counters", "rid")

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self.rid = ""


class Tracer:
    """Span and counter store shared by every wrapper of one process.

    Each thread appends to its own log, so recording takes no lock;
    parent indices refer to the same thread's log.
    """

    def __init__(self) -> None:
        self._logs: List[_ThreadLog] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def log(self) -> _ThreadLog:
        """The calling thread's log."""
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def span(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span called ``name``."""
        log = self.log()
        spans, stack = log.spans, log.stack
        index = len(spans)
        spans.append(None)  # type: ignore[arg-type]
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spans[index] = (name, start, perf_counter(), parent, log.rid)
            stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.log().counters[name] += n

    def kernel(self, mgr: Any) -> None:
        """Add one BDD manager's kernel counters."""
        stats = mgr.cache_stats()
        counters = self.log().counters
        counters["kernel.nodes"] += stats["nodes"]
        counters["kernel.op_hits"] += sum(stats[f"{op}_hits"] for op in _KERNEL_OPS)
        counters["kernel.op_entries"] += sum(stats[f"{op}_entries"] for op in _KERNEL_OPS)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        after: Optional[Callable[[Any, tuple], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` traced as span ``name``; ``after(result, args)`` runs
        once the call returns."""
        span = self.span
        if after is None:

            @functools.wraps(fn)
            def traced(*args: Any, **kwargs: Any) -> Any:
                return span(name, fn, *args, **kwargs)

        else:

            @functools.wraps(fn)
            def traced(*args: Any, **kwargs: Any) -> Any:
                result = span(name, fn, *args, **kwargs)
                after(result, args)
                return result

        return traced

    def spans(self) -> List[List[Span]]:
        """Every thread's span list."""
        with self._lock:
            return [log.spans for log in self._logs]

    def counters(self) -> Dict[str, int]:
        """Counters summed over threads, plus one ``<span>.calls``
        count per span name."""
        total: Dict[str, int] = defaultdict(int)
        with self._lock:
            logs = list(self._logs)
        for log in logs:
            for key, value in log.counters.items():
                total[key] += value
            for span in log.spans:
                total[span[0] + ".calls"] += 1
        return dict(total)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the flow's layer entry points; returns the undo function."""
    import repro.core.dp as dp
    import repro.core.lutpack as lutpack
    import repro.flow.passes.collapse as collapse_pass
    import repro.flow.passes.sweep as sweep_pass
    import repro.mapping.netcover as netcover
    import repro.network.transform as transform
    from repro.bdd.leveled import LeveledBDD

    def after_collapse(stats: Any, args: tuple) -> None:
        tracer.count("collapse.merges", stats.merges)
        tracer.kernel(args[0].mgr)

    def after_emit(result: Any, args: tuple) -> None:
        # ``emit`` is called as a method: args[0] is the synthesizer,
        # whose private manager the DP grew.
        tracer.count("dp.states", result.states_visited)
        tracer.kernel(args[0].mgr)

    def after_cover(_result: Any, args: tuple) -> None:
        tracer.kernel(args[0].mgr)

    wrap = tracer.wrap
    return _apply([
        (collapse_pass, "partial_collapse", wrap("collapse", collapse_pass.partial_collapse, after_collapse)),
        (dp, "reorder_for_size", wrap("reorder", dp.reorder_for_size)),
        (dp, "candidates_for_cut", wrap("linear", dp.candidates_for_cut)),
        (dp, "pack_or_cost", wrap("binpack", dp.pack_or_cost)),
        (dp, "pack_or_gates", wrap("binpack", dp.pack_or_gates)),
        (dp, "LeveledBDD", wrap("leveled.build", dp.LeveledBDD)),
        (LeveledBDD, "cut_set", wrap("leveled.cut_set", LeveledBDD.cut_set)),
        (dp.BDDSynthesizer, "synthesize", wrap("dp.synthesize", dp.BDDSynthesizer.synthesize)),
        (dp.BDDSynthesizer, "emit", wrap("dp.emit", dp.BDDSynthesizer.emit, after_emit)),
        (netcover, "cover_network", wrap("netcover", netcover.cover_network, after_cover)),
        (lutpack, "lut_pack", wrap("lutpack", lutpack.lut_pack)),
        (transform, "merge_duplicates", wrap("network.merge_duplicates", transform.merge_duplicates)),
        (sweep_pass, "sweep", wrap("network.sweep", sweep_pass.sweep)),
    ])


def install_serve(tracer: Tracer) -> Callable[[], None]:
    """:func:`install` plus the daemon's request, fleet, cache-tier and
    signature boundaries.  Each request's spans carry a request id."""
    import repro.runtime.pool as pool
    import repro.runtime.schedule as schedule
    import repro.serve.app as app
    from repro.runtime.fleet import FleetScheduler
    from repro.runtime.tiers import TieredEmissionCache

    execute = tracer.wrap("serve.execute", app._execute)
    seq = iter(range(1, 1 << 62))

    def execute_with_rid(request: Any, observer: Any) -> Any:
        tracer.log().rid = f"{request.source}#{next(seq)}"
        return execute(request, observer)

    wrap = tracer.wrap
    undo_flow = install(tracer)
    undo_serve = _apply([
        (app, "_execute", execute_with_rid),
        (FleetScheduler, "run_wave", wrap("fleet.run_wave", FleetScheduler.run_wave)),
        (TieredEmissionCache, "get", wrap("cache.get", TieredEmissionCache.get)),
        (TieredEmissionCache, "put", wrap("cache.put", TieredEmissionCache.put)),
        (schedule, "export_dag", wrap("signature.export_dag", schedule.export_dag)),
        (pool, "signature", wrap("signature.hash", pool.signature)),
    ])

    def undo() -> None:
        undo_serve()
        undo_flow()

    return undo


def _apply(patches: List[Tuple[Any, str, Any]]) -> Callable[[], None]:
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, wrapper in patches:
        setattr(owner, name, wrapper)

    def undo() -> None:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)

    return undo


def self_times(span_lists: List[List[Span]]) -> Dict[str, float]:
    """Summed self time per layer: span durations minus the time their
    child spans cover."""
    out: Dict[str, float] = defaultdict(float)
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for _name, start, end, parent, _rid in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _parent, _rid) in enumerate(spans):
            out[name.split(".", 1)[0]] += (end - start) - child_time[i]
    return dict(out)


def layer_summary(tracer: Tracer, root: str) -> Dict[str, float]:
    """Per-layer self seconds, ``unattributed_s`` (self time of the
    ``root`` layer: traced wall time no other layer covers) and
    ``traced_wall_s`` (summed duration of top-level ``root`` spans)."""
    span_lists = tracer.spans()
    selfs = self_times(span_lists)
    out = {f"{layer}.self_s": selfs.get(layer, 0.0) for layer in LAYERS}
    out["unattributed_s"] = selfs.get(root, 0.0)
    out["traced_wall_s"] = sum(
        end - start
        for spans in span_lists
        for name, start, end, parent, _rid in spans
        if parent < 0 and name.split(".", 1)[0] == root
    )
    return out
