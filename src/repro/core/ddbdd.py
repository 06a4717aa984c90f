"""The complete DDBDD flow (Algorithm 1).

1. Sweep the input network (constants, buffers, dangling logic).
2. Collapse it into supernodes with Algorithm 2 (unless disabled).
3. Visit supernodes in topological order; for each, run the Algorithm 3
   dynamic program with the already-known mapping depths of its fanins,
   and emit the best decomposition as K-LUT cells into the output
   network.
4. Bind primary outputs (inserting an inverter LUT only in the rare
   case a PO needs the complement of a shared signal).

The result is a K-feasible LUT network: its unit-delay depth is the
paper's "mapping depth" and its node count the paper's "area" (number
of LUTs).

Since the :mod:`repro.flow` refactor the stage *sequence* lives there
as a pass pipeline (``sweep;collapse;synth;map``);
:func:`ddbdd_synthesize` is a thin wrapper that builds and runs the
pipeline for its config.  This module keeps the flow's result type and
the reference serial supernode engine
(:func:`serial_supernodes` — Algorithm 1 step 3), which the ``synth``
pass runs when neither a process pool, a cache nor a resilience guard
is in play, and the buffer/inverter test (:func:`as_literal`) that both
supernode engines share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.analysis.hooks import StageVerifier
from repro.core.collapse import CollapseStats
from repro.core.config import DDBDDConfig
from repro.core.dp import BDDSynthesizer, SupernodeResult
from repro.network.depth import topological_order
from repro.network.netlist import BooleanNetwork, Node

if TYPE_CHECKING:
    # Type-only: importing repro.runtime here would cycle back through
    # repro.runtime.schedule, which imports as_literal from this module.
    from repro.runtime.stats import RuntimeStats


@dataclass
class SynthesisResult:
    """Output of the DDBDD flow."""

    network: BooleanNetwork
    depth: int
    area: int
    po_depths: Dict[str, int]
    collapse_stats: Optional[CollapseStats]
    supernodes: List[SupernodeResult]
    runtime_s: float
    config: DDBDDConfig
    runtime_stats: Optional[RuntimeStats] = None

    def summary(self) -> str:
        return (
            f"{self.network.name}: depth={self.depth} area={self.area} "
            f"supernodes={len(self.supernodes)} runtime={self.runtime_s:.2f}s"
        )


def ddbdd_synthesize(
    net: BooleanNetwork, config: Optional[DDBDDConfig] = None
) -> SynthesisResult:
    """Synthesize ``net`` into a K-LUT network optimized for depth.

    Thin wrapper over :func:`repro.flow.run_flow`: builds the pass
    pipeline for ``config`` (``config.flow`` overrides the standard
    ``sweep;collapse;synth;map`` script) and runs it.  Output is
    bit-identical to the historical hard-coded stage sequence.
    """
    from repro.flow import run_flow  # deferred: repro.flow imports this module

    return run_flow(net, config)


def serial_supernodes(
    work: BooleanNetwork,
    mapped: BooleanNetwork,
    config: DDBDDConfig,
    verifier: StageVerifier,
    resolve: Dict[str, Tuple[str, bool, int]],
    external: set,
) -> List[SupernodeResult]:
    """The reference serial supernode loop (Algorithm 1, step 3).

    Visits ``work`` in topological order, runs the Algorithm 3 DP per
    real supernode and emits its cells into ``mapped``; ``resolve`` /
    ``external`` are updated in place exactly as the wavefront engine
    would (the determinism contract's ground truth).
    """
    supernode_results: List[SupernodeResult] = []
    for name in topological_order(work):
        node = work.nodes[name]
        mgr = work.mgr
        func = node.func
        if mgr.is_terminal(func):
            # Constant supernode: a zero-input LUT at depth 0.
            const_name = mapped.fresh_name(f"{name}_const")
            mapped.add_node_function(const_name, [], mapped.mgr.ONE if func == mgr.ONE else mapped.mgr.ZERO)
            resolve[name] = (const_name, False, 0)
            external.add(const_name)
            continue
        lit = as_literal(work, node)
        if lit is not None:
            src, negated = lit
            base, base_neg, d = resolve[src]
            resolve[name] = (base, base_neg ^ negated, d)
            continue

        input_delays = {work.var_of(f): resolve[f][2] for f in node.fanins}
        leaf_signals = {work.var_of(f): resolve[f] for f in node.fanins}
        synth = BDDSynthesizer(mgr, func, input_delays, config)
        result = synth.emit(mapped, leaf_signals, prefix=name)
        sig, neg, depth = result.signal, result.negated, result.depth
        if neg and sig in mapped.nodes and sig not in external:
            # The supernode's output LUT was created by this emission
            # and has no other consumers: absorb the complement into
            # its function instead of inverting later.
            lut = mapped.nodes[sig]
            lut.func = mapped.mgr.negate(lut.func)
            neg = False
        resolve[name] = (sig, neg, depth)
        external.add(sig)
        supernode_results.append(result)
        verifier.after_supernode(mapped, name, mgr=synth.mgr, func=synth.func)
    return supernode_results


def as_literal(net: BooleanNetwork, node: Node) -> Optional[Tuple[str, bool]]:
    """If the node is a buffer/inverter of one signal, return
    ``(source, negated)``.  Both supernode engines treat such a node as
    a free rewiring of its source rather than a supernode."""
    if len(node.fanins) != 1:
        return None
    v = net.var_of(node.fanins[0])
    if node.func == net.mgr.var(v):
        return (node.fanins[0], False)
    if node.func == net.mgr.nvar(v):
        return (node.fanins[0], True)
    return None
