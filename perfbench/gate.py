"""The benchmark's correctness gate, run outside every timed region.

Every compiled output must be a K-feasible LUT network, equivalent to
its source by the global-BDD check of
:func:`repro.network.check_equivalence`, whose structural depth is the
depth the flow reports.  Table-I circuits must also reproduce the
paper-anchor goldens (depth, LUT count).  Each function returns the
list of problems found; an empty list means the output passed.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.network import check_equivalence, network_depth
from repro.network.netlist import BooleanNetwork

K = 5
#: Global-BDD node limit of the equivalence check: high enough that
#: the comparator and adder circuits (32 inputs, non-interleaved
#: order) are decided by BDDs instead of the simulation fallback.
NODE_LIMIT = 4_000_000

#: (depth, LUTs) of the Table-I circuits under the default config.
GOLDENS: Dict[str, Tuple[int, int]] = {
    "cht": (8, 644),
    "sct": (3, 50),
    "misex1": (3, 76),
    "9sym": (3, 13),
    "sse": (5, 1199),
    "ttt2": (10, 447),
    "count": (2, 33),
    "lal": (10, 551),
}


def strip_po_buffers(net: BooleanNetwork) -> BooleanNetwork:
    """Undo the buffers BLIF writing adds in place: a PO driven by a
    node of its own name with one fanin and the identity function is
    rebound to that fanin and the buffer removed."""
    fanouts = net.fanouts()
    for po, signal in list(net.pos.items()):
        node = net.nodes.get(signal)
        if (
            signal == po
            and node is not None
            and len(node.fanins) == 1
            and not fanouts.get(signal)
            and node.func == net.mgr.var(net.var_of(node.fanins[0]))
        ):
            net.pos[po] = node.fanins[0]
            net.remove_node(signal)
    return net


def check_output(
    name: str,
    source: BooleanNetwork,
    mapped: BooleanNetwork,
    depth: int,
    area: int,
) -> List[str]:
    """Problems with one compiled output (empty when it is correct)."""
    problems = []
    if len(mapped.nodes) != area:
        problems.append(f"{name}: reported {area} LUTs, network has {len(mapped.nodes)}")
    real = network_depth(mapped)
    if real != depth:
        problems.append(f"{name}: reported depth {depth}, network depth {real}")
    if mapped.max_fanin() > K:
        problems.append(f"{name}: a LUT has {mapped.max_fanin()} inputs, K = {K}")
    golden = GOLDENS.get(name)
    if golden is not None and golden != (depth, area):
        problems.append(f"{name}: depth/LUTs {depth}/{area}, golden {golden[0]}/{golden[1]}")
    verdict = check_equivalence(source, mapped, node_limit=NODE_LIMIT)
    if not verdict.equivalent:
        problems.append(f"{name}: not equivalent to its source at output {verdict.failing_output}")
    elif verdict.method != "bdd":
        problems.append(f"{name}: equivalence decided by {verdict.method}, not by BDDs")
    return problems
