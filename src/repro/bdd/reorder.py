"""Variable reordering.

DDBDD reorders the BDD of every supernode before running the synthesis
dynamic program ("reduce the size of the BDD by a reordering
algorithm", Algorithm 3, citing Rudell's sifting [18]).  Two engines:

* :func:`sift_inplace` — classical Rudell sifting using in-place
  adjacent-level swaps (:meth:`BDDManager.swap_adjacent_levels`):
  each variable is moved through every position and parked where the
  shared node count is smallest.  O(n²·w) where w is a level width —
  fast enough for the ≤200-node supernode BDDs even with dozens of
  support variables.  Requires a *private* manager holding only the
  function being sifted (in-place rewriting invalidates no ids, but
  the level moves are global to the manager).
* :func:`exhaustive_reorder` — all permutations, for tiny supports and
  for cross-checking sifting in tests.

All entry points return ``(manager, function, order)``; the manager is
fresh (the caller's manager is never mutated).
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bdd.manager import BDDManager


def _rebuild(
    mgr: BDDManager, f: int, order: Sequence[int]
) -> Tuple[BDDManager, int]:
    """Rebuild ``f`` in a fresh manager whose level order is ``order``.

    ``order`` lists *source-manager* variable ids, top level first; it
    must cover at least the support of ``f``.  The new manager reuses
    the same variable ids and names as the source.  When ``order`` keeps
    the source's relative order of the support, the rows are copied
    structurally (:func:`_copy`); otherwise ``f`` is rebuilt by Shannon
    expansion (:meth:`BDDManager.transfer`).
    """
    new_order = list(order) + [v for v in range(mgr.num_vars) if v not in set(order)]
    names = [mgr.var_name(v) for v in range(mgr.num_vars)]
    fresh = BDDManager(mgr.num_vars, var_names=names, order=new_order)
    support = mgr.support_ordered(f)
    placed = set(support)
    if [v for v in order if v in placed] == support:
        return fresh, _copy(mgr, f, fresh)
    return fresh, mgr.transfer(f, fresh)


def _copy(mgr: BDDManager, f: int, fresh: BDDManager) -> int:
    """Copy the rows of ``f`` into ``fresh``, hi child first, post-order.

    Only valid when ``fresh`` orders the support of ``f`` as ``mgr``
    does: the source rows are then already reduced and ordered, so one
    find-or-create per row rebuilds ``f`` without a cofactor per node.
    The rows are made in the order :meth:`BDDManager.transfer` makes
    them, so the handles come out identical.
    """
    var_a = mgr._var
    lo_a = mgr._lo
    hi_a = mgr._hi
    mk = fresh._mk
    made: Dict[int, int] = {}

    def copy(h: int) -> int:
        if h <= 1:
            return h
        i = h >> 1
        got = made.get(i)
        if got is None:
            hi = copy(hi_a[i])
            got = made[i] = mk(var_a[i], copy(lo_a[i]), hi)
        return got ^ (h & 1)

    return copy(f)


def reorder_for_size(
    mgr: BDDManager, f: int, effort: str = "sift"
) -> Tuple[BDDManager, int, List[int]]:
    """Minimize the node count of ``f`` by reordering its support.

    ``effort`` is ``"none"``, ``"sift"`` or ``"exact"`` (exhaustive,
    only sensible for supports of ≤ 7 variables; larger supports fall
    back to sifting).  Always returns a fresh manager.
    """
    support = mgr.support_ordered(f)
    if effort == "none" or len(support) <= 1:
        fresh, g = _rebuild(mgr, f, support)
        return fresh, g, support
    if effort == "exact" and len(support) <= 7:
        return exhaustive_reorder(mgr, f)
    if effort not in ("sift", "exact"):
        raise ValueError(f"unknown reorder effort {effort!r}")
    return sift(mgr, f)


def sift(mgr: BDDManager, f: int) -> Tuple[BDDManager, int, List[int]]:
    """Rudell sifting of ``f``; returns a fresh, compacted manager."""
    support = mgr.support_ordered(f)
    work_mgr, work_f = _rebuild(mgr, f, support)
    sift_inplace(work_mgr, work_f, num_support=len(support))
    # Compact: drop the garbage nodes sifting left behind.
    final_order = [v for v in work_mgr.order if v in set(support)]
    final_mgr, final_f = _rebuild(work_mgr, work_f, final_order)
    return final_mgr, final_f, final_order


def sift_inplace(
    mgr: BDDManager,
    root: int,
    num_support: Optional[int] = None,
    audit: bool = False,
) -> int:
    """Sift the top ``num_support`` levels of a private manager in
    place; returns the final shared node count of ``root``.

    Every id reachable from ``root`` keeps its function throughout.
    ``audit`` cross-checks the incremental live set against a
    from-scratch traversal on exit (tests enable it; production runs
    keep the repo's zero-overhead-by-default convention).
    """
    n = num_support if num_support is not None else mgr.num_vars
    if n <= 1:
        return mgr.count_nodes(root)
    # One reachability DFS up front; afterwards the live set is
    # maintained *incrementally* from the edge deltas each swap reports
    # (the classical loop pays a full traversal per swap, which
    # dominates sifting cost).  ``ref[m]`` counts m's live parents,
    # plus a pin on the root; a node dies when its count reaches zero
    # and is reborn — children re-pinned — when a swap re-links it.
    lo_a = mgr._lo
    hi_a = mgr._hi
    live = mgr.reachable(root)
    ref: Dict[int, int] = {root: 1}
    ref_get = ref.get
    for node in live:
        if node > 1:
            p = node & 1
            i = node >> 1
            c = lo_a[i] ^ p
            ref[c] = ref_get(c, 0) + 1
            c = hi_a[i] ^ p
            ref[c] = ref_get(c, 0) + 1
    live_add = live.add
    live_discard = live.discard
    best_size = len(live)
    # Sift variables in decreasing occupancy (Rudell's priority).
    occupancy: Dict[int, int] = {}
    for node in live:
        if node > 1:
            var = mgr.top_var(node)
            occupancy[var] = occupancy.get(var, 0) + 1
    priority = sorted(
        (mgr.var_at_level(l) for l in range(n)),
        key=lambda v: -occupancy.get(v, 0),
    )
    record: List[Tuple[int, int, int, int, int]] = []

    def swap(pos: int) -> int:
        record.clear()
        if not mgr.swap_adjacent_levels(pos, nodes=live, record=record):
            return len(live)
        # Apply the edge deltas in two batched passes (all references
        # gained, then all dropped).  Reference counts are additive, and
        # every birth/death transition re-pins/releases its children, so
        # the final live set is independent of the processing order.
        # The record carries *stored* child handles per rewritten row;
        # each live polarity of the row sees the deltas through its own
        # complement bit.
        incs: List[int] = []
        decs: List[int] = []
        ipush = incs.append
        dpush = decs.append
        for row, old_lo, old_hi, new_lo, new_hi in record:
            h = row << 1
            lo_moved = new_lo != old_lo
            hi_moved = new_hi != old_hi
            if h in live:
                if lo_moved:
                    ipush(new_lo)
                    dpush(old_lo)
                if hi_moved:
                    ipush(new_hi)
                    dpush(old_hi)
            h |= 1
            if h in live:
                if lo_moved:
                    ipush(new_lo ^ 1)
                    dpush(old_lo ^ 1)
                if hi_moved:
                    ipush(new_hi ^ 1)
                    dpush(old_hi ^ 1)
        while incs:
            m = incs.pop()
            r = ref_get(m, 0)
            ref[m] = r + 1
            if r == 0:
                live_add(m)
                if m > 1:
                    ipush(lo_a[m >> 1] ^ (m & 1))
                    ipush(hi_a[m >> 1] ^ (m & 1))
        while decs:
            m = decs.pop()
            r = ref[m] - 1
            ref[m] = r
            if r == 0:
                live_discard(m)
                if m > 1:
                    dpush(lo_a[m >> 1] ^ (m & 1))
                    dpush(hi_a[m >> 1] ^ (m & 1))
        return len(live)

    for v in priority:
        start = mgr.level_of(v)
        best_pos = start
        # Move to the bottom of the sifted region...
        pos = start
        while pos < n - 1:
            size = swap(pos)
            pos += 1
            if size < best_size:
                best_size, best_pos = size, pos
        # ...then to the top...
        while pos > 0:
            size = swap(pos - 1)
            pos -= 1
            if size < best_size:
                best_size, best_pos = size, pos
        # ...and back down to the best position seen.
        while pos < best_pos:
            swap(pos)
            pos += 1
    if audit and live != mgr.reachable(root):
        raise AssertionError("incremental live set drifted")
    return len(live)


def exhaustive_reorder(mgr: BDDManager, f: int) -> Tuple[BDDManager, int, List[int]]:
    """Try every permutation of the support (exact minimum size)."""
    support = mgr.support_ordered(f)
    best: Optional[Tuple[int, Tuple[int, ...]]] = None
    for perm in permutations(support):
        cand_mgr, cand_f = _rebuild(mgr, f, perm)
        size = cand_mgr.count_nodes(cand_f)
        if best is None or size < best[0]:
            best = (size, perm)
    assert best is not None
    final_mgr, final_f = _rebuild(mgr, f, list(best[1]))
    return final_mgr, final_f, list(best[1])
