"""Equivalence of the fast apply paths with a reference ITE-only engine.

The hot-path rewrite gave :class:`BDDManager` dedicated binary
recursions (``apply_and``/``apply_or``/``apply_xor``/``apply_xnor``)
and ITE standard-triple normalization.  All of them are pure speed: in
a hash-consed manager, canonical node ids *are* function identity, so
every path must return the exact id the generic 3-operand ITE
recursion would.  These tests pin that contract with random
expressions, plus the end-to-end Table-I golden regression that proves
the optimized kernel changes no synthesized circuit.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.manager import BDDManager
from repro.utils import recursion_headroom

N_VARS = 5


def reference_ite(mgr: BDDManager, f: int, g: int, h: int) -> int:
    """Textbook ITE recursion using only terminal rules and ``make_node``
    — no operator caches, no normalization, no fast paths.  The slow
    but obviously-correct engine the optimized paths must match."""
    if f == mgr.ONE:
        return g
    if f == mgr.ZERO:
        return h
    if g == h:
        return g
    level = min(mgr._level(f), mgr._level(g), mgr._level(h))
    v = mgr.var_at_level(level)

    def split(x: int) -> tuple:
        if not mgr.is_terminal(x) and mgr.top_var(x) == v:
            return mgr.lo(x), mgr.hi(x)
        return x, x

    f0, f1 = split(f)
    g0, g1 = split(g)
    h0, h1 = split(h)
    lo = reference_ite(mgr, f0, g0, h0)
    hi = reference_ite(mgr, f1, g1, h1)
    return lo if lo == hi else mgr.make_node(v, lo, hi)


# Random expression trees: leaves are literals/constants, inner nodes
# Boolean connectives.  Kept small — each example replays the tree in
# several managers.
_leaf = st.one_of(
    st.tuples(st.just("lit"), st.integers(0, N_VARS - 1), st.booleans()),
    st.tuples(st.just("const"), st.booleans()),
)
_expr = st.recursive(
    _leaf,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["and", "or", "xor", "xnor"]), sub, sub),
        st.tuples(st.just("not"), sub),
        st.tuples(st.just("ite"), sub, sub, sub),
    ),
    max_leaves=12,
)


def build(mgr: BDDManager, expr) -> int:
    op = expr[0]
    if op == "lit":
        return mgr.nvar(expr[1]) if expr[2] else mgr.var(expr[1])
    if op == "const":
        return mgr.ONE if expr[1] else mgr.ZERO
    if op == "not":
        return mgr.negate(build(mgr, expr[1]))
    if op == "ite":
        return mgr.ite(build(mgr, expr[1]), build(mgr, expr[2]), build(mgr, expr[3]))
    f = build(mgr, expr[1])
    g = build(mgr, expr[2])
    return getattr(mgr, f"apply_{op}")(f, g)


def eval_expr(expr, env) -> bool:
    op = expr[0]
    if op == "lit":
        value = env[expr[1]]
        return not value if expr[2] else value
    if op == "const":
        return expr[1]
    if op == "not":
        return not eval_expr(expr[1], env)
    if op == "ite":
        return (
            eval_expr(expr[2], env) if eval_expr(expr[1], env) else eval_expr(expr[3], env)
        )
    a = eval_expr(expr[1], env)
    b = eval_expr(expr[2], env)
    if op == "and":
        return a and b
    if op == "or":
        return a or b
    if op == "xor":
        return a != b
    return a == b


def all_envs():
    for bits in range(1 << N_VARS):
        yield {v: bool((bits >> v) & 1) for v in range(N_VARS)}


@settings(max_examples=120, deadline=None)
@given(expr=_expr)
def test_fast_paths_compute_the_right_function(expr):
    """Semantic ground truth: the built BDD evaluates exactly like the
    expression on every assignment.  With hash consing this already
    implies the canonical-id contract within one manager."""
    mgr = BDDManager(N_VARS)
    f = build(mgr, expr)
    for env in all_envs():
        assert mgr.eval(f, env) == eval_expr(expr, env)


@settings(max_examples=120, deadline=None)
@given(expr=_expr, g_expr=_expr)
def test_binary_ops_match_reference_ite(expr, g_expr):
    """Every dedicated binary recursion returns the same node id as the
    cache-free textbook ITE formulation of the same connective."""
    mgr = BDDManager(N_VARS)
    f = build(mgr, expr)
    g = build(mgr, g_expr)
    nf = mgr.negate(f)
    assert mgr.apply_and(f, g) == reference_ite(mgr, f, g, mgr.ZERO)
    assert mgr.apply_or(f, g) == reference_ite(mgr, f, mgr.ONE, g)
    assert mgr.apply_xor(f, g) == reference_ite(mgr, f, mgr.negate(g), g)
    assert mgr.apply_xnor(f, g) == reference_ite(mgr, f, g, mgr.negate(g))
    assert mgr.negate(f) == reference_ite(mgr, f, mgr.ZERO, mgr.ONE)
    assert nf == mgr.negate(f)


@settings(max_examples=120, deadline=None)
@given(expr=_expr, g_expr=_expr, h_expr=_expr)
def test_normalized_ite_matches_reference(expr, g_expr, h_expr):
    """Standard-triple normalization must not change any ITE result."""
    mgr = BDDManager(N_VARS)
    f = build(mgr, expr)
    g = build(mgr, g_expr)
    h = build(mgr, h_expr)
    assert mgr.ite(f, g, h) == reference_ite(mgr, f, g, h)


def test_recursive_engine_handles_deep_chains():
    """Operators over a 1500-variable conjunction chain must not blow
    the stack.  (Built bottom-up so each step only adds the new top
    node instead of re-walking the chain.)"""
    n = 1500
    mgr = BDDManager(n)
    f = mgr.var(n - 1)
    for v in range(n - 2, -1, -1):
        f = mgr.apply_and(mgr.var(v), f)
    assert mgr.count_nodes(f) == n + 2  # one per variable + 2 terminals
    g = mgr.negate(f)  # walks all n levels
    assert mgr.apply_or(f, g) == mgr.ONE
    assert mgr.apply_xor(f, g) == mgr.ONE
    assert mgr.apply_xnor(f, f) == mgr.ONE


def _interleaved_chains(mgr: BDDManager, n: int, op) -> tuple:
    """``op``-chains over the even and the odd variables, each built
    bottom-up (one new top node per step, no deep recursion)."""
    chains = []
    for parity in (0, 1):
        top = [v for v in range(n) if v % 2 == parity]
        f = mgr.var(top[-1])
        for v in reversed(top[:-1]):
            f = op(mgr.var(v), f)
        chains.append(f)
    return chains[0], chains[1]


DEEP_CHAIN_VARS = 1500
# About one Python frame per chain level, with a wide margin.
DEEP_CHAIN_HEADROOM = 8 * DEEP_CHAIN_VARS


def test_recursive_and_top_down_over_deep_chain():
    """One ``apply_and`` that recurses through all 1500 levels: the two
    interleaved chains only meet at the bottom, so the recursion walks
    the full depth, which ``recursion_headroom`` makes safe."""
    n = DEEP_CHAIN_VARS
    mgr = BDDManager(n)
    evens, odds = _interleaved_chains(mgr, n, mgr.apply_and)
    with recursion_headroom(DEEP_CHAIN_HEADROOM):
        f = mgr.apply_and(evens, odds)
        assert mgr.sat_count(f) == 1
        assert mgr.apply_and(f, mgr.negate(evens)) == mgr.ZERO
    assert mgr.count_nodes(f) == n + 2  # one per variable + 2 terminals
    assert mgr.eval(f, [True] * n)
    assert not mgr.eval(f, [True] * (n - 1) + [False])


def test_recursive_xor_top_down_over_deep_chain():
    """The parity of 1500 variables as one deep ``apply_xor`` over the
    interleaved even/odd parity chains."""
    n = DEEP_CHAIN_VARS
    mgr = BDDManager(n)
    evens, odds = _interleaved_chains(mgr, n, mgr.apply_xor)
    with recursion_headroom(DEEP_CHAIN_HEADROOM):
        f = mgr.apply_xor(evens, odds)
        assert mgr.sat_count(f) == 2 ** (n - 1)
        assert mgr.apply_xor(f, evens) == odds
    # Plain BDD size: both polarities below the top level + 2 terminals.
    assert mgr.count_nodes(f) == 2 * n + 1
    assert mgr.eval(f, [True] + [False] * (n - 1))
    assert not mgr.eval(f, [True, True] + [False] * (n - 2))


def test_cache_stats_observe_hits():
    mgr = BDDManager(4)
    f = mgr.apply_and(mgr.var(0), mgr.var(1))
    g = mgr.apply_or(mgr.var(2), mgr.var(3))
    before = mgr.cache_stats()
    mgr.apply_and(mgr.var(0), mgr.var(1))  # replays the cached recursion
    mgr.ite(f, g, mgr.ZERO)  # normalizes into apply_and
    after = mgr.cache_stats()
    assert after["and_hits"] > before["and_hits"]


# Golden Table-I results (depth, area) of the seed flow.  The kernel
# optimization contract is *output-identical* synthesis: any drift here
# means a fast path changed a decision somewhere, not just its speed.
TABLE1_GOLDEN = {
    "cht": (8, 644),
    "sct": (3, 50),
    "misex1": (3, 76),
    "9sym": (3, 13),
    "sse": (5, 1199),
    "ttt2": (10, 445),
    "count": (2, 33),
    "lal": (10, 551),
}

# The full suite runs in the benchmarks; the regression gate pins the
# fastest circuits so the unit-test wall time stays reasonable while
# still crossing every kernel path (reorder, DP, packing, emission).
GOLDEN_SAMPLE = ["sct", "misex1", "9sym", "count"]


@pytest.mark.parametrize("name", GOLDEN_SAMPLE)
def test_table1_depth_area_unchanged(name):
    from repro.benchgen import build_circuit
    from repro.core import DDBDDConfig, ddbdd_synthesize

    result = ddbdd_synthesize(build_circuit(name), DDBDDConfig())
    assert (result.depth, result.area) == TABLE1_GOLDEN[name]
