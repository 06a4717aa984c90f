"""The pruned cut search against a reference search that prices everything.

:class:`ReferenceSynthesizer` keeps the plain form of Algorithm 3's cut
loop: build every candidate of every cut with
:func:`~repro.core.linear.candidates_for_cut`, cost each one in full,
and keep the first that reaches the lexicographic minimum of (delay,
LUTs, kind priority).  :class:`~repro.core.dp.BDDSynthesizer` prices
cuts from the shared gate rows and drops a cut once it cannot win; it
must pick the same plan for every state, and so emit the same cover.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.manager import BDDManager
from repro.core.binpack import pack_or_cost
from repro.core.config import DDBDDConfig
from repro.core.dp import BDDSynthesizer, _Best
from repro.core.linear import KIND_PRIORITY, Candidate, candidates_for_cut
from repro.network.netlist import BooleanNetwork
from tests.runtime.helpers import net_dump


class ReferenceSynthesizer(BDDSynthesizer):
    """Every candidate of every searched cut, fully costed, no early stop."""

    def _search_cuts(self, u: int, l: int, v: int, pruned_ok: bool) -> Optional[_Best]:
        sizes = [len(self.lb.cut_set(u, j)) for j in range(l)]
        if pruned_ok:
            js = [j for j, size in enumerate(sizes) if size <= self.config.thresh]
        else:
            js = [min(range(l), key=sizes.__getitem__)]
        best: Optional[_Best] = None
        for j in js:
            cands = candidates_for_cut(
                self.lb, u, l, v, j,
                use_special=self.config.use_special_decompositions,
                k=self.config.k,
            )
            for cand in cands:
                d, luts = self._cost(cand)
                key = (d, luts, KIND_PRIORITY[cand.kind])
                if best is None or key < (best.delay, best.luts, KIND_PRIORITY[best.candidate.kind]):
                    best = _Best(d, luts, cand)
        return best

    def _cost(self, cand: Candidate) -> Tuple[int, int]:
        if cand.kind == "alias":
            return self.delay(cand.operands[0]), 0
        if cand.kind != "linear":
            return 1 + max(self.delay(s) for s in cand.operands), 1
        groups: Dict[int, List[int]] = {}
        for gate in cand.gates:
            d = max(self.delay(s) for s in gate.ops)
            groups.setdefault(d, [0, 0])[0 if gate.size == 2 else 1] += 1
        return pack_or_cost(groups, self.config.k)


def _run(cls, mgr: BDDManager, f: int, delays: Dict[int, int], config: DDBDDConfig):
    synth = cls(mgr, f, delays, config)
    net = BooleanNetwork("scratch")
    leaves = {}
    for var in mgr.support_ordered(f):
        leaves[var] = (net.add_pi(f"x{var}"), False, delays[var])
    synth.emit(net, leaves, "t")
    return synth, net


def _plan(synth: BDDSynthesizer, state) -> tuple:
    best = synth._plan[state]
    cand = best.candidate
    gates = tuple(g.ops for g in cand.gates)
    return (best.delay, best.luts, cand.kind, cand.j, cand.operands, gates)


CONFIGS = [
    DDBDDConfig(k=k, thresh=thresh, use_special_decompositions=special, jobs=1)
    for k in (3, 4, 5, 6)
    for special in (True, False)
    # thresh=2 prunes most cuts and so often forces the fallback search.
    for thresh in (2, 15)
]


def _check_all_configs(mgr: BDDManager, f: int, delays: Dict[int, int]) -> None:
    for config in CONFIGS:
        fast, fast_net = _run(BDDSynthesizer, mgr, f, delays, config)
        ref, ref_net = _run(ReferenceSynthesizer, mgr, f, delays, config)
        root = fast.root_state
        assert (fast._delay[root], fast._plan[root].luts) == (ref._delay[root], ref._plan[root].luts)
        # The pruned search only skips work: it never visits a state
        # the reference did not.
        assert set(fast._plan) <= set(ref._plan)
        for state in fast._plan:
            assert _plan(fast, state) == _plan(ref, state), (config, state)
        assert net_dump(fast_net) == net_dump(ref_net)


def _build(mgr: BDDManager, expr) -> int:
    op = expr[0]
    if op == "lit":
        return mgr.nvar(expr[1]) if expr[2] else mgr.var(expr[1])
    args = [_build(mgr, e) for e in expr[1:]]
    if op == "and":
        return mgr.apply_and(*args)
    if op == "or":
        return mgr.apply_or(*args)
    if op == "xor":
        return mgr.apply_xor(*args)
    return mgr.ite(*args)


def _random_expression(rng: random.Random, n: int, depth: int):
    if depth == 0 or rng.random() < 0.2:
        return ("lit", rng.randrange(n), rng.random() < 0.5)
    op = rng.choice(("and", "or", "xor", "mux"))
    a = _random_expression(rng, n, depth - 1)
    b = _random_expression(rng, n, depth - 1)
    if op == "mux":
        return (op, _random_expression(rng, n, depth - 1), a, b)
    return (op, a, b)


# Seeds whose functions separate the pruned search from the reference
# under small mistakes in the tie-breaks, the early stop and the XNOR
# gate, so a regression fails on every run, not only on an unlucky draw.
@pytest.mark.parametrize("seed", range(64))
def test_seeded_expressions_match_reference(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    mgr = BDDManager(n)
    f = mgr.ONE
    while len(mgr.support(f)) < 2:
        f = _build(mgr, _random_expression(rng, n, rng.randint(2, 5)))
    _check_all_configs(mgr, f, {var: rng.randint(0, 3) for var in mgr.support(f)})


_LITERALS = st.tuples(st.just("lit"), st.integers(0, 7), st.booleans())
_EXPRESSIONS = st.recursive(
    _LITERALS,
    lambda sub: st.tuples(st.sampled_from(("and", "or", "xor")), sub, sub)
    | st.tuples(st.just("mux"), sub, sub, sub),
    max_leaves=24,
)


@st.composite
def functions(draw):
    """A function of at most 8 variables: a random truth table, or a
    random and/or/xor/mux expression (the structured ones give the
    two-node cuts the special decompositions need)."""
    mgr = BDDManager(8)
    if draw(st.booleans()):
        n = draw(st.integers(3, 8))
        bits = draw(st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n))
        return mgr, mgr.from_truth_table(bits, list(range(n)))
    return mgr, _build(mgr, draw(_EXPRESSIONS))


@settings(max_examples=40, deadline=None)
@given(func=functions(), arrivals=st.lists(st.integers(0, 3), min_size=8, max_size=8))
def test_pruned_search_matches_reference(func, arrivals):
    mgr, f = func
    if len(mgr.support(f)) < 2:
        return
    _check_all_configs(mgr, f, {var: arrivals[var] for var in mgr.support(f)})
