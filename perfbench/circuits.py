"""Workload inputs, made from the benchmark seed.

The ``table1`` workload compiles fixed registry circuits of
:mod:`repro.benchgen`; the seed only sets the order they compile in.
Seeded recipe variants (the generator's own seed mixed with the
workload seed) change the work itself by tens of percent from seed to
seed, which no fixed regression bound can absorb, so they are not used.

The serve workload's request stream holds every circuit of
:data:`SERVE_POOL` once plus repeats split by Zipf weights over the
pool order, sent by two lockstep clients; the seed orders the rounds
of the stream (see :func:`serve_stream`).  Which circuits repeat, how
often, and which requests share a round are the same at every seed, so
the computed work is too.  A seeded popularity ranking, and then a
plain seeded shuffle, were tried first: they moved the median latency
by 40% and 25% from seed to seed, because they decided whether the
most repeated circuit was cheap and which requests ran side by side.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

#: The paper's Table-I collapsing suite (``repro.TABLE1_SUITE``).
TABLE1 = ["cht", "sct", "misex1", "9sym", "sse", "ttt2", "count", "lal"]
#: The serve workload's request universe: Table I plus four extras.
SERVE_POOL = TABLE1 + ["alu2", "my_adder", "comp16", "alu4"]

#: Requests per serve stream: each pool circuit once, the rest repeats.
SERVE_REQUESTS = 40
ZIPF_S = 1.0


def compile_order(seed: int, names: Optional[List[str]] = None) -> List[str]:
    """The ``table1`` circuits (or ``names``) in the order ``seed``
    gives."""
    names = list(names or TABLE1)
    random.Random(f"table1:{seed}").shuffle(names)
    return names


def zipf_counts(pool: List[str], n: int) -> Dict[str, int]:
    """Requests per circuit: one first sight each, plus the ``n -
    len(pool)`` repeats split by Zipf weights over the pool order
    (largest-remainder rounding, so the counts sum exactly)."""
    repeats = n - len(pool)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(pool))]
    shares = [repeats * w / sum(weights) for w in weights]
    counts = [int(x) for x in shares]
    by_remainder = sorted(range(len(pool)), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[: repeats - sum(counts)]:
        counts[i] += 1
    return {name: 1 + c for name, c in zip(pool, counts)}


def serve_stream(
    seed: int, n: int = SERVE_REQUESTS, pool: List[str] = SERVE_POOL, clients: int = 2
) -> List[str]:
    """The serve workload's request stream for ``seed``.

    The fixed Zipf multiset of :func:`zipf_counts` is shuffled once,
    seed-independently, and cut into lockstep rounds of ``clients``
    requests.  The workload seed then puts those rounds in a random
    order that keeps the round holding a circuit's first sight ahead
    of the rounds repeating it.  Which requests run side by side, and
    which are first sights, is thus the same at every seed.
    """
    base = [name for name, count in zipf_counts(pool, n).items() for _ in range(count)]
    random.Random("serve_mixed").shuffle(base)
    rounds = [base[i : i + clients] for i in range(0, n, clients)]
    first: Dict[str, int] = {}
    for i, members in enumerate(rounds):
        for name in members:
            first.setdefault(name, i)
    rng = random.Random(f"serve_mixed:{seed}")
    remaining = list(range(len(rounds)))
    placed: set = set()
    order: List[int] = []
    while remaining:
        ready = [
            i for i in remaining
            if all(first[name] == i or first[name] in placed for name in rounds[i])
        ]
        pick = rng.choice(ready)
        order.append(pick)
        placed.add(pick)
        remaining.remove(pick)
    return [name for i in order for name in rounds[i]]
