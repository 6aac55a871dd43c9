"""Seeded inputs for the benchmark, handed to matrep as plain data only.

A random matroid is the column matroid of a random matrix over GF(2) or
GF(3): full row rank and no zero column, so it is loopless with the stated
rank.  matrep receives its independent sets as a list of tuples of the
labels 1..n; the benchmark keeps the rank table (see oracle.py) to check
the answers.

The seed decides which matrices are drawn, not how much work they make.
For every slot (field, rank, ground-set size) the benchmark first fixes a
target profile, the most common one among REFERENCE_DRAWS draws from a
stream that no seed touches: flats per rank, Whitney numbers and
independent sets per size.  The seeded stream then draws until a matrix
has that profile.  Every seed so builds lattices of the same shape and
size, which keeps throughput comparable across seeds, while the matroids
themselves, their labelling and their immersions differ.  Sizes are capped
by the slot tables in workloads.py (at most 10 elements, 2^10 ranks).
"""

from __future__ import annotations

import collections
import functools
import random

from oracle import RankTable

REFERENCE_DRAWS = 200
MAX_ATTEMPTS = 5000


def random_table(rng: random.Random, q: int, r: int, n: int) -> RankTable:
    """Rank table of a random rank-r, n-column, zero-column-free matrix over GF(q)."""
    while True:
        columns = [tuple(rng.randrange(q) for _ in range(r)) for _ in range(n)]
        if not all(any(c) for c in columns):
            continue
        table = RankTable.from_columns(columns, q)
        if table.rank == r:
            return table


def profile(table: RankTable) -> tuple:
    sizes = collections.Counter(len(s) for s in table.independents())
    return table.flats_per_rank(), table.whitney(), tuple(sorted(sizes.items()))


@functools.lru_cache(maxsize=None)
def target_profile(q: int, r: int, n: int) -> tuple:
    rng = random.Random(f"reference/{q}/{r}/{n}")
    counts = collections.Counter(
        profile(random_table(rng, q, r, n)) for _ in range(REFERENCE_DRAWS)
    )
    return counts.most_common(1)[0][0]


def profiled_table(rng: random.Random, q: int, r: int, n: int) -> RankTable:
    """A random GF(q) matroid whose profile is the slot's target profile."""
    target = target_profile(q, r, n)
    for _ in range(MAX_ATTEMPTS):
        table = random_table(rng, q, r, n)
        if profile(table) == target:
            return table
    raise RuntimeError(f"no GF({q}) rank-{r} matroid on {n} elements hit the target profile")


def window_table(rng: random.Random, q: int, r: int, n: int, lo: int, hi: int) -> RankTable:
    """A random simple GF(q) matroid with between lo and hi independent sets.

    Exact profiles are too rare to hit on ten elements; a window on the
    number of independent sets keeps the work of the draw within a few
    percent across seeds.
    """
    for _ in range(MAX_ATTEMPTS):
        table = random_table(rng, q, r, n)
        simple = all(table.ranks[(1 << i) | (1 << j)] == 2 for i in range(n) for j in range(i))
        if simple and lo <= len(table.independents()) <= hi:
            return table
    raise RuntimeError(f"no simple GF({q}) rank-{r} matroid on {n} elements in the window")


def permuted_immersion(table: RankTable, rho: int, perm) -> dict:
    """The canonical immersion l(p) = {1..rho - rank p} composed with the
    permutation `perm` of {1..rho} (perm[i-1] is the image of i), as a dict
    flat-tuple -> index-tuple."""
    return {
        table.elements(f): tuple(sorted(perm[: rho - table.ranks[f]]))
        for f in table.flats()
    }
