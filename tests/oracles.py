"""Naive pair-set reference implementations.

Everything here works on explicit frozensets of (x, y) pairs with plain
set arithmetic, no bitmasks, so it shares nothing with the packed fast
path it is used to check.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterator, Optional

Pairs = FrozenSet[tuple[int, int]]


def pairs_of(relation) -> Pairs:
    """The pairs of a relation, read cell by cell from its rows."""
    n, rows = relation.n, relation.rows
    return frozenset((x, y) for x in range(n) for y in range(n) if (rows[x] >> y) & 1)


def o_successors(f: Pairs, x: int) -> set[int]:
    return {b for a, b in f if a == x}


def o_compose(f: Pairs, g: Pairs) -> Pairs:
    return frozenset((x, z) for x, y in f for y2, z in g if y == y2)


def o_inverse(f: Pairs) -> Pairs:
    return frozenset((y, x) for x, y in f)


def o_image(f: Pairs, points) -> set[int]:
    return {y for x, y in f if x in set(points)}


def o_restrict(f: Pairs, points) -> Pairs:
    keep = set(points)
    return frozenset((x, y) for x, y in f if x in keep)


def o_identity(n: int) -> Pairs:
    return frozenset((x, x) for x in range(n))


def o_is_full(n: int, f: Pairs) -> bool:
    return all(o_successors(f, x) for x in range(n))


def o_is_idempotent(f: Pairs) -> bool:
    return o_compose(f, f) == f


def o_is_surjective(n: int, f: Pairs) -> bool:
    return {y for _, y in f} == set(range(n))


def o_is_single_valued(n: int, f: Pairs) -> bool:
    return all(len(o_successors(f, x)) == 1 for x in range(n))


def o_is_trivial_literal(n: int, f: Pairs) -> bool:
    """Literal definition: f cut to each successor set is the identity there."""
    for x in range(n):
        succ = o_successors(f, x)
        if o_restrict(f, succ) != o_restrict(o_identity(n), succ):
            return False
    return True


def o_gamma(n: int, f: Pairs) -> Optional[tuple[int, int]]:
    for x in range(n):
        for y in range(n):
            if x != y and {(x, x), (x, y), (y, y)} <= f:
                return (x, y)
    return None


def o_two_point(n: int, f: Pairs) -> Optional[tuple[int, int]]:
    for x in range(n):
        for y in range(n):
            if x != y and {(x, x), (x, y)} <= f:
                return (x, y)
    return None


def _nonempty_subsets(n: int) -> list[frozenset[int]]:
    points = range(n)
    out = []
    for size in range(1, n + 1):
        out.extend(frozenset(c) for c in itertools.combinations(points, size))
    return out


def o_all_full_relations(n: int) -> Iterator[Pairs]:
    """Every full relation as a pair set, built from successor subsets."""
    for choice in itertools.product(_nonempty_subsets(n), repeat=n):
        yield frozenset((x, y) for x, succ in enumerate(choice) for y in succ)


def o_threads(n: int, f: Pairs, m: int) -> set[tuple[int, ...]]:
    """Brute-force thread sets: later coordinates map onto earlier ones."""
    out = set()
    for tup in itertools.product(range(n), repeat=m):
        if all(
            (tup[later], tup[earlier]) in f
            for later in range(1, m)
            for earlier in range(later)
        ):
            out.add(tup)
    return out
