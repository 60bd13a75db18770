"""Shared hypothesis strategies."""

from __future__ import annotations

from hypothesis import strategies as st

from finrel import Relation


@st.composite
def relations(draw, min_n: int = 1, max_n: int = 6, full: bool = False):
    n = draw(st.integers(min_n, max_n))
    lo = 1 if full else 0
    rows = tuple(draw(st.integers(lo, (1 << n) - 1)) for _ in range(n))
    return Relation(n, rows)


@st.composite
def relation_pairs(draw, min_n: int = 1, max_n: int = 6):
    """Two relations on a shared carrier."""
    n = draw(st.integers(min_n, max_n))
    make = lambda: tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
    return Relation(n, make()), Relation(n, make())


@st.composite
def relation_triples(draw, min_n: int = 1, max_n: int = 5):
    n = draw(st.integers(min_n, max_n))
    make = lambda: tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
    return Relation(n, make()), Relation(n, make()), Relation(n, make())


@st.composite
def relation_with_permutation(draw, min_n: int = 1, max_n: int = 6):
    n = draw(st.integers(min_n, max_n))
    rows = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
    perm = draw(st.permutations(range(n)))
    return Relation(n, rows), list(perm)


@st.composite
def sparse_full_relations(draw, min_n: int = 1, max_n: int = 6):
    """Full relations with one or two successors a point, so their idempotent
    powers are often nontrivial with reflexive and irreflexive points mixed."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(x, draw(st.integers(0, n - 1))) for x in range(n) for _ in range(2)]
    return Relation.from_pairs(n, pairs)
