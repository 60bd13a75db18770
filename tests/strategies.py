"""Shared relation generators: hypothesis strategies, exhaustive
enumerations and seeded samplers."""

from __future__ import annotations

import itertools
from random import Random
from typing import Iterator, Sequence

from hypothesis import strategies as st

from finrel import Relation, census, compose, is_idempotent
from finrel.census import ENUM_CAP


def all_relations(n: int) -> Iterator[Relation]:
    """Every relation on n points, full or not (2^(n*n) of them)."""
    for rows in itertools.product(range(1 << n), repeat=n):
        yield Relation(n, rows)


def full_relations(n: int) -> Iterator[Relation]:
    """Every full relation on n points, in odometer order over rows.

    Each row independently ranges over the nonempty subsets 1..2^n-1, row 0
    most significant, so exactly (2^n - 1)^n relations stream out.
    """
    if not 1 <= n <= ENUM_CAP:
        raise ValueError(f"carrier size {n} outside 1..{ENUM_CAP}")
    for rows in itertools.product(range(1, 1 << n), repeat=n):
        yield Relation(n, rows)


def idempotent_relations(n: int) -> Iterator[Relation]:
    """Every idempotent full relation on n points, as the census backtracker
    lists them: in odometer order over rows, row 0 most significant.

    Each relation is built from the yielded rows with every row checked.  The
    backtracker is looked up at each call, so a test that patches
    ``census._idempotent_relations`` reaches every caller of this one.
    """
    return (Relation(n, rows) for rows, _ in census._idempotent_relations(n, False))


def relabel(f: Relation, perm: Sequence[int]) -> Relation:
    """f with every point x renamed perm[x], built from its pairs."""
    return Relation.from_pairs(f.n, ((perm[x], perm[y]) for x, y in f.pairs()))


def full_square(n: int) -> Relation:
    """The relation holding every pair of points."""
    return Relation(n, tuple((1 << n) - 1 for _ in range(n)))


def random_full_relation(n: int, rng: Random) -> Relation:
    """Uniform random full relation: each row a uniform nonempty subset."""
    return Relation(n, tuple(rng.randrange(1, 1 << n) for _ in range(n)))


def idempotent_power(f: Relation) -> Relation:
    """The unique idempotent among the compositional powers of f.

    The powers f, f^2, f^3, ... form a finite cyclic semigroup, which holds
    exactly one idempotent, so the first idempotent power is the answer.
    Fullness is preserved, so this doubles as a sampler of idempotent full
    relations.  A power that repeats before an idempotent one appears means
    ``compose`` is broken, and raises instead of looping forever.
    """
    g, seen = f, set()
    while not is_idempotent(g):
        if g.rows in seen:
            raise AssertionError(f"the powers of {f.rows} cycle without an idempotent")
        seen.add(g.rows)
        g = compose(g, f)
    return g


def random_idempotent(n: int, rng: Random) -> Relation:
    """Random idempotent full relation on n points."""
    return idempotent_power(random_full_relation(n, rng))


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
