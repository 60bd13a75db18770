"""Exhaustive enumeration and the equivalence census.

``survey`` scans every full relation on n points and, for each idempotent
one, cross-checks the whole cluster of equivalences: trivial exactly when
no gamma pattern exists exactly when no two-point pattern exists; the
constructive pipeline succeeds and validates on every nontrivial one;
trivial surjective relations are the identity; and squaring commutes with
inversion.  Any violation is recorded as a counterexample, so an empty
counterexample list over the full scan is the certificate the census
exists to produce.

The n=5 space holds 31**5 = 28,629,151 candidates, too many to visit one
by one in pure Python.  An idempotent relation is transitive, so a
backtracker places the rows under a fixed row 0 and drops a row as soon as
it breaks transitivity; at n=5 only 47,262 relations reach the exact
idempotence test.  Exhaustive agreement tests at small n pin it to the filter.
Mode ``up_to_iso`` runs the same scan, keeps the idempotent relations that
no relabeling makes smaller, and counts the classes of full relations by
Burnside's lemma instead of visiting them.
"""

from __future__ import annotations

import itertools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from random import Random
from typing import Iterator

from .core import (
    Relation,
    _relabel,
    compose,
    inverse,
    is_idempotent,
    is_surjective,
    nontriviality_witness,
    satisfies_gamma,
    two_point_witness,
)
from .io import relation_to_document
from .witness import gamma_witness

ENUM_CAP = 5
SURVEY_ALL_CAP = 5
SURVEY_ISO_CAP = 4
CANONICAL_CAP = 8


def full_relations(n: int) -> Iterator[Relation]:
    """Every full relation on n points, in odometer order over rows.

    Each row independently ranges over the nonempty subsets 1..2^n-1, row 0
    most significant, so exactly (2^n - 1)^n relations stream out.
    """
    if not 1 <= n <= ENUM_CAP:
        raise ValueError(f"carrier size {n} outside 1..{ENUM_CAP}")
    for rows in itertools.product(range(1, 1 << n), repeat=n):
        yield Relation(n, rows)


def _idempotent_in_partition(n: int, r0: int) -> Iterator[Relation]:
    """The idempotent full relations whose row 0 is r0, in odometer order.

    Idempotent implies transitive: y in f(x) implies f(y) within f(x).  So
    row i lies within every placed row that contains i (``cap``), and
    contains every placed row x < i whose point x it contains.
    """
    rows = [r0] * n

    def place(i: int) -> Iterator[Relation]:
        if i == n:
            f = Relation(n, tuple(rows))
            if is_idempotent(f):
                yield f
            return
        cap = (1 << n) - 1
        for x in range(i):
            if (rows[x] >> i) & 1:
                cap &= rows[x]
        for v in range(1, cap + 1):
            if v & ~cap:
                continue
            for x in range(i):
                if (v >> x) & 1 and rows[x] & ~v:
                    break
            else:
                rows[i] = v
                yield from place(i + 1)

    return place(1)


def idempotent_relations(n: int) -> Iterator[Relation]:
    """The idempotent subsequence of ``full_relations(n)``."""
    if not 1 <= n <= ENUM_CAP:
        raise ValueError(f"carrier size {n} outside 1..{ENUM_CAP}")
    for r0 in range(1, 1 << n):
        yield from _idempotent_in_partition(n, r0)


def canonical_form(f: Relation) -> Relation:
    """Least relabeling of f over all carrier permutations.

    The order is row-wise lexicographic on the packed rows, so equal
    canonical forms characterise isomorphic relations.  Brute force over
    n! permutations; fine for the census caps.
    """
    n = f.n
    if n > CANONICAL_CAP:
        raise ValueError(f"carrier size {n} above the permutation cap {CANONICAL_CAP}")
    return Relation(n, min(_relabel(f.rows, perm) for perm in itertools.permutations(range(n))))


def random_full_relation(n: int, rng: Random) -> Relation:
    """Uniform random full relation: each row a uniform nonempty subset."""
    return Relation(n, tuple(rng.randrange(1, 1 << n) for _ in range(n)))


def idempotent_power(f: Relation) -> Relation:
    """The unique idempotent among the compositional powers of f.

    The powers f, f^2, f^3, ... are eventually periodic; on the cycle the
    power with exponent divisible by the period is idempotent.  Fullness is
    preserved, so this doubles as a sampler of idempotent full relations.
    """
    seen: dict[tuple[int, ...], int] = {}
    powers = [f]
    g = f
    k = 1
    while g.rows not in seen:
        seen[g.rows] = k
        g = compose(g, f)
        powers.append(g)
        k += 1
    start = seen[g.rows]
    period = k - start
    m = period * ((start + period - 1) // period)
    return powers[m - 1]


def random_idempotent(n: int, rng: Random) -> Relation:
    """Random idempotent full relation on n points."""
    return idempotent_power(random_full_relation(n, rng))


@dataclass(frozen=True)
class SurveyReport:
    """Aggregated result of one exhaustive scan.

    ``counterexamples`` holds serialized relations that violated any checked
    equivalence, with the reason; the census claim is precisely that it is
    empty.  In ``up_to_iso`` mode the counts are per isomorphism class
    (canonical representatives only).
    """

    n: int
    mode: str
    full: int
    idempotent_full: int
    nontrivial_idempotent: int
    trivial_idempotent: int
    gamma_idempotent: int
    surjective_idempotent: int
    identity_count: int
    counterexamples: tuple[dict, ...]
    elapsed: float

    def __post_init__(self) -> None:
        if self.idempotent_full != self.nontrivial_idempotent + self.trivial_idempotent:
            raise AssertionError("idempotent count does not split into trivial + nontrivial")


@dataclass
class _Tally:
    idempotent_full: int = 0
    nontrivial_idempotent: int = 0
    trivial_idempotent: int = 0
    gamma_idempotent: int = 0
    surjective_idempotent: int = 0
    identity_count: int = 0
    counterexamples: list[dict] = field(default_factory=list)

    def merge(self, other: "_Tally") -> None:
        for fld in fields(self):
            setattr(self, fld.name, getattr(self, fld.name) + getattr(other, fld.name))


def _flag(tally: _Tally, f: Relation, reason: str) -> None:
    doc = relation_to_document(f)
    doc["reason"] = reason
    tally.counterexamples.append(doc)


def _check_idempotent(f: Relation, tally: _Tally) -> None:
    """Run every per-relation census check on one idempotent full relation."""
    tally.idempotent_full += 1

    nt = nontriviality_witness(f)
    gam = satisfies_gamma(f)
    two = two_point_witness(f)
    trivial = nt is None

    if gam is not None:
        tally.gamma_idempotent += 1
    if trivial:
        tally.trivial_idempotent += 1
    else:
        tally.nontrivial_idempotent += 1

    # the three-way equivalence for idempotent full relations
    if (gam is None) != trivial or (two is None) != trivial:
        _flag(tally, f, "trivial / gamma / two-point disagreement")

    if not trivial:
        try:
            gw = gamma_witness(f)
        except Exception as exc:  # any failure here is exactly what we scan for
            _flag(tally, f, f"gamma pipeline failed: {exc}")
        else:
            u, v = gw.pair
            ok = u != v and f.has(u, u) and f.has(u, v) and f.has(v, v)
            ok = ok and len(gw.reflexive_stage.chain) <= f.n
            ok = ok and len(gw.extension_stage.chain) <= f.n
            if not ok:
                _flag(tally, f, "gamma pipeline returned an invalid witness")

    surjective = is_surjective(f)
    if surjective:
        tally.surjective_idempotent += 1

    ident = all(row == 1 << x for x, row in enumerate(f.rows))
    if ident:
        tally.identity_count += 1
    if trivial and surjective and not ident:
        _flag(tally, f, "trivial idempotent surjection differs from the identity")

    inv = inverse(f)
    if compose(inv, inv).rows != inverse(compose(f, f)).rows:
        _flag(tally, f, "squaring does not commute with inversion")


def _scan_partition(n: int, r0: int, perms: list[tuple[int, ...]]) -> _Tally:
    """Check the idempotent relations with row 0 r0 that no perm in ``perms`` makes smaller."""
    tally = _Tally()
    for f in _idempotent_in_partition(n, r0):
        if all(_relabel(f.rows, perm) >= f.rows for perm in perms):
            _check_idempotent(f, tally)
    return tally


def _full_classes(n: int) -> int:
    """The number of isomorphism classes of full relations, by Burnside's lemma.

    A relation fixed by a permutation sigma is its row at one point of each
    cycle C, and that row is a nonempty union of orbits of sigma^|C|, which
    splits each cycle c into gcd(|C|, |c|) orbits.
    """
    perms = list(itertools.permutations(range(n)))
    total = 0
    for perm in perms:
        lengths = []
        for x in range(n):
            # walk x's cycle while it stays above x: back at x, x is its least point
            y, length = perm[x], 1
            while y > x:
                y, length = perm[y], length + 1
            if y == x:
                lengths.append(length)
        fixed = 1
        for a in lengths:
            fixed *= (1 << sum(math.gcd(a, b) for b in lengths)) - 1
        total += fixed
    return total // len(perms)


def survey(n: int, mode: str = "all", workers: int = 1) -> SurveyReport:
    """Scan every full relation on n points and certify the equivalences.

    ``mode="all"`` visits all (2^n - 1)^n full relations (capped at n=5);
    ``mode="up_to_iso"`` checks canonical representatives only (capped at
    n=4, since each idempotent relation pays an n! canonicity test).
    Partitions are split by the value of row 0 and merged in a fixed order,
    so the report is identical for every worker count.
    """
    if mode not in ("all", "up_to_iso"):
        raise ValueError(f"unknown survey mode {mode!r}")
    cap = SURVEY_ALL_CAP if mode == "all" else SURVEY_ISO_CAP
    if not 1 <= n <= cap:
        raise ValueError(
            f"carrier size {n} outside 1..{cap} for mode {mode!r}; "
            f"the search space beyond the cap is out of reach"
        )
    if workers < 1:
        raise ValueError("workers must be positive")

    # the identity permutation never relabels a relation into a smaller one
    perms = list(itertools.permutations(range(n)))[1:] if mode == "up_to_iso" else []
    partitions = range(1, 1 << n)
    started = time.perf_counter()
    total = _Tally()
    if workers == 1:
        parts = [_scan_partition(n, r0, perms) for r0 in partitions]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda r0: _scan_partition(n, r0, perms), partitions))
    for part in parts:
        total.merge(part)
    elapsed = time.perf_counter() - started

    return SurveyReport(
        n=n,
        mode=mode,
        full=((1 << n) - 1) ** n if mode == "all" else _full_classes(n),
        idempotent_full=total.idempotent_full,
        nontrivial_idempotent=total.nontrivial_idempotent,
        trivial_idempotent=total.trivial_idempotent,
        gamma_idempotent=total.gamma_idempotent,
        surjective_idempotent=total.surjective_idempotent,
        identity_count=total.identity_count,
        counterexamples=tuple(total.counterexamples),
        elapsed=elapsed,
    )
