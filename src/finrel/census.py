"""Exhaustive enumeration and the equivalence census.

``survey`` scans every full relation on n points and, for each idempotent
one, cross-checks the whole cluster of equivalences: trivial exactly when
no gamma pattern exists exactly when no two-point pattern exists; on
every nontrivial one the constructive pipeline runs with its in-chain
assertions, returns a gamma pattern of f, and both of its chains have at
most n points; trivial surjective relations are the identity; and
squaring commutes with inversion.  Any violation is recorded as a
counterexample, so an empty counterexample list over the full scan is the
certificate the census exists to produce.  The backtracker carries the
transpose of f, as packed rows, along with the rows it places, and that one
transpose serves three of the checks: the witness pipeline takes it as the
rows of inverse(f); the surjectivity count reads it, since f is surjective
exactly when every transposed row is nonempty; and the law squares it.  The
backtracker's leaf test has already shown f o f = f, so the inverse of the
square is the transpose itself, and the law checks that the transpose is
idempotent.  That holds exactly when f is, so the law also catches a
non-idempotent f that reached the checks.
``survey`` runs every check in its own loop, on f's packed rows and the
pipeline's packed tuple (pair, both chains, range mask); no ``Relation`` is
built, and a kept counterexample lists its pairs straight from the rows.

The n=5 space holds 31**5 = 28,629,151 candidates, too many to visit one
by one in pure Python.  An idempotent relation is transitive, so a
backtracker places the rows from row 0 on, drops a row as soon as it breaks
transitivity, and solves the last row from a need mask: at n=5 it tries
34,140 rows and 73,211 last rows.  Its tests are lookups in the unions of
the placed rows over every subset of their points: a row is transitive when
the union over its own placed points lies within it, and row x of f o f is
the union over the points of row x.  Exhaustive agreement tests at small n
pin it to an idempotence filter over all full relations.
Mode ``up_to_iso`` runs the same backtracker and keeps the idempotent
relations that represent their class (``_is_canonical``): the least
relabeling among those that sort the points by an isomorphism invariant, as
in the partition refinement of McKay and Piperno, "Practical graph isomorphism,
II" (J. Symbolic Comput. 60, 2014).  Placing row x fixes the reflexive bit
and out-degree of x, so this pass skips each row that makes them descend,
with its subtree (at n=5, 920 of the 33,052 leaves remain), and tries
only permutations within runs of tied keys, cached per run structure.  The
classes of full relations are counted by Burnside's lemma, not visited.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from collections import namedtuple
from collections.abc import Iterator, Sequence

# core._SPREAD lets the census carry a transpose with column y in byte y; like
# _BITS beside it, it serves every n <= 8, not only ENUM_CAP = 5
from .core import (
    _BITS,
    _SPREAD,
    _check_carrier,
    _compose_rows,
    _gamma,
    _nontriviality,
    _relabel,
    _two_point,
)
from .witness import _gamma_pipeline

ENUM_CAP = 5
# a broken build flags every relation; keep a sample, count the rest
COUNTEREXAMPLE_CAP = 100


def _idempotent_relations(n: int, ascending: bool) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """The packed rows of every idempotent full relation f on n points, with
    those of inverse(f), in odometer order over rows: row 0 most significant,
    each row over its nonempty subsets ascending.

    Idempotent implies transitive: y in f(x) implies f(y) within f(x).  So
    row i lies within every placed row that contains i (``cap``), and
    contains every placed row x < i whose point x it contains.
    With ``ascending`` only those whose heads (reflexive bit, |f(x)|) ascend:
    row x fixes the head of x, so a row below the last head goes with its
    subtree.  One loop walks the depths; depth i keeps the cap of row i, the
    row it tries, its least head (0 skips the test, 1 admits all), the
    transpose of rows 0..i-1 (column y in byte y) and ``unions[i]``, the
    2^i unions of rows 0..i-1 indexed by a subset of those points, which the
    transitivity test reads.  The cap ANDs the placed rows listed in byte i
    of the transpose.  The last row w is solved: with ``nu`` the unions of
    rows 0..n-2, a row without point n-1 must equal ``nu[row]`` already, and
    w must hold what the other points of a row holding n-1 miss.  Such w
    pass when transitive and, without n-1, their own square.  ``survey``
    checks that n lies in 1..ENUM_CAP.
    """
    full, i, floor = (1 << n) - 1, 0, int(ascending)
    rows, caps, floors, packed, unions = [0] * n, [full] * n, [floor] * n, [0] * n, [[0]] * n
    while i >= 0:
        cap, floor = caps[i], floors[i]
        if i == n - 1:
            nu, bit, prefix, need = unions[i], 1 << i, tuple(rows[:i]), 0
            for row in prefix:
                # no w fills a row without point i, so its lack goes above any cap
                lack = row & ~nu[row & ~bit]
                need |= lack if row & bit else lack << n
            # w = need | s for s over the submasks of the rest of the cap, ascending
            rest, w = cap & ~need, need or cap & -cap
            while not need & ~cap:  # a need outside the cap leaves no w
                if ((not floor or (w >> i & 1) << 4 | w.bit_count() >= floor)
                        and not nu[w & bit - 1] & ~w and (w & bit or nu[w] == w)):
                    yield prefix + (w,), list((packed[i] | _SPREAD[w] << i).to_bytes(n, "little"))
                if w == cap:
                    break
                w = (w - cap) & rest | need
            i -= 1
            continue
        # the nonempty submasks of the cap, ascending; a spent depth is left at 0
        v = rows[i] = (rows[i] - cap) & cap
        if not v:
            i -= 1
            continue
        head = floor and (v >> i & 1) << 4 | v.bit_count()
        if head < floor:
            continue
        # v must contain the rows of its placed points: their union lies in v
        u, low = unions[i], (1 << i) - 1
        if u[v & low] & ~v:
            continue
        packed[i + 1] = packed[i] | _SPREAD[v] << i
        unions[i + 1] = u + [w | v for w in u]
        i += 1
        floors[i], cap = head, full
        for x in _BITS[packed[i] >> 8 * i & 255]:  # the placed rows holding i
            cap &= rows[x]
        caps[i] = cap


@functools.cache
def _run_permutations(runs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every permutation other than the identity that maps each run of points onto itself.

    The runs are consecutive: the first ``runs[0]`` points, then the next
    ``runs[1]``, and so on.  With every run of length 1 there is none.  The
    cache keeps at most 2^(n-1) entries, one per composition of n.
    """
    starts = itertools.accumulate(runs, initial=0)
    blocks = [itertools.permutations(range(s, s + k)) for s, k in zip(starts, runs)]
    # permutations() yields each block's identity first, so product() yields the identity first
    return tuple(sum(parts, ()) for parts in itertools.product(*blocks))[1:]


def _is_canonical(rows: Sequence[int], inv: Sequence[int]) -> bool:
    """Whether the relation on ``rows``, with transpose ``inv``, represents its class.

    A point's key is (reflexive bit, |f(x)|, |f^-1(x)|), packed four bits a
    field into one int, which holds the degrees on up to 8 points, the
    reach of the byte tables; a relabeling carries every key along with its
    point.  The representative is the least relabeling, row-wise
    lexicographic on the packed rows, among those that sort the points by
    key.  A relation is it exactly when its keys ascend along the points and
    no permutation within a run of equal keys makes its rows smaller.
    """
    keys = [(row >> x & 1) << 8 | row.bit_count() << 4 | col.bit_count()
            for x, (row, col) in enumerate(zip(rows, inv))]
    if any(a > b for a, b in zip(keys, keys[1:])):
        return False
    runs = tuple(len(list(run)) for _, run in itertools.groupby(keys))
    return all(_relabel(rows, perm) >= rows for perm in _run_permutations(runs))


# the counts of a report in field order, which is the order of the --json "counts"
COUNTS = ("full", "idempotent_full", "nontrivial_idempotent", "trivial_idempotent",
          "gamma_idempotent", "surjective_idempotent", "identity_count")


class SurveyReport(namedtuple("SurveyReport", ("n", "mode", *COUNTS, "counterexamples",
                                               "counterexample_total", "elapsed"))):
    """Aggregated result of one exhaustive scan.

    ``counterexamples`` holds serialized relations that violated any checked
    equivalence, with the reason, the first ``COUNTEREXAMPLE_CAP`` of them;
    ``counterexample_total`` counts them all.  The census claim is precisely
    that the total is 0.  In ``up_to_iso`` mode the counts are per
    isomorphism class (canonical representatives only).  Building a report,
    ``_replace`` included, checks that the counts add up.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "SurveyReport":
        self = super().__new__(cls, *args, **kwargs)
        if self.idempotent_full != self.nontrivial_idempotent + self.trivial_idempotent:
            raise AssertionError("idempotent count does not split into trivial + nontrivial")
        if len(self.counterexamples) > self.counterexample_total:
            raise AssertionError("more counterexample reports than counterexamples")
        return self

    @classmethod
    def _make(cls, iterable) -> "SurveyReport":
        return cls(*iterable)


class _Tally:
    """The report's fields from ``idempotent_full`` on, as the census counts them."""

    __slots__ = COUNTS[1:] + ("counterexamples", "counterexample_total")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)
        self.counterexamples: list[dict] = []


def _flag(tally: _Tally, rows: tuple, reason: str) -> None:
    tally.counterexample_total += 1
    if len(tally.counterexamples) < COUNTEREXAMPLE_CAP:
        # the pairs of f in lexicographic order, as Relation.pairs() lists them
        pairs = [[x, y] for x, row in enumerate(rows) for y in _BITS[row]]
        tally.counterexamples.append({"n": len(rows), "pairs": pairs, "reason": reason})


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


def survey(n: int, mode: str = "all") -> SurveyReport:
    """Scan every full relation on n points and certify the equivalences.

    ``mode="all"`` checks every idempotent full relation, found among the
    transitive candidates only, and counts all (2^n - 1)^n full ones by that
    formula; ``mode="up_to_iso"`` checks canonical representatives only,
    pruning on the (reflexive bit, out-degree) heads while placing rows, and
    ``_is_canonical`` relabels each leaf only within runs of tied keys.  Both
    are capped at n=5; one sequential pass of the backtracker feeds one tally.
    """
    if mode not in ("all", "up_to_iso"):
        raise ValueError(f"unknown survey mode {mode!r}")
    _check_carrier(n)
    if not 1 <= n <= ENUM_CAP:
        raise ValueError(
            f"carrier size {n} outside 1..{ENUM_CAP} for mode {mode!r}; "
            f"the search space beyond the cap is out of reach"
        )

    iso = mode == "up_to_iso"
    identity = tuple(1 << x for x in range(n))
    started = time.perf_counter()
    tally = _Tally()
    for rows, inv in _idempotent_relations(n, ascending=iso):
        if iso and not _is_canonical(rows, inv):
            continue
        # every census check on the idempotent full f on rows, whose transpose is inv
        tally.idempotent_full += 1
        trivial = _nontriviality(rows) is None
        gam = _gamma(rows)
        two = _two_point(rows)
        if gam is not None:
            tally.gamma_idempotent += 1
        if trivial:
            tally.trivial_idempotent += 1
        else:
            tally.nontrivial_idempotent += 1

        # the three-way equivalence for idempotent full relations
        if (gam is None) != trivial or (two is None) != trivial:
            _flag(tally, rows, "trivial / gamma / two-point disagreement")

        if not trivial:
            try:
                pair, chain1, chain2, _ = _gamma_pipeline(rows, inv)
            except Exception as exc:  # any failure here is exactly what we scan for
                _flag(tally, rows, f"gamma pipeline failed: {exc}")
            else:
                u, v = pair
                ok = u != v and 0 <= u < n and 0 <= v < n
                ok = ok and (rows[u] >> u) & (rows[u] >> v) & (rows[v] >> v) & 1
                if not ok or len(chain1) > n or len(chain2) > n:
                    _flag(tally, rows, "gamma pipeline returned an invalid witness")

        surjective = all(inv)  # every point has a predecessor
        if surjective:
            tally.surjective_idempotent += 1
        ident = rows == identity
        if ident:
            tally.identity_count += 1
        if trivial and surjective and not ident:
            _flag(tally, rows, "trivial idempotent surjection differs from the identity")

        # the leaf test showed f o f = f, so the inverse of the square is inv itself
        if _compose_rows(inv, inv) != inv:
            _flag(tally, rows, "squaring does not commute with inversion")
    elapsed = time.perf_counter() - started

    full = ((1 << n) - 1) ** n if mode == "all" else _full_classes(n)
    tally.counterexamples = tuple(tally.counterexamples)
    return SurveyReport(n, mode, full, *(getattr(tally, k) for k in _Tally.__slots__), elapsed)
