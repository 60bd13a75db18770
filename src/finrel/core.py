"""Binary relations on finite point sets.

A relation f on the carrier {0, ..., n-1} is stored as n integer bitmasks:
bit y of ``rows[x]`` is set exactly when the pair (x, y) belongs to f, so
``rows[x]`` encodes the successor set f(x) = {y : (x, y) in f}.  Packing a
row into one machine word makes composition a handful of bitwise ORs per
row, which is what keeps the exhaustive n=5 scan in the census feasible.

All values are immutable and all operations are pure functions, so
relations can be shared freely between concurrent workers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence


class PreconditionError(ValueError):
    """An operation was applied to a relation outside its stated domain."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Relation:
    """A binary relation on the points {0, ..., n-1}.

    ``rows[x]`` is the bitmask of f(x); membership of (x, y) is a single
    shift-and-test.  Rows may be empty: fullness is a predicate, not a
    structural requirement (inverses of non-surjective relations have
    empty rows).
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("carrier must be nonempty")
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(rows)}")
        limit = 1 << self.n
        for x, row in enumerate(rows):
            if not 0 <= row < limit:
                raise ValueError(f"row {x} mentions a point outside 0..{self.n - 1}")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Relation":
        rows = [0] * n
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"pair ({x}, {y}) out of range for carrier of size {n}")
            rows[x] |= 1 << y
        return cls(n, tuple(rows))

    def has(self, x: int, y: int) -> bool:
        return (self.rows[x] >> y) & 1 == 1

    def __contains__(self, pair: tuple[int, int]) -> bool:
        x, y = pair
        return 0 <= x < self.n and 0 <= y < self.n and self.has(x, y)

    def successors(self, x: int) -> tuple[int, ...]:
        """The sorted successor set f(x)."""
        return tuple(iter_bits(self.rows[x]))

    def pairs(self) -> list[tuple[int, int]]:
        """All pairs of the relation in lexicographic order."""
        return [(x, y) for x in range(self.n) for y in iter_bits(self.rows[x])]

    def __repr__(self) -> str:
        return f"Relation(n={self.n}, pairs={self.pairs()})"


def identity(n: int) -> Relation:
    """The identity relation {(x, x) : x < n}."""
    return Relation(n, tuple(1 << x for x in range(n)))


def compose(f: Relation, g: Relation) -> Relation:
    """Relational composition, first f then g: result(x) = g[f(x)].

    With both arguments equal this is the square of f.
    """
    if f.n != g.n:
        raise ValueError(f"carrier size mismatch: {f.n} != {g.n}")
    grows = g.rows
    out = []
    for row in f.rows:
        acc = 0
        for y in iter_bits(row):
            acc |= grows[y]
        out.append(acc)
    return Relation(f.n, tuple(out))


def inverse(f: Relation) -> Relation:
    """The transpose {(y, x) : (x, y) in f}."""
    out = [0] * f.n
    for x, row in enumerate(f.rows):
        bit = 1 << x
        for y in iter_bits(row):
            out[y] |= bit
    return Relation(f.n, tuple(out))


def image(f: Relation, points: Iterable[int]) -> frozenset[int]:
    """f[A]: everything reachable in one step from a point of A."""
    acc = 0
    for x in points:
        if not 0 <= x < f.n:
            raise ValueError(f"point {x} out of range for carrier of size {f.n}")
        acc |= f.rows[x]
    return frozenset(iter_bits(acc))


def restrict(f: Relation, points: Iterable[int]) -> Relation:
    """Keep only pairs whose first coordinate lies in ``points``.

    The carrier is unchanged; rows outside the set become empty.
    """
    keep = 0
    for x in points:
        if not 0 <= x < f.n:
            raise ValueError(f"point {x} out of range for carrier of size {f.n}")
        keep |= 1 << x
    return Relation(f.n, tuple(row if (keep >> x) & 1 else 0 for x, row in enumerate(f.rows)))


def _relabel(rows: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    """The packed rows with every point x relabeled as perm[x], a bijection."""
    out = [0] * len(rows)
    for x, row in enumerate(rows):
        acc = 0
        for y in iter_bits(row):
            acc |= 1 << perm[y]
        out[perm[x]] = acc
    return tuple(out)


def apply_permutation(f: Relation, perm: Sequence[int]) -> Relation:
    """Relabel every point x as perm[x]."""
    if sorted(perm) != list(range(f.n)):
        raise ValueError("perm is not a bijection on the carrier")
    return Relation(f.n, _relabel(f.rows, perm))


def is_full(f: Relation) -> bool:
    """Every point has at least one successor."""
    return all(f.rows)


def is_idempotent(f: Relation) -> bool:
    """f composed with itself equals f."""
    rows = f.rows
    for row in rows:
        acc = 0
        for y in iter_bits(row):
            acc |= rows[y]
        if acc != row:
            return False
    return True


def is_surjective(f: Relation) -> bool:
    """Every point has at least one predecessor."""
    acc = 0
    for row in f.rows:
        acc |= row
    return acc == (1 << f.n) - 1


def is_single_valued(f: Relation) -> bool:
    """Every successor set is a singleton."""
    return all(row != 0 and row & (row - 1) == 0 for row in f.rows)


def nontriviality_witness(f: Relation) -> Optional[tuple[int, int]]:
    """Least (x, a) with a in f(x) and f(a) != {a}, or None if f is trivial.

    Triviality means the restriction of f to any successor set f(x) is the
    identity on that set; the witness pins down the first failure.  Only
    defined for full relations.
    """
    if not is_full(f):
        raise PreconditionError("triviality is only defined for full relations")
    rows = f.rows
    for x in range(f.n):
        for a in iter_bits(rows[x]):
            if rows[a] != 1 << a:
                return (x, a)
    return None


def is_trivial(f: Relation) -> bool:
    return nontriviality_witness(f) is None


def satisfies_gamma(f: Relation) -> Optional[tuple[int, int]]:
    """Least distinct (x, y) with (x,x), (x,y), (y,y) all in f, else None."""
    rows = f.rows
    for x in range(f.n):
        row = rows[x]
        if (row >> x) & 1:
            for y in iter_bits(row & ~(1 << x)):
                if (rows[y] >> y) & 1:
                    return (x, y)
    return None


def two_point_witness(f: Relation) -> Optional[tuple[int, int]]:
    """Least distinct (x, y) with (x,x) and (x,y) in f, else None."""
    rows = f.rows
    for x in range(f.n):
        row = rows[x]
        if (row >> x) & 1:
            rest = row & ~(1 << x)
            if rest:
                return (x, (rest & -rest).bit_length() - 1)
    return None


@dataclass(frozen=True)
class PropertyReport:
    """The full predicate profile of one relation, with witnesses.

    ``trivial`` is None when the relation is not full, since triviality is
    only defined for full relations.
    """

    n: int
    full: bool
    idempotent: bool
    surjective: bool
    single_valued: bool
    trivial: Optional[bool]
    gamma_witness: Optional[tuple[int, int]]
    two_point_witness: Optional[tuple[int, int]]
    nontriviality_witness: Optional[tuple[int, int]]

    @property
    def gamma(self) -> bool:
        return self.gamma_witness is not None


def properties(f: Relation) -> PropertyReport:
    """Evaluate every predicate of the algebra on one relation."""
    full = is_full(f)
    nt = nontriviality_witness(f) if full else None
    return PropertyReport(
        n=f.n,
        full=full,
        idempotent=is_idempotent(f),
        surjective=is_surjective(f),
        single_valued=is_single_valued(f),
        trivial=(nt is None) if full else None,
        gamma_witness=satisfies_gamma(f),
        two_point_witness=two_point_witness(f),
        nontriviality_witness=nt,
    )


def all_relations(n: int) -> Iterator[Relation]:
    """Every relation on n points, full or not (2^(n*n) of them)."""
    for rows in itertools.product(range(1 << n), repeat=n):
        yield Relation(n, rows)
