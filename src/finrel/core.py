"""Binary relations on finite point sets.

A relation f on the carrier {0, ..., n-1} is stored as n integer bitmasks:
bit y of ``rows[x]`` is set exactly when the pair (x, y) belongs to f, so
``rows[x]`` encodes the successor set f(x) = {y : (x, y) in f}.  Packing a
row into one machine word makes composition a handful of bitwise ORs per
row, which is what keeps the exhaustive n=5 scan in the census feasible.
The kernels list the points of a row below 256, a row on at most 8 points,
from the table ``_BITS``, and those of a wider row with ``iter_bits``; beside
it, ``_SPREAD`` transposes at most 8 rows with one OR per row.

All values are immutable and all operations are pure functions, so
relations can be shared freely.  A relation works out its idempotence
verdict and its transpose at most once, on first use, and ``inverse(f)``
returns that same object each time; the memo is invisible to ``==``,
``hash`` and pickling.

``Relation(...)`` and ``Relation.from_pairs`` check every row.  Rows valid
by construction skip those checks through ``Relation._trusted``: the results
of ``compose`` and ``inverse``, and the two parsers in ``io``, which check
every pair or cell before building a row.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence


class PreconditionError(ValueError):
    """An operation was applied to a relation outside its stated domain."""


def _check_carrier(n: object) -> None:
    if type(n) is not int:
        raise ValueError(f"carrier size n is a {type(n).__name__}, not an int")


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# _BITS[r] lists the set bit positions of r < 256, so a row on at most 8
# points is walked by one lookup; a wider row takes iter_bits
_BITS = [tuple(iter_bits(r)) for r in range(256)]
# _SPREAD[r] moves bit j of r < 256 to bit 8j: ORing _SPREAD[rows[x]] << x over
# the rows on at most 8 points gives the transpose with column y in byte y
_SPREAD = [0]
for _bit in range(8):
    _SPREAD += [r | 1 << 8 * _bit for r in _SPREAD]


class Relation:
    """A binary relation on the points {0, ..., n-1}.

    ``rows[x]`` is the bitmask of f(x); membership of (x, y) is a single
    shift-and-test.  Rows may be empty: fullness is a predicate, not a
    structural requirement (inverses of non-surjective relations have
    empty rows).  A relation is immutable, and equal to and hashed as
    another exactly when both have the same ``(n, rows)``.  ``_idempotent``
    and ``_inverse`` keep the idempotence verdict and the transpose, which
    holds no reference back to f, once first worked out.
    """

    __slots__ = ("n", "rows", "_idempotent", "_inverse")

    def __init__(self, n: int, rows: Iterable[int]) -> None:
        _SET_N(self, n)
        _SET_ROWS(self, tuple(rows))
        _SET_IDEMPOTENT(self, None)
        _SET_INVERSE(self, None)
        self.__post_init__()

    def __post_init__(self) -> None:
        _check_carrier(self.n)
        if self.n < 1:
            raise ValueError("carrier must be nonempty")
        rows = self.rows
        if len(rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(rows)}")
        limit = 1 << self.n
        for x, row in enumerate(rows):
            if type(row) is not int:
                raise ValueError(f"row {x} is a {type(row).__name__}, not an int bitmask")
            if not 0 <= row < limit:
                raise ValueError(f"row {x} mentions a point outside 0..{self.n - 1}")

    @classmethod
    def _trusted(cls, n: int, rows: tuple[int, ...]) -> "Relation":
        """A relation on rows already known to be n ints in 0..2^n-1; no checks."""
        f = object.__new__(cls)
        _SET_N(f, n)
        _SET_ROWS(f, rows)
        _SET_IDEMPOTENT(f, None)
        _SET_INVERSE(f, None)
        return f

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.rows) == (other.n, other.rows)

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __reduce__(self) -> tuple:
        return (self.__class__, (self.n, self.rows))

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Relation":
        _check_carrier(n)
        rows = [0] * n
        for x, y in pairs:
            if type(x) is not int or type(y) is not int:
                raise ValueError(f"pair ({x!r}, {y!r}) has a coordinate that is not an int")
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"pair ({x}, {y}) out of range for carrier of size {n}")
            rows[x] |= 1 << y
        return cls(n, tuple(rows))

    def has(self, x: int, y: int) -> bool:
        """Whether (x, y) is in the relation; False for int points outside the carrier."""
        for p in (x, y):
            if type(p) is not int:
                raise ValueError(f"point {p!r} is a {type(p).__name__}, not an int")
        return 0 <= x < self.n and 0 <= y < self.n and (self.rows[x] >> y) & 1 == 1

    def pairs(self) -> list[tuple[int, int]]:
        """All pairs of the relation in lexicographic order."""
        out = []
        for x, row in enumerate(self.rows):
            for y in _BITS[row] if row < 256 else iter_bits(row):
                out.append((x, y))
        return out

    def __repr__(self) -> str:
        return f"Relation(n={self.n}, pairs={self.pairs()})"


# set each slot through its own descriptor: no lookup by name, and past __setattr__
_SET_N = Relation.n.__set__
_SET_ROWS = Relation.rows.__set__
_SET_IDEMPOTENT = Relation._idempotent.__set__
_SET_INVERSE = Relation._inverse.__set__


def identity(n: int) -> Relation:
    """The identity relation {(x, x) : x < n}."""
    _check_carrier(n)
    return Relation(n, tuple(1 << x for x in range(n)))


def _compose_rows(frows: Sequence[int], grows: Sequence[int]) -> list[int]:
    """The packed rows of f then g: row x is the union of g's rows over f(x)."""
    out = []
    for row in frows:
        acc = 0
        for y in _BITS[row] if row < 256 else iter_bits(row):
            acc |= grows[y]
        out.append(acc)
    return out


def _inverse_rows(rows: Sequence[int]) -> list[int]:
    """The packed rows of the transpose: bit x of row y set when bit y of row x is."""
    if len(rows) <= 8:
        acc = 0
        for x, row in enumerate(rows):
            acc |= _SPREAD[row] << x
        return list(acc.to_bytes(len(rows), "little"))
    out = [0] * len(rows)
    bit = 1
    for row in rows:
        for y in _BITS[row] if row < 256 else iter_bits(row):
            out[y] |= bit
        bit <<= 1
    return out


def compose(f: Relation, g: Relation) -> Relation:
    """Relational composition, first f then g: result(x) = g[f(x)].

    With both arguments equal this is the square of f.
    """
    if f.n != g.n:
        raise ValueError(f"carrier size mismatch: {f.n} != {g.n}")
    return Relation._trusted(f.n, tuple(_compose_rows(f.rows, g.rows)))


def inverse(f: Relation) -> Relation:
    """The transpose {(y, x) : (x, y) in f}, built on the first call and kept."""
    inv = f._inverse
    if inv is None:
        inv = Relation._trusted(f.n, tuple(_inverse_rows(f.rows)))
        _SET_INVERSE(f, inv)
    return inv


def restrict(f: Relation, points: Iterable[int]) -> Relation:
    """Keep only pairs whose first coordinate lies in ``points``.

    The carrier is unchanged; rows outside the set become empty.
    """
    keep = 0
    for x in points:
        if type(x) is not int:
            raise ValueError(f"point {x!r} is a {type(x).__name__}, not an int")
        if not 0 <= x < f.n:
            raise ValueError(f"point {x} out of range for carrier of size {f.n}")
        keep |= 1 << x
    return Relation(f.n, tuple(row if (keep >> x) & 1 else 0 for x, row in enumerate(f.rows)))


def _relabel(rows: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    """The packed rows with every point x relabeled as perm[x], a bijection."""
    out = [0] * len(rows)
    for x, row in enumerate(rows):
        acc = 0
        for y in _BITS[row] if row < 256 else iter_bits(row):
            acc |= 1 << perm[y]
        out[perm[x]] = acc
    return tuple(out)


def is_full(f: Relation) -> bool:
    """Every point has at least one successor."""
    return all(f.rows)


def is_idempotent(f: Relation) -> bool:
    """f composed with itself equals f; tested on the first call and kept."""
    verdict = f._idempotent
    if verdict is None:
        verdict = _compose_rows(f.rows, f.rows) == list(f.rows)
        _SET_IDEMPOTENT(f, verdict)
    return verdict


def is_surjective(f: Relation) -> bool:
    """Every point has at least one predecessor."""
    acc = 0
    for row in f.rows:
        acc |= row
    return acc == (1 << f.n) - 1


def is_single_valued(f: Relation) -> bool:
    """Every successor set is a singleton."""
    return all(row != 0 and row & (row - 1) == 0 for row in f.rows)


# The packed cores of three predicates: the census calls them on the rows of
# each relation, and the public predicates wrap them.
def _nontriviality(rows: Sequence[int]) -> tuple[int, int] | None:
    for x, row in enumerate(rows):
        for a in _BITS[row] if row < 256 else iter_bits(row):
            if rows[a] != 1 << a:  # f(a) != {a}
                return (x, a)
    return None


def _gamma(rows: Sequence[int]) -> tuple[int, int] | None:
    for x, row in enumerate(rows):
        if (row >> x) & 1:
            rest = row & ~(1 << x)
            for y in _BITS[rest] if rest < 256 else iter_bits(rest):
                if (rows[y] >> y) & 1:  # (y, y) in f
                    return (x, y)
    return None


def _two_point(rows: Sequence[int]) -> tuple[int, int] | None:
    for x, row in enumerate(rows):
        if (row >> x) & 1:
            rest = row & ~(1 << x)
            if rest:
                return (x, (rest & -rest).bit_length() - 1)
    return None


def nontriviality_witness(f: Relation) -> tuple[int, int] | None:
    """Least (x, a) with a in f(x) and f(a) != {a}, or None if f is trivial.

    Triviality means the restriction of f to any successor set f(x) is the
    identity on that set; the witness pins down the first failure.  Only
    defined for full relations.
    """
    if not is_full(f):
        raise PreconditionError("triviality is only defined for full relations")
    return _nontriviality(f.rows)


def is_trivial(f: Relation) -> bool:
    return nontriviality_witness(f) is None


def satisfies_gamma(f: Relation) -> tuple[int, int] | None:
    """Least distinct (x, y) with (x,x), (x,y), (y,y) all in f, else None."""
    return _gamma(f.rows)


def two_point_witness(f: Relation) -> tuple[int, int] | None:
    """Least distinct (x, y) with (x,x) and (x,y) in f, else None."""
    return _two_point(f.rows)


class PropertyReport(namedtuple("PropertyReport", (
        "n", "full", "idempotent", "surjective", "single_valued", "trivial",
        "gamma_witness", "two_point_witness", "nontriviality_witness"))):
    """The full predicate profile of one relation, with witnesses.

    ``trivial`` is None when the relation is not full, since triviality is
    only defined for full relations.
    """

    __slots__ = ()

    @property
    def gamma(self) -> bool:
        return self.gamma_witness is not None


def properties(f: Relation) -> PropertyReport:
    """Evaluate every predicate of the algebra on one relation."""
    full = is_full(f)
    nt = _nontriviality(f.rows) if full else None
    # positional, in the declared field order: keywords cost a bind per field
    return PropertyReport(f.n, full, is_idempotent(f), is_surjective(f), is_single_valued(f),
                          (nt is None) if full else None, _gamma(f.rows), _two_point(f.rows), nt)
