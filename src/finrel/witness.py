"""Constructive witness extraction for nontrivial idempotent full relations.

Two chain constructions do the work.  ``reflexive_pair_witness`` walks
successor chains of a nontrivial idempotent full relation until it lands on
a reflexive point, producing (x, y) with (x,x) and (y,x) in f.
``gamma_from_seed`` starts from a seed (x, y) with (x,x) and (x,y) in f and
extends y along successor chains until it finds a reflexive z, yielding the
gamma pattern (x,x), (x,z), (z,z).

``gamma_witness`` chains the two through the inverse relation: the
reflexive-pair result for f transposes into a seed for inverse(f), whose
gamma pattern transposes back into one for f.  When f is not surjective its
inverse has empty rows and the seeded extension cannot run there; so both
chains only visit the points of range(f), a bitmask in f's own labels.  The
restriction of f to its range is full, idempotent, surjective and still
nontrivial, and the resulting pattern is a pattern of f itself.

Both lemmas are one argument, and ``_walk`` states it once: from the points
already placed, step to the least successor of the last one until a
reflexive point appears.  Lemma 1 places its start point, Lemma 2 its seed
(x, y), so x is simply chain point 0.  Each new point must be seen by
every chain point and see none of them back, as idempotence guarantees;
so the chain never revisits a point, and running out of successors is a
logic error that raises at once rather than looping.

Lemma 1 has one packed core, ``_reflexive_pair``, returning plain
``(chain, result)``; Lemma 2 has no core of its own, only ``_walk`` from
``[x, y]``, and its seed checks live in ``gamma_from_seed`` alone, since the
pipeline's seed is Lemma 1's result.  The pipeline returns ``(pair, chain1,
chain2, rng)``, which the census reads directly; only the public functions
build records.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .core import (
    PreconditionError,
    Relation,
    _BITS,
    _nontriviality,
    inverse,
    iter_bits,
    is_full,
    is_idempotent,
)

KIND_REFLEXIVE_PAIR = "reflexive_pair"
KIND_GAMMA_FROM_SEED = "gamma_from_seed"


class WitnessChain(namedtuple("WitnessChain", ("kind", "chain", "seed", "result"))):
    """Trace of one chain construction.

    ``chain`` lists the visited points in order (empty when the result was
    immediate); ``seed`` is the starting pair for the seeded extension and
    None otherwise; ``result`` is the witness pair: (x, y) with (x,x),(y,x)
    in f for a reflexive-pair chain, (x, z) with (x,x),(x,z),(z,z) in f for
    a seeded gamma extension.
    """

    __slots__ = ()


class GammaWitness(namedtuple("GammaWitness", ("pair", "reflexive_stage", "extension_stage",
                                               "restricted_to"), defaults=(None,))):
    """Result of the full pipeline: the gamma pair plus both chain traces.

    ``restricted_to`` lists the range of f in ascending order when f is not
    surjective, and is None otherwise; both chains only visit those points.
    Chains and pair are always in f's own labels.
    """

    __slots__ = ()


def _require(f: Relation, op: str, nontrivial: bool = True) -> None:
    if not is_full(f):
        raise PreconditionError(f"{op} requires a full relation")
    if not is_idempotent(f):
        raise PreconditionError(f"{op} requires an idempotent relation")
    if nontrivial and _nontriviality(f.rows) is None:  # is_trivial would test fullness again
        raise PreconditionError(f"{op} requires a nontrivial relation")


def reflexive_pair_witness(f: Relation) -> WitnessChain:
    """Find distinct (x, y) with (x,x) and (y,x) in f.

    If the identity is properly contained in f the least off-diagonal pair
    answers immediately.  Otherwise start a chain at the least point x0
    with (x0,x0) not in f and repeatedly step to the least unvisited
    successor; idempotence forces every earlier chain point to see each new
    one and forbids back-edges, so the walk keeps finding fresh points
    until it hits a reflexive one, which happens within n steps.
    """
    _require(f, "reflexive_pair_witness")
    chain, result = _reflexive_pair(f.rows, (1 << f.n) - 1)
    return WitnessChain(KIND_REFLEXIVE_PAIR, tuple(chain), None, result)


def _reflexive_pair(rows: Sequence[int], rng: int) -> tuple[list[int], tuple[int, int]]:
    """``reflexive_pair_witness`` on f cut to the points of ``rng``, as (chain, result).

    ``rows`` are those of an f whose preconditions hold, and ``rng`` holds
    every row (the whole carrier, or range(f)), so f cut to ``rng`` is full,
    idempotent and nontrivial; every least point is taken among its points.
    """
    points = _BITS[rng] if rng < 256 else tuple(iter_bits(rng))
    for x0 in points:
        if not (rows[x0] >> x0) & 1:
            chain = _walk(rows, rng, [x0])
            return chain, (chain[-1], chain[-2])
    # identity properly contained: any off-diagonal (a, b) gives y=a, x=b
    for a in points:
        off = rows[a] & ~(1 << a)
        if off:
            return [], ((off & -off).bit_length() - 1, a)
    raise AssertionError("nontrivial relation equal to the identity")


def gamma_from_seed(f: Relation, x: int, y: int) -> WitnessChain:
    """Grow the seed (x, y), where (x,x) and (x,y) are in f, into a gamma pattern.

    Walks z0=y, z1, z2, ... along least unvisited successors.  Idempotence
    keeps every z on x's successor list and rules out edges back to x or to
    earlier chain points, so each step is possible and a reflexive z
    appears within n steps, giving (x,x), (x,z), (z,z) in f.
    """
    for p in (x, y):
        if type(p) is not int:
            raise PreconditionError(f"seed point {p!r} is a {type(p).__name__}, not an int")
    _require(f, "gamma_from_seed", nontrivial=False)
    if not (0 <= x < f.n and 0 <= y < f.n):
        raise PreconditionError("seed points out of range")
    if x == y:
        raise PreconditionError("seed points must be distinct")
    if not (f.rows[x] >> x) & 1:
        raise PreconditionError(f"seed requires ({x}, {x}) in the relation")
    if not (f.rows[x] >> y) & 1:
        raise PreconditionError(f"seed requires ({x}, {y}) in the relation")
    chain = _walk(f.rows, (1 << f.n) - 1, [x, y])
    return WitnessChain(KIND_GAMMA_FROM_SEED, tuple(chain[1:]), (x, y), (x, chain[-1]))


def _walk(rows: Sequence[int], rng: int, chain: list[int]) -> list[int]:
    """Extend ``chain`` along least successors in ``rng`` until it ends on a reflexive point.

    ``chain`` holds the points of ``rng`` already placed, in order: ``[x0]``
    for Lemma 1, ``[x, y]`` for Lemma 2.  Unless its last point is
    reflexive, that point may see no earlier one, and the walk asserts so.
    Each appended point must be seen by every chain point and see none of
    them back, so the last point never sees a chain point, its successors
    are all fresh, and the walk ends within ``rng.bit_count()`` points.  It
    returns ``chain`` itself, unchanged if its last point is reflexive.
    """
    cur = chain[-1]
    if not (rows[cur] >> cur) & 1:
        for c in chain[:-1]:
            if (rows[cur] >> c) & 1:
                raise AssertionError(f"back-edge ({cur}, {c}) violates the chain order")
    while not (rows[cur] >> cur) & 1:
        fresh = rows[cur] & rng
        if not fresh:
            raise AssertionError("chain exhausted fresh points without a reflexive one")
        cur = (fresh & -fresh).bit_length() - 1
        for c in chain:
            if not (rows[c] >> cur) & 1:
                raise AssertionError(f"chain point {c} does not see successor {cur}")
            if (rows[cur] >> c) & 1:
                raise AssertionError(f"back-edge ({cur}, {c}) violates the chain order")
        chain.append(cur)
    return chain


def gamma_witness(f: Relation) -> GammaWitness:
    """Produce distinct (x, y) with (x,x), (x,y), (y,y) in f, with traces.

    Pipeline: reflexive-pair chain on f gives (x,x),(y,x) in f, so
    (x,x),(x,y) sits in inverse(f), which is idempotent because inversion
    commutes with squaring; the seeded extension there yields a gamma
    pattern of inverse(f), and transposing it gives one for f.  If f is not
    surjective, inverse(f) has empty rows and the extension chain could
    starve, so both chains only visit range(f), where f is full,
    idempotent, surjective and still nontrivial.  The transpose is
    ``inverse(f)``, which f keeps for later calls.  The returned pair is
    valid for f but not necessarily the lexicographically least gamma pair.
    """
    _require(f, "gamma_witness")
    pair, chain1, chain2, rng = _gamma_pipeline(f.rows, inverse(f).rows)
    # the extension grew stage 1's result (x, y) into (x, z): its chain starts at y
    z, x = pair
    seed = (x, chain2[0])
    reflexive = WitnessChain(KIND_REFLEXIVE_PAIR, tuple(chain1), None, seed)
    extension = WitnessChain(KIND_GAMMA_FROM_SEED, tuple(chain2), seed, (x, z))
    restricted_to = (None if rng == (1 << f.n) - 1
                     else _BITS[rng] if rng < 256 else tuple(iter_bits(rng)))
    return GammaWitness(pair, reflexive, extension, restricted_to)


def _gamma_pipeline(rows: Sequence[int],
                    inv: Sequence[int]) -> tuple[tuple[int, int], list[int], list[int], int]:
    """``gamma_witness`` on the rows of an f whose preconditions hold, given its transpose.

    ``inv`` holds the packed rows of inverse(f).  Both chains only visit
    ``rng``, the range of f as a bitmask.  Every row of f lies in it, so f
    cut to ``rng`` is full, idempotent and surjective there, and it stays
    nontrivial: a nontriviality witness (x, a) lifts to (c, a) for some c in
    f(x), and c lies in the range.  The rows of inv ANDed with ``rng`` are
    the transpose of that cut, in f's labels.  Returns the gamma pair, both
    chains and ``rng``.
    """
    rng = 0
    for row in rows:
        rng |= row
    chain1, (x, y) = _reflexive_pair(rows, rng)
    chain2 = _walk(inv, rng, [x, y])
    z = chain2[-1]
    # (x,x),(x,z),(z,z) in inv, hence (z,z),(z,x),(x,x) in f
    if z == x or not (rows[z] >> z) & (rows[z] >> x) & (rows[x] >> x) & 1:
        raise AssertionError(f"pipeline produced an invalid gamma pair ({z}, {x})")
    return (z, x), chain1, chain2[1:], rng
