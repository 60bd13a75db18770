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
inverse has empty rows and the seeded extension cannot run there; in that
case the whole pipeline is carried out inside range(f), where the
restriction of f is full, idempotent, surjective and still nontrivial, and
the resulting pattern is a pattern of f itself.

Both chain loops assert the structural facts that justify each step (every
earlier chain point sees the new one, no back-edges, the seed point stays a
predecessor).  On a finite carrier a chain of distinct points cannot outrun
the carrier, so exhaustion of fresh points is a logic error and raises
immediately rather than looping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    PreconditionError,
    Relation,
    _relabel,
    inverse,
    is_full,
    is_idempotent,
    is_trivial,
)

KIND_REFLEXIVE_PAIR = "reflexive_pair"
KIND_GAMMA_FROM_SEED = "gamma_from_seed"


@dataclass(frozen=True)
class WitnessChain:
    """Trace of one chain construction.

    ``chain`` lists the visited points in order (empty when the result was
    immediate); ``seed`` is the starting pair for the seeded extension and
    None otherwise; ``result`` is the witness pair: (x, y) with (x,x),(y,x)
    in f for a reflexive-pair chain, (x, z) with (x,x),(x,z),(z,z) in f for
    a seeded gamma extension.
    """

    kind: str
    chain: tuple[int, ...]
    seed: Optional[tuple[int, int]]
    result: tuple[int, int]

    def validate(self, f: Relation) -> None:
        """Re-check the chain invariants against the relation it ran on."""
        if len(set(self.chain)) != len(self.chain):
            raise AssertionError("chain entries are not pairwise distinct")
        if len(self.chain) > f.n:
            raise AssertionError("chain longer than the carrier")
        for a, b in zip(self.chain, self.chain[1:]):
            if not f.has(a, b):
                raise AssertionError(f"consecutive chain pair ({a}, {b}) not in relation")
        x, y = self.result
        if self.kind == KIND_REFLEXIVE_PAIR:
            if x == y or not (f.has(x, x) and f.has(y, x)):
                raise AssertionError(f"reflexive-pair result ({x}, {y}) invalid")
        elif self.kind == KIND_GAMMA_FROM_SEED:
            if x == y or not (f.has(x, x) and f.has(x, y) and f.has(y, y)):
                raise AssertionError(f"gamma result ({x}, {y}) invalid")
        else:
            raise AssertionError(f"unknown chain kind {self.kind!r}")


@dataclass(frozen=True)
class GammaWitness:
    """Result of the full pipeline: the gamma pair plus both chain traces.

    ``restricted_to`` lists the sub-carrier (the range of f) when the
    pipeline had to run inside it; chains and pair are always expressed in
    the original carrier's labels.
    """

    pair: tuple[int, int]
    reflexive_stage: WitnessChain
    extension_stage: WitnessChain
    restricted_to: Optional[tuple[int, ...]] = None


def _require(f: Relation, *, full: bool = False, idempotent: bool = False,
             nontrivial: bool = False, op: str) -> None:
    if full and not is_full(f):
        raise PreconditionError(f"{op} requires a full relation")
    if idempotent and not is_idempotent(f):
        raise PreconditionError(f"{op} requires an idempotent relation")
    if nontrivial and is_trivial(f):
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
    _require(f, full=True, idempotent=True, nontrivial=True, op="reflexive_pair_witness")
    return _reflexive_pair(f)


def _reflexive_pair(f: Relation) -> WitnessChain:
    """``reflexive_pair_witness`` on an f whose preconditions hold."""
    n, rows = f.n, f.rows

    if all((rows[x] >> x) & 1 for x in range(n)):
        # identity properly contained: any off-diagonal (a, b) gives y=a, x=b
        for a in range(n):
            off = rows[a] & ~(1 << a)
            if off:
                b = (off & -off).bit_length() - 1
                return WitnessChain(KIND_REFLEXIVE_PAIR, (), None, (b, a))
        raise AssertionError("nontrivial relation equal to the identity")

    x0 = next(x for x in range(n) if not (rows[x] >> x) & 1)
    chain = [x0]
    visited = 1 << x0
    for _ in range(n):
        cur = chain[-1]
        fresh = rows[cur] & ~visited
        if not fresh:
            raise AssertionError("chain exhausted fresh points without a reflexive one")
        nxt = (fresh & -fresh).bit_length() - 1
        for c in chain:
            if not (rows[c] >> nxt) & 1:
                raise AssertionError(f"chain point {c} does not see successor {nxt}")
            if (rows[nxt] >> c) & 1:
                raise AssertionError(f"back-edge ({nxt}, {c}) violates the chain order")
        chain.append(nxt)
        visited |= 1 << nxt
        if (rows[nxt] >> nxt) & 1:
            return WitnessChain(KIND_REFLEXIVE_PAIR, tuple(chain), None, (nxt, cur))
    raise AssertionError("chain exceeded the carrier size")


def gamma_from_seed(f: Relation, x: int, y: int) -> WitnessChain:
    """Grow the seed (x, y), where (x,x) and (x,y) are in f, into a gamma pattern.

    Walks z0=y, z1, z2, ... along least unvisited successors.  Idempotence
    keeps every z on x's successor list and rules out edges back to x or to
    earlier chain points, so each step is possible and a reflexive z
    appears within n steps, giving (x,x), (x,z), (z,z) in f.
    """
    _require(f, full=True, idempotent=True, op="gamma_from_seed")
    return _gamma_from_seed(f, x, y)


def _gamma_from_seed(f: Relation, x: int, y: int) -> WitnessChain:
    """``gamma_from_seed`` on a full idempotent f; the seed is still checked."""
    n, rows = f.n, f.rows
    if not (0 <= x < n and 0 <= y < n):
        raise PreconditionError("seed points out of range")
    if x == y:
        raise PreconditionError("seed points must be distinct")
    if not f.has(x, x):
        raise PreconditionError(f"seed requires ({x}, {x}) in the relation")
    if not f.has(x, y):
        raise PreconditionError(f"seed requires ({x}, {y}) in the relation")

    chain = [y]
    visited = 1 << y
    if (rows[y] >> y) & 1:
        return WitnessChain(KIND_GAMMA_FROM_SEED, tuple(chain), (x, y), (x, y))
    for _ in range(n):
        cur = chain[-1]
        if (rows[cur] >> x) & 1:
            raise AssertionError(f"non-final chain point {cur} has an edge back to the seed")
        fresh = rows[cur] & ~visited
        if not fresh:
            raise AssertionError("chain exhausted fresh points without a reflexive one")
        nxt = (fresh & -fresh).bit_length() - 1
        if not (rows[x] >> nxt) & 1:
            raise AssertionError(f"seed point {x} lost sight of chain point {nxt}")
        for c in chain:
            if not (rows[c] >> nxt) & 1:
                raise AssertionError(f"chain point {c} does not see successor {nxt}")
            if (rows[nxt] >> c) & 1:
                raise AssertionError(f"back-edge ({nxt}, {c}) violates the chain order")
        if nxt == x:
            raise AssertionError("chain ran into the seed point")
        chain.append(nxt)
        visited |= 1 << nxt
        if (rows[nxt] >> nxt) & 1:
            return WitnessChain(KIND_GAMMA_FROM_SEED, tuple(chain), (x, y), (x, nxt))
    raise AssertionError("chain exceeded the carrier size")


def _relabel_chain(wc: WitnessChain, old_of_new: list[int]) -> WitnessChain:
    return WitnessChain(
        kind=wc.kind,
        chain=tuple(old_of_new[c] for c in wc.chain),
        seed=None if wc.seed is None else (old_of_new[wc.seed[0]], old_of_new[wc.seed[1]]),
        result=(old_of_new[wc.result[0]], old_of_new[wc.result[1]]),
    )


def _range_restriction(f: Relation) -> tuple[Relation, list[int]]:
    """f cut down to its range, reindexed to 0..|range|-1.

    Successor sets always land inside the range, so only rows are dropped,
    never individual successors.  For idempotent f the restriction is full,
    idempotent and surjective on the sub-carrier, and it stays nontrivial
    whenever f is: a nontriviality witness (x, a) lifts to (c, a) for some
    c in f(x), and c lies in the range.
    """
    acc = 0
    for row in f.rows:
        acc |= row
    # relabel the range to the front; its rows then mention only the front
    order = sorted(range(f.n), key=lambda x: not (acc >> x) & 1)
    new_of_old = sorted(range(f.n), key=order.__getitem__)  # the inverse permutation
    k = acc.bit_count()
    return Relation(k, _relabel(f.rows, new_of_old)[:k]), order[:k]


def gamma_witness(f: Relation) -> GammaWitness:
    """Produce distinct (x, y) with (x,x), (x,y), (y,y) in f, with traces.

    Pipeline: reflexive-pair chain on f gives (x,x),(y,x) in f, so
    (x,x),(x,y) sits in inverse(f), which is idempotent because inversion
    commutes with squaring; the seeded extension there yields a gamma
    pattern of inverse(f), and transposing it gives one for f.  If f is not
    surjective, inverse(f) has empty rows and the extension chain could
    starve, so the pipeline first restricts f to its range (full,
    idempotent, surjective, still nontrivial there) and maps the witness
    back.  The returned pair is valid for f but not necessarily the
    lexicographically least gamma pair.
    """
    _require(f, full=True, idempotent=True, nontrivial=True, op="gamma_witness")

    restricted_to: Optional[tuple[int, ...]] = None
    target = f
    old_of_new = list(range(f.n))
    inv = inverse(f)
    if not all(inv.rows):
        target, old_of_new = _range_restriction(f)
        restricted_to = tuple(old_of_new)
        inv = inverse(target)

    # target is full, idempotent and nontrivial, so inv is full and idempotent
    stage1 = _reflexive_pair(target)
    x, y = stage1.result
    stage2 = _gamma_from_seed(inv, x, y)
    a, z = stage2.result  # (a,a),(a,z),(z,z) in inv, hence (z,z),(z,a),(a,a) in target
    pair = (old_of_new[z], old_of_new[a])

    stage1 = _relabel_chain(stage1, old_of_new)
    stage2 = _relabel_chain(stage2, old_of_new)

    u, v = pair
    if u == v or not (f.has(u, u) and f.has(u, v) and f.has(v, v)):
        raise AssertionError(f"pipeline produced an invalid gamma pair ({u}, {v})")
    return GammaWitness(pair=pair, reflexive_stage=stage1, extension_stage=stage2,
                        restricted_to=restricted_to)
