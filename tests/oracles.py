"""Naive pair-set reference implementations.

Everything here works on explicit frozensets of (x, y) pairs with plain
set arithmetic, no bitmasks, so it shares nothing with the packed fast
path it is used to check.
"""

from __future__ import annotations

import itertools
import math
from typing import FrozenSet, Iterator, Optional, Sequence

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


def o_rows(n: int, f: Pairs) -> list[int]:
    """The packed rows of a pair set: bit y of row x set when (x, y) is in f."""
    return [sum(1 << y for y in range(n) if (x, y) in f) for x in range(n)]


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


def o_threads(n: int, f: Pairs, m: int, adjacent_only: bool = False) -> set[tuple[int, ...]]:
    """Thread sets by brute force: each later coordinate maps onto every
    earlier one, or with ``adjacent_only`` onto the one before.  A tuple is a
    thread exactly when its prefix one shorter is one too and its last
    coordinate maps onto the earlier ones, so each length filters the n
    extensions of every thread one shorter."""
    threads = {()}
    for _ in range(m):
        threads = {t + (x,) for t in threads for x in range(n)
                   if all((x, e) in f for e in (t[-1:] if adjacent_only else t))}
    return threads


def o_canonical_rows(n: int, f: Pairs) -> tuple[int, ...]:
    """The packed rows of f's class representative, over all n! relabelings.

    A relabeling qualifies when its points ascend by the key (reflexive,
    out-degree, in-degree); the representative is the qualifying one whose
    rows, each read as the integer sum of 2**y over its successors y, form
    the least tuple.
    """
    forms = []
    for perm in itertools.permutations(range(n)):
        g = frozenset((perm[x], perm[y]) for x, y in f)
        keys = [((x, x) in g, len(o_successors(g, x)), sum(1 for _, y in g if y == x))
                for x in range(n)]
        if keys == sorted(keys):
            forms.append(tuple(sum(2 ** y for y in o_successors(g, x)) for x in range(n)))
    return min(forms)


# the pairs a chain's result (x, y) puts in the relation the chain ran on
CHAIN_RESULTS = {
    "reflexive_pair": lambda x, y: {(x, x), (y, x)},
    "gamma_from_seed": lambda x, y: {(x, x), (x, y), (y, y)},
}


def o_chain_faults(n: int, f: Pairs, kind: str, chain: Sequence[int],
                   result: tuple[int, int]) -> list[str]:
    """Everything wrong with a chain trace on f, in words; empty when it holds.

    A trace is sound when its points are distinct, at most n of them, each
    consecutive pair lies in f, and its result (x, y) has x != y and the
    pattern of its kind: (x,x), (y,x) for a reflexive pair, and (x,x),
    (x,y), (y,y) for a gamma extension.
    """
    faults = []
    if len(set(chain)) != len(chain):
        faults.append("chain points repeat")
    if len(chain) > n:
        faults.append("chain longer than the carrier")
    for a, b in zip(chain, chain[1:]):
        if (a, b) not in f:
            faults.append(f"consecutive chain pair ({a}, {b}) not in the relation")
    x, y = result
    if x == y or not CHAIN_RESULTS[kind](x, y) <= f:
        faults.append(f"{kind} result ({x}, {y}) invalid")
    return faults


def _set_partitions(points: list[int]) -> Iterator[list[list[int]]]:
    """Every partition of ``points`` into blocks: the first point starts a
    block of its own or joins a block of a partition of the rest."""
    if not points:
        yield []
        return
    first = points[0]
    for blocks in _set_partitions(points[1:]):
        yield [[first], *blocks]
        for i, block in enumerate(blocks):
            yield [*blocks[:i], [first, *block], *blocks[i + 1:]]


def _attachments(k: int, le: Pairs) -> Iterator[tuple[frozenset[int], frozenset[int]]]:
    """The pairs (A, B) of an up-set A and a down-set B of le on k points,
    disjoint, with every point of B below every point of A."""
    sets = [frozenset(), *_nonempty_subsets(k)]
    ups = [a for a in sets if all(q in a for p, q in le if p in a)]
    downs = [b for b in sets if all(p in b for p, q in le if q in b)]
    for a in ups:
        for b in downs:
            if not a & b and all((p, q) in le for p in b for q in a):
                yield a, b


def o_partial_orders(m: int) -> Iterator[Pairs]:
    """Every partial order on m points.  Each extends one on the first m - 1
    points: the new point sits above a down-set B and below an up-set A,
    disjoint and with B below A, which keeps the order transitive and
    antisymmetric."""
    if m == 0:
        yield frozenset()
        return
    new = m - 1
    for le in o_partial_orders(new):
        for above, below in _attachments(new, le):
            yield le | {(new, new)} | {(p, new) for p in below} | {(new, q) for q in above}


def o_preorders(k: int) -> Iterator[Pairs]:
    """Every preorder on k points: a set partition of the points into the
    classes of mutually related points, then a partial order on the classes."""
    for blocks in _set_partitions(list(range(k))):
        for order in o_partial_orders(len(blocks)):
            yield frozenset((x, y) for i, j in order for x in blocks[i] for y in blocks[j])


def o_attachments(k: int, le: Pairs) -> int:
    """c(le): the pairs (A, B) of a nonempty up-set A and a down-set B of le
    on k points, disjoint, with every point of B below every point of A."""
    return sum(1 for a, _ in _attachments(k, le) if a)


def o_idempotent_count(n: int) -> int:
    """I(n), the idempotent full relations on n points, by their structure.

    Such a relation f is its reflexive points P (k of them), the preorder
    f cut to P, and for each of the n - k other points x an independent
    choice of A(x) = f(x) cut to P and B(x) = the points of P that reach x:
    see ``o_decompose``.  With k = n there is no choice to count.
    """
    return sum(math.comb(n, k) * (o_attachments(k, le) ** (n - k) if k < n else 1)
               for k in range(n + 1) for le in o_preorders(k))


def o_trivial_count(n: int) -> int:
    """T(n), the trivial ones: f is trivial exactly when its preorder is
    discrete, and there every nonempty A pairs only with the empty B."""
    return sum(math.comb(n, k) * (2 ** k - 1) ** (n - k) for k in range(n + 1))


def o_decompose(n: int, f: Pairs):
    """(P, le, A, B) of an idempotent full relation f on n points.

    P is the reflexive points, le is f cut to P, and for each x outside P,
    A[x] is f(x) cut to P and B[x] the points of P that reach x.
    """
    reflexive = frozenset(x for x in range(n) if (x, x) in f)
    le = frozenset((p, q) for p, q in f if p in reflexive and q in reflexive)
    rest = [x for x in range(n) if x not in reflexive]
    up = {x: frozenset(q for q in reflexive if (x, q) in f) for x in rest}
    down = {x: frozenset(p for p in reflexive if (p, x) in f) for x in rest}
    return reflexive, le, up, down


def o_recompose(n: int, reflexive, le: Pairs, up, down) -> Pairs:
    """The relation with these parts: (x, y) is in it exactly when some
    reflexive point lies in x's up-set and in y's down-set."""
    ups = {**up, **{p: {q for a, q in le if a == p} for p in reflexive}}
    downs = {**down, **{q: {p for p, b in le if b == q} for q in reflexive}}
    return frozenset((x, y) for x in range(n) for y in range(n) if ups[x] & downs[y])
