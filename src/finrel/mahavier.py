"""Generalized inverse limits (Mahavier products) over finite total orders.

A thread of length m for a relation f is a tuple (x_0, ..., x_{m-1}) whose
later coordinates map onto the earlier ones: (x_{l'}, x_l) lies in f for
every l < l'.  For transitive f, so for every idempotent f, this is the
classical condition on adjacent coordinates alone.  The threads are the
finite analogue of the inverse limit of f over the chain 0 < 1 < ... < m-1.

A thread set is a plain tuple of threads in lexicographic order.
``iter_threads`` streams the threads and ``count_threads`` counts them
without building any.  The engine sums up a prefix by one state, the mask
of points allowed as its next coordinate, with one move per allowed point.
It starts from all points, and placing v leaves the allowed points that
map onto v: a move stays on its state or leads to a state with fewer
points, so fewer moves.  States are numbered in the order first found, the
start 0, one round per coordinate; a move of the last round leaves no
point, and discovery stops at the first round that finds no new state.
The threads of the canonical gamma relation on two points are the
indicator tuples of down-sets of the chain: m+1 of them, totally ordered
coordinatewise (``is_coordinatewise_chain``).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import pairwise

from .core import _BITS, Relation, _inverse_rows, iter_bits

MAX_LENGTH = 1 << 20
MAX_MOVES = 1 << 21  # moves a state graph may hold; at about 69 bytes each, 145 MB

Thread = tuple[int, ...]


def gamma_relation() -> Relation:
    """The canonical nontrivial idempotent relation {(0,0), (0,1), (1,1)}."""
    return Relation(2, (0b11, 0b10))


def _moves(f: Relation, m: int) -> list[list[tuple[int, int]]]:
    """The moves (v, index of the next state) of every state, by index: the
    engine's one entry, so it checks m and keeps the graph to MAX_MOVES moves."""
    if type(m) is not int:
        raise ValueError(f"chain length is a {type(m).__name__}, not an int")
    if m < 1:
        raise ValueError("chain length must be positive")
    if m > MAX_LENGTH:
        raise ValueError(f"chain length {m} exceeds the cap {MAX_LENGTH}")
    inv = _inverse_rows(f.rows)
    states = [(1 << f.n) - 1]
    index = {states[0]: 0}
    moves: list[list[tuple[int, int]]] = []
    budget = MAX_MOVES
    for depth in range(m):
        if len(moves) == len(states):
            break
        for allowed in states[len(moves):]:
            budget -= allowed.bit_count()
            if budget < 0:
                raise ValueError(f"chain length {m} needs more moves than the budget {MAX_MOVES}")
            out = []
            for v in _BITS[allowed] if allowed < 256 else iter_bits(allowed):
                nxt = allowed & inv[v] if depth < m - 1 else 0
                s = index.get(nxt)
                if s is None:
                    s = index[nxt] = len(states)
                    states.append(nxt)
                out.append((v, s))
            moves.append(out)
    return moves + [[] for _ in states[len(moves):]]


def iter_threads(f: Relation, m: int) -> Iterator[Thread]:
    """Stream the threads of f over a chain of length m in lexicographic order.

    A depth-first walk with an explicit stack over the states of the module
    docstring that steps only into states able to take the rest of the chain.
    How far each state reaches comes from one pass in order of move count, next states first.
    """
    moves = _moves(f, m)
    tails = [m] * len(moves)  # the most coordinates each state can still take, at most m
    for s in sorted(range(len(moves)), key=lambda s: len(moves[s])):  # a move that stays reads m
        tails[s] = min(m, 1 + max([tails[nxt] for _, nxt in moves[s]], default=-1))
    prefix: list[int] = []
    stack = [iter(moves[0])]
    while stack:
        del prefix[len(stack) - 1:]  # the top iterator chooses the next coordinate
        left = m - len(stack)  # coordinates that must follow it
        for v, nxt in stack[-1]:
            if tails[nxt] >= left:
                break
        else:
            stack.pop()
            continue
        prefix.append(v)
        if left:
            stack.append(iter(moves[nxt]))
        else:
            yield tuple(prefix)


def count_threads(f: Relation, m: int) -> int:
    """The number of threads, by m - 1 forward steps of exact prefix counts per
    state; a state's moves are then its choices for the last coordinate."""
    moves = _moves(f, m)
    counts = [1] + [0] * (len(moves) - 1)
    for _ in range(m - 1):
        ahead = [0] * len(moves)
        for s, count in enumerate(counts):
            if count:
                for _, nxt in moves[s]:
                    ahead[nxt] += count
        counts = ahead
    return sum(count * len(out) for count, out in zip(counts, moves))


def is_coordinatewise_chain(threads: Iterable[Thread]) -> bool:
    """Whether the threads are totally ordered coordinatewise.

    Coordinatewise order refines lexicographic order, so the set is a chain
    exactly when every lex-consecutive pair is comparable.
    """
    return _is_chain_in_order(sorted(threads))


def _is_chain_in_order(threads: Iterable[Thread]) -> bool:
    """``is_coordinatewise_chain`` of threads given in lexicographic order, in one pass."""
    return all(all(ai <= bi for ai, bi in zip(a, b)) for a, b in pairwise(threads))
