import itertools
from random import Random

import pytest

import oracles as o
from finrel import (
    Relation,
    compose,
    count_threads,
    gamma_relation,
    identity,
    inverse,
    is_coordinatewise_chain,
    is_idempotent,
    is_full,
    is_surjective,
    is_trivial,
    iter_threads,
    satisfies_gamma,
)
from finrel import mahavier
from strategies import all_relations, full_relations, full_square, random_full_relation


def is_transitive(f):
    return all(sq & ~row == 0 for sq, row in zip(compose(f, f).rows, f.rows))


def naive(f, m, adjacent_only=False):
    """The oracle's threads of f, in lexicographic order."""
    return tuple(sorted(o.o_threads(f.n, o.pairs_of(f), m, adjacent_only)))


class TestGammaRelation:
    def test_pairs(self):
        assert gamma_relation().pairs() == [(0, 0), (0, 1), (1, 1)]

    def test_profile(self):
        g = gamma_relation()
        assert is_full(g) and is_idempotent(g) and is_surjective(g)
        assert not is_trivial(g)
        assert satisfies_gamma(g) == (0, 1)


class TestThreadsNaive:
    """Hand-checked thread sets of the brute-force pair-set oracle."""

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 4), (3, 1)])
    def test_identity_gives_constant_tuples(self, n, m):
        assert naive(identity(n), m) == tuple(tuple([x] * m) for x in range(n))

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 4), (3, 3)])
    def test_full_square_gives_everything(self, n, m):
        assert len(naive(full_square(n), m)) == n ** m

    def test_gamma_three_steps(self):
        assert naive(gamma_relation(), 3) == ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1))

    def test_t_two_steps(self, t_relation):
        assert naive(t_relation, 2) == ((0, 0), (0, 2), (1, 1), (1, 2))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_oracle(self, n):
        # the definition filters all n**m tuples; the oracle extends shorter threads
        for f in all_relations(n):
            pairs = o.pairs_of(f)
            for m in (1, 2, 3):
                for adjacent in (False, True):
                    literal = {t for t in itertools.product(range(n), repeat=m)
                               if all((t[later], t[earlier]) in pairs
                                      for later in range(m) for earlier in range(later)
                                      if not adjacent or earlier == later - 1)}
                    assert o.o_threads(n, pairs, m, adjacent) == literal


class TestThreadsPropagate:
    def test_gamma_count_law(self):
        for m in range(1, 17):
            ts = tuple(iter_threads(gamma_relation(), m))
            assert len(ts) == m + 1

    def test_gamma_ten_steps_against_naive(self):
        assert tuple(iter_threads(gamma_relation(), 10)) == naive(gamma_relation(), 10)

    def test_identity_long_chain_without_blowup(self):
        ts = tuple(iter_threads(identity(3), 50))
        assert ts == (tuple([0] * 50), tuple([1] * 50), tuple([2] * 50))

    def test_t_two_steps(self, t_relation):
        assert tuple(iter_threads(t_relation, 2)) == ((0, 0), (0, 2), (1, 1), (1, 2))

    def test_lexicographic_emission(self):
        got = list(iter_threads(full_square(2), 3))
        assert got == sorted(got)

    def test_gamma_thousand_steps(self):
        ts = tuple(iter_threads(gamma_relation(), 1000))
        assert len(ts) == 1001
        assert ts[0] == (0,) * 1000 and ts[-1] == (1,) * 1000

    def test_walk_skips_dead_prefixes(self):
        # 40 layers of two points, each mapping onto every point of every
        # lower layer: a thread climbs the layers, so about 3**40 prefixes,
        # all dead before length 50, come before the one thread of the
        # self-loop at point 80
        rows = [(1 << 2 * layer) - 1 for layer in range(40) for _ in range(2)]
        f = Relation(81, tuple(rows) + (1 << 80,))
        assert count_threads(f, 40) == 2 ** 40 + 1
        assert list(iter_threads(f, 50)) == [(80,) * 50]
        assert count_threads(f, 50) == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_naive_exhaustively(self, n):
        for f in all_relations(n):
            for m in (1, 2, 3, 4):
                expected = naive(f, m)
                assert tuple(iter_threads(f, m)) == expected
                assert count_threads(f, m) == len(expected)

    def test_matches_naive_random_four_points(self):
        rng = Random(404)
        for _ in range(60):
            f = random_full_relation(4, rng)
            for m in (1, 2, 3, 4, 5):
                assert tuple(iter_threads(f, m)) == naive(f, m)

    def test_matches_oracle(self, t_relation):
        for f in [gamma_relation(), t_relation, full_square(3), inverse(t_relation)]:
            for m in (1, 2, 3, 5):
                got = set(iter_threads(f, m))
                assert got == o.o_threads(f.n, o.pairs_of(f), m)

    def test_non_full_relation_with_empty_row(self, t_relation):
        # row 2 of inverse(t) is empty, so no thread may place 2 last
        inv = inverse(t_relation)
        ts = tuple(iter_threads(inv, 2))
        assert ts == ((0, 0), (1, 1), (2, 0), (2, 1))
        assert ts == naive(inv, 2)


class TestCountThreads:
    def test_many_points_short_chain(self):
        # 30 points at length 2: 900 and 465 threads from a handful of states,
        # where a state per set of placed points would reach 2**30 of them
        everything = [(a, b) for a in range(30) for b in range(30)]
        assert count_threads(full_square(30), 2) == 900
        assert list(iter_threads(full_square(30), 2)) == everything
        order = Relation(30, tuple((1 << (x + 1)) - 1 for x in range(30)))
        assert count_threads(order, 2) == 465
        assert list(iter_threads(order, 2)) == [(a, b) for a, b in everything if a <= b]

    def test_rejects_length_past_the_cap(self):
        too_long = mahavier.MAX_LENGTH + 1
        with pytest.raises(ValueError, match="exceeds the cap"):
            count_threads(gamma_relation(), too_long)
        with pytest.raises(ValueError, match="exceeds the cap"):
            next(iter_threads(gamma_relation(), too_long))

    def test_gamma_count_law_long_chains(self):
        for m in (1, 2, 500, 100_000):
            assert count_threads(gamma_relation(), m) == m + 1

    def test_full_square_counts_every_tuple(self):
        assert count_threads(full_square(3), 200) == 3 ** 200

    def test_rejects_bad_length(self):
        # an int only: True is no length 1, and 2.0 and "3" are no lengths
        for m, message in [(0, "positive"), (True, "bool"), (2.0, "float"), ("3", "str")]:
            with pytest.raises(ValueError, match=message):
                count_threads(gamma_relation(), m)
            with pytest.raises(ValueError, match=message):
                next(iter_threads(gamma_relation(), m))


class TestIndexedStates:
    """The numbered state graph of ``mahavier._moves`` and its two walks."""

    def test_wide_masks_match_the_oracle(self):
        # on 9-12 points the states pass 255, past the byte table
        rng = Random(919)
        for _ in range(12):
            n, density = rng.randint(9, 12), rng.choice([0.3, 0.6, 0.9])
            f = Relation.from_pairs(n, [(x, y) for x in range(n) for y in range(n)
                                        if rng.random() < density])
            for m in (2, 3, 4):
                expected = naive(f, m)
                assert count_threads(f, m) == len(expected)
                assert tuple(iter_threads(f, m)) == expected

    def test_discovery_stops_at_closure(self):
        for f in (gamma_relation(), identity(1)):
            graph = mahavier._moves(f, mahavier.MAX_LENGTH)
            assert graph == mahavier._moves(f, 3)
            assert graph[0] and all(graph)

    def test_last_round_moves_lead_to_the_empty_state(self):
        # at length 1 the start of the 30-point linear order is the last round:
        # its 30 moves all reach the one empty state, not the 30 up-sets
        order = Relation(30, tuple((1 << (x + 1)) - 1 for x in range(30)))
        graph = mahavier._moves(order, 1)
        assert graph == [[(v, 1) for v in range(30)], []]
        assert count_threads(order, 1) == 30

    def test_moves_stay_or_lead_to_fewer_moves(self):
        # iter_threads ranks the states in one pass by move count, which
        # reaches every next state first only if this holds
        layers = [(1 << 2 * layer) - 1 for layer in range(40) for _ in range(2)]
        graphs = [mahavier._moves(f, m) for n in (1, 2, 3) for f in all_relations(n)
                  for m in range(1, 7)]
        graphs.append(mahavier._moves(Relation(81, tuple(layers) + (1 << 80,)), 50))
        assert len(graphs) == 3181
        for graph in graphs:
            for s, out in enumerate(graph):
                assert all(nxt == s or len(graph[nxt]) < len(out) for _, nxt in out)


class TestMoveBudget:
    """``mahavier._moves`` stores at most ``MAX_MOVES`` moves."""

    def test_longest_length_under_the_budget_counts(self):
        # every pair but the diagonal on 30 points, as in the golden case
        # mahavier-move-budget, which is rejected at length 6 and past it:
        # the states after m coordinates are the sets missing at most m
        # points, and a thread is a tuple of distinct points
        nodiag = Relation(30, tuple(((1 << 30) - 1) & ~(1 << x) for x in range(30)))
        assert count_threads(nodiag, 5) == 30 * 29 * 28 * 27 * 26 == 17_100_720

    def test_budget_is_exact(self, monkeypatch):
        # gamma at length 2 stores 3 moves: two from the start, one from {0}
        monkeypatch.setattr(mahavier, "MAX_MOVES", 3)
        assert count_threads(gamma_relation(), 2) == 3
        assert list(iter_threads(gamma_relation(), 2)) == [(0, 0), (1, 0), (1, 1)]
        monkeypatch.setattr(mahavier, "MAX_MOVES", 2)
        message = "chain length 2 needs more moves than the budget 2"
        with pytest.raises(ValueError, match=message):
            count_threads(gamma_relation(), 2)
        with pytest.raises(ValueError, match=message):
            next(iter_threads(gamma_relation(), 2))

    def test_bad_length_is_reported_before_the_budget(self, monkeypatch):
        monkeypatch.setattr(mahavier, "MAX_MOVES", 0)
        for m, message in [(0, "positive"), (2.0, "float"), (mahavier.MAX_LENGTH + 1, "exceeds the cap")]:
            with pytest.raises(ValueError, match=message):
                count_threads(gamma_relation(), m)
            with pytest.raises(ValueError, match=message):
                next(iter_threads(gamma_relation(), m))


class TestAdjacentVersusAllPairs:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_coincide_for_idempotent(self, n):
        # every idempotent relation is transitive, and transitivity alone
        # makes the adjacent pairs imply all the others: the engine's threads
        # are the classical adjacent-condition ones
        transitive = [f for f in all_relations(n) if is_transitive(f)]
        assert len(transitive) == [1, 2, 13, 171, 3994][n]  # OEIS A006905
        for f in transitive:
            for m in (1, 2, 3, 5):
                assert tuple(iter_threads(f, m)) == naive(f, m, adjacent_only=True)

    def test_naive_supports_both(self, swap):
        # alternating tuples satisfy the adjacent condition but not the
        # all-pairs one
        assert naive(swap, 3, adjacent_only=True) == ((0, 1, 0), (1, 0, 1))
        assert naive(swap, 3) == ()


class TestProjection:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dropping_last_coordinate_lands_in_shorter_threads(self, n):
        for f in full_relations(n):
            for m in (2, 3, 4, 5):
                shorter = set(iter_threads(f, m - 1))
                assert {t[:-1] for t in iter_threads(f, m)} <= shorter

    def test_projection_not_onto_even_when_idempotent(self, t_relation):
        # (0, 2) is a thread of length 2 but nothing maps onto 2, so it
        # never extends: the projection is a proper subset here
        assert is_idempotent(t_relation)
        projected = {t[:-1] for t in iter_threads(t_relation, 3)}
        shorter = set(iter_threads(t_relation, 2))
        assert (0, 2) in shorter
        assert (0, 2) not in projected
        assert projected < shorter


class TestOrderProfile:
    def test_gamma_is_a_chain(self):
        ts = tuple(iter_threads(gamma_relation(), 3))
        assert is_coordinatewise_chain(ts) is True
        assert len(ts) == 4

    def test_identity_constants_are_a_chain(self):
        ts = tuple(iter_threads(identity(2), 2))
        assert is_coordinatewise_chain(ts) is True
        assert len(ts) == 2

    def test_full_square_is_not(self):
        ts = tuple(iter_threads(full_square(2), 2))
        assert is_coordinatewise_chain(ts) is False
        assert len(ts) == 4

    def test_gamma_chain_for_all_lengths(self):
        for m in range(1, 17):
            ts = tuple(iter_threads(gamma_relation(), m))
            assert is_coordinatewise_chain(ts) and len(ts) == m + 1

    def test_agrees_with_all_pairs_comparison(self):
        for f in [gamma_relation(), full_square(2), identity(3)]:
            ts = tuple(iter_threads(f, 3))
            naive_chain = all(
                all(x <= y for x, y in zip(a, b)) or all(x >= y for x, y in zip(a, b))
                for a in ts
                for b in ts
            )
            assert is_coordinatewise_chain(ts) == naive_chain

    def test_takes_threads_in_any_order(self):
        gamma = naive(gamma_relation(), 4)
        assert is_coordinatewise_chain(reversed(gamma)) is True
        assert is_coordinatewise_chain(iter_threads(gamma_relation(), 4)) is True
        assert is_coordinatewise_chain(reversed(naive(full_square(2), 2))) is False
        assert is_coordinatewise_chain(()) is True
