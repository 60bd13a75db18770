import itertools
from collections import Counter
from random import Random

import pytest

import oracles as o
import strategies
from finrel import (
    Relation,
    SurveyReport,
    compose,
    gamma_relation,
    identity,
    inverse,
    is_full,
    is_idempotent,
    is_trivial,
    satisfies_gamma,
    survey,
)
from finrel.census import COUNTS, _full_classes, _idempotent_relations, _is_canonical
from finrel.core import _compose_rows, _inverse_rows
from strategies import (
    full_relations,
    idempotent_power,
    idempotent_relations,
    random_full_relation,
    random_idempotent,
    relabel,
)
from test_io_cli import run_cli


def heads_ascend(f):
    """Whether f's points ascend by (reflexive, out-degree)."""
    heads = [(f.has(x, x), row.bit_count()) for x, row in enumerate(f.rows)]
    return heads == sorted(heads)


class TestFullEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 9), (3, 343)])
    def test_counts(self, n, count):
        assert sum(1 for _ in full_relations(n)) == count

    def test_odometer_order(self):
        stream = list(full_relations(2))
        assert stream[0].rows == (1, 1)
        assert stream[-1].rows == (3, 3)
        expected = list(itertools.product(range(1, 4), repeat=2))
        assert [f.rows for f in stream] == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_no_duplicates(self, n):
        seen = {f.rows for f in full_relations(n)}
        assert len(seen) == ((1 << n) - 1) ** n

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_oracle_enumeration(self, n):
        ours = {o.pairs_of(f) for f in full_relations(n)}
        theirs = set(o.o_all_full_relations(n))
        assert ours == theirs

    def test_everything_is_full(self):
        assert all(is_full(f) for f in full_relations(3))

    def test_cap(self):
        with pytest.raises(ValueError, match="outside"):
            next(full_relations(6))
        with pytest.raises(ValueError):
            next(full_relations(0))


class TestIdempotentEnumeration:
    def test_two_points_exact_list(self):
        got = [f.pairs() for f in idempotent_relations(2)]
        assert got == [
            [(0, 0), (1, 0)],
            [(0, 0), (1, 1)],
            [(0, 0), (1, 0), (1, 1)],
            [(0, 1), (1, 1)],
            [(0, 0), (0, 1), (1, 1)],
            [(0, 0), (0, 1), (1, 0), (1, 1)],
        ]

    def test_one_point_is_just_the_identity(self):
        assert list(idempotent_relations(1)) == [identity(1)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_count_matches_oracle(self, n):
        ours = sum(1 for _ in idempotent_relations(n))
        theirs = sum(1 for f in o.o_all_full_relations(n) if o.o_is_idempotent(f))
        assert ours == theirs

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_is_the_filtered_full_stream_in_order(self, n):
        expected = [f for f in full_relations(n) if is_idempotent(f)]
        assert list(idempotent_relations(n)) == expected

    @pytest.mark.parametrize("n,leaves", [(1, 1), (2, 4), (3, 18), (4, 112), (5, 920)])
    def test_ascending_heads_prune_to_the_filtered_stream_in_order(self, n, leaves):
        pruned = [Relation(n, rows) for rows, _ in _idempotent_relations(n, ascending=True)]
        assert pruned == [f for f in idempotent_relations(n) if heads_ascend(f)]
        assert len(pruned) == leaves

    @pytest.mark.parametrize("ascending", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_carries_the_transpose_of_each_relation(self, n, ascending):
        # against the oracle: _inverse_rows reads the same _SPREAD table as the census
        for rows, inv in _idempotent_relations(n, ascending):
            assert type(rows) is tuple and type(inv) is list
            assert inv == o.o_rows(n, o.o_inverse(o.pairs_of(Relation(n, rows))))

    def test_five_points_are_the_filtered_full_stream_in_order(self):
        # the rows strictly ascend, so they are distinct and in odometer order;
        # each is full and idempotent; and there are I(5) of them, counted by
        # the oracle's structure: so this is the filtered full stream, in order
        stream = list(_idempotent_relations(5, ascending=False))
        assert len(stream) == o.o_idempotent_count(5) == 33052
        assert all(a < b for (a, _), (b, _) in zip(stream, stream[1:]))
        for rows, inv in stream:
            assert len(rows) == 5 and all(0 < row < 32 for row in rows)
            assert _compose_rows(rows, rows) == list(rows)
            assert inv == o.o_rows(5, o.o_inverse(o.pairs_of(Relation(5, rows))))


def oracle_stream(n, prefix=()):
    """The rows of every idempotent full relation beginning with ``prefix``,
    ascending, from the oracle's filter of every full relation."""
    rows = (tuple(o.o_rows(n, f)) for f in o.o_all_full_relations(n))
    return sorted(r for r in rows if r[:len(prefix)] == prefix
                  and o.o_is_idempotent(o.pairs_of(Relation(n, r))))


def backtracker_stream(n, prefix=()):
    return [rows for rows, _ in _idempotent_relations(n, False) if rows[:len(prefix)] == prefix]


class TestLastRow:
    """The backtracker solves the last row from rows 0..n-2 instead of trying
    every candidate.  Each way that step goes is pinned to the oracle's filter
    of every full relation: n=1, with no prefix; a dead prefix, which no last
    row makes idempotent; a need outside the cap; and a need inside it."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_prefix_matches_the_oracle(self, n):
        assert backtracker_stream(n) == oracle_stream(n)

    def test_one_point_has_no_prefix(self):
        for ascending in (False, True):
            assert list(_idempotent_relations(1, ascending)) == [((1,), [1])]
        assert oracle_stream(1) == [(1,)]

    def test_a_dead_prefix_yields_no_last_row(self):
        # rows 0 and 1 are {0}; row 2 = {0, 1} lacks point 3, and its square
        # is {0} whatever row 3 is.  The prefix is transitive, so the
        # backtracker reaches the last row with it.
        n, prefix = 4, (1, 1, 3)
        rows = [prefix + (w,) for w in range(1, 16)]
        assert any(o.o_compose(f, f) <= f for f in (o.pairs_of(Relation(n, r)) for r in rows))
        assert backtracker_stream(n, prefix) == oracle_stream(n, prefix) == []

    def test_a_need_outside_the_cap_yields_no_last_row(self):
        # row 0 = {2} caps the last row at {2}, but row 1 = {0, 2} reaches 0
        # only through point 2, so the last row would need point 0
        n, prefix = 3, (4, 5)
        rows = [prefix + (w,) for w in range(1, 8)]
        assert any(o.o_compose(f, f) <= f for f in (o.pairs_of(Relation(n, r)) for r in rows))
        assert backtracker_stream(n, prefix) == oracle_stream(n, prefix) == []

    def test_a_need_inside_the_cap_is_held_by_every_last_row(self):
        # row 0 = {0} and row 1 = {0, 2} cap the last row at {0, 2}; row 1
        # reaches 2 only through point 2 itself, so every last row holds 2
        n, prefix = 3, (1, 5)
        stream = backtracker_stream(n, prefix)
        assert stream == oracle_stream(n, prefix) == [(1, 5, 4), (1, 5, 5)]


def is_canonical(f):
    return _is_canonical(f.rows, _inverse_rows(f.rows))


def orbit(f):
    """The packed rows of every relabeling of f, through the pair-set ``relabel``."""
    return frozenset(relabel(f, perm).rows for perm in itertools.permutations(range(f.n)))


class TestCanonicalForm:
    """The census's iso filter ``_is_canonical``, which accepts exactly the
    relations that are their own canonical form: the least relabeling, by
    packed rows, among those whose points ascend by (reflexive, out-degree,
    in-degree)."""

    def test_identity_fixed(self):
        assert is_canonical(identity(4))

    def test_gamma_and_its_inverse_agree(self):
        # isomorphic by the swap: exactly one passes, the representative of both
        g = gamma_relation()
        reps = {o.o_canonical_rows(2, o.pairs_of(h)) for h in (g, inverse(g))}
        assert [h.rows for h in (g, inverse(g)) if is_canonical(h)] == list(reps)

    def test_random_relabelings_agree(self):
        # every relabeling of f has the same representative: one per orbit passes
        rng = Random(7)
        for _ in range(300):
            f = random_full_relation(5, rng)
            passing = [rows for rows in orbit(f) if is_canonical(Relation(5, rows))]
            assert len(passing) == 1

    def test_canonical_is_minimal(self):
        # the least relabeling whose points ascend by (reflexive, |f(x)|, |f^-1(x)|)
        f = Relation.from_pairs(3, [(0, 0), (1, 1), (2, 0), (2, 1)])
        forms = []
        for perm in itertools.permutations(range(3)):
            g = relabel(f, perm)
            keys = [(g.has(x, x), row.bit_count(), col.bit_count())
                    for x, (row, col) in enumerate(zip(g.rows, inverse(g).rows))]
            if keys == sorted(keys):
                forms.append(g.rows)
        assert min(forms) == (6, 2, 4)
        assert [rows for rows in orbit(f) if is_canonical(Relation(3, rows))] == [(6, 2, 4)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_the_oracle_on_every_full_relation(self, n):
        for f in full_relations(n):
            accepted = _is_canonical(f.rows, _inverse_rows(f.rows))
            assert accepted == (f.rows == o.o_canonical_rows(n, o.pairs_of(f)))

    def test_matches_the_oracle_on_the_four_point_idempotents(self):
        for rows, inv in _idempotent_relations(4, ascending=False):
            accepted = _is_canonical(rows, inv)
            assert accepted == (rows == o.o_canonical_rows(4, o.pairs_of(Relation(4, rows))))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_census_filter_is_canonical_form_fixing_f(self, n):
        # one member of every orbit passes: the orbits of the accepted
        # relations are disjoint and cover every full relation
        accepted = [f for f in full_relations(n)
                    if _is_canonical(f.rows, _inverse_rows(f.rows))]
        orbits = {orbit(f) for f in accepted}
        assert len(orbits) == len(accepted) == _full_classes(n)
        assert frozenset().union(*orbits) == {f.rows for f in full_relations(n)}

    @pytest.mark.parametrize("stream", [
        lambda: full_relations(3),
        lambda: idempotent_relations(4),
    ], ids=["full-3", "idempotent-4"])
    def test_census_filter_accepts_one_member_per_class(self, stream):
        accepted = Counter()
        for f in stream():
            accepted[min(orbit(f))] += _is_canonical(f.rows, _inverse_rows(f.rows))
        assert set(accepted.values()) == {1}

    @pytest.mark.parametrize("n,classes", [(4, 80), (5, 485)])
    def test_census_filter_on_the_pruned_stream_loses_no_class(self, n, classes):
        accepted = Counter()
        for rows, inv in _idempotent_relations(n, ascending=True):
            accepted[min(orbit(Relation(n, rows)))] += _is_canonical(rows, inv)
        assert set(accepted.values()) == {1}
        unpruned = sum(_is_canonical(rows, inv)
                       for rows, inv in _idempotent_relations(n, ascending=False))
        assert len(accepted) == unpruned == classes


class TestIdempotentPower:
    def test_fixed_point_of_idempotent(self, t_relation):
        assert idempotent_power(t_relation) == t_relation

    def test_swap_collapses_to_identity(self, swap):
        assert idempotent_power(swap) == identity(2)

    def test_always_idempotent_and_full(self):
        rng = Random(99)
        for _ in range(500):
            n = rng.randint(1, 8)
            g = idempotent_power(random_full_relation(n, rng))
            assert is_idempotent(g) and is_full(g)

    def test_a_power_cycle_without_an_idempotent_raises(self, monkeypatch, swap):
        # a broken compose that bounces between two relations, neither idempotent
        other = Relation(2, (0b10, 0b11))
        assert not is_idempotent(swap) and not is_idempotent(other)
        monkeypatch.setattr(strategies, "compose", lambda g, f: other if g == swap else swap)
        with pytest.raises(AssertionError, match="cycle without an idempotent"):
            idempotent_power(swap)

    def test_random_idempotent_sampler(self):
        rng = Random(5)
        for _ in range(200):
            f = random_idempotent(rng.randint(1, 6), rng)
            assert is_idempotent(f) and is_full(f)

    @staticmethod
    def assert_the_only_idempotent_power(f):
        # the powers f, f^2, ... as pair sets, up to the first repeat
        powers, g = [], o.pairs_of(f)
        while g not in powers:
            powers.append(g)
            g = o.o_compose(g, o.pairs_of(f))
        idempotents = [p for p in powers if o.o_is_idempotent(p)]
        assert idempotents == [o.pairs_of(idempotent_power(f))]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_the_power_walk_on_every_full_relation(self, n):
        for f in full_relations(n):
            self.assert_the_only_idempotent_power(f)

    def test_matches_the_power_walk_on_random_relations(self):
        rng = Random(31)
        for _ in range(300):
            self.assert_the_only_idempotent_power(random_full_relation(rng.randint(1, 6), rng))


class TestFastIdempotenceKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_with_packed_filter(self, n):
        enumerated = [f.rows for f in idempotent_relations(n)]
        for r0 in range(1, 1 << n):
            from_kernel = [rows for rows in enumerated if rows[0] == r0]
            reference = [
                (r0,) + rest
                for rest in itertools.product(range(1, 1 << n), repeat=n - 1)
                if is_idempotent(Relation(n, (r0,) + rest))
            ]
            assert from_kernel == reference


class TestSurvey:
    def test_single_point(self):
        r = survey(1)
        assert (r.full, r.idempotent_full, r.nontrivial_idempotent, r.trivial_idempotent,
                r.gamma_idempotent, r.surjective_idempotent, r.identity_count) == (1, 1, 0, 1, 0, 1, 1)
        assert r.counterexamples == ()

    def test_two_points_exact(self):
        r = survey(2)
        assert r.full == 9
        assert r.idempotent_full == 6
        assert r.nontrivial_idempotent == 3
        assert r.trivial_idempotent == 3
        assert r.gamma_idempotent == 3
        assert r.surjective_idempotent == 4
        assert r.identity_count == 1
        assert r.counterexamples == ()

    def test_three_points_against_oracle(self):
        r = survey(3)
        assert r.counterexamples == ()
        idem = [f for f in o.o_all_full_relations(3) if o.o_is_idempotent(f)]
        trivial = [f for f in idem if o.o_is_trivial_literal(3, f)]
        gammas = [f for f in idem if o.o_gamma(3, f) is not None]
        assert r.full == 343
        assert r.idempotent_full == len(idem)
        assert r.trivial_idempotent == len(trivial)
        assert r.nontrivial_idempotent == len(idem) - len(trivial)
        assert r.gamma_idempotent == len(gammas)
        assert r.surjective_idempotent == sum(1 for f in idem if o.o_is_surjective(3, f))

    def test_gamma_count_equals_nontrivial(self):
        for n in (1, 2, 3, 4):
            r = survey(n)
            assert r.gamma_idempotent == r.nontrivial_idempotent
            assert r.counterexamples == ()

    def test_counts_are_the_count_fields_in_order(self):
        names = list(SurveyReport._fields)
        assert list(COUNTS) == names[names.index("full"):names.index("counterexamples")]

    def test_report_counts_every_reported_counterexample(self):
        r = survey(1)
        assert r.counterexample_total == 0
        forced = ({"n": 1, "pairs": [], "reason": "forced"},)
        with pytest.raises(AssertionError, match="more counterexample reports"):
            SurveyReport(*r[:9], forced, r.counterexample_total, r.elapsed)

    @pytest.mark.parametrize("n", [3, 4])
    def test_worker_invariance(self, n, capsys):
        for fmt in ([], ["--json"]):
            lone = run_cli(capsys, "survey", "--n", str(n), "--workers", "1", *fmt)
            crowd = run_cli(capsys, "survey", "--n", str(n), "--workers", "4", *fmt)
            assert lone[0] == 0 and lone[1]
            assert crowd[:2] == lone[:2]

    def test_witness_preconditions_are_not_decided_again(self, monkeypatch):
        import finrel.witness as witness_mod
        calls = []
        # the census reaches _nontriviality through its own binding, not this one
        for name in ("is_full", "is_idempotent", "_nontriviality"):
            real = getattr(witness_mod, name)
            monkeypatch.setattr(witness_mod, name,
                                lambda f, name=name, real=real: calls.append(name) or real(f))
        r = survey(3)
        assert r.nontrivial_idempotent > 0 and r.counterexamples == ()
        assert calls == []

    def test_deterministic(self):
        a = survey(2)
        b = survey(2)
        assert a._replace(elapsed=0.0) == b._replace(elapsed=0.0)

    def test_caps(self):
        with pytest.raises(ValueError, match="outside"):
            survey(6)
        with pytest.raises(ValueError, match="outside"):
            survey(6, mode="up_to_iso")
        with pytest.raises(ValueError, match="mode"):
            survey(2, mode="everything")
        # an int only: True is no carrier of one point
        for n in (True, 2.0, "3"):
            with pytest.raises(ValueError, match=type(n).__name__):
                survey(n)


def _orbit_size(f: Relation) -> int:
    n = f.n
    aut = sum(
        1 for perm in itertools.permutations(range(n))
        if relabel(f, perm) == f
    )
    total = 1
    for k in range(2, n + 1):
        total *= k
    return total // aut


def _burnside_by_subsets(n: int) -> int:
    # a relation fixed by sigma is one row per cycle C, chosen among the
    # nonempty sets that sigma^|C| maps onto themselves, counted here one by one
    perms = list(itertools.permutations(range(n)))
    subsets = [{y for y in range(n) if (s >> y) & 1} for s in range(1, 1 << n)]
    total = 0
    for perm in perms:
        fixed, seen = 1, set()
        for x in range(n):
            if x in seen:
                continue
            cycle = [x]
            while perm[cycle[-1]] != x:
                cycle.append(perm[cycle[-1]])
            seen.update(cycle)
            power = list(range(n))
            for _ in cycle:
                power = [perm[p] for p in power]
            fixed *= sum(1 for s in subsets if {power[y] for y in s} == s)
        total += fixed
    return total // len(perms)


class TestIdempotentStructure:
    """The census counts against the structure of idempotent relations.

    Decomposing maps each idempotent full relation to one valid choice of
    (P, le, A, B) and rebuilding undoes it, so the count of valid choices,
    I(n), is at least the number of idempotent relations, with equality
    exactly when every valid choice rebuilds an idempotent relation.
    """

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_preorders_from_partitions_are_the_filtered_pair_sets(self, k):
        # every reflexive pair set closed under composition, by brute force
        diagonal = o.o_identity(k)
        off = [(x, y) for x in range(k) for y in range(k) if x != y]
        filtered = set()
        for keep in itertools.product((False, True), repeat=len(off)):
            le = diagonal | {p for p, kept in zip(off, keep) if kept}
            if o.o_compose(le, le) <= le:
                filtered.add(le)
        built = list(o.o_preorders(k))
        assert len(built) == len(set(built))  # each preorder once
        assert set(built) == filtered

    def test_partial_orders_are_oeis_a001035(self):
        counts = [sum(1 for _ in o.o_partial_orders(m)) for m in range(6)]
        assert counts == [1, 1, 3, 19, 219, 4231]

    @pytest.mark.parametrize("n,idempotent,trivial", [
        (1, 1, 1), (2, 6, 3), (3, 62, 13), (4, 1123, 87), (5, 33052, 841)])
    def test_census_counts_equal_the_closed_forms(self, n, idempotent, trivial):
        assert (o.o_idempotent_count(n), o.o_trivial_count(n)) == (idempotent, trivial)
        r = survey(n)
        assert (r.idempotent_full, r.trivial_idempotent) == (idempotent, trivial)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_idempotent_relation_rebuilds_from_its_parts(self, n):
        for g in idempotent_relations(n):
            f = o.pairs_of(g)
            reflexive, le, up, down = o.o_decompose(n, f)
            assert o.o_compose(le, le) == le  # a preorder: le holds every (p, p)
            for x in up:
                a, b = up[x], down[x]
                assert a and not a & b
                assert all(q in a for p, q in le if p in a)
                assert all(p in b for p, q in le if q in b)
                assert all((p, q) in le for p in b for q in a)
            assert o.o_recompose(n, reflexive, le, up, down) == f
            # nontrivial exactly when the preorder has a pair off its diagonal
            assert is_trivial(g) == (len(le) == len(reflexive))

    def test_four_point_surjections_and_identities(self):
        idem = [f for f in o.o_all_full_relations(4) if o.o_is_idempotent(f)]
        surjective = sum(1 for f in idem if o.o_is_surjective(4, f))
        identities = sum(1 for f in idem if f == o.o_identity(4))
        assert (surjective, identities) == (559, 1)
        r = survey(4)
        assert (r.surjective_idempotent, r.identity_count) == (surjective, identities)


class TestEachHalfOfIdempotenceIsNeeded:
    """On a full relation Γ gives nontrivial, so the theorem's content is the
    converse, and it needs both halves of idempotence: f∘f ⊆ f (transitive)
    and f ⊆ f∘f.  Counted on pair sets over every full relation with n <= 4.
    """

    # (n, kind): relations / nontrivial / nontrivial without Γ
    TABLE = {
        (2, "full"): (9, 6, 3), (2, "transitive"): (6, 3, 0),
        (2, "f in f o f"): (8, 5, 2), (2, "idempotent"): (6, 3, 0),
        (3, "full"): (343, 330, 159), (3, "transitive"): (68, 55, 6),
        (3, "f in f o f"): (236, 223, 52), (3, "idempotent"): (62, 49, 0),
        (4, "full"): (50_625, 50_538, 18_219), (4, "transitive"): (1_387, 1_300, 132),
        (4, "f in f o f"): (28_023, 27_936, 3_231), (4, "idempotent"): (1_123, 1_036, 0),
    }

    def test_counts_and_least_counterexamples(self):
        table, least = {key: [0, 0, 0] for key in self.TABLE}, {}
        for n in (2, 3, 4):
            for f in o.o_all_full_relations(n):
                square = o.o_compose(f, f)
                nontrivial = not o.o_is_trivial_literal(n, f)
                gamma = o.o_gamma(n, f) is not None
                assert nontrivial or not gamma, sorted(f)  # Γ ⇒ nontrivial
                counterexample = nontrivial and not gamma
                for kind, holds in (("full", True), ("transitive", square <= f),
                                    ("f in f o f", f <= square), ("idempotent", square == f)):
                    if holds:
                        cell = table[n, kind]
                        cell[0] += 1
                        cell[1] += nontrivial
                        cell[2] += counterexample
                        if counterexample:  # least by n, then by the packed rows
                            key = (n, tuple(o.o_rows(n, f)))
                            least[kind] = min(least.get(kind, key), key)
        assert {key: tuple(cell) for key, cell in table.items()} == self.TABLE
        assert least["transitive"] == (3, (1, 1, 3))  # {(0,0), (1,0), (2,0), (2,1)}
        assert least["f in f o f"] == (2, (2, 3))  # {(0,1), (1,0), (1,1)}
        assert "idempotent" not in least


class TestSurveyUpToIso:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_burnside_class_count_matches_subset_count(self, n):
        assert _full_classes(n) == _burnside_by_subsets(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_weighted_class_counts_reproduce_all_mode(self, n):
        iso = survey(n, mode="up_to_iso")
        full_mode = survey(n, mode="all")
        assert iso.counterexamples == ()

        reps = [f for f in full_relations(n) if is_canonical(f)]
        assert iso.full == len(reps)
        weights = {f.rows: _orbit_size(f) for f in reps}

        def weighted(pred):
            return sum(weights[f.rows] for f in reps if pred(f))

        assert weighted(lambda f: True) == full_mode.full
        assert weighted(is_idempotent) == full_mode.idempotent_full
        assert (
            weighted(lambda f: is_idempotent(f) and not is_trivial(f))
            == full_mode.nontrivial_idempotent
        )
        assert (
            weighted(lambda f: is_idempotent(f) and satisfies_gamma(f) is not None)
            == full_mode.gamma_idempotent
        )

    def test_class_counts_match_rep_scan(self):
        iso = survey(3, mode="up_to_iso")
        reps = [f for f in full_relations(3) if is_canonical(f)]
        assert iso.full == len(reps)
        assert iso.idempotent_full == sum(1 for f in reps if is_idempotent(f))

    def test_four_points_clean(self):
        iso = survey(4, mode="up_to_iso")
        assert iso.counterexamples == ()
        assert iso.gamma_idempotent == iso.nontrivial_idempotent
