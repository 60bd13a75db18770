import itertools

import pytest
from hypothesis import given, settings

import oracles as o
from finrel import (
    PreconditionError,
    Relation,
    all_relations,
    apply_permutation,
    compose,
    full_relations,
    gamma_relation,
    identity,
    image,
    inverse,
    is_full,
    is_idempotent,
    is_single_valued,
    is_surjective,
    is_trivial,
    nontriviality_witness,
    properties,
    restrict,
    satisfies_gamma,
    two_point_witness,
)
from strategies import relation_pairs, relation_triples, relation_with_permutation, relations


def full_square(n):
    return Relation(n, tuple((1 << n) - 1 for _ in range(n)))


class TestRelationType:
    def test_rejects_empty_carrier(self):
        with pytest.raises(ValueError, match="nonempty"):
            Relation(0, ())

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValueError):
            Relation(2, (1,))

    def test_rejects_out_of_range_rows(self):
        with pytest.raises(ValueError):
            Relation(2, (1, 4))
        with pytest.raises(ValueError):
            Relation(2, (1, -1))

    def test_from_pairs_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Relation.from_pairs(2, [(0, 2)])

    def test_pairs_round_trip(self, t_relation):
        assert Relation.from_pairs(3, t_relation.pairs()) == t_relation
        assert t_relation.pairs() == [(0, 0), (1, 1), (2, 0), (2, 1)]

    def test_membership(self, t_relation):
        assert (2, 0) in t_relation
        assert (0, 2) not in t_relation
        assert (9, 9) not in t_relation

    def test_successors_sorted(self, t_relation):
        assert t_relation.successors(2) == (0, 1)

    def test_hashable_value_semantics(self):
        assert {gamma_relation(), gamma_relation()} == {gamma_relation()}


class TestIdentity:
    def test_smallest(self):
        assert identity(1).pairs() == [(0, 0)]

    def test_three_points(self):
        assert identity(3).pairs() == [(0, 0), (1, 1), (2, 2)]

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_profile(self, n):
        p = properties(identity(n))
        assert p.full and p.idempotent and p.surjective and p.single_valued
        assert p.trivial is True
        assert p.gamma_witness is None and p.two_point_witness is None


class TestCompose:
    @pytest.mark.parametrize("rows", [(1, 2), (3, 3), (2, 1), (3, 1)])
    def test_identity_laws(self, rows):
        f = Relation(2, rows)
        i = identity(2)
        assert compose(i, f) == f
        assert compose(f, i) == f

    def test_square_of_t_is_t(self, t_relation):
        assert compose(t_relation, t_relation) == t_relation

    def test_square_of_swap_is_identity(self, swap):
        assert compose(swap, swap) == identity(2)
        assert compose(swap, swap) != swap

    def test_carrier_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            compose(identity(2), identity(3))

    def test_argument_order(self):
        # result(x) = second[first(x)]
        f = Relation.from_pairs(2, [(0, 1), (1, 1)])
        g = Relation.from_pairs(2, [(0, 0), (1, 0)])
        assert compose(f, g).pairs() == [(0, 0), (1, 0)]

    @given(relation_pairs(max_n=5))
    def test_matches_oracle(self, fg):
        f, g = fg
        assert o.pairs_of(compose(f, g)) == o.o_compose(o.pairs_of(f), o.pairs_of(g))

    @given(relation_triples())
    @settings(max_examples=60)
    def test_associative(self, fgh):
        f, g, h = fgh
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


class TestInverse:
    def test_gamma_transpose(self):
        assert inverse(gamma_relation()).pairs() == [(0, 0), (1, 0), (1, 1)]

    def test_t_transpose_not_full(self, t_relation):
        inv = inverse(t_relation)
        assert inv.pairs() == [(0, 0), (0, 2), (1, 1), (1, 2)]
        assert inv.rows[2] == 0
        assert not is_full(inv)

    def test_identity_symmetric(self):
        assert inverse(identity(4)) == identity(4)

    @given(relations())
    def test_involution(self, f):
        assert inverse(inverse(f)) == f

    @given(relation_pairs())
    def test_antidistributes_over_compose(self, fg):
        f, g = fg
        assert compose(inverse(g), inverse(f)) == inverse(compose(f, g))


class TestImage:
    def test_t_from_two(self, t_relation):
        assert image(t_relation, {2}) == {0, 1}

    def test_empty_set(self, t_relation):
        assert image(t_relation, set()) == frozenset()

    def test_gamma_whole(self):
        assert image(gamma_relation(), {0, 1}) == {0, 1}

    def test_singleton_matches_row(self, t_relation):
        for x in range(3):
            assert image(t_relation, {x}) == set(t_relation.successors(x))

    def test_out_of_range(self, t_relation):
        with pytest.raises(ValueError, match="out of range"):
            image(t_relation, {3})


class TestRestrict:
    def test_t_to_its_range_is_identity_there(self, t_relation):
        assert restrict(t_relation, {0, 1}) == restrict(identity(3), {0, 1})

    def test_whole_carrier_is_noop(self, t_relation):
        assert restrict(t_relation, range(3)) == t_relation

    def test_gamma_to_one(self):
        assert restrict(gamma_relation(), {1}).pairs() == [(1, 1)]

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            restrict(gamma_relation(), {2})


class TestPredicates:
    def test_full(self, t_relation):
        assert is_full(t_relation)
        assert not is_full(inverse(t_relation))
        assert is_full(identity(4))

    def test_idempotent(self, t_relation, swap):
        assert is_idempotent(t_relation)
        assert is_idempotent(gamma_relation())
        assert not is_idempotent(swap)

    def test_surjective(self, t_relation):
        assert not is_surjective(t_relation)
        assert is_surjective(identity(3))
        assert is_surjective(gamma_relation())

    def test_single_valued(self, t_relation):
        assert is_single_valued(identity(3))
        assert not is_single_valued(t_relation)
        assert not is_single_valued(full_square(2))

    def test_trivial(self, t_relation):
        assert is_trivial(t_relation)
        assert is_trivial(identity(5))
        assert not is_trivial(gamma_relation())
        assert nontriviality_witness(gamma_relation()) == (0, 0)

    def test_trivial_requires_full(self, t_relation):
        with pytest.raises(PreconditionError, match="full"):
            is_trivial(inverse(t_relation))

    def test_gamma_pattern(self, t_relation):
        assert satisfies_gamma(gamma_relation()) == (0, 1)
        assert satisfies_gamma(t_relation) is None
        assert satisfies_gamma(identity(4)) is None

    def test_two_point(self, t_relation):
        assert two_point_witness(gamma_relation()) == (0, 1)
        assert two_point_witness(t_relation) is None
        assert two_point_witness(full_square(2)) == (0, 1)

    def test_witnesses_validate(self):
        f = full_square(3)
        x, y = satisfies_gamma(f)
        assert x != y and f.has(x, x) and f.has(x, y) and f.has(y, y)
        x, a = nontriviality_witness(f)
        assert f.has(x, a) and set(f.successors(a)) != {a}


class TestApplyPermutation:
    def test_identity_permutation(self, t_relation):
        assert apply_permutation(t_relation, [0, 1, 2]) == t_relation

    def test_gamma_swap_is_inverse(self):
        g = gamma_relation()
        assert apply_permutation(g, [1, 0]) == inverse(g)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            apply_permutation(gamma_relation(), [0, 0])

    @given(relation_with_permutation())
    def test_profile_invariant(self, fp):
        f, perm = fp
        a, b = properties(f), properties(apply_permutation(f, perm))
        assert (a.full, a.idempotent, a.surjective, a.single_valued, a.trivial) == (
            b.full, b.idempotent, b.surjective, b.single_valued, b.trivial)
        assert (a.gamma_witness is None) == (b.gamma_witness is None)
        assert (a.two_point_witness is None) == (b.two_point_witness is None)


class TestSquaringCommutesWithInversion:
    def test_exhaustive_small(self):
        for n in (1, 2, 3):
            for f in all_relations(n):
                inv = inverse(f)
                assert compose(inv, inv) == inverse(compose(f, f))

    @given(relations(max_n=8))
    def test_random(self, f):
        inv = inverse(f)
        assert compose(inv, inv) == inverse(compose(f, f))

    @given(relations(max_n=8))
    def test_inverse_preserves_idempotence(self, f):
        if is_idempotent(f):
            assert is_idempotent(inverse(f))


class TestAgainstOracleExhaustively:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_full_relations(self, n):
        for f in full_relations(n):
            pairs = o.pairs_of(f)
            assert is_full(f) == o.o_is_full(n, pairs)
            assert is_idempotent(f) == o.o_is_idempotent(pairs)
            assert is_surjective(f) == o.o_is_surjective(n, pairs)
            assert is_single_valued(f) == o.o_is_single_valued(n, pairs)
            assert is_trivial(f) == o.o_is_trivial_literal(n, pairs)
            assert satisfies_gamma(f) == o.o_gamma(n, pairs)
            assert two_point_witness(f) == o.o_two_point(n, pairs)
            assert o.pairs_of(compose(f, f)) == o.o_compose(pairs, pairs)
            assert o.pairs_of(inverse(f)) == o.o_inverse(pairs)


class TestOutsideCounts:
    @pytest.mark.parametrize("n,count", [(1, 2), (2, 11), (3, 123), (4, 2360)])
    def test_idempotent_relations_are_oeis_a121337(self, n, count):
        # idempotent relations on n labeled points, empty rows allowed
        assert sum(1 for f in all_relations(n) if is_idempotent(f)) == count


class TestStructuralFacts:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gamma_implies_two_point_implies_nontrivial(self, n):
        for f in full_relations(n):
            if satisfies_gamma(f) is not None:
                assert two_point_witness(f) is not None
            if two_point_witness(f) is not None:
                assert not is_trivial(f)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_idempotent_rows_self_surjective(self, n):
        # restricting an idempotent relation to any successor set is
        # surjective onto that set
        for f in full_relations(n):
            if not is_idempotent(f):
                continue
            for x in range(n):
                succ = set(f.successors(x))
                for b in succ:
                    assert any(f.has(a, b) for a in succ)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_trivial_or_single_valued_surjections_are_identity(self, n):
        for f in full_relations(n):
            if not (is_idempotent(f) and is_surjective(f)):
                continue
            if is_trivial(f) or is_single_valued(f):
                assert f == identity(n)


class TestPropertyReport:
    def test_trivial_none_when_not_full(self, t_relation):
        p = properties(inverse(t_relation))
        assert p.full is False
        assert p.trivial is None

    def test_gamma_flag_tracks_witness(self, t_relation):
        assert properties(gamma_relation()).gamma is True
        assert properties(t_relation).gamma is False
