import copy
import gc
import itertools
import pickle
import re
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings

import finrel
import oracles as o
from finrel import (
    GammaWitness,
    PreconditionError,
    Relation,
    SurveyReport,
    compose,
    gamma_from_seed,
    gamma_relation,
    gamma_witness,
    identity,
    inverse,
    is_full,
    is_idempotent,
    is_single_valued,
    is_surjective,
    is_trivial,
    nontriviality_witness,
    parse_relation,
    properties,
    reflexive_pair_witness,
    restrict,
    satisfies_gamma,
    serialize_relation,
    two_point_witness,
)
from finrel.core import _BITS, _compose_rows, _inverse_rows, _relabel, iter_bits
from strategies import (
    all_relations,
    full_relations,
    full_square,
    idempotent_power,
    idempotent_relations,
    random_full_relation,
    relabel,
    relation_pairs,
    relation_triples,
    relation_with_permutation,
    relations,
    sparse_full_relations,
)


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

    @pytest.mark.parametrize("rows,bad", [((1.5, 2), 0), ((True, 2), 0), ((1, "1"), 1)])
    def test_rejects_rows_that_are_not_ints(self, rows, bad):
        with pytest.raises(ValueError, match=f"row {bad} is a {type(rows[bad]).__name__}"):
            Relation(2, rows)

    def test_from_pairs_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Relation.from_pairs(2, [(0, 2)])

    @pytest.mark.parametrize("n", [True, 2.0, "2"])
    def test_rejects_a_carrier_size_that_is_not_an_int(self, n):
        message = f"^carrier size n is a {type(n).__name__}, not an int$"
        with pytest.raises(ValueError, match=message):
            Relation(n, (1,) if n is True else (1, 2))
        with pytest.raises(ValueError, match=message):
            Relation.from_pairs(n, [(0, 0)])

    @pytest.mark.parametrize("pair", [(0, 1.0), (True, 0), (0, "1"), (None, 0)])
    def test_from_pairs_rejects_coordinates_that_are_not_ints(self, pair):
        message = f"pair ({pair[0]!r}, {pair[1]!r}) has a coordinate that is not an int"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Relation.from_pairs(2, [(0, 0), pair])

    def test_repr(self, t_relation):
        assert repr(t_relation) == "Relation(n=3, pairs=[(0, 0), (1, 1), (2, 0), (2, 1)])"
        assert repr(Relation(1, (0,))) == "Relation(n=1, pairs=[])"

    def test_pairs_round_trip(self, t_relation):
        assert Relation.from_pairs(3, t_relation.pairs()) == t_relation
        assert t_relation.pairs() == [(0, 0), (1, 1), (2, 0), (2, 1)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pairs_are_the_set_cells_in_order(self, n):
        for f in all_relations(n):
            assert f.pairs() == sorted(o.pairs_of(f))

    def test_membership(self, t_relation):
        assert t_relation.has(2, 0)
        assert not t_relation.has(0, 2)
        assert (2, 0) in t_relation.pairs()
        assert (9, 9) not in t_relation.pairs()

    def test_membership_outside_the_carrier_is_false(self):
        f = Relation.from_pairs(2, [(1, 0)])
        assert not f.has(-1, 0)  # not row 1 read from the end
        assert not f.has(0, -1)
        assert not f.has(2, 0)

    @pytest.mark.parametrize("x,y,bad", [(True, 0, "True is a bool"),
                                         (1, 0.0, "0.0 is a float"),
                                         (1.0, 0, "1.0 is a float")])
    def test_membership_rejects_a_point_that_is_not_an_int(self, x, y, bad):
        f = Relation.from_pairs(2, [(1, 0)])
        with pytest.raises(ValueError, match=f"^point {bad}, not an int$"):
            f.has(x, y)

    def test_hashable_value_semantics(self):
        assert {gamma_relation(), gamma_relation()} == {gamma_relation()}

    def test_immutable(self, t_relation):
        # with the remembered verdict and transpose filled in, those slots refuse too
        properties(t_relation)
        inv = inverse(t_relation)
        for name, value in (("n", 4), ("rows", (1, 2, 3)), ("extra", 0),
                            ("_idempotent", False), ("_inverse", t_relation)):
            with pytest.raises(AttributeError):
                setattr(t_relation, name, value)
            with pytest.raises(AttributeError):
                delattr(t_relation, name)
        assert (t_relation.n, t_relation.rows) == (3, (1, 2, 3))
        assert is_idempotent(t_relation) is True and inverse(t_relation) is inv

    def test_not_a_container(self, t_relation):
        with pytest.raises(TypeError):
            iter(t_relation)
        with pytest.raises(TypeError):
            len(t_relation)
        with pytest.raises(TypeError):
            (0, 0) in t_relation

    def test_equal_only_to_a_relation(self, t_relation):
        assert t_relation != (t_relation.n, t_relation.rows)
        assert t_relation == Relation(3, [1, 2, 3])
        assert t_relation != Relation(3, (1, 2, 1))
        assert hash(t_relation) == hash((3, (1, 2, 3)))

    def test_pickle_and_copy_round_trip(self, t_relation):
        # before and after the remembered facts are filled in, which stay out
        # of equality, hashing and pickling
        for fill in (False, True):
            if fill:
                properties(t_relation)
                inverse(t_relation)
            for clone in (pickle.loads(pickle.dumps(t_relation)), copy.copy(t_relation),
                          copy.deepcopy(t_relation)):
                assert type(clone) is Relation
                assert (clone.n, clone.rows) == (t_relation.n, t_relation.rows)
                assert clone == t_relation and hash(clone) == hash(t_relation)
                assert properties(clone) == properties(t_relation)
                assert inverse(clone) == inverse(t_relation)

    def test_the_transpose_holds_no_reference_back(self, t_relation):
        # no cycle, so a relation and its transpose are freed by reference counting
        inv = inverse(t_relation)
        assert not any(r is t_relation for r in gc.get_referents(inv))
        assert inverse(inv) == t_relation and inverse(inv) is not t_relation

    def test_post_init_runs_on_each_checked_construction_only(self, monkeypatch, t_relation):
        # the benchmark traces construction by rebinding this hook
        calls = []
        real = Relation.__post_init__
        monkeypatch.setattr(Relation, "__post_init__", lambda f: calls.append(f.n) or real(f))
        Relation(2, (1, 2))
        Relation.from_pairs(3, [(0, 1)])
        identity(4)
        restrict(t_relation, [0])
        pickle.loads(pickle.dumps(t_relation))
        assert calls == [2, 3, 4, 3, 3]
        compose(t_relation, t_relation)
        inverse(t_relation)
        Relation._trusted(2, (1, 2))
        for form in ("json", "matrix"):
            parse_relation(serialize_relation(t_relation, form))
        assert calls == [2, 3, 4, 3, 3]


class TestIdentity:
    def test_smallest(self):
        assert identity(1).pairs() == [(0, 0)]

    def test_three_points(self):
        assert identity(3).pairs() == [(0, 0), (1, 1), (2, 2)]

    @pytest.mark.parametrize("n", [2.0, "3", None])
    def test_carrier_must_be_an_int(self, n):
        # the same check as Relation(n, ...), before range() sees n
        with pytest.raises(ValueError, match=f"carrier size n is a {type(n).__name__}, not an int"):
            identity(n)

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

    @pytest.mark.parametrize("point", [1.0, True, "1"])
    def test_rejects_a_point_that_is_not_an_int(self, point):
        with pytest.raises(ValueError, match="not an int"):
            restrict(gamma_relation(), [point])


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
        assert f.has(x, a) and f.rows[a] != 1 << a


class TestApplyPermutation:
    """Relabeling through the pair-set helper ``strategies.relabel``."""

    def test_identity_permutation(self, t_relation):
        assert relabel(t_relation, [0, 1, 2]) == t_relation

    def test_gamma_swap_is_inverse(self):
        g = gamma_relation()
        assert relabel(g, [1, 0]) == inverse(g)

    @given(relation_with_permutation())
    def test_profile_invariant(self, fp):
        f, perm = fp
        a, b = properties(f), properties(relabel(f, perm))
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


def pairs_of_rows(n, rows):
    """The pair set of n packed rows, decoded one shift at a time."""
    assert len(rows) == n and all(0 <= row < 1 << n for row in rows)
    return frozenset((x, y) for x in range(n) for y in range(n) if (rows[x] >> y) & 1)


class TestRowKernels:
    @pytest.mark.parametrize("n", [1, 2])
    def test_compose_rows_on_every_pair(self, n):
        rels = list(all_relations(n))
        for f in rels:
            for g in rels:
                want = o.o_compose(o.pairs_of(f), o.pairs_of(g))
                assert pairs_of_rows(n, _compose_rows(f.rows, g.rows)) == want

    def test_compose_rows_on_every_square_at_three(self):
        for f in all_relations(3):
            pairs = o.pairs_of(f)
            assert pairs_of_rows(3, _compose_rows(f.rows, f.rows)) == o.o_compose(pairs, pairs)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_inverse_rows(self, n):
        for f in all_relations(n):
            assert pairs_of_rows(n, _inverse_rows(f.rows)) == o.o_inverse(o.pairs_of(f))

    @pytest.mark.parametrize("n", range(4, 9))
    def test_inverse_rows_by_table(self, n):
        # on at most 8 points the transpose ORs one _SPREAD entry per row; seeded
        # relations at every density from empty to full, against the oracle
        rng = Random(n)
        for density in [k / 8 for k in range(9)]:
            for _ in range(25):
                f = Relation(n, [sum(1 << y for y in range(n) if rng.random() < density)
                                 for _ in range(n)])
                inv = _inverse_rows(f.rows)
                assert type(inv) is list
                assert pairs_of_rows(n, inv) == o.o_inverse(o.pairs_of(f))


class TestRowsPastTheByteTable:
    """The kernels walk a row below 256 through ``_BITS`` and a wider one, on 9
    or more points, through ``iter_bits``; on 7-12 points both sides agree with
    the oracle."""

    def test_byte_table_lists_the_bits_of_every_byte(self):
        assert len(_BITS) == 256
        for r in range(256):
            assert _BITS[r] == tuple(iter_bits(r))

    @given(relation_pairs(min_n=7, max_n=12))
    @settings(max_examples=60)
    def test_compose_and_inverse_match_the_oracle(self, fg):
        f, g = fg
        fp, gp = o.pairs_of(f), o.pairs_of(g)
        assert o.pairs_of(compose(f, g)) == o.o_compose(fp, gp)
        assert o.pairs_of(inverse(f)) == o.o_inverse(fp)

    @given(relation_with_permutation(min_n=7, max_n=12))
    def test_relabel_matches_the_oracle(self, fp):
        f, perm = fp
        want = {(perm[x], perm[y]) for x, y in o.pairs_of(f)}
        assert o.pairs_of(Relation(f.n, _relabel(f.rows, perm))) == want

    @given(relations(min_n=7, max_n=12))
    def test_pairs_and_both_forms_round_trip(self, f):
        assert f.pairs() == sorted(o.pairs_of(f))
        for form in ("json", "matrix"):
            assert parse_relation(serialize_relation(f, form)) == f

    @given(sparse_full_relations(min_n=7, max_n=12), relations(min_n=7, max_n=12, full=True))
    @settings(max_examples=60)
    def test_predicates_match_the_oracle(self, f, dense):
        for g in (f, idempotent_power(f), dense):
            n, pairs = g.n, o.pairs_of(g)
            assert is_idempotent(g) == o.o_is_idempotent(pairs)
            assert is_trivial(g) == o.o_is_trivial_literal(n, pairs)
            assert satisfies_gamma(g) == o.o_gamma(n, pairs)
            # the least (x, a) in g with g(a) != {a}
            least = min(((x, a) for x, a in pairs if o.o_successors(pairs, a) != {a}),
                        default=None)
            assert nontriviality_witness(g) == least


class TestTrustedConstruction:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_trusted_sites_build_what_validation_accepts(self, n):
        for f in idempotent_relations(n):
            parsed = [parse_relation(serialize_relation(f, form)) for form in ("json", "matrix")]
            for r in (f, inverse(f), compose(f, f), *parsed):
                checked = Relation(r.n, r.rows)
                assert type(r) is Relation and (r.n, r.rows) == (checked.n, checked.rows)
                assert r == checked
                assert hash(r) == hash(checked)


class TestRememberedFacts:
    """A relation works out its idempotence verdict and its transpose once."""

    def test_each_fact_is_computed_once_per_relation(self, monkeypatch):
        calls = {"_compose_rows": 0, "_inverse_rows": 0}

        def counting(name, kernel):
            def wrapper(*args):
                calls[name] += 1
                return kernel(*args)
            return wrapper

        monkeypatch.setattr(finrel.core, "_compose_rows", counting("_compose_rows", _compose_rows))
        monkeypatch.setattr(finrel.core, "_inverse_rows", counting("_inverse_rows", _inverse_rows))
        f = Relation(3, (7, 4, 4))  # nontrivial idempotent full
        for _ in range(2):
            assert properties(f).trivial is False
            gamma_witness(f)
            inverse(f)
        assert calls == {"_compose_rows": 1, "_inverse_rows": 1}

    @staticmethod
    def check(rows):
        n = len(rows)
        pairs = o.pairs_of(Relation(n, rows))
        idempotent = o.o_is_idempotent(pairs)
        nontrivial = (idempotent and o.o_is_full(n, pairs)
                      and not o.o_is_trivial_literal(n, pairs))

        def witness(f):
            if nontrivial:
                u, v = gamma_witness(f).pair
                assert u != v and {(u, u), (u, v), (v, v)} <= pairs
            else:
                with pytest.raises(PreconditionError):
                    gamma_witness(f)

        for witness_first in (True, False):
            f = Relation(n, rows)
            if witness_first:
                witness(f)
            assert is_idempotent(f) is idempotent
            inv = inverse(f)
            assert inverse(f) is inv and o.pairs_of(inv) == o.o_inverse(pairs)
            assert is_idempotent(f) is idempotent
            if not witness_first:
                witness(f)
            assert inverse(f) is inv and properties(f).idempotent is idempotent

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_remembered_answers_equal_fresh_ones(self, n):
        for f in all_relations(n):
            self.check(f.rows)

    @pytest.mark.parametrize("lo,hi", [(6, 8), (9, 12)])
    def test_remembered_answers_equal_fresh_ones_when_seeded(self, lo, hi):
        # half at a random density, half idempotent powers, which are often nontrivial
        rng = Random(f"remembered:{lo}")
        for i in range(200):
            n = rng.randint(lo, hi)
            if i % 2:
                rows = idempotent_power(random_full_relation(n, rng)).rows
            else:
                density = rng.random()
                rows = tuple(sum(1 << y for y in range(n) if rng.random() < density)
                             for _ in range(n))
            self.check(rows)

    def test_a_remembered_failure_still_fails_the_precondition(self):
        f = Relation(2, (2, 1))  # the swap: full, not idempotent
        assert properties(f).idempotent is False
        message = "^gamma_witness requires an idempotent relation$"
        with pytest.raises(PreconditionError, match=message):
            gamma_witness(f)


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
                succ = o.o_successors(o.pairs_of(f), x)
                for b in succ:
                    assert any(f.has(a, b) for a in succ)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_trivial_or_single_valued_surjections_are_identity(self, n):
        for f in full_relations(n):
            if not (is_idempotent(f) and is_surjective(f)):
                continue
            if is_trivial(f) or is_single_valued(f):
                assert f == identity(n)


class TestRecords:
    """The result records are named tuples whose repr is the one they had as
    frozen dataclasses, and whose fields cannot be assigned."""

    RECORDS = [
        (lambda: properties(gamma_relation()),
         "PropertyReport(n=2, full=True, idempotent=True, surjective=True, single_valued=False, "
         "trivial=False, gamma_witness=(0, 1), two_point_witness=(0, 1), "
         "nontriviality_witness=(0, 0))"),
        (lambda: properties(Relation(3, (1, 2, 3))),
         "PropertyReport(n=3, full=True, idempotent=True, surjective=False, single_valued=False, "
         "trivial=True, gamma_witness=None, two_point_witness=None, nontriviality_witness=None)"),
        (lambda: reflexive_pair_witness(Relation(3, (7, 4, 4))),
         "WitnessChain(kind='reflexive_pair', chain=(1, 2), seed=None, result=(2, 1))"),
        (lambda: gamma_from_seed(Relation(3, (7, 4, 4)), 0, 1),
         "WitnessChain(kind='gamma_from_seed', chain=(1, 2), seed=(0, 1), result=(0, 2))"),
        (lambda: gamma_witness(Relation(3, (7, 4, 4))),
         "GammaWitness(pair=(0, 2), reflexive_stage=WitnessChain(kind='reflexive_pair', "
         "chain=(1, 2), seed=None, result=(2, 1)), extension_stage=WitnessChain("
         "kind='gamma_from_seed', chain=(1, 0), seed=(2, 1), result=(2, 0)), restricted_to=None)"),
        (lambda: gamma_witness(Relation(3, (3, 2, 3))),
         "GammaWitness(pair=(0, 1), reflexive_stage=WitnessChain(kind='reflexive_pair', "
         "chain=(), seed=None, result=(1, 0)), extension_stage=WitnessChain("
         "kind='gamma_from_seed', chain=(0,), seed=(1, 0), result=(1, 0)), "
         "restricted_to=(0, 1))"),
        (lambda: SurveyReport(2, "all", 9, 6, 3, 3, 3, 2, 1,
                              ({"n": 2, "pairs": [[0, 1]], "reason": "forced"},), 2, 0.5),
         "SurveyReport(n=2, mode='all', full=9, idempotent_full=6, nontrivial_idempotent=3, "
         "trivial_idempotent=3, gamma_idempotent=3, surjective_idempotent=2, identity_count=1, "
         "counterexamples=({'n': 2, 'pairs': [[0, 1]], 'reason': 'forced'},), "
         "counterexample_total=2, elapsed=0.5)"),
    ]

    @pytest.mark.parametrize("build,text", RECORDS)
    def test_repr_is_the_dataclass_repr(self, build, text):
        assert repr(build()) == text

    @pytest.mark.parametrize("build,text", RECORDS)
    def test_fields_cannot_be_assigned(self, build, text):
        record = build()
        for name in (*record._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        assert repr(record) == text

    @pytest.mark.parametrize("build,text", RECORDS)
    def test_survives_pickle_and_copy(self, build, text):
        record = build()
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
            assert type(twin) is type(record) and twin == record and repr(twin) == text

    def test_gamma_witness_defaults_restricted_to_none(self):
        assert GammaWitness._field_defaults == {"restricted_to": None}

    def test_survey_report_checks_its_counts_on_unpickle(self):
        fields = list(self.RECORDS[-1][0]())
        fields[SurveyReport._fields.index("trivial_idempotent")] = 4
        forged = pickle.dumps(tuple.__new__(SurveyReport, fields))  # skips the check
        with pytest.raises(AssertionError, match="does not split"):
            pickle.loads(forged)

    def test_survey_report_checks_its_counts_on_replace(self):
        report = self.RECORDS[-1][0]()
        with pytest.raises(AssertionError, match="does not split"):
            report._replace(trivial_idempotent=4)
        with pytest.raises(AssertionError, match="more counterexample reports"):
            report._replace(counterexample_total=0)
        assert report._replace(elapsed=0.0).elapsed == 0.0


class TestPropertyReport:
    def test_trivial_none_when_not_full(self, t_relation):
        p = properties(inverse(t_relation))
        assert p.full is False
        assert p.trivial is None

    def test_gamma_flag_tracks_witness(self, t_relation):
        assert properties(gamma_relation()).gamma is True
        assert properties(t_relation).gamma is False


class TestPublicSurface:
    NAMES = frozenset({
        "GammaWitness", "PreconditionError", "PropertyReport", "Relation",
        "RelationParseError", "SurveyReport", "WitnessChain", "compose", "count_threads",
        "gamma_from_seed", "gamma_relation", "gamma_witness", "identity", "inverse",
        "is_coordinatewise_chain", "is_full", "is_idempotent", "is_single_valued",
        "is_surjective", "is_trivial", "iter_threads", "nontriviality_witness",
        "parse_relation", "properties", "reflexive_pair_witness", "restrict",
        "satisfies_gamma", "serialize_relation", "survey", "two_point_witness",
    })

    def test_all_is_the_frozen_surface(self):
        assert len(finrel.__all__) == len(self.NAMES) == 30
        assert set(finrel.__all__) == self.NAMES
        assert all(hasattr(finrel, name) for name in finrel.__all__)

    def test_removed_names_are_gone(self):
        for name in ("image", "apply_permutation", "idempotent_relations", "canonical_form"):
            assert not hasattr(finrel, name)
        assert not hasattr(Relation, "successors")

    def test_readme_library_block_runs(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
        code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        scope = {}
        exec(code, scope)
        assert len(scope["ts"]) == 13
        assert scope["report"].counterexamples == ()
