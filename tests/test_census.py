import itertools
from dataclasses import replace
from random import Random

import pytest

import oracles as o
from finrel import (
    Relation,
    apply_permutation,
    canonical_form,
    compose,
    full_relations,
    gamma_relation,
    idempotent_power,
    idempotent_relations,
    identity,
    inverse,
    is_full,
    is_idempotent,
    is_trivial,
    random_full_relation,
    random_idempotent,
    satisfies_gamma,
    survey,
)
from finrel.census import _full_classes, _idempotent_in_partition


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

    def test_cap(self):
        with pytest.raises(ValueError, match="outside"):
            next(idempotent_relations(6))
        with pytest.raises(ValueError, match="outside"):
            next(idempotent_relations(0))


class TestCanonicalForm:
    def test_identity_fixed(self):
        assert canonical_form(identity(4)) == identity(4)

    def test_gamma_and_its_inverse_agree(self):
        g = gamma_relation()
        assert canonical_form(g) == canonical_form(inverse(g))

    def test_random_relabelings_agree(self):
        rng = Random(7)
        for _ in range(1000):
            f = random_full_relation(5, rng)
            perm = list(range(5))
            rng.shuffle(perm)
            assert canonical_form(f) == canonical_form(apply_permutation(f, perm))

    def test_canonical_is_minimal(self):
        f = Relation.from_pairs(3, [(0, 0), (1, 1), (2, 0), (2, 1)])
        forms = []
        for perm in itertools.permutations(range(3)):
            forms.append(apply_permutation(f, list(perm)).rows)
        assert canonical_form(f).rows == min(forms)

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            canonical_form(identity(9))


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

    def test_random_idempotent_sampler(self):
        rng = Random(5)
        for _ in range(200):
            f = random_idempotent(rng.randint(1, 6), rng)
            assert is_idempotent(f) and is_full(f)


class TestFastIdempotenceKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_with_packed_filter(self, n):
        for r0 in range(1, 1 << n):
            from_kernel = [f.rows for f in _idempotent_in_partition(n, r0)]
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

    @pytest.mark.parametrize("n", [3, 4])
    def test_worker_invariance(self, n):
        lone = survey(n, workers=1)
        crowd = survey(n, workers=4)
        assert replace(lone, elapsed=0.0) == replace(crowd, elapsed=0.0)

    def test_deterministic(self):
        a = survey(2)
        b = survey(2)
        assert replace(a, elapsed=0.0) == replace(b, elapsed=0.0)

    def test_caps(self):
        with pytest.raises(ValueError, match="outside"):
            survey(6)
        with pytest.raises(ValueError, match="outside"):
            survey(5, mode="up_to_iso")
        with pytest.raises(ValueError, match="mode"):
            survey(2, mode="everything")
        with pytest.raises(ValueError, match="workers"):
            survey(2, workers=0)


def _orbit_size(f: Relation) -> int:
    n = f.n
    aut = sum(
        1 for perm in itertools.permutations(range(n))
        if apply_permutation(f, list(perm)) == f
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


class TestSurveyUpToIso:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_burnside_class_count_matches_subset_count(self, n):
        assert _full_classes(n) == _burnside_by_subsets(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_weighted_class_counts_reproduce_all_mode(self, n):
        iso = survey(n, mode="up_to_iso")
        full_mode = survey(n, mode="all")
        assert iso.counterexamples == ()

        reps = [f for f in full_relations(n) if canonical_form(f) == f]
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
        reps = [f for f in full_relations(3) if canonical_form(f) == f]
        assert iso.full == len(reps)
        assert iso.idempotent_full == sum(1 for f in reps if is_idempotent(f))

    def test_four_points_clean(self):
        iso = survey(4, mode="up_to_iso")
        assert iso.counterexamples == ()
        assert iso.gamma_idempotent == iso.nontrivial_idempotent
