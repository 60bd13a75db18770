from random import Random

import pytest

from finrel import (
    PreconditionError,
    Relation,
    gamma_from_seed,
    gamma_relation,
    gamma_witness,
    identity,
    idempotent_relations,
    inverse,
    is_idempotent,
    is_trivial,
    random_idempotent,
    reflexive_pair_witness,
    satisfies_gamma,
)
from finrel.witness import (
    KIND_GAMMA_FROM_SEED,
    KIND_REFLEXIVE_PAIR,
    WitnessChain,
    _range_restriction,
)


def full_square(n):
    return Relation(n, tuple((1 << n) - 1 for _ in range(n)))


# idempotent, full, nontrivial, and not surjective: its inverse has an
# empty row, which forces the pipeline through the range restriction
NON_SURJECTIVE = Relation.from_pairs(3, [(0, 0), (0, 1), (1, 1), (2, 0), (2, 1)])


class TestReflexivePair:
    def test_gamma_immediate_branch(self):
        w = reflexive_pair_witness(gamma_relation())
        assert w.kind == KIND_REFLEXIVE_PAIR
        assert w.chain == ()
        assert w.result == (1, 0)

    def test_chain_branch(self):
        f = Relation.from_pairs(3, [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)])
        w = reflexive_pair_witness(f)
        assert w.chain == (0, 1)
        assert w.result == (1, 0)

    def test_full_square_two_points(self):
        w = reflexive_pair_witness(full_square(2))
        assert w.chain == ()
        assert w.result == (1, 0)

    def test_result_pattern(self):
        for f in [gamma_relation(), full_square(3), NON_SURJECTIVE]:
            w = reflexive_pair_witness(f)
            x, y = w.result
            assert x != y and f.has(x, x) and f.has(y, x)
            w.validate(f)

    def test_requires_full(self, t_relation):
        with pytest.raises(PreconditionError, match="full"):
            reflexive_pair_witness(inverse(t_relation))

    def test_requires_idempotent(self, swap):
        with pytest.raises(PreconditionError, match="idempotent"):
            reflexive_pair_witness(swap)

    def test_requires_nontrivial(self, t_relation):
        with pytest.raises(PreconditionError, match="nontrivial"):
            reflexive_pair_witness(t_relation)
        with pytest.raises(PreconditionError, match="nontrivial"):
            reflexive_pair_witness(identity(3))


class TestGammaFromSeed:
    def test_gamma_immediate(self):
        w = gamma_from_seed(gamma_relation(), 0, 1)
        assert w.kind == KIND_GAMMA_FROM_SEED
        assert w.chain == (1,)
        assert w.seed == (0, 1)
        assert w.result == (0, 1)

    def test_two_step_chain(self):
        f = Relation.from_pairs(3, [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2)])
        w = gamma_from_seed(f, 0, 1)
        assert w.chain == (1, 2)
        assert w.result == (0, 2)

    def test_full_square_immediate(self):
        w = gamma_from_seed(full_square(2), 0, 1)
        assert w.chain == (1,)
        assert w.result == (0, 1)

    def test_result_is_gamma_pattern(self):
        f = Relation.from_pairs(3, [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2)])
        w = gamma_from_seed(f, 0, 1)
        x, z = w.result
        assert x != z and f.has(x, x) and f.has(x, z) and f.has(z, z)
        w.validate(f)

    def test_seed_preconditions(self):
        g = gamma_relation()
        with pytest.raises(PreconditionError, match="distinct"):
            gamma_from_seed(g, 0, 0)
        with pytest.raises(PreconditionError, match="out of range"):
            gamma_from_seed(g, 0, 5)
        with pytest.raises(PreconditionError):
            gamma_from_seed(g, 1, 0)  # (1, 0) missing from gamma
        f = Relation.from_pairs(2, [(0, 1), (1, 0), (1, 1)])
        with pytest.raises(PreconditionError):
            gamma_from_seed(f, 0, 1)  # (0, 0) missing

    def test_requires_full_and_idempotent(self, t_relation, swap):
        with pytest.raises(PreconditionError, match="full"):
            gamma_from_seed(inverse(t_relation), 0, 2)
        with pytest.raises(PreconditionError, match="idempotent"):
            gamma_from_seed(swap, 0, 1)


class TestGammaPipeline:
    def test_gamma_relation(self):
        gw = gamma_witness(gamma_relation())
        assert gw.pair == (0, 1)
        assert gw.restricted_to is None
        assert gw.reflexive_stage.result == (1, 0)
        assert gw.extension_stage.seed == (1, 0)

    def test_two_point_example(self):
        f = Relation.from_pairs(2, [(0, 0), (1, 0), (1, 1)])
        gw = gamma_witness(f)
        assert gw.pair == (1, 0)

    def test_full_square(self):
        f = full_square(3)
        gw = gamma_witness(f)
        u, v = gw.pair
        assert u != v and f.has(u, u) and f.has(u, v) and f.has(v, v)

    def test_non_surjective_goes_through_range(self):
        gw = gamma_witness(NON_SURJECTIVE)
        assert gw.restricted_to == (0, 1)
        u, v = gw.pair
        f = NON_SURJECTIVE
        assert u != v and f.has(u, u) and f.has(u, v) and f.has(v, v)

    def test_preconditions(self, t_relation, swap):
        with pytest.raises(PreconditionError, match="nontrivial"):
            gamma_witness(t_relation)
        with pytest.raises(PreconditionError, match="idempotent"):
            gamma_witness(swap)
        with pytest.raises(PreconditionError, match="full"):
            gamma_witness(inverse(t_relation))

    def test_deterministic(self):
        assert gamma_witness(NON_SURJECTIVE) == gamma_witness(NON_SURJECTIVE)

    @pytest.mark.parametrize("f", [NON_SURJECTIVE, full_square(3)],
                             ids=["non_surjective", "full_square"])
    def test_checks_idempotence_once(self, f, monkeypatch):
        calls = []

        def counted(g):
            calls.append(g)
            return is_idempotent(g)

        monkeypatch.setattr("finrel.witness.is_idempotent", counted)
        gamma_witness(f)
        assert calls == [f]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_range_restriction_keeps_the_pairs_inside_the_range(self, n):
        for f in idempotent_relations(n):
            sub, old_of_new = _range_restriction(f)
            assert old_of_new == sorted({y for _, y in f.pairs()})
            lifted = {(old_of_new[a], old_of_new[b]) for a, b in sub.pairs()}
            assert lifted == {(x, y) for x, y in f.pairs() if x in old_of_new}

    def test_traces_replay_in_original_labels(self):
        # stage-1 chain edges run forwards in f, stage-2 chain edges are
        # edges of the inverse, i.e. they run backwards in f
        for f in [gamma_relation(), full_square(3), NON_SURJECTIVE]:
            gw = gamma_witness(f)
            for a, b in zip(gw.reflexive_stage.chain, gw.reflexive_stage.chain[1:]):
                assert f.has(a, b)
            for a, b in zip(gw.extension_stage.chain, gw.extension_stage.chain[1:]):
                assert f.has(b, a)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_agreement_with_gamma_scan(self, n):
        for f in idempotent_relations(n):
            if is_trivial(f):
                assert satisfies_gamma(f) is None
                with pytest.raises(PreconditionError):
                    gamma_witness(f)
            else:
                assert satisfies_gamma(f) is not None
                gw = gamma_witness(f)
                u, v = gw.pair
                assert u != v and f.has(u, u) and f.has(u, v) and f.has(v, v)
                assert len(gw.reflexive_stage.chain) <= n
                assert len(gw.extension_stage.chain) <= n

    def test_random_idempotent_samples(self):
        rng = Random(1701)
        seen_restricted = 0
        for _ in range(3000):
            n = rng.randint(1, 8)
            f = random_idempotent(n, rng)
            assert is_idempotent(f)
            if is_trivial(f):
                continue
            gw = gamma_witness(f)
            u, v = gw.pair
            assert u != v and f.has(u, u) and f.has(u, v) and f.has(v, v)
            if gw.restricted_to is not None:
                seen_restricted += 1
        assert seen_restricted > 0  # the restriction branch does occur in the wild


class TestWitnessChainValidate:
    def test_rejects_duplicate_chain(self):
        wc = WitnessChain(KIND_REFLEXIVE_PAIR, (0, 0), None, (1, 0))
        with pytest.raises(AssertionError, match="distinct"):
            wc.validate(full_square(2))

    def test_rejects_broken_link(self):
        wc = WitnessChain(KIND_REFLEXIVE_PAIR, (0, 1), None, (1, 0))
        with pytest.raises(AssertionError, match="consecutive"):
            wc.validate(identity(2))

    def test_rejects_wrong_result(self):
        wc = WitnessChain(KIND_GAMMA_FROM_SEED, (1,), (0, 1), (0, 1))
        with pytest.raises(AssertionError, match="gamma"):
            wc.validate(Relation.from_pairs(2, [(0, 0), (0, 1), (1, 0)]))

    def test_rejects_overlong_chain(self):
        wc = WitnessChain(KIND_REFLEXIVE_PAIR, (0, 1, 2), None, (1, 0))
        with pytest.raises(AssertionError, match="longer"):
            wc.validate(full_square(2))
