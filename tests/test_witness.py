import re
from random import Random

import pytest

import oracles as o
from finrel import (
    PreconditionError,
    Relation,
    gamma_from_seed,
    gamma_relation,
    gamma_witness,
    identity,
    inverse,
    is_idempotent,
    is_trivial,
    reflexive_pair_witness,
    satisfies_gamma,
)
from finrel.witness import (
    KIND_GAMMA_FROM_SEED,
    KIND_REFLEXIVE_PAIR,
    GammaWitness,
    WitnessChain,
    _gamma_pipeline,
    _reflexive_pair,
    _walk,
)
from strategies import full_square, idempotent_power, idempotent_relations, random_idempotent


def chain_faults(wc, f):
    """The pair-set oracle's objections to the chain trace ``wc`` on ``f``."""
    return o.o_chain_faults(f.n, o.pairs_of(f), wc.kind, wc.chain, wc.result)


def reference_range_restriction(f):
    """f cut down to its range and relabelled onto 0..k-1, with the old labels."""
    old_of_new = sorted({y for _, y in f.pairs()})
    new_of_old = {old: new for new, old in enumerate(old_of_new)}
    pairs = [(new_of_old[x], new_of_old[y]) for x, y in f.pairs() if x in new_of_old]
    return Relation.from_pairs(len(old_of_new), pairs), old_of_new


def reference_gamma_witness(f):
    """The pipeline by relabelling: run both chains on f's range as a carrier of
    its own, then map the pair and the traces back to f's labels."""
    target, old_of_new = reference_range_restriction(f)
    stage1 = reflexive_pair_witness(target)
    stage2 = gamma_from_seed(inverse(target), *stage1.result)
    a, z = stage2.result

    def lift(wc):
        return WitnessChain(
            kind=wc.kind,
            chain=tuple(old_of_new[c] for c in wc.chain),
            seed=None if wc.seed is None else (old_of_new[wc.seed[0]], old_of_new[wc.seed[1]]),
            result=(old_of_new[wc.result[0]], old_of_new[wc.result[1]]),
        )

    return GammaWitness(
        pair=(old_of_new[z], old_of_new[a]),
        reflexive_stage=lift(stage1),
        extension_stage=lift(stage2),
        restricted_to=None if target.n == f.n else tuple(old_of_new),
    )


# idempotent, full, nontrivial, and not surjective: its inverse has an
# empty row, so both chains of the pipeline stay inside its range
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
            assert chain_faults(w, f) == []

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
        assert chain_faults(w, f) == []

    def test_seed_preconditions(self):
        g = gamma_relation()
        with pytest.raises(PreconditionError, match="distinct"):
            gamma_from_seed(g, 0, 0)
        with pytest.raises(PreconditionError, match="out of range"):
            gamma_from_seed(g, 0, 5)
        # bounds are tested before any shift, so no negative-shift ValueError
        for x, y in [(-1, 0), (0, -1), (0, g.n), (g.n, 0)]:
            with pytest.raises(PreconditionError, match="^seed points out of range$"):
                gamma_from_seed(g, x, y)
        with pytest.raises(PreconditionError):
            gamma_from_seed(g, 1, 0)  # (1, 0) missing from gamma
        f = Relation.from_pairs(2, [(0, 1), (1, 0), (1, 1)])
        with pytest.raises(PreconditionError):
            gamma_from_seed(f, 0, 1)  # (0, 0) missing

    @pytest.mark.parametrize("x,y", [(0.0, 1), (0, 1.0), (0, True)])
    def test_seed_points_must_be_ints(self, x, y):
        with pytest.raises(PreconditionError, match=r"^seed point .* is a (float|bool), not an int$"):
            gamma_from_seed(gamma_relation(), x, y)

    def test_seed_pairs_must_be_in_the_relation(self):
        # full and idempotent, so only the seed checks can refuse it
        f = Relation.from_pairs(2, [(0, 1), (1, 1)])
        with pytest.raises(PreconditionError, match=r"^seed requires \(0, 0\) in the relation$"):
            gamma_from_seed(f, 0, 1)
        with pytest.raises(PreconditionError, match=r"^seed requires \(1, 0\) in the relation$"):
            gamma_from_seed(f, 1, 0)

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
            sub, old_of_new = reference_range_restriction(f)
            lifted = {(old_of_new[a], old_of_new[b]) for a, b in sub.pairs()}
            assert lifted == {(x, y) for x, y in f.pairs() if x in old_of_new}
            if is_trivial(f):
                continue
            # the pipeline's point mask is the reference's range, and no
            # chain point, seed or result leaves it
            gw = gamma_witness(f)
            assert gw.restricted_to == (None if len(old_of_new) == n else tuple(old_of_new))
            for wc in (gw.reflexive_stage, gw.extension_stage):
                assert set(wc.chain) | set(wc.seed or ()) | set(wc.result) <= set(old_of_new)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_relabelling_reference(self, n):
        for f in idempotent_relations(n):
            if not is_trivial(f):
                # pair, both chains with their seeds, and restricted_to
                assert gamma_witness(f) == reference_gamma_witness(f)

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pipeline_on_an_outside_inverse_matches_gamma_witness(self, n):
        # the census hands the pipeline its own inverse; build it here from pairs
        for f in idempotent_relations(n):
            if not is_trivial(f):
                pairs = o.pairs_of(f)
                inv = Relation.from_pairs(n, o.o_inverse(pairs))
                pair, chain1, chain2, rng = _gamma_pipeline(f.rows, inv.rows)
                ref = reference_gamma_witness(f)
                stage1, stage2 = ref.reflexive_stage, ref.extension_stage
                assert pair == ref.pair
                assert (tuple(chain1), tuple(chain2)) == (stage1.chain, stage2.chain)
                # the extension's seed is the point the pair ends on and its first chain point
                assert (pair[1], chain2[0]) == stage2.seed == stage1.result
                assert rng == sum(1 << y for y in {y for _, y in pairs})
                assert o.o_chain_faults(n, pairs, KIND_REFLEXIVE_PAIR, chain1,
                                        stage1.result) == []
                assert o.o_chain_faults(n, o.o_inverse(pairs), KIND_GAMMA_FROM_SEED, chain2,
                                        (pair[1], pair[0])) == []
                assert gamma_witness(f) == ref  # the records the public wrapper builds

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
            assert gw == reference_gamma_witness(f)
            if gw.restricted_to is not None:
                seen_restricted += 1
        assert seen_restricted > 0  # the restriction branch does occur in the wild

    def test_carriers_past_the_byte_table(self):
        # idempotent powers of sparse relations on 9-12 points: their ranges
        # reach past point 7, so the stage-1 point scan leaves the byte table
        rng = Random(2024)
        wide = chained = 0
        for _ in range(300):
            n = rng.randint(9, 12)
            f = idempotent_power(
                Relation.from_pairs(n, [(x, rng.randrange(n)) for x in range(n) for _ in range(2)]))
            if is_trivial(f):
                continue
            gw = gamma_witness(f)
            pairs = o.pairs_of(f)
            u, v = gw.pair
            assert u != v and {(u, u), (u, v), (v, v)} <= pairs
            assert chain_faults(gw.reflexive_stage, f) == []
            ext = gw.extension_stage
            assert o.o_chain_faults(n, o.o_inverse(pairs), ext.kind, ext.chain, ext.result) == []
            assert gw == reference_gamma_witness(f)
            wide += max(y for _, y in pairs) >= 8
            chained += len(gw.reflexive_stage.chain) > 0
        assert wide > 0 and chained > 0


class TestOracleChainFaults:
    """Chain traces that the pair-set oracle check must reject."""

    def test_rejects_duplicate_chain(self):
        wc = WitnessChain(KIND_REFLEXIVE_PAIR, (0, 0), None, (1, 0))
        assert chain_faults(wc, full_square(2)) == ["chain points repeat"]

    def test_rejects_broken_link(self):
        wc = WitnessChain(KIND_REFLEXIVE_PAIR, (0, 1), None, (1, 0))
        assert chain_faults(wc, identity(2)) == [
            "consecutive chain pair (0, 1) not in the relation",
            "reflexive_pair result (1, 0) invalid",
        ]

    def test_rejects_wrong_result(self):
        wc = WitnessChain(KIND_GAMMA_FROM_SEED, (1,), (0, 1), (0, 1))
        f = Relation.from_pairs(2, [(0, 0), (0, 1), (1, 0)])
        assert chain_faults(wc, f) == ["gamma_from_seed result (0, 1) invalid"]

    def test_rejects_overlong_chain(self):
        wc = WitnessChain(KIND_REFLEXIVE_PAIR, (0, 1, 2), None, (1, 0))
        assert chain_faults(wc, full_square(2)) == [
            "chain longer than the carrier",
            "consecutive chain pair (1, 2) not in the relation",
        ]


def fails_with(message):
    """Expect an AssertionError whose message is exactly ``message``."""
    return pytest.raises(AssertionError, match=f"^{re.escape(message)}$")


class TestChainAssertions:
    """Each structural check of the chain cores fires on rows with one fault."""

    def test_reflexive_pair_on_the_identity(self):
        with fails_with("nontrivial relation equal to the identity"):
            _reflexive_pair((0b01, 0b10), 0b11)

    def test_reflexive_pair_exhausted(self):
        with fails_with("chain exhausted fresh points without a reflexive one"):
            _reflexive_pair((0b00, 0b10), 0b11)

    def test_reflexive_pair_chain_point_does_not_see(self):
        with fails_with("chain point 0 does not see successor 2"):
            _reflexive_pair((0b010, 0b100, 0b100), 0b111)

    def test_reflexive_pair_back_edge(self):
        with fails_with("back-edge (1, 0) violates the chain order"):
            _reflexive_pair((0b10, 0b01), 0b11)

    def test_seeded_edge_back_to_the_seed(self):
        with fails_with("back-edge (1, 0) violates the chain order"):
            _walk((0b011, 0b101, 0b100), 0b111, [0, 1])

    def test_seeded_exhausted(self):
        with fails_with("chain exhausted fresh points without a reflexive one"):
            _walk((0b011, 0b000), 0b11, [0, 1])

    def test_seeded_seed_lost_sight(self):
        with fails_with("chain point 0 does not see successor 2"):
            _walk((0b011, 0b100, 0b100), 0b111, [0, 1])

    def test_seeded_chain_point_does_not_see(self):
        with fails_with("chain point 1 does not see successor 3"):
            _walk((0b1111, 0b0100, 0b1000, 0b1000), 0b1111, [0, 1])

    def test_seeded_back_edge(self):
        with fails_with("back-edge (2, 1) violates the chain order"):
            _walk((0b111, 0b100, 0b010), 0b111, [0, 1])

    def test_pipeline_rejects_an_invalid_gamma_pair(self, monkeypatch):
        def bad_walk(rows, rng, chain):
            return chain + [chain[0]]

        monkeypatch.setattr("finrel.witness._walk", bad_walk)
        f = gamma_relation()
        with fails_with("pipeline produced an invalid gamma pair (1, 1)"):
            _gamma_pipeline(f.rows, inverse(f).rows)

    def test_validate_rejects_a_wrong_reflexive_pair(self):
        wc = WitnessChain(KIND_REFLEXIVE_PAIR, (), None, (0, 1))
        assert chain_faults(wc, identity(2)) == ["reflexive_pair result (0, 1) invalid"]
