"""Acceptance suite.

One test per criterion; each prints a PASS line on success (run with -s to
see them).  Expected values come from the naive pair-set oracle in
``oracles.py`` or from exact hand-checkable laws; every tolerance is exact
since all quantities are integers, sets, or booleans.
"""

import json
from random import Random

import pytest

import oracles as o
from finrel import (
    Relation,
    compose,
    gamma_relation,
    gamma_witness,
    identity,
    inverse,
    is_coordinatewise_chain,
    is_full,
    is_idempotent,
    is_single_valued,
    is_surjective,
    is_trivial,
    iter_threads,
    satisfies_gamma,
    survey,
    two_point_witness,
)
from strategies import all_relations, full_relations, idempotent_relations, random_idempotent
from test_io_cli import bundled, run_cli


def test_criterion_1_census_has_no_counterexamples():
    for n in (1, 2, 3, 4):
        report = survey(n)
        assert report.counterexamples == (), f"counterexamples at n={n}"
        assert report.gamma_idempotent == report.nontrivial_idempotent

    report = survey(5)
    assert report.full == 31 ** 5 == 28_629_151
    assert report.counterexamples == ()
    assert report.gamma_idempotent == report.nontrivial_idempotent
    assert (report.surjective_idempotent, report.identity_count) == (14_962, 1)
    assert report.trivial_idempotent == o.o_trivial_count(5) == 841
    assert report.elapsed < 60.0, f"n=5 scan took {report.elapsed:.1f}s"
    print(f"\nPASS criterion 1: census clean for n=1..5 "
          f"({report.full:,} candidates at n=5 in {report.elapsed:.1f}s)")


def test_criterion_2_hand_census_and_oracle_agreement():
    report = survey(2)
    assert (report.full, report.idempotent_full, report.nontrivial_idempotent,
            report.trivial_idempotent, report.gamma_idempotent) == (9, 6, 3, 3, 3)

    checked = 0
    for n in (1, 2, 3):
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
            checked += 1
    assert checked == 1 + 9 + 343
    print(f"PASS criterion 2: n=2 census is (9, 6, 3, 3, 3); oracle and fast "
          f"path agree on all {checked} full relations with n <= 3")


def _assert_valid_gamma_output(f, gw):
    u, v = gw.pair
    assert u != v and f.has(u, u) and f.has(u, v) and f.has(v, v)
    assert len(gw.reflexive_stage.chain) <= f.n
    assert len(gw.extension_stage.chain) <= f.n
    assert len(set(gw.reflexive_stage.chain)) == len(gw.reflexive_stage.chain)
    assert len(set(gw.extension_stage.chain)) == len(gw.extension_stage.chain)


def test_criterion_3_constructive_pipeline_soundness():
    exhaustive = 0
    for n in (1, 2, 3, 4):
        for f in idempotent_relations(n):
            nontrivial = not is_trivial(f)
            assert nontrivial == (satisfies_gamma(f) is not None)
            if nontrivial:
                _assert_valid_gamma_output(f, gamma_witness(f))
                exhaustive += 1

    rng = Random(0x5EED)
    sampled = 0
    sampled_nontrivial = 0
    for _ in range(100_000):
        n = rng.randint(1, 8)
        f = random_idempotent(n, rng)
        sampled += 1
        if is_trivial(f):
            assert satisfies_gamma(f) is None
            continue
        sampled_nontrivial += 1
        _assert_valid_gamma_output(f, gamma_witness(f))
    assert sampled == 100_000
    print(f"PASS criterion 3: pipeline sound on all {exhaustive} nontrivial "
          f"idempotent relations with n <= 4 and on {sampled_nontrivial} nontrivial "
          f"among {sampled:,} random idempotent samples with n <= 8")


def test_criterion_4_inversion_commutes_with_squaring():
    exhaustive = 0
    for n in (1, 2, 3):
        for f in all_relations(n):
            inv = inverse(f)
            assert compose(inv, inv) == inverse(compose(f, f))
            exhaustive += 1
    assert exhaustive == 2 + 16 + 512

    rng = Random(0xCAFE)
    for _ in range(100_000):
        n = rng.randint(1, 8)
        f = Relation(n, tuple(rng.randrange(0, 1 << n) for _ in range(n)))
        inv = inverse(f)
        assert compose(inv, inv) == inverse(compose(f, f))
    print(f"PASS criterion 4: inverse-of-square law holds on all {exhaustive} "
          f"relations with n <= 3 and 100,000 random relations with n <= 8")


def test_criterion_5_bundled_documents(capsys):
    code, out, _ = run_cli(capsys, "check", bundled("t"))
    assert code == 0
    doc = json.loads(out)
    assert doc["trivial"] is True
    assert doc["idempotent"] is True
    assert doc["surjective"] is False
    assert doc["gamma"] is None

    code, out, _ = run_cli(capsys, "check", bundled("gamma"))
    assert code == 0
    doc = json.loads(out)
    assert doc["trivial"] is False
    assert doc["gamma"] == [0, 1]
    print("PASS criterion 5: bundled t.json and gamma.json report their "
          "documented profiles")


def test_criterion_6_inverse_limit_finite_shadow():
    g = gamma_relation()
    for m in range(1, 17):
        ts = tuple(iter_threads(g, m))
        assert len(ts) == m + 1
        assert is_coordinatewise_chain(ts)

    compared = 0
    for n in (1, 2, 3):
        for f in full_relations(n):
            pairs = o.pairs_of(f)
            for m in range(1, 7):
                expected = tuple(sorted(o.o_threads(n, pairs, m)))
                assert tuple(iter_threads(f, m)) == expected
                compared += 1
    print(f"PASS criterion 6: gamma thread count is m+1 and a chain for "
          f"m <= 16; propagation matches brute force on {compared} "
          f"(relation, length) cases with n <= 3, m <= 6")


def test_criterion_7_trivial_surjections_are_the_identity():
    checked = 0
    for n in (1, 2, 3, 4):
        for f in idempotent_relations(n):
            if is_surjective(f) and is_trivial(f):
                assert f == identity(n)
                checked += 1
    assert checked == 4  # exactly the identity at each size
    print(f"PASS criterion 7: among idempotent full surjective relations with "
          f"n <= 4, every trivial one is the identity ({checked} instances)")
