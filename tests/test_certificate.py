"""The census certificate can fail: one injected fault per counterexample reason.

An empty counterexample list only certifies the paper's equivalences if every
check in ``survey``'s loop can fire.  Each test below breaks one collaborator
that ``finrel.census`` imports, runs the census, and asserts that exactly the
expected reason is reported, both by ``survey`` and by ``finrel survey``, which
must then exit 1.  A fault that flags TARGET alone must report it as
``survey --json`` prints it: its n, its pairs in the order of
``Relation.pairs()``, and the reason.  The census checks packed rows, so
the predicate faults break its packed cores ``_nontriviality``, ``_gamma``
and ``_two_point``.

The backtracker hands the census the rows of each f with its transpose, and
the law squares that transpose through ``census._compose_rows``, the one call
there that passes the same list as both arguments.  Most law tests break only
that square, so the pipeline and the surjectivity count keep a correct
transpose of f; the others hand the census a transpose of their own, which
shows that the law reads what the backtracker carries.  The backtracker's leaf
test reads lookup tables of its own, so no fault here reaches it.

The census reads the pipeline's packed result ``(pair, chain1, chain2, rng)``
directly, so the invalid-witness tests corrupt that tuple.
"""

import json

import pytest

import finrel.census as census
import oracles as o
from finrel import Relation, survey
from strategies import full_relations, idempotent_relations
from test_io_cli import run_cli

N = 3
# idempotent, full and nontrivial: (0,0), (0,1), (1,1) is its gamma pattern
TARGET = Relation.from_pairs(N, [(0, 0), (0, 1), (1, 1), (2, 2)])


def oracle_transpose(f):
    """The packed rows of inverse(f), taken from the pair-set oracle."""
    return o.o_rows(f.n, o.o_inverse(o.pairs_of(f)))


TARGET_TRANSPOSE = oracle_transpose(TARGET)
LAW = "squaring does not commute with inversion"


def only_on_target(real, fault):
    """``real`` everywhere except on TARGET's rows, where ``fault`` answers instead."""
    return lambda rows, *rest: fault(rows, *rest) if rows == TARGET.rows else real(rows, *rest)


def break_the_square_of_the_transpose(monkeypatch, fault, only_target=False):
    """Let ``fault`` edit the law's square of the census's transpose of f.

    The square is told apart by its arguments, one list passed twice.  With
    ``only_target`` only the square of TARGET_TRANSPOSE is broken; a
    transpose determines its relation, so that is TARGET's alone.
    """
    real = census._compose_rows

    def compose(frows, grows):
        out = real(frows, grows)
        if frows is grows and (not only_target or frows == TARGET_TRANSPOSE):
            fault(out)
        return out

    monkeypatch.setattr(census, "_compose_rows", compose)


def carry_transposes(monkeypatch, swap=None, extra=()):
    """Let the backtracker hand over TARGET with ``swap`` as its transpose, if given.

    After its own relations it hands over each of ``extra`` with the
    oracle's transpose.
    """
    real = census._idempotent_relations

    def relations(n, ascending):
        for rows, inv in real(n, ascending):
            yield rows, swap if swap is not None and rows == TARGET.rows else inv
        for f in extra:
            yield f.rows, oracle_transpose(f)

    monkeypatch.setattr(census, "_idempotent_relations", relations)


def drop_lowest_pair(rows):
    x = next(x for x, row in enumerate(rows) if row)
    rows[x] &= rows[x] - 1


def assert_flagged(capsys, reason, count=None, n=N):
    report = survey(n)
    assert report.counterexamples
    assert {doc["reason"] for doc in report.counterexamples} == {reason}
    if count is not None:
        assert report.counterexample_total == count
    code, out, _ = run_cli(capsys, "survey", "--n", str(n))
    assert code == 1
    assert out.splitlines()[-1].endswith(f",{report.counterexample_total}")
    if count == 1:  # only TARGET is flagged: its record, pair order included
        record = {"n": 3, "pairs": [list(p) for p in TARGET.pairs()], "reason": reason}
        assert report.counterexamples == (record,)
        code, out, _ = run_cli(capsys, "survey", "--n", str(n), "--json")
        assert (code, json.loads(out)["counterexamples"]) == (1, [record])
    return report


def test_target_passes_unbroken():
    assert any(f == TARGET for f in idempotent_relations(N))
    assert survey(N).counterexamples == ()


# each predicate is broken in its packed core, which the census calls
@pytest.mark.parametrize("name", ["_gamma", "_two_point"],
                         ids=["satisfies_gamma", "two_point_witness"])
def test_a_missed_pattern_breaks_the_equivalence(name, monkeypatch, capsys):
    monkeypatch.setattr(census, name, only_on_target(getattr(census, name), lambda rows: None))
    assert_flagged(capsys, "trivial / gamma / two-point disagreement", count=1)


def test_a_failing_pipeline_is_reported_with_its_error(monkeypatch, capsys):
    def fail(rows, inv):
        raise AssertionError("injected")

    monkeypatch.setattr(census, "_gamma_pipeline", only_on_target(census._gamma_pipeline, fail))
    assert_flagged(capsys, "gamma pipeline failed: injected", count=1)


# each edits the packed result (pair, chain1, chain2, rng) of the pipeline
@pytest.mark.parametrize("corrupt", [
    lambda pair, chain1, chain2, rng: ((1, 0), chain1, chain2, rng),
    lambda pair, chain1, chain2, rng: ((0, 0), chain1, chain2, rng),
    lambda pair, chain1, chain2, rng: ((N, 0), chain1, chain2, rng),
    lambda pair, chain1, chain2, rng: (pair, [0] * (N + 1), chain2, rng),
    lambda pair, chain1, chain2, rng: (pair, chain1, [0] * (N + 1), rng),
], ids=["pair_outside_f", "pair_not_distinct", "pair_outside_carrier",
     "long_reflexive_chain", "long_extension_chain"])
def test_an_invalid_witness_is_caught_by_the_census_itself(corrupt, monkeypatch, capsys):
    real = census._gamma_pipeline
    monkeypatch.setattr(census, "_gamma_pipeline",
                        only_on_target(real, lambda rows, inv: corrupt(*real(rows, inv))))
    assert_flagged(capsys, "gamma pipeline returned an invalid witness", count=1)


def test_a_trivial_surjection_must_be_the_identity(monkeypatch, capsys):
    # TARGET is surjective and not the identity; all three tests call it trivial
    assert all(TARGET_TRANSPOSE)
    for name in ("_nontriviality", "_gamma", "_two_point"):
        monkeypatch.setattr(census, name, only_on_target(getattr(census, name), lambda rows: None))
    assert_flagged(capsys, "trivial idempotent surjection differs from the identity", count=1)


def test_the_law_compares_both_sides(monkeypatch, capsys):
    # the square of TARGET's transpose loses a pair, so it no longer equals the transpose
    break_the_square_of_the_transpose(monkeypatch, drop_lowest_pair, only_target=True)
    assert_flagged(capsys, LAW, count=1)


def test_the_law_squares_f_instead_of_assuming_f_o_f_is_f(monkeypatch, capsys):
    def add_lowest_missing_pair(rows):
        missing = ~rows[0] & ((1 << N) - 1)
        rows[0] |= missing & -missing

    # the square of TARGET's transpose gains a pair: the law squares, it does not assume
    break_the_square_of_the_transpose(monkeypatch, add_lowest_missing_pair, only_target=True)
    assert_flagged(capsys, LAW, count=1)


def test_the_law_reads_the_carried_transpose(monkeypatch, capsys):
    # TARGET arrives with the transpose of TARGET plus (1, 2), which is not idempotent
    broken = Relation.from_pairs(N, o.pairs_of(TARGET) | {(1, 2)})
    assert not o.o_is_idempotent(o.pairs_of(broken))
    carry_transposes(monkeypatch, swap=oracle_transpose(broken))
    assert_flagged(capsys, LAW, count=1)


def test_the_law_catches_every_non_idempotent_relation(monkeypatch):
    non_idempotent = [f for f in full_relations(N) if not o.o_is_idempotent(o.pairs_of(f))]
    assert len(non_idempotent) == 281

    # a broken leaf test lets every non-idempotent full relation through
    carry_transposes(monkeypatch, extra=non_idempotent)
    monkeypatch.setattr(census, "COUNTEREXAMPLE_CAP", float("inf"))  # keep every report
    report = survey(N)
    flagged = [(doc["n"], doc["pairs"]) for doc in report.counterexamples if doc["reason"] == LAW]
    assert flagged == [(N, [list(p) for p in f.pairs()]) for f in non_idempotent]


def test_a_census_that_flags_everything_keeps_a_bounded_sample(monkeypatch, capsys):
    # every square of the transpose loses a pair, so the law fails on every relation
    break_the_square_of_the_transpose(monkeypatch, drop_lowest_pair)
    idempotent = survey(4).idempotent_full
    assert idempotent > census.COUNTEREXAMPLE_CAP
    report = assert_flagged(capsys, LAW, count=idempotent, n=4)
    assert len(report.counterexamples) == census.COUNTEREXAMPLE_CAP
    code, out, _ = run_cli(capsys, "survey", "--n", "4", "--json")
    assert code == 1
    doc = json.loads(out)
    assert len(doc["counterexamples"]) == census.COUNTEREXAMPLE_CAP == 100
    assert doc["counterexample_total"] == idempotent == 1123
