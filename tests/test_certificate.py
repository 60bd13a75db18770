"""The census certificate can fail: one injected fault per counterexample reason.

An empty counterexample list only certifies the paper's equivalences if every
check in ``census._check_idempotent`` can fire.  Each test below breaks one
collaborator that ``finrel.census`` imports, runs the census, and asserts that
exactly the expected reason is reported, both by ``survey`` and by
``finrel survey``, which must then exit 1.

The census transposes two things through ``census._inverse_rows``: f, whose
rows are a tuple, and f o f, which ``_compose_rows`` returns as a list.  The
law tests break only the second, so the pipeline, the surjectivity count and
the left side of the law keep a correct transpose of f.
"""

import json
from dataclasses import replace

import pytest

import finrel.census as census
from finrel import Relation, survey
from test_io_cli import run_cli

N = 3
# idempotent, full and nontrivial: (0,0), (0,1), (1,1) is its gamma pattern
TARGET = Relation.from_pairs(N, [(0, 0), (0, 1), (1, 1), (2, 2)])


def only_on_target(real, fault):
    """``real`` everywhere except on TARGET, where ``fault`` answers instead."""
    return lambda f, *rest: fault(f, *rest) if f == TARGET else real(f, *rest)


def assert_flagged(capsys, reason, count=None, n=N):
    report = survey(n)
    assert report.counterexamples
    assert {doc["reason"] for doc in report.counterexamples} == {reason}
    if count is not None:
        assert report.counterexample_total == count
    code, out, _ = run_cli(capsys, "survey", "--n", str(n))
    assert code == 1
    assert out.splitlines()[-1].endswith(f",{report.counterexample_total}")
    return report


def test_target_passes_unbroken():
    assert any(f == TARGET for f in census.idempotent_relations(N))
    assert survey(N).counterexamples == ()


@pytest.mark.parametrize("name", ["satisfies_gamma", "two_point_witness"])
def test_a_missed_pattern_breaks_the_equivalence(name, monkeypatch, capsys):
    monkeypatch.setattr(census, name, only_on_target(getattr(census, name), lambda f: None))
    assert_flagged(capsys, "trivial / gamma / two-point disagreement", count=1)


def test_a_failing_pipeline_is_reported_with_its_error(monkeypatch, capsys):
    def fail(f, inv):
        raise AssertionError("injected")

    monkeypatch.setattr(census, "_gamma_pipeline", only_on_target(census._gamma_pipeline, fail))
    assert_flagged(capsys, "gamma pipeline failed: injected", count=1)


@pytest.mark.parametrize("corrupt", [
    lambda gw: replace(gw, pair=(1, 0)),
    lambda gw: replace(gw, pair=(0, 0)),
    lambda gw: replace(gw, reflexive_stage=replace(gw.reflexive_stage, chain=(0,) * (N + 1))),
    lambda gw: replace(gw, extension_stage=replace(gw.extension_stage, chain=(0,) * (N + 1))),
], ids=["pair_outside_f", "pair_not_distinct", "long_reflexive_chain", "long_extension_chain"])
def test_an_invalid_witness_is_caught_by_the_census_itself(corrupt, monkeypatch, capsys):
    real = census._gamma_pipeline
    monkeypatch.setattr(census, "_gamma_pipeline",
                        only_on_target(real, lambda f, inv: corrupt(real(f, inv))))
    assert_flagged(capsys, "gamma pipeline returned an invalid witness", count=1)


def test_a_trivial_surjection_must_be_the_identity(monkeypatch, capsys):
    # TARGET is surjective and not the identity; all three tests call it trivial
    assert all(census._inverse_rows(TARGET.rows))
    for name in ("nontriviality_witness", "satisfies_gamma", "two_point_witness"):
        monkeypatch.setattr(census, name, only_on_target(getattr(census, name), lambda f: None))
    assert_flagged(capsys, "trivial idempotent surjection differs from the identity", count=1)


def test_the_law_compares_both_sides(monkeypatch, capsys):
    real = census._inverse_rows

    def drop_lowest_bit(rows):
        out = real(rows)
        if type(rows) is list and rows == list(TARGET.rows):
            x = next(x for x, row in enumerate(out) if row)
            out[x] &= out[x] - 1
        return out

    # the census's transpose of TARGET o TARGET; its transpose of TARGET stays correct
    monkeypatch.setattr(census, "_inverse_rows", drop_lowest_bit)
    assert_flagged(capsys, "squaring does not commute with inversion", count=1)


def test_the_law_squares_f_instead_of_assuming_f_o_f_is_f(monkeypatch, capsys):
    real = census._compose_rows

    def drop_lowest_bit(frows, grows):
        out = real(frows, grows)
        # squares of the tuple TARGET.rows only, so the backtracker's leaf test
        # and the left side of the law, which square lists, are untouched
        if frows == TARGET.rows and grows == TARGET.rows:
            out[0] &= out[0] - 1
        return out

    monkeypatch.setattr(census, "_compose_rows", drop_lowest_bit)
    assert_flagged(capsys, "squaring does not commute with inversion", count=1)


def test_a_census_that_flags_everything_keeps_a_bounded_sample(monkeypatch, capsys):
    real = census._inverse_rows

    def drop_lowest_bit(rows):
        out = real(rows)
        if type(rows) is list:
            x = next(x for x, row in enumerate(out) if row)
            out[x] &= out[x] - 1
        return out

    # every transpose of f o f loses a pair, so the law fails on every relation
    monkeypatch.setattr(census, "_inverse_rows", drop_lowest_bit)
    idempotent = survey(4).idempotent_full
    assert idempotent > census.COUNTEREXAMPLE_CAP
    report = assert_flagged(capsys, "squaring does not commute with inversion",
                            count=idempotent, n=4)
    assert len(report.counterexamples) == census.COUNTEREXAMPLE_CAP
    code, out, _ = run_cli(capsys, "survey", "--n", "4", "--json")
    assert code == 1
    doc = json.loads(out)
    assert len(doc["counterexamples"]) == census.COUNTEREXAMPLE_CAP == 100
    assert doc["counterexample_total"] == idempotent == 1123
