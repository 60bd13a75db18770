import argparse
import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from importlib import resources
from pathlib import Path
from decimal import Decimal
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as o
from finrel import (
    Relation,
    gamma_relation,
    identity,
    inverse,
    parse_relation,
    properties,
    serialize_relation,
)
from finrel.cli import build_parser, run
from finrel.io import MAX_CARRIER, RelationParseError
from finrel.mahavier import MAX_LENGTH
from strategies import all_relations, relations


def bundled(name: str) -> str:
    return str(resources.files("finrel").joinpath(f"data/{name}.json"))


class TestParse:
    def test_json_t(self, t_relation):
        text = '{"n":3,"pairs":[[0,0],[1,1],[2,0],[2,1]]}'
        assert parse_relation(text) == t_relation

    def test_matrix(self):
        assert parse_relation("10\n11") == Relation.from_pairs(2, [(0, 0), (1, 0), (1, 1)])
        assert parse_relation("10\n11") == inverse(gamma_relation())

    def test_forms_parse_identically(self, t_relation):
        as_json = parse_relation(serialize_relation(t_relation, "json"))
        as_matrix = parse_relation(serialize_relation(t_relation, "matrix"))
        assert as_json == as_matrix == t_relation

    def test_rejects_empty_carrier(self):
        with pytest.raises(RelationParseError, match="nonempty"):
            parse_relation('{"n":0,"pairs":[]}')
        with pytest.raises(RelationParseError, match="nonempty"):
            parse_relation("")

    def test_rejects_malformed_json(self):
        with pytest.raises(RelationParseError, match="malformed JSON"):
            parse_relation('{"n":3,')
        with pytest.raises(RelationParseError, match="missing field 'pairs'"):
            parse_relation('{"n":3}')
        with pytest.raises(RelationParseError, match="'n'"):
            parse_relation('{"pairs":[]}')
        with pytest.raises(RelationParseError, match="integer"):
            parse_relation('{"n":"3","pairs":[]}')

    def test_rejects_overlong_integer(self):
        with pytest.raises(RelationParseError, match="malformed JSON"):
            parse_relation('{"n": %s, "pairs": []}' % ("1" * 5000))

    def test_carrier_limit(self):
        top = '{"n": %d, "pairs": [[%d, 0]]}' % (MAX_CARRIER, MAX_CARRIER - 1)
        assert parse_relation(top).n == MAX_CARRIER
        with pytest.raises(RelationParseError, match="field 'n'.*exceeds"):
            parse_relation('{"n": %d, "pairs": []}' % (MAX_CARRIER + 1))

    def test_carrier_limit_bounds_the_rows(self):
        # the anti-diagonal's row x has bit n-1-x, so a short document makes
        # rows of about n*n/2 bits in all
        n = MAX_CARRIER
        text = json.dumps({"n": n, "pairs": [[x, n - 1 - x] for x in range(n)]})
        f = parse_relation(text)
        assert f.rows[0] == 1 << (n - 1)
        assert len(text) < 100_000 and sum(map(sys.getsizeof, f.rows)) < 2_000_000

    def test_rejects_bad_pairs(self):
        with pytest.raises(RelationParseError, match=r"pairs\[1\].*out of range"):
            parse_relation('{"n":2,"pairs":[[0,0],[0,7]]}')
        with pytest.raises(RelationParseError, match=r"pairs\[2\].*duplicate"):
            parse_relation('{"n":2,"pairs":[[0,0],[1,1],[0,0]]}')
        with pytest.raises(RelationParseError, match=r"pairs\[0\]"):
            parse_relation('{"n":2,"pairs":[[0]]}')

    def test_rejects_bad_matrix(self):
        with pytest.raises(RelationParseError, match="line 2.*columns"):
            parse_relation("10\n1")
        with pytest.raises(RelationParseError, match="line 1, column 2"):
            parse_relation("1x\n01")

    @pytest.mark.parametrize("text,message", [
        ('{"n": 2, "pairs": [[true, 0]]}', "pairs[0]: expected a pair [x, y] of integers"),
        ('{"n": 2, "pairs": [[0, false]]}', "pairs[0]: expected a pair [x, y] of integers"),
        ('{"n": 2, "pairs": [[0, 1.0]]}', "pairs[0]: expected a pair [x, y] of integers"),
        ('{"n": 2, "pairs": [[0, "1"]]}', "pairs[0]: expected a pair [x, y] of integers"),
        ('{"n": 2, "pairs": [0, 1]}', "pairs[0]: expected a pair [x, y] of integers"),
        ('{"n": 2, "pairs": [[0, 0], [0, 1, 2]]}', "pairs[1]: expected a pair [x, y] of integers"),
        ('{"n": 2, "pairs": [[0, 0], {"x": 1}]}', "pairs[1]: expected a pair [x, y] of integers"),
        ('{"n": 2, "pairs": [[0, 0], [-1, 1]]}', "pairs[1]: point out of range for carrier of size 2"),
        ('{"n": 2, "pairs": [[1, 0], [0, 1], [1, 0]]}', "pairs[2]: duplicate pair [1, 0]"),
        ('{"n": 2, "pairs": [[1, 0], [1, 1], [1, 1], [9, 9]]}', "pairs[2]: duplicate pair [1, 1]"),
        # json.dumps's own layout on at most 8 points, which is read without json.loads
        # unless a piece misses; then json.loads reads the text as given
        ('{"n": 3, "pairs": [[0, 0], [1, 2], [0, 0]]}', "pairs[2]: duplicate pair [0, 0]"),
        ('{"n": 3, "pairs": [[0, 0], [3, 1]]}', "pairs[1]: point out of range for carrier of size 3"),
        ('{"n": 3, "pairs": [[0, 0], [1, 3]]}', "pairs[1]: point out of range for carrier of size 3"),
        ('{"n": 8, "pairs": [[0, 0], [7, 8]]}', "pairs[1]: point out of range for carrier of size 8"),
        ('{"n": 8, "pairs": [[9, 0]]}', "pairs[0]: point out of range for carrier of size 8"),
        ('{"n": 0, "pairs": [[0, 0]]}', "field 'n': carrier must be nonempty"),
        ('{"n": 2, "pairs": [[00, 1]]}',
         "malformed JSON: Expecting ',' delimiter: line 1 column 22 (char 21)"),
        ('{"n": 2, "pairs": [[0, 1]]]}',
         "malformed JSON: Expecting ',' delimiter: line 1 column 27 (char 26)"),
        ('{"n": 1, "pairs": [[]]}', "pairs[0]: expected a pair [x, y] of integers"),
        ('{"n": 8, "pairs": [%s, [3, 5]]}' % ", ".join(f"[{x}, {y}]" for x in range(8) for y in range(8)),
         "pairs[64]: duplicate pair [3, 5]"),
        ('{"n": 4, "pairs": [[0, 0], [1, \u0663]]}',
         "malformed JSON: Expecting value: line 1 column 32 (char 31)"),
        ('{"n": 4, "pairs": [[0, 0], [1, \ud800]]}',
         "malformed JSON: Expecting value: line 1 column 32 (char 31)"),
        ('\n {"n": 4, "pairs": [[0, 0], [1, \u0663]]}',
         "malformed JSON: Expecting value: line 2 column 33 (char 33)"),
        ('\x0c{"n": 2, "pairs": [[0, 0], [1, 1]]}',
         "malformed JSON: Expecting value: line 1 column 1 (char 0)"),
        # only a text whose first non-space is "{" goes to the JSON reader
        ("[[0, 0]]", "line 1: expected 1 columns to match 1 rows, got 8"),
        ("5", "line 1, column 1: expected '0' or '1'"),
        ('\xa0{"n": 1, "pairs": [[0, 0]]}', "malformed JSON: Expecting value: line 1 column 1 (char 0)"),
        ('{"pairs": [[0, 1], [1, 1], [0, 1]], "n": 2}', "pairs[2]: duplicate pair [0, 1]"),
        ('{"n": 2, "pairs": [[0,1], [1, 1], [0,1]]}', "pairs[2]: duplicate pair [0, 1]"),
        ("1x0\n010\n001", "line 1, column 2: expected '0' or '1'"),
        ("1_0\n010\n001", "line 1, column 2: expected '0' or '1'"),
        ("1 0\n010\n001", "line 1, column 2: expected '0' or '1'"),
        ("١٠\n01", "line 1, column 1: expected '0' or '1'"),
        ("10\n0１", "line 2, column 2: expected '0' or '1'"),
        ("100\n010\n+01", "line 3, column 1: expected '0' or '1'"),
        ("10\n1", "line 2: expected 2 columns to match 2 rows, got 1"),
        # blank lines count in the line numbers
        ("\n\n01\n1x\n", "line 4, column 2: expected '0' or '1'"),
        ("10\n\n1", "line 3: expected 2 columns to match 2 rows, got 1"),
        # the width check comes first: a line of valid cells but the wrong width fails it,
        # though the table of lines on at most 8 points holds that line
        ("10000\n01000\n0010\n00010\n00001",
         "line 3: expected 5 columns to match 5 rows, got 4"),
        ("\n".join(["1000000"] * 3 + ["10000000"] + ["0000001"] * 3),
         "line 4: expected 7 columns to match 7 rows, got 8"),
        # lines wider than 8 cells
        ("\n".join(["0" * 12] * 4 + ["0" * 11 + "x"] + ["1" * 12] * 7),
         "line 5, column 12: expected '0' or '1'"),
        ("\n".join(["0" * 12] * 11 + ["1" * 11]),
         "line 12: expected 12 columns to match 12 rows, got 11"),
    ])
    def test_rejection_messages(self, text, message):
        with pytest.raises(RelationParseError) as info:
            parse_relation(text)
        assert type(info.value) is RelationParseError
        assert str(info.value) == message

    def test_matrix_with_crlf_line_ends(self):
        assert parse_relation("10\r\n01\r\n") == identity(2)
        assert parse_relation("  10 \n\n 01\t\n") == identity(2)

    def test_one_digit_pairs_on_nine_points(self):
        f = parse_relation('{"n": 9, "pairs": [[0, 1], [8, 8]]}')
        assert f == Relation.from_pairs(9, [(0, 1), (8, 8)])

    def test_dumps_layout_agrees_with_the_compact_one(self):
        # the compact separators never match the head or the "], [" the table route
        # splits at, so they take the general path; both must give the same rows or
        # the same message
        outcome = parse_outcome
        rng = Random(30)
        kinds = set()
        for _ in range(2000):
            n = rng.randint(1, 9)
            pairs = [[rng.randrange(n + (rng.random() < 0.1)) for _ in "xy"]
                     for _ in range(rng.randint(1, 2 * n))]
            if rng.random() < 0.2:
                pairs.append(rng.choice(pairs))
            rng.shuffle(pairs)
            doc = {"n": n, "pairs": pairs}
            got = outcome(json.dumps(doc))
            assert got == outcome(json.dumps(doc, separators=(",", ":")))
            kinds.add(got.split("]: ")[1][:9] if isinstance(got, str) else n)
        assert kinds == {*range(1, 10), "duplicate", "point out"}

    def test_near_misses_of_the_layout_agree_with_json_loads(self, monkeypatch):
        # the writer's JSON on 1 or 2 points, with at least one pair, and every text
        # one deletion, substitution or insertion away; with _HEAD empty each text
        # goes to json.loads, which must give the same rows or the same message
        texts = []
        for n in (1, 2):
            for mask in range(1, 1 << n * n):
                text = serialize_relation(
                    Relation(n, [mask >> n * x & (1 << n) - 1 for x in range(n)]), "json")
                near = set()
                for i in range(len(text) + 1):
                    near.add(text[:i] + text[i + 1:])
                    for ch in '0189[], "{}n':
                        near.update((text[:i] + ch + text[i + 1:], text[:i] + ch + text[i:]))
                texts += sorted(near)
        assert len(texts) == 13_494
        outcomes = list(map(parse_outcome, texts))
        monkeypatch.setattr("finrel.io._HEAD", {})
        assert list(map(parse_outcome, texts)) == outcomes

    def test_writer_layout_agrees_with_the_line_loop(self):
        # a matrix of n lines of n 0/1 cells on at most 8 points is read by table;
        # its twin with one leading blank always takes the per-line loop, as do the
        # near misses, and strip() drops that blank, so no line or column number
        # moves; each text, that twin and its "\r\n" twin must give the same rows
        # or the same message
        rng = Random(35)
        breaks = ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"]  # splitlines() cuts at each
        kinds = set()
        for _ in range(2000):
            n = rng.randint(1, 9)
            lines = ["".join(rng.choice("01") for _ in range(n)) for _ in range(n)]
            ends = ["\n"] * n
            x, miss = rng.randrange(n), rng.choice(
                ["none", "short", "long", "2", "blanks", "blank lines", "crlf", "break"])
            if miss == "short":
                lines[x] = lines[x][:-1]
            elif miss == "long":
                lines[x] += rng.choice("01")
            elif miss == "2":
                y = rng.randrange(n)
                lines[x] = lines[x][:y] + "2" + lines[x][y + 1:]
            elif miss == "blanks":
                lines[x] = rng.choice(["", " ", "\t"]) + lines[x] + rng.choice(["", " ", "\t"])
            elif miss == "blank lines":
                ends[-1] += "\n" * rng.randint(1, 2)
            elif miss == "crlf":
                ends[x] = "\r\n"
            elif miss == "break":
                ends[x] = rng.choice(breaks)
            text = "".join(map(str.__add__, lines, ends))
            crlf = text.replace("\r\n", "\n").replace("\n", "\r\n")
            got = parse_outcome(text)
            assert got == parse_outcome(" " + text) == parse_outcome(crlf), text
            kinds.add(got[0] if isinstance(got, tuple) else "width" if "columns" in got
                      else "cell" if "'0' or '1'" in got else got)
        assert kinds == {*range(1, 10), "width", "cell", "empty document: carrier must be nonempty"}

    @pytest.mark.parametrize("text", ["", "\n"])
    def test_no_lines_is_an_empty_document(self, text):
        with pytest.raises(RelationParseError) as info:
            parse_relation(text)
        assert str(info.value) == "empty document: carrier must be nonempty"


def parse_outcome(text):
    """The rows ``parse_relation`` reads from ``text``, or its message."""
    try:
        f = parse_relation(text)
    except RelationParseError as exc:
        return str(exc)
    return f.n, f.rows


class TestJsonRecords:
    """Texts laid out as json.dumps writes them, on at most 8 points, skip json.loads."""

    LOADS = staticmethod(json.loads)  # the real one, which no_json_loads replaces

    @pytest.fixture(autouse=True)
    def no_json_loads(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("json.loads was called")
        monkeypatch.setattr(json, "loads", refuse)

    def test_bundled_documents_as_read_from_disk(self, t_relation):
        for name, f in (("gamma", gamma_relation()), ("t", t_relation)):
            with open(bundled(name), encoding="utf-8") as file:
                text = file.read()
            assert text.endswith("\n")
            assert parse_relation(text) == f

    @pytest.mark.parametrize("n", range(1, 9))
    def test_written_and_shuffled_texts(self, n):
        rng = Random(n)
        for _ in range(100):
            rows = [rng.randrange(1 << n) for _ in range(n)]
            rows[rng.randrange(n)] |= 1 << rng.randrange(n)  # at least one pair
            f = Relation(n, rows)
            pairs = [list(p) for p in f.pairs()]
            rng.shuffle(pairs)
            assert parse_relation(serialize_relation(f, "json")) == f
            assert parse_relation(json.dumps({"n": n, "pairs": pairs})) == f

    @pytest.mark.parametrize("at", [0, 4, 7])
    @pytest.mark.parametrize("bad", [[8, 0], [0, 9]])
    def test_a_record_outside_the_table_goes_to_json_loads(self, monkeypatch, bad, at):
        # "8, 0" is a piece of the layout, but no key of _BIT_OF[8]; first, in the
        # middle or last, the text goes to json.loads
        texts = []
        monkeypatch.setattr(json, "loads", lambda text: texts.append(text) or self.LOADS(text))
        pairs = [[x, x] for x in range(8)]
        pairs[at] = bad
        text = json.dumps({"n": 8, "pairs": pairs})
        with pytest.raises(RelationParseError) as info:
            parse_relation(text)
        assert str(info.value) == f"pairs[{at}]: point out of range for carrier of size 8"
        assert texts == [text]

    def test_a_long_text_costs_at_most_a_copy_or_two(self):
        # 400,000 duplicate pairs in the layout on 8 points: the table route stops
        # splitting after 64 pairs, so the rest stays one piece and misses
        text = json.dumps({"n": 8, "pairs": [[0, 0]] * 400_000})
        tracemalloc.start()
        try:
            with pytest.raises(AssertionError, match="json.loads was called"):
                parse_relation(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) > 3_000_000 and peak < 3 * len(text)


def reference_json(f):
    return json.dumps({"n": f.n, "pairs": [list(p) for p in sorted(o.pairs_of(f))]})


def reference_matrix(f):
    return "".join("".join("1" if (row >> y) & 1 else "0" for y in range(f.n)) + "\n"
                   for row in f.rows)


class TestSerialize:
    def test_gamma_matrix(self):
        assert serialize_relation(gamma_relation(), "matrix") == "11\n01\n"

    def test_identity_matrix(self):
        assert serialize_relation(identity(2), "matrix") == "10\n01\n"

    def test_json_pairs_lexicographic(self, t_relation):
        doc = json.loads(serialize_relation(t_relation, "json"))
        assert doc == {"n": 3, "pairs": [[0, 0], [1, 1], [2, 0], [2, 1]]}

    def test_unknown_form(self):
        with pytest.raises(ValueError, match="form"):
            serialize_relation(identity(2), "yaml")

    @given(relations(max_n=8))
    def test_round_trip_both_forms(self, f):
        assert parse_relation(serialize_relation(f, "json")) == f
        assert parse_relation(serialize_relation(f, "matrix")) == f

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_both_forms_match_the_references_on_every_relation(self, n):
        for f in all_relations(n):
            assert serialize_relation(f, "json") == reference_json(f)
            assert serialize_relation(f, "matrix") == reference_matrix(f)

    def test_both_forms_match_the_references_on_random_relations(self):
        rng = Random(29)
        for _ in range(1000):
            n = rng.randint(1, 8)
            f = Relation(n, tuple(rng.randrange(0, 1 << n) for _ in range(n)))
            assert serialize_relation(f, "json") == reference_json(f)
            assert serialize_relation(f, "matrix") == reference_matrix(f)

    def test_every_row_on_at_most_8_points_first_and_last(self):
        # the writers and the reader look each row on n <= 8 points up in a table
        # over one byte; every row value r < 2**n, as the first and as the last row
        for n in range(1, 9):
            full = (1 << n) - 1
            for r in range(1 << n):
                others = (full ^ r,) * (n - 1)
                for f in (Relation(n, (r, *others)), Relation(n, (*others, r))):
                    as_json = serialize_relation(f, "json")
                    as_matrix = serialize_relation(f, "matrix")
                    assert as_json == reference_json(f)
                    assert as_matrix == reference_matrix(f)
                    assert parse_relation(as_json) == parse_relation(as_matrix) == f

    @pytest.mark.parametrize("n", [9, 16, 17, 64])
    def test_both_forms_on_rows_past_one_byte(self, n):
        rng = Random(n)
        for _ in range(20):
            rows = [rng.randrange(1 << n) for _ in range(n)]
            rows[:3] = 0, (1 << n) - 1, rng.randrange(256)  # empty, full, within one byte
            rng.shuffle(rows)
            f = Relation(n, rows)
            for form, reference in (("json", reference_json), ("matrix", reference_matrix)):
                text = serialize_relation(f, form)
                assert text == reference(f)
                assert parse_relation(text) == f

    def test_json_of_a_sparse_relation_on_many_points(self):
        # the writer's cost follows the pairs, not the n * n cells
        rng = Random(31)
        pairs = sorted({(rng.randrange(2000), rng.randrange(2000)) for _ in range(3000)})
        f = Relation.from_pairs(2000, pairs)
        text = serialize_relation(f, "json")
        assert text == json.dumps({"n": 2000, "pairs": [list(p) for p in pairs]})
        assert parse_relation(text) == f

    def test_round_trip_many_random(self):
        rng = Random(11)
        for _ in range(1000):
            n = rng.randint(1, 8)
            f = Relation(n, tuple(rng.randrange(0, 1 << n) for _ in range(n)))
            assert parse_relation(serialize_relation(f, "json")) == f
            assert parse_relation(serialize_relation(f, "matrix")) == f


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parser_error(capsys, *argv):
    """The last stderr line of a command line that exits 2 with empty stdout."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    return err.splitlines()[-1]


GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_CASES = sorted(case.name for case in GOLDEN.iterdir() if case.is_dir())


def test_golden_corpus_is_not_empty():
    # an empty parameter list would skip test_golden rather than fail it
    assert GOLDEN_CASES


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_golden(name, capsys, monkeypatch):
    """One promised command line: its exit code, its exact stdout, a line of its stderr.

    ``tests/golden/<name>/`` holds ``argv`` (one argument a line, paths from
    the repository root), ``code``, ``stdout`` and, optionally, ``stderr``.
    CI runs the same directories through the installed ``finrel`` script.
    """
    case = GOLDEN / name
    argv = (case / "argv").read_text(encoding="utf-8").splitlines()
    code = int((case / "code").read_text(encoding="utf-8"))
    stdout = (case / "stdout").read_bytes()
    stderr = case / "stderr"
    fragment = stderr.read_text(encoding="utf-8").rstrip("\n") if stderr.exists() else ""
    assert "\n" not in fragment  # CI's grep -F would read each line as a pattern of its own
    monkeypatch.chdir(GOLDEN.parents[1])
    got, out, err = run_cli(capsys, *argv)
    assert (got, out.encode()) == (code, stdout)
    assert fragment in err


def small_documents(tmp_path):
    """(path, n, pair set) of both bundled documents and every relation with n <= 2."""
    paths = [bundled("t"), bundled("gamma")]
    for n in (1, 2):
        for i, f in enumerate(all_relations(n)):
            path = tmp_path / f"r{n}-{i}.json"
            path.write_text(reference_json(f), encoding="utf-8")
            paths.append(str(path))
    for path in paths:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        yield path, doc["n"], frozenset(map(tuple, doc["pairs"]))


def reference_check(n, f):
    """The stdout of ``check`` for pair set f, from the oracle."""
    full = o.o_is_full(n, f)
    nontrivial = next((
        [x, a] for x in range(n) for a in sorted(o.o_successors(f, x))
        if o.o_successors(f, a) != {a}
    ), None) if full else None

    def listed(pair):
        return None if pair is None else list(pair)

    return json.dumps({
        "n": n,
        "full": full,
        "idempotent": o.o_is_idempotent(f),
        "surjective": o.o_is_surjective(n, f),
        "single_valued": o.o_is_single_valued(n, f),
        "trivial": o.o_is_trivial_literal(n, f) if full else None,
        "gamma": listed(o.o_gamma(n, f)),
        "two_point_witness": listed(o.o_two_point(n, f)),
        "nontriviality_witness": nontrivial,
    }, indent=2) + "\n"


def reference_threads_json(n, f, m):
    """The stdout of ``mahavier --json`` for pair set f, from the oracle."""
    threads = sorted(o.o_threads(n, f, m))
    chain = all(
        all(x <= y for x, y in zip(a, b)) or all(x >= y for x, y in zip(a, b))
        for a in threads for b in threads
    )
    return json.dumps({
        "n": n,
        "length": m,
        "count": len(threads),
        "is_coordinatewise_chain": chain,
        "threads": [list(t) for t in threads],
    }, indent=2) + "\n"


class TestCheckCommand:
    def test_bundled_t(self, capsys):
        code, out, _ = run_cli(capsys, "check", bundled("t"))
        assert code == 0
        doc = json.loads(out)
        assert doc["full"] is True
        assert doc["idempotent"] is True
        assert doc["surjective"] is False
        assert doc["trivial"] is True
        assert doc["gamma"] is None

    def test_trivial_null_for_non_full(self, tmp_path, capsys):
        p = tmp_path / "partial.json"
        p.write_text('{"n":2,"pairs":[[0,0]]}', encoding="utf-8")
        code, out, _ = run_cli(capsys, "check", str(p))
        assert code == 0
        doc = json.loads(out)
        assert doc["full"] is False
        assert doc["trivial"] is None

    def test_expect_pass_and_fail(self, capsys):
        code, _, _ = run_cli(capsys, "check", bundled("t"),
                             "--expect", "trivial=true", "--expect", "gamma=false")
        assert code == 0
        code, _, err = run_cli(capsys, "check", bundled("t"), "--expect", "gamma=true")
        assert code == 1
        assert "expected gamma=true" in err

    def test_expect_rejects_unknown_flag(self, capsys):
        # the parser rejects it, so no report is printed
        assert parser_error(capsys, "check", bundled("t"), "--expect", "trivial=true",
                            "--expect", "shiny=true") == (
            "finrel check: error: argument --expect: wants <flag>=<true|false> with flag one of "
            "full, idempotent, surjective, single_valued, trivial, gamma; got 'shiny=true'")

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "check", "no-such-file.json")
        assert code == 2
        assert "cannot read" in err

    def test_path_is_opened_as_given(self, capsys):
        # a trailing slash names a directory, so a regular file behind it is unreadable
        code, out, err = run_cli(capsys, "check", bundled("gamma") + "/")
        assert (code, out) == (2, "")
        assert "cannot read" in err and "Not a directory" in err

    def test_undecodable_file(self, tmp_path, capsys):
        doc = tmp_path / "latin1.json"
        doc.write_bytes(b'{"n": 1, "pairs": [[0, 0]], "note": "\xe9"}')
        code, out, err = run_cli(capsys, "check", str(doc))
        assert (code, out) == (2, "")
        assert err.startswith("finrel: error: ") and "codec can't decode" in err
        assert f"cannot read {doc}: " in err

    def test_huge_carrier_rejected_before_allocating(self, tmp_path, capsys):
        doc = tmp_path / "huge.json"
        doc.write_text('{"n": 1000000000, "pairs": []}', encoding="utf-8")
        code, out, err = run_cli(capsys, "check", str(doc))
        assert code == 2
        assert out == ""
        assert "field 'n'" in err and "exceeds" in err

    def test_deeply_nested_json_is_a_parse_error(self, tmp_path, capsys):
        doc = tmp_path / "deep.json"
        doc.write_text('{"n": 1, "pairs": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
        code, out, err = run_cli(capsys, "check", str(doc))
        assert code == 2
        assert out == ""
        assert "malformed JSON" in err

    def test_stdout_byte_for_byte(self, tmp_path, capsys):
        for path, n, f in small_documents(tmp_path):
            assert run_cli(capsys, "check", path) == (0, reference_check(n, f), ""), path

    def test_matrix_and_json_give_same_report(self, tmp_path, capsys):
        f = gamma_relation()
        a = tmp_path / "g.json"
        a.write_text(serialize_relation(f, "json"), encoding="utf-8")
        b = tmp_path / "g.txt"
        b.write_text(serialize_relation(f, "matrix"), encoding="utf-8")
        _, out_a, _ = run_cli(capsys, "check", str(a))
        _, out_b, _ = run_cli(capsys, "check", str(b))
        assert out_a == out_b


class TestWitnessCommand:
    def test_stage_two_needs_seed(self, capsys):
        code, _, err = run_cli(capsys, "witness", bundled("gamma"), "--lemma", "2")
        assert code == 2
        assert "--seed" in err

    def test_stage_two(self, capsys):
        code, out, _ = run_cli(capsys, "witness", bundled("gamma"),
                               "--lemma", "2", "--seed", "0,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "gamma_from_seed"
        assert doc["seed"] == [0, 1]
        assert doc["result"] == [0, 1]

    def test_restriction_reported(self, tmp_path, capsys):
        p = tmp_path / "ns.json"
        p.write_text('{"n":3,"pairs":[[0,0],[0,1],[1,1],[2,0],[2,1]]}', encoding="utf-8")
        code, out, _ = run_cli(capsys, "witness", str(p))
        assert code == 0
        assert json.loads(out)["restricted_to"] == [0, 1]

    def test_precondition_violation_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "witness", bundled("t"))
        assert code == 2
        assert "nontrivial" in err

    @pytest.mark.parametrize("lemma", [[], ["--lemma", "theorem"], ["--lemma", "1"]],
                             ids=["default", "theorem", "1"])
    def test_seed_needs_lemma_two(self, capsys, lemma):
        name = lemma[1] if lemma else "theorem"
        assert run_cli(capsys, "witness", bundled("gamma"), *lemma, "--seed", "0,1") == (
            2, "", f"finrel: error: --seed applies only to --lemma 2, not --lemma {name}\n")

    def test_bad_seed_syntax(self, capsys):
        code, _, err = run_cli(capsys, "witness", bundled("gamma"),
                               "--lemma", "2", "--seed", "0;1")
        assert code == 2
        assert "--seed" in err

    def test_pipeline_text_on_a_non_surjective_relation(self, tmp_path, capsys):
        # key order and layout are part of the output, not only the values
        p = tmp_path / "ns.json"
        p.write_text('{"n":3,"pairs":[[0,0],[0,1],[1,1],[2,0],[2,1]]}', encoding="utf-8")
        code, out, err = run_cli(capsys, "witness", str(p))
        expected = {
            "witness": [0, 1],
            "reflexive_stage": {"kind": "reflexive_pair", "chain": [], "seed": None,
                                "result": [1, 0]},
            "extension_stage": {"kind": "gamma_from_seed", "chain": [0], "seed": [1, 0],
                                "result": [1, 0]},
            "restricted_to": [0, 1],
        }
        assert (code, err) == (0, "")
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_lemma_texts(self, capsys):
        _, out, _ = run_cli(capsys, "witness", bundled("gamma"), "--lemma", "1")
        assert out == json.dumps({"kind": "reflexive_pair", "chain": [], "seed": None,
                                  "result": [1, 0]}, indent=2) + "\n"
        _, out, _ = run_cli(capsys, "witness", bundled("gamma"), "--lemma", "2", "--seed", "0,1")
        assert out == json.dumps({"kind": "gamma_from_seed", "chain": [1], "seed": [0, 1],
                                  "result": [0, 1]}, indent=2) + "\n"

    def test_negative_seed_is_out_of_range(self, capsys):
        code, out, err = run_cli(capsys, "witness", bundled("gamma"),
                                 "--lemma", "2", "--seed=-1,0")
        assert code == 2
        assert out == ""
        assert err == "finrel: error: seed points out of range\n"

    # int() reads each of these; the seed wants an optional '-' then ASCII digits
    @pytest.mark.parametrize("seed", ["0,1_0", "\u0663,0", "+0,1", " 0,1", "0,1 ", "0,"])
    def test_seed_wants_ascii_integers(self, capsys, seed):
        assert parser_error(capsys, "witness", bundled("gamma"), "--lemma", "2",
                            f"--seed={seed}") == (
            f"finrel witness: error: argument --seed: wants two integers 'x,y'; got {seed!r}")


class TestSurveyCommand:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "survey", "--n", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"]["full"] == 9
        assert doc["counts"]["idempotent_full"] == 6
        assert doc["counterexamples"] == []
        assert doc["mode"] == "all"

    def test_byte_identical_stdout(self, capsys):
        _, out1, _ = run_cli(capsys, "survey", "--n", "3", "--json")
        _, out2, _ = run_cli(capsys, "survey", "--n", "3", "--json")
        assert out1 == out2

    def test_elapsed_goes_to_stderr(self, capsys):
        _, out, err = run_cli(capsys, "survey", "--n", "2")
        assert "elapsed" in err
        assert "elapsed" not in out

    def test_up_to_iso(self, capsys):
        code, out, _ = run_cli(capsys, "survey", "--n", "2", "--up-to-iso", "--json")
        assert code == 0
        assert json.loads(out)["mode"] == "up_to_iso"

    def test_up_to_iso_over_cap(self, capsys):
        code, out, err = run_cli(capsys, "survey", "--n", "6", "--up-to-iso")
        assert code == 2
        assert out == ""
        assert "outside" in err

    def test_workers_do_not_change_output(self, capsys):
        _, out1, _ = run_cli(capsys, "survey", "--n", "3")
        _, out2, _ = run_cli(capsys, "survey", "--n", "3", "--workers", "3")
        assert out1 == out2

    def test_over_cap(self, capsys):
        code, _, err = run_cli(capsys, "survey", "--n", "6")
        assert code == 2
        assert "outside" in err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_must_be_positive(self, capsys, workers):
        code, out, err = run_cli(capsys, "survey", "--n", "2", "--workers", workers)
        assert code == 2
        assert out == ""
        assert "workers" in err

    # int() reads each of these; the integer flags want an optional '-' then ASCII digits
    @pytest.mark.parametrize("n", ["\u0663", "1_0", "+3", " 3", "3 ", "\uff13"])
    def test_n_wants_ascii_integers(self, capsys, n):
        code, out, err = run_cli(capsys, "survey", f"--n={n}")
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument --n: wants an integer; got {n!r}\n")

    @pytest.mark.parametrize("workers", ["\u0663", "1_0", "+3", " 3"])
    def test_workers_wants_ascii_integers(self, capsys, workers):
        code, out, err = run_cli(capsys, "survey", "--n", "2", f"--workers={workers}")
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument --workers: wants an integer; got {workers!r}\n")

    def test_counterexamples_flip_exit_code(self, capsys, monkeypatch):
        import finrel.census as census_mod
        real = census_mod.survey

        def doctored(n, mode="all"):
            report = real(n, mode=mode)
            return report._replace(counterexamples=({"n": n, "pairs": [], "reason": "forced"},),
                                   counterexample_total=1)

        monkeypatch.setattr(census_mod, "survey", doctored)
        code, out, _ = run_cli(capsys, "survey", "--n", "2")
        assert code == 1
        assert out.splitlines()[1].endswith(",1")


class TestMahavierCommand:
    def test_transpose(self, capsys):
        code, out, _ = run_cli(capsys, "mahavier", bundled("gamma"),
                               "--length", "3", "--transpose")
        assert code == 0
        assert out.splitlines() == ["0 0 0", "0 0 1", "0 1 1", "1 1 1"]

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "mahavier", bundled("gamma"),
                               "--length", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 4
        assert doc["is_coordinatewise_chain"] is True
        assert doc["threads"][0] == [0, 0, 0]

    def test_json_byte_for_byte(self, tmp_path, capsys):
        for path, n, f in small_documents(tmp_path):
            for m in (1, 2, 3):
                expected = (0, reference_threads_json(n, f, m), "")
                got = run_cli(capsys, "mahavier", path, "--length", str(m), "--json")
                assert got == expected, (path, m)
                transposed = (0, reference_threads_json(n, o.o_inverse(f), m), "")
                got = run_cli(capsys, "mahavier", path, "--length", str(m), "--json", "--transpose")
                assert got == transposed, (path, m)

    def test_json_memory_does_not_grow_with_the_threads(self, monkeypatch):
        # 301 threads of 300 points: holding them all takes about 8 MiB, streaming under 0.1 MiB
        argv = ["mahavier", bundled("gamma"), "--length", "300", "--json"]
        with open(os.devnull, "w", encoding="utf-8") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            assert run(argv[:3] + ["1", "--json"]) == 0  # imports outside the trace
            tracemalloc.start()
            try:
                assert run(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2 << 20

    def test_bad_length(self, capsys):
        code, _, err = run_cli(capsys, "mahavier", bundled("gamma"), "--length", "0")
        assert code == 2
        assert "positive" in err

    @pytest.mark.parametrize("length", ["1_0", "\u0663", "+3", " 3", "3 "])
    def test_length_wants_ascii_integers(self, capsys, length):
        code, out, err = run_cli(capsys, "mahavier", bundled("gamma"), f"--length={length}",
                                 "--count-only")
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument --length: wants an integer; got {length!r}\n")

    def test_count_only_bad_length(self, capsys):
        code, _, err = run_cli(capsys, "mahavier", bundled("gamma"), "--length", "0",
                               "--count-only")
        assert code == 2
        assert "positive" in err

    @pytest.mark.parametrize("flags", [["--count-only"], ["--json"], []])
    def test_length_past_the_cap(self, capsys, flags):
        code, out, err = run_cli(capsys, "mahavier", bundled("gamma"),
                                 "--length", "10000000000", *flags)
        assert code == 2
        assert out == "" and "exceeds the cap" in err

    def test_count_at_the_length_cap(self, tmp_path, capsys):
        one = tmp_path / "one.json"
        one.write_text('{"n": 1, "pairs": [[0, 0]]}', encoding="utf-8")
        code, out, _ = run_cli(capsys, "mahavier", str(one), "--length", str(MAX_LENGTH),
                               "--count-only")
        assert code == 0
        assert out == "1\n"

    def test_count_only_prints_counts_of_any_size(self, tmp_path, capsys):
        square = tmp_path / "square.txt"
        square.write_text("11\n11\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "mahavier", str(square), "--length", "15000",
                               "--count-only")
        assert code == 0
        assert len(out) == 4516 + 1  # 2**15000 has 4516 decimal digits
        assert Decimal(out) == 2 ** 15000


class TestOpCommand:
    def test_compose(self, tmp_path, capsys):
        p = tmp_path / "t.json"
        p.write_text(serialize_relation(
            Relation.from_pairs(3, [(0, 0), (1, 1), (2, 0), (2, 1)]), "json"), encoding="utf-8")
        code, out, _ = run_cli(capsys, "op", "compose", str(p), str(p))
        assert code == 0
        assert json.loads(out)["pairs"] == [[0, 0], [1, 1], [2, 0], [2, 1]]

    def test_restrict(self, capsys):
        code, out, _ = run_cli(capsys, "op", "restrict", bundled("gamma"),
                               "--points", "1")
        assert code == 0
        assert json.loads(out)["pairs"] == [[1, 1]]

    @pytest.mark.parametrize("points", ["1_0,\u0663", "10,+3", "10, 3", "\uff11"])
    def test_restrict_wants_ascii_integers(self, tmp_path, capsys, points):
        # on the identity on 11 points int() would read '1_0,\u0663' as points 10 and 3
        p = tmp_path / "identity.json"
        p.write_text(serialize_relation(identity(11), "json"), encoding="utf-8")
        assert parser_error(capsys, "op", "restrict", str(p), "--points", points) == (
            "finrel op restrict: error: argument --points: wants comma-separated integers; "
            f"got {points!r}")
        code, out, _ = run_cli(capsys, "op", "restrict", str(p), "--points", "10,3,")
        assert code == 0
        assert json.loads(out)["pairs"] == [[3, 3], [10, 10]]

    def test_restrict_needs_points(self, capsys):
        code, _, err = run_cli(capsys, "op", "restrict", bundled("gamma"))
        assert code == 2
        assert "--points" in err

    def test_carrier_mismatch_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "op", "compose", bundled("gamma"), bundled("t"))
        assert code == 2
        assert "mismatch" in err

    @pytest.mark.parametrize("argv,message", [
        (["inverse", bundled("gamma"), bundled("t")],
         f"finrel: error: unrecognized arguments: {bundled('t')}"),
        (["restrict", bundled("gamma"), bundled("t"), "--points", "0"],
         f"finrel: error: unrecognized arguments: {bundled('t')}"),
        (["restrict", bundled("gamma"), "--points", "x,1"],
         "finrel op restrict: error: argument --points: wants comma-separated integers; "
         "got 'x,1'"),
        (["inverse", bundled("gamma"), "--points", "0"],
         "finrel: error: unrecognized arguments: --points 0"),
        (["compose", bundled("gamma"), bundled("gamma"), "--points", "0,1"],
         "finrel: error: unrecognized arguments: --points 0,1"),
    ], ids=["inverse_two_files", "restrict_two_files", "restrict_bad_points",
            "inverse_points", "compose_points"])
    def test_usage_errors(self, capsys, argv, message):
        assert parser_error(capsys, "op", *argv) == message

    @pytest.mark.parametrize("option", [["--form", "matrix"], ["--points", "0"]],
                             ids=["form", "points"])
    def test_options_follow_the_operation(self, capsys, option):
        # each operation has its own parser; before the name, the option's value reads as one
        line = parser_error(capsys, "op", *option, "restrict", bundled("gamma"), "--points", "0")
        assert line.startswith("finrel op: error: argument operation: invalid choice: ")
        assert option[1] in line

    def test_pairs_that_are_not_a_list(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"n": 2, "pairs": 5}', encoding="utf-8")
        assert run_cli(capsys, "op", "inverse", str(p)) == (
            2, "", "finrel: error: field 'pairs': expected a list of [x, y] pairs\n")


class TestRepeatedRuns:
    def test_no_argument_state_leaks_between_runs(self, capsys):
        code, out, err = run_cli(capsys, "check", bundled("t"), "--expect", "trivial=true")
        assert code == 0 and err == ""
        assert json.loads(out)["trivial"] is True
        code, out, err = run_cli(capsys, "check", bundled("gamma"))
        assert code == 0
        assert "check:" not in err
        assert json.loads(out)["trivial"] is False
        code, out, _ = run_cli(capsys, "survey", "--n", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "all" and doc["counts"]["full"] == 9


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "check", bundled("t"), "--frobnicate")
        assert code == 2
        assert "usage" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 2
        assert "usage" in err

    def test_no_arguments(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2

    @pytest.mark.parametrize("argv,named", [
        (["check", "MISSING", "--expect", "shiny=true"], "argument --expect: "),
        (["witness", "MISSING", "--lemma", "2", "--seed", "0;1"], "argument --seed: "),
        (["witness", "MISSING", "--lemma", "2"], "--lemma 2 requires --seed"),
        (["op", "restrict", "MISSING", "--points", "x"], "argument --points: "),
        (["op", "compose", "MISSING"], "arguments are required: G"),
        (["op", "inverse", "MISSING", "--points", "0"], "unrecognized arguments: --points 0"),
    ], ids=["expect", "seed", "lemma_two_without_seed", "points", "compose_one_file",
            "inverse_points"])
    def test_reported_before_any_file_is_read(self, tmp_path, capsys, argv, named):
        missing = str(tmp_path / "missing.json")
        code, out, err = run_cli(capsys, *[missing if a == "MISSING" else a for a in argv])
        assert (code, out) == (2, "")
        assert named in err and "cannot read" not in err

    @pytest.mark.parametrize("argv,flag,head", [
        (["survey"], "--n", ""),
        (["mahavier", "MISSING"], "--length", "-"),
        (["witness", "MISSING", "--lemma", "2"], "--seed", "0,"),
        (["op", "restrict", "MISSING"], "--points", "0,,"),
    ], ids=["n", "length", "seed", "points"])
    def test_integer_past_the_digit_limit(self, capsys, argv, flag, head):
        # int() refuses more than sys.get_int_max_str_digits() digits, 4,300 by default
        digits = "1" * 5_000
        code, out, err = run_cli(capsys, *argv, flag, head + digits)
        assert (code, out) == (2, "")
        assert f"argument {flag}: wants " in err and "invalid parse value" not in err
        assert f"got {head + digits[:39 - len(head)] + '…'!r}" in err  # a long value, cut


HELP = Path(__file__).resolve().parent / "help"


def parsers(parser: argparse.ArgumentParser):
    """The parser and every sub-parser under it, depth first."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from parsers(sub)


class TestHelp:
    # tests/help/<command>.txt holds `finrel <command> --help` at COLUMNS=80 as
    # argparse's own formatter writes it, on every supported Python
    def test_every_parser_has_a_frozen_text(self):
        names = {p.prog.removeprefix("finrel ").replace(" ", "-") for p in parsers(build_parser())}
        assert names == {path.stem for path in HELP.glob("*.txt")} and len(names) == 9

    @pytest.mark.parametrize("name", sorted(path.stem for path in HELP.glob("*.txt")))
    def test_help_at_80_columns(self, name, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [] if name == "finrel" else name.split("-")
        with pytest.raises(SystemExit) as done:
            build_parser.__wrapped__().parse_args([*argv, "--help"])
        assert done.value.code == 0
        assert capsys.readouterr().out == (HELP / f"{name}.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize("columns", ["40", "0", "-3", "x", None])
    def test_help_width_is_the_one_argparse_reads(self, columns, monkeypatch):
        # argparse's own formatter asks shutil for the width; narrow texts are not
        # frozen, as Python versions wrap a long usage line differently
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        for parser in parsers(build_parser.__wrapped__()):
            ours = parser.format_help()
            parser.formatter_class = argparse.HelpFormatter
            assert ours == parser.format_help(), parser.prog


DOCUMENTS = st.one_of(
    st.text(max_size=60),
    st.sampled_from(["gamma", "t"]).map(
        lambda name: Path(bundled(name)).read_text(encoding="utf-8")),
    relations(max_n=4).map(lambda f: serialize_relation(f, "json")),
    relations(max_n=4).map(lambda f: serialize_relation(f, "matrix")),
)
JUNK = st.one_of(st.sampled_from(["-1", "0", "1", "2", "0,1", "x", "", "--json", "-h"]),
                 st.text(max_size=8))


@st.composite
def cli_arguments(draw, path, other):
    """One command line over the documents at ``path`` and ``other``."""
    maybe = lambda *flag: list(flag) if draw(st.booleans()) else []
    command = draw(st.sampled_from(["check", "witness", "op", "mahavier"]))
    if command == "check":
        expects = draw(st.lists(st.one_of(
            st.sampled_from(["gamma=true", "trivial=false", "full=1"]), JUNK), max_size=2))
        args = [path] + [arg for flag in expects for arg in ("--expect", flag)]
    elif command == "witness":
        args = ([path] + maybe("--lemma", draw(st.sampled_from(["1", "2", "theorem", "3"])))
                + maybe("--seed", draw(JUNK)))
    elif command == "op":
        operation = draw(st.sampled_from(["compose", "inverse", "restrict", "frobnicate"]))
        args = ([operation] + [path, other][:draw(st.integers(1, 2))]
                + maybe("--points", draw(JUNK))
                + maybe("--form", draw(st.sampled_from(["json", "matrix", "csv"]))))
    else:
        count_only = draw(st.booleans())
        longest = 600 if count_only else 6
        args = ([path, "--length", str(draw(st.integers(-1, longest)))]
                + (["--count-only"] if count_only else [])
                + maybe("--transpose") + maybe("--json"))
    return [command] + args + maybe(draw(JUNK))


class TestFuzzCli:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), DOCUMENTS, DOCUMENTS)
    def test_exit_code_without_exceptions(self, data, text, other_text):
        with tempfile.TemporaryDirectory() as tmp:
            path, other = os.path.join(tmp, "a"), os.path.join(tmp, "b")
            Path(path).write_text(text, encoding="utf-8", errors="surrogatepass")
            Path(other).write_text(other_text, encoding="utf-8", errors="surrogatepass")
            argv = data.draw(cli_arguments(path, other))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = run(argv)
        assert code in (0, 1, 2), argv


class TestDependencies:
    @staticmethod
    def start(probe: str, *argv: str) -> str:
        """Stdout of ``probe`` run in a fresh ``python3 -S``; site hooks may import anything."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-S", "-c", probe, *argv], env=env,
                              capture_output=True, text=True, encoding="utf-8")
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_start_loads_only_the_cli(self):
        probe = ("import sys, finrel, finrel.cli; finrel.cli.build_parser(); "
                 "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'finrel'), "
                 "sorted({'json', 'typing'} & set(sys.modules)))")
        assert self.start(probe) == "['finrel', 'finrel.cli'] []\n"

    def test_import_loads_no_numpy(self):
        probe = "import sys, finrel, finrel.cli; print('numpy' in sys.modules)"
        assert self.start(probe) == "False\n"

    def test_import_loads_no_thread_pool(self):
        probe = "import sys, finrel, finrel.cli; print('concurrent.futures' in sys.modules)"
        assert self.start(probe) == "False\n"

    def test_start_loads_no_dataclasses_inspect_or_pathlib(self):
        probe = ("import sys, finrel, finrel.cli; finrel.cli.build_parser(); "
                 "print(sorted({'dataclasses', 'inspect', 'pathlib', 'shutil', 'bz2', 'lzma'} "
                 "& set(sys.modules)))")
        assert self.start(probe) == "[]\n"

    @pytest.mark.parametrize("argv,absent", [
        (["op", "inverse", bundled("gamma")], {"finrel.census", "finrel.mahavier", "finrel.witness"}),
        (["survey", "--n", "2"], {"finrel.io", "finrel.mahavier"}),
        (["check", bundled("gamma")], {"finrel.census", "finrel.mahavier", "finrel.witness"}),
        (["witness", bundled("gamma")], {"finrel.census", "finrel.mahavier"}),
        (["mahavier", bundled("gamma"), "--length", "3", "--count-only"],
         {"finrel.census", "finrel.witness"}),
    ], ids=["op-inverse", "survey", "check", "witness", "mahavier"])
    def test_each_command_loads_only_its_modules(self, argv, absent):
        probe = ("import sys; from finrel.cli import run; code = run(sys.argv[1:]); "
                 "print(code, *sorted(m for m in sys.modules "
                 "if m.startswith('finrel.') or m == 'typing'))")
        code, *loaded = self.start(probe, *argv).splitlines()[-1].split()
        assert code == "0"
        assert "finrel.core" in loaded and not (absent | {"typing"}) & set(loaded)

    def test_package_binds_every_public_name_on_first_use(self):
        probe = textwrap.dedent("""\
            import sys, finrel

            def unknown():
                try:
                    finrel.nope
                except AttributeError as exc:
                    return str(exc)

            assert set(finrel.__all__) <= set(dir(finrel))
            assert unknown() == "module 'finrel' has no attribute 'nope'"
            assert not set(finrel.__all__) & set(vars(finrel))
            names = {}
            exec("from finrel import *", names)
            del names["__builtins__"]
            assert sorted(names) == sorted(finrel.__all__) and len(names) == 30
            # bound once: later reads never reach a module __getattr__
            assert set(finrel.__all__) <= set(vars(finrel)) and "__getattr__" not in vars(finrel)
            for name in finrel.__all__:
                obj = getattr(finrel, name)
                assert obj is names[name] is getattr(sys.modules[obj.__module__], name), name
            assert set(finrel.__all__) <= set(dir(finrel))
            assert unknown() == "module 'finrel' has no attribute 'nope'"
            assert not {"typing", "importlib"} & set(sys.modules)
            print("ok")
        """)
        assert self.start(probe) == "ok\n"

    def test_module_entry_point(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-m", "finrel", "mahavier", bundled("gamma"),
             "--length", "10", "--count-only"],
            env=env, capture_output=True, text=True, encoding="utf-8", check=True)
        assert done.stdout == "11\n"

    def test_documents_are_read_as_utf_8(self):
        # with the locale's encoding, open() warns, and here the warning is an error
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "finrel", "check", bundled("t")],
            env=env, capture_output=True, text=True, encoding="utf-8")
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout)["trivial"] is True

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
    def test_closed_stdout_ends_the_run_quietly(self):
        # the reader leaves after one byte of 2,001 threads: the run ends by
        # SIGPIPE, as any filter does, with no BrokenPipeError traceback
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        with subprocess.Popen(
                [sys.executable, "-m", "finrel", "mahavier", bundled("gamma"), "--length", "2000"],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
            assert child.stdout.read(1) == b"0"
            child.stdout.close()
            child.wait(timeout=60)
            assert (child.returncode, child.stderr.read()) == (-signal.SIGPIPE, b"")
