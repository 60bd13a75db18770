import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path
from random import Random

import pytest
from hypothesis import given

from finrel import (
    Relation,
    gamma_relation,
    identity,
    inverse,
    parse_relation,
    properties,
    serialize_relation,
)
from finrel.cli import run
from finrel.io import MAX_CARRIER, RelationParseError
from strategies import relations


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

    def test_carrier_limit(self):
        top = '{"n": %d, "pairs": [[%d, 0]]}' % (MAX_CARRIER, MAX_CARRIER - 1)
        assert parse_relation(top).n == MAX_CARRIER
        with pytest.raises(RelationParseError, match="field 'n'.*exceeds"):
            parse_relation('{"n": %d, "pairs": []}' % (MAX_CARRIER + 1))

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

    def test_bundled_gamma(self, capsys):
        code, out, _ = run_cli(capsys, "check", bundled("gamma"))
        assert code == 0
        doc = json.loads(out)
        assert doc["trivial"] is False
        assert doc["gamma"] == [0, 1]
        assert doc["nontriviality_witness"] == [0, 0]

    def test_trivial_null_for_non_full(self, tmp_path, capsys):
        p = tmp_path / "partial.json"
        p.write_text('{"n":2,"pairs":[[0,0]]}')
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
        code, _, err = run_cli(capsys, "check", bundled("t"), "--expect", "shiny=true")
        assert code == 2
        assert "--expect" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "check", "no-such-file.json")
        assert code == 2
        assert "cannot read" in err

    def test_huge_carrier_rejected_before_allocating(self, tmp_path, capsys):
        doc = tmp_path / "huge.json"
        doc.write_text('{"n": 1000000000, "pairs": []}')
        code, out, err = run_cli(capsys, "check", str(doc))
        assert code == 2
        assert out == ""
        assert "field 'n'" in err and "exceeds" in err

    def test_matrix_and_json_give_same_report(self, tmp_path, capsys):
        f = gamma_relation()
        a = tmp_path / "g.json"
        a.write_text(serialize_relation(f, "json"))
        b = tmp_path / "g.txt"
        b.write_text(serialize_relation(f, "matrix"))
        _, out_a, _ = run_cli(capsys, "check", str(a))
        _, out_b, _ = run_cli(capsys, "check", str(b))
        assert out_a == out_b


class TestWitnessCommand:
    def test_stage_one(self, capsys):
        code, out, _ = run_cli(capsys, "witness", bundled("gamma"), "--lemma", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "reflexive_pair"
        assert doc["result"] == [1, 0]

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

    def test_full_pipeline_default(self, capsys):
        code, out, _ = run_cli(capsys, "witness", bundled("gamma"))
        assert code == 0
        doc = json.loads(out)
        assert doc["witness"] == [0, 1]
        assert doc["reflexive_stage"]["result"] == [1, 0]
        assert doc["restricted_to"] is None

    def test_restriction_reported(self, tmp_path, capsys):
        p = tmp_path / "ns.json"
        p.write_text('{"n":3,"pairs":[[0,0],[0,1],[1,1],[2,0],[2,1]]}')
        code, out, _ = run_cli(capsys, "witness", str(p))
        assert code == 0
        assert json.loads(out)["restricted_to"] == [0, 1]

    def test_precondition_violation_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "witness", bundled("t"))
        assert code == 2
        assert "nontrivial" in err

    def test_bad_seed_syntax(self, capsys):
        code, _, err = run_cli(capsys, "witness", bundled("gamma"),
                               "--lemma", "2", "--seed", "0;1")
        assert code == 2
        assert "--seed" in err


class TestSurveyCommand:
    def test_csv_two_points(self, capsys):
        code, out, _ = run_cli(capsys, "survey", "--n", "2")
        assert code == 0
        header, row = out.splitlines()
        assert header.startswith("# finrel survey csv v1:")
        assert row == "2,9,6,3,3,3,0"

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

    def test_up_to_iso_csv_four_points(self, capsys):
        code, out, _ = run_cli(capsys, "survey", "--n", "4", "--up-to-iso")
        assert code == 0
        assert out == (
            "# finrel survey csv v1: n,full,idempotent_full,nontrivial_idempotent,"
            "trivial_idempotent,gamma_idempotent,counterexamples\n"
            "4,2340,80,71,9,71,0\n"
        )

    def test_up_to_iso_json_four_points(self, capsys):
        code, out, _ = run_cli(capsys, "survey", "--n", "4", "--up-to-iso", "--json")
        assert code == 0
        expected = {
            "n": 4,
            "mode": "up_to_iso",
            "counts": {
                "full": 2340,
                "idempotent_full": 80,
                "nontrivial_idempotent": 71,
                "trivial_idempotent": 9,
                "gamma_idempotent": 71,
                "surjective_idempotent": 44,
                "identity_count": 1,
            },
            "counterexamples": [],
        }
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_up_to_iso_over_cap(self, capsys):
        code, out, err = run_cli(capsys, "survey", "--n", "5", "--up-to-iso")
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

    def test_counterexamples_flip_exit_code(self, capsys, monkeypatch):
        import finrel.cli as cli_mod
        real = cli_mod.survey

        def doctored(n, mode="all", workers=1):
            report = real(n, mode=mode, workers=workers)
            from dataclasses import replace
            return replace(report, counterexamples=({"n": n, "pairs": [], "reason": "forced"},))

        monkeypatch.setattr(cli_mod, "survey", doctored)
        code, out, _ = run_cli(capsys, "survey", "--n", "2")
        assert code == 1
        assert out.splitlines()[1].endswith(",1")


class TestMahavierCommand:
    def test_count_only(self, capsys):
        code, out, _ = run_cli(capsys, "mahavier", bundled("gamma"),
                               "--length", "10", "--count-only")
        assert code == 0
        assert out == "11\n"

    def test_thread_lines(self, capsys):
        code, out, _ = run_cli(capsys, "mahavier", bundled("gamma"), "--length", "3")
        assert code == 0
        assert out.splitlines() == ["0 0 0", "1 0 0", "1 1 0", "1 1 1"]

    def test_naive_matches_propagation(self, capsys):
        _, fast, _ = run_cli(capsys, "mahavier", bundled("gamma"), "--length", "6")
        _, slow, _ = run_cli(capsys, "mahavier", bundled("gamma"), "--length", "6", "--naive")
        assert fast == slow

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

    def test_bad_length(self, capsys):
        code, _, err = run_cli(capsys, "mahavier", bundled("gamma"), "--length", "0")
        assert code == 2
        assert "positive" in err


class TestOpCommand:
    def test_compose(self, tmp_path, capsys):
        p = tmp_path / "t.json"
        p.write_text(serialize_relation(
            Relation.from_pairs(3, [(0, 0), (1, 1), (2, 0), (2, 1)]), "json"))
        code, out, _ = run_cli(capsys, "op", "compose", str(p), str(p))
        assert code == 0
        assert json.loads(out)["pairs"] == [[0, 0], [1, 1], [2, 0], [2, 1]]

    def test_inverse_matrix_form(self, capsys):
        code, out, _ = run_cli(capsys, "op", "inverse", bundled("gamma"),
                               "--form", "matrix")
        assert code == 0
        assert out == "10\n11\n"

    def test_restrict(self, capsys):
        code, out, _ = run_cli(capsys, "op", "restrict", bundled("gamma"),
                               "--points", "1")
        assert code == 0
        assert json.loads(out)["pairs"] == [[1, 1]]

    def test_restrict_needs_points(self, capsys):
        code, _, err = run_cli(capsys, "op", "restrict", bundled("gamma"))
        assert code == 2
        assert "--points" in err

    def test_compose_needs_two_files(self, capsys):
        code, _, err = run_cli(capsys, "op", "compose", bundled("gamma"))
        assert code == 2
        assert "two" in err

    def test_carrier_mismatch_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "op", "compose", bundled("gamma"), bundled("t"))
        assert code == 2
        assert "mismatch" in err


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


class TestDependencies:
    def test_import_loads_no_numpy(self):
        src = Path(__file__).resolve().parents[1] / "src"
        probe = "import sys, finrel, finrel.cli; print('numpy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"
