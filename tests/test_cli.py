"""Exit codes, file parsing, and byte-stable output for the CLI."""

import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from relfold import cli
from relfold.smallcancel import Presentation, check_Cprime
from relfold.words import Alphabet, format_word, is_proper_power, random_cyclically_reduced
from oracles import mutate_document

EX_USAGE = 64


def run_cli(argv):
    """Invoke the entry point, flattening argparse's SystemExit."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def write_presentation(path, m, *relators):
    path.write_text(f"rank: {m}\nrelators:\n" + "".join(r + "\n" for r in relators))
    return str(path)


@pytest.fixture(scope="module")
def smooth_relator():
    """A length-300 rank-2 relator passing the piece bound at 1/33."""
    rng = random.Random(4242)
    while True:
        r = random_cyclically_reduced(2, 300, rng)
        if is_proper_power(r):
            continue
        if check_Cprime(Presentation(Alphabet(2), (r,)), Fraction(1, 33)):
            return format_word(r)


SMOOTH_FLAGS = ["--lambda", "1/33", "--mu", "1"]


class TestFractionParsing:
    def test_bare_integer(self):
        assert cli.parse_fraction("1") == Fraction(1)
        assert cli.parse_fraction("12") == Fraction(12)

    def test_ratio(self):
        assert cli.parse_fraction("1/63") == Fraction(1, 63)
        assert cli.parse_fraction("3/4") == Fraction(3, 4)

    @pytest.mark.parametrize("bad", ["0.5", "1e-2", "-1/2", "a/b", "1/0", "0", "0/7", "/3", ""])
    def test_rejects(self, bad):
        with pytest.raises(cli.UsageError):
            cli.parse_fraction(bad)


class TestPresentationFiles:
    def test_round_trip(self, tmp_path):
        path = write_presentation(tmp_path / "p.txt", 2, "abAB", "aab")
        p = cli.load_presentation(path)
        assert p.alphabet.m == 2
        assert p.relators == ((1, 2, -1, -2), (1, 1, 2))

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("\nrank: 3\n\nrelators:\n\n  abc  \n\n")
        p = cli.load_presentation(str(path))
        assert p.alphabet.m == 3
        assert p.relators == ((1, 2, 3),)

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("rank: 2\nrelators:\nab$c\n", 3),
            ("rank: 2\nrelators:\nabA\n", 3),
            ("rank: 2\nrelators:\n1\n", 3),
            ("rank: 2\nab\n", 2),
            ("relators:\nab\n", 1),
            ("rank: 1\nrelators:\na\n", 1),
        ],
    )
    def test_errors_carry_line_numbers(self, tmp_path, text, lineno):
        path = tmp_path / "p.txt"
        path.write_text(text)
        with pytest.raises(cli.UsageError, match=rf"p\.txt:{lineno}:"):
            cli.load_presentation(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("")
        with pytest.raises(cli.UsageError, match="empty"):
            cli.load_presentation(str(path))

    def test_no_relators(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("rank: 2\nrelators:\n")
        with pytest.raises(cli.UsageError, match="no relators"):
            cli.load_presentation(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.UsageError, match="cannot read"):
            cli.load_presentation(str(tmp_path / "absent.txt"))


class TestCheck:
    def test_not_in_class_exits_1(self, tmp_path, capsys):
        path = write_presentation(tmp_path / "p.txt", 2, "aabb")
        assert run_cli(["check", path]) == 1
        assert "NotInClass" in capsys.readouterr().out

    def test_json_shape(self, tmp_path, capsys):
        path = write_presentation(tmp_path / "p.txt", 2, "aabb")
        assert run_cli(["check", path, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "NotInClass"
        assert doc["failed_condition"] == "C1"
        assert doc["C1"]["ok"] is False

    def test_budget_exhaustion_exits_2(self, tmp_path, capsys, default_class_relator):
        path = write_presentation(tmp_path / "p.txt", 2, default_class_relator)
        for budget in ("5", "0"):  # 0 skips the C3 sweep
            code = run_cli(["check", path, "--budget", budget])
            assert code == 2
            assert "Undetermined" in capsys.readouterr().out

    def test_negative_budget_exits_usage(self, tmp_path, capsys, default_class_relator):
        path = write_presentation(tmp_path / "p.txt", 2, default_class_relator)
        assert run_cli(["check", path, "--budget", "-3"]) == EX_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "node budget" in captured.err

    def test_bad_params_exit_usage(self, tmp_path, capsys):
        path = write_presentation(tmp_path / "p.txt", 2, "aabb")
        assert run_cli(["check", path, "--lambda", "1/33"]) == EX_USAGE
        assert "invalid class parameters" in capsys.readouterr().err


class TestReduce:
    def test_whole_group_exits_0_and_writes_trace(self, tmp_path, capsys, smooth_relator):
        pres = write_presentation(tmp_path / "p.txt", 2, smooth_relator)
        trace = tmp_path / "trace.json"
        code = run_cli(["reduce", pres, "aB", "b", *SMOOTH_FLAGS,
                        "--trace", str(trace), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "WholeGroup"
        assert doc["final_tuple"] == ["a", "b"]
        assert trace.exists()
        assert json.loads(trace.read_text())["final_tuple"] == ["a", "b"]

    def test_certified_free_exits_1_without_trace(self, tmp_path, capsys, smooth_relator):
        pres = write_presentation(tmp_path / "p.txt", 2, smooth_relator)
        trace = tmp_path / "trace.json"
        code = run_cli(["reduce", pres, "ab", "ba", *SMOOTH_FLAGS,
                        "--trace", str(trace), "--json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "CertifiedFree"
        assert doc["rank"] == 2
        assert not trace.exists()

    def test_not_in_class_exits_3(self, tmp_path, capsys):
        pres = write_presentation(tmp_path / "p.txt", 2, "aabb")
        code = run_cli(["reduce", pres, "a", "b", "--json"])
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "NotInClass"
        assert doc["condition"] == "C1"

    def test_unwritable_trace_exits_usage(self, tmp_path, capsys, smooth_relator):
        pres = write_presentation(tmp_path / "p.txt", 2, smooth_relator)
        trace = tmp_path / "absent" / "t.json"
        code = run_cli(["reduce", pres, "Ba", "b", *SMOOTH_FLAGS, "--trace", str(trace)])
        assert code == EX_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot write {trace}" in captured.err

    def test_arity_mismatch_exits_usage(self, tmp_path, capsys, smooth_relator):
        pres = write_presentation(tmp_path / "p.txt", 2, smooth_relator)
        assert run_cli(["reduce", pres, "a", *SMOOTH_FLAGS]) == EX_USAGE
        assert "arity" in capsys.readouterr().err

    def test_budget_flag_is_refused(self, tmp_path, capsys, smooth_relator):
        # reduction takes no budget, so the flag is not accepted
        pres = write_presentation(tmp_path / "p.txt", 2, smooth_relator)
        assert run_cli(["reduce", pres, "aB", "b", *SMOOTH_FLAGS, "--budget", "5"]) == EX_USAGE
        assert "--budget" in capsys.readouterr().err


class TestVerify:
    def make_trace(self, tmp_path, smooth_relator):
        pres = write_presentation(tmp_path / "p.txt", 2, smooth_relator)
        trace = tmp_path / "trace.json"
        code = run_cli(["reduce", pres, "Ba", "b", *SMOOTH_FLAGS, "--trace", str(trace)])
        assert code == 0
        return pres, trace

    def test_round_trip_valid(self, tmp_path, capsys, smooth_relator):
        pres, trace = self.make_trace(tmp_path, smooth_relator)
        capsys.readouterr()
        assert run_cli(["verify", pres, str(trace), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"valid": True}

    def test_corrupted_trace_exits_1(self, tmp_path, capsys, smooth_relator):
        pres, trace = self.make_trace(tmp_path, smooth_relator)
        doc = json.loads(trace.read_text())
        doc["conjugator"] = "ab"
        trace.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(["verify", pres, str(trace)]) == 1
        assert "invalid" in capsys.readouterr().out

    def test_malformed_json_exits_usage(self, tmp_path, smooth_relator):
        pres = write_presentation(tmp_path / "p.txt", 2, smooth_relator)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["verify", pres, str(bad)]) == EX_USAGE

    def test_deeply_nested_json_exits_usage(self, tmp_path, capsys, smooth_relator):
        # the decoder recurses once per bracket, so deep nesting must not
        # escape as a RecursionError traceback (exit 1 reads as "invalid")
        pres = write_presentation(tmp_path / "p.txt", 2, smooth_relator)
        bad = tmp_path / "deep.json"
        for text in ("[" * 200000, "[" * 200000 + "]" * 200000):
            bad.write_text(text)
            capsys.readouterr()
            assert run_cli(["verify", pres, str(bad)]) == EX_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{bad}: not valid JSON" in captured.err

    def test_non_trace_document_exits_usage(self, tmp_path, smooth_relator):
        pres = write_presentation(tmp_path / "p.txt", 2, smooth_relator)
        bad = tmp_path / "bad.json"
        bad.write_text('{"valid": true}')
        assert run_cli(["verify", pres, str(bad)]) == EX_USAGE

    @pytest.mark.parametrize("field,bad", [
        ("post_in_pre", "x"), ("post_in_pre", 1.5),
        ("initial_arrangement", "1"), ("initial_arrangement", 1.5),
        ("snapshot", 7), ("kind", "M1"), ("kind", 5),
    ])
    def test_mistyped_trace_exits_usage(self, tmp_path, capsys, smooth_relator, field, bad):
        pres, trace = self.make_trace(tmp_path, smooth_relator)
        doc = json.loads(trace.read_text())
        if field == "initial_arrangement":
            doc[field][0] = bad
        elif field == "kind":
            doc["steps"][0][field] = bad
        else:
            doc["steps"][0][field][0] = [bad] if field == "post_in_pre" else bad
        trace.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(["verify", pres, str(trace)]) == EX_USAGE
        assert "not a trace document" in capsys.readouterr().err

    def test_fuzzed_trace_never_crashes(self, tmp_path, capsys, smooth_relator):
        pres, trace = self.make_trace(tmp_path, smooth_relator)
        original = trace.read_text()
        rng = random.Random(5150)
        for run in range(300):
            doc = json.loads(original)
            mutations = mutate_document(doc, rng)
            trace.write_text(json.dumps(doc))
            capsys.readouterr()
            try:
                code = run_cli(["verify", pres, str(trace)])
            except Exception as exc:  # a crash would print a traceback
                pytest.fail(f"run {run} {mutations}: {exc!r}")
            err = capsys.readouterr().err
            assert code in (0, 1, EX_USAGE), (run, mutations, code)
            assert "Traceback" not in err, (run, mutations)

    def test_loose_presentation_rejected(self, tmp_path, smooth_relator):
        _, trace = self.make_trace(tmp_path, smooth_relator)
        loose = write_presentation(tmp_path / "loose.txt", 2, "aabb")
        assert run_cli(["verify", loose, str(trace)]) == EX_USAGE


class TestIso:
    def test_isomorphic_conditional(self, tmp_path, capsys, smooth_relator):
        rotated = smooth_relator[7:] + smooth_relator[:7]
        p1 = write_presentation(tmp_path / "p1.txt", 2, smooth_relator)
        p2 = write_presentation(tmp_path / "p2.txt", 2, rotated)
        code = run_cli(["iso", p1, p2, "--assume-in-class", *SMOOTH_FLAGS, "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "Isomorphic"
        assert doc["conditional"] is True
        assert doc["certificate"] is not None

    def test_not_isomorphic_exits_1(self, tmp_path, capsys):
        p1 = write_presentation(tmp_path / "p1.txt", 2, "aab")
        p2 = write_presentation(tmp_path / "p2.txt", 2, "abAB")
        code = run_cli(["iso", p1, p2, "--assume-in-class"])
        assert code == 1
        assert "NotIsomorphic" in capsys.readouterr().out

    def test_membership_gate_exits_2(self, tmp_path, capsys):
        p1 = write_presentation(tmp_path / "p1.txt", 2, "aabb")
        p2 = write_presentation(tmp_path / "p2.txt", 2, "abab")
        assert run_cli(["iso", p1, p2]) == 2
        assert "Inapplicable" in capsys.readouterr().out

    def test_negative_budget_exits_usage(self, tmp_path, capsys, default_class_relator):
        path = write_presentation(tmp_path / "p.txt", 2, default_class_relator)
        assert run_cli(["iso", path, path, "--budget", "-1"]) == EX_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "node budget" in captured.err

    def test_huge_rank_exits_usage(self, tmp_path, capsys):
        p1 = write_presentation(tmp_path / "p1.txt", 30, "ab")
        p2 = write_presentation(tmp_path / "p2.txt", 30, "ba")
        assert run_cli(["iso", p1, p2, "--assume-in-class"]) == EX_USAGE
        assert "rank" in capsys.readouterr().err

    def test_alphabet_mismatch_exits_usage(self, tmp_path):
        p1 = write_presentation(tmp_path / "p1.txt", 2, "aab")
        p2 = write_presentation(tmp_path / "p2.txt", 3, "abc")
        assert run_cli(["iso", p1, p2, "--assume-in-class"]) == EX_USAGE


class TestSample:
    BASE = ["sample", "--m", "2", "--n", "1", "--samples", "4", "--seed", "11"]

    def test_single_length_one_row(self, capsys):
        assert run_cli(self.BASE + ["--t", "40"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("t,samples,")
        assert len(lines) == 2
        assert lines[1].startswith("40,4,")

    def test_grid_rows_in_order(self, capsys):
        assert run_cli(self.BASE + ["--t", "40,60,80"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [ln.split(",")[0] for ln in lines[1:]] == ["40", "60", "80"]

    def test_fixed_seed_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(self.BASE + ["--t", "40,60", "--csv", str(out1)]) == 0
        assert run_cli(self.BASE + ["--t", "40,60", "--csv", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sample", "--m", "2", "--n", "1", "--samples", "6", "--t", "200"]
        assert run_cli(args + ["--seed", "1", "--csv", str(out1)]) == 0
        assert run_cli(args + ["--seed", "2", "--csv", str(out2)]) == 0
        # same shape, (almost surely) different tallies; at minimum parse both
        assert out1.read_text().splitlines()[0] == out2.read_text().splitlines()[0]

    def test_unwritable_csv_exits_usage(self, tmp_path, capsys):
        out = tmp_path / "absent" / "x.csv"
        assert run_cli(self.BASE + ["--t", "40", "--csv", str(out)]) == EX_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot write {out}" in captured.err

    def test_seed_required(self, capsys):
        code = run_cli(["sample", "--m", "2", "--n", "1", "--samples", "4", "--t", "40"])
        assert code == EX_USAGE
        assert "--seed" in capsys.readouterr().err

    def test_negative_budget_exits_usage(self, capsys):
        assert run_cli(self.BASE + ["--t", "40", "--budget", "-2"]) == EX_USAGE
        assert "node budget" in capsys.readouterr().err

    def test_bad_t_list(self, capsys):
        assert run_cli(self.BASE + ["--t", "40;60"]) == EX_USAGE
        assert "malformed --t" in capsys.readouterr().err

    @staticmethod
    def run_child(m):
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = ["sample", "--m", str(m), "--t", "4", "--samples", "1", "--seed", "1", "--budget", "10"]
        return subprocess.run([sys.executable, "-m", "relfold.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    def test_letters_past_the_dehn_encoding_exit_usage(self):
        # Drawing at rank 10**12 is O(1) a letter; the Dehn encoding then
        # refuses letters past ±557,039 as a usage error, not a traceback.
        proc = self.run_child(10**12)
        assert proc.returncode == EX_USAGE
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert proc.stderr == "relfold: error: letters past ±557,039 have no Dehn encoding\n"

    def test_rank_within_the_dehn_encoding_answers(self):
        proc = self.run_child(500_000)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "t,samples,pass_c1,pass_c2,pass_c3_checked,pass_all,unknown,fraction_num,fraction_den",
            "4,1,1,1,1,1,0,1,1",
        ]

    def test_json_output(self, capsys):
        assert run_cli(self.BASE + ["--t", "40", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"][0]["t"] == 40
        assert doc["rows"][0]["samples"] == 4


class TestWordCommands:
    def test_readable_generous_budget(self, capsys):
        assert run_cli(["readable", "abABBA"[:4], "--mu", "1"]) == 0
        assert capsys.readouterr().out.strip() == "Readable"

    def test_readable_tight_budget(self, capsys):
        assert run_cli(["readable", "abAB", "--mu", "1/4"]) == 1
        assert capsys.readouterr().out.strip() == "NotReadable"

    def test_readable_unknown_on_tiny_search(self, capsys):
        code = run_cli(["readable", "abABaabbABab", "--mu", "1/3", "--budget", "2"])
        assert code == 2
        assert capsys.readouterr().out.strip() == "Unknown"

    def test_readable_at_huge_rank(self, capsys):
        # Nothing is sized by the rank, so m = 10**12 answers like m = 2.
        assert run_cli(["readable", "abab", "--mu", "2/3", "--m", "1000000000000"]) == 0
        assert capsys.readouterr() == ("Readable\n", "")

    def test_readable_json_witness(self, capsys):
        assert run_cli(["readable", "aa", "--mu", "1/2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "Readable"
        assert len(doc["witness"]["edges"]) == 1
        assert len(doc["witness"]["path"]["steps"]) == 2

    def test_whitehead_min(self, capsys):
        assert run_cli(["whitehead-min", "aab", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["length"] == 1
        assert len(doc["minimal"]) == 1
        assert doc["moves"]

    def test_orbit_equivalent(self, capsys):
        assert run_cli(["orbit", "a", "b", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["equivalent"] is True
        kinds = [mv["kind"] for mv in doc["certificate"]["moves"]]
        assert kinds == ["relabel"]

    def test_orbit_not_equivalent(self, capsys):
        assert run_cli(["orbit", "a", "aBAb"]) == 1
        assert capsys.readouterr().out.strip() == "not equivalent"

    @pytest.mark.parametrize("argv", [
        ["whitehead-min", "aA"],
        ["whitehead-min", "abBA", "--json"],
        ["orbit", "aA", "bB", "--json"],
        ["orbit", "a", "bB"],
    ])
    def test_trivial_word_exits_usage(self, capsys, argv):
        assert run_cli(argv) == EX_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nontrivial" in captured.err

    def test_bad_word_exits_usage(self):
        assert run_cli(["whitehead-min", "a$b"]) == EX_USAGE

    @pytest.mark.parametrize("argv", [
        ["whitehead-min", "ab", "--m", "30"],
        ["orbit", "ab", "ba", "--m", "30"],
    ])
    def test_move_tables_refused_at_huge_rank(self, capsys, argv):
        assert run_cli(argv) == EX_USAGE
        assert "rank" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        # u is reduced and descended before v, so its error comes first
        (["orbit", "a", "1", "--m", "7"], "Whitehead moves are enumerated up to rank 6, got 7"),
        (["orbit", "1", "a", "--m", "7"], "word must be nontrivial"),
    ])
    def test_orbit_reports_first_word_error(self, capsys, argv, message):
        assert run_cli(argv) == EX_USAGE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"relfold: error: {message}\n")

    def test_letter_outside_rank(self):
        assert run_cli(["readable", "abc", "--m", "2", "--mu", "1"]) == EX_USAGE


class TestUsage:
    def test_unknown_subcommand(self):
        assert run_cli(["bogus"]) == EX_USAGE

    def test_no_subcommand(self):
        assert run_cli([]) == EX_USAGE

    def test_json_outputs_key_sorted(self, tmp_path, capsys):
        path = write_presentation(tmp_path / "p.txt", 2, "aabb")
        run_cli(["check", path, "--json"])
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
