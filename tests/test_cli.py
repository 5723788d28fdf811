import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import path_tree, spider, star_tree

import treedex
from treedex import parse_tree, values_close
from treedex.cli import main


@pytest.fixture
def p6(tmp_path):
    f = tmp_path / "p6.edges"
    f.write_text(path_tree(6).edge_text() + "\n")
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# A finite parameter can still overflow the index on a given input.
OVERFLOWING = "1e200"


def rejection(name, bad):
    if bad == OVERFLOWING:
        return "index value overflows a float"
    return f"{name} must be finite"


class TestIndexCommand:
    def test_path6_zagreb(self, capsys, p6):
        code, out, _ = run(capsys, "index", "--input", p6, "--alpha", "2")
        assert code == 0
        assert out.strip() == "18"

    def test_expsum(self, capsys, p6):
        code, out, _ = run(capsys, "index", "--input", p6, "--a", "2")
        assert code == 0 and out.strip() == "36"

    def test_json(self, capsys, p6):
        code, out, _ = run(capsys, "index", "--input", p6, "--alpha", "2", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["value"] == 18.0 and doc["index"] == "r0"

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(star_tree(6).edge_text()))
        code, out, _ = run(capsys, "index", "--input", "-", "--alpha", "2")
        assert code == 0 and out.strip() == "30"

    def test_both_params_usage_error(self, capsys, p6):
        code, _, _ = run(capsys, "index", "--input", p6, "--alpha", "2", "--a", "2")
        assert code == 1

    def test_missing_params_usage_error(self, capsys, p6):
        code, _, _ = run(capsys, "index", "--input", p6)
        assert code == 1

    def test_bad_tree_validation_error(self, capsys, tmp_path):
        f = tmp_path / "bad.edges"
        f.write_text("0 1\n2 3\n")
        code, _, err = run(capsys, "index", "--input", str(f), "--alpha", "2")
        assert code == 2
        assert "disconnected" in err

    def test_invalid_alpha_validation_error(self, capsys, p6):
        code, _, _ = run(capsys, "index", "--input", p6, "--alpha", "1")
        assert code == 2

    @pytest.mark.parametrize("flag", ("--alpha", "--a"))
    @pytest.mark.parametrize("bad", ("nan", "inf", "-inf", OVERFLOWING))
    def test_non_finite_param_validation_error(self, capsys, p6, flag, bad):
        code, out, err = run(capsys, "index", "--input", p6, f"{flag}={bad}")
        assert code == 2 and out == ""
        assert rejection(flag[2:], bad) in err
        assert "(34," not in err


class TestBoundCommand:
    def test_bt_small_example(self, capsys):
        code, out, _ = run(capsys, "bound", "--theorem", "bt-small", "--n", "8",
                           "--b", "1", "--a", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "62"
        assert lines[1] == "degree sequence: 3 2 2 2 2 1 1 1"
        assert lines[2] == "direction: min"

    def test_star_takes_no_param(self, capsys):
        code, out, _ = run(capsys, "bound", "--theorem", "star", "--n", "6", "--alpha", "2")
        assert code == 0 and out.startswith("30")
        code, _, _ = run(capsys, "bound", "--theorem", "star", "--n", "6", "--b", "1",
                         "--alpha", "2")
        assert code == 1

    def test_wrong_param_flag_usage_error(self, capsys):
        code, _, _ = run(capsys, "bound", "--theorem", "pt-spider", "--n", "8",
                         "--k", "3", "--alpha", "2")
        assert code == 1

    def test_bad_constraint_validation_error(self, capsys):
        code, _, _ = run(capsys, "bound", "--theorem", "pt-spider", "--n", "6",
                         "--n1", "2", "--alpha", "2")
        assert code == 2

    @pytest.mark.parametrize("flag", ("--alpha", "--a"))
    @pytest.mark.parametrize("bad", ("nan", "inf", "-inf", OVERFLOWING))
    def test_non_finite_param_validation_error(self, capsys, flag, bad):
        code, out, err = run(capsys, "bound", "--theorem", "pt-spider", "--n", "8",
                             "--n1", "3", f"{flag}={bad}")
        assert code == 2 and out == ""
        assert rejection(flag[2:], bad) in err
        assert "(34," not in err

    def test_unclaimed_regime(self, capsys):
        code, out, _ = run(capsys, "bound", "--theorem", "pt-spider", "--n", "8",
                           "--n1", "3", "--a", "2")
        assert code == 0
        assert "unclaimed" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "bound", "--theorem", "st-parity", "--n", "9",
                           "--k", "4", "--alpha", "2", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["value"] == 36.0
        assert doc["degree_sequence"] == [4, 2, 2, 2, 2, 1, 1, 1, 1]


class TestConstructCommand:
    @pytest.mark.parametrize(
        "theorem,n,flag,param,alpha",
        [
            ("pt-spider", 8, "--n1", "3", "2"),
            ("pt-balanced", 10, "--n1", "7", "-1"),
            ("bt-big", 8, "--b", "2", "2"),
            ("st-parity", 10, "--k", "6", "0.5"),
        ],
    )
    def test_roundtrip_matches_bound(self, capsys, tmp_path, theorem, n, flag, param, alpha):
        out_file = tmp_path / "t.edges"
        code, _, _ = run(capsys, "construct", "--theorem", theorem, "--n", str(n),
                         flag, param, "--out", str(out_file))
        assert code == 0
        code, bound_out, _ = run(capsys, "bound", "--theorem", theorem, "--n", str(n),
                                 flag, param, "--alpha", alpha, "--json")
        bound = json.loads(bound_out)["value"]
        code, idx_out, _ = run(capsys, "index", "--input", str(out_file),
                               "--alpha", alpha, "--json")
        assert values_close(json.loads(idx_out)["value"], bound)

    def test_star_to_stdout(self, capsys):
        code, out, _ = run(capsys, "construct", "--theorem", "star", "--n", "6")
        assert code == 0
        assert parse_tree(out).degree_sequence().degrees == (5, 1, 1, 1, 1, 1)


class TestEnumerateCommand:
    def test_block_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "6")
        assert code == 0
        blocks = [b for b in out.strip().split("\n\n") if b]
        assert len(blocks) == 6
        assert all(parse_tree(b).n == 6 for b in blocks)

    def test_family_filters(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "7", "--family", "st",
                           "--param", "3")
        assert code == 0
        blocks = [b for b in out.strip().split("\n\n") if b]
        assert blocks and all(parse_tree(b).n == 7 for b in blocks)

    def test_family_constraint_error(self, capsys):
        code, _, _ = run(capsys, "enumerate", "--n", "6", "--family", "pt", "--param", "2")
        assert code == 2
        code, _, _ = run(capsys, "enumerate", "--n", "6", "--family", "bt", "--param", "0")
        assert code == 2

    def test_family_without_param_usage_error(self, capsys):
        code, _, _ = run(capsys, "enumerate", "--n", "6", "--family", "pt")
        assert code == 1

    def test_out_file(self, capsys, tmp_path):
        f = tmp_path / "trees.txt"
        code, out, _ = run(capsys, "enumerate", "--n", "4", "--out", str(f))
        assert code == 0 and out == ""
        assert len(f.read_text().strip().split("\n\n")) == 2


class TestTransformCommand:
    def test_p1_with_deltas(self, capsys, tmp_path):
        broom = tmp_path / "broom.edges"
        broom.write_text("0 1\n0 2\n0 3\n0 4\n1 5\n1 6\n1 7\n")
        code, out, _ = run(capsys, "transform", "--lemma", "p1", "--input", str(broom),
                           "--a", "0.5")
        assert code == 0
        assert "transform: p1" in out
        assert "predicted delta: -0.03125" in out
        assert "actual delta: -0.03125" in out

    def test_json_record(self, capsys, tmp_path):
        broom = tmp_path / "broom.edges"
        broom.write_text("0 1\n0 2\n0 3\n0 4\n1 5\n1 6\n1 7\n")
        code, out, _ = run(capsys, "transform", "--lemma", "s1aa", "--input", str(broom),
                           "--alpha", "2", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["predicted_delta"] == doc["actual_delta"] == 6.0
        assert parse_tree(doc["after"]).n == 8

    def test_overflowing_param_validation_error(self, capsys, tmp_path):
        broom = tmp_path / "broom.edges"
        broom.write_text("0 1\n0 2\n0 3\n0 4\n1 5\n1 6\n1 7\n")
        code, out, err = run(capsys, "transform", "--lemma", "p1", "--input", str(broom),
                             "--a", "1e80")
        assert code == 2 and out == ""
        assert "index value overflows a float" in err
        assert "(34," not in err

    def test_inapplicable_is_validation_error(self, capsys, p6):
        code, _, err = run(capsys, "transform", "--lemma", "p1", "--input", p6)
        assert code == 2
        assert "branching" in err


class TestSqueezeCommand:
    def test_path(self, capsys, p6):
        code, out, _ = run(capsys, "squeeze", "--input", p6)
        assert code == 0 and out.strip() == "0 1"

    def test_spider(self, capsys, tmp_path):
        f = tmp_path / "sp.edges"
        f.write_text(spider(2, 2, 2).edge_text())
        code, out, _ = run(capsys, "squeeze", "--input", str(f))
        assert code == 0
        assert parse_tree(out).degree_sequence().degrees == (3, 1, 1, 1)


class TestVerifyCommand:
    def test_report_and_csv(self, capsys, tmp_path):
        report = tmp_path / "out.json"
        csv_file = tmp_path / "out.csv"
        code, out, err = run(capsys, "verify", "--theorems", "star", "--n", "6..8",
                             "--alpha-grid", "2", "--a-grid", "2",
                             "--report", str(report), "--csv", str(csv_file))
        assert code == 0
        doc = json.loads(report.read_text())
        assert len(doc) == 6  # 3 sizes x (alpha + a)
        assert all(c["verdict"] == "CONFIRMED" for c in doc)
        assert csv_file.read_text().startswith("theorem,n,param,")
        assert "CONFIRMED" in out and "cells: 6" in out
        assert "cells in" in err  # timing goes to stderr only

    def test_report_and_json_agree(self, capsys, tmp_path):
        report = tmp_path / "out.json"
        code, out, _ = run(capsys, "verify", "--theorems", "pt-spider,star", "--n", "6..9",
                           "--report", str(report), "--json")
        assert code == 0
        assert out.encode() == report.read_bytes()
        assert len(json.loads(out)) > 0

    def test_refuted_cells_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorems", "pt-spider", "--n", "8",
                           "--alpha-grid", "", "--a-grid", "0.5")
        assert code == 1  # empty alpha grid is a usage error
        code, out, _ = run(capsys, "verify", "--theorems", "pt-spider", "--n", "8..8",
                           "--a-grid", "0.5", "--alpha-grid", "2")
        assert code == 0
        assert "REFUTED" in out

    def test_deterministic_output(self, capsys):
        args = ("verify", "--theorems", "bt-small,bt-big", "--n", "6..8", "--json")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_bad_range(self, capsys):
        code, _, _ = run(capsys, "verify", "--theorems", "all", "--n", "8..6")
        assert code == 1
        code, _, _ = run(capsys, "verify", "--theorems", "all", "--n", "six")
        assert code == 1

    def test_unknown_theorem(self, capsys):
        code, _, _ = run(capsys, "verify", "--theorems", "pt-spider,zz", "--n", "6..7")
        assert code == 1

    @pytest.mark.parametrize("grid", ("--alpha-grid", "--a-grid"))
    @pytest.mark.parametrize("bad", ("nan", "inf", "-inf", OVERFLOWING))
    def test_non_finite_grid_validation_error(self, capsys, grid, bad):
        # a NaN cell would print as REFUTED: a refutation that never happened
        code, out, err = run(capsys, "verify", "--theorems", "all", "--n", "6..6",
                             f"{grid}=2,{bad}")
        assert code == 2 and out == ""
        assert rejection("alpha" if grid == "--alpha-grid" else "a", bad) in err
        assert "(34," not in err

    def test_infinite_sum_validation_error(self, capsys):
        # 5 * a**5 is infinite although a**5 is not; an infinite value is
        # "close" to every value, so cells would print as REFUTED
        code, out, err = run(capsys, "verify", "--theorems", "all", "--n", "6..6",
                             "--a-grid", "3.98e61")
        assert code == 2 and out == ""
        assert "index value overflows a float: a=3.98e+61 at degree 5" in err

    def test_overflow_stays_in_the_scanned_families(self, capsys):
        # 7**380 overflows, but no PT(8, .) sequence has a degree-7 vertex
        code, out, _ = run(capsys, "verify", "--theorems", "pt-spider", "--n", "8..8",
                           "--alpha-grid", "380")
        assert code == 0
        assert out.endswith("cells: 24  confirmed: 15  refuted: 9\n")
        code, out, err = run(capsys, "verify", "--theorems", "star", "--n", "8..8",
                             "--alpha-grid", "380")
        assert code == 2 and out == ""
        assert "index value overflows a float" in err and "(34," not in err

    @pytest.mark.parametrize("files", (False, True))
    def test_order_cap(self, capsys, tmp_path, files):
        argv = ["verify", "--theorems", "star", "--n", "19..19"]
        if files:
            argv += ["--report", str(tmp_path / "R"), "--csv", str(tmp_path / "C")]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "treedex: n must be in 2..18\n"
        assert not any(tmp_path.iterdir())

    def test_stdout_builds_no_tree(self, capsys, monkeypatch):
        def no_tree(*args):
            raise AssertionError("a tree was built for stdout")

        monkeypatch.setattr(treedex.Tree, "__post_init__", no_tree)
        monkeypatch.setattr(treedex.verify, "_witnesses", no_tree)  # its cache may hold trees
        code, out, _ = run(capsys, "verify", "--theorems", "all", "--n", "6..10")
        assert code == 0 and "REFUTED" in out

    def test_golden_bytes(self, capsys, tmp_path):
        # sha256 of stdout, --report and --csv: any refactor must reproduce
        # these bytes exactly, also under python -O, which strips asserts,
        # so no check may rely on one. The default grids at n 6..14, and a
        # grid with values off the defaults in every regime (1,938 cells)
        cases = [
            (["--n", "6..14"], [
                "30f2351214bae4a654c8a9a58ae53cc6c4505f0fddf065cd0ca56a3bab02441d",
                "65033741a216208ee70530be3c72d4f96153a151648057f058c8ca720298c780",
                "10a9b59461cb64c42b09a52353a944622f0ef4f719dcbb8dbc18412ea9f11793",
            ]),
            (["--n", "6..12", "--alpha-grid=-2.5,-0.3,0.25,0.75,1.5,4",
              "--a-grid=0.1,0.35,0.45,0.8,1.2,3"], [
                "b5564b5521f7d0524ce38daa9c01e072e1fefd1f993c849e981ad25e32238e80",
                "a5051d0b1b69e38efcedb13145ddffefbe562b0aa51b69d833ac885b5a423104",
                "bce6f0702d69c55985f587232dfafe8777cd2008afb0fce1b4297f5d2dc93b14",
            ]),
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(treedex.__file__).parents[1]))
        for i, (args, golden) in enumerate(cases):
            argv = ["verify", "--theorems", "all", *args]
            report, csv_file = tmp_path / f"R{i}", tmp_path / f"C{i}"
            code, out, _ = run(capsys, *argv, "--report", str(report), "--csv", str(csv_file))
            assert code == 0
            digests = [hashlib.sha256(data).hexdigest()
                       for data in (out.encode(), report.read_bytes(), csv_file.read_bytes())]
            assert digests == golden

            report, csv_file = tmp_path / f"R{i}-O", tmp_path / f"C{i}-O"
            proc = subprocess.run(
                [sys.executable, "-O", "-m", "treedex", *argv,
                 "--report", str(report), "--csv", str(csv_file)],
                capture_output=True, env=env, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            digests = [hashlib.sha256(data).hexdigest()
                       for data in (proc.stdout, report.read_bytes(), csv_file.read_bytes())]
            assert digests == golden


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
