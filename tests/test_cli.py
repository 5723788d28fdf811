import hashlib
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import path_tree, spider, star_tree

import treedex
import treedex.cli as cli
from treedex import check_theorem, parse_tree, values_close
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

    def test_tiny_value_is_not_printed_as_zero(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n"))
        code, out, _ = run(capsys, "index", "--input", "-", "--a", "1e-10")
        assert code == 0 and out == "2e-10\n"

    def test_negative_vertex_validation_error(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("0 -1\n"))
        code, out, err = run(capsys, "index", "--input", "-", "--alpha", "2")
        assert code == 2 and out == ""
        assert "line 1: negative vertex id" in err

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

    @pytest.mark.parametrize("argv, message", (
        (("--theorem", "star", "--n", "3"), "all trees are defined for n >= 4"),
        (("--theorem", "pt-spider", "--n", "5", "--n1", "3"), "families are defined for n >= 6"),
    ))
    def test_below_the_family_floor_validation_error(self, capsys, argv, message):
        code, out, err = run(capsys, "bound", *argv, "--alpha", "2")
        assert code == 2 and out == ""
        assert message in err

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

    @pytest.mark.parametrize("n, alpha", [
        ("10", "300"),  # 9**300 + 9, far above 2**53: a float's integer digits are not exact
        ("6", "0.5"),  # sqrt(5) + 5
    ])
    def test_non_integer_text_is_the_json_repr(self, capsys, n, alpha):
        argv = ("bound", "--theorem", "star", "--n", n, "--alpha", alpha)
        code, out, _ = run(capsys, *argv)
        _, json_out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert out.split("\n")[0] == repr(json.loads(json_out)["value"])

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
        code, out, err = run(capsys, "enumerate", "--n", "5", "--family", "pt", "--param", "3")
        assert code == 2 and out == ""
        assert err == "treedex: families are defined for n >= 6\n"

    def test_family_without_param_usage_error(self, capsys):
        code, _, _ = run(capsys, "enumerate", "--n", "6", "--family", "pt")
        assert code == 1

    def test_out_file(self, capsys, tmp_path):
        f = tmp_path / "trees.txt"
        code, out, _ = run(capsys, "enumerate", "--n", "4", "--out", str(f))
        assert code == 0 and out == ""
        assert len(f.read_text().strip().split("\n\n")) == 2

    def test_family_bytes(self, capsys, tmp_path):
        # sha256 of the listing when it was joined into one string before writing
        golden = "568370acd228c7b6496afaf7af0c2e0f6be061c46f616a6c70c0752b53b6e4fb"
        argv = ["enumerate", "--n", "12", "--family", "bt", "--param", "3"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == golden
        f = tmp_path / "trees.txt"
        code, out, _ = run(capsys, *argv, "--out", str(f))
        assert code == 0 and out == ""
        assert hashlib.sha256(f.read_bytes()).hexdigest() == golden

    def test_no_trees_write_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(treedex.cli, "free_trees", lambda n: iter(()))
        code, out, _ = run(capsys, "enumerate", "--n", "6")
        assert code == 0 and out == ""
        f = tmp_path / "trees.txt"
        code, out, _ = run(capsys, "enumerate", "--n", "6", "--out", str(f))
        assert code == 0 and out == "" and f.read_bytes() == b""

    def test_order_cap_leaves_no_file(self, capsys, tmp_path):
        f = tmp_path / "trees.txt"
        code, out, err = run(capsys, "enumerate", "--n", "19", "--out", str(f))
        assert code == 2 and out == ""
        assert err == "treedex: n must be in 2..18\n"
        assert not f.exists()


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
        # timing goes to stderr only, with the witness and output time
        # when cells are written out
        assert re.fullmatch(r"verify: 6 cells in \d+\.\ds, witnesses in \d+\.\ds, "
                            r"output in \d+\.\ds\n", err)

    def test_report_and_json_agree(self, capsys, tmp_path):
        report = tmp_path / "out.json"
        code, out, _ = run(capsys, "verify", "--theorems", "pt-spider,star", "--n", "6..9",
                           "--report", str(report), "--json")
        assert code == 0
        assert out.encode() == report.read_bytes()
        assert len(json.loads(out)) > 0

    def test_orders_below_a_family_make_no_cells(self, capsys):
        # all trees from n = 4, PT/ST/BT from n = 6; smaller n is no error
        code, out, _ = run(capsys, "verify", "--theorems", "all", "--n", "2..6")
        assert code == 0
        _, six, _ = run(capsys, "verify", "--theorems", "all", "--n", "6..6")
        lines = out.splitlines()[:-1]
        assert [x for x in lines if " n=6 " in x] == six.splitlines()[:-1]
        small = [x for x in lines if " n=6 " not in x]
        assert small and all(x.split()[1] == "star" and x.split()[2] in ("n=4", "n=5")
                             for x in small)

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

    @pytest.mark.parametrize("theorems, named", [
        ("pt-spider,zz", "'zz'"),
        ("pt-spider,", "''"),  # a blank entry is named too, not left out
        ("zz,,star", "'zz', ''"),
        (" ", "''"),
    ])
    def test_unknown_theorems_named(self, capsys, theorems, named):
        code, out, err = run(capsys, "verify", "--theorems", theorems, "--n", "6..7")
        assert code == 1 and out == ""
        assert err == f"treedex: error: unknown theorems: {named}\n"

    def test_repeated_theorem_usage_error(self, capsys, tmp_path):
        # each star cell would be checked and written twice
        report = tmp_path / "R"
        code, out, err = run(capsys, "verify", "--theorems", "star,pt-spider,star", "--n", "6..6",
                             "--alpha-grid", "2", "--a-grid", "2", "--report", str(report))
        assert code == 1 and out == ""
        assert err == "treedex: error: bad theorems 'star,pt-spider,star': repeated name 'star'\n"
        assert not report.exists()

    @pytest.mark.parametrize("grid", ("--alpha-grid", "--a-grid"))
    def test_repeated_grid_value_usage_error(self, capsys, tmp_path, grid):
        # 2 and 2.0 are one value, whose cells would be checked and written twice
        report = tmp_path / "R"
        code, out, err = run(capsys, "verify", "--theorems", "all", "--n", "6..6",
                             f"{grid}=2,0.6,2.0", "--report", str(report))
        assert code == 1 and out == ""
        assert err == "treedex: error: bad grid '2,0.6,2.0': repeated value 2.0\n"
        assert not report.exists()

    def test_repeat_at_the_end_of_a_long_grid_named(self, capsys):
        # 19,999 distinct values, then the first one again
        text = ",".join([str(2 + i / 10**5) for i in range(19_999)] + ["2.00000"])
        code, out, err = run(capsys, "verify", "--theorems", "all", "--n", "6..6",
                             f"--a-grid={text}")
        assert code == 1 and out == ""
        assert err == f"treedex: error: bad grid {text!r}: repeated value 2.0\n"

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

    def test_a_failing_run_writes_nothing(self, capsys, monkeypatch):
        # pt-spider's 24 cells are checked before star's closed form
        # overflows, and none of their verdict lines is written
        checked = []

        def recording(theorem, *args, **kwargs):
            checked.append(theorem)
            return check_theorem(theorem, *args, **kwargs)

        monkeypatch.setattr(cli, "check_theorem", recording)
        code, out, err = run(capsys, "verify", "--theorems", "pt-spider,star", "--n", "8..8",
                             "--alpha-grid", "380")
        assert checked == ["pt-spider", "star"]
        assert code == 2 and out == ""
        assert "index value overflows a float: the star closed form at alpha=380.0" in err

    @pytest.mark.parametrize("theorems, cells", (("pt-spider", 4), ("pt-spider,pt-balanced", 8)))
    def test_unclaimed_overflow_makes_no_cell(self, capsys, theorems, cells):
        # the PT bounds claim nothing for a > 1, so a = 1e100 makes no cell
        # and its overflowing closed form is never evaluated
        code, out, err = run(capsys, "verify", "--theorems", theorems, "--n", "8..8",
                             "--alpha-grid", "2", "--a-grid", "1e100")
        assert code == 0 and err.startswith(f"verify: {cells} cells in ")
        assert out.endswith(f"cells: {cells}  confirmed: {cells}  refuted: 0\n")
        assert "a=1e+100" not in out

    def test_claimed_overflow_still_fails(self, capsys):
        # st-star claims a > 1, so its closed form at a = 1e100 is evaluated
        code, out, err = run(capsys, "verify", "--theorems", "st-star", "--n", "8..8",
                             "--alpha-grid", "2", "--a-grid", "1e100")
        assert code == 2 and out == ""
        assert "index value overflows a float: the st-star closed form at a=1e+100" in err

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
        monkeypatch.setattr(treedex.verify, "_witnesses", no_tree)  # its cache may hold classes
        monkeypatch.setattr(treedex.verify, "_census", no_tree)
        code, out, err = run(capsys, "verify", "--theorems", "all", "--n", "6..10")
        assert code == 0 and "REFUTED" in out
        assert re.fullmatch(r"verify: \d+ cells in \d+\.\ds\n", err)

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

    @pytest.mark.parametrize("option", ("--report", "--csv"))
    def test_one_file_alone(self, tmp_path, option):
        # a run that writes one format, in a fresh process, writes the
        # bytes test_golden_bytes pins for n 6..14 (stdout, then the file)
        golden = {
            "--report": "65033741a216208ee70530be3c72d4f96153a151648057f058c8ca720298c780",
            "--csv": "10a9b59461cb64c42b09a52353a944622f0ef4f719dcbb8dbc18412ea9f11793",
        }
        path = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "treedex", "verify", "--theorems", "all", "--n", "6..14",
             option, str(path)],
            capture_output=True, timeout=600,
            env=dict(os.environ, PYTHONPATH=str(Path(treedex.__file__).parents[1])),
        )
        assert proc.returncode == 0, proc.stderr
        assert [hashlib.sha256(data).hexdigest() for data in (proc.stdout, path.read_bytes())] == [
            "30f2351214bae4a654c8a9a58ae53cc6c4505f0fddf065cd0ca56a3bab02441d", golden[option]]

    def test_bytes_to_eighteen(self, tmp_path):
        # sha256 of stdout, --report and --csv at the order cap, in a
        # process of its own; the two files (186 MB) are hashed in chunks
        # and removed here, since pytest keeps its last temporary folders
        report, csv_file = tmp_path / "R", tmp_path / "C"
        proc = subprocess.run(
            [sys.executable, "-m", "treedex", "verify", "--theorems", "all", "--n", "6..18",
             "--report", str(report), "--csv", str(csv_file)],
            capture_output=True, timeout=600,
        )
        try:
            assert proc.returncode == 0, proc.stderr
            digests = [hashlib.sha256(proc.stdout).hexdigest()]
            for path in (report, csv_file):
                digest = hashlib.sha256()
                with open(path, "rb") as f:
                    for chunk in iter(lambda: f.read(1 << 20), b""):
                        digest.update(chunk)
                digests.append(digest.hexdigest())
        finally:
            report.unlink(missing_ok=True)
            csv_file.unlink(missing_ok=True)
        assert digests == [
            "8334fc496fa1e2604f8a17633ae136e472394803020afbad84351a47478f119b",
            "511b289790bf8d805a1ae2dd6fa14bde55a296675ab4e33c7290456ed4a2ea77",
            "6e870f4566135b8bcda69d862d79c855c87c626b79802244a198f56d3bc0bf9d",
        ]


# Orders too large for memory: bound builds its equality sequence's n
# degrees, and construct the whole tree.
HUGE_ORDERS = (
    ("bound", "--theorem", "pt-balanced", "--n", "100000000", "--n1", "3", "--alpha", "2"),
    ("bound", "--theorem", "star", "--n", "10000000000", "--alpha", "2"),
    ("construct", "--theorem", "star", "--n", "10000000"),
)


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize("argv", HUGE_ORDERS, ids=lambda argv: " ".join(argv[:5]))
    def test_out_of_memory_validation_error(self, argv):
        # a 400 MB address-space cap, set in the child alone, makes each
        # run fail soon: one message line and exit 2, not a traceback
        cap = 400 * 2**20
        proc = subprocess.run(
            [sys.executable, "-m", "treedex", *argv], capture_output=True, text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)), timeout=120,
            env=dict(os.environ, PYTHONPATH=str(Path(treedex.__file__).parents[1])),
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"treedex: {argv[0]}: out of memory\n"

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
