import csv
import hashlib
import io
import json
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from conftest import all_free_trees
from hypothesis import given
from hypothesis import strategies as st
from reference_census import census_errors
from reference_levels import level_parents, tree_from_levels

import treedex.enumeration as enumeration
import treedex.trees as trees_module
import treedex.verify as verify
from treedex import (
    CONFIRMED,
    DEFAULT_A_GRID,
    DEFAULT_ALPHA_GRID,
    REFUTED,
    DegreeSequence,
    FamilyConstraint,
    Index,
    TheoremReport,
    Tree,
    canonical_code,
    check_monotonicity,
    check_theorem,
    construct_extremal,
    family_members,
    full_report,
    oracle_extremum,
    r0_general,
    reports_to_csv,
    reports_to_json,
    sei,
    sei_of_degseq,
    theorem_bound,
    values_close,
)
from treedex.bounds import THEOREM_DIRECTIONS, THEOREM_FAMILY, THEOREM_NAMES, family_params
from treedex.cli import main
from treedex.enumeration import (
    _census,
    _degree_counts,
    _families,
    _level_sequences,
    _rank_key,
)
from treedex.indices import KEYWORDS
from treedex.trees import _adjacency, _edge_text, _peel_code
from treedex.verify import (
    _WITNESSES,
    CSV_COLUMNS,
    _values,
    _witnesses,
    build_witnesses,
)

ALPHAS = (-1.0, 0.5, 2.0)

# OEIS A000055: free trees on n vertices
FREE_TREE_COUNTS = {6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551, 13: 1301, 14: 3159}


def eager_witnesses(n):
    """Degree sequence -> edge texts of its trees in canonical code order,
    built from every free tree."""
    classes: dict = {}
    for t in all_free_trees(n):
        classes.setdefault(t.degree_sequence(), []).append(t)
    return {ds: tuple(t.edge_text() for t in sorted(trees, key=canonical_code))
            for ds, trees in classes.items()}


def full_census(n):
    """The census of every class of order n."""
    return _census(n, _families(n)[None, None])


def peel_witnesses(n, classes):
    """Degree sequence -> edge texts of its trees in canonical code order,
    for the given classes of order n: each tree's parents decoded from
    its level sequence by the reference decoder, and each member coded
    from its sorted edge list's adjacency lists by the leaf peel."""
    wanted = {_degree_counts(ds): ds for ds in classes}
    coded: dict = {ds: [] for ds in classes}
    for levels, counts, _ in _level_sequences(n):
        if counts in wanted:
            edges = sorted((p, v) for v, p in enumerate(level_parents(levels)) if v)
            coded[wanted[counts]].append((_peel_code(_adjacency(n, edges)), _edge_text(edges)))
    return {ds: tuple(text for _, text in sorted(members)) for ds, members in coded.items()}


class CountingCensus:
    """Stands in for verify._census and records the order and classes of
    each call."""

    def __init__(self):
        self.calls = []
        self.results = []

    def __call__(self, n, wanted):
        wanted = set(wanted)
        self.calls.append((n, wanted))
        self.results.append(_census(n, wanted))
        return self.results[-1]


class TestCensus:
    def test_class_sizes_sum_to_tree_counts(self):
        for n, count in FREE_TREE_COUNTS.items():
            assert sum(map(len, full_census(n).values())) == count

    def test_class_counts_match_trees(self):
        for n in range(2, 13):
            expected = Counter(t.degree_sequence() for t in all_free_trees(n))
            census = full_census(n)
            assert list(census) == sorted(expected, key=lambda ds: ds.degrees)
            assert {ds: len(levels) for ds, levels in census.items()} == expected

    def test_witnesses_match_eager_reference(self):
        for n in range(2, 13):
            for ds, expected in eager_witnesses(n).items():
                assert _witnesses(ds) == expected

    def test_rank_keys_descend_as_codes_ascend(self):
        for n in range(2, 16):
            members = [levels for levels, _, _ in _level_sequences(n)]
            assert len(set(map(_rank_key, members))) == len(members)
            by_code = sorted(members, key=lambda levels: canonical_code(tree_from_levels(levels)))
            assert sorted(members, key=_rank_key, reverse=True) == by_code

    def test_witnesses_match_peel_reference(self):
        for n in range(2, 15):
            for ds, expected in peel_witnesses(n, _families(n)[None, None]).items():
                assert _witnesses(ds) == expected
        # the winning classes of verify-deep's largest orders
        reports = [r for theorem in THEOREM_NAMES for r in check_theorem(theorem, range(15, 18))]
        build_witnesses(reports)
        for n in (15, 16, 17):
            winners = {ds for r in reports for ds in r.optimal_degseqs if len(ds) == n}
            assert winners
            for ds, expected in peel_witnesses(n, winners).items():
                assert _witnesses(ds) == expected


class TestPartitionEngine:
    def test_degree_sequences_are_the_census_classes(self):
        # every tree's degree counts are those of one sequence, and every
        # sequence has a tree
        for n in range(2, 15):
            census = full_census(n)
            assert all(census.values())
            assert sum(map(len, census.values())) == sum(1 for _ in _level_sequences(n))

    def test_census_matches_networkx(self):
        # a second generator: the class sizes of networkx's free trees
        nx = pytest.importorskip("networkx")
        for n in range(2, 17):
            expected = Counter(DegreeSequence(d for _, d in g.degree())
                               for g in nx.nonisomorphic_trees(n))
            assert {ds: len(members) for ds, members in full_census(n).items()} == expected
            assert all(expected[ds] for ds in _families(n)[None, None])

    def test_one_table_per_order(self, monkeypatch):
        # each sequence is made once, asked for each family parameter once,
        # and shared by every group of its order
        calls = Counter()
        family_param = enumeration.family_param

        def counting(kind, ds):
            calls[kind, ds] += 1
            return family_param(kind, ds)

        monkeypatch.setattr(enumeration, "family_param", counting)
        _families.cache_clear()
        orders = range(6, 13)
        for theorem in THEOREM_NAMES:
            check_theorem(theorem, orders)
        assert set(calls.values()) == {1}
        assert set(calls) == {(kind, ds) for kind in (None, "pt", "st", "bt") for n in orders
                              for ds in _families(n)[None, None]}
        for n in orders:
            made = set(map(id, _families(n)[None, None]))
            assert all(id(ds) in made for group in _families(n).values() for ds in group)

    def test_one_sequence_per_partition(self):
        sympy = pytest.importorskip("sympy")
        for n in range(2, 19):
            assert len(_families(n)[None, None]) == sympy.partition(n - 2)

    def test_order_cap(self):
        for n in (1, 19):
            with pytest.raises(ValueError, match=r"n must be in 2\.\.18"):
                _families(n)
        with pytest.raises(ValueError, match=r"n must be in 2\.\.18"):
            oracle_extremum(FamilyConstraint("pt", 19, 3), "min", alpha=2)

    def test_verdicts_never_read_the_census(self, monkeypatch):
        def no_census(*args):
            raise AssertionError("the census fed a verdict")

        def no_tree(self):
            raise AssertionError("a tree was built for a verdict")

        monkeypatch.setattr(verify, "_census", no_census)
        monkeypatch.setattr(verify, "_witnesses", no_census)  # its cache may hold classes
        monkeypatch.setattr(Tree, "__post_init__", no_tree)
        reports = check_theorem("pt-spider", range(6, 10))
        assert reports and {r.verdict for r in reports} == {CONFIRMED, REFUTED}

    def test_each_sequence_evaluated_once(self, monkeypatch):
        # pt-spider and pt-balanced scan the same PT families, star every
        # sequence; the memo must serve every repeat
        calls = Counter()
        of_degseq = Index.of_degseq
        scan_code = verify._scan.__code__

        def counting(index, d):
            if sys._getframe(1).f_code is scan_code:  # bounds evaluates sequences too
                calls[index.x, d] += 1
            return of_degseq(index, d)

        monkeypatch.setattr(Index, "of_degseq", counting)
        _values.cache_clear()
        for theorem in ("pt-spider", "pt-balanced", "star", "pt-spider"):
            check_theorem(theorem, range(6, 10), alpha_grid=(2.0, 3.0), a_grid=())
        expected = {(x, ds.degrees) for x in (2.0, 3.0) for n in range(6, 10)
                    for ds in _families(n)[None, None]}
        assert set(calls) == expected
        assert set(calls.values()) == {1}

    def test_bounds_reuse_the_held_index(self):
        # verify checks a theorem_bound per cell; after the first cell at a
        # grid value, every later call gets the held Index back
        check_theorem("star", range(6, 8))
        misses = Index._of.cache_info().misses
        for index in verify._grid(DEFAULT_ALPHA_GRID, DEFAULT_A_GRID):
            theorem_bound("star", 9, **index.keyword)
        check_theorem("pt-spider", range(6, 9))
        assert Index._of.cache_info().misses == misses

    def test_one_index_per_grid_value(self):
        # _grid writes Index.of(alpha=x), theorem_bound Index.of(alpha=x, a=None):
        # both get the one Index held for (kind, x)
        Index._of.cache_clear()
        check_theorem("pt-spider", range(6, 15))
        assert Index._of.cache_info().misses == len(DEFAULT_ALPHA_GRID) + len(DEFAULT_A_GRID) == 12

    def test_report_witnesses_build_no_tree(self, monkeypatch, tmp_path):
        # every witness is ordered and written from its level sequence,
        # with no Tree and no code; the bytes are those of the Tree-built
        # reference
        reference = {n: eager_witnesses(n) for n in range(6, 10)}
        expected = [[text for ds in r.optimal_degseqs for text in reference[r.n][ds]]
                    for theorem in THEOREM_NAMES for r in check_theorem(theorem, range(6, 10))]

        def no_tree(self):
            raise AssertionError("a witness tree was built")

        def no_code(*args):
            raise AssertionError("a witness tree was coded")

        monkeypatch.setattr(Tree, "__post_init__", no_tree)
        for name in ("_peel_code", "_adjacency"):
            monkeypatch.setattr(trees_module, name, no_code)
            monkeypatch.setattr(verify, name, no_code, raising=False)
        _WITNESSES.clear()
        report = tmp_path / "report.json"
        assert main(["verify", "--theorems", "all", "--n", "6..9", "--report", str(report)]) == 0
        cells = json.loads(report.read_text(encoding="utf-8"))
        assert [cell["witnesses"] for cell in cells] == expected

    def test_lazy_witnesses_of_a_refuted_cell(self):
        reports = check_theorem("pt-spider", range(8, 9), alpha_grid=(), a_grid=(0.5,))
        probe = next(r for r in reports if r.param == 6)
        assert probe.verdict == REFUTED
        reference = eager_witnesses(8)
        expected = tuple(text for ds in probe.optimal_degseqs
                         for text in reference[ds])
        assert expected and probe.witness_edge_texts == expected
        assert "witness_edge_texts" not in vars(probe)  # read from the class cache, not kept


class TestWitnessCache:
    def test_reporting_run_walks_each_order_once(self, monkeypatch, capsys, tmp_path):
        reports = [r for theorem in THEOREM_NAMES for r in check_theorem(theorem, range(6, 12))]
        winners = {ds for r in reports for ds in r.optimal_degseqs}
        census = CountingCensus()
        monkeypatch.setattr(verify, "_census", census)
        _WITNESSES.clear()
        assert main(["verify", "--theorems", "all", "--n", "6..11",
                     "--report", str(tmp_path / "R"), "--csv", str(tmp_path / "C")]) == 0
        # one census per order, asked for the winning classes only, and the
        # cache holds those alone
        assert sorted(n for n, _ in census.calls) == list(range(6, 12))
        assert all(set(result) == wanted for (_, wanted), result in zip(census.calls,
                                                                          census.results))
        assert set().union(*(wanted for _, wanted in census.calls)) == winners
        assert set(_WITNESSES) == winners
        assert len(winners) < sum(len(_families(n)[None, None]) for n in range(6, 12))

    def test_unbuilt_class_walks_its_order_once(self, monkeypatch):
        census = CountingCensus()
        monkeypatch.setattr(verify, "_census", census)
        _WITNESSES.clear()
        reference = eager_witnesses(10)
        first, *rest = _families(10)[None, None]
        assert _witnesses(first) == reference[first]
        # the first read builds every class of its order, in one walk
        assert census.calls == [(10, set(_families(10)[None, None]))]
        for ds in rest:
            assert _witnesses(ds) == reference[ds]
        # each class is held as a plain tuple of its edge texts alone
        assert all(type(w) is tuple and all(type(t) is str for t in w)
                   for w in _WITNESSES.values())
        build_witnesses(check_theorem("star", range(10, 11)))
        assert len(census.calls) == 1

    def test_full_report_builds_only_the_winners(self, monkeypatch):
        # full_report builds the cells' witnesses before it encodes them,
        # as the CLI does, so no order is walked for every class
        reports = all_theorems(range(6, 10), alpha_grid=(2.0,), a_grid=(0.6,))
        winners = {ds for r in reports for ds in r.optimal_degseqs}
        census = CountingCensus()
        monkeypatch.setattr(verify, "_census", census)
        _WITNESSES.clear()
        doc = full_report(9, alpha_grid=(2.0,), a_grid=(0.6,), mono_n_max=4)
        assert sorted(n for n, _ in census.calls) == list(range(6, 10))
        assert set().union(*(wanted for _, wanted in census.calls)) == winners
        assert set(_WITNESSES) == winners
        reference = {n: eager_witnesses(n) for n in range(6, 10)}
        assert [cell["witnesses"] for cell in doc["cells"]] == [
            [text for ds in r.optimal_degseqs for text in reference[r.n][ds]] for r in reports]


class TestOracleExtremum:
    def test_pt_min_spider_cell(self):
        value, winners = oracle_extremum(FamilyConstraint("pt", 8, 3), "min", alpha=2)
        assert value == 28
        assert winners == ((3, 2, 2, 2, 2, 1, 1, 1),)

    def test_bt_cell(self):
        value, winners = oracle_extremum(FamilyConstraint("bt", 8, 1), "min", alpha=2)
        assert value == 28
        assert winners == ((3, 2, 2, 2, 2, 1, 1, 1),)

    def test_probe_cell(self):
        # PT(8,6) at a=0.5: the double broom beats the spider sequence
        value, winners = oracle_extremum(FamilyConstraint("pt", 8, 6), "min", a=0.5)
        assert values_close(value, 3.5)
        assert winners == ((4, 4, 1, 1, 1, 1, 1, 1),)
        assert sei_of_degseq((6, 2, 1, 1, 1, 1, 1, 1), 0.5) > value

    def test_rescan_soundness(self):
        # the optimum is attained and nothing in the family beats it
        c = FamilyConstraint("st", 9, 5)
        value, winners = oracle_extremum(c, "min", alpha=2)
        values = [r0_general(t, 2) for t in family_members(c)]
        assert min(values) == value
        assert any(values_close(v, value) for v in values)

    def test_all_trees_family(self):
        for n in range(4, 11):
            value, winners = oracle_extremum(FamilyConstraint(None, n, None), "max", alpha=2)
            assert value == (n - 1) ** 2 + n - 1
            assert winners == ((n - 1,) + (1,) * (n - 1),)
            members = family_members(FamilyConstraint(None, n, None))
            assert [t.edge_text() for t in members] == [t.edge_text() for t in all_free_trees(n)]

    def test_bad_args(self):
        with pytest.raises(ValueError):
            oracle_extremum(FamilyConstraint("pt", 8, 3), "best", alpha=2)
        with pytest.raises(ValueError):
            oracle_extremum(FamilyConstraint("pt", 8, 3), "min")


class TestCheckTheorem:
    def test_star_global_confirmed(self):
        reports = check_theorem("star", range(6, 11), alpha_grid=(2.0,), a_grid=())
        assert len(reports) == 5
        for r in reports:
            assert r.verdict == CONFIRMED
            assert r.direction == "max"
            assert r.optimal_degseqs == ((r.n - 1,) + (1,) * (r.n - 1),)

    def test_st_star_side_grid(self):
        reports = check_theorem("st-star", range(8, 13), alpha_grid=ALPHAS, a_grid=())
        assert all(r.verdict == CONFIRMED for r in reports)
        # both directions exercised across the grid
        assert {r.direction for r in reports} == {"min", "max"}

    def test_probe_cell_refuted(self):
        reports = check_theorem("pt-spider", range(8, 9), alpha_grid=(), a_grid=(0.5,))
        probe = next(r for r in reports if r.param == 6)
        assert probe.verdict == REFUTED
        assert probe.bound_matches is False
        assert probe.optimal_degseqs == ((4, 4, 1, 1, 1, 1, 1, 1),)
        assert values_close(probe.oracle, 3.5)
        assert values_close(probe.bound, 3.59375)
        # refuted cells still carry witnesses
        assert probe.witness_edge_texts

    def test_regime_coverage(self):
        # cells exist exactly where a direction is claimed
        pt = check_theorem("pt-spider", range(8, 9), alpha_grid=DEFAULT_ALPHA_GRID,
                           a_grid=DEFAULT_A_GRID)
        sei_params = {r.index_param for r in pt if r.index_kind == "sei"}
        assert sei_params == {a for a in DEFAULT_A_GRID if a < 1}

        st = check_theorem("st-star", range(8, 9), alpha_grid=DEFAULT_ALPHA_GRID,
                           a_grid=DEFAULT_A_GRID)
        sei_params = {r.index_param for r in st if r.index_kind == "sei"}
        assert sei_params == {a for a in DEFAULT_A_GRID if a > 1}

        parity = check_theorem("st-parity", range(8, 9), alpha_grid=(),
                               a_grid=DEFAULT_A_GRID)
        assert {r.index_param for r in parity} == {a for a in DEFAULT_A_GRID if a > 0.42}

    def test_consistency_with_construction(self):
        for r in check_theorem("bt-small", range(6, 10), alpha_grid=(2.0,), a_grid=(2.0,)):
            assert r.verdict == CONFIRMED
            tree = construct_extremal("bt-small", r.n, r.param)
            value = r0_general(tree, 2.0) if r.index_kind == "r0" else sei(tree, 2.0)
            assert values_close(value, r.oracle)

    def test_cells_independent_of_range(self):
        small = check_theorem("pt-balanced", range(6, 9), alpha_grid=(2.0,), a_grid=())
        large = check_theorem("pt-balanced", range(6, 11), alpha_grid=(2.0,), a_grid=())
        key = lambda r: (r.n, r.param, r.index_kind, r.index_param)
        subset = {key(r): r.verdict for r in large if r.n <= 8}
        assert {key(r): r.verdict for r in small} == subset

    def test_multi_winner_cells_are_exact_ties(self):
        # The float scan merges winners within the tolerance. On the
        # default grids at n 6..17 it does so in 19 cells, all at a = 0.6;
        # in exact arithmetic at a = 3/5 each winner set is exactly the
        # family's optimisers, so those verdicts do not rest on the
        # tolerance.
        multi = [r for theorem in THEOREM_NAMES for r in check_theorem(theorem, range(6, 18))
                 if len(r.optimal_degseqs) > 1]
        assert len(multi) == 19
        assert {(r.theorem, r.index_kind, r.index_param) for r in multi} == {
            ("bt-big", "sei", 0.6), ("pt-balanced", "sei", 0.6)}
        a = Fraction(3, 5)
        assert Fraction(repr(0.6)) == a
        for r in multi:
            exact = {ds: sum(d * a ** d for d in ds)
                     for ds in _families(r.n)[THEOREM_FAMILY[r.theorem], r.param]}
            best = (min if r.direction == "min" else max)(exact.values())
            assert tuple(ds for ds, value in exact.items() if value == best) == \
                r.optimal_degseqs, (r.theorem, r.n, r.param)

    def test_winners_are_the_exact_optimisers(self):
        # Every cell at n 6..17 on the default a-grid and integer alphas:
        # each a read as the decimal it is written as, the exact optimiser
        # set of the family is the cell's winner set.
        alphas = (-1.0, 2.0, 3.0)
        exact = {}
        cells = 0
        for r in all_theorems(range(6, 18), alpha_grid=alphas, a_grid=DEFAULT_A_GRID):
            family = _families(r.n)[THEOREM_FAMILY[r.theorem], r.param]
            values = exact.setdefault((r.n, r.index_kind, r.index_param), {})
            for ds in family:
                if ds not in values:
                    if r.index_kind == "r0":
                        values[ds] = sum(Fraction(d) ** int(r.index_param) for d in ds)
                    else:
                        a = Fraction(repr(r.index_param))
                        values[ds] = sum(d * a**d for d in ds)
            best = (min if r.direction == "min" else max)(values[ds] for ds in family)
            assert tuple(ds for ds in family if values[ds] == best) == r.optimal_degseqs, (
                r.theorem, r.n, r.param, r.index_param)
            cells += 1
        assert cells == 3750

    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            check_theorem("zz", range(6, 8))

    @pytest.mark.parametrize("grids", (((2.0,), ()), ((), (0.6,)),
                                       (DEFAULT_ALPHA_GRID, DEFAULT_A_GRID)))
    def test_cells_are_the_domain_on_every_grid(self, grids):
        # which (n, param) make cells depends on the family alone, never
        # on the grid: below a family's floor there is no cell and no error
        alpha_grid, a_grid = grids
        for theorem in THEOREM_NAMES:
            claimed = [x for kw, grid in (("alpha", alpha_grid), ("a", a_grid)) for x in grid
                       if Index.of(**{kw: x}).claim(THEOREM_DIRECTIONS[theorem]) is not None]
            reports = check_theorem(theorem, range(2, 8), alpha_grid, a_grid)
            assert [(r.n, r.param, r.index_param) for r in reports] == [
                (n, param, x) for n in range(2, 8)
                for param in family_params(THEOREM_FAMILY[theorem], n) for x in claimed
            ], theorem

    def test_one_bound_per_cell(self, monkeypatch):
        # the claim table decides which cells exist before anything is
        # evaluated, so each bound evaluated is a cell's
        calls = []

        def counting(theorem, n, param=None, **index):
            calls.append((theorem, n, param, *index.items()))
            return theorem_bound(theorem, n, param, **index)

        monkeypatch.setattr(verify, "theorem_bound", counting)
        for theorem in THEOREM_NAMES:
            calls.clear()
            reports = check_theorem(theorem, range(6, 11))
            assert calls == [(theorem, r.n, r.param, (KEYWORDS[r.index_kind], r.index_param))
                             for r in reports], theorem

    def test_no_claimed_grid_value_evaluates_nothing(self, monkeypatch):
        def no_bound(*args, **kwargs):
            raise AssertionError("a bound was evaluated for a cell that does not exist")

        monkeypatch.setattr(verify, "theorem_bound", no_bound)
        # st-star claims nothing in the SEI window; PT(n, .) is empty below n = 6
        assert check_theorem("st-star", range(6, 9), alpha_grid=(), a_grid=(0.6,)) == []
        assert check_theorem("pt-spider", range(2, 5)) == []


class TestMonotonicity:
    def test_b1_fully_conformant(self):
        rows = check_monotonicity("b1", range(4, 10), alpha_grid=(2.0,), a_grid=())
        assert len(rows) == 1
        assert rows[0].conformance == 1.0
        assert rows[0].counterexample_total == 0

    def test_s1aa_window(self):
        rows = check_monotonicity("s1aa", range(4, 10), alpha_grid=(), a_grid=(0.6,))
        assert rows[0].regime == "window"
        assert rows[0].claimed_sign == -1
        assert rows[0].conformance == 1.0

    def test_p1_small_a_counterexamples_reported(self):
        rows = check_monotonicity("p1", range(4, 11), alpha_grid=(), a_grid=(0.5,))
        row = rows[0]
        assert row.claimed_sign == +1
        assert row.conformance < 1.0
        assert row.counterexample_total >= 1
        assert row.counterexamples  # canonical codes of offending trees
        assert row.conforming + row.counterexample_total == row.applicable

    def test_unclaimed_regimes_skipped(self, monkeypatch):
        # p1 claims nothing for a > 1, so no tree is walked or moved
        def no_trees(n):
            raise AssertionError("a tree was built for a move with no claimed sign")

        monkeypatch.setattr(verify, "free_trees", no_trees)
        assert check_monotonicity("p1", range(4, 9), alpha_grid=(), a_grid=(2.0,)) == []

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            check_monotonicity("zz", range(4, 6))


def written(writer, reports):
    """The document a report writer writes, as a string."""
    buf = io.StringIO()
    writer(reports, buf)
    return buf.getvalue()


class TestReports:
    def test_json_schema(self):
        reports = check_theorem("star", range(6, 8), alpha_grid=(2.0,), a_grid=(2.0,))
        doc = json.loads(written(reports_to_json, reports))
        assert isinstance(doc, list)
        for cell in doc:
            assert list(cell) == ["theorem", "n", "param", "index", "index_param",
                                  "direction", "bound", "oracle", "verdict", "witnesses"]
            assert cell["verdict"] in ("CONFIRMED", "REFUTED")
            assert all(isinstance(w, str) for w in cell["witnesses"])

    def test_csv_columns(self):
        reports = check_theorem("star", range(6, 8), alpha_grid=(2.0,), a_grid=())
        text = written(reports_to_csv, reports)
        lines = text.strip().split("\n")
        assert lines[0] == "theorem,n,param,index,index_param,direction,bound,oracle,verdict,witnesses"
        assert len(lines) == 1 + len(reports)
        assert "\r" not in text

    def test_determinism(self):
        first = written(reports_to_json, check_theorem("bt-big", range(6, 9)))
        second = written(reports_to_json, check_theorem("bt-big", range(6, 9)))
        assert first == second


def csv_reference(reports):
    """The CSV document as csv.writer writes it from the report schema."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        row = r.to_json_dict()
        row["witnesses"] = "|".join(text.replace("\n", ";") for text in row["witnesses"])
        writer.writerow(row[column] for column in CSV_COLUMNS)
    return buf.getvalue()


def all_theorems(n_range, **grids):
    return [r for theorem in THEOREM_NAMES for r in check_theorem(theorem, n_range, **grids)]


WRITER_CASES = {
    "empty": lambda: [],
    # the multi-class a = 0.6 ties and REFUTED cells
    "default-6..11": lambda: all_theorems(range(6, 12)),
    # the off-default grid of test_cli's golden bytes
    "off-grid-6..12": lambda: all_theorems(range(6, 13), alpha_grid=(-2.5, -0.3, 0.25, 0.75, 1.5, 4.0),
                                           a_grid=(0.1, 0.35, 0.45, 0.8, 1.2, 3.0)),
}


class TestWriters:
    """reports_to_json and reports_to_csv against the schema's one encoding."""

    @pytest.mark.parametrize("case", WRITER_CASES)
    def test_writers_equal_their_references(self, case, monkeypatch, tmp_path):
        reports = WRITER_CASES[case]()
        if case == "default-6..11":
            assert any(len(r.optimal_degseqs) > 1 for r in reports)
            assert {r.verdict for r in reports} == {CONFIRMED, REFUTED}
        census = CountingCensus()
        monkeypatch.setattr(verify, "_census", census)
        _WITNESSES.clear()

        def counted(writer):
            """The writer's document, the reads of each class's texts and
            the strings it dumped as JSON, in one call."""
            reads, dumped = Counter(), Counter()

            def read(ds):
                reads[ds] += 1
                return _witnesses(ds)

            def dumps(obj, **kwargs):
                if isinstance(obj, str):
                    dumped[obj] += 1
                return json.dumps(obj, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(verify, "_witnesses", read)
                patch.setattr(verify, "json", SimpleNamespace(dumps=dumps))
                return written(writer, reports), reads, dumped

        json_call, csv_call = counted(reports_to_json), counted(reports_to_csv)
        (document, *_), (table, *_) = json_call, csv_call
        # neither writer builds a cell's own witness tuple
        assert not any("witness_edge_texts" in vars(r) for r in reports)
        # each class is built once, for both formats: a winning class is
        # built with its whole order, in one walk per order
        orders = [n for n, _ in census.calls]
        assert sorted(orders) == sorted({len(ds) for r in reports for ds in r.optimal_degseqs})
        built = Counter(ds for _, wanted in census.calls for ds in wanted)
        assert set(built.values()) <= {1}
        assert set(built) == {ds for n in orders
                              for ds in _families(n)[None, None]} == set(_WITNESSES)
        # and held as a plain tuple of its edge texts
        assert all(type(w) is tuple and all(type(t) is str for t in w)
                   for w in _WITNESSES.values())
        # a call reads the texts of each class it writes once, and encodes
        # each text once: JSON dumps it, CSV dumps nothing
        winners = Counter({ds for r in reports for ds in r.optimal_degseqs})
        assert json_call[1] == csv_call[1] == winners
        assert json_call[2] == Counter(text for ds in winners for text in _WITNESSES[ds])
        assert not csv_call[2]
        # no encoding outlives its call: the next call encodes them all again
        assert counted(reports_to_json) == json_call
        assert counted(reports_to_csv) == csv_call

        assert document == json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n"
        assert table == csv_reference(reports)
        rows = list(csv.reader(io.StringIO(table)))
        assert rows[0] == list(CSV_COLUMNS) and len(rows) == 1 + len(reports)
        parse = (str, int, lambda text: int(text) if text else None, str, float, str, float,
                 float, str)
        for (*scalars, witnesses), r in zip(rows[1:], reports):
            assert [read(text) for read, text in zip(parse, scalars, strict=True)] == list(
                r.scalar_fields().values())
            assert [text.replace(";", "\n") for text in witnesses.split("|")] == list(
                r.witness_edge_texts)

        # written to a file, each document has the same bytes
        for writer, text in ((reports_to_json, document), (reports_to_csv, table)):
            path = tmp_path / writer.__name__
            with open(path, "w", encoding="utf-8", newline="") as f:
                assert writer(reports, f) is None
            assert path.read_bytes() == text.encode()

    def test_iterators_write_the_bytes_of_lists(self):
        # the JSON writer closes on whether it wrote a cell, not on the
        # truth of what it was given
        assert written(reports_to_json, iter([])) == "[]\n"
        reports = all_theorems(range(6, 9))
        for writer in (reports_to_json, reports_to_csv):
            assert written(writer, (r for r in reports)) == written(writer, reports)

    def test_peak_memory_below_a_quarter_of_the_document(self, tmp_path):
        # the joined string alone would be more than the whole document
        reports = all_theorems(range(6, 15))
        for writer in (reports_to_json, reports_to_csv):
            document = written(writer, reports)  # also builds every cached witness class
            path = tmp_path / writer.__name__
            with open(path, "w", encoding="utf-8", newline="") as f:
                tracemalloc.start()
                try:
                    writer(reports, f)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peak < len(document) / 4, (writer.__name__, peak, len(document))
            assert path.read_bytes() == document.encode()


def report_errors(reports, cells) -> list[str]:
    """What is wrong with the witnesses of the parsed report cells, read
    only from their edge texts. A cell's witnesses, filed by the degree
    multiset of each text, must be its report's optimal_degseqs in order,
    each class's texts together; every cell that lists a class lists the
    same texts; and each class's texts must sum to its labeled count
    (tests/reference_census.py)."""
    degrees = {}  # each distinct text's degree multiset, read once
    census = {}  # n -> class -> its texts
    errors = []
    for r, cell in zip(reports, cells, strict=True):
        filed = {}
        for text in cell["witnesses"]:
            if text not in degrees:
                degrees[text] = tuple(sorted(Counter(text.split()).values(), reverse=True))
            filed.setdefault(degrees[text], []).append(text)
        where = f"{r.theorem} n={r.n} param={r.param} {r.index_kind}={r.index_param}"
        together = [text for texts in filed.values() for text in texts]
        if tuple(filed) != r.optimal_degseqs or together != cell["witnesses"]:
            errors.append(f"{where}: witnesses are not its classes in order")
        for ds, texts in filed.items():
            if census.setdefault(r.n, {}).setdefault(ds, texts) != texts:
                errors.append(f"{where}: class {ds} lists other texts than an earlier cell")
    for n, classes in census.items():
        errors += census_errors(n, classes, complete=False)
    return errors


class TestReportOracle:
    """The --report witnesses, parsed back and checked by labeled counts."""

    def test_report_witnesses_are_complete(self):
        reports = all_theorems(range(6, 17))
        cells = json.loads(written(reports_to_json, reports))
        assert report_errors(reports, cells) == []
        # the cells to n = 14 are the report bytes test_golden_bytes pins
        head = written(reports_to_json, [r for r in reports if r.n <= 14]).encode()
        assert hashlib.sha256(head).hexdigest() == (
            "65033741a216208ee70530be3c72d4f96153a151648057f058c8ca720298c780")

    def test_oracle_finds_each_mutation(self):
        reports = all_theorems(range(6, 11))
        cells = json.loads(written(reports_to_json, reports))
        holders = {}  # each class that alone wins a cell at n = 10 -> those cells
        for i, r in enumerate(reports):
            if r.n == 10 and len(r.optimal_degseqs) == 1:
                holders.setdefault(r.optimal_degseqs[0], []).append(i)
        a = next(ds for ds, held in holders.items()
                 if len(held) > 1 and len(cells[held[0]]["witnesses"]) > 1)
        b = next(ds for ds in holders if ds != a)
        text = cells[holders[a][0]]["witnesses"][0]

        def mutant(change_a, change_b, every):
            # change_a on the witnesses of the first or every cell class a
            # alone wins, change_b likewise for class b
            out = list(cells)
            for ds, change in ((a, change_a), (b, change_b)):
                for i in holders[ds] if every else holders[ds][:1]:
                    out[i] = {**cells[i], "witnesses": change(cells[i]["witnesses"])}
            return out

        def keep(ws):
            return ws

        def drop(ws):
            return [w for w in ws if w != text]

        def repeat(ws):
            return [text, *ws]

        def add(ws):
            return [*ws, text]

        for every in (False, True):
            for change_a, change_b in ((drop, keep), (repeat, keep), (drop, add)):
                errors = report_errors(reports, mutant(change_a, change_b, every))
                assert errors, (change_a.__name__, change_b.__name__, every)
                if every:  # only the labeled count sees a change made in every cell
                    assert any(e.startswith(f"class {a}:") for e in errors), errors


# finite floats, with the ones whose repr is shortest-digits, subnormal or
# exponent form
SCALAR_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    (-0.0, 5e-324, 1e-05, 1e16, 1e300))


# reports with any finite floats, None or int params, and witness classes
# of order 6
ADVERSARIAL_REPORTS = st.lists(st.builds(
    TheoremReport,
    theorem=st.sampled_from(THEOREM_NAMES),
    n=st.integers(),
    param=st.none() | st.integers(),
    index_kind=st.sampled_from(("r0", "sei")),
    index_param=SCALAR_FLOATS,
    direction=st.sampled_from(("min", "max")),
    bound=SCALAR_FLOATS,
    oracle=SCALAR_FLOATS,
    bound_matches=st.booleans(),
    equality_set_matches=st.booleans(),
    verdict=st.sampled_from((CONFIRMED, REFUTED)),
    optimal_degseqs=st.lists(st.sampled_from(_families(6)[None, None]), min_size=1,
                             max_size=3, unique=True).map(tuple)), max_size=4)


class TestCellWriter:
    """reports_to_json writes each cell's scalar fields itself."""

    @given(ADVERSARIAL_REPORTS)
    def test_scalars_are_written_as_json_dumps_writes_them(self, reports):
        assert written(reports_to_json, reports) == json.dumps(
            [r.to_json_dict() for r in reports], indent=2) + "\n"

    def test_names_written_in_quotes_need_no_escaping(self):
        for name in (*THEOREM_NAMES, "r0", "sei", "min", "max", CONFIRMED, REFUTED):
            assert json.dumps(name) == f'"{name}"'


class TestFullReport:
    def test_document(self):
        doc = full_report(8, alpha_grid=(2.0,), a_grid=(0.5, 2.0), mono_n_max=7)
        assert doc["n_range"] == [6, 8]
        assert doc["cells"] and doc["monotonicity"]
        # every theorem appears
        assert {c["theorem"] for c in doc["cells"]} == {
            "pt-spider", "pt-balanced", "bt-small", "bt-big", "st-star", "st-parity", "star"}
        # no cell missing: spot-check the pt-spider cross product
        pt = [c for c in doc["cells"] if c["theorem"] == "pt-spider"]
        expected = sum(n - 4 for n in range(6, 9)) * 2  # alpha=2 and a=0.5 rows
        assert len(pt) == expected

    def test_balanced_count_audit(self):
        doc = full_report(6, alpha_grid=(2.0,), a_grid=(), mono_n_max=4)
        audit = doc["balanced_count_audit"]
        assert audit["n_range"] == [6, 14]
        assert audit["formula_identity_failures"] >= 1
        cell = next(c for c in audit["cells"] if c["n"] == 10 and c["n1"] == 7)
        assert cell["formula_counts"] == [4, -1]
        assert cell["formula_satisfies_identities"] is False
        assert cell["identity_counts"] == [1, 2]

    def test_byte_identical(self):
        first = json.dumps(full_report(7, alpha_grid=(2.0, -1.0), a_grid=(0.6,), mono_n_max=6))
        second = json.dumps(full_report(7, alpha_grid=(2.0, -1.0), a_grid=(0.6,), mono_n_max=6))
        assert first == second
