import json
from collections import Counter

import pytest
from conftest import all_free_trees

import treedex.verify as verify
from treedex import (
    CONFIRMED,
    DEFAULT_A_GRID,
    DEFAULT_ALPHA_GRID,
    REFUTED,
    DegreeSequence,
    FamilyConstraint,
    Index,
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
    values_close,
)
from treedex.enumeration import _degree_sequences
from treedex.verify import _census, _values, _witnesses

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


class TestCensus:
    def test_class_sizes_sum_to_tree_counts(self):
        for n, count in FREE_TREE_COUNTS.items():
            assert sum(map(len, _census(n).values())) == count

    def test_class_counts_match_trees(self):
        for n in range(2, 13):
            expected = Counter(t.degree_sequence() for t in all_free_trees(n))
            census = _census(n)
            assert list(census) == sorted(expected, key=lambda ds: ds.degrees)
            assert {ds: len(levels) for ds, levels in census.items()} == expected

    def test_witnesses_match_eager_reference(self):
        for n in range(2, 13):
            for ds, expected in eager_witnesses(n).items():
                assert _witnesses(ds) == expected


class TestPartitionEngine:
    def test_degree_sequences_are_the_census_classes(self):
        for n in range(2, 15):
            assert _degree_sequences(n) == tuple(_census(n))

    def test_one_sequence_per_partition(self):
        sympy = pytest.importorskip("sympy")
        for n in range(2, 19):
            assert len(_degree_sequences(n)) == sympy.partition(n - 2)

    def test_order_cap(self):
        for n in (1, 19):
            with pytest.raises(ValueError, match=r"n must be in 2\.\.18"):
                _degree_sequences(n)
        with pytest.raises(ValueError, match=r"n must be in 2\.\.18"):
            oracle_extremum(FamilyConstraint("pt", 19, 3), "min", alpha=2)

    def test_verdicts_never_read_the_census(self, monkeypatch):
        def no_census(n):
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

        def counting(index, d):
            if isinstance(d, tuple):  # the scan passes tuples, bounds a DegreeSequence
                calls[index.x, d] += 1
            return of_degseq(index, d)

        monkeypatch.setattr(Index, "of_degseq", counting)
        _values.cache_clear()
        for theorem in ("pt-spider", "pt-balanced", "star", "pt-spider"):
            check_theorem(theorem, range(6, 10), alpha_grid=(2.0, 3.0), a_grid=())
        expected = {(x, ds.degrees) for x in (2.0, 3.0) for n in range(6, 10)
                    for ds in _degree_sequences(n)}
        assert set(calls) == expected
        assert set(calls.values()) == {1}

    def test_lazy_witnesses_of_a_refuted_cell(self):
        reports = check_theorem("pt-spider", range(8, 9), alpha_grid=(), a_grid=(0.5,))
        probe = next(r for r in reports if r.param == 6)
        assert probe.verdict == REFUTED
        assert "witness_edge_texts" not in vars(probe)  # nothing built yet
        reference = eager_witnesses(8)
        expected = tuple(text for ds in probe.optimal_degseqs
                         for text in reference[DegreeSequence(ds)])
        assert expected and probe.witness_edge_texts == expected
        assert vars(probe)["witness_edge_texts"] is probe.witness_edge_texts


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

    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            check_theorem("zz", range(6, 8))


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

    def test_unclaimed_regimes_skipped(self):
        rows = check_monotonicity("p1", range(4, 8), alpha_grid=(), a_grid=(2.0,))
        assert rows == []

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            check_monotonicity("zz", range(4, 6))


class TestReports:
    def test_json_schema(self):
        reports = check_theorem("star", range(6, 8), alpha_grid=(2.0,), a_grid=(2.0,))
        doc = json.loads(reports_to_json(reports))
        assert isinstance(doc, list)
        for cell in doc:
            assert list(cell) == ["theorem", "n", "param", "index", "index_param",
                                  "direction", "bound", "oracle", "verdict", "witnesses"]
            assert cell["verdict"] in ("CONFIRMED", "REFUTED")
            assert all(isinstance(w, str) for w in cell["witnesses"])

    def test_csv_columns(self):
        reports = check_theorem("star", range(6, 8), alpha_grid=(2.0,), a_grid=())
        text = reports_to_csv(reports)
        lines = text.strip().split("\n")
        assert lines[0] == "theorem,n,param,index,index_param,direction,bound,oracle,verdict,witnesses"
        assert len(lines) == 1 + len(reports)
        assert "\r" not in text

    def test_determinism(self):
        first = reports_to_json(check_theorem("bt-big", range(6, 9)))
        second = reports_to_json(check_theorem("bt-big", range(6, 9)))
        assert first == second


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
