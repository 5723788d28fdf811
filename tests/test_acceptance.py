"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

from conftest import trees_up_to

from treedex import (
    CONFIRMED,
    REFUTED,
    TRANSFORMS,
    balanced_counts,
    balanced_counts_formula,
    canonical_code,
    check_monotonicity,
    check_theorem,
    construct_extremal,
    free_tree_count_by_prufer,
    free_trees,
    full_report,
    predicted_delta,
    r0_general,
    sei,
    sei_of_degseq,
    segment_decomposition,
    squeeze,
    structural_profile,
    values_close,
)

ALPHA_GRID = (-1.0, -0.5, 0.5, 2.0, 3.0)
N_RANGE = range(6, 13)


@contextmanager
def criterion(cid, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {cid}: FAIL  {description}")
        raise
    print(f"ACCEPTANCE {cid}: PASS  {description}")


def test_criterion_01_r0_theorem_suite():
    with criterion(1, "power-sum suite CONFIRMED for all seven theorems, n 6..12"):
        started = time.perf_counter()
        for theorem in ("pt-spider", "pt-balanced", "bt-small", "bt-big",
                        "st-star", "st-parity", "star"):
            reports = check_theorem(theorem, N_RANGE, alpha_grid=ALPHA_GRID, a_grid=())
            assert reports
            bad = [r for r in reports if r.verdict != CONFIRMED]
            assert not bad, bad[:3]
        assert time.perf_counter() - started < 120


def test_criterion_02_sei_above_one_suite():
    with criterion(2, "expsum suite (a in {1.5, 2}) CONFIRMED for the a>1 theorems"):
        for theorem in ("bt-small", "bt-big", "st-star", "star", "st-parity"):
            reports = check_theorem(theorem, N_RANGE, alpha_grid=(), a_grid=(1.5, 2.0))
            assert reports
            assert all(r.verdict == CONFIRMED for r in reports)
            if theorem == "st-parity":
                assert all(r.direction == "min" for r in reports)


def test_criterion_03_sei_window_suite():
    with criterion(3, "st-parity window suite (a in {0.6, 0.9}) CONFIRMED, n 6..12"):
        reports = check_theorem("st-parity", N_RANGE, alpha_grid=(), a_grid=(0.6, 0.9))
        assert reports
        assert all(r.direction == "max" for r in reports)
        assert all(r.verdict == CONFIRMED for r in reports)


def test_criterion_04_sei_small_a_probe():
    with criterion(4, "small-a probe: verdict map emitted, internal consistency only"):
        grid = (0.2, 0.3, 0.5, 0.9)
        verdict_map = {}
        for theorem in ("pt-spider", "pt-balanced"):
            reports = check_theorem(theorem, N_RANGE, alpha_grid=(), a_grid=grid)
            assert len(reports) == sum(n - 4 for n in N_RANGE) * len(grid)
            for r in reports:
                verdict_map[(theorem, r.n, r.param, r.index_param)] = r.verdict
                # witness attains the oracle value
                for ds in r.optimal_degseqs:
                    assert values_close(sei_of_degseq(ds, r.index_param), r.oracle)
                # construction agrees with the closed form
                tree = construct_extremal(theorem, r.n, r.param)
                assert values_close(sei(tree, r.index_param), r.bound)
        # the designated probe cell is decided by the exhaustive oracle
        probe = next(
            r for r in check_theorem("pt-spider", range(8, 9), alpha_grid=(), a_grid=(0.5,))
            if r.param == 6
        )
        assert probe.verdict == REFUTED
        assert values_close(probe.oracle, sei_of_degseq((4, 4, 1, 1, 1, 1, 1, 1), 0.5))
        assert values_close(probe.bound, sei_of_degseq((6, 2, 1, 1, 1, 1, 1, 1), 0.5))
        assert probe.optimal_degseqs == ((4, 4, 1, 1, 1, 1, 1, 1),)
        assert verdict_map[("pt-spider", 8, 6, 0.5)] == REFUTED


def test_criterion_05_transform_delta_exactness():
    with criterion(5, "predicted vs actual move deltas exact on all trees n<=10"):
        checked = 0
        for t in trees_up_to(10):
            for fn in TRANSFORMS.values():
                try:
                    move = fn(t)
                except ValueError:
                    continue
                for alpha in (-1.0, 2.0):
                    predicted = predicted_delta(move, alpha=alpha)
                    actual = r0_general(move.before, alpha) - r0_general(move.after, alpha)
                    assert values_close(predicted, actual)
                for a in (0.5, 2.0):
                    predicted = predicted_delta(move, a=a)
                    actual = sei(move.before, a) - sei(move.after, a)
                    assert values_close(predicted, actual)
                checked += 4
        assert checked > 0


def test_criterion_06_monotonicity_conformance():
    with criterion(6, "claimed-sign conformance 100% in the sound regimes, n<=10"):
        above_one_kinds = ("b1", "b3", "b4", "s1a", "s1aa")
        for kind in TRANSFORMS:
            rows = check_monotonicity(kind, range(4, 11), alpha_grid=ALPHA_GRID, a_grid=())
            assert len(rows) == len(ALPHA_GRID)
            for row in rows:
                assert row.conformance == 1.0, (kind, row)
        for kind in above_one_kinds:
            rows = check_monotonicity(kind, range(4, 11), alpha_grid=(), a_grid=(2.0,))
            assert rows and all(r.conformance == 1.0 for r in rows)
        rows = check_monotonicity("s1aa", range(4, 11), alpha_grid=(), a_grid=(0.6,))
        assert rows and all(r.conformance == 1.0 for r in rows)


def test_criterion_07_shift_delta_threshold():
    with criterion(7, "two-fours shift delta changes sign at the window bounds"):
        move = None
        for t in free_trees(8):
            try:
                move = TRANSFORMS["s1aa"](t)
                break
            except ValueError:
                continue
        assert move is not None
        for a in (0.40, 0.43, 0.99, 1.01):
            expected = a * (a - 1.0) * (8.0 * a * a - a - 1.0)  # factored form
            delta = predicted_delta(move, a=a)
            assert values_close(delta, expected)
            assert (delta > 0) == (expected > 0) and delta != 0
        assert predicted_delta(move, a=0.40) > 0
        assert predicted_delta(move, a=0.43) < 0
        assert predicted_delta(move, a=0.99) < 0
        assert predicted_delta(move, a=1.01) > 0


# Oracle-derived shape counts. n=4..8 are recomputed live below;
# n=9 (8-10 s on one core of a shared Xeon, Python 3.11) and n=10
# (~10^8 decodes) were produced by the same free_tree_count_by_prufer
# oracle offline and are frozen here.
PRUFER_ORACLE_COUNTS = {4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}


def test_criterion_08_enumeration_correctness():
    with criterion(8, "generator counts match the Prüfer oracle; codes unique to n=14"):
        for n, expected in PRUFER_ORACLE_COUNTS.items():
            assert sum(1 for _ in free_trees(n)) == expected
        for n in range(4, 9):
            assert free_tree_count_by_prufer(n) == PRUFER_ORACLE_COUNTS[n]
        for n in range(2, 15):
            codes = [canonical_code(t) for t in free_trees(n)]
            assert len(set(codes)) == len(codes)


def test_criterion_09_structural_identities():
    with criterion(9, "segment/squeeze identities and branching cap on all trees n<=10"):
        for t in trees_up_to(10):
            profile = structural_profile(t)
            assert profile.k == t.n - profile.n2 - 1
            assert profile.k == len(segment_decomposition(t))
            assert profile.b <= t.n / 2 - 1
            squeezed = squeeze(t)
            assert squeezed.n == t.n - profile.n2
            for alpha in ALPHA_GRID:
                lhs = r0_general(t, alpha)
                rhs = r0_general(squeezed, alpha) + 2.0**alpha * profile.n2
                assert values_close(lhs, rhs)
            for a in (0.5, 2.0):
                lhs = sei(t, a)
                rhs = sei(squeezed, a) + 2.0 * a * a * profile.n2
                assert values_close(lhs, rhs)


def test_criterion_10_balanced_count_divergence():
    with criterion(10, "identity-consistent counts hold; printed expressions diverge"):
        for n in range(6, 15):
            for n1 in range(3, n - 1):
                bc = balanced_counts(n, n1)
                assert bc.count_t >= 0 and bc.count_t1 >= 0
                assert bc.count_t + bc.count_t1 == n - n1
                assert bc.t * bc.count_t + (bc.t + 1) * bc.count_t1 == 2 * (n - 1) - n1
        fx, fy = balanced_counts_formula(10, 7)
        t = balanced_counts(10, 7).t
        assert fy < 0 or t * fx + (t + 1) * fy != 2 * 9 - 7
        audit = full_report(6, alpha_grid=(2.0,), a_grid=(), mono_n_max=4)[
            "balanced_count_audit"
        ]
        assert audit["formula_identity_failures"] >= 1
        divergent = next(c for c in audit["cells"] if c["n"] == 10 and c["n1"] == 7)
        assert divergent["formula_satisfies_identities"] is False


def test_criterion_11_cli_determinism_and_runtime(tmp_path):
    with criterion(11, "verify CLI n 6..14 byte-identical across runs, under budget"):
        outputs = []
        for run_id in (1, 2):
            report = tmp_path / f"report{run_id}.json"
            csv_file = tmp_path / f"report{run_id}.csv"
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "treedex", "verify", "--theorems", "all",
                 "--n", "6..14", "--report", str(report), "--csv", str(csv_file)],
                capture_output=True,
                text=True,
                timeout=600,
            )
            elapsed = time.perf_counter() - started
            assert proc.returncode == 0, proc.stderr
            assert elapsed < 600
            outputs.append((proc.stdout, report.read_bytes(), csv_file.read_bytes()))
        assert outputs[0] == outputs[1]
        cells = json.loads(outputs[0][1])
        assert cells and {c["theorem"] for c in cells} == {
            "pt-spider", "pt-balanced", "bt-small", "bt-big",
            "st-star", "st-parity", "star"}
