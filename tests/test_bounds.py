from collections import Counter

import pytest
from conftest import is_caterpillar, path_tree

from treedex import (
    THEOREM_NAMES,
    DegreeSequence,
    FamilyConstraint,
    balanced_counts,
    balanced_counts_formula,
    construct_extremal,
    r0_general,
    sei,
    sei_of_degseq,
    structural_profile,
    theorem_bound,
    values_close,
)
from treedex import bounds

ALPHAS = (-1.0, -0.5, 0.5, 2.0, 3.0)
AS = (0.2, 0.5, 0.6, 0.9, 1.5, 2.0)


def family_params(theorem, n):
    fam = {"pt-spider": "pt", "pt-balanced": "pt", "bt-small": "bt", "bt-big": "bt",
           "st-star": "st", "st-parity": "st", "star": None}[theorem]
    if fam is None:
        return (None,)
    if fam == "bt":
        return range(1, (n - 2) // 2 + 1)
    return range(3, n - 1)


class TestFamilyConstraint:
    def test_pt_range(self):
        FamilyConstraint("pt", 6, 3)
        FamilyConstraint("pt", 10, 8)  # n - 2 boundary
        with pytest.raises(ValueError):
            FamilyConstraint("pt", 6, 2)
        with pytest.raises(ValueError):
            FamilyConstraint("pt", 6, 5)

    def test_st_range(self):
        FamilyConstraint("st", 9, 7)
        with pytest.raises(ValueError):
            FamilyConstraint("st", 9, 8)  # k <= n - 2
        with pytest.raises(ValueError):
            FamilyConstraint("st", 9, 2)

    def test_bt_range(self):
        FamilyConstraint("bt", 6, 2)
        FamilyConstraint("bt", 9, 3)
        with pytest.raises(ValueError):
            FamilyConstraint("bt", 6, 0)
        with pytest.raises(ValueError):
            FamilyConstraint("bt", 9, 4)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 6"):
            FamilyConstraint("pt", 5, 3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FamilyConstraint("xx", 8, 3)

    def test_domains_start_at_four_and_six(self):
        paper = {"pt": lambda n: range(3, n - 1), "st": lambda n: range(3, n - 1),
                 "bt": lambda n: range(1, (n - 2) // 2 + 1)}
        for n in range(0, 21):
            assert bounds.family_params(None, n) == ((None,) if n >= 4 else ())
            for kind, params in paper.items():
                expected = tuple(params(n)) if n >= 6 else ()
                assert tuple(bounds.family_params(kind, n)) == expected, (kind, n)

    def test_agrees_with_family_params(self):
        # family_params is the one statement of every family's domain
        for kind in (None, "pt", "st", "bt"):
            for n in range(0, 21):
                valid = bounds.family_params(kind, n)
                for param in (None, *range(-1, n + 2)):
                    try:
                        FamilyConstraint(kind, n, param)
                        constructed = True
                    except ValueError:
                        constructed = False
                    assert constructed == (param in valid), (kind, n, param)

    def test_all_trees(self):
        FamilyConstraint(None, 4, None)
        with pytest.raises(ValueError, match="n >= 4"):
            FamilyConstraint(None, 3, None)
        with pytest.raises(ValueError, match="no parameter"):
            FamilyConstraint(None, 8, 3)


class TestBalancedCounts:
    @pytest.mark.parametrize(
        "n,n1,expected",
        [((10), 7, (3, 1, 2)), (8, 5, (3, 3, 0)), (9, 4, (2, 3, 2))],
    )
    def test_examples(self, n, n1, expected):
        bc = balanced_counts(n, n1)
        assert (bc.t, bc.count_t, bc.count_t1) == expected

    def test_identities_all_cells(self):
        # the split is non-negative wherever PT(n, n1) is defined, so
        # balanced_counts needs no check of its own
        for n in range(6, 61):
            for n1 in range(3, n - 1):
                bc = balanced_counts(n, n1)
                assert bc.count_t >= 1 and bc.count_t1 >= 0, (n, n1)
                assert bc.count_t + bc.count_t1 == n - n1
                assert bc.t * bc.count_t + (bc.t + 1) * bc.count_t1 == 2 * (n - 1) - n1

    def test_formula_breaks_degree_sum(self):
        # the direct expressions go negative and miss the degree sum
        fx, fy = balanced_counts_formula(10, 7)
        assert (fx, fy) == (4, -1)
        t = balanced_counts(10, 7).t
        assert t * fx + (t + 1) * fy != 2 * 9 - 7

    def test_invalid(self):
        with pytest.raises(ValueError):
            balanced_counts(6, 2)
        with pytest.raises(ValueError, match="n >= 6"):
            balanced_counts(5, 3)


class TestBoundValues:
    def test_pt_spider(self):
        assert values_close(theorem_bound("pt-spider", 8, 3, a=0.5).value, 3.875)
        assert values_close(theorem_bound("pt-spider", 8, 3, alpha=2).value, 28)
        bv = theorem_bound("pt-spider", 10, 8, alpha=2)  # n1 = n - 2 boundary
        assert tuple(bv.equality_degseq.degrees) == (8, 2) + (1,) * 8

    def test_pt_balanced(self):
        assert values_close(theorem_bound("pt-balanced", 10, 7, alpha=2).value, 48)
        assert values_close(theorem_bound("pt-balanced", 8, 5, a=0.5).value, 3.625)
        assert values_close(theorem_bound("pt-balanced", 9, 4, alpha=2).value, 34)

    def test_pt_balanced_internal_gap(self):
        for n in range(6, 15):
            for n1 in range(3, n - 1):
                degs = theorem_bound("pt-balanced", n, n1, alpha=2).equality_degseq.degrees
                internal = [d for d in degs if d >= 2]
                assert max(internal) - min(internal) <= 1

    def test_bt_small(self):
        assert values_close(theorem_bound("bt-small", 8, 1, a=2).value, 62)
        assert values_close(theorem_bound("bt-small", 8, 1, alpha=2).value, 28)
        # boundary b = n/2 - 1 for even n: no degree-2 vertices left
        bv = theorem_bound("bt-small", 10, 4, alpha=2)
        assert tuple(bv.equality_degseq.degrees) == (3,) * 4 + (1,) * 6

    def test_bt_big(self):
        assert values_close(theorem_bound("bt-big", 8, 2, alpha=2).value, 40)
        assert values_close(theorem_bound("bt-big", 10, 3, a=2).value, 222)

    def test_bt_big_b1_is_star(self):
        for n in (6, 9, 12):
            for alpha in ALPHAS:
                assert values_close(
                    theorem_bound("bt-big", n, 1, alpha=alpha).value,
                    theorem_bound("star", n, alpha=alpha).value,
                )
            for a in AS:
                assert values_close(
                    theorem_bound("bt-big", n, 1, a=a).value,
                    theorem_bound("star", n, a=a).value,
                )

    def test_st_star(self):
        assert values_close(theorem_bound("st-star", 8, 3, alpha=2).value, 28)
        assert values_close(theorem_bound("st-star", 12, 5, a=2).value, 218)
        with pytest.raises(ValueError):
            theorem_bound("st-star", 9, 8, alpha=2)

    def test_st_star_squeeze_decomposition(self):
        # bound(n, k) = star bound on k+1 vertices + contribution of the
        # n-k-1 degree-2 vertices
        for n in range(6, 13):
            for k in range(3, n - 1):
                for alpha in ALPHAS:
                    lhs = theorem_bound("st-star", n, k, alpha=alpha).value
                    rhs = theorem_bound("star", k + 1, alpha=alpha).value + 2.0**alpha * (n - k - 1)
                    assert values_close(lhs, rhs)
                for a in AS:
                    lhs = theorem_bound("st-star", n, k, a=a).value
                    rhs = theorem_bound("star", k + 1, a=a).value + 2.0 * a * a * (n - k - 1)
                    assert values_close(lhs, rhs)

    def test_st_parity(self):
        assert values_close(theorem_bound("st-parity", 9, 4, alpha=2).value, 36)
        assert values_close(theorem_bound("st-parity", 8, 3, alpha=2).value, 28)
        # a=0.6 even-k cell evaluated by direct summation
        direct = sei_of_degseq((4, 3, 2, 2, 2, 1, 1, 1, 1, 1), 0.6)
        assert values_close(theorem_bound("st-parity", 10, 6, a=0.6).value, direct)

    def test_st_parity_even_min_k(self):
        # even k = 4 uses zero degree-3 entries
        bv = theorem_bound("st-parity", 6, 4, alpha=2)
        assert tuple(bv.equality_degseq.degrees) == (4, 2, 1, 1, 1, 1)

    def test_star_global(self):
        assert values_close(theorem_bound("star", 6, a=2).value, 170)
        assert values_close(theorem_bound("star", 6, alpha=2).value, 30)
        assert values_close(theorem_bound("star", 4, alpha=-1).value, 1 / 3 + 3)
        with pytest.raises(ValueError):
            theorem_bound("star", 3, alpha=2)

    def test_overflowing_closed_form(self):
        with pytest.raises(OverflowError, match=r"the pt-spider closed form at alpha=1e\+200"):
            theorem_bound("pt-spider", 8, 3, alpha=1e200)

    def test_errors_repeat(self):
        # the checked equality sequence is cached; a rejection never is
        for _ in range(2):
            with pytest.raises(ValueError, match="n1=2"):
                theorem_bound("pt-spider", 8, 2, alpha=2)

    def test_param_exclusivity(self):
        with pytest.raises(ValueError):
            theorem_bound("pt-spider", 8, 3)
        with pytest.raises(ValueError):
            theorem_bound("pt-spider", 8, 3, alpha=2, a=2)


class TestDirections:
    def test_regime_table(self):
        # the claimed direction depends only on the parameter's regime,
        # so one valid cell per family stands for every n and param
        cells = {"pt": (8, 3), "bt": (8, 1), "st": (8, 4), None: (8, None)}
        for theorem, kw, expected in [
            ("pt-spider", {"alpha": 2}, "max"),
            ("pt-spider", {"alpha": 0.5}, "min"),
            ("pt-spider", {"a": 0.5}, "min"),
            ("pt-spider", {"a": 2}, None),
            ("pt-balanced", {"a": 0.2}, "max"),
            ("bt-small", {"a": 2}, "min"),
            ("bt-small", {"a": 0.5}, "max"),
            ("bt-big", {"alpha": -1}, "max"),
            ("st-star", {"a": 1.5}, "max"),
            ("st-star", {"a": 0.9}, None),
            ("st-parity", {"a": 2}, "min"),
            ("st-parity", {"a": 0.6}, "max"),
            ("st-parity", {"a": 0.3}, None),
            ("star", {"alpha": 0.5}, "min"),
            ("star", {"a": 0.5}, None),
        ]:
            n, param = cells[bounds.THEOREM_FAMILY[theorem]]
            assert theorem_bound(theorem, n, param, **kw).direction == expected


class TestEqualitySequences:
    def test_sum_and_membership(self):
        for theorem in THEOREM_NAMES:
            for n in range(6, 12):
                for param in family_params(theorem, n):
                    bv = theorem_bound(theorem, n, param, alpha=2)
                    degs = bv.equality_degseq.degrees
                    assert len(degs) == n
                    assert sum(degs) == 2 * (n - 1)


class TestClosedFormsExactly:
    def test_closed_forms_are_exact_sums(self):
        # Each hand-written closed form, called with a symbol and its float
        # literals read as exact rationals, is exactly the index summed
        # over the equality sequence, as a function of alpha or a.
        sympy = pytest.importorskip("sympy")
        alpha, a = sympy.Symbol("alpha", real=True), sympy.Symbol("a", positive=True)
        terms = {"r0": (alpha, lambda d: sympy.Integer(d) ** alpha), "sei": (a, lambda d: d * a**d)}
        cases = 0
        for theorem in THEOREM_NAMES:
            th = bounds._THEOREMS[theorem]
            for kind, (x, term) in terms.items():
                closed_form = getattr(th, kind)
                if closed_form is None:  # pt-balanced sums its sequence
                    assert theorem == "pt-balanced"
                    continue
                for n in range(6, 25):
                    for param in family_params(theorem, n):
                        value = closed_form(n, param, x)
                        value = value.xreplace({f: sympy.Rational(f)
                                                for f in value.atoms(sympy.Float)})
                        ds = bounds._equality_degseq(theorem, n, param)
                        exact = sum(m * term(d) for d, m in Counter(ds).items())
                        assert sympy.expand(value - exact) == 0, (theorem, kind, n, param)
                        cases += 1
        assert cases == 2 * sum(len(family_params(theorem, n)) for n in range(6, 25)
                                for theorem in THEOREM_NAMES if theorem != "pt-balanced")


class TestConstructExtremal:
    def test_pt_spider_example(self):
        t = construct_extremal("pt-spider", 8, 3)
        prof = structural_profile(t)
        assert prof.k == 3 and prof.n1 == 3
        assert values_close(sei(t, 0.5), 3.875)

    def test_bt_small_example(self):
        t = construct_extremal("bt-small", 8, 1)
        prof = structural_profile(t)
        assert prof.b == 1 and prof.n1 == 3

    def test_st_parity_example(self):
        t = construct_extremal("st-parity", 9, 4)
        prof = structural_profile(t)
        assert prof.k == 4
        assert tuple(t.degree_sequence().degrees) == (4, 2, 2, 2, 2, 1, 1, 1, 1)

    def test_star(self):
        t = construct_extremal("star", 9)
        assert structural_profile(t).max_degree == 8

    def test_caterpillar_and_closed_form_agreement(self):
        for theorem in THEOREM_NAMES:
            for n in range(6, 13):
                for param in family_params(theorem, n):
                    t = construct_extremal(theorem, n, param)
                    assert is_caterpillar(t)
                    for alpha in ALPHAS:
                        bv = theorem_bound(theorem, n, param, alpha=alpha)
                        assert values_close(r0_general(t, alpha), bv.value)
                    for a in AS:
                        bv = theorem_bound(theorem, n, param, a=a)
                        assert values_close(sei(t, a), bv.value)

    def test_wrong_realization_is_an_error(self, monkeypatch):
        # explicit errors, not asserts (python -O strips asserts)
        realize = bounds.realize_caterpillar
        monkeypatch.setattr(bounds, "realize_caterpillar", lambda d: path_tree(len(d)))
        with pytest.raises(ValueError, match="not in the family"):
            construct_extremal("pt-spider", 8, 3)
        # a path is a tree, so only the closed form refuses it for the star
        with pytest.raises(ValueError, match="closed form"):
            construct_extremal("star", 8)
        # same family BT(8, 2), but not the equality sequence (5, 3, 1^6)
        other = DegreeSequence((3, 3, 2, 2, 1, 1, 1, 1))
        monkeypatch.setattr(bounds, "realize_caterpillar", lambda d: realize(other))
        with pytest.raises(ValueError, match="closed form"):
            construct_extremal("bt-big", 8, 2)

    def test_dispatch_errors(self):
        with pytest.raises(ValueError):
            theorem_bound("star", 8, 3, alpha=2)
        with pytest.raises(ValueError):
            theorem_bound("pt-spider", 8, alpha=2)
        with pytest.raises(ValueError):
            theorem_bound("nope", 8, 3, alpha=2)
