import math
import random
from collections import Counter

import pytest
from conftest import path_tree, spider, star_tree, trees_up_to

from treedex import (
    ABS_TOL,
    REL_TOL,
    WINDOW_LOW_A,
    Index,
    Tree,
    r0_general,
    r0_of_degseq,
    sei,
    sei_of_degseq,
    values_close,
)
from treedex.enumeration import _families
from treedex.verify import DEFAULT_A_GRID, DEFAULT_ALPHA_GRID

ALPHAS = (-1.0, -0.5, 0.5, 2.0, 3.0)
AS = (0.2, 0.5, 0.9, 1.5, 2.0)


class TestPowerSum:
    def test_path6_zagreb(self):
        assert r0_general(path_tree(6), 2) == 18

    def test_star6_zagreb(self):
        assert r0_general(star_tree(6), 2) == 30

    @pytest.mark.parametrize("n", (4, 6, 9))
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_star_closed_form(self, n, alpha):
        assert values_close(r0_general(star_tree(n), alpha), (n - 1) ** alpha + (n - 1))

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            r0_general(path_tree(4), 0)
        with pytest.raises(ValueError):
            r0_of_degseq((2, 1, 1), 1.0)

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            r0_general(Tree(1, ()), 2)


class TestWeightedExpSum:
    def test_path6(self):
        assert sei(path_tree(6), 2) == 36

    @pytest.mark.parametrize("n", (4, 6, 9))
    @pytest.mark.parametrize("a", AS)
    def test_star_closed_form(self, n, a):
        assert values_close(sei(star_tree(n), a), (n - 1) * a ** (n - 1) + (n - 1) * a)

    def test_spider_direct_sum(self):
        # degrees (3,2,2,2,2,1,1,1) at a = 0.5, summed directly
        t = spider(2, 2, 2)
        t8 = spider(2, 2, 3)
        assert t8.n == 8
        expected = sum(d * 0.5**d for d in (3, 2, 2, 2, 2, 1, 1, 1))
        assert values_close(sei(t8, 0.5), expected)
        assert values_close(sei(t8, 0.5), 3.875)
        assert t.n == 7  # smaller spider is a different tree

    def test_invalid_a(self):
        for bad in (0.0, -1.0, 1.0):
            with pytest.raises(ValueError):
                sei_of_degseq((2, 1, 1), bad)


class TestDegreeSequenceForms:
    def test_pair(self):
        assert r0_of_degseq((1, 1), -1) == 2

    def test_spider_seq(self):
        assert r0_of_degseq((3,) + (2,) * 4 + (1,) * 3, 2) == 28

    def test_branching_seq(self):
        assert sei_of_degseq((3,) * 1 + (2,) * 4 + (1,) * 3, 2) == 62

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_sufficiency(self, alpha):
        for t in trees_up_to(8):
            assert values_close(r0_general(t, alpha), r0_of_degseq(t.degree_sequence(), alpha))

    @pytest.mark.parametrize("a", AS)
    def test_sufficiency_expsum(self, a):
        for t in trees_up_to(8):
            assert values_close(sei(t, a), sei_of_degseq(t.degree_sequence(), a))

    def test_zagreb_specialization(self):
        for t in trees_up_to(8):
            assert values_close(r0_general(t, 2), sum(d * d for d in t.degrees))

    def test_isomorphism_invariance(self):
        rng = random.Random(7)
        for t in trees_up_to(8):
            perm = list(range(t.n))
            rng.shuffle(perm)
            other = Tree(t.n, tuple((perm[u], perm[v]) for u, v in t.edges))
            assert values_close(r0_general(t, -0.5), r0_general(other, -0.5))
            assert values_close(sei(t, 0.9), sei(other, 0.9))


def tolerance_formula(x, y):
    return abs(x - y) <= max(REL_TOL * max(abs(x), abs(y)), ABS_TOL)


class TestValuesClose:
    """The contract: abs(x - y) <= max(REL_TOL * max(|x|, |y|), ABS_TOL)."""

    # (x, y) exactly at the tolerance in floats: 1e9 - (1e9 - 1) == 1.0 ==
    # REL_TOL * 1e9, 2**-10 == REL_TOL * 976562.5, and 1e-12 == ABS_TOL.
    AT_TOLERANCE = ((1e9, 1e9 - 1), (976562.5, 976562.5 - 2.0**-10), (0.0, ABS_TOL),
                    (-ABS_TOL / 2, ABS_TOL / 2), (-1e9, 1 - 1e9))

    @pytest.mark.parametrize("x, y", AT_TOLERANCE)
    def test_at_and_beyond_the_tolerance(self, x, y):
        assert abs(x - y) == max(REL_TOL * max(abs(x), abs(y)), ABS_TOL)
        beyond = math.nextafter(y, math.copysign(math.inf, y - x))
        for a, b, close in ((x, y, True), (x, beyond, False)):
            assert values_close(a, b) is values_close(b, a) is close

    def test_near_zero_uses_the_absolute_floor(self):
        assert values_close(1e-13, -1e-13)
        assert values_close(0.0, 5e-13)
        assert not values_close(0.0, 2e-12)
        assert not values_close(1e-12, 3e-12)  # far apart relative to either

    @pytest.mark.parametrize("x", (0.0, -0.0, 5e-324, 1e-300, 3.5, -7.25, 1e308))
    def test_equal_values(self, x):
        assert values_close(x, x)

    def test_matches_the_formula_around_the_tolerance(self):
        rng = random.Random(2017)
        outcomes = set()
        for _ in range(2000):
            x = rng.uniform(-1, 1) * 10.0 ** rng.randrange(-15, 15)
            y = x + (x or 1e-12) * rng.uniform(-3e-9, 3e-9)
            close = tolerance_formula(x, y)
            assert values_close(x, y) is values_close(y, x) is close
            outcomes.add(close)
        assert outcomes == {True, False}

    def test_infinity_is_close_only_to_itself(self):
        assert values_close(math.inf, math.inf)
        assert not values_close(math.inf, -math.inf)
        assert not values_close(math.inf, 1e308)


class TestRegimes:
    def test_examples(self):
        assert Index.of(alpha=2).regime == "convex"
        assert Index.of(alpha=-1).regime == "convex"
        assert Index.of(alpha=0.5).regime == "concave"
        assert Index.of(a=2).regime == "above_one"
        assert Index.of(a=0.6).regime == "window"
        assert Index.of(a=0.3).regime == "low"
        assert Index.of(alpha=3) == Index("r0", 3.0, "convex")
        assert Index.of(a=1.5) == Index("sei", 1.5, "above_one")

    def test_window_boundary_constant(self):
        assert values_close(WINDOW_LOW_A, (1 + math.sqrt(33)) / 16)
        assert 0.42 < WINDOW_LOW_A < 0.43
        # the boundary itself belongs to the low regime (open window)
        assert Index.of(a=WINDOW_LOW_A).regime == "low"
        assert Index.of(a=WINDOW_LOW_A + 1e-9).regime == "window"

    def test_invalid(self):
        with pytest.raises(ValueError):
            Index.of()
        with pytest.raises(ValueError):
            Index.of(alpha=2, a=2)
        with pytest.raises(ValueError):
            Index.of(alpha=1)
        with pytest.raises(ValueError):
            Index.of(a=-2)

    def test_of_keeps_what_it_builds(self):
        assert Index.of(alpha=2) is Index.of(alpha=2.0)
        assert Index.of(a=0.5) is Index.of(a=0.5)
        held = Index._of.cache_info().currsize
        for _ in range(2):  # a failure is never kept: it raises on every call
            with pytest.raises(ValueError, match="other than 0 and 1"):
                Index.of(alpha=1)
            with pytest.raises(ValueError, match="a must be finite"):
                Index.of(a=math.nan)
        assert Index._of.cache_info().currsize == held

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite(self, bad):
        with pytest.raises(ValueError, match="alpha must be finite"):
            Index.of(alpha=bad)
        with pytest.raises(ValueError, match="a must be finite"):
            Index.of(a=bad)
        with pytest.raises(ValueError):
            sei_of_degseq((2, 1, 1), bad)


class TestIndexTerms:
    @pytest.mark.parametrize("kw", [{"alpha": x} for x in ALPHAS] + [{"a": x} for x in AS])
    def test_sum_of_terms(self, kw):
        index = Index.of(**kw)
        assert index.keyword == kw
        for t in trees_up_to(7):
            assert values_close(index.of_degseq(t.degrees), sum(index.term(d) for d in t.degrees))

    @pytest.mark.parametrize("fields, formula", [
        (("r0", 2.5, "convex"), lambda d: d**2.5),
        (("sei", 0.7, "window"), lambda d: d * 0.7**d),
    ], ids=["r0", "sei"])
    def test_sums_each_degree_term_once(self, fields, formula, monkeypatch):
        # of_degseq has no formula of its own: it sums Index.term, computed
        # once per distinct degree for the life of the Index
        index = Index(*fields)  # not the held Index.of value: no term computed yet
        calls = Counter()
        term = Index.term

        def counting(self, d):
            calls[d] += 1
            return term(self, d)

        monkeypatch.setattr(Index, "term", counting)
        for degrees, new in (((4, 3, 2, 2, 2, 1, 1, 1, 1, 1), (4, 3, 2, 1)),
                             ((5, 4, 1, 1, 1, 1, 1, 1, 1), (5,)),
                             ((4, 3, 2, 2, 2, 1, 1, 1, 1, 1), ())):
            calls.clear()
            assert index.of_degseq(degrees) == math.fsum(map(formula, degrees))
            assert calls == Counter(new)
        assert index.of_degseq(iter(degrees)) == index.of_degseq(degrees)

    @pytest.mark.parametrize("kw, degrees, message", [
        ({"alpha": 1000}, (4, 1, 1, 1, 1), "alpha=1000.0 at degree 4"),  # pow raises
        ({"a": 1e80}, (4, 1, 1, 1, 1), "a=1e+80 at degree 4"),
        ({"a": 3.98e61}, (5, 1, 1, 1, 1, 1), "a=3.98e+61 at degree 5"),  # 5 * a**5 is inf
        ({"alpha": 511.5}, (4, 4, 1, 1, 1, 1, 1, 1), "alpha=511.5: the sum of the terms"),
    ])
    def test_overflow_names_parameter_and_degree(self, kw, degrees, message):
        index = Index.of(**kw)
        with pytest.raises(OverflowError) as exc:
            index.of_degseq(degrees)
        assert str(exc.value).startswith(message)
        if "degree" in message:
            with pytest.raises(OverflowError) as exc:
                index.term(degrees[0])
            assert str(exc.value) == message

    @pytest.mark.parametrize("kw", [{"alpha": x} for x in DEFAULT_ALPHA_GRID]
                             + [{"a": x} for x in DEFAULT_A_GRID])
    def test_held_terms_sum_like_fresh_ones(self, kw):
        # a warm Index sums its held terms; a fresh one computes them first
        sequences = [ds for n in range(2, 13) for ds in _families(n)[None, None]]
        held = Index.of(**kw)
        fields = (held.kind, held.x, held.regime)
        for ds in sequences:
            held.of_degseq(ds)
        for ds in sequences:
            assert held.of_degseq(ds) == Index(*fields).of_degseq(ds), ds
            assert held.of_degseq(iter(ds)) == held.of_degseq(ds)

    def test_held_terms_overflow_like_fresh_ones(self):
        # 4**511.5 = 2**1023 is the largest power of two a float holds
        index = Index("r0", 511.5, "convex")  # not the held Index.of value: no term computed yet
        index.of_degseq((4, 1, 1, 1, 1))
        with pytest.raises(OverflowError,
                           match=r"^alpha=511\.5: the sum of the terms is infinite$"):
            index.of_degseq((4, 4, 1, 1, 1, 1, 1, 1))
        # the held terms overflow before degree 5 is reached, whose own term is infinite
        with pytest.raises(OverflowError, match=r"^alpha=511\.5 at degree 5$"):
            index.of_degseq((4, 4, 5, 1, 1, 1, 1, 1, 1, 1))


class TestShiftSignIdentity:
    """Sign structure of q(a) = a(8a^3 - 9a^2 + 1) = a(a-1)(8a^2 - a - 1)."""

    @staticmethod
    def factored(a):
        return a * (a - 1) * (8 * a * a - a - 1)

    @pytest.mark.parametrize("a", (0.3, 0.6, 2.0, 0.43, 1.2))
    def test_factorization(self, a):
        assert values_close(a * (8 * a**3 - 9 * a**2 + 1), self.factored(a))

    def test_roots(self):
        for root in (1.0, (1 + math.sqrt(33)) / 16, (1 - math.sqrt(33)) / 16):
            assert abs(8 * root**3 - 9 * root**2 + 1) < 1e-12

    def test_signs(self):
        assert self.factored(0.3) > 0  # low regime
        assert self.factored(0.6) < 0  # window
        assert self.factored(2.0) > 0  # above one
