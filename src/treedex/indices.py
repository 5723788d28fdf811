"""Degree-based index evaluation and parameter-regime classification.

Both indices depend only on the degree sequence:

    power sum        R0(T, alpha) = sum_v d_v**alpha     alpha not in {0, 1}
    weighted expsum  SEI(T, a)    = sum_v d_v * a**d_v   a > 0, a != 1

alpha = 2 specializes to the first Zagreb index, alpha = -1/2 to the
plain zeroth-order connectivity index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .trees import Tree

# Boundary between the "window" and "low" regimes for a < 1: the positive
# root of 8a^2 - a - 1, from 8a^3 - 9a^2 + 1 = (a - 1)(8a^2 - a - 1).
WINDOW_LOW_A = (1.0 + math.sqrt(33.0)) / 16.0

# Column order of the per-regime claim rows (the theorems' bound directions):
#   convex     alpha < 0 or alpha > 1
#   concave    0 < alpha < 1
#   above_one  a > 1
#   window     WINDOW_LOW_A < a < 1
#   low        0 < a <= WINDOW_LOW_A
REGIMES = ("convex", "concave", "above_one", "window", "low")

# The keyword of each index kind's parameter, in the API and on the command line.
KEYWORDS = {"r0": "alpha", "sei": "a"}

# Comparison tolerances used across bounds and verification.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def values_close(x: float, y: float) -> bool:
    """Relative 1e-9 comparison with absolute floor 1e-12:
    abs(x - y) <= max(REL_TOL * max(abs(x), abs(y)), ABS_TOL) for finite
    x and y.

    math.isclose, so an infinity is close only to itself; no infinity
    reaches it here, because the index sums and closed forms raise
    OverflowError first.
    """
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL)


@dataclass(frozen=True)
class Index:
    """One of the two indices at a validated parameter x.

    kind is "r0" (x = alpha) or "sei" (x = a); regime is one of REGIMES.
    Build it with Index.of, the only place that validates parameters.
    It keeps what it builds, keyed by (kind, float x) however the keyword
    was written, so a repeated call (the keyword functions below, once
    per verify cell) gets the held Index back. term holds the formulas;
    an Index keeps each degree's term once of_degseq has computed it.
    """

    kind: str
    x: float
    regime: str
    _terms: dict[int, float] = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, *, alpha: float | None = None, a: float | None = None) -> Index:
        if (alpha is None) == (a is None):
            raise ValueError("exactly one of alpha, a must be given")
        return cls._of("r0", float(alpha)) if alpha is not None else cls._of("sei", float(a))

    @classmethod
    @lru_cache(maxsize=None)
    def _of(cls, kind: str, x: float) -> Index:
        if not math.isfinite(x):
            raise ValueError(f"{KEYWORDS[kind]} must be finite, got {x!r}")
        if kind == "r0":
            if x == 0.0 or x == 1.0:
                raise ValueError("alpha must be a real number other than 0 and 1")
            return cls(kind, x, "concave" if 0.0 < x < 1.0 else "convex")
        if x <= 0.0 or x == 1.0:
            raise ValueError("a must be a positive real number different from 1")
        return cls(kind, x, "above_one" if x > 1.0 else "window" if x > WINDOW_LOW_A else "low")

    @property
    def keyword(self) -> dict[str, float]:
        """The keyword form, {"alpha": x} or {"a": x}, of the public API."""
        return {KEYWORDS[self.kind]: self.x}

    def claim(self, row: tuple):
        """This regime's entry of a row laid out in REGIMES order."""
        return row[REGIMES.index(self.regime)]

    def __str__(self) -> str:
        """The parameter as written on the command line: alpha=2.0 or a=0.5."""
        return f"{KEYWORDS[self.kind]}={self.x!r}"

    def term(self, d: int) -> float:
        """Contribution of one vertex of degree d; OverflowError naming
        the parameter and d when it exceeds the float range."""
        try:
            value = d**self.x if self.kind == "r0" else d * self.x**d
        except OverflowError:  # float pow raises; float product gives inf
            value = math.inf
        if value == math.inf:
            raise OverflowError(f"{self} at degree {d}")
        return value

    def of_degseq(self, d) -> float:
        """Sum of the terms of a sequence of degrees, each distinct
        degree's term computed once per Index and largest first, so an
        overflowing term names the largest degree; OverflowError when a
        term or the sum exceeds the float range."""
        d = tuple(d)  # read again when a term is missing, so an iterator must not run dry
        terms = self._terms
        try:
            return math.fsum(map(terms.__getitem__, d))
        except KeyError:  # an unseen degree
            pass
        except OverflowError:
            if terms.keys() >= set(d):  # every term finite and held: only the sum overflows
                raise OverflowError(f"{self}: the sum of the terms is infinite") from None
        for v in sorted(set(d).difference(terms), reverse=True):
            terms[v] = self.term(v)
        return self.of_degseq(d)

    def of_tree(self, t: Tree) -> float:
        if t.n < 2:
            raise ValueError("index is defined for n >= 2")
        return self.of_degseq(t.degrees)


def r0_of_degseq(d, alpha: float) -> float:
    return Index.of(alpha=alpha).of_degseq(d)


def sei_of_degseq(d, a: float) -> float:
    return Index.of(a=a).of_degseq(d)


def r0_general(t: Tree, alpha: float) -> float:
    """sum_v d_v**alpha over the tree's vertices (n >= 2)."""
    return Index.of(alpha=alpha).of_tree(t)


def sei(t: Tree, a: float) -> float:
    """sum_v d_v * a**d_v over the tree's vertices (n >= 2)."""
    return Index.of(a=a).of_tree(t)
