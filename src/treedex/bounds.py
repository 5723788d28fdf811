"""Closed-form extremal bounds and their equality degree sequences.

Seven bound statements over four tree families (PT/ST/BT from n = 6):

    pt-spider    PT(n, n1): spider-type sequence (n1, 2^(n-n1-1), 1^n1)
    pt-balanced  PT(n, n1): near-regular internal degrees t/t+1
    bt-small     BT(n, b):  all branching degrees 3
    bt-big       BT(n, b):  one big vertex, the rest degree 3 or 1
    st-star      ST(n, k):  squeezed star side (k, 2^(n-k-1), 1^k)
    st-parity    ST(n, k):  max degree 4, at most one degree-4 vertex
    star         all n-vertex trees (n >= 4): the star

Each theorem is one table entry: its family, the equality degree
sequence, the hand-written closed forms for both indices, and the
claimed optimization direction per regime (None where no claim
exists). theorem_bound evaluates an entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .indices import Index, values_close
from .trees import DegreeSequence, Tree, realize_caterpillar

# Family kind -> its parameter (the DegreeSequence field and CLI flag)
# and what that parameter counts.
FAMILY_PARAM = {"pt": ("n1", "pendant"), "st": ("k", "segment"), "bt": ("b", "branching")}


def family_params(kind: str | None, n: int) -> range | tuple[None, ...]:
    """Every family's domain, stated only here: all trees (kind None) from
    n = 4; 3 <= n1, k <= n-2 and 1 <= b <= n/2 - 1 from n = 6."""
    if kind is None:
        return (None,) if n >= 4 else ()
    if n < 6:
        return ()
    return range(1, (n - 2) // 2 + 1) if kind == "bt" else range(3, n - 1)


def family_param(kind: str | None, stats) -> int | None:
    """The family parameter read off a DegreeSequence; None for all trees."""
    return None if kind is None else getattr(stats, FAMILY_PARAM[kind][0])


@dataclass(frozen=True)
class FamilyConstraint:
    """PT(n, n1) / ST(n, k) / BT(n, b), or all trees (kind None, param
    None): valid exactly when param is in family_params(kind, n)."""

    kind: str | None  # "pt" | "st" | "bt" | None
    n: int
    param: int | None

    def __post_init__(self) -> None:
        if self.kind is not None and self.kind not in FAMILY_PARAM:
            raise ValueError(f"unknown family kind {self.kind!r}")
        valid = family_params(self.kind, self.n)
        if self.kind is None and self.param not in valid:
            raise ValueError("all trees are defined for n >= 4 with no parameter, "
                             f"got param={self.param}, n={self.n}")
        if not valid:
            raise ValueError("families are defined for n >= 6")
        if self.param not in valid:
            name, noun = FAMILY_PARAM[self.kind]
            raise ValueError(
                f"{noun} count must satisfy {valid.start} <= {name} <= {valid.stop - 1}, "
                f"got {name}={self.param}, n={self.n}"
            )


@dataclass(frozen=True)
class BalancedCounts:
    """Multiplicities of internal degrees t and t+1 in the balanced split."""

    t: int
    count_t: int
    count_t1: int


def balanced_counts(n: int, n1: int) -> BalancedCounts:
    """Near-regular internal degree split for trees with n1 pendants.

    Internal degrees take the two values t and t+1 with
    t = floor((n-2)/(n-n1)) + 1; the multiplicities are the unique
    non-negative solution of

        count_t + count_t1         = n - n1
        t*count_t + (t+1)*count_t1 = 2(n-1) - n1
    """
    FamilyConstraint("pt", n, n1)
    t = (n - 2) // (n - n1) + 1
    count_t1 = 2 * (n - 1) - n1 - t * (n - n1)
    count_t = (n - n1) - count_t1
    return BalancedCounts(t, count_t, count_t1)


def balanced_counts_formula(n: int, n1: int) -> tuple[int, int]:
    """Direct closed-form count expressions for the balanced split.

    Kept only for the verification report: these expressions violate
    the degree-sum identity (try n=10, n1=7, where one count goes
    negative), so balanced_counts solves the identity system instead.
    """
    t = (n - 2) // (n - n1) + 1
    return (n - n1) * t - n1 + 2, n - (n - n1) * t - 2


@dataclass(frozen=True)
class BoundValue:
    """A closed-form bound with its equality degree sequence.

    direction is "min" or "max" per the claimed regime, or None when no
    direction is claimed for the given index parameter; the value and
    the equality sequence are well-defined either way.
    """

    value: float
    direction: str | None
    equality_degseq: DegreeSequence


def _balanced_degseq(n: int, n1: int) -> tuple[int, ...]:
    bc = balanced_counts(n, n1)
    return (bc.t + 1,) * bc.count_t1 + (bc.t,) * bc.count_t + (1,) * n1


def _st_parity_degseq(n: int, k: int) -> tuple[int, ...]:
    """(4, 3^((k-4)/2), 2^(n-k-1), 1^((k+4)/2)) for even k and
    (3^((k-1)/2), 2^(n-k-1), 1^((k+3)/2)) for odd k."""
    if k % 2 == 0:
        return (4,) + (3,) * ((k - 4) // 2) + (2,) * (n - k - 1) + (1,) * ((k + 4) // 2)
    return (3,) * ((k - 1) // 2) + (2,) * (n - k - 1) + (1,) * ((k + 3) // 2)


def _st_parity_r0(n: int, k: int, alpha: float) -> float:
    base = 2.0**alpha * n + (3.0**alpha - 2.0 ** (alpha + 1) + 1.0) / 2.0 * k
    if k % 2 == 0:
        return base + 4.0**alpha - 2.0 * 3.0**alpha - 2.0**alpha + 2.0
    return base + (3.0 - 3.0**alpha - 2.0 ** (alpha + 1)) / 2.0


def _st_parity_sei(n: int, k: int, a: float) -> float:
    base = 2.0 * a * a * n + (3.0 * a**3 - 4.0 * a * a + a) / 2.0 * k
    if k % 2 == 0:
        return base + 4.0 * a**4 - 6.0 * a**3 - 2.0 * a * a + 2.0 * a
    return base + (3.0 * a - 3.0 * a**3 - 4.0 * a * a) / 2.0


@dataclass(frozen=True)
class _Theorem:
    family: str | None  # None: all n-vertex trees
    degseq: Callable[[int, int | None], tuple[int, ...]]
    # closed forms value(n, param, x); None means summing the equality sequence
    r0: Callable[[int, int | None, float], float] | None
    sei: Callable[[int, int | None, float], float] | None
    directions: tuple[str | None, ...]  # per regime, in REGIMES order


_THEOREMS = {
    "pt-spider": _Theorem(
        "pt",
        lambda n, n1: (n1,) + (2,) * (n - n1 - 1) + (1,) * n1,
        lambda n, n1, al: 2.0**al * n + float(n1) ** al - (2.0**al - 1.0) * n1 - 2.0**al,
        lambda n, n1, a: 2.0 * a * a * n + (a**n1 - 2.0 * a * a + a) * n1 - 2.0 * a * a,
        ("max", "min", None, "min", "min"),
    ),
    "pt-balanced": _Theorem("pt", _balanced_degseq, None, None, ("min", "max", None, "max", "max")),
    "bt-small": _Theorem(
        "bt",
        lambda n, b: (3,) * b + (2,) * (n - 2 * b - 2) + (1,) * (b + 2),
        lambda n, b, al: 2.0**al * n + (3.0**al - 2.0 ** (al + 1) + 1.0) * b - 2.0 ** (al + 1) + 2.0,
        lambda n, b, a: 2.0 * a * a * n + (3.0 * a**3 - 4.0 * a * a + a) * b - 2.0 * a * (2.0 * a - 1.0),
        ("min", "max", "min", "max", "max"),
    ),
    # (n-2b+1, 3^(b-1), 1^(n-b)): no degree-2 vertex, at most one above 3
    "bt-big": _Theorem(
        "bt",
        lambda n, b: (n - 2 * b + 1,) + (3,) * (b - 1) + (1,) * (n - b),
        lambda n, b, al: float(n - 2 * b + 1) ** al + n + (3.0**al - 1.0) * b - 3.0**al,
        lambda n, b, a: (n - 2 * b + 1) * a ** (n - 2 * b + 1) + n * a + (3.0 * a**3 - a) * b - 3.0 * a**3,
        ("max", "min", "max", "min", "min"),
    ),
    # (k, 2^(n-k-1), 1^k): the squeeze is a star
    "st-star": _Theorem(
        "st",
        lambda n, k: (k,) + (2,) * (n - k - 1) + (1,) * k,
        lambda n, k, al: 2.0**al * n + float(k) ** al - (2.0**al - 1.0) * k - 2.0**al,
        lambda n, k, a: 2.0 * a * a * n + k * a**k - (2.0 * a - 1.0) * a * k - 2.0 * a * a,
        ("max", "min", "max", None, None),
    ),
    "st-parity": _Theorem("st", _st_parity_degseq, _st_parity_r0, _st_parity_sei,
                          ("min", "max", "min", "max", None)),
    "star": _Theorem(
        None,
        lambda n, _: (n - 1,) + (1,) * (n - 1),
        lambda n, _, al: float(n - 1) ** al + (n - 1),
        lambda n, _, a: (n - 1) * a ** (n - 1) + (n - 1) * a,
        ("max", "min", "max", None, None),
    ),
}

THEOREM_NAMES = tuple(_THEOREMS)
THEOREM_FAMILY = {name: th.family for name, th in _THEOREMS.items()}
THEOREM_DIRECTIONS = {name: th.directions for name, th in _THEOREMS.items()}


@lru_cache(maxsize=None, typed=True)
def _equality_degseq(theorem: str, n: int, param: int | None) -> DegreeSequence:
    """The theorem's equality sequence, once n and param are checked."""
    if theorem not in _THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}")
    th = _THEOREMS[theorem]
    FamilyConstraint(th.family, n, param)
    return DegreeSequence(th.degseq(n, param))


def theorem_bound(theorem: str, n: int, param: int | None = None, *,
                  alpha: float | None = None, a: float | None = None) -> BoundValue:
    """A theorem's bound ("star" takes no family parameter)."""
    seq = _equality_degseq(theorem, n, param)
    th = _THEOREMS[theorem]
    index = Index.of(alpha=alpha, a=a)
    closed_form = th.r0 if index.kind == "r0" else th.sei
    if closed_form is None:
        value = index.of_degseq(seq)
    else:
        try:
            value = closed_form(n, param, index.x)
        except OverflowError:  # float pow raises where a product gives inf
            value = math.inf
        if not math.isfinite(value):
            raise OverflowError(f"the {theorem} closed form at {index}")
    return BoundValue(value, index.claim(th.directions), seq)


def construct_extremal(theorem: str, n: int, param: int | None = None) -> Tree:
    """Caterpillar realization of a theorem's equality degree sequence.

    The result is checked for its family parameter and against the closed
    form at alpha = 2, which among all trees only the star reaches.
    """
    bound = theorem_bound(theorem, n, param, alpha=2.0)
    tree = realize_caterpillar(bound.equality_degseq)
    if family_param(THEOREM_FAMILY[theorem], tree.degree_sequence()) != param:
        raise ValueError(f"{theorem} realization for n={n}, param={param} is not in the family")
    if not values_close(Index.of(alpha=2.0).of_tree(tree), bound.value):
        raise ValueError(f"{theorem} realization for n={n}, param={param} misses the closed form")
    return tree
