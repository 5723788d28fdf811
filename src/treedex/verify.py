"""Exhaustive verification of the closed-form bounds and move monotonicity.

Every (theorem, n, family parameter, index parameter) cell where a
direction is claimed gets checked against brute force over the complete
enumerated family: the bound must equal the true optimum and the set of
optimizing degree sequences must equal the characterized equality
sequence. Cells that fail are reported as REFUTED with witnesses;
refutations are data, not errors.

Both indices depend only on the degree sequence, and a family is a
filter over degree sequences (enumeration._family), so a verdict is
read off one index value per degree sequence: each (n, index) keeps a
memo that a sequence enters the first time a scanned family contains
it. No tree is built for a verdict. A cell's witnesses, every tree of
every optimal sequence, are built from the level-sequence census only
when the cell is written out (--report, --csv, --json), once per class.

All outputs are deterministic: identical inputs produce byte-identical
JSON and CSV documents (no timestamps or wall-clock data inside).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress, repeat

from .bounds import (
    THEOREM_FAMILY,
    THEOREM_NAMES,
    FamilyConstraint,
    balanced_counts,
    balanced_counts_formula,
    family_params,
    theorem_bound,
)
from .enumeration import _family, _level_degrees, _level_sequences, _tree_from_levels, free_trees
from .indices import ABS_TOL, REL_TOL, WINDOW_LOW_A, Index, values_close
from .trees import DegreeSequence, canonical_code
from .transforms import TRANSFORMS, claimed_sign

CONFIRMED = "CONFIRMED"
REFUTED = "REFUTED"

DEFAULT_ALPHA_GRID = (-1.0, -0.5, 0.5, 2.0, 3.0)
# Covers every regime, including both sides of the window boundary.
DEFAULT_A_GRID = (0.2, 0.3, WINDOW_LOW_A + 0.01, 0.6, 0.9, 1.5, 2.0)
# Orders covered by the balanced-count audit of full_report.
_AUDIT_N_LO, _AUDIT_N_HI = 6, 14


@lru_cache(maxsize=None)
def _census(n: int) -> dict[DegreeSequence, tuple[bytes, ...]]:
    """Degree sequence -> level sequence of each tree in its class.

    Sequences ascend by degrees and each class keeps free_trees order.
    No tree is built here; `_witnesses` builds a class when it is
    written out. Verdicts never read the census.
    """
    classes: dict[tuple[int, ...], list[bytes]] = {}
    for levels in _level_sequences(n):
        classes.setdefault(_level_degrees(levels), []).append(bytes(levels))
    return {DegreeSequence(degrees): tuple(classes[degrees]) for degrees in sorted(classes)}


@lru_cache(maxsize=None)
def _witnesses(ds: DegreeSequence) -> tuple[str, ...]:
    """Edge texts of a census class, in canonical code order."""
    trees = sorted(map(_tree_from_levels, _census(len(ds))[ds]), key=canonical_code)
    return tuple(t.edge_text() for t in trees)


@lru_cache(maxsize=None)
def _values(n: int, index: Index) -> dict[tuple[int, ...], float]:
    """Index value of each n-vertex degree sequence scanned so far."""
    return {}


def _scan(kind: str | None, n: int, param: int | None, direction: str, index: Index):
    family = _family(kind, n, param)
    if not family:
        raise ValueError(f"empty family {kind}({n}, {param})")
    memo = _values(n, index)
    values = []
    for ds in family:
        value = memo.get(ds.degrees)
        if value is None:  # first scan of this sequence at this index
            value = memo[ds.degrees] = index.of_degseq(ds.degrees)
        values.append(value)
    best = min(values) if direction == "min" else max(values)
    winners = tuple(compress(family, map(values_close, values, repeat(best))))
    return best, winners


def oracle_extremum(c: FamilyConstraint, direction: str, *,
                    alpha: float | None = None, a: float | None = None):
    """Exact extremum of an index over a family, plus the deduplicated
    set of optimizing degree sequences."""
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    best, winners = _scan(c.kind, c.n, c.param, direction, Index.of(alpha=alpha, a=a))
    return best, tuple(ds.degrees for ds in winners)


@dataclass(frozen=True)
class TheoremReport:
    """Per-cell verdict comparing a closed-form bound to the oracle."""

    theorem: str
    n: int
    param: int | None
    index_kind: str  # "r0" | "sei"
    index_param: float
    direction: str
    bound: float
    oracle: float
    bound_matches: bool
    equality_set_matches: bool
    verdict: str
    expected_degseq: tuple[int, ...]
    optimal_degseqs: tuple[tuple[int, ...], ...]

    @cached_property
    def witness_edge_texts(self) -> tuple[str, ...]:
        """Every tree of every optimal degree sequence, built on first read."""
        return tuple(text for ds in self.optimal_degseqs for text in _witnesses(DegreeSequence(ds)))

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "n": self.n,
            "param": self.param,
            "index": self.index_kind,
            "index_param": self.index_param,
            "direction": self.direction,
            "bound": self.bound,
            "oracle": self.oracle,
            "verdict": self.verdict,
            "witnesses": list(self.witness_edge_texts),
        }


def _check_cell(theorem: str, n: int, param: int | None, index: Index) -> TheoremReport | None:
    bound = theorem_bound(theorem, n, param, **index.keyword)
    if bound.direction is None:
        return None
    kind = THEOREM_FAMILY[theorem]
    best, winners = _scan(kind, n, param, bound.direction, index)
    bound_matches = values_close(bound.value, best)
    equality_set_matches = winners == (bound.equality_degseq,)
    return TheoremReport(
        theorem=theorem,
        n=n,
        param=param,
        index_kind=index.kind,
        index_param=index.x,
        direction=bound.direction,
        bound=bound.value,
        oracle=best,
        bound_matches=bound_matches,
        equality_set_matches=equality_set_matches,
        verdict=CONFIRMED if bound_matches and equality_set_matches else REFUTED,
        expected_degseq=bound.equality_degseq.degrees,
        optimal_degseqs=tuple(ds.degrees for ds in winners),
    )


def _grid(alpha_grid, a_grid) -> list[Index]:
    return [Index.of(alpha=x) for x in alpha_grid] + [Index.of(a=x) for x in a_grid]


def check_theorem(theorem: str, n_range, alpha_grid=DEFAULT_ALPHA_GRID,
                  a_grid=DEFAULT_A_GRID) -> list[TheoremReport]:
    """One report per claimed cell, ordered by (n, param, index, value)."""
    if theorem not in THEOREM_NAMES:
        raise ValueError(f"unknown theorem {theorem!r}")
    kind = THEOREM_FAMILY[theorem]
    grid = _grid(alpha_grid, a_grid)
    reports = []
    for n in n_range:
        for param in (None,) if kind is None else family_params(kind, n):
            for index in grid:
                report = _check_cell(theorem, n, param, index)
                if report is not None:
                    reports.append(report)
    return reports


@dataclass(frozen=True)
class MonotonicityRow:
    """Sign conformance of one move under one index parameter."""

    kind: str
    index_kind: str
    index_param: float
    regime: str
    claimed_sign: int
    applicable: int
    conforming: int
    counterexamples: tuple[str, ...]  # canonical codes (hex) of offending inputs
    counterexample_total: int

    @property
    def conformance(self) -> float:
        return 1.0 if self.applicable == 0 else self.conforming / self.applicable

    def to_json_dict(self) -> dict:
        return {
            "transform": self.kind,
            "index": self.index_kind,
            "index_param": self.index_param,
            "regime": self.regime,
            "claimed_sign": self.claimed_sign,
            "applicable": self.applicable,
            "conforming": self.conforming,
            "conformance": self.conformance,
            "counterexamples": list(self.counterexamples),
            "counterexample_total": self.counterexample_total,
        }


def check_monotonicity(kind: str, n_range, alpha_grid=DEFAULT_ALPHA_GRID,
                       a_grid=DEFAULT_A_GRID) -> list[MonotonicityRow]:
    """Sign of the actual delta vs the claimed sign, over every applicable
    tree in range. Codes refer to the tree the move actually ran on
    (the caterpillar realization for the s-moves)."""
    if kind not in TRANSFORMS:
        raise ValueError(f"unknown transform {kind!r}")
    grid = _grid(alpha_grid, a_grid)
    moves = []
    for n in n_range:
        for t in free_trees(n):
            try:
                moves.append(TRANSFORMS[kind](t))
            except ValueError:
                continue
    rows = []
    for index in grid:
        sign = claimed_sign(kind, **index.keyword)
        if sign is None:
            continue
        offenders = []
        for move in moves:
            delta = index.of_tree(move.before) - index.of_tree(move.after)
            if not ((delta > ABS_TOL and sign > 0) or (delta < -ABS_TOL and sign < 0)):
                offenders.append(move.before)
        rows.append(
            MonotonicityRow(
                kind=kind,
                index_kind=index.kind,
                index_param=index.x,
                regime=index.regime,
                claimed_sign=sign,
                applicable=len(moves),
                conforming=len(moves) - len(offenders),
                counterexamples=tuple(canonical_code(t).hex() for t in offenders[:10]),
                counterexample_total=len(offenders),
            )
        )
    return rows


def _balanced_count_audit() -> dict:
    rows = []
    failures = 0
    for n in range(_AUDIT_N_LO, _AUDIT_N_HI + 1):
        for n1 in range(3, n - 1):
            bc = balanced_counts(n, n1)
            fx, fy = balanced_counts_formula(n, n1)
            internal_sum = 2 * (n - 1) - n1
            formula_ok = (
                fx >= 0
                and fy >= 0
                and bc.t * fx + (bc.t + 1) * fy == internal_sum
                and fx + fy == n - n1
            )
            if not formula_ok:
                failures += 1
            rows.append(
                {
                    "n": n,
                    "n1": n1,
                    "t": bc.t,
                    "identity_counts": [bc.count_t, bc.count_t1],
                    "formula_counts": [fx, fy],
                    "formula_satisfies_identities": formula_ok,
                }
            )
    return {
        "description": (
            "Internal degree multiplicities for the balanced-split bound: "
            "the identity-consistent counts (used by pt-balanced) versus "
            "the direct closed-form count expressions, which fail the "
            "degree-sum identity and are therefore not used."
        ),
        "n_range": [_AUDIT_N_LO, _AUDIT_N_HI],
        "cells_checked": len(rows),
        "formula_identity_failures": failures,
        "cells": rows,
    }


def full_report(n_max: int = 14, alpha_grid=DEFAULT_ALPHA_GRID, a_grid=DEFAULT_A_GRID,
                mono_n_max: int = 10) -> dict:
    """Deterministic aggregate document: every theorem cell for n in
    6..n_max, monotonicity rows for applicable trees up to mono_n_max,
    and the balanced-count audit."""
    cells = []
    for theorem in THEOREM_NAMES:
        cells.extend(check_theorem(theorem, range(6, n_max + 1), alpha_grid, a_grid))
    mono = []
    for kind in sorted(TRANSFORMS):
        mono.extend(
            check_monotonicity(kind, range(4, min(mono_n_max, n_max) + 1), alpha_grid, a_grid)
        )
    return {
        "n_range": [6, n_max],
        "alpha_grid": list(alpha_grid),
        "a_grid": list(a_grid),
        "tolerances": {"relative": REL_TOL, "absolute": ABS_TOL},
        "cells": [c.to_json_dict() for c in cells],
        "monotonicity": [m.to_json_dict() for m in mono],
        "balanced_count_audit": _balanced_count_audit(),
    }


def reports_to_json(reports) -> str:
    """JSON array of cell objects (the report schema)."""
    return json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n"


CSV_COLUMNS = ("theorem", "n", "param", "index", "index_param", "direction",
               "bound", "oracle", "verdict", "witnesses")


def reports_to_csv(reports) -> str:
    """CSV flattening of the JSON schema, in CSV_COLUMNS order: csv
    writes floats as their repr and a None param as an empty field.

    Witness edge lists use ';' between edges and '|' between witnesses.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        row = r.to_json_dict()
        row["witnesses"] = "|".join(text.replace("\n", ";") for text in row["witnesses"])
        writer.writerow(row[column] for column in CSV_COLUMNS)
    return buf.getvalue()
