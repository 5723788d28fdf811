"""Exhaustive verification of the closed-form bounds and move monotonicity.

Every (theorem, n, family parameter, index parameter) cell where a
direction is claimed gets checked against brute force over the complete
enumerated family: the bound must equal the true optimum and the set of
optimizing degree sequences must equal the characterized equality
sequence. Cells that fail are reported as REFUTED with witnesses;
refutations are data, not errors.

Both indices depend only on the degree sequence, and a family is a
group of its order's one table (enumeration._families), so a verdict
is read off one index value per degree sequence: each (n, index) keeps
a memo that a sequence enters the first time a scanned family contains
it. One scan, _scan, decides a cell for check_theorem and for
oracle_extremum: it reads the family's values from the memo and
returns the best and its winners, the sequences within tolerance of
it. Every value is positive, so when the runner-up of the sorted
values is not within tolerance of the best, no later value is, and the
best alone wins; only a tie or a near-tie compares every value.
check_theorem is one loop over (n, family parameter): each n fetches
each claimed grid value's memo once, each pair its equality sequence
and family once, and each claimed grid value then costs a bound value,
a scan and a report, a named tuple. No tree is built for a verdict. A
cell's witnesses, every tree of every optimal sequence, are made only
when the cell is written out (--report, --csv, --json):
enumeration._census gives each winning class's edge texts, already in
witness order, from one walk per order. Each built class is held once,
as a plain tuple of its edge texts; a class read before it was built
is built with its whole order, in that order's one walk. A writer call
encodes a class the first time it writes it, and its encodings go when
it returns; the writers write one cell at a time to the file they are
given, so a report is never held whole in memory.

All outputs are deterministic: identical inputs produce byte-identical
JSON and CSV documents (no timestamps or wall-clock data inside).
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import compress, repeat
from typing import NamedTuple

from .bounds import (
    THEOREM_DIRECTIONS,
    THEOREM_FAMILY,
    THEOREM_NAMES,
    FamilyConstraint,
    _bound_value,
    _equality_degseq,
    balanced_counts,
    balanced_counts_formula,
    family_params,
)
from .bounds import theorem_bound  # noqa: F401  (looked up here by perfbench/tracer.py)
from .enumeration import _census, _families, free_trees
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


# The edge texts of every class built so far, by degree sequence.
_WITNESSES: dict[DegreeSequence, tuple[str, ...]] = {}


def _build(classes) -> None:
    """Build each class not yet held, with one census walk per order."""
    by_order: dict[int, set[DegreeSequence]] = {}
    for ds in classes:
        if ds not in _WITNESSES:
            by_order.setdefault(len(ds), set()).add(ds)
    for n, wanted in by_order.items():
        _WITNESSES.update(_census(n, wanted))


def _witnesses(ds: DegreeSequence) -> tuple[str, ...]:
    """A class's witnesses; an unbuilt class is built with its whole order."""
    if ds not in _WITNESSES:
        _build(_families(len(ds))[None, None])
    return _WITNESSES[ds]


def build_witnesses(reports) -> None:
    """Build the witnesses of every class that wins a cell of the
    reports, and only those."""
    _build(ds for r in reports for ds in r.optimal_degseqs)


@lru_cache(maxsize=None)
def _values(n: int, index: Index) -> dict[DegreeSequence, float]:
    """Index value of each n-vertex degree sequence scanned so far."""
    return {}


def _scan(family, index: Index, direction: str, memo: dict[DegreeSequence, float]):
    """The best value of index over a family of degree sequences and the
    sequences values_close to it, as (best, winners).

    memo is _values(n, index) at the family's order; a sequence it does
    not hold yet is evaluated, for this family only. Every value is
    positive, so when the runner-up of the sorted values is not close to
    the best, no later value is: it is at least as far from the best as
    the runner-up, and the tolerance grows by only REL_TOL of the extra
    distance. The sequence holding the best value then wins alone;
    otherwise (a tie or a near-tie) every value is compared with the best.
    """
    try:
        values = list(map(memo.__getitem__, family))
    except KeyError:  # the first scan of some of this family's sequences at this index
        for ds in family:
            if ds not in memo:
                memo[ds] = index.of_degseq(ds)
        values = list(map(memo.__getitem__, family))
    ranked = sorted(values, reverse=direction == "max")
    best = ranked[0]
    if len(ranked) > 1 and values_close(ranked[1], best):
        return best, tuple(compress(family, map(values_close, values, repeat(best))))
    return best, (family[values.index(best)],)


def oracle_extremum(c: FamilyConstraint, direction: str, *,
                    alpha: float | None = None, a: float | None = None):
    """Exact extremum of an index over a family, plus the deduplicated
    set of optimizing degree sequences."""
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    index = Index.of(alpha=alpha, a=a)
    family = _families(c.n)[c.kind, c.param]  # a group is never empty
    return _scan(family, index, direction, _values(c.n, index))


class TheoremReport(NamedTuple):
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
    optimal_degseqs: tuple[DegreeSequence, ...]

    @property
    def witness_edge_texts(self) -> tuple[str, ...]:
        """Every tree of every optimal degree sequence, read from the
        class cache; the report keeps none of them. The first read of a
        class not yet built walks its whole order and keeps every class's
        texts (49 MB and 1.5 s at n = 18): call build_witnesses first."""
        return tuple(text for ds in self.optimal_degseqs for text in _witnesses(ds))

    def scalar_fields(self) -> dict:
        """The report schema without its witnesses, in CSV_COLUMNS order."""
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
        }

    def to_json_dict(self) -> dict:
        """The report schema: the scalar fields, then the witnesses."""
        return {**self.scalar_fields(), "witnesses": list(self.witness_edge_texts)}


def _grid(alpha_grid, a_grid) -> list[Index]:
    return [Index.of(alpha=x) for x in alpha_grid] + [Index.of(a=x) for x in a_grid]


def check_theorem(theorem: str, n_range, alpha_grid=DEFAULT_ALPHA_GRID,
                  a_grid=DEFAULT_A_GRID) -> list[TheoremReport]:
    """One report per (n, param, claimed index), ordered by (n, param,
    index, value): a cell for each param in family_params of its family
    (all trees from n = 4, PT/ST/BT from n = 6) and each grid value
    whose regime the theorem claims, so no other bound is evaluated.

    Each n fetches each claimed grid value's memo once, and each
    (n, param) its equality sequence and family once. Each cell then
    evaluates the bound's value (what theorem_bound gives, without
    building a BoundValue), scans the family and appends its report:
    the winner is the sequence holding the best value unless the
    runner-up is within tolerance of it, when every value is compared
    with the best. A theorem that claims no grid value evaluates
    nothing.
    """
    if theorem not in THEOREM_NAMES:
        raise ValueError(f"unknown theorem {theorem!r}")
    kind = THEOREM_FAMILY[theorem]
    claims = [(index, direction) for index in _grid(alpha_grid, a_grid)
              if (direction := index.claim(THEOREM_DIRECTIONS[theorem])) is not None]
    reports = []
    if not claims:  # no cell, so no bound or sequence to evaluate
        return reports
    for n in n_range:
        families = _families(n)
        memos = [_values(n, index) for index, _ in claims]
        for param in family_params(kind, n):
            seq = _equality_degseq(theorem, n, param)
            family = families[kind, param]  # a group is never empty
            for (index, direction), memo in zip(claims, memos):
                bound = _bound_value(theorem, n, param, index, seq)
                best, winners = _scan(family, index, direction, memo)
                bound_matches = values_close(bound, best)
                equality_set_matches = winners == (seq,)
                reports.append(TheoremReport(
                    theorem, n, param, index.kind, index.x, direction, bound, best,
                    bound_matches, equality_set_matches,
                    CONFIRMED if bound_matches and equality_set_matches else REFUTED,
                    winners))
    return reports


class MonotonicityRow(NamedTuple):
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
    claims = [(index, sign) for index in _grid(alpha_grid, a_grid)
              if (sign := claimed_sign(kind, **index.keyword)) is not None]
    if not claims:  # no move is applied or tree built
        return []
    moves = []
    for n in n_range:
        for t in free_trees(n):
            try:
                moves.append(TRANSFORMS[kind](t))
            except ValueError:
                continue
    rows = []
    for index, sign in claims:
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
        for n1 in family_params("pt", n):
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
    build_witnesses(cells)
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


def _json_scalar(value) -> str:
    """json.dumps(value) for a scalar field: a name from a fixed table,
    which holds nothing to escape, an int, None or a finite float."""
    if value is None:
        return "null"
    return f'"{value}"' if type(value) is str else repr(value)


def reports_to_json(reports, file) -> None:
    """Write the JSON array of cell objects (the report schema) to the
    file, with the bytes of
    json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n".

    One cell is written at a time, so the document is never held. A
    cell's head, its scalar fields as indented `"name": value` lines,
    is written straight from scalar_fields; then its witness items,
    each class's made once per call with json.dumps on each text; then
    its tail.
    """
    encoded = {}
    i = -1  # the last cell written
    for i, r in enumerate(reports):
        fields = ",\n    ".join([f'"{name}": {_json_scalar(value)}'
                                 for name, value in r.scalar_fields().items()])
        file.write(f'{"," if i else "["}\n  {{\n    {fields},\n    "witnesses": [\n      ')
        for k, ds in enumerate(r.optimal_degseqs):
            if ds not in encoded:
                encoded[ds] = ",\n      ".join(map(json.dumps, _witnesses(ds)))
            if k:
                file.write(",\n      ")
            file.write(encoded[ds])
        file.write("\n    ]\n  }")
    file.write("[]\n" if i < 0 else "\n]\n")


CSV_COLUMNS = ("theorem", "n", "param", "index", "index_param", "direction",
               "bound", "oracle", "verdict", "witnesses")


def reports_to_csv(reports, file) -> None:
    """Write the CSV flattening of the JSON schema to the file, in
    CSV_COLUMNS order, with the bytes csv.writer(lineterminator="\n")
    writes: a None param is an empty field, numbers are their str (a
    float's repr), and witness edge lists use ';' between edges and '|'
    between witnesses.

    No field ever needs quoting, so each row is joined directly: theorem,
    index, direction and verdict names come from fixed tables, numbers
    hold no ',', '"' or line break, and witnesses hold only digits,
    spaces, ';' and '|'. The header and then one row per cell are
    written, each as it is made; a class's field is made once per call.
    """
    encoded = {}
    file.write(",".join(CSV_COLUMNS) + "\n")
    for r in reports:
        scalars = ",".join("" if v is None else str(v) for v in r.scalar_fields().values())
        for ds in r.optimal_degseqs:
            if ds not in encoded:
                encoded[ds] = "|".join(_witnesses(ds)).replace("\n", ";")
        witnesses = "|".join(map(encoded.__getitem__, r.optimal_degseqs))
        file.write(f"{scalars},{witnesses}\n")
