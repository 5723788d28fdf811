"""Independent correctness checks for the benchmark's outputs.

The verify check is a degree-sequence oracle. Both indices and all three
family statistics depend only on the degree sequence, and every
non-increasing positive n-tuple that sums to 2(n - 1) is the degree
sequence of some tree. So the optimum of an index over PT/ST/BT(n, p) is
found by listing the integer partitions of n - 2, with no trees at all.
None of this shares code with treedex.verify or treedex.enumeration. The
only thing taken from treedex is the claim under test: the closed-form
value, claimed direction and equality sequence of treedex.theorem_bound.

Every check raises CheckError (never `assert`, which `python -O` strips).
"""

from __future__ import annotations

import re

REL_TOL = 1e-9
ABS_TOL = 1e-12

# A000055: free trees on n vertices.
FREE_TREE_COUNTS = {4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}

MOVE_PRESERVES = {"p1": "n1", "p2": "n1", "b1": "b", "b3": "b", "b4": "b", "s1a": "k", "s1aa": "k"}


class CheckError(Exception):
    """An output of the program disagrees with the checker."""


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= max(REL_TOL * max(abs(x), abs(y)), ABS_TOL)


def degree_sequences(n: int) -> list[tuple[int, ...]]:
    """Every tree degree sequence on n >= 2 vertices, as 1 + a partition of n - 2."""
    out = []

    def extend(rest: int, largest: int, parts: list[int]) -> None:
        if rest == 0:
            out.append(tuple(p + 1 for p in parts) + (1,) * (n - len(parts)))
            return
        for p in range(min(rest, largest), 0, -1):
            extend(rest - p, p, parts + [p])

    extend(n - 2, n - 2, [])
    return out


def family_param(kind: str | None, degrees: tuple[int, ...]) -> int | None:
    if kind is None:
        return None
    if kind == "pt":
        return degrees.count(1)
    if kind == "st":
        return len(degrees) - degrees.count(2) - 1
    return sum(1 for d in degrees if d >= 3)


def family_params(kind: str | None, n: int) -> range | tuple[None]:
    """Parameter range of each family, as the paper states it."""
    if kind is None:
        return (None,)
    if kind == "bt":
        return range(1, (n - 2) // 2 + 1)
    return range(3, n - 1)


def index_value(index: str, x: float, counts: dict[int, int]) -> float:
    """R0 = sum m_d d^x, or SEI = sum m_d d x^d, from degree multiplicities."""
    if index == "r0":
        return sum(m * d**x for d, m in counts.items())
    return sum(m * d * x**d for d, m in counts.items())


def _multiplicities(degrees) -> dict[int, int]:
    counts: dict[int, int] = {}
    for d in degrees:
        counts[d] = counts.get(d, 0) + 1
    return counts


_LINE = re.compile(
    r"(CONFIRMED|REFUTED) (\S+) n=(\d+) param=(\S+) (alpha|a)=(\S+) (min|max) "
    r"bound=(\S+) oracle=(\S+)"
)


class VerifyOracle:
    """Expected verify cells for a theorem set, n range and grids."""

    def __init__(self) -> None:
        from treedex import THEOREM_FAMILY, THEOREM_NAMES, theorem_bound

        self.families = THEOREM_FAMILY
        self.theorems = THEOREM_NAMES
        self.bound = theorem_bound
        self._seqs: dict[int, list[tuple[int, ...]]] = {}
        self._members: dict[tuple, list[int]] = {}
        self._values: dict[tuple[int, str, float], list[float]] = {}

    def _family_values(self, kind, n, param, index, x):
        """(degree sequence, index value) for every member of the family."""
        if n not in self._seqs:
            self._seqs[n] = degree_sequences(n)
        seqs = self._seqs[n]
        if (kind, n, param) not in self._members:
            self._members[kind, n, param] = [
                i for i, ds in enumerate(seqs) if family_param(kind, ds) == param
            ]
        if (n, index, x) not in self._values:
            self._values[n, index, x] = [index_value(index, x, _multiplicities(ds)) for ds in seqs]
        values = self._values[n, index, x]
        return [(seqs[i], values[i]) for i in self._members[kind, n, param]]

    def expected_cells(self, n_range, alpha_grid, a_grid):
        """(theorem, n, param, index, x, bound) for every claimed cell, in output order."""
        for theorem in self.theorems:
            kind = self.families[theorem]
            for n in n_range:
                for param in family_params(kind, n):
                    for index, grid in (("r0", alpha_grid), ("sei", a_grid)):
                        for x in grid:
                            kw = {"alpha": x} if index == "r0" else {"a": x}
                            bound = self.bound(theorem, n, param, **kw)
                            if bound.direction is not None:
                                yield theorem, n, param, index, float(x), bound

    def check_stdout(self, text: str, n_range, alpha_grid, a_grid) -> int:
        """Check every verdict line and the summary line; return the cell count."""
        lines = text.splitlines()
        cells = 0
        confirmed = 0
        for theorem, n, param, index, x, bound in self.expected_cells(n_range, alpha_grid, a_grid):
            where = f"line {cells + 1} ({theorem} n={n} param={param} {index}={x!r})"
            if cells >= len(lines):
                raise CheckError(f"{where}: missing")
            m = _LINE.fullmatch(lines[cells])
            if m is None:
                raise CheckError(f"{where}: unparseable {lines[cells]!r}")
            verdict, th, n_text, p_text, name, x_text, direction, b_text, o_text = m.groups()
            shown = (th, int(n_text), None if p_text == "-" else int(p_text),
                     "r0" if name == "alpha" else "sei", float(x_text), direction, float(b_text))
            if shown != (theorem, n, param, index, x, bound.direction, bound.value):
                raise CheckError(f"{where}: cell mismatch {lines[cells]!r}")
            family = self._family_values(self.families[theorem], n, param, index, x)
            if not family:
                raise CheckError(f"{where}: empty family")
            pick = min if direction == "min" else max
            best = pick(value for _, value in family)
            oracle = float(o_text)
            if not _close(oracle, best):
                raise CheckError(f"{where}: oracle={oracle!r}, degree-sequence optimum {best!r}")
            winners = sorted(ds for ds, value in family if _close(value, best))
            expected = tuple(bound.equality_degseq.degrees)
            holds = _close(bound.value, best) and winners == [expected]
            if verdict != ("CONFIRMED" if holds else "REFUTED"):
                raise CheckError(f"{where}: verdict {verdict}, oracle says otherwise")
            cells += 1
            confirmed += verdict == "CONFIRMED"
        summary = f"cells: {cells}  confirmed: {confirmed}  refuted: {cells - confirmed}"
        if lines[cells:] != [summary]:
            raise CheckError(f"expected summary {summary!r} after {cells} cells, "
                             f"got {lines[cells:cells + 2]!r}")
        return cells


def check_audit(result: dict, spec: dict) -> None:
    """Check the oracle-audit results against their inputs."""
    p = spec["prufer_n"]
    if result["prufer_count"] != FREE_TREE_COUNTS[p]:
        raise CheckError(f"free trees by Prüfer at n={p}: {result['prufer_count']}, "
                         f"expected {FREE_TREE_COUNTS[p]}")
    for row in result["monotonicity"]:
        if not 0 <= row["conforming"] <= row["applicable"]:
            raise CheckError(f"monotonicity row out of range: {row}")
    n = spec["tree_n"]
    if len(result["trees"]) != len(spec["prufer_seqs"]):
        raise CheckError("random-tree record count differs from the input")
    for i, (seq, rec) in enumerate(zip(spec["prufer_seqs"], result["trees"])):
        _check_tree(i, n, seq, rec)


def _stats(counts: dict[int, int], n: int) -> dict[str, int]:
    n2 = counts.get(2, 0)
    return {"n1": counts.get(1, 0), "n2": n2, "b": sum(m for d, m in counts.items() if d >= 3),
            "k": n - n2 - 1, "max_degree": max(counts)}


def _check_tree(i: int, n: int, seq, rec: dict) -> None:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    counts = _multiplicities(degree)
    stats = _stats(counts, n)
    where = f"random tree {i}"
    if not rec["roundtrip"]:
        raise CheckError(f"{where}: parse_tree(edge_text) differs from the tree")
    if not rec["codes_equal"]:
        raise CheckError(f"{where}: canonical codes differ across the round trip")
    if rec["profile"] != [stats[k] for k in ("n1", "n2", "b", "k", "max_degree")]:
        raise CheckError(f"{where}: structural profile {rec['profile']} != {stats}")
    kept = {d: m for d, m in counts.items() if d != 2}
    if {d: m for d, m in rec["squeeze"]} != kept:
        raise CheckError(f"{where}: squeeze keeps degrees {rec['squeeze']}, expected {kept}")
    internal = [d for d in degree if d >= 2]
    applicable = {
        "p1": stats["b"] >= 2,
        "p2": max(internal) - min(internal) >= 2,
        "b1": stats["max_degree"] >= 4,
        "b3": sum(m for d, m in counts.items() if d >= 4) >= 2,
        "s1a": stats["max_degree"] >= 5,
        "s1aa": counts.get(4, 0) >= 2,
    }
    if set(rec["moves"]) != set(MOVE_PRESERVES):
        raise CheckError(f"{where}: moves {sorted(rec['moves'])}, expected {sorted(MOVE_PRESERVES)}")
    for kind, move in rec["moves"].items():
        where = f"random tree {i}, move {kind}"
        if kind in applicable and applicable[kind] != (move is not None):
            raise CheckError(f"{where}: applicability differs from the degree rule")
        if move is None:
            continue
        before = {d: m for d, m in move["before"]}
        after = {d: m for d, m in move["after"]}
        if before != counts:
            raise CheckError(f"{where}: move input has another degree sequence")
        if sum(after.values()) != n or sum(d * m for d, m in after.items()) != 2 * (n - 1) or min(after) < 1:
            raise CheckError(f"{where}: result is not a tree degree sequence")
        kept_param = MOVE_PRESERVES[kind]
        if _stats(after, n)[kept_param] != stats[kept_param]:
            raise CheckError(f"{where}: {kept_param} not preserved")
        for index, x in (("r0", 2.0), ("sei", 0.5)):
            predicted, actual = move[index]
            value_before = index_value(index, x, before)
            delta = value_before - index_value(index, x, after)
            scale = REL_TOL * max(1.0, abs(value_before))
            if abs(predicted - delta) > scale or abs(actual - delta) > scale:
                raise CheckError(f"{where}: {index} delta predicted {predicted!r}, "
                                 f"actual {actual!r}, degree sequences give {delta!r}")
