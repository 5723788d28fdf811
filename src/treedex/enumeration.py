"""Isomorphism-free generation of all free trees on n vertices.

The generator walks canonical level sequences with a successor
function: starting from the center-rooted path it repeatedly takes the
next rooted level sequence and skips (by a computed jump, not by
filtering) any sequence that is not the canonical rooting of its free
tree. One representative per isomorphism class is produced in a fixed
order, path first, star last, with no dedup set. The same walk yields
the bare level sequences to the verify census, which groups them by
the degrees read off them; the witnesses it writes out are ordered by
those centre-rooted sequences and read off them, never built as trees
or coded.

Every non-increasing positive n-tuple summing to 2(n - 1) is the degree
sequence of some tree, so a family is a filter over the partitions of
n - 2 (`_family`): the verify scan reads its sequences, family_members
builds the trees whose degrees pass it.

A Prüfer-decode generator over all n^(n-2) labeled trees is included as
the independent cross-check oracle for small n. The oracle's count
codes each decode straight from its adjacency lists with the
tree-checking leaf peel behind canonical_code, so it builds no Tree;
labeled_trees_prufer still yields validated Trees.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .bounds import FamilyConstraint, family_param
from .trees import DegreeSequence, Tree, _adjacency, _peel_code
from .trees import canonical_code  # noqa: F401  (looked up here by perfbench/tracer.py)

DEFAULT_MAX_N = 18


def _next_rooted(layout: list[int], p: int | None = None) -> list[int] | None:
    # Successor in the rooted level-sequence order; p forces the pivot.
    if p is None:
        p = len(layout) - 1
        while layout[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while layout[q] != layout[p] - 1:
        q -= 1
    out = list(layout)
    for i in range(p, len(out)):
        out[i] = out[i - p + q]
    return out


def _split_levels(layout: list[int]) -> tuple[list[int], list[int]]:
    # First root subtree (re-rooted at level 0) and the rest of the tree.
    m = next((i for i in range(2, len(layout)) if layout[i] == 1), len(layout))
    left = [layout[i] - 1 for i in range(1, m)]
    rest = [0] + layout[m:]
    return left, rest


def _next_free_canonical(candidate: list[int]) -> list[int]:
    # Return the candidate if it canonically represents a free tree,
    # otherwise jump directly to the next sequence that does; the jump
    # pivots at len(left) >= 1, so _next_rooted never ends the walk here.
    left, rest = _split_levels(candidate)
    left_h, rest_h = max(left), max(rest)
    if rest_h > left_h:
        return candidate
    if rest_h == left_h and (
        len(left) < len(rest) or (len(left) == len(rest) and left <= rest)
    ):
        return candidate
    p = len(left)
    successor = _next_rooted(candidate, p)
    if candidate[p] > 2:
        new_left, _ = _split_levels(successor)
        suffix = range(1, max(new_left) + 2)
        successor[-len(suffix):] = suffix
    return successor


def _level_parents(levels) -> list[int]:
    """Parent of each vertex of a level sequence (-1 at the root).

    Vertex i sits at depth levels[i]; its parent is the latest earlier
    vertex one level up. Anything that is not a rooted tree's preorder
    level sequence is a ValueError.
    """
    n = len(levels)
    if n == 0 or levels[0] != 0:
        raise ValueError(f"malformed level sequence {list(levels)}: must start at level 0")
    parents = [-1] * n
    latest = [0] * n  # latest[d]: the last vertex seen at depth d
    prev = 0
    for i in range(1, n):
        lev = levels[i]
        if not 0 < lev <= prev + 1:
            raise ValueError(f"malformed level sequence {list(levels)}: level {lev} at {i}")
        parents[i] = latest[lev - 1]
        latest[lev] = i
        prev = lev
    return parents


def _level_degrees(levels) -> tuple[int, ...]:
    """Degrees of a level sequence's tree, non-increasing."""
    parents = _level_parents(levels)
    degrees = [1] * len(parents)
    degrees[0] = 0
    for p in parents[1:]:
        degrees[p] += 1
    return tuple(sorted(degrees, reverse=True))


def _tree_from_levels(levels) -> Tree:
    parents = _level_parents(levels)
    return Tree(len(parents), tuple((p, i) for i, p in enumerate(parents) if i))


def _check_order(n: int) -> None:
    """The cap on enumerated and verified tree orders."""
    if not 2 <= n <= DEFAULT_MAX_N:
        raise ValueError(f"n must be in 2..{DEFAULT_MAX_N}")


def _partitions(m: int, largest: int):
    """Partitions of m into parts <= largest, non-increasing, ascending
    lexicographically."""
    if m == 0:
        yield ()
    for part in range(1, min(m, largest) + 1):
        for rest in _partitions(m - part, part):
            yield (part, *rest)


@lru_cache(maxsize=None)
def _degree_sequences(n: int) -> tuple[DegreeSequence, ...]:
    """Every degree sequence of an n-vertex tree, ascending by degrees.

    One per partition of n - 2: add 1 to each part and pad with 1s.
    """
    _check_order(n)
    return tuple(DegreeSequence(tuple(p + 1 for p in parts) + (1,) * (n - len(parts)))
                 for parts in _partitions(n - 2, n - 2))


@lru_cache(maxsize=None)
def _family(kind: str | None, n: int, param: int | None) -> tuple[DegreeSequence, ...]:
    """The family's degree sequences, ascending; kind None is every tree."""
    return tuple(ds for ds in _degree_sequences(n)
                 if kind is None or family_param(kind, ds) == param)


def _level_sequences(n: int):
    """Canonical level sequence of each n-vertex free tree, in free_trees order."""
    _check_order(n)
    layout: list[int] | None = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while layout is not None:
        layout = _next_free_canonical(layout)
        yield layout
        layout = _next_rooted(layout)


def free_trees(n: int):
    """Yield exactly one tree per isomorphism class of n-vertex trees.

    Deterministic order; pairwise distinct canonical codes. The cap
    DEFAULT_MAX_N guards against accidentally huge enumerations.
    """
    for levels in _level_sequences(n):
        yield _tree_from_levels(levels)


def family_members(c: FamilyConstraint):
    """Members of PT/ST/BT(n, param) in free_trees order.

    For ST this is exactly the set of trees with n2 = n - k - 1. The
    degrees read off each level sequence are checked against the
    family's degree sequences, so only members are built as trees.
    """
    members = set(_family(c.kind, c.n, c.param))
    for levels in _level_sequences(c.n):
        if _level_degrees(levels) in members:
            yield _tree_from_levels(levels)


def _prufer_edges(seq: tuple[int, ...], n: int) -> tuple[tuple[int, int], ...]:
    # Each entry joins the smallest remaining leaf; the last edge joins
    # the two vertices left, one of which is always n - 1.
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    edges = []
    for v in seq:
        leaf = deg.index(1)
        edges.append((leaf, v))
        deg[leaf] = 0
        deg[v] -= 1
    edges.append((deg.index(1), n - 1))
    return tuple(edges)


def _prufer_decodes(n: int):
    """Edges of every labeled tree on n vertices, one per Prüfer sequence."""
    if n < 2:
        raise ValueError("labeled trees require n >= 2")
    for seq in product(range(n), repeat=n - 2):
        yield _prufer_edges(seq, n)


def labeled_trees_prufer(n: int):
    """Every labeled tree on n vertices, decoded from its Prüfer sequence.

    n^(n-2) trees; the independent oracle behind the canonical generator.
    """
    for edges in _prufer_decodes(n):
        yield Tree(n, edges)


def free_tree_count_by_prufer(n: int) -> int:
    """Number of distinct canonical codes over all labeled trees.

    Each decode is coded from its adjacency lists by the peel behind
    canonical_code, which checks that it is a tree; no Tree is built.
    """
    return len({_peel_code(_adjacency(n, edges)) for edges in _prufer_decodes(n)})
