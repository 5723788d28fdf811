"""Executable degree-shifting moves with predicted index deltas.

Seven moves, each preserving one family parameter:

    p1    shift a neighbor from the smaller of two branching vertices
          to the larger (keeps the pendant count n1)
    p2    shift a neighbor from a high-degree internal vertex to an
          internal vertex at least two degrees below it (keeps n1)
    b1    detach a neighbor of a degree->=4 vertex and append it to the
          end of a longest path through that vertex (keeps b)
    b3    merge all but three neighbors of the smaller of two
          degree->=4 vertices into the larger (keeps b)
    b4    make a degree-2 vertex pendant by handing its far neighbor to
          an adjacent branching vertex (keeps b, lowers n2)
    s1a   on the caterpillar realization, move two pendants from a
          degree->=5 vertex to a longest-path endpoint (keeps k)
    s1aa  on the caterpillar realization, move one pendant from each of
          two degree-4 vertices to a longest-path endpoint (keeps k)

Target selection is deterministic: vertices are ranked by (degree
descending, id ascending) and the first qualifying choice wins; longest
paths break ties toward smaller endpoint ids. The s-moves normalize the
input to its caterpillar realization first, so MoveRecord.before is
that realization (same degree sequence as the input).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .indices import Index
from .trees import DegreeSequence, Tree, realize_caterpillar


@dataclass(frozen=True)
class MoveRecord:
    """One applied move: the trees, the edge diff, the key vertices, and
    the (before, after) degree of every vertex whose degree the move
    changes, as the move itself accounts for it.

    actors by kind (degrees refer to `before`):
        p1:   (u, v, w)  u gains w, v loses w
        p2:   (u, v, w)  u loses w, v gains w
        b1:   (u, w, e)  u loses w, w reattached to path endpoint e
        b3:   (u, v)     v keeps 3 neighbors, u gains the rest
        b4:   (u, v, w)  degree-2 v loses w to branching u
        s1a:  (vi, e, u1, u2)      vi loses pendants u1, u2 to endpoint e
        s1aa: (vi, vj, e, u1, u2)  vi loses u1, vj loses u2, both to e
    """

    kind: str
    before: Tree
    after: Tree
    removed_edges: tuple[tuple[int, int], ...]
    added_edges: tuple[tuple[int, int], ...]
    actors: tuple[int, ...]
    degree_changes: tuple[tuple[int, int], ...]


def _ranked(t: Tree, vertices) -> list[int]:
    """The vertices by (degree descending, id ascending).

    The vertices must come in ascending id order, which the stable
    reverse sort keeps within a degree. Every caller passes range(n) or
    a filtered adjacency list, ascending because the edges are sorted.
    """
    return sorted(vertices, key=t.degrees.__getitem__, reverse=True)


def _off_path(t: Tree, x: int, y: int) -> list[int]:
    """x's neighbours by rank, except the one on the path toward y."""
    toward = t.bfs(y)[1][x]
    return _ranked(t, (z for z in t.adjacency[x] if z != toward))


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


def _record(kind: str, before: Tree, removed, added, actors, changes) -> MoveRecord:
    removed = tuple(_norm(*e) for e in removed)
    added = tuple(_norm(*e) for e in added)
    after = before.replace_edges(removed, added)
    return MoveRecord(kind, before, after, removed, added, tuple(actors), tuple(changes))


def apply_p1(t: Tree) -> MoveRecord:
    """Move a neighbor of branching v (off the u-v path) onto branching u,
    where d_u >= d_v. Requires at least two branching vertices."""
    deg = t.degrees
    branching = [v for v in _ranked(t, range(t.n)) if deg[v] >= 3]
    if len(branching) < 2:
        raise ValueError("needs at least two branching vertices")
    u, v = branching[0], branching[1]
    w = _off_path(t, v, u)[0]
    return _record("p1", t, [(v, w)], [(u, w)], (u, v, w),
                   [(deg[u], deg[u] + 1), (deg[v], deg[v] - 1)])


def apply_p2(t: Tree) -> MoveRecord:
    """Move a neighbor of u (off the u-v path) onto v, for internal u, v
    with d_u >= d_v + 2."""
    deg = t.degrees
    internal = [v for v in _ranked(t, range(t.n)) if deg[v] >= 2]
    for u in internal:
        partners = [v for v in internal if v != u and deg[u] >= deg[v] + 2]
        if partners:
            v = partners[0]
            break
    else:
        raise ValueError("no internal pair with degree gap >= 2")
    w = _off_path(t, u, v)[0]
    return _record("p2", t, [(u, w)], [(v, w)], (u, v, w),
                   [(deg[u], deg[u] - 1), (deg[v], deg[v] + 1)])


def apply_b1(t: Tree) -> MoveRecord:
    """Detach one off-path neighbor of a degree->=4 vertex and append it
    to the endpoint of a longest path through that vertex."""
    deg = t.degrees
    u = _ranked(t, range(t.n))[0]
    if deg[u] < 4:
        raise ValueError("maximum degree is at most 3")
    # one walk from u: each branch's end is the smallest id on its last, deepest level
    order, parent = t.bfs(u)
    depth, branch, end = [0] * t.n, [0] * t.n, list(range(t.n))
    for x in order[1:]:
        p = parent[x]
        r = branch[x] = x if p == u else branch[p]
        d = depth[x] = depth[p] + 1
        if d > depth[end[r]] or x < end[r]:
            end[r] = x
    # the two deepest branches make the longest path; ties go to the smallest ends
    (_, e1, r1), (_, e2, r2) = sorted((-depth[end[r]], end[r], r) for r in t.adjacency[u])[:2]
    endpoint = max(e1, e2)
    w = _ranked(t, (x for x in t.adjacency[u] if x not in (r1, r2)))[0]
    # the endpoint is the deepest vertex of its branch, hence a pendant
    return _record("b1", t, [(u, w)], [(w, endpoint)], (u, w, endpoint),
                   [(deg[u], deg[u] - 1), (1, 2)])


def apply_b3(t: Tree) -> MoveRecord:
    """Reduce the smaller of two degree->=4 vertices to exactly three
    neighbors, handing the others to the larger one."""
    deg = t.degrees
    big = [v for v in _ranked(t, range(t.n)) if deg[v] >= 4]
    if len(big) < 2:
        raise ValueError("needs two vertices of degree at least 4")
    u, v = big[0], big[1]
    moved = sorted(_off_path(t, v, u)[2:])
    return _record("b3", t, [(v, x) for x in moved], [(u, x) for x in moved], (u, v),
                   [(deg[v], 3), (deg[u], deg[u] + deg[v] - 3)])


def apply_b4(t: Tree) -> MoveRecord:
    """Turn a degree-2 vertex adjacent to a branching vertex into a
    pendant by moving its other neighbor onto the branching vertex."""
    deg = t.degrees
    for u in _ranked(t, range(t.n)):
        if deg[u] < 3:
            break
        twos = [x for x in t.adjacency[u] if deg[x] == 2]
        if twos:
            v = min(twos)
            w = next(x for x in t.adjacency[v] if x != u)
            return _record("b4", t, [(v, w)], [(u, w)], (u, v, w),
                           [(2, 1), (deg[u], deg[u] + 1)])
    raise ValueError("no degree-2 vertex adjacent to a branching vertex")


def _pendants(t: Tree, v: int) -> list[int]:
    deg = t.degrees
    return [x for x in t.adjacency[v] if deg[x] == 1]


def _caterpillar(seq: DegreeSequence) -> tuple[Tree, int, int]:
    """The s-moves' set-up: the caterpillar realization of seq (spine
    vertex i has degree seq[i]) and the ends v0, endpoint of its
    longest path, pendants of spine vertices 0 and m - 1 (the first two
    pendants of a star's centre)."""
    cat = realize_caterpillar(seq)
    m = len(seq) - seq.n1
    v0, *rest = _pendants(cat, 0)
    return cat, v0, rest[0] if m == 1 else _pendants(cat, m - 1)[0]


def apply_s1a(t: Tree) -> MoveRecord:
    """On the caterpillar realization, move two pendants of a
    degree->=5 vertex to a longest-path endpoint. Keeps k."""
    seq = t.degree_sequence()
    if seq[0] < 5:
        raise ValueError("maximum degree is at most 4")
    cat, v0, endpoint = _caterpillar(seq)
    vi = 0  # spine position of the maximum degree
    u1, u2 = [x for x in _pendants(cat, vi) if x not in (v0, endpoint)][:2]
    return _record(
        "s1a", cat,
        [(vi, u1), (vi, u2)],
        [(u1, endpoint), (u2, endpoint)],
        (vi, endpoint, u1, u2),
        [(seq[vi], seq[vi] - 2), (1, 3)],
    )


def apply_s1aa(t: Tree) -> MoveRecord:
    """On the caterpillar realization, move one pendant from each of two
    degree-4 vertices to a longest-path endpoint. Keeps k."""
    seq = t.degree_sequence()
    if seq.count(4) < 2:
        raise ValueError("needs two vertices of degree 4")
    cat, v0, endpoint = _caterpillar(seq)
    vi, vj = [v for v, d in enumerate(seq) if d == 4][:2]
    u1 = next(x for x in _pendants(cat, vi) if x not in (v0, endpoint))
    u2 = next(x for x in _pendants(cat, vj) if x not in (v0, endpoint))
    return _record(
        "s1aa", cat,
        [(vi, u1), (vj, u2)],
        [(u1, endpoint), (u2, endpoint)],
        (vi, vj, endpoint, u1, u2),
        [(4, 3), (4, 3), (1, 3)],
    )


TRANSFORMS = {
    "p1": apply_p1,
    "p2": apply_p2,
    "b1": apply_b1,
    "b3": apply_b3,
    "b4": apply_b4,
    "s1a": apply_s1a,
    "s1aa": apply_s1aa,
}


def predicted_delta(move: MoveRecord, *, alpha: float | None = None, a: float | None = None) -> float:
    """index(before) - index(after) from the move's own degree bookkeeping
    (never from diffing the trees): the sum of term(before) - term(after)
    over move.degree_changes."""
    index = Index.of(alpha=alpha, a=a)
    return math.fsum(
        term for d0, d1 in move.degree_changes for term in (index.term(d0), -index.term(d1))
    )


# Claimed sign of index(before) - index(after), per regime in REGIMES order:
# (convex, concave, above_one, window, low).
_SIGNS = {
    "p1": (-1, +1, None, +1, +1),
    "p2": (+1, -1, None, -1, -1),
    "b1": (+1, -1, +1, -1, -1),
    "b3": (-1, +1, -1, +1, +1),
    "b4": (-1, +1, -1, +1, +1),
    "s1a": (+1, -1, +1, -1, -1),
    "s1aa": (+1, -1, +1, -1, None),
}


def claimed_sign(kind: str, *, alpha: float | None = None, a: float | None = None) -> int | None:
    """Lemma-claimed sign of index(before) - index(after) in this regime,
    or None where no sign is claimed."""
    index = Index.of(alpha=alpha, a=a)
    if kind not in TRANSFORMS:
        raise ValueError(f"unknown transform {kind!r}")
    return index.claim(_SIGNS[kind])
