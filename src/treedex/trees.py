"""Tree structures, degree sequences, and canonical forms.

Vertices are dense 0-based integers. A Tree is immutable after
construction and every operation returns new values, so everything in
this module can be used from concurrent workers without locking.

The canonical code is a leaf peel over adjacency lists (`_peel_code`)
that also checks the graph is a tree. `canonical_code` runs it on a
Tree, and the Prüfer oracle on the lists of the first decode of each
rooted shape, building no Tree.
`_edge_text` is the one edge-text formatter; the census takes its
witnesses' edge lines from a table it formats (enumeration._EDGE_LINES).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class Tree:
    """Simple undirected tree on vertices 0..n-1.

    Edges are normalized to sorted (u, v) pairs in sorted order.
    Construction validates the tree invariants: exactly n-1 edges, no
    self-loops, no duplicates, connected. `bfs` is the one rooted
    traversal: the connectivity check and the moves' neighbour and
    branch-depth queries walk the tree through it. Canonical codes come
    from a leaf peel over the adjacency lists, which also codes the
    decoders' trees without building a Tree.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        norm = tuple(sorted([(u, v) if u <= v else (v, u) for u, v in self.edges]))
        object.__setattr__(self, "edges", norm)
        n = self.n
        # A connected graph with n - 1 edge entries holds no loop and no
        # repeat, so that is the whole test; the checks below only name
        # what is wrong, in a fixed order. norm[0][0] is the smallest id.
        if n >= 1 and len(norm) == n - 1 and (
                not norm or norm[0][0] >= 0 and max([v for _, v in norm]) < n) and (
                len(self.bfs(0)[0]) == n):
            return
        if n < 1:
            raise ValueError("vertex count must be at least 1")
        prev = None
        for u, v in norm:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex id out of range in edge ({u}, {v})")
            if (u, v) == prev:
                raise ValueError(f"duplicate edge ({u}, {v})")
            prev = (u, v)
        if len(norm) > n - 1:
            raise ValueError(f"cyclic: {len(norm)} edges on {n} vertices")
        if len(norm) < n - 1:
            raise ValueError(f"disconnected: only {len(norm)} edges on {n} vertices")
        if len(self.bfs(0)[0]) != n:
            raise ValueError("disconnected: not all vertices reachable")

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        # Sorted edges put each vertex's neighbours in ascending order already.
        return tuple(map(tuple, _adjacency(self.n, self.edges)))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.adjacency))

    def degree_sequence(self) -> DegreeSequence:
        return DegreeSequence(self.degrees)

    def bfs(self, root: int) -> tuple[list[int], list[int]]:
        """Breadth-first walk from root: the vertices in visiting order
        and each one's parent, -1 at the root and -2 if not reached, which
        only construction's connectivity check can see."""
        adjacency = self.adjacency
        parent = [-2] * self.n
        parent[root] = -1
        order = [root]
        for x in order:
            for y in adjacency[x]:
                if parent[y] == -2:
                    parent[y] = x
                    order.append(y)
        return order, parent

    def replace_edges(self, removed, added) -> "Tree":
        """New tree on the same vertex set with `removed` swapped for `added`."""
        drop = {(u, v) if u <= v else (v, u) for u, v in removed}
        kept = [e for e in self.edges if e not in drop]
        if len(kept) != len(self.edges) - len(drop):
            raise ValueError("edge to remove is not present")
        return Tree(self.n, tuple(kept) + tuple(added))

    def edge_text(self) -> str:
        """Serialize as edge-list text (one 'u v' line per edge)."""
        return _edge_text(self.edges)


def _adjacency(n: int, edges) -> list[list[int]]:
    """Neighbour list of each of the n vertices, in edge order."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _edge_text(edges) -> str:
    """Edge-list text: one 'u v' line per edge, in the order given."""
    return "\n".join(f"{u} {v}" for u, v in edges)


class DegreeSequence(tuple):
    """Non-increasing positive degrees with sum 2(n-1).

    Together with positivity the sum condition is exactly
    tree-realizability. The single-vertex tree is the degenerate (0,).

    It is the sorted tuple itself, equal to its plain `degrees`, and
    carries the family statistics: n1 counts pendant vertices (degree
    1), n2 degree-2 vertices and b branching vertices (degree >= 3);
    k = n - n2 - 1 is the segment count, cross-checked by
    segment_decomposition.
    """

    __slots__ = ()

    def __new__(cls, degrees) -> DegreeSequence:
        degs = tuple(sorted(degrees, reverse=True))
        n = len(degs)
        if n == 0:
            raise ValueError("empty degree sequence")
        if n == 1:
            if degs != (0,):
                raise ValueError("a single-vertex tree has degree sequence (0,)")
        elif degs[-1] < 1:
            raise ValueError("degrees must be positive")
        elif sum(degs) != 2 * (n - 1):
            raise ValueError(
                f"degree sum {sum(degs)} != 2(n-1) = {2 * (n - 1)}: not tree-realizable"
            )
        return super().__new__(cls, degs)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def n1(self) -> int:
        return self.count(1)

    @property
    def n2(self) -> int:
        return self.count(2)

    @property
    def b(self) -> int:
        return sum(1 for d in self if d >= 3)

    @property
    def k(self) -> int:
        return len(self) - self.n2 - 1

    @property
    def max_degree(self) -> int:
        return self[0]


def structural_profile(t: Tree) -> DegreeSequence:
    """The tree's degree sequence, which carries n1, n2, b, k and
    max_degree; requires n >= 2."""
    if t.n < 2:
        raise ValueError("structural profile requires n >= 2")
    return t.degree_sequence()


def segment_decomposition(t: Tree) -> tuple[tuple[int, ...], ...]:
    """Maximal paths whose internal vertices all have degree 2.

    Endpoints are pendant or branching. Each segment is returned once,
    oriented from its smaller endpoint, and segments are sorted.
    """
    if t.n < 2:
        raise ValueError("segments require n >= 2")
    deg = t.degrees
    segments = []
    for start in range(t.n):
        if deg[start] == 2:
            continue
        for first in t.adjacency[start]:
            path = [start, first]
            while deg[path[-1]] == 2:
                a, b = t.adjacency[path[-1]]
                path.append(a if b == path[-2] else b)
            if start < path[-1]:
                segments.append(tuple(path))
    segments.sort()
    return tuple(segments)


def squeeze(t: Tree) -> Tree:
    """Contract every segment to a single edge.

    The result keeps exactly the non-degree-2 vertices (relabelled
    densely in ascending id order) and has one edge per segment.
    """
    segments = segment_decomposition(t)
    kept = sorted(v for v in range(t.n) if t.degrees[v] != 2)
    relabel = {v: i for i, v in enumerate(kept)}
    edges = tuple((relabel[s[0]], relabel[s[-1]]) for s in segments)
    return Tree(len(kept), edges)


def canonical_code(t: Tree) -> bytes:
    """Relabeling-invariant byte code: equal codes iff isomorphic.

    Nested-parenthesis encoding rooted at the tree center; bicentral
    trees take the lexicographically smaller of the two center codes.
    Serialize with .hex() for text output.
    """
    return _peel_code(t.adjacency)


def _peel_code(adjacency) -> bytes:
    """canonical_code of the graph with these neighbour lists (a loop
    listed twice at its vertex); ValueError if the graph is not a tree.

    One leaf peel finds the center and codes the tree on the way: a
    vertex is coded when it is peeled, and its code goes to the one
    neighbour still unpeeled, its parent toward the center. A bicentral
    tree's two center codes are each center's own half plus the other's.

    Once it has n - 1 edges, the graph is a tree exactly when it has no cycle.
    A cycle's vertices (a loop or a repeated edge included) keep degree
    two or more, so they are never peeled and never end as centers: the
    peel raises when it runs out of leaves, when vertices are left
    beside the centers, or, for n = 2, when the two are not adjacent.
    """
    n = len(adjacency)
    deg = [len(a) for a in adjacency]
    if sum(deg) != 2 * (n - 1):
        raise ValueError(f"not a tree: {sum(deg) // 2} edges on {n} vertices")
    child_codes: list[list[bytes]] = [[] for _ in range(n)]
    leaves = [v for v in range(n) if deg[v] == 1] if n > 2 else list(range(n))
    left = n  # vertices not yet peeled; the current leaves are among them
    while left > 2:
        if not leaves:
            raise ValueError(f"not a tree: no leaf among {left} remaining vertices")
        left -= len(leaves)
        nxt = []
        for v in leaves:
            deg[v] = 0
            code = b"(" + b"".join(sorted(child_codes[v])) + b")"
            for w in adjacency[v]:
                if deg[w]:
                    child_codes[w].append(code)
                    if deg[w] > 1:
                        deg[w] -= 1
                        if deg[w] == 1:
                            nxt.append(w)
        leaves = nxt
    if not 0 < len(leaves) == left:
        raise ValueError(f"not a tree: {left - len(leaves)} of {n} vertices are left "
                         "beside the center")
    if left == 1:
        return b"(" + b"".join(sorted(child_codes[leaves[0]])) + b")"
    if leaves[1] not in adjacency[leaves[0]]:
        raise ValueError(f"not a tree: centers {leaves[0]} and {leaves[1]} are not adjacent")
    halves = [b"(" + b"".join(sorted(child_codes[c])) + b")" for c in leaves]
    return min(b"(" + b"".join(sorted(child_codes[c] + [half])) + b")"
               for c, half in zip(leaves, reversed(halves)))


def realize_caterpillar(d: DegreeSequence) -> Tree:
    """Deterministic caterpillar with degree sequence d.

    Spine vertices 0..m-1 carry the internal degrees in non-increasing
    order; pendant ids are assigned left to right along the spine.
    """
    n = len(d)
    m = max(n - d.n1, 1)  # (1, 1) has no internal vertex: its spine is vertex 0
    edges = [(i, i + 1) for i in range(m - 1)]
    nxt = m
    for i in range(m):
        spine_nbrs = 0 if m == 1 else (1 if i in (0, m - 1) else 2)
        for _ in range(d[i] - spine_nbrs):
            edges.append((i, nxt))
            nxt += 1
    return Tree(n, tuple(edges))


def parse_tree(text: str) -> Tree:
    """Parse edge-list text: 'u v' per line, '#' comments ignored.

    The vertex set is 0..max_id; empty input is the single-vertex tree.
    """
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: negative vertex id")
        edges.append((u, v))
    if not edges:
        return Tree(1, ())
    n = 1 + max(max(u, v) for u, v in edges)
    return Tree(n, tuple(edges))
