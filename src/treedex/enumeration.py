"""Isomorphism-free generation of all free trees on n vertices.

One walk, _level_sequences, generates every tree: Wright, Richmond,
Odlyzko and McKay's constant-amortized-time successor over canonical
level sequences. From the center-rooted path it repeatedly takes the
next rooted level sequence and skips (by a computed jump, not by
filtering) any sequence that is not the canonical rooting of its free
tree. One representative per isomorphism class is produced in a fixed
order, path first, star last, with no dedup set. Each step rewrites
only a suffix of the levels, and the walk keeps each tree's parents,
degrees and count of vertices per degree up to date over that suffix
alone, so it yields every tree's parents and degree counts with its
levels. It keeps what its canonical-rooting test reads between steps
too, so a step costs its rewritten suffix alone (2.0 vertices on
average at n = 17). It is the one decoder of a level sequence:
free_trees and family_members build Trees from its parents.

The census (_census) gives verify the witnesses of the classes a run
writes out, from one walk per order that keeps only their trees, which
_members matches to classes by degree counts, as for family_members.
Each class comes in canonical code order by a key read off the
centre-rooted level sequences (_rank_key), and each edge text is read
off the walk's parents: no witness is coded or built as a Tree.

Every non-increasing positive n-tuple summing to 2(n - 1) is the degree
sequence of some tree, one per partition of n - 2. Each order has one
table of them (`_families`), each made once and filed under all trees
and under its parameter in each family: the verify scan reads a
family's group, family_members builds the trees whose counts match it.

A Prüfer-decode generator over all n^(n-2) labeled trees is included as
the independent cross-check oracle for small n. The oracle's count
decodes the sequences grouped by the multiset of their entries: the
arrangements of one multiset that share a prefix share its decode
state, so a depth-first placement of the entries decodes each prefix
once and interns each removed leaf's shape rooted at n - 1 on the way
down. Each vertex's multiset of child shapes is one integer, a base-n
number whose digits count the children of each shape. Only the first
decode of each rooted shape, A000081(n) of them, is coded, from its
adjacency lists with the leaf peel behind canonical_code, so the count
builds no Tree; labeled_trees_prufer still yields validated Trees, in
`product` order.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, product
from math import comb

from .bounds import FAMILY_PARAM, FamilyConstraint, family_param
from .trees import DegreeSequence, Tree, _adjacency, _edge_text, _peel_code
from .trees import canonical_code  # noqa: F401  (looked up here by perfbench/tracer.py)

DEFAULT_MAX_N = 18

# "p v" edge line of each vertex pair below the order cap
_EDGE_LINES = tuple(tuple(_edge_text([(p, v)]) for v in range(DEFAULT_MAX_N))
                    for p in range(DEFAULT_MAX_N))


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
def _families(n: int) -> dict[tuple[str | None, int | None], tuple[DegreeSequence, ...]]:
    """Every degree sequence of an n-vertex tree, ascending by degrees,
    under (None, None), and each family's under (kind, param): one per
    partition of n - 2 (add 1 to each part, pad with 1s), made once and
    shared by every group it is filed in."""
    _check_order(n)
    groups = {}
    for parts in _partitions(n - 2, n - 2):
        ds = DegreeSequence(tuple(p + 1 for p in parts) + (1,) * (n - len(parts)))
        for kind in (None, *FAMILY_PARAM):
            groups.setdefault((kind, family_param(kind, ds)), []).append(ds)
    return {key: tuple(group) for key, group in groups.items()}


def _degree_counts(ds: DegreeSequence) -> bytes:
    """counts[d]: the number of degree-d vertices, as the walk yields it."""
    return bytes(map(ds.count, range(len(ds))))


def _level_sequences(n: int):
    """Each n-vertex free tree as (levels, counts, parents), in
    free_trees order.

    levels is the tree's canonical level sequence, rooted at a centre;
    counts[d] is its number of vertices of degree d (_degree_counts of
    its degree sequence); both are bytes. parents is the walk's own list
    of each vertex's parent, -1 at the root: it holds this tree only
    until the next is asked for, so a caller that keeps it copies it.

    The walk is the constant-amortized-time successor of Wright,
    Richmond, Odlyzko and McKay (1986): the next rooted level sequence,
    or, when that does not root its free tree canonically, a jump to the
    next one that does. A step rewrites only a suffix of the levels, from
    its first changed position p, so only those vertices can change
    parent. A vertex that does is moved from its old parent to its new
    one, whose degrees and counts alone change.

    The canonical test reads the root's second child m, the first
    subtree's depth and rest[i], the running maximum of levels[m:i + 1];
    the walk keeps all three between steps. A rooted step that starts
    after m updates rest over its suffix, and any other step or jump
    recomputes them. With each pivot's parent read off parents, a step
    costs O(n - p), 2.0 vertices on average at n = 17.
    """
    _check_order(n)
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))  # the path
    # Start from the star's state: the first step moves each vertex to its
    # parent in the path.
    parents = [-1] + [0] * (n - 1)
    degrees = [n - 1] + [1] * (n - 1)
    counts = [0] * n
    counts[1] += n - 1
    counts[n - 1] += 1
    p = 1
    m = n  # no bookkeeping yet: the first step computes it
    rest = [0] * n  # rest[i]: max(levels[m:i + 1]), for i >= m
    while True:
        # move each vertex from p on to its parent at its new level
        for v in range(p, n):
            lev = levels[v]
            u = v - 1
            while levels[u] >= lev:  # climb to the latest vertex one level up
                u = parents[u]
            w = parents[v]
            if u != w:
                parents[v] = u
                d = degrees[w]
                counts[d] -= 1
                counts[d - 1] += 1
                degrees[w] = d - 1
                d = degrees[u]
                counts[d] -= 1
                counts[d + 1] += 1
                degrees[u] = d + 1
        yield bytes(levels), bytes(counts), parents
        # Next rooted sequence: the last vertex above level 1 moves up to
        # its parent's level, and the suffix from it repeats the parent's
        # subtree.
        p = n - 1
        while levels[p] == 1:
            p -= 1
        if p == 0:
            return
        _repeat_parent(levels, p, parents[p])
        # The root's first subtree ends before its second child m (a
        # centre-rooted tree keeps one through a rooted step) and is top
        # deep. A step past m keeps both and rest[:p], and it repeats
        # levels from p's parent, at m or later: rest[p:] all take
        # rest[p - 1].
        if p > m:
            rest_top = rest[p - 1]
            rest[p:] = [rest_top] * (n - p)
        else:
            m, top = _first_subtree(levels, rest)
            rest_top = rest[-1]
        # The rooting is the free tree's canonical one when the rest is
        # deeper than the first subtree, or as deep and the subtree is
        # shorter, or as long and not greater as a list (built only then).
        if rest_top < top - 1 or (rest_top == top - 1 and (
                2 * m > n + 2 or (2 * m == n + 2
                                  and [lev - 1 for lev in levels[1:m]] > [0, *levels[m:]]))):
            # Jump: advance at the subtree's last vertex j. If j was deeper
            # than level 2, the subtree now holds every vertex but the
            # root, and its last h vertices become a path from level 1 to
            # h, its deepest level. j is before p (m is at most p), so its
            # parent is still the last tree's, and p stays the first
            # position changed since that tree.
            j = m - 1
            deep = levels[j] > 2
            _repeat_parent(levels, j, parents[j])
            if deep:
                h = max(levels)
                levels[n - h:] = range(1, h + 1)
                j = min(j, n - h)
            p = min(p, j)
            m, top = _first_subtree(levels, rest)


def _first_subtree(levels: list[int], rest: list[int]) -> tuple[int, int]:
    # The root's second child m and the first subtree's depth, with
    # rest[m:] filled with the running maximum of levels[m:].
    m = levels.index(1, 2)
    rest[m:] = accumulate(levels[m:], max)
    return m, max(levels[1:m])


def _repeat_parent(levels: list[int], p: int, q: int) -> None:
    # Rooted-order successor at pivot p: from p on, repeat the levels of
    # the subtree of p's parent q (p itself moves to q's level).
    for i in range(p, len(levels)):
        levels[i] = levels[i - p + q]


def free_trees(n: int):
    """Yield exactly one tree per isomorphism class of n-vertex trees.

    Deterministic order; pairwise distinct canonical codes. The cap
    DEFAULT_MAX_N guards against accidentally huge enumerations.
    """
    for _, _, parents in _level_sequences(n):
        yield Tree(n, tuple(zip(parents[1:], range(1, n))))


def _members(n: int, wanted):
    """(class, levels, parents) of each n-vertex tree of a wanted class,
    in free_trees order; parents is the walk's own list."""
    by_counts = {_degree_counts(ds): ds for ds in wanted}
    for levels, counts, parents in _level_sequences(n):
        ds = by_counts.get(counts)
        if ds is not None:
            yield ds, levels, parents


def family_members(c: FamilyConstraint):
    """Members of PT/ST/BT(n, param), or of all trees, in free_trees order.

    For ST this is exactly the set of trees with n2 = n - k - 1. The
    walk's degree counts are checked against the family's degree
    sequences, so only members are built as trees.
    """
    for _, _, parents in _members(c.n, _families(c.n)[c.kind, c.param]):
        yield Tree(c.n, tuple(zip(parents[1:], range(1, c.n))))


def _rank_key(levels: bytes) -> bytes:
    """Sort key of a census tree: witnesses take descending key order,
    which is ascending canonical_code order.

    The key is the larger of the level sequences rooted at each centre.
    The walk roots a tree at a centre, with the root's subtrees in
    descending order, so a unicentral tree's key is its level sequence.
    A tree is bicentral when the root's first subtree, which ends at m,
    is as deep as the rest; its second centre is vertex 1, and `other`
    roots the tree there. A larger level sequence has a smaller code,
    since a deeper subtree opens with more '(' where the code sorts '('
    before ')'; tests/test_verify.py checks this on every tree to n = 15.
    """
    m = levels.find(1, 2)
    if m < 0:  # the root has one child: n = 2
        m = len(levels)
    if max(levels[m:], default=0) != max(levels[1:m]) - 1:
        return levels
    other = bytes([0, 1, *(lev + 1 for lev in levels[m:]), *(lev - 1 for lev in levels[2:m])])
    return max(levels, other)


def _census(n: int, wanted) -> dict[DegreeSequence, tuple[str, ...]]:
    """Each wanted class of order n -> its trees' edge texts in witness
    order (descending _rank_key), from one walk.

    An edge text, the ascending (parent, child) pairs Tree.edge_text
    writes, is read off the walk's parents by a stable sort of the
    children by parent, each line from a table. Nothing of the other
    trees is kept, and verdicts never read the census.
    """
    members = {ds: [] for ds in wanted}
    for ds, levels, parents in _members(n, members):
        children = sorted(range(1, n), key=parents.__getitem__)
        members[ds].append((_rank_key(levels),
                            "\n".join([_EDGE_LINES[parents[v]][v] for v in children])))
    return {ds: tuple(text for _, text in sorted(held, reverse=True))
            for ds, held in members.items()}


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


def labeled_trees_prufer(n: int):
    """Every labeled tree on n vertices, decoded from its Prüfer sequence
    in `product` order.

    n^(n-2) validated Trees; the independent oracle behind the canonical
    generator.
    """
    if n < 2:
        raise ValueError("labeled trees require n >= 2")
    for seq in product(range(n), repeat=n - 2):
        yield Tree(n, _prufer_edges(seq, n))


def free_tree_count_by_prufer(n: int) -> int:
    """Number of distinct canonical codes over all labeled trees.

    The Prüfer sequences are decoded grouped by the multiset of their
    entries. Vertex v appears deg(v) - 1 times in a sequence (Moon), and
    each step's leaf is the smallest vertex not yet removed with no
    entries left, so the arrangements of a multiset that share a prefix
    share their decode state after it. A depth-first placement of each
    multiset's entries computes that state once per prefix: deg holds 1
    + each vertex's entries still to come (0 once removed), a step's
    leaf is deg.index(1), its parent each distinct entry with some left,
    and the last leaf joins n - 1.

    Each removed leaf's shape rooted at n - 1 is interned on the way
    down (Aho, Hopcroft and Ullman 1974). Each vertex keeps its
    children's multiset of shape ids as one integer, the sum of n**id
    over them: a vertex has fewer than n children, so no base-n digit
    carries and the integer names the multiset exactly. A leaf's weight
    n**id is added to its parent on the way down and taken back on the
    way up. Only the first decode of each rooted shape is coded, from
    the adjacency lists of its edges (each vertex to its parent on the
    path) by the peel behind canonical_code: A000081(n) peels in all.
    No Tree is built. It raises ValueError on a fed multiset that is not
    n - 2 sorted entries in range(n) above the one before, and unless it
    was fed C(2n-3, n-2) multisets and made exactly n^(n-2) decodes
    (Cayley).
    """
    if n < 2:
        raise ValueError("labeled trees require n >= 2")
    last = n - 1
    weights: dict[int, int] = {}  # child multiset -> n**(its shape id)
    codes: dict[int, bytes] = {}  # child multiset of n - 1 -> canonical code
    # each vertex's parent on the placed path: a decode removes every
    # vertex but n - 1 once, so at its end the list is its edges
    up = [0] * last
    decodes = 0

    def place(left: int) -> None:
        # Remove the next leaf, then give it each possible next entry as
        # its parent, with `left` entries of the multiset still to come.
        nonlocal decodes
        leaf = deg.index(1)  # never n - 1: two or more leaves remain at each step
        kids = key[leaf]
        weight = weights.get(kids)
        if weight is None:
            weight = weights[kids] = n ** len(weights)
        if not left:
            decodes += 1
            root = key[last] + weight
            if root not in codes:
                up[leaf] = last
                codes[root] = _peel_code(_adjacency(n, enumerate(up)))
            return
        deg[leaf] = 0
        for parent in entries:
            if deg[parent] > 1:
                deg[parent] -= 1
                key[parent] += weight
                up[leaf] = parent
                place(left - 1)
                key[parent] -= weight
                deg[parent] += 1
        deg[leaf] = 1

    previous = None
    fed = 0
    for multiset in combinations_with_replacement(range(n), n - 2):
        if (len(multiset) != n - 2 or list(multiset) != sorted(multiset)
                or multiset and not 0 <= multiset[0] <= multiset[-1] < n
                or previous is not None and multiset <= previous):
            raise ValueError(f"fed multiset {multiset} after {previous}: each must be "
                             f"{n - 2} sorted entries in range({n}), above the one before")
        previous = multiset
        fed += 1
        deg = [1] * n
        for x in multiset:
            deg[x] += 1
        key = [0] * n  # each vertex's child multiset
        entries = sorted(set(multiset))
        place(len(multiset))
    if decodes != n ** (n - 2) or fed != comb(2 * n - 3, n - 2):
        raise ValueError(f"{decodes} decodes, not the n^(n-2) = {n ** (n - 2)} "
                         f"labeled trees on {n} vertices (Cayley), of {fed} multisets, "
                         f"not the C(2n-3, n-2) = {comb(2 * n - 3, n - 2)} of n - 2 entries")
    return len(set(codes.values()))
