"""Reference decoders of a level sequence and a reference walk, for the
tests.

The tree walk (`enumeration._level_sequences`) decodes each level
sequence as it goes and yields the tree's parents and degree counts;
these validating decoders work each of them out again from the levels
alone, so the tests can check the walk against them. `level_sequences`
is the same walk with no bookkeeping carried between steps: each step
finds the root's second child, the first subtree's depth and the rest's
depth by reading the whole level sequence again, and each pivot's
parent by scanning back.
"""

from treedex import Tree


def level_parents(levels) -> list[int]:
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


def level_degrees(levels) -> tuple[int, ...]:
    """Degrees of a level sequence's tree, non-increasing."""
    parents = level_parents(levels)
    degrees = [1] * len(parents)
    degrees[0] = 0
    for p in parents[1:]:
        degrees[p] += 1
    return tuple(sorted(degrees, reverse=True))


def tree_from_levels(levels) -> Tree:
    parents = level_parents(levels)
    return Tree(len(parents), tuple((p, i) for i, p in enumerate(parents) if i))


def level_sequences(n: int):
    """Each n-vertex free tree as (levels, counts, parents), in the
    order and with the values of enumeration._level_sequences."""
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))  # the path
    # Start from the star's state, so the first step re-adds every vertex.
    parents = [-1] + [0] * (n - 1)
    degrees = [n - 1] + [1] * (n - 1)
    counts = [0] * n
    counts[1] += n - 1
    counts[n - 1] += 1
    p = 1
    while True:
        # drop the vertices from p on, then add them at their new levels
        for u in parents[p:]:
            d = degrees[u]
            counts[d] -= 1
            counts[d - 1] += 1
            degrees[u] = d - 1
        for v in range(p, n):
            lev = levels[v]
            u = v - 1
            while levels[u] >= lev:  # climb to the latest vertex one level up
                u = parents[u]
            parents[v] = u
            degrees[v] = 1
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
        _repeat_parent(levels, p)
        # The root's first subtree ends before its second child m. The
        # rooting is the free tree's canonical one when the rest is deeper
        # than that subtree, or as deep and the subtree is shorter, or as
        # long and not greater as a list.
        m = levels.index(1, 2)
        top = max(levels[1:m])
        rest_top = max(levels[m:])
        if rest_top < top - 1 or (rest_top == top - 1 and (
                2 * m > n + 2 or (2 * m == n + 2
                                  and [lev - 1 for lev in levels[1:m]] > [0, *levels[m:]]))):
            # Jump: advance at the subtree's last vertex j. If j was deeper
            # than level 2, its last h vertices become a path from level 1
            # to h, its deepest level.
            j = m - 1
            deep = levels[j] > 2
            _repeat_parent(levels, j)
            if deep:
                h = max(levels)
                levels[n - h:] = range(1, h + 1)
                j = min(j, n - h)
            p = min(p, j)


def _repeat_parent(levels: list[int], p: int) -> None:
    # Rooted-order successor at pivot p: from p on, repeat the levels of
    # the subtree of p's parent q (p itself moves to q's level).
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    for i in range(p, len(levels)):
        levels[i] = levels[i - p + q]
