"""Reference decoders of a level sequence, for the tests.

The tree walk (`enumeration._level_sequences`) decodes each level
sequence as it goes and yields the tree's parents and degree counts;
these validating decoders work each of them out again from the levels
alone, so the tests can check the walk against them.
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
