"""Reference validator of a tree's edge list, for the tests.

`Tree` accepts an edge list with one connectivity test and only looks
for what is wrong when that test fails. This is the validation it
grew from: every check on every edge, in a fixed order, with a search
of its own for connectivity, so the tests can check that `Tree` raises
the same first error with the same message.
"""


def validate_edges(n: int, edges) -> tuple[tuple[int, int], ...]:
    """The edges as sorted (u, v) pairs with u <= v, or the ValueError
    that names the first thing wrong with them as a tree on 0..n-1."""
    norm = tuple(sorted((u, v) if u <= v else (v, u) for u, v in edges))
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
    neighbours = [[] for _ in range(n)]
    for u, v in norm:
        neighbours[u].append(v)
        neighbours[v].append(u)
    reached = {0}
    stack = [0]
    while stack:
        for w in neighbours[stack.pop()]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    if len(reached) != n:
        raise ValueError("disconnected: not all vertices reachable")
    return norm
