"""A census oracle by labeled counts, for the tests.

The labeled trees on {0, ..., n - 1} in which vertex i has degree d_i
number (n - 2)!/Π(d_i - 1)!, since vertex i appears d_i - 1 times in
its Prüfer sequence (Moon, Counting Labelled Trees, 1970). So the
labeled trees with degree multiset D number
n!/Π_d m_d! × (n - 2)!/Π_i (d_i - 1)!, where m_d counts the vertices of
degree d, and the classes of order n sum to n^(n - 2) (Cayley). A free
tree T has n!/|Aut T| labelings (orbit-stabilizer), so a census that
lists each tree of a class exactly once sums n!/|Aut T| over the class
to that count: a dropped tree, a repeated tree or a tree filed under
the wrong class breaks a sum.

|Aut T| comes from this module's own pass over each edge text: the tree
is rooted at its centre and each subtree gets a shape id bottom-up
(Aho, Hopcroft and Ullman 1974), with an automorphism count that is
the product of its children's times m! for each child shape held m
times. A bicentral tree is split at its central edge, and a further
factor 2 counts the swap of its halves when they have the same shape.
Nothing here is shared with treedex's walk, coder or verify.
"""

from collections import Counter
from math import factorial, prod


def labeled_count(degrees) -> int:
    """Labeled trees on n vertices whose degree multiset is `degrees`."""
    n = len(degrees)
    arrangements = factorial(n) // prod(map(factorial, Counter(degrees).values()))
    return arrangements * (factorial(n - 2) // prod(factorial(d - 1) for d in degrees))


def _adjacency(text: str) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for line in text.splitlines():
        u, v = map(int, line.split())
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def _centres(adj: dict[int, list[int]]) -> list[int]:
    # strip the leaves layer by layer until one or two vertices are left
    degree = {v: len(nbrs) for v, nbrs in adj.items()}
    layer = [v for v, d in degree.items() if d == 1]
    left = len(adj)
    while left > 2:
        left -= len(layer)
        inner = []
        for leaf in layer:
            for u in adj[leaf]:
                degree[u] -= 1
                if degree[u] == 1:
                    inner.append(u)
        layer = inner
    return layer


def _rooted(adj, v: int, parent: int, ids: dict) -> tuple[int, int]:
    """(shape id, automorphism count) of the subtree at v, away from parent."""
    kids = [_rooted(adj, u, v, ids) for u in adj[v] if u != parent]
    shapes = Counter(shape for shape, _ in kids)
    aut = prod(a for _, a in kids) * prod(map(factorial, shapes.values()))
    return ids.setdefault(tuple(sorted(shapes.elements())), len(ids)), aut


def automorphisms(text: str) -> int:
    """|Aut T| of the tree an edge text ("u v" lines) lists."""
    adj = _adjacency(text)
    ids: dict = {}
    centre = _centres(adj)
    if len(centre) == 1:
        return _rooted(adj, centre[0], -1, ids)[1]
    a, b = centre
    shape_a, aut_a = _rooted(adj, a, b, ids)
    shape_b, aut_b = _rooted(adj, b, a, ids)
    return aut_a * aut_b * (2 if shape_a == shape_b else 1)


def census_errors(n: int, census, complete: bool = True) -> list[str]:
    """What is wrong with a census of order n, a map from each class's
    degrees to its trees' edge texts: each class whose labelings do not
    sum to its labeled count, and, for a census of every class, a total
    other than n^(n - 2)."""
    errors = []
    total = 0
    for degrees, texts in census.items():
        labelings = sum(factorial(n) // automorphisms(text) for text in texts)
        expected = labeled_count(degrees)
        if labelings != expected:
            errors.append(f"class {tuple(degrees)}: {labelings} labelings, expected {expected}")
        total += labelings
    if complete and total != n ** (n - 2):
        errors.append(f"{total} labeled trees in all, expected {n ** (n - 2)}")
    return errors
