"""Shared trees, random-tree strategy and hypothesis settings of the test suite."""

import os
from functools import lru_cache
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st

import treedex
from treedex import Tree, free_trees
from treedex.enumeration import _prufer_edges

# `python -m treedex` subprocesses import the package the tests import,
# also under a bare `pytest`, where only sys.path holds the source tree.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(Path(treedex.__file__).parents[1]), os.environ.get("PYTHONPATH"))))

# Property tests replay the same examples on every run and never fail on
# wall time, so a slow machine cannot turn them red.
settings.register_profile("treedex", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("treedex")


def path_tree(n: int) -> Tree:
    return Tree(n, tuple((i, i + 1) for i in range(n - 1)))


def star_tree(n: int) -> Tree:
    return Tree(n, tuple((0, i) for i in range(1, n)))


def spider(*legs: int) -> Tree:
    """One branching vertex 0 with paths of the given lengths attached."""
    edges = []
    nxt = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Tree(nxt, tuple(edges))


def double_broom(p: int, q: int) -> Tree:
    """Adjacent vertices 0 and 1 with p and q pendants respectively."""
    edges = [(0, 1)]
    nxt = 2
    for _ in range(p):
        edges.append((0, nxt))
        nxt += 1
    for _ in range(q):
        edges.append((1, nxt))
        nxt += 1
    return Tree(nxt, tuple(edges))


@lru_cache(maxsize=None)
def all_free_trees(n: int) -> tuple[Tree, ...]:
    return tuple(free_trees(n))


def trees_up_to(hi: int, lo: int = 2):
    for n in range(lo, hi + 1):
        yield from all_free_trees(n)


def is_caterpillar(t: Tree) -> bool:
    """Deleting all pendant vertices must leave a path (or nothing)."""
    internal = [v for v in range(t.n) if t.degrees[v] >= 2]
    if len(internal) <= 1:
        return True
    keep = set(internal)
    for v in internal:
        if sum(1 for w in t.adjacency[v] if w in keep) > 2:
            return False
    return True


@st.composite
def prufer_trees(draw, max_n: int = 200) -> Tree:
    """Random labelled tree on 2..max_n vertices, decoded from a Prüfer sequence."""
    n = draw(st.integers(2, max_n))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return Tree(n, _prufer_edges(tuple(seq), n))
