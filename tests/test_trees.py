import os
import random
import subprocess
import sys
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from conftest import (
    all_free_trees,
    double_broom,
    is_caterpillar,
    path_tree,
    prufer_trees,
    spider,
    star_tree,
    trees_up_to,
)
from hypothesis import assume, given
from hypothesis import strategies as st
from reference_tree import validate_edges

import treedex
from treedex import (
    DegreeSequence,
    Tree,
    canonical_code,
    parse_tree,
    r0_general,
    realize_caterpillar,
    segment_decomposition,
    sei,
    squeeze,
    structural_profile,
    values_close,
)
from treedex.trees import _adjacency, _peel_code


class TestParse:
    def test_path3(self):
        t = parse_tree("0 1\n1 2")
        assert t.n == 3
        assert sorted(t.degrees) == [1, 1, 2]

    def test_star4(self):
        t = parse_tree("0 1\n0 2\n0 3")
        assert t.n == 4
        assert t.degrees[0] == 3

    def test_disconnected(self):
        with pytest.raises(ValueError, match="disconnected"):
            parse_tree("0 1\n2 3")

    def test_cyclic(self):
        with pytest.raises(ValueError, match="cyclic"):
            parse_tree("0 1\n1 2\n2 0")

    def test_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_tree("0 1\n1 0\n1 2")

    def test_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            parse_tree("1 1\n0 1")

    def test_garbage_line(self):
        with pytest.raises(ValueError, match="expected 'u v'"):
            parse_tree("0 1\nnope")

    def test_negative_id(self):
        with pytest.raises(ValueError, match="negative"):
            parse_tree("-1 0")

    def test_comments_and_blanks(self):
        t = parse_tree("# a path\n\n0 1\n  \n1 2\n")
        assert t.n == 3

    def test_empty_is_single_vertex(self):
        t = parse_tree("# nothing\n")
        assert t.n == 1 and t.edges == ()

    def test_isolated_vertex_is_disconnected(self):
        # vertex 1 never appears: 0..2 with a single edge
        with pytest.raises(ValueError, match="disconnected"):
            parse_tree("0 2")

    def test_roundtrip_edge_text(self):
        t = spider(2, 2, 2)
        assert parse_tree(t.edge_text()) == t

    @given(prufer_trees())
    def test_roundtrip_edge_text_on_random_trees(self, t):
        assert parse_tree(t.edge_text()) == t


def _non_edge(t: Tree, rng: random.Random) -> tuple[int, int]:
    """A pair of distinct vertices that are not adjacent (needs n >= 3)."""
    u = rng.choice([v for v in range(t.n) if t.degrees[v] < t.n - 1])
    return u, rng.choice([v for v in range(t.n) if v != u and v not in t.adjacency[u]])


class TestRejection:
    @given(prufer_trees(), st.randoms(use_true_random=False))
    def test_one_edge_more_is_cyclic_and_one_less_disconnected(self, t, rng):
        assume(t.n >= 3)
        with pytest.raises(ValueError, match="cyclic"):
            Tree(t.n, t.edges + (_non_edge(t, rng),))
        dropped = rng.randrange(len(t.edges))
        with pytest.raises(ValueError, match="disconnected"):
            Tree(t.n, t.edges[:dropped] + t.edges[dropped + 1:])


MUTATIONS = ("none", "self-loop", "duplicate", "id out of range", "negative id", "extra edge",
             "missing edge", "cycle beside an isolated vertex")


def _mutated(t: Tree, mutation: str, rng: random.Random) -> list[tuple[int, int]]:
    """t relabelled at random, with one mutation, its edges and their ends
    in random order."""
    perm = list(range(t.n))
    rng.shuffle(perm)
    s = Tree(t.n, tuple((perm[u], perm[v]) for u, v in t.edges))
    edges = list(s.edges)
    n, i = s.n, rng.randrange(len(edges))
    u = rng.randrange(n)
    bad = {"self-loop": (u, u), "duplicate": edges[i],
           "id out of range": (u, n + rng.randrange(3)), "negative id": (u, -1 - rng.randrange(3)),
           "extra edge": (u, rng.choice([v for v in range(n) if v != u]))}.get(mutation)
    if bad is not None:
        if mutation in ("self-loop", "id out of range", "negative id") and rng.random() < 0.5:
            edges[i] = bad  # n - 1 entries again
        else:
            edges.append(bad)
    elif mutation == "missing edge":
        del edges[i]
    elif mutation == "cycle beside an isolated vertex":
        # cut a pendant off and join two other non-adjacent vertices: n - 1 edges again
        x = rng.choice([v for v in range(n) if s.degrees[v] == 1])
        edges.remove(next(e for e in edges if x in e))
        y = rng.choice([v for v in range(n)
                        if v != x and s.degrees[v] < n - 2 + (v in s.adjacency[x])])
        edges.append((y, rng.choice([v for v in range(n) if v not in (x, y, *s.adjacency[y])])))
    rng.shuffle(edges)
    return [e if rng.random() < 0.5 else e[::-1] for e in edges]


def _outcome(build, n, edges):
    try:
        return build(n, edges)
    except Exception as exc:
        return type(exc), str(exc)


class TestDiagnosis:
    """Tree raises what the reference validator raises, first error first."""

    @pytest.mark.parametrize("mutation", MUTATIONS)
    @given(prufer_trees(max_n=40), st.randoms(use_true_random=False))
    def test_same_error_as_the_reference(self, mutation, t, rng):
        assume(t.n >= 4 or mutation != "cycle beside an isolated vertex")
        edges = _mutated(t, mutation, rng)
        expected = _outcome(validate_edges, t.n, edges)
        assert _outcome(lambda n, e: Tree(n, e).edges, t.n, edges) == expected
        assert (mutation == "none") == isinstance(expected[0], tuple), expected

    @pytest.mark.parametrize("n, edges", [
        (1, ()), (0, ()), (-1, ()), (1, ((0, 0),)), (1, ((0, 1),)), (2, ()), (2, ((0, 0),)),
        (3, ((0, 1), (0, 1))), (3, ((0, 1), (1, 2), (2, 0))), (4, ((0, 1), (1, 2), (2, 0))),
        (4, ((0, 1), (1, 2), (2, 0), (-1, 3))), (3, ((0, 1), (1, 3))), (3, ((0, 1), (1, -1))),
    ])
    def test_same_error_as_the_reference_at_the_edges(self, n, edges):
        assert _outcome(Tree, n, edges) == _outcome(
            lambda n, e: Tree(n, validate_edges(n, e)), n, edges)


class TestTreeType:
    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Tree(2, ((0, 5),))

    def test_edges_normalized(self):
        t = Tree(3, ((2, 1), (1, 0)))
        assert t.edges == ((0, 1), (1, 2))

    def test_replace_edges_missing(self):
        t = path_tree(4)
        with pytest.raises(ValueError, match="not present"):
            t.replace_edges([(0, 3)], [(1, 3)])

    def test_bfs(self):
        t = spider(3, 2)
        assert t.bfs(3) == ([3, 2, 1, 0, 4, 5], [1, 2, 3, -1, 0, 4])
        for t in trees_up_to(9):
            for root in range(t.n):
                order, parent = t.bfs(root)
                assert sorted(order) == list(range(t.n)) and parent[root] == -1
                seen = {root}
                for x in order[1:]:
                    assert parent[x] in seen and parent[x] in t.adjacency[x]
                    seen.add(x)

    def test_adjacency_ascends(self):
        rng = random.Random(7)
        for t in trees_up_to(8):
            perm = list(range(t.n))
            rng.shuffle(perm)
            relabelled = Tree(t.n, tuple((perm[u], perm[v]) for u, v in reversed(t.edges)))
            assert all(list(a) == sorted(a) for a in relabelled.adjacency)


class TestStructuralProfile:
    def test_path6(self):
        p = structural_profile(path_tree(6))
        assert (p.n1, p.b, p.k) == (2, 0, 1)

    def test_star6(self):
        p = structural_profile(star_tree(6))
        assert (p.n1, p.b, p.k) == (5, 1, 5)
        assert p.n2 == 0

    def test_spider_222(self):
        p = structural_profile(spider(2, 2, 2))
        assert (p.n1, p.b, p.n2, p.k) == (3, 1, 3, 3)

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            structural_profile(Tree(1, ()))

    def test_counts_sum_to_n(self):
        for t in trees_up_to(9):
            p = structural_profile(t)
            assert p.n1 + p.n2 + p.b == t.n == len(p)
            assert p.n1 >= 2

    def test_is_the_degree_sequence(self):
        for t in trees_up_to(10):
            p = structural_profile(t)
            assert p == t.degree_sequence()
            assert p.n1 == sum(1 for d in t.degrees if d == 1)
            assert p.n2 == sum(1 for d in t.degrees if d == 2)
            assert p.b == sum(1 for d in t.degrees if d >= 3)
            assert p.max_degree == max(t.degrees)

    def test_branching_cap(self):
        # b <= n/2 - 1 for every tree
        for t in trees_up_to(10):
            assert structural_profile(t).b <= t.n / 2 - 1


class TestSegments:
    def test_path_is_one_segment(self):
        for n in (2, 5, 9):
            assert len(segment_decomposition(path_tree(n))) == 1

    def test_star_segments_are_edges(self):
        segs = segment_decomposition(star_tree(6))
        assert len(segs) == 5
        assert all(len(s) == 2 for s in segs)

    def test_spider_222(self):
        segs = segment_decomposition(spider(2, 2, 2))
        assert len(segs) == 3
        assert all(len(s) == 3 for s in segs)

    def test_count_matches_profile(self):
        for t in trees_up_to(10):
            assert len(segment_decomposition(t)) == structural_profile(t).k

    def test_segment_interiors_have_degree_two(self):
        for t in trees_up_to(8):
            for seg in segment_decomposition(t):
                assert t.degrees[seg[0]] != 2 and t.degrees[seg[-1]] != 2
                assert all(t.degrees[v] == 2 for v in seg[1:-1])


class TestSqueeze:
    def test_spider_to_star(self):
        assert canonical_code(squeeze(spider(2, 2, 2))) == canonical_code(star_tree(4))

    def test_path_to_edge(self):
        for n in (2, 4, 9):
            assert squeeze(path_tree(n)).n == 2

    def test_identity_when_no_degree_two(self):
        t = double_broom(3, 3)
        assert canonical_code(squeeze(t)) == canonical_code(t)

    def test_vertex_count_and_idempotence(self):
        for t in trees_up_to(10):
            s = squeeze(t)
            assert s.n == t.n - structural_profile(t).n2
            again = squeeze(s)
            assert canonical_code(again) == canonical_code(s)

    def test_every_segment_becomes_an_edge(self):
        for t in trees_up_to(9):
            s = squeeze(t)
            assert structural_profile(s).k == len(s.edges)

    @given(prufer_trees())
    def test_identities_on_random_trees(self, t):
        # squeezing drops the n2 degree-2 vertices and keeps every other degree
        profile = structural_profile(t)
        squeezed = squeeze(t)
        assert squeezed.n == t.n - profile.n2
        for alpha in (-1.0, 0.5, 2.0):
            assert values_close(r0_general(t, alpha),
                                r0_general(squeezed, alpha) + 2.0**alpha * profile.n2)
        for a in (0.5, 2.0):
            assert values_close(sei(t, a), sei(squeezed, a) + 2.0 * a * a * profile.n2)


def _eccentricity(adj, v: int) -> int:
    seen, frontier, depth = {v}, [v], 0
    while frontier:
        frontier = [w for u in frontier for w in adj[u] if w not in seen]
        seen.update(frontier)
        depth += bool(frontier)
    return depth


def _rooted(adj, v: int, parent: int) -> bytes:
    return b"(" + b"".join(sorted(_rooted(adj, w, v) for w in adj[v] if w != parent)) + b")"


def two_centre_code(t: Tree) -> bytes:
    """Reference code: root the tree at each centre (least eccentricity),
    code each rooting on its own and keep the smaller."""
    adj = [[] for _ in range(t.n)]
    for u, v in t.edges:
        adj[u].append(v)
        adj[v].append(u)
    ecc = [_eccentricity(adj, v) for v in range(t.n)]
    return min(_rooted(adj, c, -1) for c in range(t.n) if ecc[c] == min(ecc))


class TestCanonicalCode:
    def test_matches_two_centre_reference(self):
        for t in (Tree(1, ()), *trees_up_to(12)):
            assert canonical_code(t) == two_centre_code(t)

    @given(prufer_trees())
    def test_matches_two_centre_reference_on_random_trees(self, t):
        assert canonical_code(t) == two_centre_code(t)

    @given(prufer_trees(), st.randoms(use_true_random=False))
    def test_relabelling_invariance_on_random_trees(self, t, rng):
        perm = list(range(t.n))
        rng.shuffle(perm)
        relabelled = Tree(t.n, tuple((perm[u], perm[v]) for u, v in t.edges))
        assert canonical_code(relabelled) == canonical_code(t)

    def test_relabelled_path_equal(self):
        a = parse_tree("0 1\n1 2\n2 3")
        b = parse_tree("2 0\n0 3\n3 1")  # same P4 relabelled
        assert canonical_code(a) == canonical_code(b)

    def test_path_vs_star(self):
        assert canonical_code(path_tree(4)) != canonical_code(star_tree(4))

    def test_two_trees_same_degree_sequence(self):
        # both have degrees (3,2,2,1,1,1) but are non-isomorphic
        a = spider(3, 1, 1)
        b = spider(2, 2, 1)
        assert a.degree_sequence() == b.degree_sequence()
        assert canonical_code(a) != canonical_code(b)

    def test_random_relabelling_invariance(self):
        rng = random.Random(20240811)
        for t in trees_up_to(9):
            perm = list(range(t.n))
            rng.shuffle(perm)
            relabelled = Tree(t.n, tuple((perm[u], perm[v]) for u, v in t.edges))
            assert canonical_code(relabelled) == canonical_code(t)

    def test_distinct_within_n(self):
        for n in range(2, 11):
            codes = [canonical_code(t) for t in all_free_trees(n)]
            assert len(set(codes)) == len(codes)

    def test_small_cases(self):
        assert canonical_code(Tree(1, ())) == b"()"
        assert canonical_code(Tree(2, ((0, 1),))) == b"(())"
        assert canonical_code(star_tree(4)) == b"(()()())"
        # hex serialization used in reports
        assert canonical_code(path_tree(2)).hex() == "28282929"


def _multigraphs(n: int):
    """Every multigraph with n - 1 edges on n vertices, loops and repeated
    edges included, as a sorted edge tuple."""
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    return combinations_with_replacement(pairs, n - 1)


# (n, edges) that are not trees: one per way the peel rejects them (an
# edge count other than n - 1, no leaf left, a vertex left beside the
# center, two non-adjacent centers), plus repeated edges beside a tree part.
NON_TREES = (
    (5, ((0, 1), (1, 2), (3, 4))),
    (3, ((0, 1), (1, 2), (0, 2))),
    (4, ((0, 1), (1, 2), (0, 2))),
    (3, ((1, 1), (0, 2))),
    (2, ((0, 0),)),
    (2, ((1, 1),)),
    (3, ((0, 1), (0, 1))),
    (5, ((0, 1), (1, 2), (3, 4), (3, 4))),
)


class TestPeelCheck:
    """The leaf peel behind canonical_code codes adjacency lists that no
    Tree validated, so it is the one check on the decoders' trees."""

    def test_accepts_exactly_the_trees(self):
        graphs = accepted = 0
        for n in range(2, 6):
            for edges in _multigraphs(n):
                graphs += 1
                adjacency = _adjacency(n, edges)
                try:
                    t = Tree(n, edges)
                except ValueError:
                    with pytest.raises(ValueError, match="not a tree"):
                        _peel_code(adjacency)
                    continue
                accepted += 1
                assert _peel_code(adjacency) == canonical_code(t)
        assert graphs == 3304
        assert accepted == sum(n ** (n - 2) for n in range(2, 6))  # Cayley

    @given(prufer_trees(), st.randoms(use_true_random=False))
    def test_agrees_with_tree_after_an_edge_swap(self, t, rng):
        # one edge traded for a non-edge: still n - 1 edges, a tree or not
        assume(t.n >= 3)
        dropped = rng.randrange(len(t.edges))
        edges = t.edges[:dropped] + t.edges[dropped + 1:] + (_non_edge(t, rng),)
        try:
            swapped = Tree(t.n, edges)
        except ValueError:
            with pytest.raises(ValueError, match="not a tree"):
                _peel_code(_adjacency(t.n, edges))
        else:
            assert _peel_code(_adjacency(t.n, edges)) == canonical_code(swapped)

    @pytest.mark.parametrize("n, edges", NON_TREES)
    def test_non_trees(self, n, edges):
        with pytest.raises(ValueError, match="not a tree"):
            _peel_code(_adjacency(n, edges))

    def test_non_trees_under_optimisation(self):
        script = (
            "from treedex.trees import _adjacency, _peel_code\n"
            f"for n, edges in {NON_TREES!r}:\n"
            "    try:\n"
            "        _peel_code(_adjacency(n, edges))\n"
            "    except ValueError:\n"
            "        continue\n"
            "    raise SystemExit(f'accepted {edges}')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(treedex.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestDegreeSequence:
    def test_normalizes_order(self):
        assert DegreeSequence((1, 2, 2, 1)).degrees == (2, 2, 1, 1)

    def test_bad_sum(self):
        with pytest.raises(ValueError, match="not tree-realizable"):
            DegreeSequence((3, 1, 1, 1, 1))

    def test_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            DegreeSequence((2, 1, 1, 0))

    def test_single_vertex(self):
        assert DegreeSequence((0,)).degrees == (0,)
        with pytest.raises(ValueError):
            DegreeSequence((1,))

    def test_empty(self):
        with pytest.raises(ValueError):
            DegreeSequence(())

    def test_is_its_plain_tuple(self):
        ds = DegreeSequence((1, 2, 2, 1))
        assert isinstance(ds, tuple) and ds == (2, 2, 1, 1)
        assert hash(ds) == hash((2, 2, 1, 1))
        assert {(2, 2, 1, 1): "plain"}[ds] == "plain"
        assert {ds: "wrapped"}[(2, 2, 1, 1)] == "wrapped"
        assert type(ds.degrees) is tuple and ds.degrees == (2, 2, 1, 1)
        assert "__len__" not in vars(DegreeSequence) and "__iter__" not in vars(DegreeSequence)

    def test_immutable(self):
        ds = DegreeSequence((2, 2, 1, 1))
        with pytest.raises(AttributeError):
            ds.n1 = 3
        with pytest.raises(AttributeError):
            ds.label = "path"


class TestRealizeCaterpillar:
    def test_path4(self):
        t = realize_caterpillar(DegreeSequence((2, 2, 1, 1)))
        assert canonical_code(t) == canonical_code(path_tree(4))

    def test_double_broom(self):
        t = realize_caterpillar(DegreeSequence((3, 3, 1, 1, 1, 1)))
        assert canonical_code(t) == canonical_code(double_broom(2, 2))

    def test_spine_order_non_increasing(self):
        t = realize_caterpillar(DegreeSequence((4, 3, 2, 1, 1, 1, 1, 1)))
        assert is_caterpillar(t)
        assert [t.degrees[i] for i in range(3)] == [4, 3, 2]
        assert tuple(t.degree_sequence().degrees) == (4, 3, 2, 1, 1, 1, 1, 1)

    def test_tiny(self):
        assert realize_caterpillar(DegreeSequence((0,))) == Tree(1, ())
        assert realize_caterpillar(DegreeSequence((1, 1))) == Tree(2, ((0, 1),))

    def test_roundtrip_degree_sequence(self):
        for t in trees_up_to(10):
            cat = realize_caterpillar(t.degree_sequence())
            assert cat.degree_sequence() == t.degree_sequence()
            assert is_caterpillar(cat)

    def test_deterministic(self):
        seq = DegreeSequence((4, 3, 2, 1, 1, 1, 1, 1))
        assert realize_caterpillar(seq) == realize_caterpillar(seq)
