import random
from collections import deque

import pytest
from conftest import double_broom, path_tree, prufer_trees, spider, star_tree, trees_up_to
from hypothesis import given

from treedex import (
    TRANSFORMS,
    DegreeSequence,
    Tree,
    claimed_sign,
    predicted_delta,
    r0_general,
    realize_caterpillar,
    sei,
    structural_profile,
    values_close,
)
from treedex import transforms
from treedex.enumeration import _prufer_edges
from treedex.transforms import (
    _ranked,
    apply_b1,
    apply_b3,
    apply_b4,
    apply_p1,
    apply_p2,
    apply_s1a,
    apply_s1aa,
)

ALPHAS = (-1.0, 2.0)
AS = (0.5, 2.0)
# The family parameter each move keeps.
PRESERVED = {"p1": "n1", "p2": "n1", "b1": "b", "b3": "b", "b4": "b", "s1a": "k", "s1aa": "k"}


def degmulti(t):
    return tuple(sorted(t.degrees, reverse=True))


class TestP1:
    def test_double_broom(self):
        m = apply_p1(double_broom(3, 3))
        assert degmulti(m.after) == (5, 3, 1, 1, 1, 1, 1, 1)

    def test_single_branching_rejected(self):
        with pytest.raises(ValueError):
            apply_p1(spider(2, 2, 2))

    def test_spine_33_caterpillar(self):
        m = apply_p1(realize_caterpillar(DegreeSequence((3, 3, 2, 1, 1, 1, 1))))
        prof_before = structural_profile(m.before)
        prof_after = structural_profile(m.after)
        assert max(m.after.degrees) == 4
        assert prof_after.b <= prof_before.b
        assert prof_after.n1 == prof_before.n1

    def test_delta_example(self):
        m = apply_p1(double_broom(3, 3))
        assert values_close(predicted_delta(m, a=0.5), -0.03125)
        assert values_close(sei(m.before, 0.5) - sei(m.after, 0.5), -0.03125)


class TestP2:
    def test_spider_with_big_center(self):
        t = spider(1, 1, 1, 1, 1, 2)  # degrees (6, 2, 1 x 6)
        m = apply_p2(t)
        assert degmulti(m.after) == (5, 3, 1, 1, 1, 1, 1, 1)

    def test_balanced_rejected(self):
        with pytest.raises(ValueError):
            apply_p2(double_broom(3, 3))  # internal degrees 4,4
        with pytest.raises(ValueError):
            apply_p2(path_tree(6))

    def test_two_mid_vertices(self):
        t = spider(1, 1, 1, 2, 2)  # degrees (5, 2, 2, 1 x 5), n = 8
        m = apply_p2(t)
        assert degmulti(m.after) == (4, 3, 2, 1, 1, 1, 1, 1)

    def test_terminates_and_balances(self):
        # each application shrinks (max-min internal gap, #max-degree
        # vertices) lexicographically, so iteration reaches a fixpoint
        for t in trees_up_to(10):
            current = t
            for _ in range(4 * t.n):
                deg = [d for d in current.degrees if d >= 2]
                gap = max(deg) - min(deg) if deg else 0
                n_max = sum(1 for d in current.degrees if d == max(current.degrees))
                try:
                    current = apply_p2(current).after
                except ValueError:
                    break
                deg2 = [d for d in current.degrees if d >= 2]
                gap2 = max(deg2) - min(deg2)
                n_max2 = sum(1 for d in current.degrees if d == max(current.degrees))
                assert (gap2, n_max2) < (gap, n_max)
            else:
                pytest.fail("p2 iteration did not terminate")
            internal = [d for d in current.degrees if d >= 2]
            if internal:
                assert max(internal) - min(internal) <= 1


class TestB1:
    def test_small_star(self):
        m = apply_b1(star_tree(5))
        assert degmulti(m.after) == (3, 2, 1, 1, 1)
        assert values_close(predicted_delta(m, alpha=2), 4)

    def test_cubic_rejected(self):
        with pytest.raises(ValueError):
            apply_b1(spider(2, 2, 2))

    def test_spider_with_leg(self):
        t = spider(1, 1, 1, 1, 2)  # degrees (5, 2, 1 x 5), n = 7
        m = apply_b1(t)
        assert degmulti(m.after) == (4, 2, 2, 1, 1, 1, 1)
        assert structural_profile(m.after).b == structural_profile(m.before).b == 1

    def test_equals_per_branch_reference(self):
        for t in _b1_trees():
            if max(t.degrees) < 4:
                with pytest.raises(ValueError):
                    apply_b1(t)
                continue
            m = apply_b1(t)
            actors, after = b1_reference(t)
            assert (m.actors, m.after) == (actors, after), t.edges


def b1_reference(t: Tree) -> tuple[tuple[int, int, int], Tree]:
    """b1's actors (u, w, endpoint) and its tree after, by one search per
    branch: a breadth-first walk from each neighbour r of u that never
    enters u, keyed by (-depth, smallest id at that depth, r)."""
    deg = t.degrees
    u = min(range(t.n), key=lambda v: (-deg[v], v))
    keys = []
    for r in t.adjacency[u]:
        depth = {u: 0, r: 1}  # u at depth 0 is never entered
        queue = deque([r])
        while queue:
            x = queue.popleft()
            for y in t.adjacency[x]:
                if y not in depth:
                    depth[y] = depth[x] + 1
                    queue.append(y)
        deepest = max(depth.values())
        keys.append((-deepest, min(x for x, d in depth.items() if d == deepest), r))
    (_, e1, r1), (_, e2, r2) = sorted(keys)[:2]
    endpoint = max(e1, e2)
    w = min((x for x in t.adjacency[u] if x not in (r1, r2)), key=lambda v: (-deg[v], v))
    return (u, w, endpoint), t.replace_edges([(u, w)], [(w, endpoint)])


def _b1_trees():
    """Every free tree of n 4..12, then 50 seeded random labeled trees at n = 200."""
    yield from trees_up_to(12, lo=4)
    rng = random.Random(200)
    for _ in range(50):
        yield Tree(200, _prufer_edges(tuple(rng.randrange(200) for _ in range(198)), 200))


class TestB3:
    def test_adjacent_fours(self):
        m = apply_b3(double_broom(3, 3))
        assert degmulti(m.after) == (5, 3, 1, 1, 1, 1, 1, 1)

    def test_single_big_vertex_rejected(self):
        with pytest.raises(ValueError):
            apply_b3(star_tree(6))

    def test_adjacent_case_bigger(self):
        # two adjacent degree-4 vertices on a 9-vertex caterpillar
        t = realize_caterpillar(DegreeSequence((4, 4, 2, 1, 1, 1, 1, 1, 1)))
        m = apply_b3(t)
        assert degmulti(m.after) == (5, 3, 2, 1, 1, 1, 1, 1, 1)
        assert structural_profile(m.after).b == 2

    def test_non_adjacent(self):
        # degree-4 vertices separated by a degree-2 vertex
        edges = [(0, 1), (1, 2)] + [(0, i) for i in (3, 4, 5)] + [(2, i) for i in (6, 7, 8)]
        t = Tree(9, tuple(edges))
        m = apply_b3(t)
        assert degmulti(m.after) == (5, 3, 2, 1, 1, 1, 1, 1, 1)
        assert structural_profile(m.after).b == structural_profile(t).b


class TestB4:
    def test_caterpillar(self):
        t = realize_caterpillar(DegreeSequence((3, 2, 2, 2, 2, 1, 1, 1)))
        m = apply_b4(t)
        assert max(m.after.degrees) == 4
        assert structural_profile(m.after).n2 == structural_profile(t).n2 - 1

    def test_path_rejected(self):
        with pytest.raises(ValueError):
            apply_b4(path_tree(7))

    def test_iteration_empties_degree_two(self):
        for t in trees_up_to(10):
            prof = structural_profile(t)
            if prof.b == 0:
                continue
            current = t
            for _ in range(t.n):
                try:
                    m = apply_b4(current)
                except ValueError:
                    break
                assert structural_profile(m.after).n2 < structural_profile(current).n2
                assert structural_profile(m.after).b == structural_profile(current).b
                current = m.after
            assert structural_profile(current).n2 == 0


class TestS1A:
    def test_spider(self):
        t = spider(1, 1, 1, 1, 1, 2)  # degrees (6, 2, 1 x 6)
        m = apply_s1a(t)
        assert degmulti(m.after) == (4, 3, 2, 1, 1, 1, 1, 1)

    def test_degree_four_rejected(self):
        with pytest.raises(ValueError):
            apply_s1a(star_tree(5))

    def test_non_caterpillar_normalized(self):
        t = spider(2, 2, 2, 2, 2)  # center degree 5; not a caterpillar
        m = apply_s1a(t)
        assert m.before.degree_sequence() == t.degree_sequence()
        assert degmulti(m.before) != degmulti(m.after)
        assert structural_profile(m.after).k == structural_profile(t).k

    def test_star_shape(self):
        m = apply_s1a(star_tree(7))
        assert degmulti(m.after) == (4, 3, 1, 1, 1, 1, 1)


class TestS1AA:
    def test_two_fours(self):
        m = apply_s1aa(double_broom(3, 3))
        assert degmulti(m.after) == (3, 3, 3, 1, 1, 1, 1, 1)
        assert values_close(predicted_delta(m, alpha=2), 6)

    def test_single_four_rejected(self):
        with pytest.raises(ValueError):
            apply_s1aa(star_tree(5))

    def test_delta_is_quartic(self):
        m = apply_s1aa(double_broom(3, 3))
        for a in (0.43, 0.6, 0.9, 1.5):
            assert values_close(predicted_delta(m, a=a), a * (8 * a**3 - 9 * a**2 + 1))

    def test_separated_fours(self):
        t = realize_caterpillar(DegreeSequence((4, 4, 2, 2, 1, 1, 1, 1, 1, 1)))
        m = apply_s1aa(t)
        assert structural_profile(m.after).k == structural_profile(t).k


class TestMoveContracts:
    def test_delta_exactness(self):
        for t in trees_up_to(9):
            for kind, fn in TRANSFORMS.items():
                try:
                    m = fn(t)
                except ValueError:
                    continue
                for alpha in ALPHAS:
                    assert values_close(
                        predicted_delta(m, alpha=alpha),
                        r0_general(m.before, alpha) - r0_general(m.after, alpha),
                    ), (kind, t.edges, alpha)
                for a in AS:
                    assert values_close(
                        predicted_delta(m, a=a),
                        sei(m.before, a) - sei(m.after, a),
                    ), (kind, t.edges, a)

    @given(prufer_trees())
    def test_contracts_on_random_trees(self, t):
        # exact predicted delta and the kept family parameter, on up to 200 vertices
        for kind, fn in TRANSFORMS.items():
            try:
                m = fn(t)
            except ValueError:
                continue
            for alpha in ALPHAS:
                assert values_close(predicted_delta(m, alpha=alpha),
                                    r0_general(m.before, alpha) - r0_general(m.after, alpha)), kind
            for a in AS:
                assert values_close(predicted_delta(m, a=a),
                                    sei(m.before, a) - sei(m.after, a)), kind
            attr = PRESERVED[kind]
            before = getattr(structural_profile(m.before), attr)
            assert getattr(structural_profile(m.after), attr) == before, kind
            assert getattr(structural_profile(t), attr) == before, kind

    def test_family_parameter_preserved(self):
        for t in trees_up_to(12):
            for kind, fn in TRANSFORMS.items():
                try:
                    m = fn(t)
                except ValueError:
                    continue
                attr = PRESERVED[kind]
                before = getattr(structural_profile(m.before), attr)
                after = getattr(structural_profile(m.after), attr)
                assert before == after, (kind, t.edges)
                # s-moves keep the input's parameter too (same degree sequence)
                assert getattr(structural_profile(t), attr) == before

    def test_same_vertex_set_and_edge_diff(self):
        for t in trees_up_to(8):
            for fn in TRANSFORMS.values():
                try:
                    m = fn(t)
                except ValueError:
                    continue
                assert m.after.n == m.before.n
                assert set(m.before.edges) - set(m.after.edges) == set(m.removed_edges)
                assert set(m.after.edges) - set(m.before.edges) == set(m.added_edges)

    def test_deterministic(self):
        for t in trees_up_to(8):
            for kind in TRANSFORMS:
                try:
                    first = TRANSFORMS[kind](t)
                except ValueError:
                    continue
                second = TRANSFORMS[kind](t)
                assert first == second

    def test_degree_changes_match_trees(self):
        # each move's own degree bookkeeping agrees with the trees it produced
        for t in trees_up_to(9):
            for kind, fn in TRANSFORMS.items():
                try:
                    m = fn(t)
                except ValueError:
                    continue
                changed = [(d0, d1) for d0, d1 in zip(m.before.degrees, m.after.degrees) if d0 != d1]
                assert sorted(changed) == sorted(m.degree_changes), (kind, t.edges)


def _ranking_trees():
    """Every free tree with n <= 10, then 50 seeded random labeled trees at n = 60."""
    yield from trees_up_to(10)
    rng = random.Random(60)
    for _ in range(50):
        yield Tree(60, _prufer_edges(tuple(rng.randrange(60) for _ in range(58)), 60))


def _key_ranked(t: Tree, vertices) -> list[int]:
    """The ranking as an explicit (degree descending, id ascending) key."""
    deg = t.degrees
    return sorted(vertices, key=lambda v: (-deg[v], v))


def _move_outcome(move, t):
    try:
        return move(t)
    except ValueError as exc:
        return str(exc)


class TestRanking:
    def test_degree_descending_then_id_ascending(self):
        # callers pass range(n) or adjacency lists, both ascending
        for t in _ranking_trees():
            for vertices in (range(t.n), *t.adjacency):
                assert _ranked(t, vertices) == _key_ranked(t, vertices), t.edges

    def test_moves_unchanged_under_the_explicit_key(self, monkeypatch):
        trees = list(_ranking_trees())
        moved = [[_move_outcome(move, t) for move in TRANSFORMS.values()] for t in trees]
        monkeypatch.setattr(transforms, "_ranked", _key_ranked)
        for t, records in zip(trees, moved):
            assert [_move_outcome(move, t) for move in TRANSFORMS.values()] == records, t.edges


class TestClaimedSigns:
    def test_table(self):
        assert claimed_sign("p1", alpha=2) == -1
        assert claimed_sign("p1", alpha=0.5) == +1
        assert claimed_sign("p1", a=0.5) == +1
        assert claimed_sign("p1", a=2) is None
        assert claimed_sign("b1", a=2) == +1
        assert claimed_sign("b3", a=2) == -1
        assert claimed_sign("b4", alpha=-1) == -1
        assert claimed_sign("s1a", alpha=3) == +1
        assert claimed_sign("s1aa", a=0.6) == -1
        assert claimed_sign("s1aa", a=0.3) is None

    def test_unknown_transform(self):
        with pytest.raises(ValueError, match="unknown transform 'zz'"):
            claimed_sign("zz", alpha=2)
