import heapq
import os
import random
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path

import pytest
from conftest import all_free_trees, path_tree, star_tree
from reference_census import automorphisms, census_errors, labeled_count
from reference_levels import level_degrees, level_parents, level_sequences, tree_from_levels

import treedex
import treedex.enumeration as enumeration
from treedex import (
    DegreeSequence,
    FamilyConstraint,
    Tree,
    canonical_code,
    check_theorem,
    family_members,
    free_tree_count_by_prufer,
    free_trees,
    labeled_trees_prufer,
    structural_profile,
)
from treedex.bounds import THEOREM_NAMES, family_param, family_params
from treedex.enumeration import (
    _census,
    _degree_counts,
    _families,
    _level_sequences,
    _prufer_edges,
)

# Distinct tree shapes per vertex count, derived from the Prüfer-decode
# oracle (run live below for small n).
FREE_TREE_COUNTS = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47,
                    10: 106, 11: 235, 12: 551}


class TestFreeTrees:
    def test_counts(self):
        for n, expected in FREE_TREE_COUNTS.items():
            assert len(all_free_trees(n)) == expected

    def test_no_duplicate_codes(self):
        for n in range(2, 13):
            codes = [canonical_code(t) for t in all_free_trees(n)]
            assert len(set(codes)) == len(codes)

    def test_all_valid(self):
        for n in range(2, 11):
            for t in all_free_trees(n):
                assert t.n == n and len(t.edges) == n - 1
                assert structural_profile(t).n1 >= 2

    def test_deterministic_order(self):
        first = [t.edges for t in free_trees(9)]
        second = [t.edges for t in free_trees(9)]
        assert first == second

    def test_path_first_star_last(self):
        trees = all_free_trees(8)
        assert canonical_code(trees[0]) == canonical_code(path_tree(8))
        assert canonical_code(trees[-1]) == canonical_code(star_tree(8))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            list(free_trees(1))
        with pytest.raises(ValueError):
            list(free_trees(19))
        # the cap is inclusive; the path comes first, so this is cheap
        assert next(free_trees(18)).n == 18


MALFORMED_LEVELS = ((), (1,), (0, 0), (0, 2), (0, 1, 3), (0, 1, -1))


class TestLevelSequences:
    def test_parents(self):
        # root, its two children, and a grandchild under the second child
        assert level_parents((0, 1, 1, 2)) == [-1, 0, 0, 2]
        assert level_parents(bytes((0, 1, 2, 1))) == [-1, 0, 1, 0]

    @pytest.mark.parametrize("levels", MALFORMED_LEVELS)
    def test_malformed_is_an_error(self, levels):
        for helper in (level_parents, level_degrees, tree_from_levels):
            with pytest.raises(ValueError, match="malformed level sequence"):
                helper(levels)

    def test_malformed_is_an_error_under_optimisation(self):
        script = (
            "from reference_levels import level_parents\n"
            f"for levels in {MALFORMED_LEVELS!r}:\n"
            "    try:\n"
            "        level_parents(levels)\n"
            "    except ValueError:\n"
            "        continue\n"
            "    raise SystemExit(f'accepted {levels}')\n"
        )
        path = os.pathsep.join((str(Path(treedex.__file__).parents[1]), str(Path(__file__).parent)))
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, env=dict(os.environ, PYTHONPATH=path),
                              timeout=60)
        assert proc.returncode == 0, proc.stderr


def reference_next_rooted(layout, p=None):
    """Successor in the rooted level-sequence order; p forces the pivot."""
    if p is None:
        p = len(layout) - 1
        while layout[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while layout[q] != layout[p] - 1:
        q -= 1
    out = list(layout)
    for i in range(p, len(out)):
        out[i] = out[i - p + q]
    return out


def reference_split_levels(layout):
    """First root subtree (re-rooted at level 0) and the rest of the tree."""
    m = next((i for i in range(2, len(layout)) if layout[i] == 1), len(layout))
    return [layout[i] - 1 for i in range(1, m)], [0] + layout[m:]


def reference_next_free_canonical(candidate):
    """The candidate if it is the canonical rooting of its free tree,
    else the next rooted sequence that is, reached by one jump."""
    left, rest = reference_split_levels(candidate)
    left_h, rest_h = max(left), max(rest)
    if rest_h > left_h:
        return candidate
    if rest_h == left_h and (
        len(left) < len(rest) or (len(left) == len(rest) and left <= rest)
    ):
        return candidate
    p = len(left)
    successor = reference_next_rooted(candidate, p)
    if candidate[p] > 2:
        new_left, _ = reference_split_levels(successor)
        suffix = range(1, max(new_left) + 2)
        successor[-len(suffix):] = suffix
    return successor


def reference_level_sequences(n):
    """The Wright-Richmond-Odlyzko-McKay walk as separate steps: a fresh
    list per candidate, the canonical test on split lists, no degrees."""
    layout = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while layout is not None:
        layout = reference_next_free_canonical(layout)
        yield bytes(layout)
        layout = reference_next_rooted(layout)


class TestWalk:
    def test_levels_match_the_reference_walk(self):
        for n in range(2, 17):
            assert [levels for levels, _, _ in _level_sequences(n)] == \
                list(reference_level_sequences(n)), n

    def test_every_step_matches_the_walk_that_rereads_its_levels(self):
        # The walk carries the root's second child, the first subtree's
        # depth and the rest's running maximum between steps; stale
        # bookkeeping shows as a step that differs. Streamed, n = 17 too.
        for n in range(2, 18):
            for step, (walked, expected) in enumerate(
                    zip(_level_sequences(n), level_sequences(n), strict=True)):
                assert walked == expected, (n, step)

    def test_degree_counts_match_the_levels(self):
        for n in range(2, 15):
            for levels, counts, _ in _level_sequences(n):
                assert len(counts) == n and counts[0] == 0
                assert counts == _degree_counts(DegreeSequence(level_degrees(levels))), levels

    def test_parents_match_the_levels(self):
        for n in range(2, 15):
            for levels, _, parents in _level_sequences(n):
                assert parents == level_parents(levels), levels

    def test_census_at_seventeen(self):
        census = _census(17, _families(17)[None, None])
        assert sum(map(len, census.values())) == 48629  # OEIS A000055
        assert tuple(census) == _families(17)[None, None] and all(census.values())
        assert all(text.count("\n") == 15 for members in census.values() for text in members)


class TestCensusOracle:
    """Each census class against its labeled count (tests/reference_census.py)."""

    def test_automorphisms_match_brute_force(self):
        for n in range(2, 8):
            for t in all_free_trees(n):
                edges = {frozenset(e) for e in t.edges}
                expected = sum(all(frozenset((p[u], p[v])) in edges for u, v in t.edges)
                               for p in permutations(range(n)))
                assert automorphisms(t.edge_text()) == expected, t.edges

    def test_labeled_counts_sum_to_cayley(self):
        for n in range(2, 19):
            assert sum(map(labeled_count, _families(n)[None, None])) == n ** (n - 2)

    def test_census_sums_to_labeled_counts(self):
        for n in range(2, 16):
            assert census_errors(n, _census(n, _families(n)[None, None])) == [], n

    def test_winning_classes_sum_to_labeled_counts(self):
        # the census of a run's winning classes alone, at n = 16
        reports = [r for theorem in THEOREM_NAMES for r in check_theorem(theorem, [16])]
        winners = {ds for r in reports for ds in r.optimal_degseqs}
        assert census_errors(16, _census(16, winners), complete=False) == []

    def test_oracle_finds_each_mutation(self):
        census = _census(10, _families(10)[None, None])
        classes = list(census)
        for k, ds in enumerate(classes):
            text, *rest = census[ds]
            other = classes[k - 1]
            dropped = {**census, ds: tuple(rest)}
            repeated = {**census, ds: (text, *census[ds])}
            moved = {**census, ds: tuple(rest), other: (*census[other], text)}
            for mutant in (dropped, repeated, moved):
                errors = census_errors(10, mutant)
                assert any(error.startswith(f"class {tuple(ds)}:") for error in errors), ds
            errors = census_errors(10, moved)
            assert any(error.startswith(f"class {tuple(other)}:") for error in errors), other


def heap_prufer_edges(seq, n):
    """Reference decode: a heap of the current leaves; each entry joins the
    smallest, and the last two leaves are joined at the end."""
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        deg[v] -= 1
        if deg[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return tuple(edges)


# Multiset feeds that leave out, repeat, swap or add to the multisets the
# count decodes at n = 5, each a lambda over `feed`, the real
# combinations_with_replacement, with the error it must raise: a feed
# that is not increasing or holds a foreign multiset is refused as it is
# fed, one that leaves a multiset out by the Cayley count.
CAYLEY = r"decodes, not the n\^\(n-2\) = 125 .*Cayley"
NOT_FED_IN_ORDER = r"each must be 3 sorted entries in range\(5\), above the one before"
MULTISET_MUTANTS = {
    "one dropped": ("lambda pool, r: [m for m in feed(pool, r) if m != (1, 2, 3)]", CAYLEY),
    "one repeated": ("lambda pool, r: [*feed(pool, r), (1, 2, 3)]", NOT_FED_IN_ORDER),
    "a foreign one": ("lambda pool, r: [*feed(pool, r), (0, 1)]", NOT_FED_IN_ORDER),
    # as many arrangements (6) dropped as repeated, so n^(n-2) decodes
    "one swapped for a repeat": (
        "lambda pool, r: [(0, 1, 3) if m == (0, 1, 2) else m for m in feed(pool, r)]",
        NOT_FED_IN_ORDER),
}


class TestPruferOracle:
    def test_decode_basics(self):
        assert _prufer_edges((0,), 3) == ((1, 0), (0, 2))
        assert set(_prufer_edges((0, 0), 4)) == {(1, 0), (2, 0), (0, 3)}

    def test_decode_matches_heap_reference(self):
        for n in range(2, 8):
            for seq in product(range(n), repeat=n - 2):
                assert _prufer_edges(seq, n) == heap_prufer_edges(seq, n), seq
        rng = random.Random(20171)
        for _ in range(300):
            n = rng.randrange(2, 201)
            seq = tuple(rng.randrange(n) for _ in range(n - 2))
            assert _prufer_edges(seq, n) == heap_prufer_edges(seq, n), seq

    def test_too_small(self):
        with pytest.raises(ValueError, match="labeled trees require n >= 2"):
            next(labeled_trees_prufer(1))
        for n in (1, 0):
            with pytest.raises(ValueError, match="labeled trees require n >= 2"):
                free_tree_count_by_prufer(n)

    def test_labeled_counts(self):
        # Cayley: n^(n-2) labeled trees
        for n in (2, 3, 4, 5, 6):
            assert sum(1 for _ in labeled_trees_prufer(n)) == n ** max(n - 2, 0)
        assert [t.edges for t in labeled_trees_prufer(2)] == [((0, 1),)]

    def test_all_decodes_are_trees(self):
        for t in labeled_trees_prufer(6):
            assert len(t.edges) == 5  # Tree() already validated shape

    def test_oracle_equivalence_small(self):
        # same isomorphism classes, not just the same counts
        for n in range(2, 8):
            oracle_codes = {canonical_code(t) for t in labeled_trees_prufer(n)}
            generated = [canonical_code(t) for t in all_free_trees(n)]
            assert len(generated) == len(oracle_codes)
            assert set(generated) == oracle_codes

    def test_count_helper(self):
        assert free_tree_count_by_prufer(7) == 11

    def test_count_codes_are_the_canonical_codes(self, monkeypatch):
        # the count codes each decode from its adjacency lists, not from a Tree
        seen = set()
        peel = enumeration._peel_code

        def recording(adjacency):
            code = peel(adjacency)
            seen.add(code)
            return code

        monkeypatch.setattr(enumeration, "_peel_code", recording)
        for n in range(2, 8):
            seen.clear()
            assert free_tree_count_by_prufer(n) == len(seen)
            assert seen == {canonical_code(t) for t in labeled_trees_prufer(n)}

    def test_count_builds_no_tree(self, monkeypatch):
        def no_tree(self):
            raise AssertionError("the Prüfer count built a Tree")

        monkeypatch.setattr(Tree, "__post_init__", no_tree)
        assert free_tree_count_by_prufer(6) == FREE_TREE_COUNTS[6]
        with pytest.raises(AssertionError):
            next(labeled_trees_prufer(6))  # the public generator still validates

    def test_count_peels_each_rooted_shape_once(self, monkeypatch):
        # every rooted shape at n - 1 is reached and coded once: OEIS A000081
        # peels; the walk is never called, so the oracle shares no code with it
        calls = []
        peel = enumeration._peel_code

        def counting(adjacency):
            calls.append(len(adjacency))
            return peel(adjacency)

        def no_walk(n):
            raise AssertionError("the Prüfer count called the level-sequence walk")

        monkeypatch.setattr(enumeration, "_peel_code", counting)
        monkeypatch.setattr(enumeration, "_level_sequences", no_walk)
        rooted = {2: 1, 3: 2, 4: 4, 5: 9, 6: 20, 7: 48, 8: 115}
        for n, expected in rooted.items():
            calls.clear()
            assert free_tree_count_by_prufer(n) == FREE_TREE_COUNTS[n]
            assert calls == [n] * expected

    @pytest.mark.parametrize("mutant, message", MULTISET_MUTANTS.values(), ids=MULTISET_MUTANTS)
    def test_count_checks_every_decode(self, monkeypatch, mutant, message):
        # the peel is stubbed out, so it cannot be what raises
        feed = eval(mutant, {"feed": enumeration.combinations_with_replacement})
        monkeypatch.setattr(enumeration, "combinations_with_replacement", feed)
        monkeypatch.setattr(enumeration, "_peel_code", lambda adjacency: b"")
        with pytest.raises(ValueError, match=message):
            free_tree_count_by_prufer(5)

    def test_count_checks_every_decode_under_optimisation(self):
        script = (
            "import re\n"
            "import treedex.enumeration as enumeration\n"
            "feed = enumeration.combinations_with_replacement\n"
            "enumeration._peel_code = lambda adjacency: b''\n"
            f"for mutant, message in {list(MULTISET_MUTANTS.values())!r}:\n"
            "    enumeration.combinations_with_replacement = eval(mutant)\n"
            "    try:\n"
            "        enumeration.free_tree_count_by_prufer(5)\n"
            "    except ValueError as error:\n"
            "        if not re.search(message, str(error)):\n"
            "            raise\n"
            "    else:\n"
            "        raise SystemExit('accepted a wrong feed: ' + mutant)\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              env=dict(os.environ, PYTHONPATH=str(Path(treedex.__file__).parents[1])),
                              timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_count_refuses_leaf_n_minus_1(self, monkeypatch):
        # four entries on 5 vertices would leave n - 1 the smallest leaf for
        # the fourth step; a fed multiset of n - 2 entries never does, so
        # the feed check refuses it before it is decoded
        feed = enumeration.combinations_with_replacement
        monkeypatch.setattr(enumeration, "combinations_with_replacement",
                            lambda pool, r: [*feed(pool, r), (0, 0, 0, 0)])
        with pytest.raises(ValueError, match=r"fed multiset \(0, 0, 0, 0\) after \(4, 4, 4\)"):
            free_tree_count_by_prufer(5)

    def test_every_coded_decode_is_a_labeled_tree(self, monkeypatch):
        # each graph the count codes is, edge for edge, one of the
        # reference decoder's n^(n-2) labeled trees
        coded = set()
        peel = enumeration._peel_code

        def recording(adjacency):
            coded.add(frozenset(frozenset((u, v)) for u, nbrs in enumerate(adjacency)
                                for v in nbrs))
            return peel(adjacency)

        monkeypatch.setattr(enumeration, "_peel_code", recording)
        for n in range(2, 8):
            coded.clear()
            free_tree_count_by_prufer(n)
            decodes = {frozenset(map(frozenset, heap_prufer_edges(seq, n)))
                       for seq in product(range(n), repeat=n - 2)}
            assert coded and coded <= decodes


class TestAddLeafOracle:
    """Second independent route: grow all trees by leaf attachment with
    canonical-code dedup, then compare class sets level by level."""

    def test_matches_generator_up_to_ten(self):
        level = {canonical_code(Tree(2, ((0, 1),))): Tree(2, ((0, 1),))}
        for n in range(3, 11):
            grown: dict[bytes, Tree] = {}
            for t in level.values():
                for v in range(t.n):
                    bigger = Tree(t.n + 1, t.edges + ((v, t.n),))
                    grown.setdefault(canonical_code(bigger), bigger)
            level = grown
            assert set(level) == {canonical_code(t) for t in all_free_trees(n)}


class TestFamilyMembers:
    def test_equals_filtered_free_trees(self):
        for kind in ("pt", "st", "bt"):
            for n in range(6, 12):
                for param in family_params(kind, n):
                    members = [t.edges for t in family_members(FamilyConstraint(kind, n, param))]
                    expected = [t.edges for t in all_free_trees(n)
                                if family_param(kind, t.degree_sequence()) == param]
                    assert members == expected, (kind, n, param)

    def test_pt_constraint_bound(self):
        with pytest.raises(ValueError):
            FamilyConstraint("pt", 6, 2)

    def test_bt_zero_excluded(self):
        with pytest.raises(ValueError):
            FamilyConstraint("bt", 6, 0)

    def test_st_members_have_fixed_degree_two_count(self):
        members = list(family_members(FamilyConstraint("st", 7, 3)))
        assert members
        for t in members:
            assert structural_profile(t).n2 == 7 - 3 - 1
        # exactly the trees with that many degree-2 vertices
        expected = [t for t in all_free_trees(7) if structural_profile(t).n2 == 3]
        assert [t.edges for t in members] == [t.edges for t in expected]

    def test_pt_members(self):
        members = list(family_members(FamilyConstraint("pt", 8, 3)))
        assert all(structural_profile(t).n1 == 3 for t in members)
        assert len(members) == sum(
            1 for t in all_free_trees(8) if structural_profile(t).n1 == 3
        )


def family_census(n):
    """Counts of free trees per (n1, k, b) cell."""
    census = {}
    for t in free_trees(n):
        profile = structural_profile(t)
        key = (profile.n1, profile.k, profile.b)
        census[key] = census.get(key, 0) + 1
    return census


class TestFamilyCensus:
    def test_totals(self):
        for n in (6, 7, 8):
            census = family_census(n)
            assert sum(census.values()) == FREE_TREE_COUNTS[n]

    def test_branching_cap_cells_empty(self):
        for n in (6, 7, 8):
            for (n1, k, b), count in family_census(n).items():
                assert b <= n / 2 - 1
                assert count > 0

    def test_no_two_segment_trees(self):
        assert all(k != 2 for (_, k, _b) in family_census(7))
        assert all(k != 2 for (_, k, _b) in family_census(8))

    def test_segment_marginals(self):
        census = family_census(8)
        by_k: dict[int, int] = {}
        for (_, k, _b), count in census.items():
            by_k[k] = by_k.get(k, 0) + count
        assert sum(by_k.values()) == 23
        assert by_k[1] == 1  # the path is the only one-segment tree
        # k = n-1 means no degree-2 vertex at all: star, (5,3), (4,4), (3,3,3)
        assert by_k[7] == 4
