"""A per-cell winner reference for verify's verdicts, for the tests.

A cell's oracle is the min or max of one family's index values and its
winners are the family's degree sequences whose value is values_close
to it. Here each cell is computed on its own: every sequence of the
family is evaluated with Index.of_degseq, the best is taken with min or
max, and every value is compared with it. The family is every n-vertex
degree sequence whose family parameter is the cell's, in ascending
order. Nothing is read from treedex.verify but the reports it makes.
"""

from treedex import Index, check_theorem, values_close
from treedex.bounds import THEOREM_FAMILY, THEOREM_NAMES, family_param
from treedex.enumeration import _families
from treedex.indices import KEYWORDS, WINDOW_LOW_A

# Open intervals of each regime, 0.05 inside its ends.
ALPHA_REGIMES = ((-3.0, -0.05), (0.05, 0.95), (1.05, 4.0))
A_REGIMES = ((0.05, WINDOW_LOW_A - 0.05), (WINDOW_LOW_A + 0.05, 0.95), (1.05, 3.0))


def seeded_grid(rng, size):
    """size // 2 alpha values and as many a values, 4 decimals each,
    drawn from the regimes in turn."""
    return tuple(tuple(round(rng.uniform(*regimes[i % 3]), 4) for i in range(size // 2))
                 for regimes in (ALPHA_REGIMES, A_REGIMES))


def full_filter(items, values, direction):
    """(best, the items whose value is values_close to it)."""
    best = min(values) if direction == "min" else max(values)
    return best, tuple(item for item, value in zip(items, values) if values_close(value, best))


def winner_mismatches(n_range, alpha_grid, a_grid):
    """The reports, over all seven theorems, whose (oracle,
    optimal_degseqs) differ from full_filter over their family."""
    mismatches = []
    for theorem in THEOREM_NAMES:
        kind = THEOREM_FAMILY[theorem]
        for r in check_theorem(theorem, n_range, alpha_grid, a_grid):
            index = Index.of(**{KEYWORDS[r.index_kind]: r.index_param})
            family = [ds for ds in _families(r.n)[None, None]
                      if family_param(kind, ds) == r.param]
            values = [index.of_degseq(ds) for ds in family]
            if (r.oracle, r.optimal_degseqs) != full_filter(family, values, r.direction):
                mismatches.append(r)
    return mismatches
