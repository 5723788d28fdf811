"""Only enumeration reads the tree walk's representation.

The walk's level sequences, its degree-count bytes, the census's rank
key and its edge-line table are one decision, owned by
src/treedex/enumeration.py: other modules get trees, families and
witness texts from it. A stdlib AST check that no other module of the
package names any of them, as a name, an attribute or an import.
"""

import ast
from pathlib import Path

from test_no_dead_helpers import read

import treedex

PACKAGE = Path(treedex.__file__).parent
OWNER = "enumeration.py"
WALK_NAMES = {"_level_sequences", "_degree_counts", "_rank_key", "_EDGE_LINES"}


def trespassers(sources: dict[str, str]) -> list[str]:
    """`module: name` for each walk name a module other than the owner reads."""
    found = []
    for module, source in sorted(sources.items()):
        if module != OWNER:
            names = set().union(*map(read, ast.parse(source).body))
            found += [f"{module}: {name}" for name in sorted(names & WALK_NAMES)]
    return found


def test_the_check_finds_each_way_of_naming():
    sources = {
        OWNER: "def _level_sequences(n):\n    return _rank_key(n)\n",
        "a.py": "from .enumeration import _degree_counts\n",
        "b.py": "from . import enumeration\nlines = enumeration._EDGE_LINES\n",
        "c.py": "def census(walk):\n    return [key for key in map(_rank_key, walk)]\n",
        "d.py": "from .enumeration import _census, free_trees\n",
    }
    assert trespassers(sources) == ["a.py: _degree_counts", "b.py: _EDGE_LINES",
                                    "c.py: _rank_key"]


def test_only_enumeration_names_the_walk():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert OWNER in sources
    assert trespassers(sources) == []
