"""Spans around calls into treedex's layers, recorded from outside the package.

A traced child process creates one Recorder, calls `install()`, runs its
workload and calls `dump()`. Each wrapper replaces a name in the module
that looks it up at call time (for example `treedex.verify.canonical_code`
or `treedex.cli.check_theorem`), or a method on `treedex.trees.Tree`, and
records one span per call: name, start, end and the span that was open
when it began. Spans stay in memory (four flat arrays) until `dump()`.

The parent reads the file back with `self_times()`: a span's
self time is its duration minus the durations of its child spans, which
in this single-threaded program never overlap each other.
"""

from __future__ import annotations

import array
import functools
import json
import time
from collections import Counter

_clock = time.perf_counter


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self.unique_degseq_evals: set = set()
        self.missing: list[str] = []

    def _enter(self, nid: int) -> int:
        idx = len(self.name_ids)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(_clock())
        return idx

    def _exit(self, idx: int) -> None:
        self.ends[idx] = _clock()
        self._stack.pop()

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """Span per call; `after(args, kwargs, result)` runs once the span closed."""
        nid = self._nid(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn):
        """Span per resumption of the generator `fn` returns."""
        nid = self._nid(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._enter(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(idx)
                yield item

        return wrapper

    def _replace(self, module, attr: str, make) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, make(original))

    def install(self) -> None:
        """Replace every traced name. Targets that no longer exist are listed
        in `missing` (and in the dump) instead of failing the run."""
        import treedex.bounds as bounds
        import treedex.cli as cli
        import treedex.enumeration as enumeration
        import treedex.indices as indices
        import treedex.transforms as transforms
        import treedex.trees as trees
        import treedex.verify as verify

        def span(name, after=None):
            return lambda fn: self.wrap(name, fn, after)

        def count_reports(args, kwargs, reports):
            self.counters["verify.cells"] += len(reports)
            self.counters["verify.witnesses"] += sum(len(r.witness_edge_texts) for r in reports)

        def count_claimed(args, kwargs, bound):
            if bound.direction is not None:
                self.counters["bounds.claimed"] += 1

        def degseq_eval(kind):
            def after(args, kwargs, value):
                d = args[0]
                degrees = d.degrees if hasattr(d, "degrees") else tuple(d)
                x = args[1] if len(args) > 1 else next(iter(kwargs.values()))
                self.unique_degseq_evals.add((kind, degrees, x))
            return after

        def count_applicable(args, kwargs, move):
            self.counters["transforms.applicable"] += 1

        # verify layer, as reached from the CLI and from the census
        self._replace(cli, "check_theorem", span("verify.check_theorem", count_reports))
        self._replace(cli, "reports_to_json", span("verify.reports_to_json"))
        self._replace(cli, "reports_to_csv", span("verify.reports_to_csv"))
        self._replace(verify, "_census", span("verify.census"))
        self._replace(verify, "_family_groups", span("verify.family_groups"))
        self._replace(verify, "_scan", span("verify.scan"))
        self._replace(verify, "check_monotonicity", span("verify.check_monotonicity"))
        # bounds and indices, as called from verify and bounds
        self._replace(verify, "theorem_bound", span("bounds.theorem_bound", count_claimed))
        for module in (verify, bounds):
            self._replace(module, "r0_of_degseq", span("indices.degseq_eval", degseq_eval("r0")))
            self._replace(module, "sei_of_degseq", span("indices.degseq_eval", degseq_eval("sei")))
        for module in (verify, indices):
            self._replace(module, "r0_general", span("indices.tree_eval"))
            self._replace(module, "sei", span("indices.tree_eval"))
        # enumeration
        self._replace(verify, "free_trees", lambda fn: self.wrap_generator("enumeration.free_trees", fn))
        self._replace(enumeration, "labeled_trees_prufer",
                      lambda fn: self.wrap_generator("enumeration.prufer", fn))
        self._replace(enumeration, "free_tree_count_by_prufer",
                      span("enumeration.free_tree_count_by_prufer"))
        # trees: module functions where they are looked up, Tree methods on the class
        for module in (verify, enumeration, trees):
            self._replace(module, "canonical_code", span("trees.canonical_code"))
        for module in (verify, trees):
            self._replace(module, "structural_profile", span("trees.structural_profile"))
        self._replace(trees, "parse_tree", span("trees.parse_tree"))
        self._replace(trees, "squeeze", span("trees.squeeze"))
        tree = trees.Tree
        self._replace(tree, "__init__", span("trees.tree_init"))
        self._replace(tree, "edge_text", span("trees.edge_text"))
        self._replace(tree, "degree_sequence", span("trees.degree_sequence"))
        adjacency = tree.__dict__.get("adjacency")
        if isinstance(adjacency, functools.cached_property):
            prop = functools.cached_property(self.wrap("trees.adjacency", adjacency.func))
            prop.__set_name__(tree, "adjacency")
            tree.adjacency = prop
        else:
            self.missing.append("treedex.trees.Tree.adjacency")
        # transforms: the move table is one dict shared by transforms and verify
        table = getattr(transforms, "TRANSFORMS", None)
        if isinstance(table, dict):
            for kind, fn in list(table.items()):
                table[kind] = self.wrap("transforms.apply", fn, count_applicable)
        else:
            self.missing.append("treedex.transforms.TRANSFORMS")
        self._replace(transforms, "predicted_delta", span("transforms.predicted_delta"))
        self._replace(verify, "claimed_sign", span("transforms.claimed_sign"))

    def dump(self, path: str) -> None:
        counters = dict(self.counters)
        counters["indices.degseq_eval.unique"] = len(self.unique_degseq_evals)
        header = {
            "names": self.names,
            "spans": len(self.name_ids),
            "counters": counters,
            "missing": self.missing,
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(f)


def self_times(path: str):
    """Per span name: (self seconds, calls), and the header of a Recorder.dump file."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array.array(code)
            arr.fromfile(f, header["spans"])
            arrays.append(arr)
    name_ids, parents, starts, ends = arrays
    durations = [e - s for s, e in zip(starts, ends)]
    covered = [0.0] * len(durations)
    for parent, dur in zip(parents, durations):
        if parent >= 0:
            covered[parent] += dur
    names = header["names"]
    selfs = [0.0] * len(names)
    calls = [0] * len(names)
    for nid, dur, cov in zip(name_ids, durations, covered):
        selfs[nid] += dur - cov
        calls[nid] += 1
    per_name = {name: (selfs[i], calls[i]) for i, name in enumerate(names)}
    return per_name, header
