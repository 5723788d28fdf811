"""One measured invocation of treedex, in a process of its own.

run.py starts a fresh child for every sample, because `verify._census`
is an lru_cache: a second run in the same process would measure a cache
hit that no user of `treedex verify` ever gets.

    child.py --marks FILE [--trace FILE] [--setup-only] cli TREEDEX-ARG...
    child.py --marks FILE [--trace FILE] [--setup-only] audit INPUT OUTPUT

`cli` runs `treedex.cli.main` on the given arguments. `audit` runs the
oracle-audit workload on the inputs in INPUT (written by run.py) and
writes its results to OUTPUT. Both write the CLOCK_MONOTONIC time at
which set-up ended (treedex imported, arguments or inputs parsed) to
--marks; --setup-only exits right there. --trace records spans around
the calls into each treedex layer and writes them to FILE at exit.
"""

from __future__ import annotations

import argparse
import heapq
import json
import sys
import time


def _mark(path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"setup": time.monotonic()}, f)


def prufer_edges(seq, n: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree with Prüfer sequence `seq` on 0..n-1."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _degree_counts(degrees) -> list[list[int]]:
    counts: dict[int, int] = {}
    for d in degrees:
        counts[d] = counts.get(d, 0) + 1
    return [[d, counts[d]] for d in sorted(counts)]


def audit(spec: dict) -> dict:
    """The oracle-audit workload. Every call goes through a module
    attribute, so that a traced run sees it."""
    from treedex import enumeration, indices, transforms, trees, verify

    count = enumeration.free_tree_count_by_prufer(spec["prufer_n"])
    lo, hi = spec["mono_n"]
    monotonicity = [
        row.to_json_dict()
        for kind in sorted(transforms.TRANSFORMS)
        for row in verify.check_monotonicity(kind, range(lo, hi + 1))
    ]
    n = spec["tree_n"]
    records = []
    for seq in spec["prufer_seqs"]:
        t = trees.Tree(n, tuple(prufer_edges(seq, n)))
        back = trees.parse_tree(t.edge_text())
        profile = trees.structural_profile(t)
        moves = {}
        for kind in sorted(transforms.TRANSFORMS):
            try:
                move = transforms.TRANSFORMS[kind](t)
            except ValueError:
                moves[kind] = None
                continue
            moves[kind] = {
                "before": _degree_counts(move.before.degrees),
                "after": _degree_counts(move.after.degrees),
                "r0": [transforms.predicted_delta(move, alpha=2.0),
                       indices.r0_general(move.before, 2.0) - indices.r0_general(move.after, 2.0)],
                "sei": [transforms.predicted_delta(move, a=0.5),
                        indices.sei(move.before, 0.5) - indices.sei(move.after, 0.5)],
            }
        records.append({
            "roundtrip": back == t,
            "codes_equal": trees.canonical_code(back) == trees.canonical_code(t),
            "profile": [profile.n1, profile.n2, profile.b, profile.k, profile.max_degree],
            "squeeze": _degree_counts(trees.squeeze(t).degrees),
            "moves": moves,
        })
    return {"prufer_count": count, "monotonicity": monotonicity, "trees": records}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--marks", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("mode", choices=("cli", "audit"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()

    recorder = None
    if opts.trace:
        import tracer

        recorder = tracer.Recorder()

    if opts.mode == "cli":
        import treedex.cli

        if recorder is not None:
            recorder.install()
        parse_args = argparse.ArgumentParser.parse_args

        # treedex's parser calls parse_args once; its subparsers use
        # parse_known_args, so this marks the end of argument parsing.
        def parse_and_mark(self, *args, **kwargs):
            parsed = parse_args(self, *args, **kwargs)
            _mark(opts.marks)
            if opts.setup_only:
                raise SystemExit(0)
            return parsed

        argparse.ArgumentParser.parse_args = parse_and_mark
        entry = treedex.cli.main
        if recorder is not None:
            entry = recorder.wrap("cli.verify", entry)
        rc = entry(opts.args)
    else:
        import treedex  # noqa: F401  (the whole package, as a library user imports it)

        if recorder is not None:
            recorder.install()
        input_path, output_path = opts.args
        with open(input_path, encoding="utf-8") as f:
            spec = json.load(f)
        _mark(opts.marks)
        if opts.setup_only:
            return 0
        result = audit(spec)
        with open(output_path, "w", encoding="utf-8") as f:
            json.dump(result, f, sort_keys=True)
        rc = 0
    sys.stdout.flush()
    if recorder is not None:
        recorder.dump(opts.trace)
    return rc


if __name__ == "__main__":
    sys.exit(main())
