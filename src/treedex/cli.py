"""Command line front end.

Subcommands: index, bound, construct, enumerate, transform, squeeze,
verify. Exit codes: 0 success, 1 usage error, 2 validation error (bad
tree or constraint, an index parameter whose value overflows a float
on the given input, or an order too large for memory); verify exits 0
even when cells are REFUTED. Output is human-readable by default,
--json switches to the machine schema. Timing goes to stderr so
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from .bounds import (
    FAMILY_PARAM,
    THEOREM_FAMILY,
    THEOREM_NAMES,
    FamilyConstraint,
    construct_extremal,
    theorem_bound,
)
from .enumeration import family_members, free_trees
from .indices import KEYWORDS, Index
from .trees import parse_tree, squeeze
from .transforms import TRANSFORMS, predicted_delta
from .verify import CONFIRMED, build_witnesses, check_theorem, reports_to_csv, reports_to_json


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1; argparse defaults to 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value: float) -> str:
    """An integer when the value is within 1e-9 relative of a non-zero one
    that a float holds exactly (below 2**53), otherwise its repr."""
    rounded = round(value)
    if 0 < abs(rounded) < 2**53 and abs(value - rounded) < 1e-9 * abs(value):
        return str(rounded)
    return repr(value)


def _read_tree(path: str):
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    return parse_tree(text)


def _cmd_index(args) -> int:
    tree = _read_tree(args.input)
    index = Index.of(alpha=args.alpha, a=args.a)
    value = index.of_tree(tree)
    if args.json:
        print(json.dumps({"index": index.kind, "index_param": index.x, "n": tree.n, "value": value}))
    else:
        print(_fmt(value))
    return 0


def _theorem_param(args) -> int | None:
    family = THEOREM_FAMILY[args.theorem]
    given = {name: getattr(args, name) for name, _ in FAMILY_PARAM.values()}
    set_flags = [name for name, val in given.items() if val is not None]
    if family is None:
        if set_flags:
            raise _UsageError("the star theorem takes no --n1/--k/--b flag")
        return None
    expected = FAMILY_PARAM[family][0]
    if set_flags != [expected]:
        raise _UsageError(f"theorem {args.theorem} requires exactly --{expected}")
    return given[expected]


def _cmd_bound(args) -> int:
    param = _theorem_param(args)
    index = Index.of(alpha=args.alpha, a=args.a)
    bound = theorem_bound(args.theorem, args.n, param, **index.keyword)
    if args.json:
        print(
            json.dumps(
                {
                    "theorem": args.theorem,
                    "n": args.n,
                    "param": param,
                    "index": index.kind,
                    "index_param": index.x,
                    "value": bound.value,
                    "direction": bound.direction,
                    "degree_sequence": list(bound.equality_degseq),
                }
            )
        )
    else:
        print(_fmt(bound.value))
        print("degree sequence:", " ".join(map(str, bound.equality_degseq)))
        print("direction:", bound.direction if bound.direction else "unclaimed in this regime")
    return 0


def _write_out(parts, out: str | None) -> None:
    """Write text parts to the --out file, or to stdout when there is none.

    The first part is made before the file is opened, so input that the
    generator rejects leaves no file.
    """
    parts = iter(parts)
    first = next(parts, "")
    with open(out, "w", encoding="utf-8", newline="") if out else nullcontext(sys.stdout) as f:
        f.write(first)
        f.writelines(parts)


def _blocks(trees):
    """Edge-list blocks separated by a blank line, with a final newline;
    nothing for no trees."""
    separator = ""
    for t in trees:
        yield separator + t.edge_text()
        separator = "\n\n"
    if separator:
        yield "\n"


def _cmd_construct(args) -> int:
    param = _theorem_param(args)
    _write_out([construct_extremal(args.theorem, args.n, param).edge_text() + "\n"], args.out)
    return 0


def _cmd_enumerate(args) -> int:
    if (args.family is None) != (args.param is None):
        raise _UsageError("--family and --param must be given together")
    if args.family is not None:
        stream = family_members(FamilyConstraint(args.family, args.n, args.param))
    else:
        stream = free_trees(args.n)
    _write_out(_blocks(stream), args.out)
    return 0


def _cmd_transform(args) -> int:
    tree = _read_tree(args.input)
    move = TRANSFORMS[args.lemma](tree)
    deltas = {}
    if args.alpha is not None or args.a is not None:
        index = Index.of(alpha=args.alpha, a=args.a)
        deltas = {
            "index": index.kind,
            "index_param": index.x,
            "predicted_delta": predicted_delta(move, **index.keyword),
            "actual_delta": index.of_tree(move.before) - index.of_tree(move.after),
        }
    if args.json:
        print(
            json.dumps(
                {
                    "transform": move.kind,
                    "actors": list(move.actors),
                    "removed": [list(e) for e in move.removed_edges],
                    "added": [list(e) for e in move.added_edges],
                    "before": move.before.edge_text(),
                    "after": move.after.edge_text(),
                    **deltas,
                }
            )
        )
    else:
        print("transform:", move.kind)
        print("actors:", " ".join(str(v) for v in move.actors))
        print("removed:", "; ".join(f"{u} {v}" for u, v in move.removed_edges))
        print("added:", "; ".join(f"{u} {v}" for u, v in move.added_edges))
        print("before:")
        print(move.before.edge_text())
        print("after:")
        print(move.after.edge_text())
        if deltas:
            print("predicted delta:", repr(deltas["predicted_delta"]))
            print("actual delta:", repr(deltas["actual_delta"]))
    return 0


def _cmd_squeeze(args) -> int:
    tree = _read_tree(args.input)
    print(squeeze(tree).edge_text())
    return 0


def _parse_range(text: str) -> range:
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
    else:
        lo_text = hi_text = text
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise _UsageError(f"bad range {text!r}, expected LO..HI") from None
    if lo > hi:
        raise _UsageError(f"bad range {text!r}, expected LO <= HI")
    return range(lo, hi + 1)


def _reject_repeats(items, message: str) -> None:
    """Usage error naming, after the message, the first repeated item."""
    seen = set()
    for x in items:
        if x in seen:  # its cells would be checked and written twice
            raise _UsageError(f"{message} {x!r}")
        seen.add(x)


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        grid = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise _UsageError(f"bad grid {text!r}, expected comma-separated reals") from None
    _reject_repeats(grid, f"bad grid {text!r}: repeated value")
    return grid


def _cmd_verify(args) -> int:
    if args.theorems == "all":
        theorems = list(THEOREM_NAMES)
    else:
        theorems = [t.strip() for t in args.theorems.split(",")]
        unknown = [t for t in theorems if t not in THEOREM_NAMES]
        if unknown:
            raise _UsageError(f"unknown theorems: {', '.join(map(repr, unknown))}")
        _reject_repeats(theorems, f"bad theorems {args.theorems!r}: repeated name")
    n_range = _parse_range(args.n)
    kwargs = {}
    if args.alpha_grid is not None:
        kwargs["alpha_grid"] = _parse_grid(args.alpha_grid)
    if args.a_grid is not None:
        kwargs["a_grid"] = _parse_grid(args.a_grid)
    started = time.perf_counter()
    reports = []
    for theorem in theorems:
        reports.extend(check_theorem(theorem, n_range, **kwargs))
    timing = f"verify: {len(reports)} cells in {time.perf_counter() - started:.1f}s"
    written = args.report or args.csv or args.json
    if written:
        started = time.perf_counter()
        build_witnesses(reports)
        timing += f", witnesses in {time.perf_counter() - started:.1f}s"
        started = time.perf_counter()
    # Files are opened only now, so a run that fails leaves none.
    if args.report:
        with open(args.report, "w", encoding="utf-8", newline="") as f:
            reports_to_json(reports, f)
    if args.json:
        reports_to_json(reports, sys.stdout)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as f:
            reports_to_csv(reports, f)
    if written:
        timing += f", output in {time.perf_counter() - started:.1f}s"
    if not args.json:
        for i in range(0, len(reports), 1024):  # in blocks, so stdout is never held whole
            sys.stdout.write("".join([
                f"{r.verdict} {r.theorem} n={r.n} param={'-' if r.param is None else r.param} "
                f"{KEYWORDS[r.index_kind]}={r.index_param!r} {r.direction} "
                f"bound={r.bound!r} oracle={r.oracle!r}\n"
                for r in reports[i:i + 1024]]))
        confirmed = sum(1 for r in reports if r.verdict == CONFIRMED)
        print(f"cells: {len(reports)}  confirmed: {confirmed}  refuted: {len(reports) - confirmed}")
    print(timing, file=sys.stderr)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="treedex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def add_index_params(p, required):
        group = p.add_mutually_exclusive_group(required=required)
        group.add_argument("--alpha", type=float, help="power-sum exponent (not 0 or 1)")
        group.add_argument("--a", type=float, help="expsum base (positive, not 1)")

    p = sub.add_parser("index", help="evaluate an index on an edge-list file")
    p.add_argument("--input", required=True, help="edge-list file, or - for stdin")
    add_index_params(p, required=True)
    add_json(p)
    p.set_defaults(func=_cmd_index)

    def add_theorem_flags(p):
        p.add_argument("--theorem", required=True, choices=THEOREM_NAMES)
        p.add_argument("--n", type=int, required=True)
        for kind, (name, noun) in FAMILY_PARAM.items():
            p.add_argument(f"--{name}", type=int, help=f"{noun} count ({kind}-* theorems)")

    p = sub.add_parser("bound", help="closed-form bound and equality degree sequence")
    add_theorem_flags(p)
    add_index_params(p, required=True)
    add_json(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("construct", help="build the extremal tree for a theorem")
    add_theorem_flags(p)
    p.add_argument("--out", help="write edge list to this file instead of stdout")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("enumerate", help="list trees as edge-list blocks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=FAMILY_PARAM)
    p.add_argument("--param", type=int, help="family parameter (n1, k, or b)")
    p.add_argument("--out", help="write to this file instead of stdout")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("transform", help="apply a move and report the deltas")
    p.add_argument("--lemma", required=True, choices=sorted(TRANSFORMS))
    p.add_argument("--input", required=True, help="edge-list file, or - for stdin")
    add_index_params(p, required=False)
    add_json(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("squeeze", help="contract every segment to an edge")
    p.add_argument("--input", required=True, help="edge-list file, or - for stdin")
    p.set_defaults(func=_cmd_squeeze)

    p = sub.add_parser("verify", help="check theorems against brute-force enumeration")
    p.add_argument("--theorems", required=True, help="'all' or comma-separated theorem names")
    p.add_argument("--n", required=True, help="inclusive range LO..HI")
    p.add_argument("--alpha-grid", help="comma-separated alpha values")
    p.add_argument("--a-grid", help="comma-separated a values")
    p.add_argument("--report", help="write the JSON cell array to this file")
    p.add_argument("--csv", help="write the CSV flattening to this file")
    add_json(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"treedex: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"treedex: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # whether alpha/a overflows depends on the tree
        print(f"treedex: index value overflows a float: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # bound and construct build all n degrees or vertices
        print(f"treedex: {args.command}: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
