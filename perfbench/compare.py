"""Compare two benchmark result files, per workload and end-to-end metric.

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are each a result file that run.py wrote with --trace 0
(see --out), or a directory of them whose runs are pooled. For each
workload and end-to-end metric the samples are the children of those
runs; each side's median, quartiles and sample count are shown, the
change as a share of the base median, and a verdict judged by the
metric's bound in BENCHMARK.json:

  worse       head's median is worse than base's by more than the bound
  unresolved  either side's quartile spread (as a share of its median)
              exceeds the bound, and neither side beats every sample of
              the other
  improved    head's median is better by more than base's own quartile
              spread, and head wins at least 9 of 10 sample pairs, over
              at least 10 pairs (with fewer, such a gain is unresolved)
  unchanged   otherwise

Exit status 1 if any verdict is worse, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import SPEC, end_to_end_values, summarize

MIN_PAIRS = 10


def verdict(base: list[float], head: list[float], bound: float, better: str) -> tuple[str, float]:
    """(verdict, change of head's median as a share of base's median)."""
    b, h = summarize(base), summarize(head)
    change = (h["median"] - b["median"]) / b["median"]
    # "goodness": larger is better for every metric
    sign = -1.0 if better == "lower" else 1.0
    gain = sign * change
    good_base = [sign * x for x in base]
    good_head = [sign * y for y in head]
    separated = min(good_head) > max(good_base) or max(good_head) < min(good_base)
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (b, h))
    if spread > bound and not separated:
        return "unresolved", change
    if -gain > bound:
        return "worse", change
    pairs = list(zip(good_base, good_head))
    wins = sum(y > x for x, y in pairs)
    if gain > (b["q3"] - b["q1"]) / b["median"] and wins >= 0.9 * len(pairs):
        return ("improved" if len(pairs) >= MIN_PAIRS else "unresolved"), change
    return "unchanged", change


def _fmt(stats: dict) -> str:
    return f"{stats['median']:.4g} [{stats['q1']:.4g}, {stats['q3']:.4g}] n={stats['n']}"


def load(path: str) -> dict:
    """workload -> {"samples", "attempted", "failed"}, pooled over the runs at path."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    pooled: dict = {}
    for f in files:
        record = json.loads(f.read_text(encoding="utf-8"))
        if record.get("trace"):
            raise ValueError(f"{f} is a traced record; compare untraced (--trace 0) runs")
        for name, res in record["workloads"].items():
            into = pooled.setdefault(name, {"samples": [], "attempted": 0, "failed": 0})
            into["samples"] += res["samples"]
            into["attempted"] += res["attempted"]
            into["failed"] += res["failed"]
    if not pooled:
        raise ValueError(f"no result files at {path}")
    return pooled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    opts = parser.parse_args(argv)
    try:
        base, head = load(opts.base), load(opts.head)
    except (OSError, ValueError, KeyError) as exc:
        parser.error(str(exc))
    any_worse = False
    for name, rb in base.items():
        if name not in head:
            print(f"{name}: only in {opts.base}")
            continue
        rh = head[name]
        print(f"{name}: error_rate base {rb['failed']}/{rb['attempted']}, "
              f"head {rh['failed']}/{rh['attempted']}")
        for m in SPEC["end_to_end"]:
            xs = end_to_end_values(rb["samples"], m["name"])
            ys = end_to_end_values(rh["samples"], m["name"])
            if not xs or not ys:
                print(f"  {m['name']:12s} no successful samples on one side")
                continue
            result, change = verdict(xs, ys, m["bound"], m["better"])
            any_worse |= result == "worse"
            bs, hs = summarize(xs), summarize(ys)
            print(f"  {m['name']:12s} base {_fmt(bs)}  head {_fmt(hs)} {m['unit']}"
                  f"  change {change:+.1%} of base {bs['median']:.4g} {m['unit']}"
                  f"  (bound {m['bound']:.0%})  {result}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
