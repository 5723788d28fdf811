"""treedex benchmark: three workloads, each sample a fresh `treedex` process.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke] [--out FILE]

NAME is verify-deep, verify-grid, oracle-audit, or all. Run from anywhere;
paths are relative to the checkout holding this file. The program under
test is the source tree in src/ (nothing is installed).

A run spawns children one at a time (child.py) until --seconds have been
used, and checks every child's output with checker.py, outside the
timed region. With --trace 0 it also times set-up alone in two extra
children before each full one, and reports the end-to-end metrics of
BENCHMARK.json as medians over the children. With --trace 1 it alternates untraced and traced
children and reports the per-layer metrics of the traced child with the
median wall time. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The full record (every
sample, the inputs, machine facts) goes to --out, by default
.perfbench-work/results/<workload>-seed<N>-trace<T>.json.

--smoke runs tiny sizes of the same workloads; verify-deep then
reproduces the golden hashes of `verify --theorems all --n 6..14`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checker
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench-work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PINNED = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))

PINNED_SEED = 0          # seed whose seed-dependent outputs are pinned in digests.json
PROBES_PER_FULL = 2      # set-up-only children taken before each untraced full child
MIN_FULL = 2             # untraced full children per untraced run, whatever --seconds says
CHILD_TIMEOUT_S = 60.0   # keeps a run with its minimum children under three minutes

WINDOW_LOW_A = (1.0 + math.sqrt(33.0)) / 16.0
REGIME_MARGIN = 0.05
ALPHA_REGIMES = ((-3.0, -REGIME_MARGIN), (REGIME_MARGIN, 1.0 - REGIME_MARGIN), (1.0 + REGIME_MARGIN, 4.0))
A_REGIMES = ((REGIME_MARGIN, WINDOW_LOW_A - REGIME_MARGIN),
             (WINDOW_LOW_A + REGIME_MARGIN, 1.0 - REGIME_MARGIN),
             (1.0 + REGIME_MARGIN, 3.0))

SIZES = {
    False: {"deep_n": (6, 17), "grid_n": (6, 14), "per_regime": 32,
            "prufer_n": 8, "mono_n": (4, 12), "tree_n": 200, "trees": 256},
    True: {"deep_n": (6, 14), "grid_n": (6, 9), "per_regime": 4,
           "prufer_n": 6, "mono_n": (4, 7), "tree_n": 40, "trees": 8},
}


def draw_grid(rng: random.Random, regimes, per_regime: int) -> list[float]:
    """per_regime distinct values, 4 decimals, inside each open regime
    interval and at least REGIME_MARGIN away from its ends."""
    grid = []
    for lo, hi in regimes:
        values: set[float] = set()
        while len(values) < per_regime:
            values.add(round(rng.uniform(lo, hi), 4))
        grid.extend(sorted(values))
    return grid


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _compare_pinned(observed: dict, pinned: dict | None) -> None:
    for key, digest in (pinned or {}).items():
        if observed.get(key) != digest:
            raise checker.CheckError(f"{key} sha256 {observed.get(key)} != pinned {digest}")


@dataclass
class VerifyWorkload:
    """`treedex verify --theorems all` over an n range, optionally with grids and report files."""

    name: str
    n_range: range
    alpha_grid: tuple[float, ...] | None
    a_grid: tuple[float, ...] | None
    files: bool
    pinned: dict | None
    oracle: checker.VerifyOracle = field(default_factory=checker.VerifyOracle)
    verified: set = field(default_factory=set)

    def inputs(self) -> dict:
        return {"argv": self.child_args(Path("DIR"))[1:], "alpha_grid": self.alpha_grid,
                "a_grid": self.a_grid}

    def child_args(self, d: Path) -> list[str]:
        args = ["cli", "verify", "--theorems", "all",
                "--n", f"{self.n_range.start}..{self.n_range.stop - 1}"]
        if self.alpha_grid is not None:
            args.append("--alpha-grid=" + ",".join(map(repr, self.alpha_grid)))
        if self.a_grid is not None:
            args.append("--a-grid=" + ",".join(map(repr, self.a_grid)))
        if self.files:
            args += ["--report", str(d / "report.json"), "--csv", str(d / "report.csv")]
        return args

    def check(self, d: Path) -> dict:
        paths = {"stdout": d / "stdout"}
        if self.files:
            paths.update(report=d / "report.json", csv=d / "report.csv")
        observed = {key: _sha256(p) for key, p in paths.items()}
        _compare_pinned(observed, self.pinned)
        if observed["stdout"] not in self.verified:
            from treedex.verify import DEFAULT_A_GRID, DEFAULT_ALPHA_GRID

            self.oracle.check_stdout(
                (d / "stdout").read_text(encoding="utf-8"), self.n_range,
                self.alpha_grid or DEFAULT_ALPHA_GRID, self.a_grid or DEFAULT_A_GRID)
            self.verified.add(observed["stdout"])
        observed["output_bytes"] = sum(p.stat().st_size for p in paths.values())
        return observed


@dataclass
class AuditWorkload:
    """Prüfer free-tree count, move monotonicity, and checks on random large trees."""

    name: str
    spec: dict
    pinned: dict
    verified: set = field(default_factory=set)

    def inputs(self) -> dict:
        return {k: v for k, v in self.spec.items() if k != "prufer_seqs"} | {
            "prufer_seqs_sha256": hashlib.sha256(
                json.dumps(self.spec["prufer_seqs"]).encode()).hexdigest()}

    def child_args(self, d: Path) -> list[str]:
        spec_path = d / "audit-input.json"
        spec_path.write_text(json.dumps(self.spec), encoding="utf-8")
        return ["audit", str(spec_path), str(d / "audit.json")]

    def check(self, d: Path) -> dict:
        out = d / "audit.json"
        result = json.loads(out.read_text(encoding="utf-8"))
        fixed = {"prufer_count": result["prufer_count"], "monotonicity": result["monotonicity"]}
        observed = {
            "fixed": hashlib.sha256(json.dumps(fixed, sort_keys=True).encode()).hexdigest(),
            "all": _sha256(out),
        }
        _compare_pinned(observed, self.pinned)
        if observed["all"] not in self.verified:
            checker.check_audit(result, self.spec)
            self.verified.add(observed["all"])
        observed["output_bytes"] = out.stat().st_size
        return observed


def build_workload(name: str, seed: int, smoke: bool):
    size = SIZES[smoke]
    pinned = PINNED["smoke" if smoke else "full"][name]
    rng = random.Random(seed)
    if name == "verify-deep":
        lo, hi = size["deep_n"]
        return VerifyWorkload(name, range(lo, hi + 1), None, None, True, pinned)
    if name == "verify-grid":
        lo, hi = size["grid_n"]
        alpha = tuple(draw_grid(rng, ALPHA_REGIMES, size["per_regime"]))
        a = tuple(draw_grid(rng, A_REGIMES, size["per_regime"]))
        return VerifyWorkload(name, range(lo, hi + 1), alpha, a, False,
                              pinned if seed == PINNED_SEED else None)
    if name == "oracle-audit":
        n = size["tree_n"]
        spec = {"prufer_n": size["prufer_n"], "mono_n": list(size["mono_n"]), "tree_n": n,
                "prufer_seqs": [[rng.randrange(n) for _ in range(n - 2)]
                                for _ in range(size["trees"])]}
        if seed != PINNED_SEED:
            pinned = {k: v for k, v in pinned.items() if k == "fixed"}
        return AuditWorkload(name, spec, pinned)
    raise ValueError(f"unknown workload {name!r}")


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


CHILD_ENV = _child_env()


def spawn(args: list[str], d: Path) -> dict:
    """Run child.py with `args`; wall time from spawn to exit, rusage of the child."""
    argv = [sys.executable, str(BENCH / "child.py"), *args]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_CLOSE, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(d / "stdout"), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(d / "stderr"), flags, 0o644),
    ]
    load_start = os.getloadavg()
    started = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, CHILD_ENV, file_actions=actions)
    reaped = False
    try:
        pidfd = os.pidfd_open(pid)
        try:
            timed_out = not select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]
        finally:
            os.close(pidfd)
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    ended = time.monotonic()
    return {
        "started": started,
        "wall_s": ended - started,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
        "loadavg": {"start": list(load_start), "end": list(os.getloadavg())},
    }


def sample(workload, kind: str, run_dir: Path, i: int) -> dict:
    """One child: kind is warmup/probe (set-up only), full, or traced."""
    d = run_dir / f"{i:03d}"
    d.mkdir()
    marks = d / "marks.json"
    opts = ["--marks", str(marks)]
    if kind in ("warmup", "probe"):
        opts.append("--setup-only")
    if kind == "traced":
        opts += ["--trace", str(d / "trace.bin")]
    result = spawn(opts + workload.child_args(d), d)
    result["kind"] = kind
    try:
        if result["timed_out"]:
            raise checker.CheckError(f"timed out after {CHILD_TIMEOUT_S} s")
        if result["exit"] != 0:
            tail = (d / "stderr").read_text(encoding="utf-8", errors="replace")[-2000:]
            raise checker.CheckError(f"exit code {result['exit']}: {tail}")
        result["setup_s"] = json.loads(marks.read_text(encoding="utf-8"))["setup"] - result["started"]
        if kind in ("full", "traced"):
            result["outputs"] = workload.check(d)
        if kind == "traced":
            result["layers"] = layer_metrics(d / "trace.bin", result)
        result["ok"] = True
    except (checker.CheckError, OSError, ValueError, KeyError, TypeError) as exc:
        result["ok"] = False
        result["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(d)
    del result["started"]
    return result


PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
RATIOS = {  # metric: (counter, span whose calls are the denominator)
    "indices.degseq_eval.unique_ratio": ("indices.degseq_eval.unique", "indices.degseq_eval"),
    "bounds.claimed_ratio": ("bounds.claimed", "bounds.theorem_bound"),
    "transforms.apply.applicable_ratio": ("transforms.applicable", "transforms.apply"),
}


def layer_metrics(trace_path: Path, result: dict) -> dict:
    """Every per-layer metric except tracing_overhead_s, from one traced child."""
    per_name, header = tracer.self_times(str(trace_path))
    counters = header["counters"]
    attributed = sum(s for s, _ in per_name.values())
    out = {"missing_targets": header["missing"]}
    for metric in PER_LAYER:
        base, _, suffix = metric.rpartition(".")
        if metric in RATIOS:
            counter, span = RATIOS[metric]
            calls = per_name.get(span, (0.0, 0))[1]
            out[metric] = counters.get(counter, 0) / calls if calls else 0.0
        elif metric in ("verify.cells", "verify.witnesses"):
            out[metric] = counters.get(metric, 0)
        elif metric == "cli.output_bytes":
            out[metric] = result["outputs"]["output_bytes"]
        elif metric == "traced_wall_s":
            out[metric] = result["wall_s"]
        elif metric == "unattributed_s":
            out[metric] = result["wall_s"] - attributed
        elif metric.startswith("layer."):
            layer = metric.split(".")[1]
            out[metric] = sum(s for name, (s, _) in per_name.items() if name.split(".")[0] == layer)
        elif suffix == "count":
            out[metric] = per_name.get(base, (0.0, 0))[1]
        elif suffix in ("s", "self_s"):
            out[metric] = per_name.get(base, (0.0, 0))[0]
    return out


def summarize(values: list[float]) -> dict:
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end_values(samples: list[dict], metric: str) -> list[float]:
    kinds = ("probe", "full") if metric == "setup_s" else ("full",)
    return [s[metric] for s in samples if s["ok"] and s["kind"] in kinds]


def measure(workload, seconds: float, trace: int, run_dir: Path) -> dict:
    run_dir.mkdir(parents=True)
    samples = []

    def take(kind):
        samples.append(sample(workload, kind, run_dir, len(samples)))

    take("warmup")  # compiles bytecode; counted as attempted, not measured
    # Set-up probes are spread over the run, like the full children, so
    # that setup_s samples the same stretch of machine time as wall_s.
    if trace:
        cycle, minimum = ("full", "traced"), {"full": 1, "traced": 1}
    else:
        cycle, minimum = ("probe",) * PROBES_PER_FULL + ("full",), {"full": MIN_FULL}
    deadline = time.monotonic() + seconds
    longest = 0.0
    while True:
        began = time.monotonic()
        for kind in cycle:
            take(kind)
        longest = max(longest, time.monotonic() - began)
        enough = all(sum(s["kind"] == k for s in samples) >= n for k, n in minimum.items())
        if enough and time.monotonic() + longest > deadline:
            break
    shutil.rmtree(run_dir)

    result = {"samples": samples, "attempted": len(samples),
              "failed": sum(not s["ok"] for s in samples)}
    if not trace:
        result["metrics"] = {}
        for m in SPEC["end_to_end"]:
            stats = summarize(end_to_end_values(samples, m["name"]))
            result["metrics"][m["name"]] = {"value": stats["median"], "unit": m["unit"], **stats}
        return result
    traced = sorted((s for s in samples if s["ok"] and s["kind"] == "traced"),
                    key=lambda s: s["wall_s"])
    untraced = end_to_end_values(samples, "wall_s")
    chosen = traced[(len(traced) - 1) // 2]["layers"] if traced else {}
    overhead = 0.0
    if chosen and untraced:
        overhead = chosen["traced_wall_s"] - statistics.median(untraced)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    result["missing_targets"] = chosen.get("missing_targets", [])
    result["metrics"] = {
        name: {"value": overhead if name == "tracing_overhead_s" else chosen.get(name, 0.0),
               "unit": units[name]}
        for name in PER_LAYER
    }
    return result


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "git_sha": None,
        "git_dirty": None,
    }
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if ref_path.is_file():
                ref = ref_path.read_text(encoding="utf-8").strip()
            elif packed.is_file():
                ref = next((line.split()[0] for line in packed.read_text(encoding="utf-8").splitlines()
                            if line.endswith(" " + ref[5:])), None)
        facts["git_sha"] = ref
        try:
            status = subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench",
                                     "BENCHMARK.json"], cwd=ROOT, capture_output=True, text=True,
                                    timeout=60, check=False)
            facts["git_dirty"] = bool(status.stdout.strip()) if status.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return facts


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def report_workload(name: str, res: dict, trace: int) -> None:
    print(f"{name}{' (traced run)' if trace else ''}:")
    failures = [s for s in res["samples"] if not s["ok"]]
    for s in failures[:3]:
        print(f"  FAILED {s['kind']} child: {s['error'][:500]}")
    for metric, m in res["metrics"].items():
        if trace:
            print(f"  {metric:40s} {_fmt(m['value']):>12s} {m['unit']}")
        else:
            print(f"  {metric:14s} median {_fmt(m['median']):>10s} {m['unit']:5s} "
                  f"q1 {_fmt(m['q1'])}  q3 {_fmt(m['q3'])}  samples {m['n']}")
    rate = res["failed"] / res["attempted"]
    print(f"  {'error_rate':14s} {_fmt(rate):>17s} ratio  "
          f"({res['failed']} failed of {res['attempted']} children attempted)")
    if trace and res.get("missing_targets"):
        print(f"  trace targets not found: {', '.join(res['missing_targets'])}")


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes of every workload")
    parser.add_argument("--out", help="result file (default under .perfbench-work/results/)")
    opts = parser.parse_args(argv)

    if not (ROOT / "src" / "treedex" / "__init__.py").is_file():
        print(f"perfbench: no treedex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    selected = names if opts.workload == "all" else [opts.workload]
    record = {"seed": opts.seed, "seconds": opts.seconds, "trace": opts.trace,
              "smoke": opts.smoke, "machine": machine_facts(), "workloads": {}}
    for name in selected:
        workload = build_workload(name, opts.seed, opts.smoke)
        run_dir = WORK / f"run-{os.getpid()}-{name}"
        res = measure(workload, opts.seconds, opts.trace, run_dir)
        record["workloads"][name] = {"inputs": workload.inputs(), **res}
        report_workload(name, res, opts.trace)

    out = Path(opts.out) if opts.out else (
        WORK / "results" / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}"
                           f"{'-smoke' if opts.smoke else ''}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"full record: {out}", file=sys.stderr)

    runs = record["workloads"].values()
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if len(selected) == 1:
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in record["workloads"][selected[0]]["metrics"].items()}
    else:
        metrics = {f"{w}/{k}": {"value": v["value"], "unit": v["unit"]}
                   for w, r in record["workloads"].items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
