"""Tests of the benchmark itself (not of treedex).

    python3 perfbench/selftest.py

Runs the smoke sizes only; takes well under a minute on two cores.
Named so that a plain `pytest` run of the repository does not collect it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))
TMPDIR = run.WORK / f"selftest-{os.getpid()}"


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in run.SPEC[section]}
            for workload in run.SPEC["workloads"]:
                out = TMPDIR / f"{workload['name']}-{trace}.json"
                proc = _bench("--workload", workload["name"], "--smoke", "--seconds", "1",
                              "--trace", str(trace), "--out", str(out))
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = _last_json(proc)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], proc.stdout)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
                for name, metric in result["metrics"].items():
                    self.assertIsInstance(metric["value"], (int, float), name)
                if trace:
                    layers = json.loads(out.read_text())["workloads"][workload["name"]]
                    self.assertEqual(layers["missing_targets"], [])
                    m = {k: v["value"] for k, v in result["metrics"].items()}
                    parts = sum(v for k, v in m.items() if k.startswith("layer."))
                    self.assertAlmostEqual(parts + m["unattributed_s"], m["traced_wall_s"], places=9)


class CorruptionTest(unittest.TestCase):
    def _measure_with_flipped_verdict(self, seed: int) -> dict:
        workload = run.build_workload("verify-grid", seed, smoke=True)
        spawn = run.spawn

        def spawn_and_corrupt(args, d):
            result = spawn(args, d)
            out = d / "stdout"
            if out.stat().st_size:
                lines = out.read_text().splitlines(keepends=True)
                first = lines[0]
                lines[0] = (first.replace("CONFIRMED", "REFUTED", 1) if first.startswith("CONFIRMED")
                            else first.replace("REFUTED", "CONFIRMED", 1))
                out.write_text("".join(lines))
            return result

        run.spawn = spawn_and_corrupt
        try:
            return run.measure(workload, 0.1, 0, TMPDIR / f"corrupt-{seed}")
        finally:
            run.spawn = spawn

    def test_flipped_verdict_is_a_failed_run(self):
        for seed, reason in ((run.PINNED_SEED, "pinned"), (run.PINNED_SEED + 1, "verdict")):
            res = self._measure_with_flipped_verdict(seed)
            full = [s for s in res["samples"] if s["kind"] == "full"]
            self.assertTrue(full)
            self.assertTrue(all(not s["ok"] and reason in s["error"] for s in full), full)
            self.assertEqual(res["failed"], len(full))
            self.assertGreater(res["attempted"], res["failed"])

    def test_checker_rejects_a_wrong_oracle_value(self):
        oracle = checker.VerifyOracle()
        grid = (0.5, 2.0)
        cells = list(oracle.expected_cells(range(6, 8), grid, grid))
        lines = []
        for theorem, n, param, index, x, bound in cells:
            lines.append(f"CONFIRMED {theorem} n={n} param={'-' if param is None else param} "
                         f"{'alpha' if index == 'r0' else 'a'}={x!r} {bound.direction} "
                         f"bound={bound.value!r} oracle={bound.value + 1.0!r}")
        lines.append(f"cells: {len(cells)}  confirmed: {len(cells)}  refuted: 0")
        with self.assertRaisesRegex(checker.CheckError, "oracle="):
            oracle.check_stdout("\n".join(lines) + "\n", range(6, 8), grid, grid)

    def test_checker_rejects_a_bad_move_delta(self):
        spec = {"prufer_n": 6, "mono_n": [4, 5], "tree_n": 30,
                "prufer_seqs": [[0, 0, 0, 0, 1, 1, 1, 1] + [2] * 20]}
        import child

        result = child.audit(spec)
        checker.check_audit(result, spec)
        move = result["trees"][0]["moves"]["p1"]
        move["r0"][0] += 1.0
        with self.assertRaisesRegex(checker.CheckError, "delta"):
            checker.check_audit(result, spec)


class CompareTest(unittest.TestCase):
    def test_verdicts(self):
        base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99]
        self.assertEqual(compare.verdict(base, list(base), 0.1, "lower")[0], "unchanged")
        self.assertEqual(compare.verdict(base, [x * 1.3 for x in base], 0.1, "lower")[0], "worse")
        self.assertEqual(compare.verdict(base, [x * 0.7 for x in base], 0.1, "lower")[0], "improved")
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        self.assertEqual(compare.verdict(base, noisy, 0.1, "lower")[0], "unresolved")


class SourcesMissingTest(unittest.TestCase):
    def test_fails_without_a_result_when_src_is_absent(self):
        bare = TMPDIR / "bare"
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", "verify-grid", "--seconds", "1", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


def tearDownModule():
    shutil.rmtree(TMPDIR, ignore_errors=True)


if __name__ == "__main__":
    TMPDIR.mkdir(parents=True, exist_ok=True)
    unittest.main()
