"""The benchmark tracer still finds the names it wraps.

perfbench/tracer.py replaces treedex functions from outside the package
and lists every target it cannot find in `Recorder.missing` instead of
failing. Eight targets went stale when the verdict engine moved; a
source change that drops any other traced name fails here, while a
tracer re-pointed at the current names only shrinks the list.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import treedex

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

STALE_TARGETS = {
    "treedex.verify._family_groups",
    "treedex.verify.r0_of_degseq",
    "treedex.verify.sei_of_degseq",
    "treedex.bounds.r0_of_degseq",
    "treedex.bounds.sei_of_degseq",
    "treedex.verify.r0_general",
    "treedex.verify.sei",
    "treedex.verify.structural_profile",
}


def test_missing_targets_are_only_the_known_stale_ones():
    script = ("import json, tracer\n"
              "recorder = tracer.Recorder()\n"
              "recorder.install()\n"
              "print(json.dumps(recorder.missing))\n")
    path = os.pathsep.join((str(Path(treedex.__file__).parents[1]), str(PERFBENCH)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    missing = json.loads(proc.stdout)
    assert set(missing) <= STALE_TARGETS
