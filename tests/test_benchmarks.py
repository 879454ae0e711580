"""The hand-run layer benchmarks, run once each without timing, so that a
change to an internal they call fails here and not only when someone next
times them."""

from __future__ import annotations

import os
import subprocess
import sys

import finsite

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_layer_benchmarks_run():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(finsite.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "--benchmark-disable",
         "-q", "-p", "no:cacheprovider"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
