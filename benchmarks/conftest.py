"""Every benchmark also in reference-speed units.

On a shared virtual machine a wall-clock median of unchanged code moves by
up to 1.8x between runs. perfbench/refspeed.py's probe is a fixed loop
that measures how fast the machine runs finsite-like code at the moment it
is called. Each benchmark here is bracketed by one probe before and one
after; both go into the benchmark's extra_info, with its median scaled by
REFERENCE_S over their mean, which reads as seconds on the machine at a
fixed speed. The scaled figures are in the saved JSON
(`--benchmark-json FILE`), not in the terminal table.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import refspeed  # noqa: E402


@pytest.fixture(autouse=True)
def reference_speed(request):
    if "benchmark" not in request.fixturenames:
        yield
        return
    benchmark = request.getfixturevalue("benchmark")
    before = refspeed.probe()
    yield
    after = refspeed.probe()
    benchmark.extra_info["probe_before_s"] = before
    benchmark.extra_info["probe_after_s"] = after
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["scaled_median_s"] = (
            benchmark.stats.stats.median * refspeed.REFERENCE_S
            / ((before + after) / 2))
