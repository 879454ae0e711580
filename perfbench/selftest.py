"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Checks that tracing puts every original function back, that answer checks
stay out of the trace, that self time is derived correctly on a synthetic
nested span, that one seed always generates the same inputs, and that the
speed sampler probes during a long block without timing its probes.
Exits 0 when all pass.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import refspeed  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

from finsite import fincat, topology, torsion, typen  # noqa: E402


def _bindings() -> dict[tuple[str, str], object]:
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "finsite" or name.startswith("finsite."):
            for key, val in vars(mod).items():
                if isinstance(val, types.FunctionType):
                    out[(name, key)] = val
    out[("finsite.fincat", "FiniteCategory.compose")] = (
        fincat.FiniteCategory.__dict__["compose"])
    return out


def test_originals_restored() -> None:
    before = _bindings()
    tracer = Tracer()
    with tracer.installed():
        # aliases bound by name in other modules are rebound too
        for mod, key in ((topology, "all_sieves"), (topology, "pullback_sieve"),
                         (topology, "check_axioms"), (torsion, "all_sieves"),
                         (typen, "all_sieves"), (typen, "pullback_sieve")):
            assert getattr(mod, key) is not before[(mod.__name__, key)], key
        topology.enumerate_topologies(workloads.fixture("chain3"))
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed, changed
    rows = tracer.summarize()
    assert rows["topology.enumerate_topologies"]["calls"] == 1
    assert rows["topology.check_axioms"]["calls"] == 4 * 3 * 2  # candidates
    assert rows["sieves.all_sieves"]["calls"] > 0
    assert tracer.method_calls["fincat.compose"][0] > 0
    assert tracer.rules_emitted == 8


def test_checks_not_traced() -> None:
    before = _bindings()
    cat = workloads.fixture("chain3")
    task = workloads.Task(
        "enumerate", "enumerate chain3",
        lambda: topology.enumerate_topologies(cat),
        lambda got: len(got) == len(
            topology.enumerate_consistent_families(cat)))
    tracer = Tracer()
    times, _, failures = worker.run_pass([task, task], tracer)
    assert len(times) == 2 and not failures, failures
    rows = tracer.summarize()
    assert rows["task.enumerate"]["calls"] == 2
    assert rows["topology.enumerate_topologies"]["calls"] == 2
    assert "topology.enumerate_consistent_families" not in rows
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_self_time_nested() -> None:
    tracer = Tracer()
    root = tracer.record("task.x", 0, 100, -1)
    a = tracer.record("modrep.a", 10, 40, root)
    tracer.record("linalg.b", 15, 25, a)
    tracer.record("linalg.b", 50, 70, root)
    rows = tracer.summarize()

    def ns(name: str, key: str) -> int:
        return round(rows[name][key] * 1e9)

    assert ns("task.x", "self_s") == 50  # 100 - 30 - 20
    assert ns("modrep.a", "self_s") == 20  # 30 - 10
    assert ns("linalg.b", "self_s") == 30  # 10 + 20
    assert ns("task.x", "incl_s") == 100
    assert rows["linalg.b"]["calls"] == 2
    assert tracer.child_calls("modrep.a", "linalg.b") == 1
    assert tracer.child_calls("task.x", "linalg.b") == 1


def _snapshot(name: str, seed: int, doc_dir: str) -> str:
    work = workloads.setup(name, seed, doc_dir)
    docs = {}
    if os.path.isdir(doc_dir):
        for fname in sorted(os.listdir(doc_dir)):
            with open(os.path.join(doc_dir, fname), encoding="utf-8") as fh:
                docs[fname] = fh.read()
    return json.dumps({"inputs": work.inputs, "docs": docs,
                       "tasks": [t.label for t in work.tasks],
                       "traced": [t.label for t in work.traced_tasks]},
                      sort_keys=True)


def test_inputs_repeat_per_seed() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name in workloads.WORKLOADS:
            first = _snapshot(name, 7, os.path.join(tmp, f"{name}-a"))
            again = _snapshot(name, 7, os.path.join(tmp, f"{name}-b"))
            other = _snapshot(name, 8, os.path.join(tmp, f"{name}-c"))
            strip = (lambda s, d: s.replace(os.path.join(tmp, d), "DOCS"))
            assert strip(first, f"{name}-a") == strip(again, f"{name}-b"), name
            assert strip(first, f"{name}-a") != strip(other, f"{name}-c"), name


def test_sampler_probes_long_blocks() -> None:
    t0 = time.perf_counter()
    with refspeed.Sampler() as sample:
        end = time.perf_counter() + 3 * refspeed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    outer = time.perf_counter() - t0
    # before, at least two during, after; the ones during are not timed
    assert len(sample.probes) >= 4, sample.probes
    assert sample.seconds < outer - sum(sample.probes[1:-1]) * 0.9
    assert sample.scaled_seconds > 0


def test_tail_rank() -> None:
    assert worker.tail_rank(440) == 429  # ten tasks beyond rank 429
    assert worker.tail_rank(11) == 0
    assert worker.tail_rank(3) == 0


def main() -> int:
    tests = [test_originals_restored, test_checks_not_traced,
             test_self_time_nested,
             test_inputs_repeat_per_seed, test_sampler_probes_long_blocks,
             test_tail_rank]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
