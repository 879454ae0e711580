"""One benchmark process: set up a workload, time it, check every answer.

Started by run.py with PYTHONHASHSEED pinned and PYTHONPATH at the
checkout's src/. Prints one JSON object as its last stdout line.

    --setup-only   time the set-up and stop (run.py repeats this to take a
                   median of setup_s)
    --trace 0      passes over the task list until --seconds is used up;
                   end-to-end metrics from each task's median over them,
                   at the reference speed of refspeed.py
    --trace 1      one untraced pass, then one pass under the span tracer;
                   per-layer metrics
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import refspeed  # imports nothing of finsite

PROBE_START = refspeed.probe()
T_START = time.perf_counter()  # set-up is timed from before finsite's import

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (imports finsite)
from tracer import LAYERS, Tracer  # noqa: E402

import finsite  # noqa: E402

T_IMPORTED = time.perf_counter()

IMPORT_PROBES = 5
TAIL_BEYOND = 10


def _out_dir() -> str:
    path = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(path, exist_ok=True)
    return path


def _require_checkout_finsite(children: bool) -> None:
    """Refuse to measure any finsite but the checkout's own src/finsite,
    in this process and, when asked, in a child started like the CLI's."""
    want = os.path.realpath(os.path.join(ROOT, "src", "finsite"))
    found = [os.path.dirname(finsite.__file__)]
    if children:
        found.append(os.path.dirname(subprocess.run(
            [sys.executable, "-c", "import finsite; print(finsite.__file__)"],
            capture_output=True, text=True, check=True).stdout.strip()))
    for got in found:
        if os.path.realpath(got) != want:
            raise SystemExit(f"finsite imported from {got}, not from {want}")


def run_pass(tasks, tracer: Tracer | None = None):
    """Run and check every task once. Returns per-task wall seconds,
    per-task seconds at the reference speed (None when traced) and the
    failures. Each task starts from a fresh collector state and its result
    is checked and dropped before the next one, so a task's time does not
    depend on what ran before it. A tracer is installed around each task
    alone: the checks call finsite too, and their calls are not the task's
    work. Untraced tasks are timed with refspeed.Sampler."""
    times, scaled, failures = [], [], []
    last_probe = None
    for task in tasks:
        gc.collect()
        if tracer is None:
            with refspeed.Sampler(before=last_probe) as sample:
                result = _attempt(task)
            times.append(sample.seconds)
            scaled.append(sample.scaled_seconds)
            last_probe = sample.probes[-1]
        else:
            tracer.install()
            try:
                t0 = time.perf_counter()
                with tracer.span(f"task.{task.kind}"):
                    result = _attempt(task)
                times.append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
            scaled.append(None)
        failure = _check(task, result)
        if failure:
            failures.append(failure)
    return times, scaled, failures


def _attempt(task):
    try:
        return task.run()
    except Exception as err:  # a refused or crashed task is a failure
        return err


def _check(task, result) -> str | None:
    """Why the result is a failure (an exception or a wrong answer), or
    None when it matches the task's reference answer."""
    if isinstance(result, Exception):
        return f"{task.label}: {type(result).__name__}: {result}"
    try:
        ok = task.check(result)
    except Exception as err:  # an answer the check cannot read is wrong
        return f"{task.label}: check raised {type(err).__name__}"
    return None if ok else f"{task.label}: wrong answer"


def tail_rank(n: int) -> int:
    """0-based rank of the highest order statistic with at least
    TAIL_BEYOND tasks beyond it (the maximum when there are fewer)."""
    return max(0, n - TAIL_BEYOND - 1)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _timed_passes(tasks, seconds: float):
    """Passes over the task list while at least half of another pass still
    fits in the budget. Returns per-task raw seconds, per-task seconds at
    the reference speed, and failures."""
    raw, scaled, failures = [[] for _ in tasks], [[] for _ in tasks], []
    t_begin = time.perf_counter()
    cycle = []
    while True:
        t_cycle = time.perf_counter()
        times, scaled_times, bad = run_pass(tasks)
        failures.extend(bad)
        for i, (t, s) in enumerate(zip(times, scaled_times)):
            raw[i].append(t)
            scaled[i].append(s)
        cycle.append(time.perf_counter() - t_cycle)
        used = time.perf_counter() - t_begin
        if used + statistics.median(cycle) / 2 > seconds:
            return raw, scaled, failures


def _scores(per_task: list[list[float]]) -> dict:
    """job_s, task_p50_ms and task_tail_ms from per-task samples."""
    medians = sorted(statistics.median(ts) for ts in per_task)
    rank = tail_rank(len(medians))
    return {"job_s": sum(medians),
            "task_p50_ms": 1e3 * statistics.median(medians),
            "task_tail_ms": 1e3 * medians[rank]}


def measure(work, seconds: float) -> dict:
    """End-to-end metrics at the reference speed (see refspeed.py), from
    each task's median over the passes; the same figures in plain wall
    time are kept in the record as wall_*."""
    tasks = work.tasks
    if work.name == "cli":
        # warm-up: one untimed call pulls interpreter and sources into cache
        tasks[0].run()
    raw, scaled, failures = _timed_passes(tasks, seconds)
    passes = len(raw[0])
    rank = tail_rank(len(tasks))
    wall = _scores(raw)
    return {
        "attempted": passes * len(tasks),
        "failures": failures,
        "passes": passes,
        "samples": [[t.label, r, s] for t, r, s in zip(tasks, raw, scaled)],
        "tail_percentile": 100.0 * (rank + 1) / len(tasks),
        "tasks": len(tasks),
        **{f"wall_{k}": v for k, v in wall.items()},
        **_scores(scaled),
        "peak_rss_mb": peak_rss_mb(children=work.name == "cli"),
    }


def import_ms() -> tuple[float, float]:
    """Median start-up of a bare interpreter, and the median extra cost of
    importing finsite.cli in a fresh one, in ms."""
    bare, full = [], []
    for _ in range(IMPORT_PROBES):
        for code, into in (("pass", bare), ("import finsite.cli", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True)
            into.append(1e3 * (time.perf_counter() - t0))
    start = statistics.median(bare)
    return start, statistics.median(full) - start


def trace(work, seed: int) -> dict:
    tasks = work.traced_tasks
    times, _, failures = run_pass(tasks)
    untraced = sum(times)
    tracer = Tracer()
    times, _, bad = run_pass(tasks, tracer)
    traced = sum(times)
    failures.extend(bad)
    spans_path = os.path.join(_out_dir(), f"spans-{work.name}-{seed}.tsv.gz")
    tracer.write(spans_path)

    per_name = tracer.summarize()

    def calls(qual: str) -> int:
        return per_name.get(qual, {}).get("calls", 0)

    def incl(qual: str) -> float:
        return per_name.get(qual, {}).get("incl_s", 0.0)

    layer_self = {layer: 0.0 for layer in LAYERS + ("task",)}
    for qual, row in per_name.items():
        layer_self[qual.split(".", 1)[0]] += row["self_s"]
    rref = tracer.rref
    rref_calls = sum(rref.calls_by_field.values())
    random_calls = calls("modrep.random_module")
    bare_ms, cli_import_ms = import_ms()
    m = {f"{layer}.self_s": (layer_self[layer], "s") for layer in LAYERS}
    m.update({
        "harness.self_s": (layer_self["task"], "s"),
        "topology.check_axioms.calls": (calls("topology.check_axioms"), "count"),
        "topology.accept_ratio": (
            tracer.rules_emitted / calls("topology.check_axioms")
            if calls("topology.check_axioms") else 0.0, "ratio"),
        "sieves.all_sieves.calls": (calls("sieves.all_sieves"), "count"),
        "sieves.pullback_sieve.calls": (calls("sieves.pullback_sieve"), "count"),
        "sieves.union_sieves.calls": (calls("sieves.union_sieves"), "count"),
        "fincat.compose.calls": (tracer.method_calls["fincat.compose"][0],
                                 "count"),
        "linalg.rref.calls.F2": (rref.calls_by_field.get("F2", 0), "count"),
        "linalg.rref.calls.F3": (rref.calls_by_field.get("F3", 0), "count"),
        "linalg.rref.calls.Q": (rref.calls_by_field.get("Q", 0), "count"),
        "linalg.rref.cells": (rref.cells, "count"),
        "linalg.rref.small_share": (
            rref.small / rref_calls if rref_calls else 0.0, "ratio"),
        "linalg.rref.max_cells": (rref.max_cells, "count"),
        "linalg.rref.max_rows": (rref.max_shape[0], "count"),
        "linalg.rref.max_cols": (rref.max_shape[1], "count"),
        "modrep.random_module.calls": (random_calls, "count"),
        "modrep.random_module.s": (incl("modrep.random_module"), "s"),
        "modrep.random_module.rounds": (
            tracer.child_calls("modrep.random_module",
                               "modrep.submodule_from_spans") / random_calls
            if random_calls else 0.0, "ratio"),
        "modrep.hom_space.calls": (calls("modrep.hom_space"), "count"),
        "modrep.are_isomorphic.calls": (calls("modrep.are_isomorphic"),
                                        "count"),
        "modrep.are_isomorphic.s": (incl("modrep.are_isomorphic"), "s"),
        "sheaves.matching_space.calls": (calls("sheaves.matching_space"),
                                         "count"),
        "sheaves.plus_construction.calls": (
            calls("sheaves.plus_construction"), "count"),
        "torsion.torsion_submodule.calls": (
            calls("torsion.torsion_submodule"), "count"),
        "typen.truncation_crosscheck.calls": (
            calls("typen.truncation_crosscheck"), "count"),
        "cli.start_ms": (bare_ms, "ms"),
        "cli.import_ms": (cli_import_ms, "ms"),
        "cli.run.self_s": (per_name.get("cli.run", {}).get("self_s", 0.0),
                           "s"),
        "trace.untraced_job_s": (untraced, "s"),
        "trace.traced_job_s": (traced, "s"),
        "trace.overhead_frac": ((traced - untraced) / untraced, "ratio"),
        "trace.spans": (len(tracer.name), "count"),
    })
    return {
        "attempted": 2 * len(tasks),
        "failures": failures,
        "metrics": m,
        "spans_path": os.path.relpath(spans_path, ROOT),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    doc_dir = os.path.join(_out_dir(), f"docs-{args.workload}-{args.seed}")
    drawn = workloads.draw(args.workload, args.seed)  # a seeded search: untimed
    t_build = time.perf_counter()
    work = workloads.setup(args.workload, args.seed, doc_dir, drawn)
    wall_setup_s = (T_IMPORTED - T_START) + (time.perf_counter() - t_build)
    setup_s = wall_setup_s * refspeed.REFERENCE_S / (
        (PROBE_START + refspeed.probe()) / 2)  # set-up is too short to sample
    _require_checkout_finsite(children=not args.setup_only)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "wall_setup_s": wall_setup_s}))
        return 0
    gc.freeze()  # set-up objects are never garbage; keep them out of collections
    if args.trace:
        out = trace(work, args.seed)
    else:
        out = measure(work, args.seconds)
    out["setup_s"] = setup_s
    out["wall_setup_s"] = wall_setup_s
    out["inputs"] = work.inputs
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
