"""Benchmark entry point for finsite.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Workloads: census, sheaf_fp, cli, and
sheaf_q for runs by hand (see workloads.py and README.md). With --trace 0
the last stdout line carries the end-to-end metrics; with --trace 1 the
per-layer metrics of one traced pass. Everything measured is the
checkout's own src/finsite; outputs go to .perfbench_out/ in the checkout.

The script compiles the sources, times the set-up in SETUP_PROBES fresh
interpreters, then starts the measuring worker. Times are reported at the
reference speed of refspeed.py; the wall times are printed after them.
Every process it starts gets PYTHONHASHSEED pinned, because sieve
enumeration iterates over sets of strings and its operation counts would
otherwise vary per process.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "finsite")
WORKER = os.path.join(HERE, "worker.py")

HASH_SEED = "0"
SETUP_PROBES = 10
RUN_LIMIT_S = 170.0
END_TO_END = (("setup_s", "s"), ("job_s", "s"), ("task_p50_ms", "ms"),
              ("task_tail_ms", "ms"), ("peak_rss_mb", "MB"))


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # the compile step below writes it
    env.pop("PYTHONSTARTUP", None)
    return env


def _source_digest() -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(PACKAGE, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (a
    checkout without .git reports that instead)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "none (not a git checkout)"
    with open(head, encoding="utf-8") as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", *ref[5:].split("/"))
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    return ref[5:]


def _worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in its own process group and return its result line;
    on timeout the whole group (CLI children included) is killed."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit("error: out of time before the worker started")
    proc = subprocess.Popen([sys.executable, WORKER, *args], env=_child_env(),
                            cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"error: worker {args} timed out") from None
    if proc.returncode != 0:
        raise SystemExit(f"error: worker {args} exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _rref_summary(metrics: dict) -> str:
    by_field = {f: metrics[f"linalg.rref.calls.{f}"][0]
                for f in ("F2", "F3", "Q")}
    total = sum(by_field.values())
    if not total:
        return "rref: no calls"
    shares = ", ".join(f"{f} {100 * n / total:.1f}%"
                       for f, n in by_field.items())
    small = 100 * metrics["linalg.rref.small_share"][0]
    return (f"rref: {total} calls; {shares}; {small:.1f}% with <= 64 cells;"
            f" largest {metrics['linalg.rref.max_rows'][0]}x"
            f"{metrics['linalg.rref.max_cols'][0]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no finsite sources under {SRC}; run from the root of"
              " a finsite checkout", file=sys.stderr)
        return 2

    if not all(compileall.compile_dir(path, quiet=1) for path in (PACKAGE, HERE)):
        print("error: finsite sources do not compile", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [_worker(common + ["--setup-only"], deadline)
              for _ in range(SETUP_PROBES)]
    out = _worker(common + ["--seconds", str(args.seconds),
                            "--trace", str(args.trace)], deadline)
    setups.append(out)

    failures = out["failures"]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "hash_seed": HASH_SEED,
        "git_commit": _git_commit(), "src_digest": _source_digest(),
        **out,
        "setup_s_runs": [run["setup_s"] for run in setups],
        "setup_s": statistics.median(run["setup_s"] for run in setups),
        "wall_setup_s": statistics.median(run["wall_setup_s"]
                                          for run in setups),
    }
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in out["metrics"].items()}
    else:
        metrics = {name: {"value": record[name], "unit": unit}
                   for name, unit in END_TO_END}
    record["result_metrics"] = metrics
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    record_path = os.path.join(
        ROOT, ".perfbench_out",
        f"run-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    print(f"finsite benchmark: workload={args.workload} seed={args.seed}"
          f" trace={args.trace} python={record['python']}"
          f" PYTHONHASHSEED={HASH_SEED} commit={record['git_commit']}"
          f" src={record['src_digest']}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    attempted = out["attempted"]
    print(f"failed_frac {len(failures) / attempted} ({len(failures)} of"
          f" {attempted} task runs)")
    if args.trace:
        print(_rref_summary(out["metrics"]))
    else:
        print(f"task_tail_ms is p{out['tail_percentile']:.1f} of"
              f" {out['tasks']} per-task medians over {out['passes']}"
              " passes")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    if not args.trace:
        print("in wall time, not scaled to the reference speed: "
              + ", ".join(f"{name} {record['wall_' + name]} {unit}"
                          for name, unit in END_TO_END
                          if name != "peak_rss_mb"))
    print(f"record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
