"""bicov benchmark: certify, fit, predict and cli workloads.

    python3 bench/run.py                           # all four, untraced
    python3 bench/run.py --trace 1                 # all four, per-layer metrics
    python3 bench/run.py --workload fit --seed 3   # one workload alone

Each workload runs in its own child process (bench/child.py), one after
another, with PYTHONPATH=src and the BLAS thread count pinned before numpy
loads.  Set-up is measured from process start to the first timed operation,
in SETUPS separate processes, and reported as their median.  Results, with
the machine context, go to bench/out/; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("certify", "fit", "predict", "cli")
# One thread: the fit's evaluation count depends on the BLAS thread count,
# and two threads on a two-core machine oversubscribe as soon as anything
# else runs.
BLAS_THREADS = 1
SETUPS = 3
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(workload, seed, seconds, trace, reduced, setup_only=False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", OUT]
    if reduced:
        cmd.append("--reduced")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.time())]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_state() -> dict:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"sha": "unknown", "dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                               text=True, timeout=30).stdout.strip() != ""
    except (OSError, subprocess.SubprocessError):
        return {"sha": "unknown", "dirty": None}
    return {"sha": sha or "unknown", "dirty": dirty}


def run_workload(name, seed, seconds, trace, reduced) -> dict:
    load_start = os.getloadavg()
    extra = [run_child(name, seed, seconds, trace, reduced, setup_only=True)
             for _ in range(0 if reduced else SETUPS - 1)]
    res = run_child(name, seed, seconds, trace, reduced)
    setups = [r["setup_s"] for r in extra] + [res["setup_s"]]
    res["setup_runs_s"] = setups
    res["setup_runs_wall_s"] = [r["setup_wall_s"] for r in extra] + [res["setup_wall_s"]]
    res["e2e"]["setup_s"] = (statistics.median(setups), "s")
    res["context"].update(
        nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
        blas_threads_requested=BLAS_THREADS, loadavg_start=load_start,
        loadavg_end=os.getloadavg(), **{"git_" + k: v for k, v in git_state().items()})
    tag = f"{name}-seed{seed}{'-reduced' if reduced else ''}"
    if trace:
        untraced_path = os.path.join(OUT, f"result-{tag}-trace0.json")
        if os.path.exists(untraced_path):
            with open(untraced_path, encoding="utf-8") as fh:
                untraced = json.load(fh)["e2e"]
            res["tracing_overhead"] = {k: (res["e2e"][k][0] - untraced[k][0], unit)
                                       for k, (_, unit) in untraced.items()
                                       if k == "round_s"}
    with open(os.path.join(OUT, f"result-{tag}-trace{trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)
    return res


def _print_block(res, trace):
    print(f"== {res['workload']}: {res['attempted']} operations attempted, "
          f"{res['failed']} failed, {res['rounds']} rounds, correct={str(res['correct']).lower()}")
    rows = dict(res["e2e"])
    rows.update(res["detail"])
    if trace:
        rows = dict(res["per_layer"])
        rows.update({f"{layer}.self.s": (v, "s") for layer, v in res["layer_self_s"].items()})
        rows.update({f"tracing_overhead.{k}": v for k, v in res.get("tracing_overhead", {}).items()})
    for name, (value, unit) in rows.items():
        print(f"   {name:<36} {value:>14.6g} {unit}")
    for label, why in res["failures"].items():
        print(f"   failed: {label}: {why}")
    for label, why in res["problems"].items():
        print(f"   WRONG: {label}: {why}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true",
                    help="small inputs and one set-up per workload, for the benchmark's tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "bicov", "__init__.py")):
        print(f"no bicov sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, args.seconds, args.trace, args.reduced)
                   for n in names]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(str(exc), file=sys.stderr)
        return 1

    for res in results:
        _print_block(res, args.trace)
    key = "per_layer" if args.trace else "e2e"
    prefix = (lambda res, name: name) if len(results) == 1 else (
        lambda res, name: f"{res['workload']}.{name}")
    metrics = {prefix(res, name): {"value": value, "unit": unit}
               for res in results for name, (value, unit) in res[key].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
