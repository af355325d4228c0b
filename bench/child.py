"""One workload in one fresh process: set up, run whole rounds, check, report.

Started by run.py, which passes the wall-clock time at which it spawned this
process so set-up is measured from process start.  Prints one JSON object as
its last line of standard output.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

import numpy
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A shared virtual machine can run the same code up to 1.9 times slower for
# stretches of seconds to minutes, in CPU time as much as in wall time (see
# bench/README.md).  Every timing is therefore scaled by CAL_REF_S over the time of a
# fixed reference computation (BLAS, vectorised numpy and interpreter work,
# none of it bicov) taken at least every CAL_EVERY_S around the operations:
# figures read as seconds on a machine where that computation takes
# CAL_REF_S.  Unscaled times are kept in the result file.
CAL_REF_S = 0.01
CAL_EVERY_S = 0.5
_CAL_RNG = numpy.random.default_rng(0)
_CAL_A = _CAL_RNG.standard_normal((300, 300))
_CAL_A = _CAL_A @ _CAL_A.T + 300.0 * numpy.eye(300)
_CAL_X = numpy.linspace(1e-3, 10.0, 4096)


def _reference() -> float:
    t0 = time.perf_counter()
    for _ in range(4):
        numpy.linalg.cholesky(_CAL_A)
    for _ in range(30):
        numpy.log1p(numpy.exp(-(_CAL_X ** 0.7)))
    acc = 0.0
    for i in range(1, 15000):
        acc += math.sqrt(i) / i
    return time.perf_counter() - t0


def calibrate() -> float:
    """Seconds taken by the fixed reference computation, best of three."""
    return min(_reference() for _ in range(3))


def blas_in_effect() -> list[dict]:
    """Thread count each loaded OpenBLAS reports about itself."""
    found = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.split()[-1].lower()})
    except OSError:
        return found
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found.append({"library": os.path.basename(path), "threads": int(fn())})
                break
    return found


def digest(value) -> str:
    if isinstance(value, BaseException):
        return f"{type(value).__name__}: {value}"
    h = hashlib.sha1()
    _feed(h, value)
    return h.hexdigest()


def _feed(h, v):
    if isinstance(v, numpy.ndarray):
        h.update(v.tobytes())
    elif dataclasses.is_dataclass(v):
        for f in dataclasses.fields(v):
            _feed(h, getattr(v, f.name))
    elif isinstance(v, (tuple, list)):
        for x in v:
            _feed(h, x)
    elif isinstance(v, dict):
        for k in sorted(v):
            _feed(h, (k, v[k]))
    else:
        h.update(repr(v).encode())


def per_round_s(times: dict, i: int) -> float:
    return sum(ts[i] for ts in times.values())


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--reduced", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    import bicov as bc
    if not os.path.abspath(bc.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"bicov imported from {bc.__file__}, not from this checkout", file=sys.stderr)
        return 3
    if args.workload == "cli":
        import bicov.cli  # noqa: F401  (the traced cli run calls bicov.cli.main)
    import workloads

    kwargs = {}
    if args.workload == "cli":
        kwargs = dict(workdir=os.path.join(args.out, f"work-cli-{os.getpid()}"),
                      env=dict(os.environ), in_process=bool(args.trace))
    wl = workloads.WORKLOADS[args.workload](bc, args.seed, reduced=args.reduced, **kwargs)
    wl.warm_up()
    setup_wall_s = time.time() - args.spawned_at
    cal = calibrate()
    setup_s = setup_wall_s * CAL_REF_S / cal
    if args.setup_only:
        if args.workload == "cli":
            shutil.rmtree(kwargs["workdir"], ignore_errors=True)
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    ops = wl.ops()
    times = {label: [] for label, _, _ in ops}
    wall = {label: [] for label, _, _ in ops}
    cals = [cal]
    cal_at = time.perf_counter()
    pending: list[tuple[str, float]] = []

    def rescale_pending():
        # each operation is scaled by the mean of the readings around it
        nonlocal cal, cal_at
        after = calibrate()
        cals.append(after)
        factor = CAL_REF_S / (0.5 * (cal + after))
        for label, seconds in pending:
            times[label].append(seconds * factor)
        pending.clear()
        cal, cal_at = after, time.perf_counter()
    verdict, first_digest = {}, {}
    attempted = failed = rounds = fit_evals = 0
    failures, problems = {}, {}
    op_labels: dict[int, str] = {}
    measured = 0.0
    while True:
        results = {}
        for label, fn, _ in ops:
            if tracer is not None:
                tracer.op = len(op_labels)
                op_labels[tracer.op] = label
            t0 = time.perf_counter()
            try:
                out = fn()
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            seconds = time.perf_counter() - t0
            wall[label].append(seconds)
            pending.append((label, seconds))
            if time.perf_counter() - cal_at >= CAL_EVERY_S:
                rescale_pending()
            results[label] = out
            fit_evals += getattr(out, "n_iter", 0)
        if pending:
            rescale_pending()
        rounds += 1

        if tracer is not None:
            tracer.enabled = False
        if rounds == 1:
            verdict = wl.check(results)
            first_digest = {label: digest(v) for label, v in results.items()}
        for label, fn, fault in ops:
            out = results[label]
            attempted += 1
            problem = verdict.get(label, "")
            if rounds > 1 and digest(out) != first_digest[label]:
                problem = "output differs from the first round"
            if isinstance(out, Exception) or (problem and fault):
                failed += 1
                failures.setdefault(label, fault or (problem or repr(out)))
            elif problem:
                problems.setdefault(label, problem)
        if tracer is not None:
            tracer.enabled = True
        measured += per_round_s(wall, rounds - 1)
        if measured >= args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    per_round = [per_round_s(times, i) for i in range(rounds)]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "setup_s": setup_s,
        "e2e": {"round_s": (statistics.median(per_round), "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB")},
        "detail": wl.detail(times),
        "round_wall_s": [per_round_s(wall, i) for i in range(rounds)],
        "setup_wall_s": setup_wall_s,
        "calibration_s": cals,
        "op_times_s": times,
        "op_wall_s": wall,
        "problems": problems,
        "failures": failures,
        "context": {"blas": blas_in_effect(), "python": sys.version.split()[0],
                    "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        layer_metrics, layer_self = tracing.summarize(
            tracer.spans, rounds, fit_evals, op_labels,
            getattr(wl, "import_s", 0.0), getattr(wl, "import_scipy_stats_s", 0.0))
        result["per_layer"] = layer_metrics
        result["layer_self_s"] = layer_self
        result["calls_by_op"] = tracing.calls_by_op(tracer.spans, op_labels)
        tag = "-reduced" if args.reduced else ""
        path = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}{tag}.json")
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                            "op_labels": op_labels})
        result["spans_file"] = os.path.relpath(path, ROOT)
        result["span_count"] = len(tracer.spans)
    if args.workload == "cli":
        shutil.rmtree(kwargs["workdir"], ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
