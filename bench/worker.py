"""One benchmark process: set up a workload, run and check its operations, report JSON.

Started by run.py in a fresh interpreter, so that set-up time and peak
memory belong to this workload alone.  ``--t0`` is the parent's
``time.monotonic()`` just before it started this process; set-up time runs
from there to the first timed operation.  The last line on stdout is the
JSON report.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_program() -> float:
    """Import okvalid from this checkout's src/ (never an installed copy)."""
    t = time.perf_counter()
    sys.path.insert(0, SRC)
    import okvalid
    import okvalid.cli
    import okvalid.files

    if not os.path.abspath(okvalid.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"okvalid imported from {okvalid.__file__}, not from {SRC}")
    return time.perf_counter() - t


def git_commit():
    """HEAD of the checkout's git repository, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads():
    """OpenBLAS's thread count, asked of the library numpy loaded (None if unknown)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine() -> dict:
    import platform

    import numpy as np

    cpus, model = 0, None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("processor"):
                    cpus += 1
                elif line.startswith("model name") and model is None:
                    model = line.split(":", 1)[1].strip()
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": cpus,
        "cpu_model": model,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        # the sweep's pool is min(4, jobs) unless OKVALID_THREADS caps it; the
        # traced run measures the threads it really used (cli.sweep.pool_workers)
        "okvalid_threads_env": os.environ.get("OKVALID_THREADS"),
    }


def run_op(wl, st, ref, i, log, tracer=None):
    """Run and check operation i (traced if a tracer is given).

    Returns (wall seconds, failure messages, output).
    """
    out = None
    root = tracer.begin_op(i) if tracer else None
    t = time.perf_counter()
    try:
        try:
            out = wl.op(st, i)
        finally:
            wall = time.perf_counter() - t
            if tracer:
                tracer.end_op(root)
        failures = wl.check(st, out, ref)
    except Exception:  # noqa: BLE001 - a raising op is a failed op, and the run goes on
        failures = ["raised: " + traceback.format_exc(limit=3)]
    for msg in failures:
        log(f"op {i}: {msg}")
    return wall, failures, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--out", required=True, help="directory for the span file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_s = import_program()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.op = "setup"
        tracer.install()
    st = wl.setup(args.seed, args.tmp)
    if tracer:
        tracer.uninstall()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ref = workloads.load_json("reference.json")[wl.name]
    messages = []

    def log(msg):
        messages.append(msg)
        print(msg, file=sys.stderr)

    walls = {False: [], True: []}
    failed = attempted = 0
    certs = []
    deadline = time.monotonic() + args.seconds
    # the traced run starts with a traced cycle, then alternates untraced and
    # traced cycles while time is left
    traced = bool(tracer)
    i = 0
    while True:
        if traced:
            tracer.install()
        for _ in range(wl.cycle):
            wall, failures, out = run_op(wl, st, ref, i, log, tracer if traced else None)
            walls[traced].append(wall)
            attempted += 1
            failed += bool(failures)
            if out is not None and not failures:
                certs.extend(wl.certificates(out))
            i += 1
        if traced:
            tracer.uninstall()
        if time.monotonic() >= deadline:
            break
        traced = bool(tracer) and not traced

    report = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "setup_s": setup_s, "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_s": walls[False], "traced_op_s": walls[True],
        "attempted": attempted, "failed": failed, "failures": messages[:20],
        "certificates": certs, "machine": machine(),
    }
    if tracer:
        import statistics

        n_traced = len(walls[True])
        layers = tracing.layer_metrics(tracer.spans, n_traced)
        layers["intervals.matrix_peak_bytes"] = tracer.peak_matrix_bytes
        layers["setup.import_s"] = import_s
        traced_s = statistics.fmean(walls[True])
        if walls[False]:
            untraced_s = statistics.fmean(walls[False])
            report["trace_overhead_method"] = "measured"
        else:
            # an operation longer than the run leaves no untraced one to compare
            # with: take away what the wrappers cost, span by span
            n_spans = sum(1 for s in tracer.spans if s.op != "setup" and s.name != "op")
            untraced_s = traced_s - tracer.span_cost() * n_spans / n_traced
            report["trace_overhead_method"] = "span cost"
        layers["trace.untraced_op_s"] = untraced_s
        layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        report["per_layer"] = layers
        spans_path = os.path.join(args.out, f"spans-{wl.name}-seed{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump([{"id": k, "name": s.name, "parent": s.parent, "op": s.op,
                        "thread": s.thread, "start": s.start, "end": s.end, "info": s.info}
                       for k, s in enumerate(tracer.spans)], fh)
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
