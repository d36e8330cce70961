"""okvalid benchmark: solve -> validate -> check, closed loop, one operation at a time.

    python3 bench/run.py --workload walk-2d --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

Each run starts fresh interpreters (bench/worker.py): SETUP_RUNS - 1 that
only set the workload up, for the median set-up time, then one that also runs
operations back to back for ``--seconds`` (whole workload cycles, at least
one) and checks every output.  With ``--trace 1`` that process starts with a
traced cycle, alternates untraced and traced cycles while time is left, and
reports the per-layer metrics instead.

Prints each metric by name with its unit, writes the full record (machine,
seed, op-time tail, certificate metrics, failures) to
.bench_out/result-<workload>-seed<seed>-trace<trace>.json, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}.  Exits non-zero,
without that line, when the program cannot be set up or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 5  # set-ups per run; setup_s is their median
RUN_LIMIT_S = 170.0  # the run of one workload must end within this
END_TO_END = [("setup_s", "s"), ("op_p50_s", "s"), ("peak_rss_mb", "MB")]
UNITS = {**dict(END_TO_END), **dict(PER_LAYER), "op_tail_s": "s", "op_tail_percentile": "%",
         "op_tail_samples": "count",
         "failed_ops_frac": "ratio", "cert_k_max": "1", "cert_rho_max": "1",
         "cert_delta_alpha_gmean": "1", "cert_delta_x_gmean": "1"}


class WorkerError(RuntimeError):
    pass


def start_worker(args, workload, tmp, out_dir, deadline, setup_only):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", tmp, "--out", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, TMPDIR=tmp)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerError(f"{workload}: worker exceeded the run's time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload}: worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def gmean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def summarize(report, setups) -> dict:
    """The full record of one run: every end-to-end number, gated or not."""
    ops = sorted(report["op_s"])
    e2e = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
        "failed_ops_frac": report["failed"] / report["attempted"],
    }
    if ops:  # a traced run may have no untraced op
        e2e["op_p50_s"] = statistics.median(ops)
    if len(ops) >= 11:
        # the highest percentile with at least ten ops beyond it
        e2e["op_tail_s"] = ops[len(ops) - 11]
        e2e["op_tail_percentile"] = 100.0 * (len(ops) - 10) / len(ops)
        e2e["op_tail_samples"] = len(ops)
    certs = report["certificates"]
    if certs:
        e2e["cert_k_max"] = max(c["k"] for c in certs)
        if all("rho" in c for c in certs):
            e2e["cert_rho_max"] = max(c["rho"] for c in certs)
        e2e["cert_delta_alpha_gmean"] = gmean([c["delta_alpha"] for c in certs])
        e2e["cert_delta_x_gmean"] = gmean([c["delta_x"] for c in certs])
    return {
        "workload": report["workload"], "seed": report["seed"], "trace": report["trace"],
        "ops": len(ops) + len(report["traced_op_s"]), "setup_samples": setups,
        "op_samples": report["op_s"], "traced_op_samples": report["traced_op_s"],
        "end_to_end": e2e, "per_layer": report.get("per_layer"),
        "attempted": report["attempted"], "failed": report["failed"],
        "failures": report["failures"], "machine": report["machine"],
        "spans_file": report.get("spans_file"),
        "trace_overhead_method": report.get("trace_overhead_method"),
    }


def run_workload(args, name, out_dir, tmp, deadline):
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(start_worker(args, name, tmp, out_dir, deadline, True)["setup_s"])
    report = start_worker(args, name, tmp, out_dir, deadline, False)
    setups.append(report["setup_s"])
    record = summarize(report, setups)
    path = os.path.join(out_dir, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        metrics = {m: {"value": report["per_layer"][m], "unit": u} for m, u in PER_LAYER}
    else:
        metrics = {m: {"value": record["end_to_end"][m], "unit": u} for m, u in END_TO_END}
    return record, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "okvalid", "__init__.py")):
        print(f"error: no okvalid sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".bench_out")
    tmp = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            record, wl_metrics = run_workload(args, name, out_dir, tmp, deadline)
            attempted += record["attempted"]
            failed += record["failed"]
            shown = {**record["end_to_end"], **(record["per_layer"] or {})}
            for key, value in shown.items():
                print(f"{name:12s} {key:44s} {value!r} {UNITS[key]}")
            for key, val in wl_metrics.items():
                metrics[key if len(names) == 1 else f"{name}.{key}"] = val
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
