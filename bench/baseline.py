"""Run the benchmark over many seeds, check its steadiness, and record a baseline.

    python3 bench/baseline.py --seeds 1-10 --sets 2 --write bench/baseline.json
    python3 bench/baseline.py --workloads sweep-1d --seeds 1-5

For every set and workload, runs bench/run.py once per seed (the second set
shifts the seeds past the first set's) with ``--trace 0`` and the run length
from BENCHMARK.json, then once with ``--trace 1`` and the first seed (counts
must repeat for a given seed).  For each end-to-end metric it reports the median, the
quartiles and the spread (interquartile distance over the median) and
compares the spread with the metric's bound; with two sets it also checks
that the two medians differ, either way, by no more than the bound, and that
per-layer counts repeat exactly.  Exits 1 if any of these checks fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_UNITS = ("count", "bytes")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, ".bench_out", f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                     if not trace or k.startswith("trace.")), file=sys.stderr)
    return result, record


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)  # med is the median
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}


def run_set(spec, workloads, seeds, trace_seed):
    out = {}
    for w in workloads:
        entry = out[w] = {"runs": [], "correct": True}
        for seed in seeds:
            result, record = run_once(spec, w, seed, 0)
            entry["correct"] &= result["correct"] and result["failed"] == 0
            entry["runs"].append(record)
        result, record = run_once(spec, w, trace_seed, 1)
        out[w]["correct"] &= result["correct"]
        out[w]["per_layer"] = record["per_layer"]
        out[w]["machine"] = record["machine"]
    return out


def summarize(spec, one_set):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, problems = {}, []
    for w, entry in one_set.items():
        runs = entry["runs"]
        e2e = {}
        for name in runs[0]["end_to_end"]:
            values = [r["end_to_end"][name] for r in runs if name in r["end_to_end"]]
            if len(values) == len(runs) >= 2:
                e2e[name] = stats(values)
                if name in bounds:
                    e2e[name]["bound"] = bounds[name]
                    if e2e[name]["spread"] > bounds[name]:
                        problems.append(f"{w} {name}: spread {e2e[name]['spread']:.4f} "
                                        f"above bound {bounds[name]}")
        if not entry["correct"]:
            problems.append(f"{w}: an operation failed its output check")
        summary[w] = {"end_to_end": e2e, "per_layer": entry["per_layer"],
                      "ops_per_run": [r["ops"] for r in runs],
                      "seeds": [r["seed"] for r in runs], "machine": entry["machine"]}
    return summary, problems


def compare_sets(spec, first, second):
    problems = []
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for m in spec["end_to_end"]:
        for w in first:
            a = first[w]["end_to_end"][m["name"]]["median"]
            b = second[w]["end_to_end"][m["name"]]["median"]
            # the sets run the same code, so a move either way is noise
            if max(a, b) > min(a, b) * (1.0 + m["bound"]):
                problems.append(f"{w} {m['name']}: medians {a:.6g} and {b:.6g} differ "
                                f"by more than {m['bound']}")
    for w in first:
        for name, unit in units.items():
            if unit in COUNT_UNITS and first[w]["per_layer"][name] != second[w]["per_layer"][name]:
                problems.append(f"{w} {name}: count {first[w]['per_layer'][name]} then "
                                f"{second[w]['per_layer'][name]}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--write", help="write the baseline JSON here")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w for w in args.workloads.split(",") if w] or [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)

    sets, problems = [], []
    for k in range(args.sets):
        # each set takes fresh seeds, so the sets also show seed independence
        set_seeds = [s + k * len(seeds) for s in seeds]
        summary, probs = summarize(spec, run_set(spec, workloads, set_seeds, seeds[0]))
        sets.append(summary)
        problems += probs
    if len(sets) == 2:
        problems += compare_sets(spec, sets[0], sets[1])

    for k, summary in enumerate(sets):
        for w, entry in summary.items():
            for name, s in entry["end_to_end"].items():
                bound = s.get("bound")
                print(f"set {k + 1} {w:12s} {name:24s} median {s['median']:.6g} "
                      f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}"
                      + (f" (bound {bound}, spread/bound {s['spread'] / bound:.2f})"
                         if bound else ""))
    for p in problems:
        print("PROBLEM:", p)
    if args.write:
        record = {
            "claim": None,
            "what": "medians over seeds of bench/run.py at the commit that added the benchmark",
            "run_seconds": spec["run_seconds"],
            "sets": sets,
            "problems": problems,
        }
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
