"""Record the reference outputs of the benchmark's workloads.

    python3 bench/record_reference.py

Runs one operation of every workload from the program's own, unperturbed
initial guess and stores what the output check compares against in
``data/reference.json``.  Run it only to re-anchor the references on purpose:
the check exists to notice when the program's outputs move.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def write(name, payload):
    with open(os.path.join(workloads.DATA, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def record_outputs():
    ref = {}
    tmp = os.path.join(os.path.dirname(HERE), ".bench_out", "record")
    os.makedirs(tmp, exist_ok=True)
    try:
        for name, wl in workloads.WORKLOADS.items():
            st = wl.setup(None, tmp)
            outs = [wl.op(st, i) for i in range(wl.cycle)]
            if name == "validate-2d":
                ref[name] = {o["which"]: workloads.cert_quantities(o["cert"]) for o in outs}
            elif name == "walk-2d":
                ref[name] = {"steps": [
                    {"lambda": p.lam, "sup": workloads.grid_sup(res.solution.mid()),
                     "residual_full": res.residual_full}
                    for p, res in outs[0]
                ]}
            else:
                ref[name] = {"rows": [
                    {"n": int(r["N"]), "k": float(r["K"]), "kn": float(r["K_N"]),
                     "tau": float(r["tau"]), "delta_alpha": float(r["delta_alpha"]),
                     "delta_x": float(r["delta_x"])}
                    for r in outs[0]["rows"]
                ]}
            for out in outs:
                failures = wl.check(st, out, ref[name])
                if failures:
                    raise SystemExit(f"{name}: reference run fails its own check: {failures}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    write("reference.json", ref)


if __name__ == "__main__":
    record_outputs()
