"""Print the canonical certificates' and Newton solves' bits, to compare two checkouts.

Every Certificate field but provenance (a timestamp), with each float
written by float.hex, as one JSON document, for:

- criterion 07: the 1-d equilibrium (150, 6, 0) validated in lambda, sigma
  and mu at the automatic truncation, and in lambda from a rule-of-thumb
  rung patched to 16, which escalates through more than one pass;
- criterion 08: the 2-d equilibrium (75, 6, 0) validated in lambda at N=28
  and at the automatic truncation;
- criterion 11: the 3-d equilibrium (40, 3, 0) validated in lambda at N=12;
- the 2-d sweep in sigma over N = 40,12,28,20,28;
- the criterion-09 sweep, 1-d (50, 2, 0), in lambda, sigma and mu over
  N = 24..256;
- the criterion-09 solution in lambda over N = 96, 100 with the available
  memory read as the K_N charge of N=100 alone (memory-tight);
- the benchmark's 2-d solution from its seed 1 (bench/workloads.py), which
  is off the axis swap by float debris, validated in lambda at N=28.

Under "solution_failures", cift.solution_failures(cert, p, u, deep=True)
for the criterion-08 certificate at N=28 and the criterion-11 certificate,
which recomputes their bounds and K_N from the solution (check --deep);
both lists are empty.

Under "newton", each Newton solve's solution array (its sha256), iteration
count and projected and full residual norms (float.hex), for the solves of
criteria 07, 08 and 11 and, for the benchmark's seeds 1 to 3, the 2-d start
(workloads.solve_start) and the two solves of its walk-2d operation
(parameter_walk in lambda by 0.5, one step).

The solutions of criteria 09 and 11 go through a solution file, as there.
Run from the root of a checkout, and compare the outputs of two with cmp:

    PYTHONPATH=src python tests/certbits.py > bits.json
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import pathlib
import sys
import tempfile
from unittest import mock

from okvalid import inverse, operator
from okvalid.cift import Certificate, solution_bounds, solution_failures, validate, validations
from okvalid.cli import main
from okvalid.files import read_solution
from okvalid.newton import SolveOptions, newton_solve, parameter_walk, parse_seed
from okvalid.operator import PARAMETERS, ModelParams

SWEEP_1D = [24, 32, 48, 64, 96, 128, 256]
SWEEP_2D = [40, 12, 28, 20, 28]
BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def bits(value):
    """value with every float written by float.hex, a dataclass as a dict."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: bits(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def record(cert: Certificate) -> dict:
    """The certificate's fields but provenance."""
    out = bits(cert)
    del out["provenance"]
    return out


def solve_record(res) -> dict:
    """A Newton solve's bits: its solution's sha256, iterations and residuals."""
    return {"sha256": hashlib.sha256(res.solution.mid().tobytes()).hexdigest(),
            "iterations": res.iterations, "residual_proj": res.residual_proj.hex(),
            "residual_full": res.residual_full.hex()}


def solved_via_file(tmp: pathlib.Path, name: str, argv: list):
    """The model and solution that okvalid solve writes for argv."""
    path = tmp / f"{name}.json"
    with contextlib.redirect_stdout(io.StringIO()):  # its report names the temporary path
        code = main(["solve", *argv, "--out", str(path)])
    if code != 0:
        raise SystemExit(f"okvalid solve failed for {name}")
    return read_solution(path)[:2]


def dump() -> dict:
    out = {}
    newton = out["newton"] = {}
    p = ModelParams(lam=150.0, sigma=6.0, mu=0.0)
    res = newton_solve(p, parse_seed("mode:1", 1, 128), SolveOptions(n=128))
    newton["criterion_07"] = solve_record(res)
    u = res.solution
    out["criterion_07"] = {w: record(validate(p, u, w)) for w in PARAMETERS}
    with mock.patch.object(inverse, "rule_of_thumb_n", lambda q_h2: 16):
        out["criterion_07_rung_16"] = record(validate(p, u, "lambda"))

    p = ModelParams(lam=75.0, sigma=6.0, mu=0.0)
    res = newton_solve(p, parse_seed("mode:1,1,0.5", 2, 28), SolveOptions(n=28, tol_residual=1e-9))
    newton["criterion_08"] = solve_record(res)
    u = res.solution
    cert = validate(p, u, "lambda", n=28)
    out["criterion_08"] = {"N=28": record(cert), "auto": record(validate(p, u, "lambda"))}
    failures = out["solution_failures"] = {"criterion_08": solution_failures(cert, p, u, deep=True)}
    out["sweep_2d_sigma"] = [record(c) for c in validations(p, u, "sigma", SWEEP_2D)]

    sys.path.insert(0, str(BENCH))
    import workloads

    p, result = workloads.solve_start("2d", 1)
    out["bench_2d_seed_1"] = record(validate(p, result.solution, "lambda", n=28))
    for seed in (1, 2, 3):
        p, result = workloads.solve_start("2d", seed)
        walk = parameter_walk(p, result.solution, "lambda", workloads.Walk2d.step, 1,
                              workloads.solve_options("2d"))
        newton[f"walk_2d_seed_{seed}"] = [solve_record(r) for r in (result, *(r for _, r in walk))]
    p = ModelParams(lam=40.0, sigma=3.0, mu=0.0)
    newton["criterion_11"] = solve_record(
        newton_solve(p, parse_seed("mode:1,1,1,0.5", 3, 12), SolveOptions(n=12)))

    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        p, u = solved_via_file(tmp, "sol3d", ["--dim", "3", "--N", "12", "--lambda", "40",
                                              "--sigma", "3", "--seed", "mode:1,1,1,0.5"])
        cert = validate(p, u, "lambda", n=12)
        out["criterion_11"] = record(cert)
        failures["criterion_11"] = solution_failures(cert, p, u, deep=True)
        p, u = solved_via_file(tmp, "sweep_sol", ["--dim", "1", "--N", "64", "--lambda", "50",
                                                  "--sigma", "2", "--seed", "mode:1,0.6"])
        out["sweep_09"] = {w: [record(c) for c in validations(p, u, w, SWEEP_1D)]
                           for w in PARAMETERS}
        q = solution_bounds(p, u).lin.q
        avail = inverse.kn_stage_bytes(q, 100, operator.split_axes(q))
        with mock.patch.object(operator, "available_memory_bytes", lambda: avail):
            out["sweep_09_memory_tight"] = [record(c)
                                            for c in validations(p, u, "lambda", [96, 100])]
    return out


if __name__ == "__main__":
    json.dump(dump(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
