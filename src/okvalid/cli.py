"""Command-line front end: solve, validate, check, sweep, render, walk, constants.

Exit codes: 0 success/valid, 1 usage or file errors, 2 solver failure,
3 certification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .cift import (
    TOOL_VERSION,
    feasible_dx_range,
    solution_failures,
    validate,
    validations,
    verify_certificate,
)
from .embeddings import cmbar_bytes, equiv_factor, recompute_cmbar, table_constants
from .files import (
    FileFormatError,
    file_sha256,
    read_certificate,
    read_solution,
    write_certificate,
    write_solution,
)
from .newton import (
    NewtonError,
    SolveOptions,
    check_truncation_memory,
    check_walk,
    newton_solve,
    parameter_walk,
    parse_seed,
)
from .operator import PARAMETERS, ModelParams, memory_shortfall
from .series import evaluate_grid, grid_bytes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_CERT = 3

_DEFAULT_N = {1: 128, 2: 28, 3: 12}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _model_from_args(args) -> ModelParams:
    f_coeffs = tuple(float(c) for c in args.f.split(","))
    return ModelParams(lam=args.lam, sigma=args.sigma, mu=args.mu, f_coeffs=f_coeffs)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_constants(args) -> int:
    if args.ncut < 2:
        return _usage_error("--ncut must be >= 2")
    dims = [args.dim] if args.dim else [1, 2, 3]
    # one dimension's sum is live at a time
    need = max(cmbar_bytes(d, args.ncut) for d in dims)
    short = memory_shortfall(need, f"--ncut {args.ncut}", "lattice sum of cm_bar")
    if short:
        return _usage_error(short)
    # the sums take a few ns per point of the ncut^d box: 10^10 take a minute or two
    if args.ncut ** max(dims) > 10**10:
        return _usage_error(f"--ncut {args.ncut} sums {args.ncut}^{max(dims)} lattice points, more than 10^10")
    out = {"ncut": args.ncut, "dims": {}}
    for d in dims:
        consts = table_constants(d)
        recomputed = recompute_cmbar(d, args.ncut)
        ef = equiv_factor()
        out["dims"][str(d)] = {
            "cm": consts.cm,
            "cm_bar": consts.cm_bar,
            "cb": consts.cb,
            "cm_bar_recomputed": {"lo": recomputed.lo, "hi": recomputed.hi},
            "equiv_factor": {"lo": ef.lo, "hi": ef.hi},
        }
    print(json.dumps(out, indent=1))
    return EXIT_OK


def cmd_solve(args) -> int:
    n = args.n if args.n is not None else _DEFAULT_N[args.dim]
    try:
        try:
            opts = SolveOptions(n=n, max_iter=args.max_iter, tol_residual=args.tol)
            p = _model_from_args(args)
            check_truncation_memory(args.dim, n)  # before the n^d seed is built
            seed = parse_seed(args.seed, args.dim, n)
        except ValueError as exc:
            return _usage_error(str(exc))
        result = newton_solve(p, seed, opts)
    except NewtonError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    write_solution(
        args.out, p, result.solution, result.residual_full,
        meta={
            "residual_projected": result.residual_proj,
            "iterations": result.iterations,
            "seed": args.seed,
            "n": n,
        },
    )
    print(
        f"converged in {result.iterations} iterations; projected residual "
        f"{result.residual_proj:.3e}, full residual {result.residual_full:.3e}; "
        f"wrote {args.out}"
    )
    return EXIT_OK


def _print_certificate(cert) -> None:
    print(f"{'param':<8}{'K':>12}{'N':>6}{'rho':>12}{'delta_alpha':>14}{'delta_x':>12}")
    k = f"{cert.k:.4f}" if cert.k is not None else "-"
    rho = f"{cert.rho:.3e}" if cert.rho is not None else "-"
    da = f"{cert.delta_alpha:.4e}" if cert.delta_alpha is not None else "-"
    dx = f"{cert.delta_x:.4e}" if cert.delta_x is not None else "-"
    n = cert.n if cert.n is not None else "-"
    print(f"{cert.which:<8}{k:>12}{n:>6}{rho:>12}{da:>14}{dx:>12}")
    if cert.valid:
        extra = " (point validation only)" if cert.point_only else ""
        print(f"certificate VALID (tau={cert.tau:.4f}, {cert.rounds} rounds){extra}")
    else:
        print(f"certificate INVALID at stage {cert.stage!r}: {cert.reason}")


def cmd_validate(args) -> int:
    if args.n is not None and args.n < 2:
        return _usage_error("truncation must be >= 2")
    for flag, value in (("du", args.du), ("dp", args.dp)):
        if value is not None and not (math.isfinite(value) and value > 0):
            return _usage_error(f"--{flag} must be finite and positive")
    if args.at_alpha is not None and not (math.isfinite(args.at_alpha) and args.at_alpha >= 0):
        return _usage_error("--at-alpha must be finite and nonnegative")
    p, u, _meta = read_solution(args.infile)
    sha = file_sha256(args.infile)
    cert = validate(p, u, args.param, n=args.n, du=args.du, dp=args.dp)
    out = args.out or str(Path(args.infile).with_suffix(f".{args.param}.cert.json"))
    write_certificate(out, cert, sha)
    _print_certificate(cert)
    if args.at_alpha is not None and cert.valid:
        rng = feasible_dx_range(
            cert.k, cert.rho, cert.l1, cert.l2, cert.l3, cert.l4,
            cert.ell_x, args.at_alpha,
        )
        if rng is None:
            print(f"delta_alpha={args.at_alpha} is not feasible")
        else:
            print(f"at delta_alpha={args.at_alpha}: feasible delta_x in [{rng[0]}, {rng[1]}]")
    print(f"wrote {out}")
    return EXIT_OK if cert.valid else EXIT_CERT


def cmd_check(args) -> int:
    if args.deep and not args.solution:
        return _usage_error("--deep needs --solution")
    cert, sha = read_certificate(args.cert)
    if args.solution:
        if sha is None:
            print("certificate records no solution hash: cannot bind it to the solution")
            return EXIT_CERT
        if file_sha256(args.solution) != sha:
            print("solution file hash mismatch: certificate is stale")
            return EXIT_CERT
    ok, failures = verify_certificate(cert)
    if ok and args.solution:
        p, u, _meta = read_solution(args.solution)
        failures = solution_failures(cert, p, u, args.deep)
        ok = not failures
    if ok:
        bound = " and bound to the solution" if args.solution else ""
        bound += ", K_N recomputed" if args.deep else ""
        print(f"certificate inequalities verified{bound}")
        return EXIT_OK
    for f in failures:
        print(f"FAIL: {f}")
    return EXIT_CERT


def cmd_sweep(args) -> int:
    p, u, _meta = read_solution(args.infile)
    try:
        n_list = [int(s) for s in args.nlist.split(",") if s.strip()]
    except ValueError:
        return _usage_error("--Nlist must be a comma-separated list of integers")
    if not n_list:
        return _usage_error("empty --Nlist")
    if min(n_list) < 2:
        return _usage_error("truncation must be >= 2")

    rows = [["N", "K_N", "tau", "K", "delta_alpha", "delta_x", "wall_ms", "status"]]
    t0 = time.perf_counter()
    # the first row also pays for the work the truncations share
    for n, cert in zip(n_list, validations(p, u, args.param, n_list)):
        t1 = time.perf_counter()
        ms, t0 = 1000.0 * (t1 - t0), t1
        if cert.valid:
            rows.append([
                n, cert.kn, cert.tau, cert.k, cert.delta_alpha, cert.delta_x,
                round(ms, 3), "ok",
            ])
        else:
            rows.append([n, "", "", "", "", "", round(ms, 3), f"failed:{cert.stage}"])
    sink = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(sink)
        writer.writerows(rows)
    finally:
        if args.out:
            sink.close()
            print(f"wrote {args.out}")
    return EXIT_OK


def cmd_render(args) -> int:
    if args.grid < 1:
        return _usage_error("--grid must be >= 1")
    _p, u, _meta = read_solution(args.infile)
    short = memory_shortfall(grid_bytes(u.extent, args.grid), f"--grid {args.grid}",
                             f"{u.dim}-d grid of values")
    if short:
        return _usage_error(short)
    pts = np.linspace(0.0, 1.0, args.grid)
    vals = evaluate_grid(u, [pts] * u.dim)
    out = args.out or str(Path(args.infile).with_suffix(".render.csv"))
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "z"][: u.dim] + ["u"])
        for idx in np.ndindex(vals.shape):
            writer.writerow([pts[i] for i in idx] + [vals[idx]])
    print(f"wrote {out}")
    return EXIT_OK


def cmd_walk(args) -> int:
    if args.count < 0:
        return _usage_error("--count must be >= 0")
    p, u, meta = read_solution(args.infile)
    n = args.n if args.n is not None else max(u.extent)
    try:
        opts = SolveOptions(n=n, max_iter=args.max_iter, tol_residual=args.tol)
        check_walk(args.param, args.step)
    except ValueError as exc:
        return _usage_error(str(exc))
    try:
        steps = parameter_walk(p, u, args.param, args.step, args.count, opts)
    except NewtonError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    paths = []
    for i, (pi, res) in enumerate(steps):
        path = f"{args.out_prefix}{i:03d}.json"
        write_solution(
            path, pi, res.solution, res.residual_full,
            meta={
                "residual_projected": res.residual_proj,
                "iterations": res.iterations,
                "walk_step": i,
                "walk_param": args.param,
            },
        )
        paths.append(path)
    print(f"wrote {len(paths)} solutions: {paths[0]} .. {paths[-1]}")
    if len(steps) < args.count + 1:
        print(f"walk stopped early after {len(steps)} of {args.count + 1} solves")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> _Parser:
    # parse_args keeps no state in the parser, so one serves every call of main
    parser = _Parser(prog="okvalid", description=__doc__)
    parser.add_argument("--version", action="version", version=f"okvalid {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("constants", help="print embedding constants with enclosures")
    c.add_argument("--dim", type=int, choices=(1, 2, 3))
    c.add_argument("--ncut", type=int, default=1000)
    c.set_defaults(func=cmd_constants)

    def add_model_flags(sp):
        sp.add_argument("--lambda", dest="lam", type=float, required=True)
        sp.add_argument("--sigma", type=float, default=0.0)
        sp.add_argument("--mu", type=float, default=0.0)
        sp.add_argument("--f", default="0,1,0,-1",
                        help="polynomial coefficients of f, constant first")

    def add_solver_flags(sp):
        sp.add_argument("--tol", type=float, default=1e-10,
                        help="projected-residual tolerance")
        sp.add_argument("--max-iter", type=int, default=60)

    s = sub.add_parser("solve", help="Newton-solve for an approximate equilibrium")
    s.add_argument("--dim", type=int, choices=(1, 2, 3), required=True)
    s.add_argument("--N", dest="n", type=int)
    add_model_flags(s)
    s.add_argument("--seed", default="zero",
                   help='"zero" or "mode:k1[,k2[,k3]][,amplitude]"')
    s.add_argument("--out", default="solution.json")
    add_solver_flags(s)
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("validate", help="emit an existence/uniqueness certificate")
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--param", choices=PARAMETERS, required=True)
    v.add_argument("--N", dest="n", type=int)
    v.add_argument("--du", type=float, help="pin the solution box radius")
    v.add_argument("--dp", type=float, help="pin the parameter box radius")
    v.add_argument("--at-alpha", type=float,
                   help="also report the feasible delta_x range at this radius")
    v.add_argument("--out")
    v.set_defaults(func=cmd_validate)

    k = sub.add_parser("check", help="re-verify a certificate's inequalities")
    k.add_argument("--cert", required=True)
    k.add_argument("--solution", help="also bind the certificate to this solution file: "
                   "its hash, parameters, rho, q_sup, q_h2, l1..l4 and tau")
    k.add_argument("--deep", action="store_true",
                   help="with --solution, also recompute K_N at the stored truncation")
    k.set_defaults(func=cmd_check)

    w = sub.add_parser("sweep", help="K-vs-N tradeoff table (CSV)")
    w.add_argument("--in", dest="infile", required=True)
    w.add_argument("--param", choices=PARAMETERS, required=True)
    w.add_argument("--Nlist", dest="nlist", required=True)
    w.add_argument("--out")
    w.set_defaults(func=cmd_sweep)

    r = sub.add_parser("render", help="sample a solution on a grid (CSV)")
    r.add_argument("--in", dest="infile", required=True)
    r.add_argument("--grid", type=int, default=64)
    r.add_argument("--out")
    r.set_defaults(func=cmd_render)

    g = sub.add_parser("walk", help="natural-parameter stepping from a solution")
    g.add_argument("--in", dest="infile", required=True)
    g.add_argument("--param", choices=PARAMETERS, required=True)
    g.add_argument("--step", type=float, required=True)
    g.add_argument("--count", type=int, default=5)
    g.add_argument("--N", dest="n", type=int)
    g.add_argument("--out-prefix", default="walk_")
    add_solver_flags(g)
    g.set_defaults(func=cmd_walk)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (FileFormatError, OSError) as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
