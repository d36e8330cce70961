"""The benchmark's workloads: inputs made from a seed, one operation, and its output check.

Each workload starts from a canonical equilibrium, solved by Newton from the
program's own seed description (``newton.parse_seed``), as in acceptance
criteria 08 and 09.  The workload seed only perturbs that initial guess: its
amplitude by a fixed relative step, and a fixed-size jitter on the low modes
of the seed mode's parity class.  The solver converges to the same
equilibrium for every seed, so the certificates do not depend on it.  The
program receives only the generated guess.

Every operation is checked against ``data/reference.json`` (recorded at the
commit that introduced the benchmark).  Certificate quantities may be sharper
than the reference, but not worse than it by more than ``RTOL``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

# The starting equilibria: (lambda, sigma, dim, N, program seed, Newton tolerance).
CANONICAL = {
    "2d": (75.0, 6.0, 2, 28, "mode:1,1,0.5", 1e-9),
    "sweep1d": (50.0, 2.0, 1, 64, "mode:1,0.6", 1e-10),
}

# Size of the seeded perturbation of the program's initial guess: its
# amplitude is raised by a share between AMP_REL and 4 * AMP_REL, and a random direction of norm
# JITTER_REL * ||guess|| is added on the modes below LOW_MODES whose indices
# have the seed mode's parity in every axis.  Those are the modes the
# equilibrium populates, so the guess keeps its symmetry.  The sizes are
# chosen so that Newton takes as many iterations as from the program's guess
# for every seed: a lower 2-d amplitude, or a 1-d amplitude raised by more
# than about 1 %, would save one.
AMP_REL = 2e-3
JITTER_REL = 2e-3
LOW_MODES = 4

# Output check.  A certificate value may be worse than its reference by at
# most RTOL (relative); a sharper value passes.  Across seeds the values move
# by less than 1e-7 (relative).
RTOL = 1e-4
LOWER_BETTER = ("k", "kn", "tau", "rho")
HIGHER_BETTER = ("delta_alpha", "delta_x")
# walk-2d: the grid sup norm identifies the equilibrium; the full residual is
# floored by the truncation and moves by about 0.3 % with the last Newton step.
RTOL_SUP = 1e-6
RTOL_RESIDUAL = 2e-2
# sweep-1d, as acceptance criterion 09: K non-increasing within 5 %, and a
# plateau (within 2 %) on the last doubling.
SWEEP_MONOTONE = 0.05
SWEEP_PLATEAU = 0.02
SWEEP_NLIST = (24, 32, 48, 64, 96, 128, 256)


def load_json(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return json.load(fh)


def perturbed_guess(guess: np.ndarray, seed: int | None) -> np.ndarray:
    """The Newton initial guess for a workload seed (None: the program's own guess)."""
    if seed is None:
        return guess.copy()
    rng = np.random.default_rng(seed)
    out = guess * (1.0 + AMP_REL * rng.uniform(1.0, 4.0))
    parity = np.argwhere(guess != 0.0)[0] % 2
    low = [k for k in np.ndindex(*(min(LOW_MODES, n) for n in guess.shape))
           if np.array_equal(np.array(k) % 2, parity)]
    direction = rng.standard_normal(len(low))
    direction *= JITTER_REL * np.linalg.norm(guess) / np.linalg.norm(direction)
    for k, v in zip(low, direction):
        out[k] += v
    return out


def solve_options(name: str):
    from okvalid import newton

    _lam, _sigma, _dim, n, _seed, tol = CANONICAL[name]
    return newton.SolveOptions(n=n, tol_residual=tol)


def solve_start(name: str, seed: int | None):
    """Newton-solve the canonical equilibrium `name` from its seeded guess."""
    from okvalid import newton, operator

    lam, sigma, dim, n, program_seed, _tol = CANONICAL[name]
    p = operator.ModelParams(lam=lam, sigma=sigma, mu=0.0)
    guess = perturbed_guess(newton.parse_seed(program_seed, dim, n), seed)
    return p, newton.newton_solve(p, guess, solve_options(name))


def grid_sup(coeffs: np.ndarray, points: int = 129) -> float:
    """max |u| on the uniform tensor grid, evaluated independently of the program."""
    x = np.linspace(0.0, 1.0, points)
    vals = coeffs
    for axis in range(coeffs.ndim):
        k = np.arange(coeffs.shape[axis])
        basis = np.where(k == 0, 1.0, math.sqrt(2.0)) * np.cos(np.outer(x, k) * math.pi)
        vals = np.tensordot(basis, vals, axes=(1, axis))
    return float(np.max(np.abs(vals)))


def check_value(name: str, value, ref: float, rtol: float = RTOL):
    """None if `value` is within tolerance of `ref`, else a failure message."""
    if value is None or not math.isfinite(value):
        return f"{name}={value} (reference {ref!r})"
    if name in HIGHER_BETTER:
        worse = value < ref * (1.0 - rtol)
    else:
        worse = value > ref * (1.0 + rtol)
    return f"{name}={value!r} worse than reference {ref!r}" if worse else None


def cert_quantities(cert) -> dict:
    return {name: getattr(cert, name) for name in LOWER_BETTER + HIGHER_BETTER}


def check_certificate(cert, ref: dict) -> list:
    if not cert.valid:
        return [f"invalid certificate (stage={cert.stage}): {cert.reason}"]
    msgs = [check_value(name, getattr(cert, name), ref[name]) for name in ref]
    return [m for m in msgs if m]


def validate_roundtrip(p, u, which, n, path):
    """validate -> write_certificate -> read_certificate -> verify_certificate."""
    from okvalid import cift, files

    cert = cift.validate(p, u, which, n=n)
    files.write_certificate(path, cert, None)
    back, _sha = files.read_certificate(path)
    ok, failures = cift.verify_certificate(back)
    return {"which": which, "cert": cert, "back": back, "verified": ok, "failures": failures}


def check_roundtrip(out, ref: dict) -> list:
    msgs = check_certificate(out["cert"], ref)
    if not out["verified"]:
        msgs.append("verify_certificate failed: " + "; ".join(out["failures"]))
    for name in ref:
        if getattr(out["back"], name) != getattr(out["cert"], name):
            msgs.append(f"{name} changed in the write/read round trip")
    return msgs


class Validate2d:
    name = "validate-2d"
    why = ("validate lambda on the canonical 2-d solution at N=28 (783 modes), with "
           "write/read/verify: dominated by dense interval matrix products")
    cycle = 1
    which = "lambda"
    n = 28

    def setup(self, seed, tmp):
        p, res = solve_start("2d", seed)
        return {"p": p, "u": res.solution, "path": os.path.join(tmp, "cert.json")}

    def op(self, st, i):
        return validate_roundtrip(st["p"], st["u"], self.which, self.n, st["path"])

    def check(self, st, out, ref):
        return check_roundtrip(out, ref[out["which"]])

    def certificates(self, out):
        return [cert_quantities(out["cert"])] if out["cert"].valid else []


class Walk2d:
    name = "walk-2d"
    why = ("one Newton solve inside parameter_walk from the 2-d solution, lambda +0.5: "
           "float path only, no interval matrix products")
    cycle = 1
    step = 0.5

    def setup(self, seed, tmp):
        p, res = solve_start("2d", seed)
        return {"p": p, "u": res.solution, "opts": solve_options("2d")}

    def op(self, st, i):
        from okvalid import newton

        return newton.parameter_walk(st["p"], st["u"], "lambda", self.step, 1, st["opts"])

    def check(self, st, steps, ref):
        refs = ref["steps"]
        if len(steps) != len(refs):
            return [f"{len(steps)} walk steps, expected {len(refs)}"]
        msgs = []
        for j, ((p, res), r) in enumerate(zip(steps, refs)):
            sup = grid_sup(res.solution.mid())
            step = [
                p.lam != r["lambda"] and f"lambda {p.lam}, expected {r['lambda']}",
                not res.residual_proj <= st["opts"].tol_residual
                and f"projected residual {res.residual_proj} above tolerance",
                not abs(sup - r["sup"]) <= RTOL_SUP * r["sup"]
                and f"sup norm {sup!r}, reference {r['sup']!r}",
                check_value("residual_full", res.residual_full, r["residual_full"],
                            RTOL_RESIDUAL),
            ]
            msgs += [f"step {j}: {m}" for m in step if m]
        return msgs

    def certificates(self, out):
        return []


class Sweep1d:
    name = "sweep-1d"
    why = ("okvalid sweep over N=24..256 on the criterion-09 solution: the only "
           "workload through the CLI and its thread pool")
    cycle = 1

    def setup(self, seed, tmp):
        from okvalid import files

        p, res = solve_start("sweep1d", seed)
        sol = os.path.join(tmp, "sol.json")
        files.write_solution(sol, p, res.solution, res.residual_full)
        return {"sol": sol, "csv": os.path.join(tmp, "sweep.csv")}

    def op(self, st, i):
        from okvalid import cli

        argv = ["sweep", "--in", st["sol"], "--param", "lambda",
                "--Nlist", ",".join(str(n) for n in SWEEP_NLIST), "--out", st["csv"]]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        with open(st["csv"], newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        return {"code": code, "rows": rows}

    def check(self, st, out, ref):
        if out["code"] != 0:
            return [f"okvalid sweep exited with {out['code']}"]
        refs = ref["rows"]
        rows = out["rows"]
        if [int(r["N"]) for r in rows] != [r["n"] for r in refs]:
            return [f"sweep rows {[r['N'] for r in rows]} differ from the reference"]
        msgs = []
        for row, r in zip(rows, refs):
            if row["status"] != "ok":
                msgs.append(f"N={r['n']}: status {row['status']}")
                continue
            for col, name in (("K", "k"), ("K_N", "kn"), ("tau", "tau"),
                              ("delta_alpha", "delta_alpha"), ("delta_x", "delta_x")):
                m = check_value(name, float(row[col]), r[name])
                if m:
                    msgs.append(f"N={r['n']}: {m}")
        if not msgs:
            ks = [float(r["K"]) for r in rows]
            if any(k2 > (1.0 + SWEEP_MONOTONE) * k1 for k1, k2 in zip(ks, ks[1:])):
                msgs.append(f"K column not non-increasing within 5 %: {ks}")
            kmap = dict(zip(SWEEP_NLIST, ks))
            if abs(kmap[128] - kmap[256]) / kmap[128] >= SWEEP_PLATEAU:
                msgs.append(f"no K plateau from N=128 to N=256: {kmap[128]} vs {kmap[256]}")
        return msgs

    def certificates(self, out):
        return [
            {"k": float(r["K"]), "delta_alpha": float(r["delta_alpha"]),
             "delta_x": float(r["delta_x"])}
            for r in out["rows"] if r["status"] == "ok"
        ]


WORKLOADS = {w.name: w for w in (Validate2d(), Walk2d(), Sweep1d())}
