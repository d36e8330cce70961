import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import re
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from balls import single_mode
from okvalid import cift, cli
from okvalid.cli import main
from okvalid.files import (FileFormatError, file_sha256, read_certificate, read_solution,
                           write_certificate, write_solution)
from okvalid.intervals import IntervalDomainError
from okvalid.operator import ModelParams, count_text, residual_norm
from okvalid.series import CosineSeries


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def solution_file(workdir):
    """A nontrivial but cheap 1-d solution shared by the CLI tests."""
    path = workdir / "sol.json"
    code = main([
        "solve", "--dim", "1", "--N", "48", "--lambda", "50", "--sigma", "2",
        "--seed", "mode:1,0.6", "--out", str(path),
    ])
    assert code == 0
    return path


def test_solve_writes_file_with_crosschecked_residual(solution_file):
    p, u, meta = read_solution(solution_file)
    assert p.lam == 50.0 and p.sigma == 2.0
    rho = residual_norm(p, u).hi
    assert meta["residual_float"] <= 1e-10 or rho <= 1e2 * max(meta["residual_float"], 1e-300)
    assert rho <= 1e-8


@pytest.fixture(scope="module")
def trivial_file(workdir):
    """The zero 1-d solution that okvalid solve writes for the seed zero."""
    path = workdir / "trivial.json"
    code = main(["solve", "--dim", "1", "--lambda", "150", "--seed", "zero",
                 "--out", str(path)])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def lambda_cert(workdir, solution_file):
    """The certificate of solution_file in lambda that okvalid validate writes."""
    cert_path = workdir / "sol.lambda.cert.json"
    code = main(["validate", "--in", str(solution_file), "--param", "lambda",
                 "--out", str(cert_path)])
    assert code == 0
    return cert_path


def test_solve_zero_seed(trivial_file):
    _p, u, meta = read_solution(trivial_file)
    assert not u.mid().any()
    assert meta["residual_float"] == 0.0


def test_solve_missing_dim_usage_error(capsys):
    assert main(["solve", "--lambda", "10", "--out", "x.json"]) == 1


def test_solve_bad_seed(workdir):
    code = main(["solve", "--dim", "1", "--N", "16", "--lambda", "10",
                 "--seed", "mode:99", "--out", str(workdir / "bad.json")])
    assert code == 1


@pytest.mark.parametrize("flags", [
    ["--lambda", "nan"],
    ["--lambda", "-1"],
    ["--lambda", "10", "--f", "1,x"],
])
def test_solve_bad_model_usage_error(workdir, capsys, flags):
    code = main(["solve", "--dim", "1", "--N", "16", *flags,
                 "--out", str(workdir / "bad_model.json")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (workdir / "bad_model.json").exists()


@pytest.mark.parametrize("command,flags,message", [
    ("validate", ["--N", "0"], "truncation must be >= 2"),
    ("validate", ["--N", "1"], "truncation must be >= 2"),
    ("sweep", ["--Nlist", "1,24"], "truncation must be >= 2"),
    ("walk", ["--N", "1", "--step", "1"], "truncation must be >= 2"),
    ("walk", ["--step", "0"], "step must be finite and nonzero"),
    ("walk", ["--step", "nan"], "step must be finite and nonzero"),
    ("walk", ["--step", "inf"], "step must be finite and nonzero"),
    ("sweep", ["--Nlist", "24,x"], "--Nlist must be a comma-separated list of integers"),
    ("sweep", ["--Nlist", ","], "empty --Nlist"),
])
def test_bad_truncation_or_step_usage_error(workdir, solution_file, capsys, monkeypatch,
                                            command, flags, message):
    from okvalid import cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started on a usage error")

    monkeypatch.setattr(cli, "validate", no_work)
    monkeypatch.setattr(cli, "parameter_walk", no_work)
    out = workdir / f"usage_{command}"
    extra = {"validate": ["--param", "lambda", "--out", str(out)],
             "sweep": ["--param", "lambda", "--out", str(out)],
             "walk": ["--param", "lambda", "--out-prefix", str(out)]}[command]
    capsys.readouterr()
    code = main([command, "--in", str(solution_file), *extra, *flags])
    assert code == 1
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
    assert not list(workdir.glob(f"usage_{command}*"))


_VALIDATE = ["validate", "--in", "IN", "--param", "lambda", "--out", "OUT"]
_WALK = ["walk", "--in", "IN", "--param", "lambda", "--step", "1", "--out-prefix", "OUT"]
_SOLVE = ["solve", "--dim", "1", "--lambda", "10", "--out", "OUT"]


@pytest.mark.parametrize("argv,message", [
    (_VALIDATE + ["--du", "-1"], "--du must be finite and positive"),
    (_VALIDATE + ["--du", "inf"], "--du must be finite and positive"),
    (_VALIDATE + ["--dp", "nan"], "--dp must be finite and positive"),
    (_VALIDATE + ["--du", "0"], "--du must be finite and positive"),
    (_VALIDATE + ["--dp", "0"], "--dp must be finite and positive"),
    (_VALIDATE + ["--at-alpha", "nan"], "--at-alpha must be finite and nonnegative"),
    (_VALIDATE + ["--at-alpha=-1e-3"], "--at-alpha must be finite and nonnegative"),
    (["render", "--in", "IN", "--grid", "-1", "--out", "OUT"], "--grid must be >= 1"),
    (["constants", "--ncut", "1"], "--ncut must be >= 2"),
    (_WALK + ["--count", "-1"], "--count must be >= 0"),
    (_WALK + ["--N", "0"], "truncation must be >= 2"),
    (_SOLVE + ["--N", "0"], "truncation must be >= 2"),
    (_SOLVE + ["--max-iter", "-1"], "max_iter must be >= 0"),
])
def test_hostile_flag_usage_error(workdir, solution_file, capsys, monkeypatch, argv, message):
    # one error line and exit 1 before any solve or validation starts
    from okvalid import cli, newton

    def no_work(*args, **kwargs):
        raise AssertionError("work started on a usage error")

    for module, name in ((cli, "validate"), (cli, "newton_solve"), (newton, "newton_solve")):
        monkeypatch.setattr(module, name, no_work)
    out = workdir / "hostile_out"
    argv = [{"IN": str(solution_file), "OUT": str(out)}.get(a, a) for a in argv]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
    assert not list(workdir.glob("hostile_out*"))


def test_solver_failure_exit_code(workdir):
    code = main([
        "solve", "--dim", "1", "--N", "32", "--lambda", "150", "--sigma", "6",
        "--seed", "mode:1,0.5", "--max-iter", "0",
        "--out", str(workdir / "no.json"),
    ])
    assert code == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flags", [
    ["--lambda", "1e308"],
    ["--lambda", "1", "--f", "0,1e300,0,-1e300"],
])
def test_solve_overflow_fails_without_warnings(workdir, capsys, flags):
    capsys.readouterr()
    code = main(["solve", "--dim", "1", "--N", "16", "--seed", "mode:1", *flags,
                 "--out", str(workdir / "overflow.json")])
    assert code == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "solver failed: residual became non-finite at iteration 0"
    ]
    assert not (workdir / "overflow.json").exists()


@pytest.mark.parametrize("argv,n,m", [
    (["solve", "--dim", "2", "--N", "400", "--lambda", "75", "--seed", "mode:1,1", "--out"], 400, 159999),
    (["walk", "--in", "IN", "--param", "lambda", "--step", "1", "--N", "6000", "--out-prefix"], 6000, 5999),
])
def test_newton_memory_check_before_allocating(workdir, solution_file, capsys, monkeypatch, argv, n, m):
    from okvalid import newton, operator

    def no_jacobian(*args, **kwargs):
        raise AssertionError("Jacobian assembled beyond the memory check")

    monkeypatch.setattr(operator, "available_memory_bytes", lambda: 1e8)
    monkeypatch.setattr(newton, "galerkin_matrix_point", no_jacobian)
    argv = [str(solution_file) if a == "IN" else a for a in argv] + [str(workdir / "too_big")]
    capsys.readouterr()
    assert main(argv) == 2
    # the smallest block any step can assemble: the all-even class less the
    # origin (the solve is 2-d, the walk's solution file 1-d)
    d = 2 if argv[0] == "solve" else 1
    b = (n // 2) ** d - 1
    need = 8.0 * newton.NEWTON_WORK_ARRAYS * b * b
    assert capsys.readouterr().err.strip().splitlines() == [
        f"solver failed: truncation n={n} ({m} modes) needs about {need / 1e6:.0f} MB "
        f"for the Newton Jacobian block of {b} modes, 100 MB available"
    ]
    assert not list(workdir.glob("too_big*"))


def test_validate_and_check_roundtrip(solution_file, lambda_cert):
    cert_path = lambda_cert
    cert, sha = read_certificate(cert_path)
    assert cert.valid and sha
    assert main(["check", "--cert", str(cert_path)]) == 0
    assert main(["check", "--cert", str(cert_path), "--solution", str(solution_file)]) == 0


def test_validate_small_truncation_fails(workdir, solution_file):
    cert_path = workdir / "tiny.cert.json"
    code = main(["validate", "--in", str(solution_file), "--param", "lambda",
                 "--N", "6", "--out", str(cert_path)])
    assert code == 3
    cert, _ = read_certificate(cert_path)
    assert not cert.valid and cert.stage == "inverse_bound"


@pytest.mark.parametrize("field,value", [
    ("coeffs", float("nan")),
    ("coeffs", float("inf")),
    ("sigma", float("inf")),
    ("mu", float("nan")),
])
def test_validate_rejects_non_finite_input(workdir, solution_file, capsys, field, value):
    payload = json.loads(solution_file.read_text())
    if field == "coeffs":
        payload["coeffs"][1] = value
    else:
        payload["params"][field] = value
    bad = workdir / f"nonfinite_{field}_{value}.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["validate", "--in", str(bad), "--param", "lambda",
                 "--out", str(workdir / "nonfinite.cert.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: non-finite") and err.count("\n") == 1
    assert "Traceback" not in err


def test_validate_at_alpha_reports_the_feasible_range(workdir, solution_file, lambda_cert, capsys):
    # --at-alpha within the certified radius prints the feasible delta_x
    # range of the certificate's inequalities, and far beyond it says that
    # the radius is not feasible
    cert, _ = read_certificate(lambda_cert)
    out = workdir / "at_alpha.cert.json"
    for da in (cert.delta_alpha / 2, 1e6):
        rng = cift.RadiiInequalities.of(cert.k, cert.rho, cert.l1, cert.l2, cert.l3, cert.l4,
                                        cert.ell_x).dx_range(da)
        assert (rng is None) == (da == 1e6)
        want = (f"delta_alpha={da} is not feasible" if rng is None else
                f"at delta_alpha={da}: feasible delta_x in [{rng[0]}, {rng[1]}]")
        capsys.readouterr()
        assert main(["validate", "--in", str(solution_file), "--param", "lambda",
                     "--at-alpha", repr(da), "--out", str(out)]) == 0
        assert want in capsys.readouterr().out.splitlines()


def test_check_detects_tampering(workdir, lambda_cert):
    cert_path = lambda_cert
    payload = json.loads(cert_path.read_text())
    payload["delta_alpha"] *= 1.1
    bad = workdir / "tampered.cert.json"
    bad.write_text(json.dumps(payload))
    assert main(["check", "--cert", str(bad)]) == 3


@pytest.mark.parametrize("field,value", [
    ("k", float("nan")),
    ("rho", float("inf")),
    ("tau", float("-inf")),
    ("lambda", float("nan")),
])
def test_check_rejects_non_finite_certificate(workdir, lambda_cert, capsys, field, value):
    payload = json.loads(lambda_cert.read_text())
    if field == "lambda":
        payload["params"][field] = value
    else:
        payload[field] = value
    bad = workdir / f"nonfinite_{field}.cert.json"
    bad.write_text(json.dumps(payload))  # NaN / Infinity / -Infinity literals
    capsys.readouterr()
    code = main(["check", "--cert", str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: non-finite") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("kind,field,value", [
    ("certificate", "rho", "0.5"),
    ("certificate", "rho", [0.5]),
    ("certificate", "valid", "yes"),
    ("certificate", "which", "zeta"),
    ("certificate", "n", "12"),
    ("certificate", "kn", True),
    ("solution", "extent", [0]),
    ("solution", "extent", [48, 1, 1, 1]),
    ("solution", "dim", 2),
])
def test_hostile_file_usage_error(workdir, solution_file, lambda_cert, capsys, kind, field, value):
    # a field of the wrong type or shape is one error line and exit 1
    if kind == "certificate":
        payload = json.loads(lambda_cert.read_text())
    else:
        payload = json.loads(solution_file.read_text())
        if value == [0]:
            payload["coeffs"] = []
    payload[field] = value
    bad = workdir / f"hostile_{kind}_{field}.json"
    bad.write_text(json.dumps(payload))
    argv = (["check", "--cert", str(bad)] if kind == "certificate" else
            ["validate", "--in", str(bad), "--param", "lambda",
             "--out", str(workdir / "hostile.cert.json")])
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (workdir / "hostile.cert.json").exists()


def _set_coeff(payload, value):
    payload["coeffs"][1] = value


@pytest.mark.parametrize("change,message", [
    pytest.param(lambda pl: pl["params"].update(sigma=True), "sigma must be a number, not bool",
                 id="sigma a bool"),
    pytest.param(lambda pl: pl["params"].update({"lambda": "50"}),
                 "lambda must be a number, not str", id="lambda a string"),
    pytest.param(lambda pl: pl["params"].update(f_coeffs=["0", "1", "0", "-1"]),
                 "f_coeffs must be a number, not str", id="f_coeffs strings"),
    pytest.param(lambda pl: pl.update(dim=True), "dim True is not the integer 1", id="dim a bool"),
    pytest.param(lambda pl: pl.update(extent=[48.7]),
                 "extent [48.7] is not 1 to 3 positive integers", id="extent a float"),
    pytest.param(lambda pl: pl.update(extent=["48"]),
                 "extent ['48'] is not 1 to 3 positive integers", id="extent a string"),
    pytest.param(lambda pl: _set_coeff(pl, str(pl["coeffs"][1])),
                 "coeffs must be a list of numbers", id="coefficient a string"),
    pytest.param(lambda pl: _set_coeff(pl, True), "coeffs must be a list of numbers",
                 id="coefficient a bool"),
])
def test_solution_numbers_as_strict_as_certificates(workdir, solution_file, capsys, request,
                                                    change, message):
    # a JSON integer stands for a float, a bool is not a number and a string
    # is refused; extent and dim are integers.  Each of these files read as
    # a valid solution before (an extent of [48.7] as [48])
    payload = json.loads(solution_file.read_text())
    change(payload)
    bad = workdir / f"strict_{request.node.callspec.id.replace(' ', '_')}.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(FileFormatError, match=f"^{re.escape(message)}"):
        read_solution(bad)
    capsys.readouterr()
    assert main(["validate", "--in", str(bad), "--param", "lambda",
                 "--out", str(workdir / "strict.cert.json")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")


def test_solution_integers_stand_for_floats(workdir, solution_file):
    # the rule's other half: integer parameters and coefficients read as floats
    payload = json.loads(solution_file.read_text())
    payload["params"].update({"lambda": 50, "f_coeffs": [0, 1, 0, -1]})
    payload["coeffs"][1] = 0
    path = workdir / "integers.json"
    path.write_text(json.dumps(payload))
    p, u, _meta = read_solution(path)
    assert p.lam == 50.0 and p.f_coeffs == (0.0, 1.0, 0.0, -1.0) and u.mid()[1] == 0.0


@pytest.mark.parametrize("kind", ["solution", "certificate"])
def test_file_too_large_to_parse_is_a_usage_error(workdir, solution_file, lambda_cert, monkeypatch,
                                                  capsys, kind):
    # the parse is charged JSON_PEAK_FACTOR times the file size before
    # json.load runs: a file that would not fit is one error line, exit 1
    from okvalid import files, operator

    path = solution_file if kind == "solution" else lambda_cert
    need = files.JSON_PEAK_FACTOR * path.stat().st_size
    monkeypatch.setattr(operator, "available_memory_bytes", lambda: need - 1)
    argv = (["check", "--cert", str(path)] if kind == "certificate" else
            ["validate", "--in", str(path), "--param", "lambda",
             "--out", str(workdir / "too_large.cert.json")])
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {kind} file {path} needs about ")
    assert err[0].endswith("MB for the JSON parse, 0 MB available")
    monkeypatch.setattr(operator, "available_memory_bytes", lambda: need)
    assert (read_solution if kind == "solution" else read_certificate)(path)


def test_deeply_nested_file_is_a_usage_error(workdir, capsys):
    # nesting past the recursion limit is a file error, not a RecursionError
    bad = workdir / "nested.json"
    bad.write_text("[" * 100_000)
    capsys.readouterr()
    assert main(["check", "--cert", str(bad)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot read certificate file {bad}: ")


def test_file_sha256_hashes_in_chunks(workdir):
    # the hash holds a 1 MiB chunk and the one before it, not the 8 MiB file
    path = workdir / "eight_mib.bin"
    data = bytes(range(256)) * (8 * 4096)
    path.write_bytes(data)
    tracemalloc.start()
    try:
        digest = file_sha256(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(data).hexdigest()
    assert peak < 2.5 * 2**20


def test_check_refuses_negative_lipschitz_constants(workdir, solved_2d, capsys):
    # the 2-d N=28 certificate with l2 = l3 = -1 and delta_alpha and
    # ell_alpha raised to 10 passed every other replay
    p, result = solved_2d
    cert = cift.validate(p, result.solution, "lambda", n=28)
    assert cert.valid and cert.delta_alpha < 1e-3
    path = workdir / "inflated.cert.json"
    write_certificate(path, dataclasses.replace(cert, l2=-1.0, l3=-1.0, delta_alpha=10.0,
                                                ell_alpha=10.0), None)
    capsys.readouterr()
    assert main(["check", "--cert", str(path)]) == 3
    assert capsys.readouterr().out.splitlines() == ["FAIL: l2 < 0", "FAIL: l3 < 0"]


@pytest.mark.parametrize("field,value", [
    ("coeffs", 1e300),
    ("lambda", 1e308),
    ("sigma", 1e308),
    ("f_coeffs", [0.0, 1e300, 0.0, -1e300]),
])
def test_validate_overflow_names_the_bound(workdir, solution_file, capsys, field, value):
    payload = json.loads(solution_file.read_text())
    if field == "coeffs":
        payload["coeffs"][1] = value
    else:
        payload["params"][field] = value
    bad = workdir / f"overflow_{field}.json"
    bad.write_text(json.dumps(payload))
    out = workdir / f"overflow_{field}.cert.json"
    capsys.readouterr()
    assert main(["validate", "--in", str(bad), "--param", "lambda", "--out", str(out)]) == 3
    assert capsys.readouterr().err == ""  # no numpy warnings
    cert, _ = read_certificate(out)
    assert cert.stage == "residual"
    assert cert.reason.startswith("rho") and "not finite" in cert.reason


@pytest.mark.parametrize("field,digits,message", [
    ("n", 401, "n beyond the double range in certificate file"),
    ("rho", 401, "rho beyond the double range in certificate file"),
    ("n", 5001, "cannot read certificate file"),  # past int's string limit
])
def test_check_refuses_an_integer_beyond_the_double_range(workdir, lambda_cert, capsys,
                                                          field, digits, message):
    # one error line and exit 1, not an OverflowError from the tau replay
    payload = json.loads(lambda_cert.read_text())
    payload[field] = "HUGE"
    bad = workdir / f"huge_{field}_{digits}.cert.json"
    bad.write_text(json.dumps(payload).replace('"HUGE"', "1" + "0" * (digits - 1)))
    capsys.readouterr()
    assert main(["check", "--cert", str(bad)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")


HUGE_N = "1000000000000"
# the truncation of each dimension: N = 10^12 in 1-d, whose array of N
# doubles numpy refuses at once, and N = 10^200 in 2-d and 3-d, whose
# charges lie past the double range
HUGE = {1: int(HUGE_N), 2: 10**200, 3: 10**200}


@pytest.fixture(scope="module")
def zero_files(workdir, solution_file):
    """{dim: solution file}: the 1-d solution, and the zero solution at
    lambda 5, sigma 1 in 2-d and 3-d, an exact equilibrium."""
    files = {1: solution_file}
    for d in (2, 3):
        files[d] = workdir / f"zero{d}d.json"
        write_solution(files[d], ModelParams(lam=5.0, sigma=1.0), CosineSeries.zeros((4,) * d), 0.0)
    return files


@pytest.mark.parametrize("argv,code", [
    (["solve", "--dim", "1", "--lambda", "10", "--seed", "mode:1", "--out", "OUT"], 2),
    (["walk", "--in", "IN", "--param", "lambda", "--step", "1", "--out-prefix", "OUT"], 2),
    (["validate", "--in", "IN", "--param", "lambda", "--out", "OUT"], 3),
    *[(["solve", "--dim", str(d), "--lambda", "10", "--seed", "zero", "--out", "OUT"], 2) for d in (2, 3)],
    *[(["walk", "--in", f"IN{d}", "--param", "lambda", "--step", "1", "--out-prefix", "OUT"], 2)
      for d in (2, 3)],
    *[(["validate", "--in", f"IN{d}", "--param", "lambda", "--out", "OUT"], 3) for d in (2, 3)],
])
def test_huge_truncation_refused_before_allocating(workdir, zero_files, capsys, argv, code):
    # only a charge counted from sizes, in exact integers, gets to the
    # diagnosis: no array of the truncation's size is tried
    d = int(argv[2]) if argv[0] == "solve" else int(argv[2][2:] or 1)
    n = HUGE[d]
    out = workdir / f"huge_{argv[0]}_{d}"
    argv = [str(zero_files[d]) if a.startswith("IN") else str(out) if a == "OUT" else a for a in argv]
    capsys.readouterr()
    assert main(argv + ["--N", str(n)]) == code
    stdout, err = capsys.readouterr()
    if code == 2:
        assert err.strip().splitlines() == [err.strip()]
        assert err.startswith(f"solver failed: truncation n={n} ({count_text(n**d - 1)} modes) "
                              "needs about ")
        assert not list(workdir.glob(f"huge_{argv[0]}_{d}*"))
    else:
        assert err == "" and "INVALID at stage 'kn_bound'" in stdout
        cert, _ = read_certificate(out)
        assert (cert.stage, cert.n) == ("kn_bound", n)
        assert "needs about" in cert.reason


def test_validate_non_finite_tau_is_an_invalid_certificate(workdir, capsys):
    # q_h2 of about 1.2e154 is finite, but its square in tau_formula is not:
    # an invalid certificate at stage inverse_bound, exit 3, whose one reason
    # names the non-finite tau and suggests no truncation, not a traceback
    sol, cert = workdir / "huge_lambda.json", workdir / "huge_lambda.cert.json"
    assert main(["solve", "--dim", "1", "--N", "8", "--lambda", "1.2e154", "--seed", "zero",
                 "--out", str(sol)]) == 0
    capsys.readouterr()
    assert main(["validate", "--in", str(sol), "--param", "lambda", "--N", "8",
                 "--out", str(cert)]) == 3
    stdout, err = capsys.readouterr()
    assert err == "" and "INVALID at stage 'inverse_bound'" in stdout
    got, _ = read_certificate(cert)
    assert (got.valid, got.stage, got.n) == (False, "inverse_bound", 8)
    assert got.reason == "tail contraction inf not finite at n=8: no truncation predicted"


def test_failed_escalation_records_the_truncation_tried(workdir, capsys):
    # without --N the escalation's rung, 0.7 sqrt(q_h2) for q_h2 of about
    # 1.2e154, is too large for memory: the invalid certificate records
    # that truncation, the one its reason names, not the n requested (None)
    from okvalid.inverse import rule_of_thumb_n

    sol, cert = workdir / "huge_lambda_auto.json", workdir / "huge_lambda_auto.cert.json"
    assert main(["solve", "--dim", "1", "--N", "8", "--lambda", "1.2e154", "--seed", "zero",
                 "--out", str(sol)]) == 0
    capsys.readouterr()
    assert main(["validate", "--in", str(sol), "--param", "lambda", "--out", str(cert)]) == 3
    stdout, err = capsys.readouterr()
    assert err == "" and "INVALID at stage 'kn_bound'" in stdout
    got, _ = read_certificate(cert)
    p, u, _ = read_solution(sol)
    n = rule_of_thumb_n(cift.solution_bounds(p, u).lin.q_h2)
    assert n > 10**76 and (got.valid, got.stage, got.n) == (False, "kn_bound", n)
    assert got.reason.startswith(f"truncation n={n} ")


def test_truncation_past_the_string_limit_gets_its_diagnosis(workdir, zero_files, capsys):
    # N = 10^1500 in 3-d has 10^4500 modes, a count past int's 4300-digit
    # string limit: each message writes it as a power of ten
    n = str(10**1500)
    cert = workdir / "huge_string_limit.cert.json"
    capsys.readouterr()
    assert main(["validate", "--in", str(zero_files[3]), "--param", "lambda", "--N", n,
                 "--out", str(cert)]) == 3
    assert "(10^4500 modes) needs about 10^" in capsys.readouterr().out
    assert main(["walk", "--in", str(zero_files[3]), "--param", "lambda", "--step", "1",
                 "--N", n, "--out-prefix", str(workdir / "huge_string_limit_")]) == 2
    assert "(10^4500 modes) needs about 10^" in capsys.readouterr().err


def test_check_reads_an_invalid_certificate_past_the_double_range(workdir, zero_files, capsys):
    # validate --N 10^400 writes a kn_bound certificate whose n lies past
    # the double range; its n is never replayed, so check reads it back as
    # an invalid certificate: one line and exit 3
    n = 10**400
    cert = workdir / "huge_400.cert.json"
    assert main(["validate", "--in", str(zero_files[2]), "--param", "lambda", "--N", str(n),
                 "--out", str(cert)]) == 3
    assert read_certificate(cert)[0].n == n
    capsys.readouterr()
    assert main(["check", "--cert", str(cert), "--solution", str(zero_files[2])]) == 3
    stdout, err = capsys.readouterr()
    assert err == "" and stdout.splitlines() == ["FAIL: certificate not valid (stage=kn_bound)"]


def test_sweep_huge_truncation_fails_its_row_only(workdir, zero_files):
    for d, small in ((1, (24, 64)), (2, (6, 8)), (3, (6, 8))):
        out = workdir / f"sweep_huge_{d}.csv"
        assert main(["sweep", "--in", str(zero_files[d]), "--param", "lambda",
                     "--Nlist", f"{small[0]},{HUGE[d]},{small[1]}", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert [(r["N"], r["status"]) for r in rows] == [
            (str(small[0]), "ok"), (str(HUGE[d]), "failed:kn_bound"), (str(small[1]), "ok")], d


def test_check_detects_stale_hash(lambda_cert, trivial_file):
    cert_path = lambda_cert
    other = trivial_file
    assert main(["check", "--cert", str(cert_path), "--solution", str(other)]) == 3


def test_check_rejects_certificate_without_solution_hash(workdir, solution_file, lambda_cert,
                                                        capsys):
    # a certificate that records no solution hash cannot be bound to a
    # solution file: one line and exit 3, not "verified"
    payload = json.loads(lambda_cert.read_text())
    payload["solution_sha256"] = None
    unbound = workdir / "unbound.cert.json"
    unbound.write_text(json.dumps(payload))
    assert main(["check", "--cert", str(unbound)]) == 0
    capsys.readouterr()
    assert main(["check", "--cert", str(unbound), "--solution", str(solution_file)]) == 3
    assert capsys.readouterr().out.strip().splitlines() == [
        "certificate records no solution hash: cannot bind it to the solution"
    ]


@pytest.fixture(scope="module")
def bound_cert(workdir, solution_file):
    """A certificate of solution_file in lambda, bound to it by its hash."""
    path = workdir / "bound.lambda.cert.json"
    assert main(["validate", "--in", str(solution_file), "--param", "lambda",
                 "--out", str(path)]) == 0
    return path


def _check_lines(capsys, argv) -> tuple:
    capsys.readouterr()
    code = main(["check", *argv])
    return code, capsys.readouterr().out.strip().splitlines()


@pytest.mark.parametrize("field", ["rho", "q_sup", "l1"])
def test_check_solution_recomputes_the_solution_bounds(workdir, solution_file, bound_cert, capsys,
                                                       field):
    # a halved rho, q_sup or l1 keeps the certificate's own inequalities, so
    # check passes it; check --solution recomputes the bounds from the
    # solution and names the field stored below its value
    assert _check_lines(capsys, ["--cert", str(bound_cert), "--solution", str(solution_file)]) == (
        0, ["certificate inequalities verified and bound to the solution"])
    payload = json.loads(bound_cert.read_text())
    payload[field] *= 0.5
    low = workdir / f"low_{field}.cert.json"
    low.write_text(json.dumps(payload))
    assert main(["check", "--cert", str(low)]) == 0
    code, lines = _check_lines(capsys, ["--cert", str(low), "--solution", str(solution_file)])
    assert code == 3 and len(lines) == 1 and lines[0].startswith(f"FAIL: {field} "), lines


@pytest.mark.parametrize("edit,message", [
    ({"ell_alpha": 0.0, "delta_alpha": 0.0}, "FAIL: bounds not recomputed from the solution"),
    ({"params": {"lambda": 51.0}}, "FAIL: solution parameters differ from the certificate's"),
])
def test_check_solution_refuses_a_certificate_of_another_problem(workdir, solution_file, bound_cert,
                                                                 capsys, edit, message):
    # a box that is no box (ell_alpha = 0) or other parameters, with the
    # inequalities still holding: one FAIL line and exit 3, no traceback
    payload = json.loads(bound_cert.read_text())
    for key, value in edit.items():
        payload[key] = {**payload[key], **value} if isinstance(value, dict) else value
    other = workdir / "other_problem.cert.json"
    other.write_text(json.dumps(payload))
    assert main(["check", "--cert", str(other)]) == 0
    code, lines = _check_lines(capsys, ["--cert", str(other), "--solution", str(solution_file)])
    assert code == 3 and len(lines) == 1 and lines[0].startswith(message), lines


def test_check_deep_recomputes_kn(workdir, solution_file, bound_cert, capsys):
    # the certificate's kn is K_N recomputed at its n; a halved kn passes
    # check and check --solution, and check --deep names both values
    bind = ["--solution", str(solution_file)]
    assert _check_lines(capsys, ["--cert", str(bound_cert), *bind, "--deep"]) == (
        0, ["certificate inequalities verified and bound to the solution, K_N recomputed"])
    payload = json.loads(bound_cert.read_text())
    kn, payload["kn"] = payload["kn"], payload["kn"] / 2
    low = workdir / "low_kn.cert.json"
    low.write_text(json.dumps(payload))
    assert main(["check", "--cert", str(low)]) == 0
    assert main(["check", "--cert", str(low), *bind]) == 0
    code, lines = _check_lines(capsys, ["--cert", str(low), *bind, "--deep"])
    assert (code, lines) == (3, [f"FAIL: kn {kn / 2!r} below its value {kn!r} recomputed at "
                                 f"n={payload['n']}, by 4503599627370496 ulps"])


@pytest.mark.parametrize("lower,ulps", [
    (lambda kn: math.nextafter(kn, 0.0), "1 ulp"),
    (lambda kn: kn * (1.0 - 1e-6), None),
])
def test_check_deep_states_the_kn_gap_in_ulps(workdir, solution_file, bound_cert, capsys,
                                              lower, ulps):
    # a kn one ulp low, as another BLAS thread count can give, passes check
    # and check --solution; check --deep fails it as before and reads 1 ulp,
    # where a kn lowered by 1e-6 reads a count in the billions
    bind = ["--solution", str(solution_file)]
    payload = json.loads(bound_cert.read_text())
    kn = payload["kn"]
    payload["kn"] = lower(kn)
    low = workdir / "ulp_kn.cert.json"
    low.write_text(json.dumps(payload))
    assert main(["check", "--cert", str(low)]) == 0
    assert main(["check", "--cert", str(low), *bind]) == 0
    code, lines = _check_lines(capsys, ["--cert", str(low), *bind, "--deep"])
    assert code == 3 and len(lines) == 1, lines
    head, gap = lines[0].rsplit(", by ", 1)
    assert head == f"FAIL: kn {payload['kn']!r} below its value {kn!r} recomputed at n={payload['n']}"
    if ulps is not None:
        assert gap == ulps
    else:
        count = int(gap.removesuffix(" ulps"))
        assert 10**9 <= count < 10**10 and abs(count - 1e-6 * kn / math.ulp(kn)) <= 1, gap


def test_check_deep_needs_the_solution(bound_cert, capsys):
    capsys.readouterr()
    assert main(["check", "--cert", str(bound_cert), "--deep"]) == 1
    assert capsys.readouterr().err.strip().splitlines() == ["error: --deep needs --solution"]


def test_check_solution_replays_tau_in_the_solution_dimension(workdir, capsys):
    # a 2-d tau lowered to the 1-d formula's value: check, whose replay
    # takes 1-d's cb, passes it, and check --solution does not
    from okvalid.embeddings import table_constants
    from okvalid.inverse import tau_formula

    sol, cert = workdir / "canon2d.json", workdir / "canon2d.cert.json"
    assert main(["solve", "--dim", "2", "--N", "28", "--lambda", "75", "--sigma", "6",
                 "--seed", "mode:1,1,0.5", "--tol", "1e-9", "--out", str(sol)]) == 0
    assert main(["validate", "--in", str(sol), "--param", "lambda", "--N", "28",
                 "--out", str(cert)]) == 0
    payload = json.loads(cert.read_text())
    payload["tau"] = tau_formula(payload["kn"], payload["q_sup"], payload["q_h2"],
                                 table_constants(1).cb, payload["n"]).hi
    low = workdir / "canon2d_low_tau.cert.json"
    low.write_text(json.dumps(payload))
    assert main(["check", "--cert", str(low)]) == 0
    code, lines = _check_lines(capsys, ["--cert", str(low), "--solution", str(sol), "--deep"])
    assert code == 3 and len(lines) == 1 and lines[0].startswith("FAIL: tau "), lines


_DELETE = object()
# hostile JSON values: wrong types, bad shapes, integers past the double
# range and past any memory, and floats json writes as NaN and Infinity
_HOSTILE = st.one_of(
    st.sampled_from([_DELETE, None, True, "x", [], {}, [[0.5]], 10**400, -10**400, 10**20,
                     2**63, 10**6, 0, -1, 1e300, -1e300, 5e-324]),
    st.floats(), st.integers(), st.text(max_size=3), st.lists(st.floats(), max_size=2),
)


def _mutate(payload: dict, data) -> dict:
    """payload with one value, a top-level field or one inside params,
    coeffs or extent, replaced by a hostile one or removed."""
    paths = [(key,) for key in payload] + [("params", key) for key in payload["params"]]
    paths += [(key, -1) for key in ("coeffs", "extent") if key in payload]
    path = data.draw(st.sampled_from(paths))
    value = data.draw(_HOSTILE)
    target = payload
    for key in path[:-1]:
        target = target[key]
    if value is _DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return payload


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutate_solution=st.booleans(), data=st.data())
def test_mutated_files_are_read_and_checked_without_a_traceback(workdir, solution_file, bound_cert,
                                                                mutate_solution, data):
    # one field of the solution file or of its certificate is mutated (the
    # certificate records the solution's hash unless that is the field): each reader
    # returns or raises FileFormatError, and check --solution --deep exits
    # 0, 1 or 3, with the available memory read as 20 MB
    sol, cert = workdir / "fuzz.json", workdir / "fuzz.cert.json"
    sol_payload = json.loads(solution_file.read_text())
    cert_payload = json.loads(bound_cert.read_text())
    sha = cert_payload["solution_sha256"]
    if mutate_solution:
        sol_payload = _mutate(sol_payload, data)
    else:
        cert_payload = _mutate(cert_payload, data)
    sol.write_text(json.dumps(sol_payload))
    if cert_payload.get("solution_sha256") == sha:  # the hash itself not mutated
        cert_payload["solution_sha256"] = file_sha256(sol)
    cert.write_text(json.dumps(cert_payload))
    for read, path in ((read_solution, sol), (read_certificate, cert)):
        with contextlib.suppress(FileFormatError):
            read(path)
    out = io.StringIO()
    with (mock.patch("okvalid.operator.available_memory_bytes", lambda: 2e7),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(out)):
        code = main(["check", "--cert", str(cert), "--solution", str(sol), "--deep"])
    assert code in (0, 1, 3), out.getvalue()


def test_check_truncated_json(workdir):
    broken = workdir / "broken.cert.json"
    broken.write_text('{"format_version": 1, "delta')
    assert main(["check", "--cert", str(broken)]) == 1


def test_sweep_single_matches_validate(workdir, solution_file):
    cert_path = workdir / "n64.cert.json"
    assert main(["validate", "--in", str(solution_file), "--param", "lambda",
                 "--N", "64", "--out", str(cert_path)]) == 0
    cert, _ = read_certificate(cert_path)
    out = workdir / "sweep.csv"
    assert main(["sweep", "--in", str(solution_file), "--param", "lambda",
                 "--Nlist", "64", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 1
    assert rows[0]["status"] == "ok"
    for col, value in (("K_N", cert.kn), ("tau", cert.tau), ("K", cert.k),
                       ("delta_alpha", cert.delta_alpha), ("delta_x", cert.delta_x)):
        assert float(rows[0][col]) == value, col
    assert float(rows[0]["wall_ms"]) > 0


def test_sweep_reports_failures(workdir, solution_file):
    out = workdir / "sweep2.csv"
    assert main(["sweep", "--in", str(solution_file), "--param", "lambda",
                 "--Nlist", "6,64", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert rows[0]["status"].startswith("failed:")
    assert rows[1]["status"] == "ok"


def test_render_trivial(workdir, trivial_file):
    out = workdir / "trivial.render.csv"
    assert main(["render", "--in", str(trivial_file), "--grid", "9",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 9
    assert all(float(r["u"]) == 0.0 for r in rows)


def test_render_single_mode(workdir):
    p = ModelParams(lam=1.0)
    u = single_mode((2,), (1,), 1.0)
    path = workdir / "phi1.json"
    write_solution(path, p, u, 0.0)
    out = workdir / "phi1.render.csv"
    assert main(["render", "--in", str(path), "--grid", "5", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    for i, row in enumerate(rows):
        x = i / 4.0
        assert float(row["x"]) == pytest.approx(x, abs=1e-15)
        assert float(row["u"]) == pytest.approx(math.sqrt(2) * math.cos(math.pi * x), abs=1e-12)


def test_render_2d_row_count(workdir):
    p = ModelParams(lam=1.0)
    u = single_mode((3, 3), (1, 1), 0.5)
    path = workdir / "d2.json"
    write_solution(path, p, u, 0.0)
    out = workdir / "d2.render.csv"
    assert main(["render", "--in", str(path), "--grid", "7", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert len(rows) == 1 + 49


def test_render_3d_slices(workdir):
    p = ModelParams(lam=1.0)
    u = single_mode((2, 2, 2), (1, 0, 1), 0.3)
    path = workdir / "d3.json"
    write_solution(path, p, u, 0.0)
    out = workdir / "d3.render.csv"
    assert main(["render", "--in", str(path), "--grid", "4", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["x", "y", "z", "u"]
    assert len(rows) == 1 + 64


def _traced_main(argv):
    """main(argv) and the traced memory peak of the call."""
    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("argv,what,stage", [
    (["render", "--in", "D3", "--grid", "100000", "--out", "OUT"], "--grid 100000", "3-d grid of values"),
    (["constants", "--dim", "3", "--ncut", "10000000"], "--ncut 10000000", "lattice sum of cm_bar"),
    (["constants", "--ncut", "100000"], "--ncut 100000", "lattice sum of cm_bar"),
    *[pytest.param(["render", "--in", f"D{d}", "--grid", str(10**200), "--out", "OUT"],
                   f"--grid {10**200}", f"{d}-d grid of values", id=f"render-{d}d-10^200")
      for d in (2, 3)],
    *[pytest.param(["constants", "--dim", str(d), "--ncut", str(10**200)], f"--ncut {10**200}",
                   "lattice sum of cm_bar", id=f"constants-{d}d-10^200") for d in (2, 3)],
])
def test_render_and_constants_check_memory_before_allocating(workdir, capsys, monkeypatch, argv, what, stage):
    # what a command would allocate is charged first: with 100 MB
    # available, a 3-d grid of 10^15 points, the 3-d lattice sum at ncut =
    # 10^5 or 10^7, and a grid or a sum at 10^200, whose charge lies past
    # the double range, are refused with one error line after a traced
    # peak well under 1 MB, and no output is written
    from okvalid import operator

    paths = {"D2": workdir / "mem2d_grid.json", "D3": workdir / "mem3d.json"}
    write_solution(paths["D2"], ModelParams(lam=1.0), single_mode((4, 4), (1, 1), 0.3), 0.0)
    write_solution(paths["D3"], ModelParams(lam=1.0), single_mode((4, 4, 4), (1, 1, 1), 0.3), 0.0)
    out = workdir / "mem.render.csv"
    argv = [str(paths.get(a, a)) if a != "OUT" else str(out) for a in argv]
    monkeypatch.setattr(operator, "available_memory_bytes", lambda: 1e8)
    capsys.readouterr()
    code, peak = _traced_main(argv)
    assert code == 1
    captured = capsys.readouterr()
    (line,) = captured.err.strip().splitlines()
    assert line.startswith(f"error: {what} needs about ")
    assert line.endswith(f" MB for the {stage}, 100 MB available")
    assert not captured.out and not out.exists() and peak < 1e6


def test_render_and_constants_fit_their_charge(workdir, monkeypatch):
    # one byte less than the charge is refused, the charge itself suffices,
    # and it covers the traced peak of the whole command
    from okvalid import operator
    from okvalid.embeddings import cmbar_bytes, recompute_cmbar
    from okvalid.series import grid_bytes

    path = workdir / "mem2d.json"
    write_solution(path, ModelParams(lam=1.0), single_mode((12, 12), (1, 1), 0.5), 0.0)
    render = ["render", "--in", str(path), "--grid", "200", "--out", str(workdir / "mem2d.csv")]
    for argv, need in ((render, grid_bytes((12, 12), 200)),
                       (["constants", "--dim", "3", "--ncut", "300"], cmbar_bytes(3, 300))):
        monkeypatch.setattr(operator, "available_memory_bytes", lambda: need - 1)
        assert main(argv) == 1
        monkeypatch.setattr(operator, "available_memory_bytes", lambda: need)
        recompute_cmbar.cache_clear()
        code, peak = _traced_main(argv)
        assert code == 0 and peak <= need, (argv[0], peak, need)


def _count_calls(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_main_reuses_one_parser():
    # one parser serves every call of main; a command parsed after another
    # carries none of the earlier command's arguments
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    first = parser.parse_args(["sweep", "--in", "s.json", "--param", "mu", "--Nlist", "8"])
    second = parser.parse_args(["constants", "--dim", "2"])
    assert (first.command, first.nlist, first.func) == ("sweep", "8", cli.cmd_sweep)
    assert (second.command, second.dim, second.func) == ("constants", 2, cli.cmd_constants)
    assert not hasattr(second, "nlist") and not hasattr(second, "infile")
    with pytest.raises(SystemExit):
        parser.parse_args(["sweep", "--in", "s.json"])
    assert parser.parse_args(["constants"]).dim is None


def test_sweep_computes_residual_stage_once(workdir, solution_file, monkeypatch):
    calls = {}
    for name in ("residual_norm", "fprime_series", "linearization_coefficient"):
        _count_calls(monkeypatch, cift, name, calls)
    out = workdir / "sweep_once.csv"
    assert main(["sweep", "--in", str(solution_file), "--param", "sigma",
                 "--Nlist", "48,64,96", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [int(r["N"]) for r in rows] == [48, 64, 96]  # order fixed by input
    assert all(r["status"] == "ok" for r in rows)
    assert calls == {"residual_norm": 1, "fprime_series": 1,
                     "linearization_coefficient": 1}


SWEEP_NLIST = "24,32,48,64,96,128,256"


def test_sweep_reads_the_memory_once(workdir, solution_file, monkeypatch):
    # every truncation's K_N charge is checked against one reading of the
    # available memory, taken by the sweep; the other reading is the
    # solution file's parse charge
    from okvalid import operator

    reads = []
    monkeypatch.setattr(operator, "available_memory_bytes", lambda: reads.append(1) or 1e12)
    out = workdir / "sweep_reads.csv"
    assert main(["sweep", "--in", str(solution_file), "--param", "lambda",
                 "--Nlist", SWEEP_NLIST, "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 7 and all(r["status"] == "ok" for r in rows)
    assert len(reads) == 2


@pytest.mark.parametrize("which", ["lambda", "sigma", "mu"])
def test_sweep_first_lipschitz_round_once(workdir, solution_file, monkeypatch, which):
    # the first round's box depends on neither N nor K: one call serves
    # every truncation, and each of the 7 makes only its second round
    calls = {}
    _count_calls(monkeypatch, cift, "lipschitz_bounds", calls)
    out = workdir / f"sweep_rounds_{which}.csv"
    assert main(["sweep", "--in", str(solution_file), "--param", which,
                 "--Nlist", SWEEP_NLIST, "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 7 and all(r["status"] == "ok" for r in rows)
    assert calls == {"lipschitz_bounds": 8}


@pytest.mark.parametrize("which", ["lambda", "sigma", "mu"])
def test_sweep_rows_equal_fresh_validates(workdir, solution_file, monkeypatch, which):
    # the certificates behind a sweep's rows, which share one
    # solution_bounds, K_N pass and first Lipschitz round, equal fresh
    # validates field by field
    made = []

    def recorded(*args, **kwargs):
        for cert in cift.validations(*args, **kwargs):
            made.append(cert)
            yield cert

    monkeypatch.setattr(cli, "validations", recorded)
    out = workdir / f"sweep_fresh_{which}.csv"
    assert main(["sweep", "--in", str(solution_file), "--param", which,
                 "--Nlist", SWEEP_NLIST, "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    p, u, _meta = read_solution(solution_file)
    assert [c.n for c in made] == [int(r["N"]) for r in rows] == [24, 32, 48, 64, 96, 128, 256]
    for cert, row in zip(made, rows):
        fresh = cift.validate(p, u, which, cert.n)
        assert fresh.valid
        for f in dataclasses.fields(cift.Certificate):
            if f.name != "provenance":
                assert getattr(cert, f.name) == getattr(fresh, f.name), (cert.n, f.name)
        assert float(row["delta_alpha"]) == fresh.delta_alpha and float(row["K"]) == fresh.k


def test_sweep_2d_rows_equal_fresh_validates(workdir, monkeypatch, solved_2d):
    # an unsorted list with a duplicate on the canonical 2-d solution: 12
    # and 20 fail at inverse_bound; each class is assembled once, at N=40,
    # and every truncation clears the (0, 1)/(1, 0) orbit, so (1, 0) is
    # never assembled; each row's certificate equals a fresh validate --N
    from okvalid import inverse

    p, result = solved_2d
    sol = workdir / "sol2d.json"
    write_solution(sol, p, result.solution, result.residual_full)
    made, assembled = [], []

    def recorded(*args, **kwargs):
        for cert in cift.validations(*args, **kwargs):
            made.append(cert)
            yield cert

    assemble = inverse._galerkin_block

    def recording(p, block, raw):
        assembled.append((block.n, block.label))
        return assemble(p, block, raw)

    monkeypatch.setattr(cli, "validations", recorded)
    monkeypatch.setattr(inverse, "_galerkin_block", recording)
    out = workdir / "sweep_2d.csv"
    assert main(["sweep", "--in", str(sol), "--param", "lambda",
                 "--Nlist", "40,12,28,20,28", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [int(r["N"]) for r in rows] == [c.n for c in made] == [40, 12, 28, 20, 28]
    assert [r["status"] for r in rows] == ["ok", "failed:inverse_bound", "ok",
                                           "failed:inverse_bound", "ok"]
    assert assembled == [(40, "(0, 0)"), (40, "(0, 1)"), (40, "(1, 1)")]
    p, u, _meta = read_solution(sol)
    for cert, row in zip(made, rows):
        fresh = cift.validate(p, u, "lambda", cert.n)
        for f in dataclasses.fields(cift.Certificate):
            if f.name != "provenance":
                assert getattr(cert, f.name) == getattr(fresh, f.name), (cert.n, f.name)
        if fresh.valid:
            assert [float(row[c]) for c in ("K_N", "tau", "K", "delta_alpha", "delta_x")] == [
                fresh.kn, fresh.tau, fresh.k, fresh.delta_alpha, fresh.delta_x]


def test_sweep_residual_failure_on_every_row(workdir, solution_file, monkeypatch):
    def fail(p, u):
        raise IntervalDomainError("residual overflow")

    monkeypatch.setattr(cift, "residual_norm", fail)
    out = workdir / "sweep_fail.csv"
    assert main(["sweep", "--in", str(solution_file), "--param", "lambda",
                 "--Nlist", "48,64", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [r["status"] for r in rows] == ["failed:residual"] * 2


def test_walk_cli(workdir, solution_file, monkeypatch):
    monkeypatch.chdir(workdir)
    code = main(["walk", "--in", str(solution_file), "--param", "lambda",
                 "--step", "5", "--count", "2", "--out-prefix", "w_"])
    assert code == 0
    for i in range(3):
        p, u, meta = read_solution(workdir / f"w_{i:03d}.json")
        assert p.lam == pytest.approx(50.0 + 5.0 * i)


def test_constants_json(capsys):
    assert main(["constants", "--dim", "1", "--ncut", "100"]) == 0
    out = json.loads(capsys.readouterr().out)
    one = out["dims"]["1"]
    assert one["cm_bar"] == 0.149072
    assert one["cm_bar_recomputed"]["lo"] <= one["cm_bar_recomputed"]["hi"]
    assert abs(one["cm_bar_recomputed"]["hi"] - 0.149072) < 1e-3


@pytest.mark.parametrize("argv,box", [
    (["--dim", "2", "--ncut", "1000000"], "1000000^2"),
    (["--ncut", "2155"], "2155^3"),
])
def test_constants_refuses_a_lattice_box_above_ten_billion(capsys, monkeypatch, argv, box):
    # the box passes the memory check (a 2-d sum holds arrays of ncut) and
    # would sum for hours: it is refused with one error line before any sum
    from okvalid import operator

    def no_sum(*args, **kwargs):
        raise AssertionError("lattice sum started")

    monkeypatch.setattr(operator, "available_memory_bytes", lambda: 1e12)
    monkeypatch.setattr(cli, "recompute_cmbar", no_sum)
    t0 = time.perf_counter()
    assert main(["constants", *argv]) == 1
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    (line,) = captured.err.strip().splitlines()
    assert line == f"error: --ncut {argv[-1]} sums {box} lattice points, more than 10^10"
    assert not captured.out


def test_constants_runs_below_the_lattice_ceiling(capsys):
    # the default ncut in 2-d, 10^6 points, is summed
    assert main(["constants", "--dim", "2", "--ncut", "1000"]) == 0
    two = json.loads(capsys.readouterr().out)["dims"]["2"]
    lo, hi = two["cm_bar_recomputed"]["lo"], two["cm_bar_recomputed"]["hi"]
    assert lo <= 0.248740 <= hi + 1e-3


def test_solution_roundtrip_lossless(workdir, solution_file):
    p, u, meta = read_solution(solution_file)
    again = workdir / "again.json"
    write_solution(again, p, u, meta["residual_float"], meta)
    p2, u2, meta2 = read_solution(again)
    assert np.array_equal(u.mid(), u2.mid())
    assert (p.lam, p.sigma, p.mu, p.f_coeffs) == (p2.lam, p2.sigma, p2.mu, p2.f_coeffs)
    assert meta2["residual_float"] == meta["residual_float"]


def test_certificate_roundtrip_lossless(workdir, lambda_cert):
    cert_path = lambda_cert
    cert, sha = read_certificate(cert_path)
    from okvalid.files import write_certificate

    again = workdir / "cert2.json"
    write_certificate(again, cert, sha)
    cert2, sha2 = read_certificate(again)
    assert sha2 == sha
    for name in ("k", "kn", "tau", "rho", "delta_alpha", "delta_x", "l1", "l2", "l3", "l4"):
        assert getattr(cert, name) == getattr(cert2, name)


def _malformed(payload: dict, case: str):
    """The text of a file that is malformed as case says, from a good
    payload."""
    if case == "not json":
        return "{"
    if case == "a list":
        return "[]"
    payload = dict(payload, params=dict(payload["params"]))
    if case == "no format_version":
        del payload["format_version"]
    elif case == "format_version 2":
        payload["format_version"] = 2
    elif case == "no params":
        del payload["params"]
    elif case == "no sigma":
        del payload["params"]["sigma"]
    elif case == "lambda a string":
        payload["params"]["lambda"] = "abc"
    elif case == "lambda negative":
        payload["params"]["lambda"] = -1.0
    elif case == "f_coeffs a number":
        payload["params"]["f_coeffs"] = 3.0
    return json.dumps(payload)


@pytest.mark.parametrize("kind", ["solution", "certificate"])
@pytest.mark.parametrize("case,message", [
    ("missing", "cannot read {kind} file {path}: [Errno 2] No such file or directory: '{path}'"),
    ("not json", "cannot read {kind} file {path}: Expecting property name enclosed in "
                 "double quotes: line 1 column 2 (char 1)"),
    ("a list", "malformed {kind} file {path}: list indices must be integers or slices, not str"),
    ("no format_version", "malformed {kind} file {path}: 'format_version'"),
    ("format_version 2", "unsupported format_version 2"),
    ("no params", "malformed {kind} file {path}: 'params'"),
    ("no sigma", "malformed {kind} file {path}: 'sigma'"),
    ("lambda a string", "lambda must be a number, not str, in {path}"),
    ("lambda negative", "lam must be positive in {path}"),
    ("f_coeffs a number", "malformed {kind} file {path}: 'float' object is not iterable"),
])
def test_malformed_file_messages(workdir, solution_file, lambda_cert, kind, case, message):
    # both file kinds go through one reader: each fault is a FileFormatError
    # with the same message, the kind of file named where it is
    from okvalid.files import FileFormatError

    good = solution_file if kind == "solution" else lambda_cert
    path = workdir / f"malformed_{kind}_{case.replace(' ', '_')}.json"
    if case != "missing":
        path.write_text(_malformed(json.loads(good.read_text()), case))
    read = read_solution if kind == "solution" else read_certificate
    with pytest.raises(FileFormatError) as err:
        read(path)
    assert str(err.value) == message.format(kind=kind, path=path)


def test_usage_error_unknown_command():
    assert main(["frobnicate"]) == 1
