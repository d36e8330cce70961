import csv
import json
import math

import numpy as np
import pytest

from okvalid import cift
from okvalid.cli import main
from okvalid.files import read_certificate, read_solution, write_solution
from okvalid.intervals import IntervalDomainError
from okvalid.operator import ModelParams, residual_norm
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


def test_solve_zero_seed(workdir):
    path = workdir / "trivial.json"
    code = main(["solve", "--dim", "1", "--lambda", "150", "--seed", "zero",
                 "--out", str(path)])
    assert code == 0
    _p, u, meta = read_solution(path)
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


def test_walk_bad_damping_usage_error(workdir, solution_file, capsys):
    code = main(["walk", "--in", str(solution_file), "--param", "lambda",
                 "--step", "1", "--damping", "0",
                 "--out-prefix", str(workdir / "bad_walk_")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: damping must be in (0, 1]"]
    assert not list(workdir.glob("bad_walk_*"))


@pytest.mark.parametrize("command,flags,message", [
    ("validate", ["--N", "0"], "truncation must be >= 2"),
    ("validate", ["--N", "1"], "truncation must be >= 2"),
    ("sweep", ["--Nlist", "1,24"], "truncation must be >= 2"),
    ("walk", ["--N", "1", "--step", "1"], "truncation must be >= 2"),
    ("walk", ["--step", "0"], "step must be finite and nonzero"),
    ("walk", ["--step", "nan"], "step must be finite and nonzero"),
    ("walk", ["--step", "inf"], "step must be finite and nonzero"),
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
    (_VALIDATE + ["--tau-target", "nan"], "--tau-target must be finite and positive"),
    (_VALIDATE + ["--tau-target", "0"], "--tau-target must be finite and positive"),
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

    monkeypatch.setattr(operator, "available_memory_bytes", lambda: 1e9)
    monkeypatch.setattr(newton, "galerkin_matrix_point", no_jacobian)
    argv = [str(solution_file) if a == "IN" else a for a in argv] + [str(workdir / "too_big")]
    capsys.readouterr()
    assert main(argv) == 2
    need = 8.0 * newton.NEWTON_WORK_ARRAYS * m * m
    assert capsys.readouterr().err.strip().splitlines() == [
        f"solver failed: truncation n={n} ({m} modes) needs about {need / 1e6:.0f} MB "
        "for the Newton Jacobian, 1000 MB available"
    ]
    assert not list(workdir.glob("too_big*"))


def test_validate_and_check_roundtrip(workdir, solution_file):
    cert_path = workdir / "sol.lambda.cert.json"
    code = main(["validate", "--in", str(solution_file), "--param", "lambda",
                 "--out", str(cert_path)])
    assert code == 0
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


def test_check_detects_tampering(workdir, solution_file):
    cert_path = workdir / "sol.lambda.cert.json"
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
def test_check_rejects_non_finite_certificate(workdir, solution_file, capsys, field, value):
    payload = json.loads((workdir / "sol.lambda.cert.json").read_text())
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
def test_hostile_file_usage_error(workdir, solution_file, capsys, kind, field, value):
    # a field of the wrong type or shape is one error line and exit 1
    if kind == "certificate":
        payload = json.loads((workdir / "sol.lambda.cert.json").read_text())
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


def test_check_detects_stale_hash(workdir, solution_file):
    cert_path = workdir / "sol.lambda.cert.json"
    other = workdir / "trivial.json"
    assert main(["check", "--cert", str(cert_path), "--solution", str(other)]) == 3


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


def test_render_trivial(workdir):
    out = workdir / "trivial.render.csv"
    assert main(["render", "--in", str(workdir / "trivial.json"), "--grid", "9",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 9
    assert all(float(r["u"]) == 0.0 for r in rows)


def test_render_single_mode(workdir):
    p = ModelParams(lam=1.0)
    u = CosineSeries.single_mode((2,), (1,), 1.0)
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
    u = CosineSeries.single_mode((3, 3), (1, 1), 0.5)
    path = workdir / "d2.json"
    write_solution(path, p, u, 0.0)
    out = workdir / "d2.render.csv"
    assert main(["render", "--in", str(path), "--grid", "7", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert len(rows) == 1 + 49


def test_render_3d_slices(workdir):
    p = ModelParams(lam=1.0)
    u = CosineSeries.single_mode((2, 2, 2), (1, 0, 1), 0.3)
    path = workdir / "d3.json"
    write_solution(path, p, u, 0.0)
    out = workdir / "d3.render.csv"
    assert main(["render", "--in", str(path), "--grid", "4", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["x", "y", "z", "u"]
    assert len(rows) == 1 + 64


def _count_calls(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


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


def test_solution_roundtrip_lossless(workdir, solution_file):
    p, u, meta = read_solution(solution_file)
    again = workdir / "again.json"
    write_solution(again, p, u, meta["residual_float"], meta)
    p2, u2, meta2 = read_solution(again)
    assert np.array_equal(u.mid(), u2.mid())
    assert (p.lam, p.sigma, p.mu, p.f_coeffs) == (p2.lam, p2.sigma, p2.mu, p2.f_coeffs)
    assert meta2["residual_float"] == meta["residual_float"]


def test_certificate_roundtrip_lossless(workdir, solution_file):
    cert_path = workdir / "sol.lambda.cert.json"
    cert, sha = read_certificate(cert_path)
    from okvalid.files import write_certificate

    again = workdir / "cert2.json"
    write_certificate(again, cert, sha)
    cert2, sha2 = read_certificate(again)
    assert sha2 == sha
    for name in ("k", "kn", "tau", "rho", "delta_alpha", "delta_x", "l1", "l2", "l3", "l4"):
        assert getattr(cert, name) == getattr(cert2, name)


def test_usage_error_unknown_command():
    assert main(["frobnicate"]) == 1
