"""Solution and certificate JSON formats.

Floats are serialized with the shortest round-trip decimal representation
(Python's default), so write-then-read is bit-exact.  Certificates embed a
content hash of the solution file they were computed from, making stale
certificates detectable.
"""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
import json
import math

import numpy as np

from .cift import TOOL_VERSION, Certificate
from .operator import ModelParams
from .series import CosineSeries

FORMAT_VERSION = 1


class FileFormatError(ValueError):
    """Malformed or inconsistent solution/certificate file."""


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_params(prm: dict, path) -> ModelParams:
    """ModelParams from a file's params block; the type rejects non-finite values."""
    try:
        return ModelParams(
            lam=float(prm["lambda"]),
            sigma=float(prm["sigma"]),
            mu=float(prm["mu"]),
            f_coeffs=tuple(float(c) for c in prm["f_coeffs"]),
        )
    except ValueError as exc:
        raise FileFormatError(f"{exc} in {path}") from exc


# ---------------------------------------------------------------------------
# solution files
# ---------------------------------------------------------------------------

def solution_payload(p: ModelParams, u: CosineSeries, residual_float: float, meta: dict | None = None) -> dict:
    coeffs = u.mid()
    if coeffs[(0,) * u.dim] != 0.0:
        raise FileFormatError("solution coefficient of k = 0 must be zero")
    payload = {
        "format_version": FORMAT_VERSION,
        "dim": u.dim,
        "extent": list(u.extent),
        "params": {
            "lambda": p.lam,
            "sigma": p.sigma,
            "mu": p.mu,
            "f_coeffs": list(p.f_coeffs),
        },
        "coeffs": [float(c) for c in coeffs.ravel()],
        "meta": {
            "created": _utcnow(),
            "tool_version": TOOL_VERSION,
            "residual_float": float(residual_float),
            **(meta or {}),
        },
    }
    return payload


def write_solution(path, p: ModelParams, u: CosineSeries, residual_float: float, meta: dict | None = None) -> dict:
    payload = solution_payload(p, u, residual_float, meta)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return payload


def read_solution(path):
    """Returns (ModelParams, CosineSeries point series, meta dict)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot read solution file {path}: {exc}") from exc
    try:
        if payload["format_version"] != FORMAT_VERSION:
            raise FileFormatError(f"unsupported format_version {payload['format_version']}")
        extent = tuple(int(n) for n in payload["extent"])
        coeffs = np.asarray(payload["coeffs"], dtype=np.float64)
        if coeffs.size != int(np.prod(extent)):
            raise FileFormatError("coefficient count does not match extent")
        coeffs = coeffs.reshape(extent)
        if not np.all(np.isfinite(coeffs)):
            raise FileFormatError(f"non-finite coefficient in solution file {path}")
        if coeffs[(0,) * len(extent)] != 0.0:
            raise FileFormatError("solution coefficient of k = 0 must be zero")
        p = _read_params(payload["params"], path)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, FileFormatError):
            raise
        raise FileFormatError(f"malformed solution file {path}: {exc}") from exc
    u = CosineSeries.from_point(coeffs, zero_mean=True)
    return p, u, payload.get("meta", {})


# ---------------------------------------------------------------------------
# certificate files
# ---------------------------------------------------------------------------

def certificate_payload(cert: Certificate, solution_sha256: str | None) -> dict:
    payload = dataclasses.asdict(cert)
    prm = payload.pop("params")
    payload["params"] = {
        "lambda": prm["lam"],
        "sigma": prm["sigma"],
        "mu": prm["mu"],
        "f_coeffs": list(prm["f_coeffs"]),
    }
    payload["format_version"] = FORMAT_VERSION
    payload["solution_sha256"] = solution_sha256
    return payload


def write_certificate(path, cert: Certificate, solution_sha256: str | None) -> dict:
    payload = certificate_payload(cert, solution_sha256)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return payload


def read_certificate(path):
    """Returns (Certificate, solution_sha256)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot read certificate file {path}: {exc}") from exc
    try:
        if payload["format_version"] != FORMAT_VERSION:
            raise FileFormatError(f"unsupported format_version {payload['format_version']}")
        p = _read_params(payload["params"], path)
        fields = {
            f.name: payload.get(f.name)
            for f in dataclasses.fields(Certificate)
            if f.name != "params"
        }
        for name, value in fields.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise FileFormatError(f"non-finite {name} in certificate file {path}")
        fields["point_only"] = bool(fields.get("point_only"))
        fields["rounds"] = int(fields.get("rounds") or 0)
        fields["provenance"] = fields.get("provenance") or {}
        fields["reason"] = fields.get("reason") or ""
        cert = Certificate(params=p, **fields)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, FileFormatError):
            raise
        raise FileFormatError(f"malformed certificate file {path}: {exc}") from exc
    return cert, payload.get("solution_sha256")
