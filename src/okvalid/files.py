"""Solution and certificate JSON formats.

Floats are serialized with the shortest round-trip decimal representation
(Python's default), so write-then-read is bit-exact.  Certificates embed a
content hash of the solution file they were computed from, making stale
certificates detectable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import sys
import typing

import numpy as np

from .cift import TOOL_VERSION, Certificate, _utcnow
from .operator import PARAMETERS, ModelParams, memory_shortfall
from .series import CosineSeries

FORMAT_VERSION = 1

# Peak bytes that json.load holds per byte of the file, the file's text
# included.  Measured with tracemalloc: 2.6 on a written 2-d solution of
# random coefficients, 7.3 on a written 3-d zero solution, 13 on a compact
# list of 0.0, and 23.4 on a list of empty objects, the most memory that
# JSON asks for per byte.
JSON_PEAK_FACTOR = 24


class FileFormatError(ValueError):
    """Malformed or inconsistent solution/certificate file."""


def file_sha256(path) -> str:
    """The sha256 of the file at path, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path, payload: dict) -> dict:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return payload


def _read_json(path, kind: str, parse):
    """parse(payload, path) of the JSON file at path, a kind file of this
    format_version; a file that cannot be read, parsed or held in memory
    while parsed, another version and malformed content all raise
    FileFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            need = JSON_PEAK_FACTOR * os.fstat(fh.fileno()).st_size
            short = memory_shortfall(need, f"{kind} file {path}", "JSON parse")
            payload = None if short else json.load(fh)
    # JSONDecodeError, an integer past int's string limit, or nesting past the recursion limit
    except (OSError, ValueError, RecursionError) as exc:
        raise FileFormatError(f"cannot read {kind} file {path}: {exc}") from exc
    if short:
        raise FileFormatError(short)
    try:
        if payload["format_version"] != FORMAT_VERSION:
            raise FileFormatError(f"unsupported format_version {payload['format_version']}")
        return parse(payload, path)
    except FileFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"malformed {kind} file {path}: {exc}") from exc


def _params_block(p: ModelParams) -> dict:
    return {**{name: p.get(name) for name in PARAMETERS}, "f_coeffs": list(p.f_coeffs)}


def _number(value, name: str, path) -> float:
    """A JSON number as a float, by _certificate_field's rule: an integer
    stands for a float, and a bool or a string is not a number."""
    if type(value) not in (int, float):
        raise FileFormatError(f"{name} must be a number, not {type(value).__name__}, in {path}")
    return float(value)


def _read_params(prm: dict, path) -> ModelParams:
    """ModelParams, which takes the PARAMETERS in their order, from a file's
    params block; the type rejects non-finite values."""
    values = [_number(prm[name], name, path) for name in PARAMETERS]
    f_coeffs = tuple(_number(c, "f_coeffs", path) for c in prm["f_coeffs"])
    try:
        return ModelParams(*values, f_coeffs=f_coeffs)
    except ValueError as exc:
        raise FileFormatError(f"{exc} in {path}") from exc


# ---------------------------------------------------------------------------
# solution files
# ---------------------------------------------------------------------------

def solution_payload(p: ModelParams, u: CosineSeries, residual_float: float, meta: dict | None = None) -> dict:
    coeffs = u.mid()
    if coeffs[(0,) * u.dim] != 0.0:
        raise FileFormatError("solution coefficient of k = 0 must be zero")
    return {
        "format_version": FORMAT_VERSION,
        "dim": u.dim,
        "extent": list(u.extent),
        "params": _params_block(p),
        "coeffs": [float(c) for c in coeffs.ravel()],
        "meta": {
            "created": _utcnow(),
            "tool_version": TOOL_VERSION,
            "residual_float": float(residual_float),
            **(meta or {}),
        },
    }


def write_solution(path, p: ModelParams, u: CosineSeries, residual_float: float, meta: dict | None = None) -> dict:
    return _write_json(path, solution_payload(p, u, residual_float, meta))


def _solution_of(payload: dict, path):
    extent, dim, coeffs = payload["extent"], payload["dim"], payload["coeffs"]
    if not (type(extent) is list and 1 <= len(extent) <= 3
            and all(type(n) is int and n >= 1 for n in extent)):
        raise FileFormatError(f"extent {extent!r:.60} is not 1 to 3 positive integers in {path}")
    extent = tuple(extent)
    if type(dim) is not int or dim != len(extent):
        raise FileFormatError(f"dim {dim!r:.20} is not the integer {len(extent)}, the length of "
                              f"extent {list(extent)}, in {path}")
    if type(coeffs) is not list or not {type(c) for c in coeffs} <= {int, float}:
        raise FileFormatError(f"coeffs must be a list of numbers in {path}")
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.size != math.prod(extent):
        raise FileFormatError("coefficient count does not match extent")
    coeffs = coeffs.reshape(extent)
    if not np.all(np.isfinite(coeffs)):
        raise FileFormatError(f"non-finite coefficient in solution file {path}")
    if coeffs[(0,) * len(extent)] != 0.0:
        raise FileFormatError("solution coefficient of k = 0 must be zero")
    p = _read_params(payload["params"], path)
    return p, CosineSeries.from_point(coeffs), payload.get("meta", {})


def read_solution(path):
    """Returns (ModelParams, CosineSeries point series, meta dict)."""
    return _read_json(path, "solution", _solution_of)


# ---------------------------------------------------------------------------
# certificate files
# ---------------------------------------------------------------------------

def certificate_payload(cert: Certificate, solution_sha256: str | None) -> dict:
    payload = dataclasses.asdict(cert)
    del payload["params"]  # written after the other fields
    payload["params"] = _params_block(cert.params)
    payload["format_version"] = FORMAT_VERSION
    payload["solution_sha256"] = solution_sha256
    return payload


def write_certificate(path, cert: Certificate, solution_sha256: str | None) -> dict:
    return _write_json(path, certificate_payload(cert, solution_sha256))


_FIELD_TYPES = typing.get_type_hints(Certificate)


def _certificate_field(f: dataclasses.Field, value, path):
    """A certificate field's JSON value, checked against the field's type: a
    JSON integer stands for a float within the double range, and a null or
    absent value takes the field's default."""
    if value is None and f.default is not dataclasses.MISSING:
        return f.default
    if value is None and f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    kind = _FIELD_TYPES[f.name]
    if type(value) is int and isinstance(0.0, kind):
        try:
            value = float(value)
        except OverflowError:
            raise FileFormatError(f"{f.name} beyond the double range in certificate file {path}") from None
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        name = getattr(kind, "__name__", kind)
        raise FileFormatError(
            f"{f.name} must be {name}, not {type(value).__name__}, in certificate file {path}"
        )
    if isinstance(value, float) and not math.isfinite(value):
        raise FileFormatError(f"non-finite {f.name} in certificate file {path}")
    return value


def _certificate_of(payload: dict, path):
    p = _read_params(payload["params"], path)
    fields = {
        f.name: _certificate_field(f, payload.get(f.name), path)
        for f in dataclasses.fields(Certificate)
        if f.name != "params"
    }
    if fields["which"] not in PARAMETERS:
        raise FileFormatError(f"unknown parameter {fields['which']!r} in certificate file {path}")
    # a valid certificate's n is replayed as a double; an invalid one's records any truncation tried
    if fields["valid"] and not (fields["n"] or 0) <= sys.float_info.max:
        raise FileFormatError(f"n beyond the double range in certificate file {path}")
    return Certificate(params=p, **fields), payload.get("solution_sha256")


def read_certificate(path):
    """Returns (Certificate, solution_sha256)."""
    return _read_json(path, "certificate", _certificate_of)
