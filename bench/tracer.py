"""In-memory span recorder wrapped around okvalid's public functions.

The tracer replaces each traced function in every loaded ``okvalid`` module
namespace (so ``from .x import f`` bindings are caught too) with a wrapper
that records a span: name, start, end, parent span, op id and thread.  It
changes nothing in the program; ``uninstall`` puts the original functions
back.  A few wrappers also record counts taken from the call's arguments or
result (``Span.info``).

A span's self time is its duration minus the part of it that its child spans
cover; children that run in parallel threads are merged first.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from dataclasses import dataclass, field


def _mat_mul_info(args, kwargs, result):
    m, p = args[0].shape
    n = args[1].shape[1]
    # interval entries are two float64 endpoints: inputs read, output written
    return {"ops": m * p * n, "bytes": 16 * (m * p + p * n + m * n)}


def _populated(s):
    return int(((s.lo != 0.0) | (s.hi != 0.0)).sum())


def _multiply_info(args, kwargs, result):
    # the convolution loops over the populated modes of the sparser factor
    return {"populated": min(_populated(args[0]), _populated(args[1]))}


def _galerkin_info(args, kwargs, result):
    return {"modes": int(result.mat.rows)}


def _newton_info(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _write_info(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# module -> {function: what to count from its arguments or result, or None}
TRACED = {
    "intervals": {"mat_mul": _mat_mul_info, "mat_inverse_norm2_upper": None,
                  "mat_norm2_upper": None},
    "series": {"multiply": _multiply_info, "multiply_point": None, "norm": None,
               "sup_bound": None},
    "operator": {"residual_norm": None, "residual_series": None,
                 "linearization_coefficient": None, "poly_eval_series": None,
                 "poly_eval_series_point": None, "galerkin_matrix": _galerkin_info,
                 "galerkin_matrix_point": None, "galerkin_inverse_bound": None,
                 "derivative_inverse_bound": None, "auto_inverse_bound": None},
    "lipschitz": {"lipschitz_bounds": None, "poly_range_max": None},
    "cift": {"validate": None, "solve_radii": None, "verify_certificate": None},
    "newton": {"newton_solve": _newton_info, "residual_point": None,
               "parameter_walk": None},
    "files": {"write_certificate": _write_info, "read_certificate": None,
              "write_solution": None, "read_solution": None},
    "cli": {"main": None, "cmd_sweep": None},
}
SPAN_NAMES = {"cli.cmd_sweep": "cli.sweep"}


@dataclass
class Span:
    name: str
    parent: int | None
    op: object
    thread: int
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self.peak_matrix_bytes = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a pool thread's first span belongs to the span that started the pool
            parent = self._op_stack[-1] if self._op_stack else None
        span = Span(name, parent, self.op, threading.get_ident())
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        stack.append(idx)
        span.start = time.perf_counter()
        return idx

    def _close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack().pop()
        return span

    def begin_op(self, op) -> int:
        """Open the root span of one benchmark operation on this thread."""
        self.op = op
        self._op_stack = self._stack()
        return self._open("op")

    def end_op(self, idx: int) -> Span:
        return self._close(idx)

    def _wrap(self, name: str, fn, info):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer._close(idx)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds that recording one span adds to a call (timed on a no-op)."""

        def noop():
            return None

        wrapped = self._wrap("calibration", noop, None)
        keep = len(self.spans)
        t = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t
        t = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - t
        del self.spans[keep:]
        return max(traced - bare, 0.0) / calls

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every traced function that the loaded okvalid modules define."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "okvalid" or k.startswith("okvalid."))]
        for short, funcs in TRACED.items():
            home = sys.modules.get(f"okvalid.{short}")
            for fname, info in funcs.items():
                fn = getattr(home, fname, None)
                if fn is None:
                    continue  # a later version of the program may drop it
                name = SPAN_NAMES.get(f"{short}.{fname}", f"{short}.{fname}")
                wrapped = self._wrap(name, fn, info)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            self._patches.append((mod, attr, fn))
                            setattr(mod, attr, wrapped)
        matrix = getattr(sys.modules.get("okvalid.intervals"), "IntervalMatrix", None)
        post_init = getattr(matrix, "__post_init__", None)
        if post_init is not None:
            tracer = self

            @functools.wraps(post_init)
            def counted(obj):
                post_init(obj)
                tracer.peak_matrix_bytes = max(tracer.peak_matrix_bytes,
                                               obj.lo.nbytes + obj.hi.nbytes)

            self._patches.append((matrix, "__post_init__", post_init))
            matrix.__post_init__ = counted

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# -- arithmetic on span trees -----------------------------------------------

def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Self time of every span: its duration minus what its children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [s.end - s.start - covered(s.start, s.end, children[i])
            for i, s in enumerate(spans)]


# -- per-layer metrics ------------------------------------------------------

# (metric, unit).  Values are per operation, averaged over the traced ops
# (whole workload cycles), unless the name says otherwise in README.md.
PER_LAYER = [
    ("intervals.mat_mul.calls", "count"),
    ("intervals.mat_mul.self_s", "s"),
    ("intervals.mat_mul.ops_computed", "count"),
    ("intervals.mat_mul.bytes_computed", "bytes"),
    ("intervals.mat_mul.share_frac", "ratio"),
    ("intervals.mat_inverse_norm2_upper.calls", "count"),
    ("intervals.mat_inverse_norm2_upper.self_s", "s"),
    ("intervals.mat_norm2_upper.calls", "count"),
    ("intervals.mat_norm2_upper.self_s", "s"),
    ("intervals.matrix_peak_bytes", "bytes"),
    ("intervals.self_s", "s"),
    ("series.multiply.calls", "count"),
    ("series.multiply.self_s", "s"),
    ("series.multiply.populated_modes", "count"),
    ("series.multiply_point.calls", "count"),
    ("series.multiply_point.self_s", "s"),
    ("series.norm.calls", "count"),
    ("series.norm.self_s", "s"),
    ("series.sup_bound.calls", "count"),
    ("series.sup_bound.self_s", "s"),
    ("series.self_s", "s"),
    ("operator.residual_norm.calls", "count"),
    ("operator.residual_norm.self_s", "s"),
    ("operator.linearization_coefficient.calls", "count"),
    ("operator.linearization_coefficient.self_s", "s"),
    ("operator.galerkin_matrix.calls", "count"),
    ("operator.galerkin_matrix.self_s", "s"),
    ("operator.galerkin_matrix.modes", "count"),
    ("operator.galerkin_matrix_point.calls", "count"),
    ("operator.galerkin_matrix_point.self_s", "s"),
    ("operator.derivative_inverse_bound.calls", "count"),
    ("operator.auto_inverse_bound.useful_ratio", "ratio"),
    ("operator.self_s", "s"),
    ("lipschitz.lipschitz_bounds.calls", "count"),
    ("lipschitz.lipschitz_bounds.self_s", "s"),
    ("lipschitz.poly_range_max.calls", "count"),
    ("lipschitz.poly_range_max.self_s", "s"),
    ("lipschitz.self_s", "s"),
    ("cift.validate.calls", "count"),
    ("cift.validate.self_s", "s"),
    ("cift.solve_radii.calls", "count"),
    ("cift.solve_radii.self_s", "s"),
    ("cift.verify_certificate.calls", "count"),
    ("cift.verify_certificate.self_s", "s"),
    ("cift.self_s", "s"),
    ("newton.newton_solve.calls", "count"),
    ("newton.newton_solve.self_s", "s"),
    ("newton.iterations", "count"),
    ("newton.residual_point.calls", "count"),
    ("newton.residual_point.self_s", "s"),
    ("newton.self_s", "s"),
    ("files.write_certificate.self_s", "s"),
    ("files.read_certificate.self_s", "s"),
    ("files.bytes_written", "bytes"),
    ("files.self_s", "s"),
    ("cli.sweep.pool_workers", "count"),
    ("cli.sweep.parallel_ratio", "ratio"),
    ("cli.self_s", "s"),
    ("setup.import_s", "s"),
    ("setup.newton.newton_solve.wall_s", "s"),
    ("setup.newton.iterations", "count"),
    ("trace.coverage_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.op_s", "s"),
    ("trace.untraced_op_s", "s"),
]
MODULES = ("intervals", "series", "operator", "lipschitz", "cift", "newton", "files", "cli")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, n_ops: int) -> dict:
    """Per-op layer metrics from the spans of `n_ops` traced operations.

    Spans whose op is "setup" feed only the setup.* metrics.  The trace.*
    metrics that need untraced timings, and the ones kept by the tracer
    itself, are filled in by the caller.
    """
    selfs = self_times(spans)
    calls, self_s, info = {}, {}, {}
    setup = {"wall_s": 0.0, "iterations": 0}
    op_wall = op_self = busy = 0.0
    for span, st in zip(spans, selfs):
        if span.op == "setup":
            if span.name == "newton.newton_solve":
                setup["wall_s"] += span.end - span.start
                setup["iterations"] += span.info.get("iterations", 0)
            continue
        busy += st
        if span.name == "op":
            op_wall += span.end - span.start
            op_self += st
            continue
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + st
        for key, val in span.info.items():
            agg = info.setdefault(span.name, {})
            agg[key] = max(agg.get(key, 0), val) if key == "modes" else agg.get(key, 0) + val

    def per_op(x):
        return x / n_ops

    out = {}
    for metric, _unit in PER_LAYER:
        head, _, tail = metric.rpartition(".")
        if tail == "calls":
            out[metric] = per_op(calls.get(head, 0))
        elif tail == "self_s" and head in MODULES:
            out[metric] = per_op(sum(v for k, v in self_s.items() if k.split(".")[0] == head))
        elif tail == "self_s" and not head.startswith("setup"):
            out[metric] = per_op(self_s.get(head, 0.0))
    mm = info.get("intervals.mat_mul", {})
    out["intervals.mat_mul.ops_computed"] = per_op(mm.get("ops", 0))
    out["intervals.mat_mul.bytes_computed"] = per_op(mm.get("bytes", 0))
    # share of the busy time (all self time: pool threads count separately)
    out["intervals.mat_mul.share_frac"] = _ratio(self_s.get("intervals.mat_mul", 0.0), busy)
    out["series.multiply.populated_modes"] = per_op(info.get("series.multiply", {}).get("populated", 0))
    out["operator.galerkin_matrix.modes"] = info.get("operator.galerkin_matrix", {}).get("modes", 0)
    out["newton.iterations"] = per_op(info.get("newton.newton_solve", {}).get("iterations", 0))
    out["files.bytes_written"] = per_op(info.get("files.write_certificate", {}).get("bytes", 0))
    out["setup.newton.newton_solve.wall_s"] = setup["wall_s"]
    out["setup.newton.iterations"] = setup["iterations"]
    out["trace.coverage_frac"] = _ratio(op_wall - op_self, op_wall)
    out["trace.op_s"] = per_op(op_wall)

    # one certified bound per validate is useful; every further truncation
    # that auto_inverse_bound tried was not
    is_auto = [s.op != "setup" and s.name == "operator.auto_inverse_bound" for s in spans]
    dib = [s for s in spans if s.op != "setup" and s.name == "operator.derivative_inverse_bound"]
    useful = sum(is_auto) + sum(1 for s in dib if s.parent is None or not is_auto[s.parent])
    out["operator.auto_inverse_bound.useful_ratio"] = _ratio(useful, len(dib))

    workers, ratios = [], []
    for i, span in enumerate(spans):
        if span.name == "cli.sweep":
            kids = [s for s in spans if s.parent == i and s.name == "cift.validate"]
            workers.append(len({s.thread for s in kids}))
            ratios.append(_ratio(sum(s.end - s.start for s in kids), span.end - span.start))
    out["cli.sweep.pool_workers"] = max(workers, default=0)
    out["cli.sweep.parallel_ratio"] = _ratio(sum(ratios), len(ratios))
    return out
