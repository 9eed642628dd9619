"""Span recording around calls into the kapteynq layers, from outside the package.

``install`` replaces module attributes of ``kapteynq.bessel``, ``kapteynq.kapteyn``,
``kapteynq.solver`` and ``kapteynq.verify`` with recording wrappers. Every binding
of a wrapped function is replaced, including the names other modules imported
(``solver.eval_F``, ``verify.solve_problem``, the package re-exports), so a call
is recorded whichever name it goes through. Nothing under ``src/`` changes.

A span is (name, operation index, duration, self time, info). Self time is the
duration minus the time covered by child spans, so the self times of all spans
of one operation add up to the time that operation spent inside traced calls.
Spans are kept in memory and reduced to sums by ``summarize`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

LAYERS = ("bessel", "kapteyn", "solver", "verify")

# Every entry point the benchmark wraps, as (module, attribute). A missing
# attribute stops the benchmark instead of reporting its layer as zero.
ENTRY_POINTS = (
    ("bessel", "diagonal_table"),
    ("bessel", "_diagonal_table_cached"),
    ("bessel", "_jn_series"),
    ("bessel", "_miller_diag_block"),
    ("bessel", "_debye_batch"),
    ("bessel", "_diag_point"),
    ("bessel", "_interp_band"),
    ("kapteyn", "eval_F"),
    ("kapteyn", "eval_F1"),
    ("kapteyn", "eval_F2"),
    ("kapteyn", "_eval_series"),
    ("kapteyn", "eval_trig_sums"),
    ("solver", "solve_problem"),
    ("solver", "solve_C_numeric"),
    ("solver", "_f_exceeds"),
    ("solver", "solve_C1_numeric"),
    ("solver", "solve_C2_numeric"),
    ("solver", "residuals"),
    ("verify", "run_verification"),
    ("verify", "_check"),
)

# The checks of verify.run_verification, by the name of the function _check runs.
VERIFY_CHECKS = (
    "closed_form_exactness",
    "numeric_closed_agreement",
    "small_d_asymptotics",
    "large_d_asymptotics",
    "exact_series_check",
    "c1_closed_form",
    "proof_trace_check",
    "residuals_check",
    "bounds_check",
    "identity_battery",
    "c2_adjudication",
)

_PACKAGE_MODULES = ("kapteynq", "kapteynq.bessel", "kapteynq.kapteyn", "kapteynq.solver",
                    "kapteynq.verify", "kapteynq.cli", "kapteynq.closedform",
                    "kapteynq.kepler")

_BUILD = "bessel._diagonal_table_cached"
_INTERP = "bessel._interp_band"


class Frame:
    __slots__ = ("name", "args", "start", "child_ns", "children")

    def __init__(self, name, args):
        self.name = name
        self.args = args
        self.start = 0
        self.child_ns = 0
        self.children = 0


def _info_series(frame, result, ancestors):
    # counts the table orders the power series serves: calls J_n(n*eps) made
    # inside a table build (J_{n-1} and J_{n+1} for the derivative are not orders)
    n, x = frame.args[0], frame.args[1]
    for anc in reversed(ancestors):
        if anc.name == _BUILD:
            return n * anc.args[0] == x
    return False


def _info_in_interp(frame, result, ancestors):
    return any(anc.name == _INTERP for anc in ancestors)


_INFO = {
    _BUILD: lambda f, r, a: (float(f.args[0]), int(f.args[1]), f.children > 0),
    "bessel._jn_series": _info_series,
    "bessel._miller_diag_block": lambda f, r, a: int(f.args[2]) - int(f.args[1]) + 1,
    "bessel._debye_batch": lambda f, r, a: len(f.args[0]),
    "bessel._diag_point": _info_in_interp,
    _INTERP: lambda f, r, a: len(f.args[1]),
    "kapteyn._eval_series": lambda f, r, a: (r.terms_used, r.converged),
    "solver.solve_C_numeric": lambda f, r, a: int(r[1]["iterations"]),
    "verify._check": lambda f, r, a: getattr(f.args[0], "__name__", "?"),
}


class Tracer:
    """Collects spans while ``op`` holds the index of the operation being timed."""

    def __init__(self):
        self.stack: list[Frame] = []
        self.spans: list[tuple] = []
        self.top_ns: dict[int, int] = defaultdict(int)
        self.op: int | None = None

    def wrap(self, name, fn):
        info = _INFO.get(name)
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            frame = Frame(name, args)
            stack.append(frame)
            result = None
            ok = False
            frame.start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dur = clock() - frame.start
                stack.pop()
                if stack:
                    stack[-1].child_ns += dur
                    stack[-1].children += 1
                else:
                    self.top_ns[op] += dur
                detail = info(frame, result, stack) if (info and ok) else None
                spans.append((name, op, dur, dur - frame.child_ns, detail))

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every entry point and all of its bindings."""
    modules = [importlib.import_module(m) for m in _PACKAGE_MODULES]
    originals = []
    for mod_name, attr in ENTRY_POINTS:  # check them all before wrapping any
        original = getattr(importlib.import_module(f"kapteynq.{mod_name}"), attr, None)
        if original is None or not callable(original):
            raise RuntimeError(
                f"kapteynq.{mod_name}.{attr} is missing or not callable; the "
                "benchmark's ENTRY_POINTS table must follow the rename"
            )
        originals.append((f"{mod_name}.{attr}", original))
    for name, original in originals:
        wrapper = tracer.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def summarize(spans) -> dict:
    """Reduce spans to per-layer sums (counts, and times in ns)."""
    s = defaultdict(float)
    built_max: dict[float, int] = {}
    for name, _op, dur, self_ns, detail in spans:
        s["layer." + name.split(".", 1)[0] + ".self_ns"] += self_ns
        if name == "bessel.diagonal_table":
            s["table.lookups"] += 1
        elif name == _BUILD:
            eps, n_max, built = detail
            if built:
                s["table.builds"] += 1
                s["table.build_ns"] += dur
                s["table.orders_built"] += n_max
                s["table.orders_rebuilt"] += min(n_max, built_max.get(eps, 0))
                built_max[eps] = max(n_max, built_max.get(eps, 0))
        elif name == "bessel._jn_series":
            s["series.orders"] += 1 if detail else 0
            s["series.ns"] += self_ns
        elif name == "bessel._miller_diag_block":
            s["miller_block.orders"] += detail
            s["miller_block.ns"] += self_ns
        elif name == "bessel._debye_batch":
            s["debye.orders"] += detail
            s["debye.ns"] += self_ns
        elif name == "bessel._diag_point":
            key = "interp.anchors" if detail else "direct_band.orders"
            s[key] += 1
            if not detail:
                s["direct_band.ns"] += dur
        elif name == _INTERP:
            s["interp.orders"] += detail
            s["interp.ns"] += dur
        elif name == "kapteyn._eval_series":
            s["kapteyn.series.ns"] += self_ns
            if detail is not None:
                terms, converged = detail
                s["kapteyn.evals"] += 1
                s["kapteyn.terms"] += terms
                s["kapteyn.unconverged"] += 0 if converged else 1
        elif name in ("kapteyn.eval_F", "kapteyn.eval_F1", "kapteyn.eval_F2"):
            s["kapteyn.series.ns"] += self_ns
        elif name == "kapteyn.eval_trig_sums":
            s["trig.calls"] += 1
            s["trig.ns"] += self_ns
        elif name == "solver._f_exceeds":
            s["bracket.ns"] += self_ns
        elif name == "solver.solve_C_numeric":
            s["root.ns"] += dur
            s["newton.iters"] += detail or 0
        elif name in ("solver.solve_C1_numeric", "solver.solve_C2_numeric"):
            s["c1c2.ns"] += dur
        elif name == "solver.solve_problem":
            s["solves"] += 1
        elif name == "verify._check":
            check = detail if detail in VERIFY_CHECKS else "other"
            s[f"check.{check}.ns"] += dur
            s[f"check.{check}.calls"] += 1
    return dict(s)
