"""Load process of the kapteynq benchmark: one caller, closed loop.

Runs one workload's operations back to back, each issued after the last one
returned, checks every result, and prints one JSON object on stdout. It is
started by ``run.py`` in a fresh interpreter, so the Bessel table cache starts
empty, with ``src`` on ``PYTHONPATH`` and BLAS/OpenMP threads set to 1.

    python3 benchmarks/worker.py --workload sweep_cold --seed 1 --seconds 5 --trace 0
    python3 benchmarks/worker.py --workload sweep_cold --seed 1 --max-ops 40 --trace 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy

import kapteynq
from kapteynq import closed_C
from kapteynq import solver as _solver
from kapteynq import verify as _verify

import hostspeed as _hostspeed
import tracer as _tracer

# verify's numeric_closed_agreement tolerance on |C_numeric - closed_C| / closed_C
DC_TOL = 1e-10

WORKLOADS = ("sweep_cold", "a_scan_warm", "small_d", "verify")

_SWEEP_STRATA = 32
_SCAN_STRATA = 16
_A_GRID = tuple(0.5 + 1.5 * i / 15 for i in range(16))
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# small_d solves once in each window per round; see README.md for why the
# windows sit at the two ends of [0.01, 0.05] instead of spanning it
_SMALL_D_WINDOWS = ((0.00995, 0.0100), (0.0495, 0.0500))


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def rounds(workload: str, seed: int):
    """Endless stream of rounds; a round is a list of (D, a, timed) inputs.

    A sweep_cold or a_scan_warm round puts one D in each equal-width stratum
    of log D. All strata of a round share one offset inside their stratum, and
    the offset advances by the golden ratio from round to round, so the D of
    any run's first R rounds are spread evenly over the range: the mix of
    cheap and dear solves is the same from seed to seed. A small_d round
    solves once in each of its two windows. The seed picks the first offset,
    the points in the small_d windows, the order and a. ``timed`` is False for
    the untimed warm-up solve of a_scan_warm.
    """
    rng = random.Random(f"kapteynq-bench:{workload}:{seed}")
    offset = rng.random()
    while True:
        offset = (offset + _GOLDEN) % 1.0
        if workload == "sweep_cold":
            strata = list(range(_SWEEP_STRATA))
            rng.shuffle(strata)
            yield [(_log_uniform(0.1, 100.0, (k + offset) / _SWEEP_STRATA),
                    0.5 + 1.5 * rng.random(), True) for k in strata]
        elif workload == "a_scan_warm":
            strata = list(range(_SCAN_STRATA))
            rng.shuffle(strata)
            out = []
            for k in strata:
                d = _log_uniform(0.1, 100.0, (k + offset) / _SCAN_STRATA)
                out.append((d, 1.0, False))
                out.extend((d, a, True) for a in _A_GRID)
            yield out
        elif workload == "small_d":
            windows = list(_SMALL_D_WINDOWS)
            rng.shuffle(windows)
            yield [(_log_uniform(lo, hi, rng.random()), 0.5 + 1.5 * rng.random(), True)
                   for lo, hi in windows]
        else:
            raise ValueError(f"no seeded inputs for workload {workload!r}")


def _solve_op(D: float, a: float) -> dict:
    rec = {"D": D, "a": a, "ok": True, "wrong": False, "reason": None}
    t0 = time.perf_counter_ns()
    try:
        rep = _solver.solve_problem(kapteynq.Problem(D=D, a=a))
    except Exception as exc:  # an operation that raises is a counted failure
        rec["t"] = (t0, time.perf_counter_ns())
        rec.update(ok=False, reason=f"raised {type(exc).__name__}: {exc}",
                   values=["raised", type(exc).__name__])
        return rec
    rec["t"] = (t0, time.perf_counter_ns())
    cc = closed_C(D)
    rel = abs(rep.C_numeric - cc) / cc
    rec["rel_dC"] = rel
    rec["terms_used"] = list(rep.terms_used)
    rec["values"] = [float(v).hex() for v in (
        rep.C_numeric, rep.C1_numeric, rep.C2_numeric, rep.F, rep.F1, rep.F2,
        *rep.residuals)] + [rep.converged]
    if not rep.converged:
        rec.update(ok=False, reason=f"converged=False ({rep.diagnostics.get('reason')})")
    if not rel <= DC_TOL:
        rec.update(ok=False, wrong=True,
                   reason=f"|C_numeric - closed_C|/closed_C = {rel!r} > {DC_TOL}")
    return rec


def _verify_op() -> dict:
    rec = {"D": None, "a": None, "ok": True, "wrong": False, "reason": None}
    t0 = time.perf_counter_ns()
    try:
        report = _verify.run_verification()
    except Exception as exc:
        rec["t"] = (t0, time.perf_counter_ns())
        rec.update(ok=False, reason=f"raised {type(exc).__name__}: {exc}",
                   values=["raised", type(exc).__name__])
        return rec
    rec["t"] = (t0, time.perf_counter_ns())
    passed = _verify.verification_passed(report)
    stable = dict(report, runtime_ms=None)  # the only field that may differ run to run
    digest = hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()
    rec["values"] = [digest, passed]
    worst = report["results"]["numeric_closed_agreement"].get("max_error")
    rec["rel_dC"] = worst
    if not passed:
        parts = dict(report["results"], **{k: report[k] for k in (
            "residuals", "bounds", "identity_battery", "c2_adjudication")})
        failed = sorted(k for k, v in parts.items() if not v.get("passed"))
        rec.update(ok=False, wrong=True, reason=f"verification failed: {failed}")
    return rec


def run(workload: str, seed: int, seconds: float | None, max_ops: int | None,
        tr: _tracer.Tracer | None) -> list[dict]:
    """Timed operations of one workload; see ``_loop``.

    Untraced, the host-speed sampler runs alongside: ``ns`` is then an
    operation's wall time less the sampler's, and ``scaled_ns`` the same at
    the reference speed of ``hostspeed``. Traced, ``ns`` is the wall time.
    """
    if tr is not None:
        ops = _loop(workload, seed, seconds, max_ops, tr)
        for rec in ops:
            t0, t1 = rec.pop("t")
            rec["ns"] = t1 - t0
        return ops
    with _hostspeed.Sampler() as sampler:
        ops = _loop(workload, seed, seconds, max_ops, None)
    for rec in ops:
        t0, t1 = rec.pop("t")
        rec["ns"] = sampler.net_ns(t0, t1)
        rec["scaled_ns"] = sampler.scaled_ns(t0, t1)
    return ops


def _loop(workload: str, seed: int, seconds: float | None, max_ops: int | None,
          tr: _tracer.Tracer | None) -> list[dict]:
    """Closed loop over whole rounds until ``seconds`` elapsed, or ``max_ops`` ops."""
    ops: list[dict] = []
    if workload == "verify":
        stream = iter([[(None, None, True)]])  # one battery per process
    else:
        stream = rounds(workload, seed)
    start = time.perf_counter()
    for batch in stream:
        for D, a, timed in batch:
            if max_ops is not None and len(ops) >= max_ops:
                return ops
            if not timed:
                _solver.solve_problem(kapteynq.Problem(D=D, a=a))
                continue
            if tr is not None:
                tr.op = len(ops)
            rec = _verify_op() if workload == "verify" else _solve_op(D, a)
            if tr is not None:
                tr.op = None
                rec["traced_ns"] = tr.top_ns.get(len(ops), 0)
            ops.append(rec)
        if max_ops is None and time.perf_counter() - start >= seconds:
            return ops
    return ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--max-ops", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if (args.seconds is None) == (args.max_ops is None):
        ap.error("give exactly one of --seconds and --max-ops")

    src = Path(kapteynq.__file__).resolve().parent
    tr = None
    if args.trace:
        tr = _tracer.Tracer()
        _tracer.install(tr)
    ops = run(args.workload, args.seed, args.seconds, args.max_ops, tr)
    out = {
        "workload": args.workload,
        "package": str(src),
        "numpy": numpy.__version__,
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sums": _tracer.summarize(tr.spans) if tr is not None else None,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
