"""kapteynq benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 benchmarks/run.py --workload sweep_cold --seed 1 --seconds 12 --trace 0

Run from the repository root. The package is imported from ``src/`` of the
same checkout. The operations run in a fresh worker process (see
``worker.py``); this process measures set-up time, collects the workers'
records, checks them and prints the result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 1 the run is made twice on the same inputs, untraced and then
traced. The per-layer metrics come from the traced pass; the two passes must
give bit-identical numbers, and their wall-time difference is reported as the
tracing overhead. README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from tracer import LAYERS, VERIFY_CHECKS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("sweep_cold", "a_scan_warm", "small_d", "verify")
SETUP_SAMPLES = 9
SETUP_REF_KERNELS = 5
# a run must end within 180 s; child processes are killed at this deadline
DEADLINE_S = 175.0
_START = time.monotonic()
# per operation, traced time outside any traced call may not exceed this share
# of its wall time plus a fixed allowance for the benchmark's own call
UNATTRIBUTED_SHARE = 0.01
UNATTRIBUTED_NS = 100_000
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _call(cmd: list[str], env: dict) -> subprocess.CompletedProcess:
    left = DEADLINE_S - (time.monotonic() - _START)
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(left, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"run exceeded {DEADLINE_S} s; stopped {cmd[1]}") from exc


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in _THREAD_VARS:
        env[var] = "1"
    return env


def measure_setup(env: dict) -> float:
    """Median time for a fresh interpreter to finish ``import kapteynq``.

    Each sample is scaled to the reference speed by the reference kernel,
    timed just before and just after it on the same CPU.
    """
    cmd = [sys.executable, "-c", "import kapteynq"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        ref = [hostspeed.timed_kernel() for _ in range(SETUP_REF_KERNELS)]
        t0 = time.perf_counter_ns()
        proc = _call(cmd, env)
        dt = time.perf_counter_ns() - t0
        ref += [hostspeed.timed_kernel() for _ in range(SETUP_REF_KERNELS)]
        if proc.returncode != 0:
            raise BenchError(f"import kapteynq failed:\n{proc.stderr}")
        if i:  # the first one may compile bytecode; it is not a sample
            samples.append(dt * hostspeed.REF_NS / statistics.median(ref) / 1e9)
    return statistics.median(samples)


def run_worker(env: dict, workload: str, seed: int, trace: bool, *,
               seconds: float | None = None, max_ops: int | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    cmd += ["--seconds", repr(seconds)] if max_ops is None else ["--max-ops", str(max_ops)]
    proc = _call(cmd, env)
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(out["package"]) != (SRC / "kapteynq").resolve():
        raise BenchError(f"worker imported kapteynq from {out['package']}, not {SRC}")
    return out


def run_pass(env: dict, workload: str, seed: int, trace: bool, *,
             seconds: float | None = None, max_ops: int | None = None) -> dict:
    """One pass: all of a workload's ops, with their peak RSS and trace sums.

    ``verify`` runs one battery per worker process, so that every battery
    starts with an empty table cache as the CLI's does, and starts workers
    until ``seconds`` have passed (or ``max_ops`` batteries have run).
    """
    if workload != "verify":
        return run_worker(env, workload, seed, trace, seconds=seconds, max_ops=max_ops)
    merged = {"ops": [], "peak_rss_mb": 0.0, "sums": {} if trace else None, "numpy": None}
    start = time.perf_counter()
    while True:
        done = len(merged["ops"])
        if max_ops is not None and done >= max_ops:
            break
        if max_ops is None and done and time.perf_counter() - start >= seconds:
            break
        out = run_worker(env, workload, seed, trace, max_ops=1)
        merged["ops"] += out["ops"]
        merged["numpy"] = out["numpy"]
        merged["peak_rss_mb"] = max(merged["peak_rss_mb"], out["peak_rss_mb"])
        if trace:
            for key, val in out["sums"].items():
                merged["sums"][key] = merged["sums"].get(key, 0.0) + val
    return merged


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def env_record() -> dict:
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():  # the checkout may not be a git repository
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref.removeprefix("ref: ")
        if ref_file.is_file():
            commit = ref_file.read_text().strip()
        elif not ref.startswith("ref: "):
            commit = ref  # detached HEAD
    return {
        "python": platform.python_version(),
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "commit": commit,
        "loadavg_start": list(os.getloadavg()),
    }


def check_ops(ops: list[dict]) -> tuple[int, bool]:
    """Print every failed operation; returns (failed count, all numbers right)."""
    failed = 0
    for rec in ops:
        if not rec["ok"]:
            failed += 1
            print(f"FAIL D={rec['D']!r} a={rec['a']!r}: {rec['reason']}")
    return failed, not any(rec["wrong"] for rec in ops)


def accuracy(workload: str, ops: list[dict]) -> dict:
    rels = [r["rel_dC"] for r in ops if r.get("rel_dC") is not None]
    terms = [r["terms_used"] for r in ops if r.get("terms_used")]
    acc = {"workload": workload, "samples": len(ops),
           "max_rel_dC": max(rels) if rels else None}
    if terms:
        acc["terms_used_max"] = [max(t[i] for t in terms) for i in range(3)]
    return acc


def e2e_metrics(ops: list[dict], peak_rss_mb: float, setup_s: float) -> tuple[dict, dict]:
    ms = [r["scaled_ns"] / 1e6 for r in ops]
    p90 = percentile(ms, 90)
    beyond = sum(1 for v in ms if v > p90)
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_ms.p50": {"value": statistics.median(ms), "unit": "ms"},
        "op_ms.p90": {"value": p90, "unit": "ms"},
        "ops_per_s": {"value": len(ms) / (sum(ms) / 1e3), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
    }
    notes = {"samples": len(ms), "samples_beyond_p90": beyond,
             "p90_resolved": beyond >= 10,
             "unscaled_op_ms.p50": statistics.median(r["ns"] for r in ops) / 1e6}
    return metrics, notes


def layer_metrics(sums: dict, ops: list[dict], base_ops: list[dict]) -> dict:
    n = len(ops)
    get = sums.get

    def per_op(key, scale=1.0):
        return get(key, 0.0) * scale / n

    lookups = get("table.lookups", 0.0)
    solves = get("solves", 0.0)
    wall = sum(r["ns"] for r in ops)
    base_wall = sum(r["ns"] for r in base_ops)
    covered = sum(r["traced_ns"] for r in ops)
    ms = 1e-6
    m = {
        "fail_frac": (sum(1 for r in ops if not r["ok"]) / n, "ratio"),
        "bessel.table.lookups": (per_op("table.lookups"), "count/op"),
        "bessel.table.builds": (per_op("table.builds"), "count/op"),
        "bessel.table.hit_ratio": ((lookups - get("table.builds", 0.0)) / lookups
                                   if lookups else 0.0, "ratio"),
        "bessel.table.build_ms": (per_op("table.build_ns", ms), "ms/op"),
        "bessel.table.orders_built": (per_op("table.orders_built"), "orders/op"),
        "bessel.table.orders_rebuilt": (per_op("table.orders_rebuilt"), "orders/op"),
    }
    for path in ("series", "miller_block", "debye", "direct_band"):
        m[f"bessel.{path}.orders"] = (per_op(f"{path}.orders"), "orders/op")
        m[f"bessel.{path}.ms"] = (per_op(f"{path}.ns", ms), "ms/op")
    m.update({
        "bessel.interp.anchors": (per_op("interp.anchors"), "count/op"),
        "bessel.interp.orders": (per_op("interp.orders"), "orders/op"),
        "bessel.interp.ms": (per_op("interp.ns", ms), "ms/op"),
        "kapteyn.evals": (per_op("kapteyn.evals"), "count/op"),
        "kapteyn.evals_per_solve": (get("kapteyn.evals", 0.0) / solves if solves else 0.0,
                                    "count/solve"),
        "kapteyn.series.ms": (per_op("kapteyn.series.ns", ms), "ms/op"),
        "kapteyn.terms": (per_op("kapteyn.terms"), "count/op"),
        "kapteyn.unconverged": (per_op("kapteyn.unconverged"), "count/op"),
        "kapteyn.trig.calls": (per_op("trig.calls"), "count/op"),
        "kapteyn.trig.ms": (per_op("trig.ns", ms), "ms/op"),
        "solver.bracket.ms": (per_op("bracket.ns", ms), "ms/op"),
        "solver.root.ms": (per_op("root.ns", ms), "ms/op"),
        "solver.newton.iters": (per_op("newton.iters"), "count/op"),
        "solver.c1c2.ms": (per_op("c1c2.ns", ms), "ms/op"),
    })
    for check in VERIFY_CHECKS + ("other",):
        m[f"verify.check_ms.{check}"] = (per_op(f"check.{check}.ns", ms), "ms/op")
    for layer in LAYERS:
        m[f"layer.{layer}.self_ms"] = (per_op(f"layer.{layer}.self_ns", ms), "ms/op")
    m["trace.unattributed_frac"] = ((wall - covered) / wall, "ratio")
    m["trace.overhead_ms"] = ((wall - base_wall) / n * ms, "ms/op")
    m["trace.overhead_frac"] = ((wall - base_wall) / base_wall, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def check_trace(workload: str, sums: dict, ops: list[dict]) -> None:
    """Stop if the spans do not account for the operations they traced."""
    for i, rec in enumerate(ops):
        gap = rec["ns"] - rec["traced_ns"]
        if gap < 0 or gap > UNATTRIBUTED_SHARE * rec["ns"] + UNATTRIBUTED_NS:
            raise BenchError(
                f"op {i}: layer self times cover {rec['traced_ns']} ns of its "
                f"{rec['ns']} ns wall time; a call path escaped the wrappers")
    if workload == "verify":
        missing = [c for c in VERIFY_CHECKS if not sums.get(f"check.{c}.calls")]
        if missing:
            raise BenchError(f"verify checks not seen by the wrapper: {missing}")


def same_results(a: list[dict], b: list[dict]) -> bool:
    if len(a) != len(b):
        return False
    return all(x["values"] == y["values"] and x["ok"] == y["ok"] and x["D"] == y["D"]
               and x["a"] == y["a"] for x, y in zip(a, b))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="kapteynq benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "kapteynq" / "__init__.py").is_file():
        print(f"benchmark: no package at {SRC / 'kapteynq'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # one CPU for this process and its children, so that the reference kernel
    # runs where the measured code runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = child_env()
    record = env_record()

    if not args.trace:
        setup_s = measure_setup(env)
        res = run_pass(env, args.workload, args.seed, False, seconds=args.seconds)
        ops = res["ops"]
        failed, correct = check_ops(ops)
        metrics, notes = e2e_metrics(ops, res["peak_rss_mb"], setup_s)
        print("samples " + json.dumps(notes))
    else:
        base = run_pass(env, args.workload, args.seed, False, seconds=args.seconds)
        res = run_pass(env, args.workload, args.seed, True, max_ops=len(base["ops"]))
        ops = res["ops"]
        check_trace(args.workload, res["sums"], ops)
        failed, correct = check_ops(ops)
        if not same_results(base["ops"], ops):
            print("MISMATCH: the traced pass gave different numbers than the untraced pass")
            correct = False
        metrics = layer_metrics(res["sums"], ops, base["ops"])
    print("env " + json.dumps(dict(record, numpy=res["numpy"])))
    print("accuracy " + json.dumps(accuracy(args.workload, ops)))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        sys.exit(1)
