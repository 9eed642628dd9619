"""Tests of the benchmark itself: tracing changes no number, inputs follow the seed.

    python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("workload,ops", [("sweep_cold", 24), ("a_scan_warm", 40)])
def test_tracing_changes_no_number(workload, ops):
    env = bench.child_env()
    plain = bench.run_pass(env, workload, 7, False, max_ops=ops)["ops"]
    traced = bench.run_pass(env, workload, 7, True, max_ops=ops)
    assert len(plain) == len(traced["ops"]) == ops
    # C_numeric, C1, C2, F, F1, F2 and the residuals, bit for bit
    for a, b in zip(plain, traced["ops"]):
        assert (a["D"], a["a"], a["values"]) == (b["D"], b["a"], b["values"])
    assert ({(r["D"], r["a"]) for r in plain if not r["ok"]}
            == {(r["D"], r["a"]) for r in traced["ops"] if not r["ok"]})
    bench.check_trace(workload, traced["sums"], traced["ops"])


def _take(workload, seed, rounds):
    stream = worker.rounds(workload, seed)
    return [next(stream) for _ in range(rounds)]


@pytest.mark.parametrize("workload", bench.WORKLOADS[:3])
def test_inputs_follow_the_seed(workload):
    assert _take(workload, 3, 2) == _take(workload, 3, 2)
    assert _take(workload, 3, 2) != _take(workload, 4, 2)


def test_sweep_rounds_are_stratified_and_distinct():
    rounds = _take("sweep_cold", 5, 4)
    seen = set()
    for batch in rounds:
        ds = sorted(d for d, _, _ in batch)
        assert len(ds) == worker._SWEEP_STRATA
        # one point in each of the equal log-width strata of [0.1, 100]
        for k, d in enumerate(ds):
            lo = 0.1 * 1000.0 ** (k / len(ds))
            hi = 0.1 * 1000.0 ** ((k + 1) / len(ds))
            assert lo * (1 - 1e-12) <= d <= hi * (1 + 1e-12)
        seen.update(ds)
    assert len(seen) == sum(len(b) for b in rounds)


def test_a_scan_warms_up_before_each_grid():
    batch = _take("a_scan_warm", 5, 1)[0]
    step = 1 + len(worker._A_GRID)
    for i in range(0, len(batch), step):
        group = batch[i:i + step]
        assert group[0][2] is False and all(t for _, _, t in group[1:])
        assert len({d for d, _, _ in group}) == 1


def test_missing_entry_point_fails_loudly(monkeypatch):
    import kapteynq.solver
    import tracer

    monkeypatch.delattr(kapteynq.solver, "_f_exceeds")
    with pytest.raises(RuntimeError, match="_f_exceeds"):
        tracer.install(tracer.Tracer())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sweep_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_host_speed_scaling_takes_out_the_sampler():
    import hostspeed

    s = hostspeed.Sampler()
    ref = hostspeed.REF_NS
    # kernel samples of twice the reference time: the host runs at half speed
    s.starts = [0, 10_000_000, 20_000_000]
    s.ends = [t + 2 * ref for t in s.starts]
    # an operation from 9 ms to 15 ms holds the whole second sample
    assert s.net_ns(9_000_000, 15_000_000) == 6_000_000 - 2 * ref
    # one ending inside the third sample holds only its first part
    assert s.net_ns(19_000_000, 20_400_000) == 1_000_000
    assert s.scaled_ns(9_000_000, 15_000_000) == (6_000_000 - 2 * ref) / 2


def test_sampler_records_while_running():
    import time

    import hostspeed

    with hostspeed.Sampler() as s:
        end = time.perf_counter() + 4 * hostspeed.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(s.starts) >= 3
    assert all(a < b for a, b in zip(s.ends, s.starts[1:]))
