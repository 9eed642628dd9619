"""The names, arguments and results the benchmark's tracer reads must stay in place.

``benchmarks/tracer.py`` wraps package functions by name, some of them
private, reads some of their positional arguments, and reads fields of some
results; a rename or a changed return shape stops the benchmark. The tracer
is imported from its file, unchanged.
"""

import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from kapteynq import Eccentricity, Problem, bessel
from kapteynq.kapteyn import DEFAULT_TRUNCATION

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"

# the leading parameters that the tracer's per-span info reads by position
READ_ARGS = {
    ("bessel", "_diagonal_table_cached"): ("eps", "n_max"),
    ("bessel", "_miller_diag_block"): ("eps", "n_lo", "n_hi"),
    ("bessel", "_debye_batch"): ("n_arr", "eps"),
    ("bessel", "_interp_band"): ("eps", "n_arr", "n_lo", "n_hi"),
    ("bessel", "_jn_series"): ("n", "x"),
}


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_entry_points_exist():
    for mod_name, attr in _tracer().ENTRY_POINTS:
        fn = getattr(importlib.import_module(f"kapteynq.{mod_name}"), attr, None)
        assert callable(fn), f"kapteynq.{mod_name}.{attr}"


@pytest.mark.parametrize("entry,names", sorted(READ_ARGS.items()))
def test_read_arguments_keep_their_place(entry, names):
    assert entry in _tracer().ENTRY_POINTS
    mod_name, attr = entry
    fn = getattr(importlib.import_module(f"kapteynq.{mod_name}"), attr)
    params = tuple(inspect.signature(fn).parameters)
    assert params[: len(names)] == names


def _closed_form_exactness():  # stands in for a check that verify._check runs
    return {"passed": True}


def _info_cases():
    """(wrapped name, args, ancestor spans as (name, args), expected info).

    ``None`` as expected info: the info is checked against the result, below.
    """
    eps = 1.0 / math.sqrt(1.01)  # D = 0.01: a band above the crossover
    n_arr = np.arange(2001, 2101, dtype=np.int64)
    build = ("bessel._diagonal_table_cached", (0.5, 64))
    interp = ("bessel._interp_band", (eps, n_arr, 2001, bessel._band_hi(eps)))
    ecc = Eccentricity.from_D(1.0)
    return [
        (*build, (), (0.5, 64, False)),
        ("bessel._jn_series", (3, 1.5), (build,), True),
        ("bessel._miller_diag_block", (0.9, 3, 40), (), 38),
        ("bessel._debye_batch", (n_arr, 0.9), (), 100),
        ("bessel._diag_point", (eps, 2500), (interp,), True),
        (*interp, (), 100),
        ("kapteyn._eval_series",
         (0.5 * (ecc.g + 1.0), ecc, DEFAULT_TRUNCATION, "F1"), (), None),
        ("solver.solve_C_numeric", (Problem(D=1.0, a=1.0),), (), None),
        ("verify._check", (_closed_form_exactness,), (), "_closed_form_exactness"),
    ]


def test_every_info_reader_has_a_case():
    assert sorted(case[0] for case in _info_cases()) == sorted(_tracer()._INFO)


@pytest.mark.parametrize("case", _info_cases(), ids=lambda case: case[0])
def test_info_reads_real_results(case):
    tracer = _tracer()
    name, args, ancestors, expected = case
    mod_name, attr = name.split(".")
    result = getattr(importlib.import_module(f"kapteynq.{mod_name}"), attr)(*args)
    info = tracer._INFO[name](tracer.Frame(name, args), result,
                              [tracer.Frame(n, a) for n, a in ancestors])
    if name == "kapteyn._eval_series":
        terms, converged = info
        assert terms == result.terms_used > 0 and converged is True
    elif name == "solver.solve_C_numeric":
        assert isinstance(info, int) and info >= 1
    else:
        assert info == expected
