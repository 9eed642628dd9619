"""The names and arguments the benchmark's tracer wraps must stay in place.

``benchmarks/tracer.py`` wraps package functions by name, some of them
private, and reads some of their positional arguments; a rename stops the
benchmark. The tracer is imported from its file, unchanged.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"

# the leading parameters that the tracer's per-span info reads by position
READ_ARGS = {
    ("bessel", "_diagonal_table_cached"): ("eps", "n_max", "cfg"),
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
