"""The benchmark's per-layer metrics name functions of o3cp1: each must still resolve.

perfbench/tracer.py wraps functions by name at run time and lists a name it
cannot find in its `missing` list, where the metric built on it reads 0. A
rename in src/ must fail here instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# the public functions perfbench/run.py's layer_metrics keys on
LAYER_FUNCTIONS = (
    ("lattice", "build_lattice"),
    ("fields", "save_field_csv"),
    ("fields", "hopf_map"),
    ("mc", "metropolis_sweep"),
    ("mc", "gibbs_gauge_update"),
    ("mc", "run_chain"),
    ("mc", "two_site_exact"),
    ("mc", "jackknife"),
    ("actions", "marginalize_gauge_numeric"),
    ("actions", "polar_identity_max_violation"),
    ("measure", "verify_constant_c"),
    ("measure", "reduction_consistency"),
    ("measure", "pushforward_uniformity"),
    ("measure", "one_site_ratio_test"),
    ("measure", "measure_lhs"),
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def module(short):
    return importlib.import_module(f"o3cp1.{short}")


def test_layer_functions_are_public_functions_of_their_module():
    # the tracer wraps only functions defined in the module it keys them by
    for short, name in LAYER_FUNCTIONS:
        func = getattr(module(short), name, None)
        assert inspect.isfunction(func), f"o3cp1.{short}.{name}"
        assert func.__module__ == f"o3cp1.{short}", f"o3cp1.{short}.{name}"


def test_tracer_extra_names_resolve():
    tracer = load_tracer()
    assert tracer.EXTRA_FUNCTIONS and tracer.EXTRA_METHODS
    for short, name in tracer.EXTRA_FUNCTIONS:
        assert inspect.isfunction(getattr(module(short), name, None)), f"o3cp1.{short}.{name}"
    for short, cls_name, meth in tracer.EXTRA_METHODS:
        cls = getattr(module(short), cls_name, None)
        assert inspect.isclass(cls), f"o3cp1.{short}.{cls_name}"
        assert meth in vars(cls), f"o3cp1.{short}.{cls_name}.{meth}"
