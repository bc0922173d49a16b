"""The benchmark's per-layer metrics name functions of o3cp1: each must still resolve.

perfbench/tracer.py wraps functions by name at run time and lists a name it
cannot find in its `missing` list, where the metric built on it reads 0. A
rename in src/ must fail here instead.
"""

import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np

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


def install_tracer(out_dir, monkeypatch):
    """(recorder, modules) of the tracer installed on o3cp1, undone when the test ends."""
    tracer = load_tracer()
    for mod_name in ["o3cp1"] + [f"o3cp1.{short}" for short in tracer.MODULES]:
        mod = importlib.import_module(mod_name)  # undo every rebinding when the test ends
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) or inspect.ismodule(obj):
                monkeypatch.setattr(mod, name, obj)
    for short, cls_name, meth in tracer.EXTRA_METHODS:
        cls = getattr(importlib.import_module(f"o3cp1.{short}"), cls_name)
        monkeypatch.setattr(cls, meth, vars(cls)[meth])
    rec = tracer.Recorder(str(out_dir))
    return rec, tracer.install(rec, "o3cp1")


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


def _held_functions(obj):
    """The functions inside a dict, list, tuple or set, at any depth (NamedTuples included)."""
    if inspect.isfunction(obj):
        yield obj
    elif isinstance(obj, dict):
        for item in obj.items():
            yield from _held_functions(item)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            yield from _held_functions(item)


def test_no_module_table_holds_a_traced_function():
    # the tracer rebinds the module attributes of the functions it wraps; a
    # table bound at import keeps the unwrapped function, and the calls made
    # through it go uncounted
    tracer = load_tracer()
    traced = {}
    for short in tracer.MODULES:
        mod = module(short)
        names = [n for n, f in vars(mod).items() if inspect.isfunction(f)
                 and f.__module__ == mod.__name__ and not n.startswith("_")]
        names += [n for m, n in tracer.EXTRA_FUNCTIONS if m == short]
        traced.update({id(getattr(mod, n)): f"{short}.{n}" for n in names})
    for short in tracer.MODULES:
        for name, obj in vars(module(short)).items():
            if isinstance(obj, (dict, list, tuple, set, frozenset)):
                for func in _held_functions(obj):
                    assert id(func) not in traced, f"o3cp1.{short}.{name} holds {traced[id(func)]}"


def test_traced_checks_count_every_measure_lhs_call(tmp_path, monkeypatch):
    # the constant builds the raw-4d rule once; the reduction check reads
    # only the later stages
    rec, mods = install_tracer(tmp_path, monkeypatch)
    for name, calls in (("measure-constant", 1), ("reduction-stages", 0)):
        rec.stats.pop("measure.measure_lhs", None)
        mods["cli"].run_check(name, np.random.default_rng(0))
        assert rec.stats.get("measure.measure_lhs", {"count": 0})["count"] == calls, name


def test_traced_run_chain_measures_once_per_block(tmp_path, monkeypatch):
    # mc.measure_us is the time of one block of up to 32 sweeps of a spinor
    # chain on 8x8, not of one sweep; hopf_map still counts sites, one call a block
    rec, mods = install_tracer(tmp_path, monkeypatch)
    lat = mods["lattice"].build_lattice([8, 8])
    for sweeps in (1, 31, 32, 33, 67):
        for key in ("mc._Measurer.measure", "fields.hopf_map"):
            rec.stats.pop(key, None)
        mods["mc"].run_chain(lat, "cp1-pullback", 0.7, sweeps, np.random.SeedSequence(2),
                             thermalization=0)
        blocks = math.ceil(sweeps / 32)
        assert rec.stats["mc._Measurer.measure"]["count"] == blocks, sweeps
        hopf = rec.stats["fields.hopf_map"]
        assert (hopf["count"], hopf["items"]) == (blocks, sweeps * lat.volume), sweeps
