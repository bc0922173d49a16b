"""Span recorder that wraps the o3cp1 modules' public functions at run time.

Run as a script it replaces `python -m o3cp1.cli`:

    python3 perfbench/tracer.py TRACE_DIR verify --suite all ...

It times `import o3cp1.cli`, wraps every public module-level function of
lattice, fields, actions, measure, mc and cli (plus the few classmethods and
private helpers listed in EXTRA_METHODS / EXTRA_FUNCTIONS), runs the CLI and
writes one JSON file per process into TRACE_DIR. Nothing under src/ changes.

Each wrapped call is one span: key, start, end, parent span. Per key the
recorder keeps the call count, total and self time (duration minus the time of
child spans), every duration, and an optional item count (sites passed to
hopf_map). Full span records are kept for the first SPAN_CAP calls of each
key. Pool workers started by fork inherit the wrappers; they drop the parent's
records at fork and write their own file each time an outermost span ends.
"""

import functools
import inspect
import json
import os
import sys
import time

MODULES = ("lattice", "fields", "actions", "measure", "mc", "cli")
EXTRA_METHODS = (  # (module, class, method) wrapped although not module functions
    ("fields", "SpinField", "random"),
    ("fields", "CP1Field", "random"),
    ("mc", "_Measurer", "measure"),  # the per-sweep measurement
)
EXTRA_FUNCTIONS = (  # private helpers whose time has no public boundary
    ("cli", "_series_rows"),
    ("cli", "_write_series_csv"),
)
SPAN_CAP = 200


def _model_of(args, kwargs):
    """Model tag of an mc call: state.model, or the `model` argument."""
    if "model" in kwargs:
        return kwargs["model"]
    for a in args[:2]:
        if isinstance(a, str):
            return a
        model = getattr(a, "model", None)
        if isinstance(model, str):
            return model
    return None


def _sites_of(args, kwargs):
    z = args[0] if args else kwargs.get("z")
    data = getattr(z, "data", z)
    try:
        return len(data)
    except TypeError:
        return 1


TAGS = {"mc": _model_of}
ITEMS = {"fields.hopf_map": _sites_of}


class Recorder:
    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.main_pid = os.getpid()
        self.meta = {}
        self.missing = []
        self._reset()

    def _reset(self):
        self.stack = []  # [span id, time covered by child spans]
        self.stats = {}
        self.spans = []
        self.next_id = 0

    def after_fork(self):
        self._reset()
        self.meta = {}

    def wrap(self, func, key, tag=None, items=None):
        rec = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            name = key
            if tag is not None:
                label = tag(args, kwargs)
                if label is not None:
                    name = f"{key}[{label}]"
            sid = rec.next_id
            rec.next_id += 1
            parent = rec.stack[-1][0] if rec.stack else None
            frame = [sid, 0.0]
            rec.stack.append(frame)
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                rec.stack.pop()
                dt = t1 - t0
                if rec.stack:
                    rec.stack[-1][1] += dt
                st = rec.stats.get(name)
                if st is None:
                    st = rec.stats[name] = {"count": 0, "total_s": 0.0, "self_s": 0.0,
                                            "items": 0, "durations": []}
                st["count"] += 1
                st["total_s"] += dt
                st["self_s"] += dt - frame[1]
                st["durations"].append(dt)
                if items is not None:
                    st["items"] += items(args, kwargs)
                if st["count"] <= SPAN_CAP:
                    rec.spans.append((sid, parent, name, t0, t1))
                if not rec.stack and os.getpid() != rec.main_pid:
                    rec.flush()

        return wrapper

    def flush(self):
        out = {"pid": os.getpid(), "main": os.getpid() == self.main_pid,
               "meta": self.meta, "missing": self.missing,
               "stats": self.stats, "spans": self.spans}
        path = os.path.join(self.out_dir, f"trace-{os.getpid()}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(out, fh)
        os.replace(path + ".tmp", path)


class _TimedJson:
    """Stand-in for the json module inside cli: json.dump is a span."""

    def __init__(self, rec, module):
        self._module = module
        self.dump = rec.wrap(module.dump, "cli.json.dump")

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(rec, package):
    """Wrap the public functions of each module and rebind every reference."""
    import importlib

    mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
    everyone = list(mods.values()) + [importlib.import_module(package)]
    replaced = {}
    for short, mod in mods.items():
        names = [n for n, f in vars(mod).items()
                 if inspect.isfunction(f) and f.__module__ == mod.__name__
                 and not n.startswith("_")]
        names += [n for m, n in EXTRA_FUNCTIONS if m == short]
        for name in names:
            func = getattr(mod, name, None)
            if func is None:
                rec.missing.append(f"{short}.{name}")
                continue
            key = f"{short}.{name}"
            replaced[id(func)] = rec.wrap(func, key, TAGS.get(short), ITEMS.get(key))
    for mod in everyone:
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced and inspect.isfunction(obj):
                setattr(mod, name, replaced[id(obj)])
    for short, cls_name, meth in EXTRA_METHODS:
        cls = getattr(mods[short], cls_name, None)
        raw = vars(cls).get(meth) if cls is not None else None
        if raw is None:
            rec.missing.append(f"{short}.{cls_name}.{meth}")
            continue
        key = f"{short}.{cls_name}.{meth}"
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(rec.wrap(raw.__func__, key)))
        else:
            setattr(cls, meth, rec.wrap(raw, key))
    mods["cli"].json = _TimedJson(rec, mods["cli"].json)
    return mods


def main(argv):
    out_dir, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import o3cp1.cli  # noqa: F401  (timed: the import a user pays on every command)

    import_s = time.perf_counter() - t0
    rec = Recorder(out_dir)
    rec.meta["import_s"] = import_s
    mods = install(rec, "o3cp1")
    os.register_at_fork(after_in_child=rec.after_fork)
    code = 1
    try:
        code = mods["cli"].main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        rec.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
