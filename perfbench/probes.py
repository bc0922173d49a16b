"""Small child-process probes of the package, run with PYTHONPATH=src.

    python3 perfbench/probes.py setup DIMS MODELS SEED G
        Import o3cp1.cli, build the lattice DIMS (e.g. 256x256) and initialise
        one chain per model in the comma-separated MODELS, seeded the way
        run_chains seeds them. DIMS "-" imports only. The caller times the
        whole process; this is the set-up a user pays before the first sweep.

    python3 perfbench/probes.py actions
        Print as JSON the median time per call, in microseconds, of the four
        action functionals on a random two-site configuration.
"""

import json
import sys
import time


def setup(dims, models, seed, g):
    import o3cp1.cli  # noqa: F401

    if dims == "-":
        return
    import numpy as np

    from o3cp1.lattice import build_lattice
    from o3cp1.mc import init_chain

    lat = build_lattice([int(d) for d in dims.split("x")])
    names = models.split(",")
    seqs = np.random.SeedSequence(int(seed)).spawn(len(names))
    for model, seq in zip(names, seqs):
        init_chain(lat, model, float(g), np.random.Generator(np.random.PCG64(seq)))


def actions(calls=500, repeats=7):
    import numpy as np

    from o3cp1 import actions as act
    from o3cp1.fields import CP1Field, GaugeField, SpinField
    from o3cp1.lattice import build_lattice

    lat = build_lattice([2])
    rng = np.random.default_rng(0)
    spin, zf = SpinField.random(lat, rng), CP1Field.random(lat, rng)
    gauge = GaugeField(rng.standard_normal((lat.volume, lat.ndim)))
    cases = {
        "o3": lambda: act.action_o3(lat, spin, 1.0),
        "pullback": lambda: act.action_o3_pullback(lat, zf, 1.0),
        "reduced": lambda: act.action_cp1_reduced(lat, zf, 1.0),
        "gauged": lambda: act.action_cp1_gauged(lat, zf, gauge, 1.0),
    }
    out = {}
    for name, call in cases.items():
        per_call = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                call()
            per_call.append((time.perf_counter() - t0) / calls * 1e6)
        out[name] = sorted(per_call)[repeats // 2]
    print(json.dumps(out))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(*sys.argv[2:6])
    elif sys.argv[1] == "actions":
        actions()
    else:
        sys.exit(f"unknown probe {sys.argv[1]!r}")
