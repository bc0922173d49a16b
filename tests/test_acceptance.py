"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as `pytest tests/test_acceptance.py -v` (add -s to see the summary lines
inline). Every tolerance is fixed here, not configurable. Criteria 1-7 run the
checks of the `verify` registry (`o3cp1.cli.CHECKS`) through `run_check`, each
on its own pinned generator. Criteria 9 and 10 gate their chains with the rows
`compare` builds, `oracle_rows` and `comparison_rows`.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import optimize

from o3cp1 import measure
from o3cp1.actions import action_cp1_reduced, action_o3_pullback
from o3cp1.cli import comparison_rows, oracle_rows, run_check, two_site_references
from o3cp1.lattice import build_lattice
from o3cp1.mc import run_chains
from references import probe_spinor_field, random_probe


def report(number, name, passed, detail):
    line = f"ACCEPTANCE {number:>2} {name:<24} {'PASS' if passed else 'FAIL'}  {detail}"
    print(line, flush=True)
    assert passed, line


def test_c01_polar_action_identity():
    t0 = time.time()
    row = run_check("polar-identity", np.random.default_rng(101), 1e-10)
    elapsed = time.time() - t0
    report(
        1, "polar-identity",
        row["pass"] and elapsed < 10.0,
        f"max violation {row['value']:.2e} (tol 1e-10), {elapsed:.1f}s (<10s)",
    )


def test_c02_jacobian():
    t0 = time.time()
    row = run_check("jacobian", np.random.default_rng(102), 1e-6)
    elapsed = time.time() - t0
    report(
        2, "jacobian",
        row["pass"] and elapsed < 1.0,
        f"max |fd - rs| {row['value']:.2e} (tol 1e-6), {elapsed:.2f}s (<1s)",
    )


def test_c03_gauge_marginalization():
    t0 = time.time()
    row = run_check("marginalization", np.random.default_rng(103), 1e-8)
    elapsed = time.time() - t0
    report(
        3, "marginalization",
        row["pass"] and elapsed < 10.0,
        f"max rel gap {row['value']:.2e} (tol 1e-8), 100 links x g in {{0.5,1,2}}, "
        f"{elapsed:.1f}s (<10s)",
    )


def test_c04_measure_constant():
    t0 = time.time()
    row = run_check("measure-constant", np.random.default_rng(104), 0.01)
    elapsed = time.time() - t0
    assert row["inputs"]["eps_ladder"] == [0.1, 0.05, 0.025]
    rel = abs(row["value"] - math.pi / 2) / (math.pi / 2)
    report(
        4, "measure-constant",
        row["pass"] and elapsed < 120.0,
        f"constant {row['value']:.7f} vs 1.5707963 (rel {rel:.2e}, tol 1%), "
        f"spread {row['diagnostics']['spread']:.1e}, {elapsed:.1f}s (<120s)",
    )


def test_c05_one_site_ratio():
    t0 = time.time()
    row = run_check("one-site-ratio", np.random.default_rng(105), 1e-6)
    zero = row["diagnostics"]["0.0"]
    lhs0, rhs0 = zero["lhs"], zero["rhs"]
    zero_ok = abs(lhs0 - 9.8696044) < 1e-6 and abs(rhs0 - 9.8696044) < 1e-6
    elapsed = time.time() - t0
    report(
        5, "one-site-ratio",
        row["pass"] and zero_ok and elapsed < 30.0,
        f"max rel diff {row['value']:.2e} (tol 1e-6), lambda=0 gives {lhs0:.7f}, "
        f"{elapsed:.1f}s (<30s)",
    )


def test_c06_pushforward_uniformity():
    t0 = time.time()
    row = run_check("pushforward", np.random.default_rng(0))
    elapsed = time.time() - t0
    report(
        6, "pushforward",
        row["pass"] and row["tolerance"] == 1e-13 and elapsed < 5.0,
        f"worst moment gap {row['value']:.1e} over degree <= {row['inputs']['degree']} "
        f"(tol 1e-13), {elapsed:.1f}s (<5s)",
    )


def test_c07_reduction_stage_consistency():
    rng = np.random.default_rng(107)
    row = run_check("reduction-stages", rng)  # draws the five stage points first
    root_ok = True
    worst_root = 0.0
    for p in measure.random_sphere_points(rng, 20, min_q=0.3):
        nx, _, nz = p
        rho_z = math.sqrt(1 - nz * nz)
        phi0, fprime = measure.phi_roots(p)
        root = optimize.brentq(lambda t: rho_z * math.cos(t) - nx, 0.0, math.pi, xtol=1e-14)
        gap = max(abs(root - phi0), abs(fprime - math.sqrt(1 - nx**2 - nz**2)))
        worst_root = max(worst_root, gap)
        root_ok = root_ok and gap < 1e-10
    report(
        7, "reduction-stages",
        row["pass"] and root_ok,
        f"mean stage ratio {row['value']:.10f}, worst rel gap to pi/2 "
        f"{row['diagnostics']['max_rel_gap']:.1e} (tol {row['tolerance']:.0e}); "
        f"root formula vs brentq {worst_root:.2e} (tol 1e-10)",
    )


def test_c08_continuum_matching_order():
    rng = np.random.default_rng(108)
    slopes = []
    for _ in range(8):
        probe = random_probe(rng, ndim=1, max_mode=1, angle_amp=0.7)
        sizes = [8, 16, 32, 64]
        gaps = []
        for size in sizes:
            lat = build_lattice([size])
            zf = probe_spinor_field(probe, lat)
            pull = action_o3_pullback(lat, zf, 1.0)
            gaps.append((action_cp1_reduced(lat, zf, 1.0) - pull) / pull)
        slopes.append(-np.polyfit(np.log(sizes), np.log(gaps), 1)[0])
    order = float(np.median(slopes))
    report(
        8, "continuum-matching",
        1.8 <= order <= 2.2,
        f"fitted order {order:.3f} (target 2.0 +- 0.2; per-probe "
        f"{[f'{s:.2f}' for s in slopes]})",
    )


def test_c09_two_site_sampler_exactness():
    t0 = time.time()
    lat = build_lattice([2])
    models = ["o3", "cp1-pullback", "cp1-reduced", "cp1-gauged-reduced"]
    results = run_chains(lat, models, 1.0, 100_000, master_seed=109,
                         thermalization=5000, processes=2)
    rows = oracle_rows(results, two_site_references(models, 1.0), 3.0)
    details = [f"{row['chain']} {row['n_sigma']:.1f}s" for row in rows]
    elapsed = time.time() - t0
    report(
        9, "two-site-exactness",
        all(row["pass"] for row in rows) and elapsed < 60.0,
        f"{'; '.join(details)} (gate 3 sigma), {elapsed:.0f}s (<60s)",
    )


def test_c10_cross_model_equivalence():
    t0 = time.time()
    lat = build_lattice([8, 8])
    models = ["o3", "cp1-pullback", "cp1-gauged-pullback"]
    results = run_chains(lat, models, 1.0, 50_000, master_seed=110, processes=2)
    rows = comparison_rows(results, 3.0)  # every pair shares the o3 law: all gated
    worst = max(row["n_sigma"] for row in rows)
    elapsed = time.time() - t0
    report(
        10, "cross-model",
        all(row["pass"] for row in rows) and elapsed < 300.0,
        f"worst deviation {worst:.2f} sigma (gate 3) over energy + corr r=1..4, "
        f"{elapsed:.0f}s (<300s)",
    )


def test_c11_determinism(tmp_path, cli_env):
    args = [sys.executable, "-m", "o3cp1.cli", "sample", "--model", "cp1-gauged",
            "--dims", "4x4", "--g", "1.0", "--sweeps", "500",
            "--thermalization", "100", "--seed", "4242", "--out-prefix", "d"]
    dirs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        proc = subprocess.run(args, cwd=d, env=cli_env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        dirs.append(d)
    same = (dirs[0] / "d_series.csv").read_bytes() == (dirs[1] / "d_series.csv").read_bytes()
    report(11, "determinism", same, "identical config+seed gives bit-identical CSV")
