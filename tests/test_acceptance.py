"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import math
import time

import mpmath
import numpy as np
import pytest

from geoflow import (bounds, cli, entropy, geodesics, manifolds, topology)

DIM5_B2_THRESHOLD = 383882338  # floor((5/2) e^{6 pi}) at 50 digits, pinned


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d} {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _cli_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_01_space_form_sharpness(capsys):
    code2, doc2 = _cli_json(capsys, ["bound", "sphere:n=2,r=1.0", "--format", "json"])
    code4, doc4 = _cli_json(capsys, ["bound", "sphere:n=4,r=1.0", "--format", "json"])
    exact = (code2 == 0 and code4 == 0
             and doc2["bounds"]["theorem_b"] == 0.0
             and doc4["bounds"]["theorem_b"] == 0.0)
    t0 = time.perf_counter()
    model = manifolds.sphere(2, 1.0)
    series = entropy.mane_series(model, np.linspace(2.0, 10.0, 17),
                                 samples=2000, seed=0, step=1e-3)
    est = entropy.slope(series, window=(2.0, 10.0))
    elapsed = time.perf_counter() - t0
    ok = exact and abs(est.slope) <= 0.05 and elapsed < 120.0
    _report(1, ok,
            f"bound(S^2)=0 and bound(S^4)=0 exactly: {exact}; "
            f"mane slope {est.slope:.2e} (<=0.05) in {elapsed:.1f}s (<120s)")


def test_criterion_02_hyperbolic_sharpness():
    model = manifolds.hyperbolic(2, 1.0)
    series = entropy.mane_series(model, np.linspace(3.0, 10.0, 15),
                                 samples=200, seed=0, step=1e-3)
    est = entropy.slope(series, window=(3.0, 10.0))
    exact = bounds.nonpositive_entropy_bound(2, -1.0) == 1.0
    ok = abs(est.slope - 1.0) <= 0.02 and exact
    _report(2, ok,
            f"constant-curvature -1 slope {est.slope:.6f} (1 +- 0.02); "
            f"nonpositive bound exactly 1: {exact}")


def test_criterion_03_first_order_residual_quadratic():
    model = manifolds.ellipsoid(1.0, 1.0, 2.0)
    thetas = model.sample_sphere_bundle(20, seed=7)
    in_range = 0
    ratios = []
    for theta in thetas:
        r1 = bounds.first_order_residual(model, theta, 1e-2, step=2.5e-4)
        r2 = bounds.first_order_residual(model, theta, 5e-3, step=2.5e-4)
        ratio = r1 / r2 if r2 > 0 else float("inf")
        ratios.append(ratio)
        if 3.5 <= ratio <= 4.5:
            in_range += 1
    ok = in_range >= 18
    _report(3, ok,
            f"residual(1e-2)/residual(5e-3) in [3.5, 4.5] for {in_range}/20 "
            f"ellipsoid states (median {np.median(ratios):.3f})")


def test_criterion_04_expansion_first_order_consistency(all_models):
    deltas = (1e-2, 5e-3, 2.5e-3)
    floor = 1e-9
    lines = []
    ok = True
    for name, model in all_models.items():
        thetas = model.sample_sphere_bundle(3, seed=17)
        out = bounds.expansion_defect_constants(model, thetas, deltas)
        consts = np.array(out["constants"])
        stable = consts.max() <= floor or consts.max() / max(consts.min(), floor) <= 2.0
        ok = ok and stable and not out["flagged"]
        lines.append(f"{name}: C={consts.max():.3g}")
    _report(4, ok, "defect constant stable within 2x under delta halving on "
            + ", ".join(lines))


def test_criterion_05_counting_chain(all_models):
    s2 = all_models["sphere"]
    val = entropy.counting_integral(s2, np.array([np.pi / 2, 0.3]), np.pi,
                                    angular_samples=8, step=1e-3)
    sphere_ok = abs(val - 4 * np.pi) / (4 * np.pi) < 0.01
    torus = all_models["torus"]
    val_t = entropy.counting_integral(torus, np.zeros(2), 1.0,
                                      angular_samples=8, step=1e-3)
    torus_ok = abs(val_t - np.pi) / np.pi < 0.01

    # growth-of-counting <= growth-of-expansion + 0.05, per model, on windows
    # past the polynomial transient
    plans = {
        "sphere": dict(t_max=50.0, step=2.5e-3, dirs=4, mane_samples=100),
        "torus": dict(t_max=120.0, step=1e-2, dirs=4, mane_samples=100),
        "hyperbolic": dict(t_max=10.0, step=2.5e-3, dirs=8, mane_samples=100),
        "ellipsoid": dict(t_max=40.0, step=1e-2, dirs=16, mane_samples=128),
        "sphereprod": dict(t_max=40.0, step=2e-2, dirs=48, mane_samples=128),
    }
    chain_ok = True
    details = []
    for name, plan in plans.items():
        model = all_models[name]
        grid = np.linspace(plan["t_max"] / 10.0, plan["t_max"], 16)
        window = (plan["t_max"] / 2.0, plan["t_max"])
        count_est = entropy.counting_growth(
            model, model.base_x, grid, angular_samples=plan["dirs"],
            step=plan["step"], seed=3, window=window)
        mane_est = entropy.slope(entropy.mane_series(
            model, grid, samples=plan["mane_samples"], seed=3,
            step=plan["step"]), window=window)
        good = count_est.slope <= mane_est.slope + 0.05
        chain_ok = chain_ok and good
        details.append(f"{name}: {count_est.slope:.3f}<={mane_est.slope:.3f}+0.05")
    ok = sphere_ok and torus_ok and chain_ok
    _report(5, ok,
            f"S^2 ball count {val:.4f} vs 4pi (1%): {sphere_ok}; torus {val_t:.4f} "
            f"vs pi (1%): {torus_ok}; chain: " + "; ".join(details))


def test_criterion_06_dim4_b2_cap_reproduced():
    computed = topology.babenko_max_b2()

    def passes(b2):
        prof = topology.BettiProfile(4, [1, 0, b2, 0, 1], formal=True)
        return not topology.certify(prof).obstructed

    certifier_max = max(b2 for b2 in range(1, 300) if passes(b2))
    ok = computed == 230 and certifier_max == 230
    _report(6, ok, f"dimension-four maximum b_2: closed form {computed}, "
            f"certifier sweep {certifier_max} (expected 230)")


def test_criterion_07_dim5_b2_threshold():
    with mpmath.workdps(50):
        oracle = int(mpmath.floor(mpmath.mpf(5) / 2 * mpmath.e ** (6 * mpmath.pi)))
    pinned_ok = oracle == DIM5_B2_THRESHOLD

    def certify_b2(b2):
        prof = topology.BettiProfile(5, [1, 0, b2, b2, 0, 1], formal=True)
        return topology.certify(prof).obstructed

    ok = (pinned_ok and certify_b2(DIM5_B2_THRESHOLD + 1)
          and not certify_b2(DIM5_B2_THRESHOLD) and not certify_b2(1))
    _report(7, ok,
            f"50-digit threshold {oracle} pinned: {pinned_ok}; certify fails at "
            f"threshold+1, passes at threshold and at b_2 = 1")


def test_criterion_08_comparison_rates():
    g2 = bounds.grossman_counting_rate(2)
    g4 = bounds.grossman_counting_rate(4)
    tb = bounds.curvature_entropy_bound(4, 1.0, 1.0)
    ok = abs(g2 - 0.8103) <= 5e-5 and tb == 1.0 and tb < g4
    _report(8, ok,
            f"per-dimension counting rate {g2:.6f} (0.8103 +- 5e-5); "
            f"curvature bound {tb} < counting-rate bound {g4:.4f}")


def test_criterion_09_structural_invariants(all_models):
    # symplectic determinant and unit speed on every model up to t = 10
    det_ok = True
    det_details = []
    for name, model in all_models.items():
        theta = model.sample_sphere_bundle(2, seed=23)
        step = 1e-3 if name != "chart-metric" else 2e-3
        res = geodesics.propagate(model, theta, [2.0, 6.0, 10.0], step=step)
        dets = np.abs(np.linalg.det(res.phi) - 1.0).max()
        drift = res.speed_drift.max()
        good = dets <= 1e-6 and drift <= 1e-8
        det_ok = det_ok and good
        det_details.append(f"{name}:{dets:.1e}")

    # reciprocal pairing of Poincare-polynomial roots on 200 random profiles
    rng = np.random.default_rng(11)
    recip_ok = True
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 10))
        half = (n - 2) // 2 - (1 if n % 2 == 0 else 0) + 1
        mid = [int(rng.integers(0, 10)) for _ in range(half)]
        b = [0] * (n + 1)
        b[0] = b[n] = 1
        for i, v in enumerate(mid, start=2):
            b[i] = v
            b[n - i] = v
        prof = topology.BettiProfile(n, b)
        defect = topology.reciprocity_defect(topology.poincare_roots(prof))
        worst = max(worst, defect)
        recip_ok = recip_ok and defect <= 1e-6

    # expansion submultiplicativity over 200 random split trajectories
    sub_ok = True
    names = [n for n in all_models if n != "chart-metric"]
    per_model = 40
    for name in names:
        model = all_models[name]
        thetas = model.sample_sphere_bundle(per_model, seed=29)
        splits = rng.uniform(0.5, 2.5, per_model)
        ends = splits + rng.uniform(0.5, 2.5, per_model)
        res = geodesics.propagate(model, thetas, np.linspace(0.5, 5.0, 10),
                                  step=1e-2)
        rows = np.arange(per_model)
        phi_s = res.phi[np.searchsorted(res.t_grid, splits), rows]
        phi_t = res.phi[np.searchsorted(res.t_grid, ends), rows]
        leg = phi_t @ np.linalg.inv(phi_s)
        lhs = geodesics.expansion(phi_t)
        rhs = geodesics.expansion(leg) * geodesics.expansion(phi_s)
        sub_ok = sub_ok and bool(np.all(lhs <= rhs * (1.0 + 1e-9)))

    ok = det_ok and recip_ok and sub_ok
    _report(9, ok,
            f"|det Phi - 1| <= 1e-6 up to t=10 ({', '.join(det_details)}); "
            f"root reciprocity worst defect {worst:.2e} over 200 profiles; "
            f"submultiplicativity on 200 split trajectories: {sub_ok}")


def test_criterion_10_determinism(tmp_path):
    args = ["estimate", "sphereprod:p=2,q=2,r1=1,r2=1", "--samples", "100",
            "--t-max", "3", "--step", "2e-2", "--seed", "5"]
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    code1 = cli.main(args + ["--out", a])
    code2 = cli.main(args + ["--out", b])
    json_same = (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    csv_same = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    ok = code1 == 0 and code2 == 0 and json_same and csv_same
    _report(10, ok,
            f"two identical estimator configurations: canonical JSON identical "
            f"{json_same}, series CSV identical {csv_same}")
