"""Command-line surface: bound evaluation, entropy estimation, arc counting,
obstruction certification, and the universal-constant comparison table.

Every report embeds the full configuration, the seed, and module versions.
Reports written to ``--out`` are canonical: identical configurations produce
byte-identical files (wall-clock time is reported on stream output only).

Exit codes: 0 success/pass, 1 obstruction found, 2 input error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .bounds import (curvature_entropy_bound, grossman_counting_rate,
                     manning_entropy_bound, nonpositive_entropy_bound)
from .entropy import (counting_series, mane_series, slope,
                      sphere_counting_oracle)
from .errors import EstimatorError, GeoflowError, ProfileValidationError
from .manifolds import parse_manifold
from .topology import (certify, gromov_log10_c, homology_dim_bound_log10,
                       load_profile)

#: slack added to closed-form bounds when checking fitted slopes against them
SLOPE_TOLERANCE = 0.05


def _versions():
    return {"geoflow": __version__, "numpy": np.__version__}


def _fmt6(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return str(value)
        return f"{value:.6g}"
    return str(value)


def canonical_report_bytes(report):
    """Stable byte encoding of a report with volatile fields removed."""
    clean = {k: v for k, v in report.items() if k != "timing"}
    return (json.dumps(clean, sort_keys=True, indent=2) + "\n").encode()


def _emit(report, args, text_lines, csv_lines=None):
    if args.out:
        with open(args.out + ".json", "wb") as fh:
            fh.write(canonical_report_bytes(report))
    if args.format == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    elif args.format == "csv" and csv_lines:
        for line in csv_lines:
            sys.stdout.write(line + "\n")
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def _base_report(command, args, extra_config=None):
    config = {
        "manifold": getattr(args, "manifold", None),
        "profile": getattr(args, "profile", None),
        "t_max": getattr(args, "t_max", None),
        "samples": getattr(args, "samples", None),
        "seed": getattr(args, "seed", None),
        "step": getattr(args, "step", None),
        "format": args.format,
    }
    if extra_config:
        config.update(extra_config)
    return {"command": command, "config": config, "versions": _versions()}


def cmd_bound(args):
    model = parse_manifold(args.manifold)
    k_max, k_min, min_ricci = model.extremal_curvatures(args.samples, args.seed)
    n = model.dim
    payload = {
        "n": n,
        "K_max": k_max,
        "K_min": k_min,
        "min_ricci": min_ricci,
        "theorem_b": curvature_entropy_bound(n, k_max, min_ricci) if k_max > 0 else None,
        "manning": manning_entropy_bound(n, max(abs(k_max), abs(k_min)))
        if max(abs(k_max), abs(k_min)) > 0 else None,
        "grossman": grossman_counting_rate(n),
        "nonpositive": nonpositive_entropy_bound(n, min_ricci) if min_ricci <= 0 else None,
    }
    report = _base_report("bound", args)
    report["bounds"] = payload
    report["timing"] = {"wall_clock_s": time.perf_counter() - args._t0}
    text = [f"model {model.spec_string} (n = {n})"]
    for key in ("K_max", "K_min", "min_ricci", "theorem_b", "manning", "grossman",
                "nonpositive"):
        text.append(f"  {key:12s} {_fmt6(payload[key])}")
    text.append(f"wall clock: {report['timing']['wall_clock_s']:.2f}s")
    csv_lines = ["quantity,value"] + [f"{k},{payload[k]}" for k in payload]
    _emit(report, args, text, csv_lines)
    return 0


def _default_grid(t_max, points=25):
    return np.linspace(t_max / 10.0, t_max, points)


def cmd_estimate(args):
    if args.samples < 100:
        raise ValueError("samples must be >= 100")
    model = parse_manifold(args.manifold)
    grid = _default_grid(args.t_max)
    series = mane_series(model, grid, args.samples, args.seed, args.step)
    est = slope(series)
    k_max, _, min_ricci = model.extremal_curvatures(args.samples, args.seed)
    if k_max > 0:
        bound = curvature_entropy_bound(model.dim, k_max, min_ricci)
        bound_name = "theorem_b"
    else:
        bound = nonpositive_entropy_bound(model.dim, min_ricci)
        bound_name = "nonpositive"
    report = _base_report("estimate", args)
    report["estimate"] = est.to_json_dict()
    report["series"] = {
        "t": [repr(float(t)) for t in series.times],
        "y": [repr(float(y)) for y in series.values],
        "stderr": [repr(float(s)) for s in series.stderr],
        "metadata": series.metadata,
    }
    report["bound_check"] = {
        "bound": bound,
        "bound_name": bound_name,
        "tolerance": SLOPE_TOLERANCE,
        "satisfied": est.slope <= bound + SLOPE_TOLERANCE,
    }
    report["timing"] = {"wall_clock_s": time.perf_counter() - args._t0}
    if args.out:
        series.to_csv(args.out + ".csv")
    text = [
        f"model {model.spec_string}: growth rate of the mean expansion",
        f"  slope     {_fmt6(est.slope)} +- {_fmt6(est.halfwidth)}",
        f"  window    [{_fmt6(est.window[0])}, {_fmt6(est.window[1])}]",
        f"  mode      {series.metadata['mode']} ({series.metadata['evaluated']} evaluated)",
        f"  {bound_name}  {_fmt6(bound)} (slope must stay within +{SLOPE_TOLERANCE})",
        f"wall clock: {report['timing']['wall_clock_s']:.2f}s",
    ]
    csv_lines = ["t,y,stderr"] + [
        f"{t!r},{y!r},{s!r}" for t, y, s in
        zip(series.times.tolist(), series.values.tolist(), series.stderr.tolist())]
    _emit(report, args, text, csv_lines)
    if not report["bound_check"]["satisfied"]:
        sys.stderr.write(
            f"error: fitted slope {est.slope:.6g} exceeds {bound_name} bound "
            f"{bound:.6g} + {SLOPE_TOLERANCE}\n")
        return 3
    return 0


def cmd_count(args):
    model = parse_manifold(args.manifold)
    grid = _default_grid(args.t_max, points=12)
    x = model.base_x
    series = counting_series(model, x, grid, args.samples, args.step, args.seed)
    est = slope(series)
    report = _base_report("count", args)
    report["growth"] = est.to_json_dict()
    report["series"] = {
        "t": [repr(float(t)) for t in series.times],
        "y": [repr(float(y)) for y in series.values],
        "integrals": series.metadata["integrals"],
    }
    oracle = None
    if model.kind == "sphere" and model.dim == 2 and abs(model.params["r"] - 1.0) < 1e-12:
        T = float(grid[-1])
        oracle_val = sphere_counting_oracle(T)
        got = series.metadata["integrals"][-1]
        oracle = {
            "T": T,
            "oracle": oracle_val,
            "computed": got,
            "rel_err": abs(got - oracle_val) / oracle_val,
        }
        report["sphere_oracle"] = oracle
    report["timing"] = {"wall_clock_s": time.perf_counter() - args._t0}
    if args.out:
        series.to_csv(args.out + ".csv")
    text = [
        f"model {model.spec_string}: ball-averaged geodesic arc count",
        f"  integral at T={_fmt6(float(grid[-1]))}: {_fmt6(series.metadata['integrals'][-1])}",
        f"  growth slope {_fmt6(est.slope)} +- {_fmt6(est.halfwidth)} on "
        f"[{_fmt6(est.window[0])}, {_fmt6(est.window[1])}]",
    ]
    if oracle:
        text.append(
            f"  closed-form cross-check at T={_fmt6(oracle['T'])}: "
            f"rel err {_fmt6(oracle['rel_err'])}")
    text.append(f"wall clock: {report['timing']['wall_clock_s']:.2f}s")
    csv_lines = ["t,y,integral"] + [
        f"{t!r},{y!r},{v!r}" for t, y, v in
        zip(series.times.tolist(), series.values.tolist(),
            series.metadata["integrals"])]
    _emit(report, args, text, csv_lines)
    return 0


def cmd_certify(args):
    profile = load_profile(args.profile)
    rep = certify(profile)
    report = _base_report("certify", args)
    report["obstruction"] = rep.to_json_dict()
    report["timing"] = {"wall_clock_s": time.perf_counter() - args._t0}
    csv_lines = ["test,applicable,observed,threshold,passed"] + [
        f"{t.name},{t.applicable},{t.observed},{t.threshold},{t.passed}"
        for t in rep.tests]
    _emit(report, args, rep.render_text().split("\n"), csv_lines)
    return 1 if rep.obstructed else 0


def cmd_gromov(args):
    rows = []
    for n in range(2, args.n_max + 1):
        rows.append({
            "n": n,
            "log10_universal_constant": gromov_log10_c(n),
            "log10_betti_sum_bound": homology_dim_bound_log10(n),
        })
    report = _base_report("gromov", args, extra_config={"n_max": args.n_max})
    report["table"] = rows
    all_smaller = all(
        r["log10_betti_sum_bound"] < r["log10_universal_constant"] for r in rows)
    report["curvature_bound_smaller_everywhere"] = all_smaller
    report["timing"] = {"wall_clock_s": time.perf_counter() - args._t0}
    text = ["  n   log10 universal constant   log10 Betti-sum bound"]
    for r in rows:
        text.append(
            f"  {r['n']:<3d} {_fmt6(r['log10_universal_constant']):>24s} "
            f"{_fmt6(r['log10_betti_sum_bound']):>21s}")
    text.append(
        "the curvature-based bound is smaller for every n in range"
        if all_smaller else "the universal constant is smaller somewhere in range")
    csv_lines = ["n,log10_universal_constant,log10_betti_sum_bound"] + [
        f"{r['n']},{r['log10_universal_constant']!r},{r['log10_betti_sum_bound']!r}"
        for r in rows]
    _emit(report, args, text, csv_lines)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="geoflow",
        description="entropy bounds for geodesic flows and topological "
                    "obstructions to Einstein metrics of non-negative curvature",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output path prefix")
        p.add_argument("--format", choices=["json", "csv", "text"], default="text")

    def manifold(p, integrates=True):
        common(p)
        p.add_argument("--manifold", required=False,
                       help="spec string like sphere:n=2,r=1.0 or JSON")
        p.add_argument("manifold_pos", nargs="?", default=None)
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--seed", type=int, default=0)
        if integrates:
            p.add_argument("--t-max", dest="t_max", type=float, default=10.0)
            p.add_argument("--step", type=float, default=1e-3)

    p = sub.add_parser("bound", help="curvature extremes and entropy bounds")
    manifold(p, integrates=False)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("estimate", help="growth rate of the mean expansion")
    manifold(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("count", help="ball-averaged geodesic arc counting")
    manifold(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("certify", help="Einstein-metric obstruction tests")
    common(p)
    p.add_argument("--profile", required=True,
                   help="Betti profile JSON (path or inline)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("gromov", help="universal-constant comparison table")
    common(p)
    p.add_argument("--n-max", dest="n_max", type=int, default=10)
    p.set_defaults(func=cmd_gromov)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    args._t0 = time.perf_counter()
    if hasattr(args, "manifold_pos") and args.manifold_pos and not args.manifold:
        args.manifold = args.manifold_pos
    if hasattr(args, "manifold") and getattr(args, "manifold", None) is None \
            and args.command in ("bound", "estimate", "count"):
        sys.stderr.write("error: a manifold spec is required\n")
        return 2
    try:
        return args.func(args)
    except (ValueError, ProfileValidationError, json.JSONDecodeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (EstimatorError, GeoflowError, FloatingPointError) as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
