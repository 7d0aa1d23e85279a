"""Command-line surface: bound evaluation, entropy estimation, arc counting,
obstruction certification, and the universal-constant comparison table.

Each command returns its exit code, report body, text lines and CSV lines;
:func:`main` adds the configuration, seed, module versions and timing, writes
``--out`` and prints the chosen format.  ``--out PREFIX`` writes the report
to ``PREFIX.json`` and the CSV lines, the bytes ``--format csv`` prints, to
``PREFIX.csv``.  Both files are canonical: identical configurations produce
byte-identical files (wall-clock time is reported on stream output only,
last in text output).

Exit codes: 0 success/pass, 1 obstruction found, 2 input error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import __version__
from .bounds import checked_bound, closed_form_bounds
from .entropy import (counting_series, mane_series, slope,
                      sphere_counting_oracle)
from .errors import GeoflowError
from .manifolds import parse_manifold
from .topology import (_fmt6, certify, gromov_log10_c, homology_dim_bound_log10,
                       load_profile)

#: slack added to closed-form bounds when checking fitted slopes against them
SLOPE_TOLERANCE = 0.05


def _joined(lines):
    """Output lines as one string, each ended by a line feed."""
    return "".join(line + "\n" for line in lines)


def canonical_report_bytes(report):
    """Stable byte encoding of a report with volatile fields removed."""
    clean = {k: v for k, v in report.items() if k != "timing"}
    return (json.dumps(clean, sort_keys=True, indent=2) + "\n").encode()


def cmd_bound(args):
    model = parse_manifold(args.manifold)
    k_max, k_min, min_ricci = model.extremal_curvatures(args.samples, args.seed)
    n = model.dim
    payload = {"n": n, "K_max": k_max, "K_min": k_min, "min_ricci": min_ricci,
               **closed_form_bounds(n, k_max, k_min, min_ricci)}
    text = [f"model {model.spec_string} (n = {n})"] + [
        f"  {key:12s} {_fmt6(value)}" for key, value in payload.items() if key != "n"]
    csv_lines = ["quantity,value"] + [f"{k},{payload[k]}" for k in payload]
    return 0, {"bounds": payload}, text, csv_lines


def _default_grid(t_max, points=25):
    if not np.isfinite(t_max):
        raise ValueError(f"--t-max must be finite, got {t_max!r}")
    return np.linspace(t_max / 10.0, t_max, points)


def cmd_estimate(args):
    model = parse_manifold(args.manifold)
    grid = _default_grid(args.t_max)
    series = mane_series(model, grid, args.samples, args.seed, args.step)
    est = slope(series)
    k_max, k_min, min_ricci = model.extremal_curvatures(args.samples, args.seed)
    bound_name, bound = checked_bound(model.dim, k_max, k_min, min_ricci)
    satisfied = est.slope <= bound + SLOPE_TOLERANCE
    series_body, csv_lines = series.to_report()
    body = {
        "estimate": est.to_json_dict(),
        "series": series_body,
        "bound_check": {
            "bound": bound,
            "bound_name": bound_name,
            "tolerance": SLOPE_TOLERANCE,
            "satisfied": satisfied,
        },
    }
    text = [
        f"model {model.spec_string}: growth rate of the mean expansion",
        f"  slope     {_fmt6(est.slope)} +- {_fmt6(est.halfwidth)}",
        f"  window    [{_fmt6(est.window[0])}, {_fmt6(est.window[1])}]",
        f"  mode      {series.metadata['mode']} ({series.metadata['evaluated']} evaluated)",
        f"  {bound_name}  {_fmt6(bound)} (slope must stay within +{SLOPE_TOLERANCE})",
    ]
    if not satisfied:
        sys.stderr.write(
            f"error: fitted slope {est.slope:.6g} exceeds {bound_name} bound "
            f"{bound:.6g} + {SLOPE_TOLERANCE}\n")
    return 0 if satisfied else 3, body, text, csv_lines


def cmd_count(args):
    model = parse_manifold(args.manifold)
    grid = _default_grid(args.t_max, points=12)
    series = counting_series(model, model.base_x, grid, args.samples, args.step, args.seed)
    est = slope(series)
    series_body, csv_lines = series.to_report()
    body = {"growth": est.to_json_dict(), "series": series_body}
    text = [
        f"model {model.spec_string}: ball-averaged geodesic arc count",
        f"  integral at T={_fmt6(float(grid[-1]))}: {_fmt6(series.metadata['integrals'][-1])}",
        f"  growth slope {_fmt6(est.slope)} +- {_fmt6(est.halfwidth)} on "
        f"[{_fmt6(est.window[0])}, {_fmt6(est.window[1])}]",
        f"  directions {series.metadata['directions']} ({series.metadata['rule']}), "
        f"{series.metadata['failed']} failed",
    ]
    if model.kind == "sphere" and model.dim == 2 and abs(model.params["r"] - 1.0) < 1e-12:
        T = float(grid[-1])
        oracle_val = sphere_counting_oracle(T)
        got = series.metadata["integrals"][-1]
        body["sphere_oracle"] = {
            "T": T,
            "oracle": oracle_val,
            "computed": got,
            "rel_err": abs(got - oracle_val) / oracle_val,
        }
        text.append(f"  closed-form cross-check at T={_fmt6(T)}: "
                    f"rel err {_fmt6(body['sphere_oracle']['rel_err'])}")
    return 0, body, text, csv_lines


def cmd_certify(args):
    rep = certify(load_profile(args.profile))
    csv_lines = ["test,applicable,observed,threshold,passed"] + [
        f"{t.name},{t.applicable},{t.observed},{t.threshold},{t.passed}"
        for t in rep.tests]
    return (1 if rep.obstructed else 0, {"obstruction": rep.to_json_dict()},
            rep.render_text().split("\n"), csv_lines)


def cmd_gromov(args):
    if args.n_max < 2:
        raise ValueError(f"--n-max must be >= 2, got {args.n_max}")
    rows = []
    for n in range(2, args.n_max + 1):
        rows.append({
            "n": n,
            "log10_universal_constant": gromov_log10_c(n),
            "log10_betti_sum_bound": homology_dim_bound_log10(n),
        })
    all_smaller = all(
        r["log10_betti_sum_bound"] < r["log10_universal_constant"] for r in rows)
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
    return 0, {"table": rows, "curvature_bound_smaller_everywhere": all_smaller}, text, csv_lines


@functools.lru_cache(maxsize=None)  # one build costs about as much as a certify job
def build_parser():
    parser = argparse.ArgumentParser(
        prog="geoflow",
        description="entropy bounds for geodesic flows and topological "
                    "obstructions to Einstein metrics of non-negative curvature",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func):
        p.set_defaults(func=func)
        p.add_argument("--out", default=None, help="output path prefix")
        p.add_argument("--format", choices=["json", "csv", "text"], default="text")

    def manifold(p, func, integrates=True):
        common(p, func)
        p.add_argument("manifold", nargs="?", default=None,
                       help="spec string like sphere:n=2,r=1.0 or JSON")
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--seed", type=int, default=0)
        if integrates:
            p.add_argument("--t-max", dest="t_max", type=float, default=10.0)
            p.add_argument("--step", type=float, default=1e-3,
                           help="largest RK4 step, cut onto each grid time")

    p = sub.add_parser("bound", help="curvature extremes and entropy bounds")
    manifold(p, cmd_bound, integrates=False)

    p = sub.add_parser("estimate", help="growth rate of the mean expansion")
    manifold(p, cmd_estimate)

    p = sub.add_parser("count", help="ball-averaged geodesic arc counting")
    manifold(p, cmd_count)

    p = sub.add_parser("certify", help="Einstein-metric obstruction tests")
    common(p, cmd_certify)
    p.add_argument("--profile", required=True,
                   help="Betti profile JSON (path or inline)")

    p = sub.add_parser("gromov", help="universal-constant comparison table")
    common(p, cmd_gromov)
    p.add_argument("--n-max", dest="n_max", type=int, default=10)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        if getattr(args, "manifold", "") is None:
            raise ValueError("a manifold spec is required")
        code, body, text, csv_lines = args.func(args)
        config = {key: getattr(args, key, None) for key in
                  ("manifold", "profile", "t_max", "samples", "seed", "step", "format")}
        if args.command == "gromov":
            config["n_max"] = args.n_max
        report = {"command": args.command, "config": config,
                  "versions": {"geoflow": __version__, "numpy": np.__version__}, **body,
                  "timing": {"wall_clock_s": time.perf_counter() - t0}}
        if args.out:
            with open(args.out + ".json", "wb") as fh:
                fh.write(canonical_report_bytes(report))
            with open(args.out + ".csv", "wb") as fh:
                fh.write(_joined(csv_lines).encode())
        if args.format == "json":
            lines = [json.dumps(report, sort_keys=True, indent=2)]
        elif args.format == "csv":
            lines = csv_lines
        else:
            lines = text + [f"wall clock: {report['timing']['wall_clock_s']:.2f}s"]
        sys.stdout.write(_joined(lines))
        return code
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (GeoflowError, FloatingPointError) as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
