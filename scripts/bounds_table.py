#!/usr/bin/env python3
"""Print curvature extremes and every closed-form entropy bound for the
built-in models, plus the per-dimension comparison against the counting-rate
bound."""

from geoflow import closed_form_bounds, parse_manifold

SPECS = [
    "sphere:n=2,r=1.0",
    "sphere:n=3,r=1.0",
    "sphere:n=4,r=1.0",
    "torus:n=2",
    "hyperbolic:n=2,c=1.0",
    "hyperbolic:n=2,c=4.0",
    "ellipsoid:a=1,b=1,c=2",
    "sphereprod:p=2,q=2,r1=1,r2=1",
    "sphereprod:p=2,q=3,r1=1,r2=2",
]


def fmt(x):
    return "-" if x is None else f"{x:10.4f}"


def main():
    header = (f"{'model':32s} {'K_max':>10s} {'K_min':>10s} {'min_ric':>10s} "
              f"{'curv bnd':>10s} {'manning':>10s} {'grossman':>10s} {'nonpos':>10s}")
    print(header)
    print("-" * len(header))
    for spec in SPECS:
        model = parse_manifold(spec)
        k_max, k_min, min_ric = model.extremal_curvatures()
        b = closed_form_bounds(model.dim, k_max, k_min, min_ric)
        print(f"{spec:32s} {k_max:10.4f} {k_min:10.4f} {min_ric:10.4f} "
              f"{fmt(b['theorem_b']):>10s} {fmt(b['manning']):>10s} "
              f"{b['grossman']:10.4f} {fmt(b['nonpositive']):>10s}")


if __name__ == "__main__":
    main()
