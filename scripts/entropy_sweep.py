#!/usr/bin/env python3
"""Run the expansion-growth and arc-counting estimators on one model and
write both series as CSV next to a JSON summary: ``PREFIX_mane.csv`` holds
``t,y,stderr`` and ``PREFIX_count.csv`` ``t,y,integral``, the lines ``geoflow
estimate`` and ``geoflow count`` print with ``--format csv``.

Usage: python scripts/entropy_sweep.py [spec] [t_max] [out_prefix]
"""

import json
import sys

import numpy as np

from geoflow import (checked_bound, counting_series, mane_series, parse_manifold,
                     slope)


def main(argv):
    spec = argv[1] if len(argv) > 1 else "sphereprod:p=2,q=2,r1=1,r2=1"
    t_max = float(argv[2]) if len(argv) > 2 else 20.0
    prefix = argv[3] if len(argv) > 3 else "sweep"
    model = parse_manifold(spec)
    grid = np.linspace(t_max / 10.0, t_max, 16)
    step = 1e-2

    mane = mane_series(model, grid, samples=128, seed=0, step=step)
    mane_est = slope(mane)
    count = counting_series(model, model.base_x, grid, angular_samples=32,
                            step=step, seed=0)
    count_est = slope(count)

    k_max, k_min, min_ric = model.extremal_curvatures()
    _, bound = checked_bound(model.dim, k_max, k_min, min_ric)

    for name, series in (("mane", mane), ("count", count)):
        with open(f"{prefix}_{name}.csv", "w", newline="") as fh:
            fh.write("".join(line + "\n" for line in series.to_report()[1]))
    summary = {
        "model": spec,
        "expansion_growth": mane_est.to_json_dict(),
        "counting_growth": count_est.to_json_dict(),
        "closed_form_bound": bound,
        "chain_holds": count_est.slope <= mane_est.slope + 0.05 <= bound + 0.10,
    }
    with open(f"{prefix}.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    print(json.dumps(summary, indent=2, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv)
