"""Growth-rate estimators for the geodesic flow.

Two averages are tracked on a time grid: the mean expansion of the linearized
flow over the unit sphere bundle (whose exponential growth rate upper-bounds
nothing and lower-bounds nothing per se, but whose liminf rate dominates the
topological entropy), and the ball-averaged count of geodesic arcs realized
through the radial Jacobian of the exponential map.  Growth rates are read off
as finite-window regression slopes of the log series, with the window reported
so results stay auditable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import EstimatorError
from .geodesics import block_expansion, expansion, propagate, propagate_jacobi
from .manifolds import ManifoldModel, TangentState

#: default slope window is the last two thirds of the grid
WINDOW_FRACTION = 3.0


@dataclass
class GrowthSeries:
    """Log-scale growth data y_j at times t_j with per-point standard errors."""

    times: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    sample_count: int
    seed: int
    method: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.stderr = np.asarray(self.stderr, dtype=float)
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("series values must be finite")

    def to_report(self):
        """The report ``series`` dict and the CSV lines ``t,y,<column>``.

        The dict holds ``t`` and ``y`` as ``repr`` strings.  A counting series
        adds its integrals (the CSV's ``integral`` column), rule, number of
        directions and failed count; an expansion series its standard errors
        as strings (the ``stderr`` column) and its metadata."""
        t, y, meta = self.times.tolist(), self.values.tolist(), self.metadata
        if self.method == "counting-growth":
            name, column = "integral", meta["integrals"]
            extra = {"integrals": column, **{k: meta[k] for k in ("rule", "directions", "failed")}}
        else:
            name, column = "stderr", self.stderr.tolist()
            extra = {"stderr": [repr(s) for s in column], "metadata": meta}
        lines = [f"t,y,{name}"] + [f"{a!r},{b!r},{c!r}" for a, b, c in zip(t, y, column)]
        return {"t": [repr(v) for v in t], "y": [repr(v) for v in y], **extra}, lines


@dataclass
class EntropyEstimate:
    """Fitted growth rate with its window and a 3-sigma half width."""

    method: str
    slope: float
    window: tuple
    halfwidth: float
    samples: int
    seed: int

    def to_json_dict(self):
        return {**vars(self), "window": list(self.window)}


def mane_series(model: ManifoldModel, t_grid, samples, seed=0, step=1e-3):
    """Log of the sphere-bundle average of the expansion of the linearized
    flow at each grid time.

    Homogeneous models pin the position at the base point and take the rows
    of :func:`_directions_at` there (a space form's one row); ``mode`` is its
    rule, or ``full-bundle`` where the whole unit sphere bundle is sampled.
    The rows go through :func:`_linearized_flow`: a sphere product's by
    RK4's step matrix, as 2 x 2 blocks whose singular values are closed
    form (:func:`~geoflow.geodesics.block_expansion`).  The unnormalized
    Liouville measure drops out of the growth rate, so the mean is taken
    with respect to the sampling measure directly.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0.0):
        raise ValueError("grid times must be positive")
    if model.homogeneous:
        dirs, _, mode = _directions_at(model, model.base_x, samples, seed, least=100)
        states = TangentState(0, np.broadcast_to(model.base_x, dirs.shape), dirs)
    else:
        _check_samples(samples, 100)
        states, mode = model.sample_sphere_bundle(samples, seed), "full-bundle"
    # space forms integrate the geodesic only while bench/test_bench.py::
    # test_tracer_restores_every_binding pins their charts.christoffel calls
    # (ROADMAP item 7a, step 1)
    geodesic = model.isotropic or not model.homogeneous
    phi, _, failed = _linearized_flow(model, states, t_grid, step, geodesic=geodesic)
    n_failed, ok = _census(failed, "trajectories")
    B = int(ok.sum())
    ex = (expansion if geodesic else block_expansion)(phi[:, ok])
    mean = np.mean(ex, axis=1)
    return GrowthSeries(
        times=t_grid,
        values=np.log(mean),
        stderr=np.std(ex, axis=1) / math.sqrt(B) / mean,
        sample_count=samples,
        seed=seed,
        method="mane-integral",
        metadata={
            "model": model.spec_string,
            "step": step,
            "mode": mode,
            "evaluated": B,
            "failed": n_failed,
        },
    )


def _linearized_flow(model, states, t_grid, step, accumulate_radial=False, geodesic=False):
    """Phi of the chart-0 rows ``states`` at the grid times, their radial
    integrals (G, B) or None, and the mask of failed rows.

    On a homogeneous model (a space form or a product of them), unless
    ``geodesic`` is set, each row is a run of the Jacobi system alone,
    :func:`~geoflow.geodesics.propagate_jacobi`, from the eigenvalues of K
    at the row's point in its orthonormal frame, and Phi comes as its 2 x 2
    blocks (G, B, k, 2, 2) in K's eigenframe: the model is locally
    symmetric, so K is constant in a parallel frame, and neither the
    expansion nor |det Phi[:k, k:]| depends on the frame; no row fails.
    Otherwise :func:`~geoflow.geodesics.propagate` integrates geodesic,
    frame and Phi (G, B, 2k, 2k)."""
    if model.homogeneous and not geodesic:
        x, v = states.x, states.v
        K = model.curvature_frame_matrix(x, v, model.orthonormal_frame(x, v))
        lam = np.linalg.eigvalsh(K)
        phi, radial = propagate_jacobi(lam, t_grid, step=step, accumulate_radial=accumulate_radial)
        return phi, radial, np.zeros(len(v), dtype=bool)
    res = propagate(model, states, t_grid, step=step, accumulate_radial=accumulate_radial)
    return res.phi, res.radial, res.failed


def _census(failed, what):
    """Number of failed rows and the mask of the rest; more than 1% failed
    raises :class:`EstimatorError`."""
    n_failed = int(failed.sum())
    if n_failed > 0.01 * len(failed):
        raise EstimatorError(
            f"{n_failed}/{len(failed)} {what} failed",
            failure_census={"failed": n_failed, "total": len(failed)},
        )
    return n_failed, ~failed


def slope(series: GrowthSeries, window=None):
    """Least-squares growth rate of a series over a time window.

    The half width is three times the larger of the residual-based and the
    propagated-error slope standard deviations.
    """
    if window is None:
        t_max = float(series.times[-1])
        window = (t_max / WINDOW_FRACTION, t_max)
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must satisfy t_lo < t_hi")
    mask = (series.times >= lo - 1e-12) & (series.times <= hi + 1e-12)
    m = int(mask.sum())
    if m < 4:
        raise ValueError(f"need at least 4 grid points in the window, found {m}")
    t = series.times[mask]
    y = series.values[mask]
    se = series.stderr[mask]
    tbar = t.mean()
    sxx = float(np.sum((t - tbar) ** 2))
    fitted_slope = float(np.sum((t - tbar) * y) / sxx)
    intercept = float(y.mean() - fitted_slope * tbar)
    resid = y - (intercept + fitted_slope * t)
    var_resid = float(np.sum(resid**2) / (m - 2) / sxx)
    var_prop = float(np.sum(se**2 * (t - tbar) ** 2) / sxx**2)
    halfwidth = 3.0 * math.sqrt(max(var_resid, var_prop))
    return EntropyEstimate(
        method=series.method,
        slope=fitted_slope,
        window=(lo, hi),
        halfwidth=halfwidth,
        samples=series.sample_count,
        seed=series.seed,
    )


def _unit_sphere_area(n):
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _check_samples(count, least):
    if count < least:
        raise ValueError(f"samples must be >= {least}, got {count}")


def _directions_at(model, x, count, seed, least=2):
    """The rows of both estimators at the chart-0 point x, picked by the
    model's symmetry: g(x)-unit directions (B, n), their weights on the unit
    sphere and the rule's name.  A space form looks alike in every
    direction: one row, the base direction e_0, weighs |S^{n-1}|
    (``isotropic-single``), whatever ``count`` says.  Otherwise dimension
    two takes ``count`` exact uniform ``angles`` and higher dimensions
    ``count`` seeded uniform directions (``monte-carlo``, with a split-half
    check downstream); a ``count`` below ``least`` is a ValueError.
    """
    n = model.dim
    b1 = model.unit_tangent(x, np.eye(n)[0]).v
    if model.isotropic:
        return b1[None], np.full(1, _unit_sphere_area(n)), "isotropic-single"
    _check_samples(count, least)
    if n > 2:
        dirs = model.unit_directions(x, count, np.random.default_rng(seed))
        return dirs, np.full(count, _unit_sphere_area(n) / count), "monte-carlo"
    b2 = model.orthonormal_frame(x, b1)[0]
    beta = 2.0 * math.pi * np.arange(count) / count
    dirs = np.outer(np.cos(beta), b1) + np.outer(np.sin(beta), b2)
    return model.unit_tangent(x, dirs).v, np.full(count, 2.0 * math.pi / count), "angles"


def counting_series(model, x, T_grid, angular_samples=32, step=1e-3, seed=0):
    """Ball-averaged arc count sum_dirs int_0^T |det A_v(rho)| drho dsigma(v)
    around the chart-0 point x, along one radial propagation per row of the
    direction rule :func:`_directions_at`, through :func:`_linearized_flow`:
    on a homogeneous model (a space form or a product of them) by RK4's step
    matrix."""
    T_grid = np.asarray(T_grid, dtype=float)
    if np.any(T_grid <= 0.0):
        raise ValueError("grid times must be positive")
    x = np.asarray(x, dtype=float)
    dirs, weights, rule = _directions_at(model, x, angular_samples, seed)
    states = TangentState(0, np.broadcast_to(x, dirs.shape), dirs)
    _, radial, failed = _linearized_flow(model, states, T_grid, step, accumulate_radial=True)
    n_failed, ok = _census(failed, "directions")
    radial = radial[:, ok]
    totals = radial @ weights[ok]
    if rule == "monte-carlo":
        a, b = (radial[-1, h].mean() for h in np.array_split(np.arange(radial.shape[1]), 2))
        gap = abs(a - b) / max(abs(a + b) / 2.0, 1e-300)
        if gap > 0.02:
            warnings.warn(f"direction sampling not converged: split halves differ by {gap:.1%}; "
                          "increase angular_samples")
        rel = float(_unit_sphere_area(model.dim) * np.std(radial[-1]) / math.sqrt(radial.shape[1]))
        stderr = np.full(len(T_grid), rel / max(totals[-1], 1e-300))
    else:
        stderr = np.zeros(len(T_grid))
    if np.any(totals <= 0.0):
        raise EstimatorError("counting integral vanished on the grid")
    return GrowthSeries(
        times=T_grid,
        values=np.log(totals),
        stderr=stderr,
        sample_count=angular_samples,
        seed=seed,
        method="counting-growth",
        metadata={
            "model": model.spec_string,
            "step": step,
            "rule": rule,
            "directions": len(dirs),
            "failed": n_failed,
            "integrals": [float(v) for v in totals],
        },
    )


def sphere_arc_count(d, T):
    """Number of geodesic arcs of length <= T joining two points at distance
    d on the unit two-sphere, for non-conjugate pairs (0 < d < pi).  An array
    of distances gives an array of counts.

    Arc lengths are d + 2 pi k and (2 pi - d) + 2 pi k for k >= 0.
    """
    d = np.asarray(d, dtype=float)
    if not np.all((0.0 < d) & (d < math.pi)):
        raise ValueError("d must lie strictly between 0 and pi")
    count = sum(np.maximum(np.floor((T - first) / (2.0 * math.pi)) + 1, 0)
                for first in (d, 2.0 * math.pi - d)).astype(int)
    return int(count) if count.ndim == 0 else count


def sphere_counting_oracle(T):
    """Independent value of the ball-averaged arc count on the unit two-sphere:
    integral over the range sphere of the explicit arc count, in polar
    coordinates around the source point (a 4,000-point midpoint rule dodges the jump set)."""
    d = (np.arange(4000) + 0.5) * math.pi / 4000
    counts = sphere_arc_count(d, T)
    return float(np.sum(counts * 2.0 * math.pi * np.sin(d)) * math.pi / 4000)


def entropy_lower_from_radius(n, delta, R):
    """Growth-rate lower bound -sqrt(delta) log(R) / (pi sqrt(n-1)) from the
    homotopy-series radius of convergence R under a Ricci lower bound delta.

    R above one signals a rationally elliptic space, where the bound carries
    no information; the value is clamped to zero with a warning.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if R <= 0.0:
        raise ValueError("R must be positive")
    if n == 2:
        warnings.warn(
            "simply connected surfaces are rationally elliptic; the lower "
            "bound is vacuous in dimension 2")
    if R > 1.0:
        warnings.warn("R > 1 marks a rationally elliptic space; returning 0")
        return 0.0
    return -math.sqrt(delta) * math.log(R) / (math.pi * math.sqrt(n - 1))
