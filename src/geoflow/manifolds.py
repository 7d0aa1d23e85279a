"""Model Riemannian manifolds and pointwise curvature evaluation.

A :class:`ManifoldModel` bundles one or more overlapping charts with the
closed-form curvature data of the model (when available) and provides the
pointwise operations everything else builds on: metric, Christoffel symbols,
the symmetric Jacobi curvature operator ``w -> R(w, v)v`` restricted to the
orthogonal complement of ``v``, directional Ricci curvature, curvature
extremes, and seeded sampling of the unit sphere bundle.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import charts as _charts
from .errors import NumericsError

_TWO_PI = 2.0 * np.pi


@dataclass
class TangentState:
    """A point of the unit sphere bundle: chart id, chart point, unit vector."""

    chart_id: int
    x: np.ndarray
    v: np.ndarray

    def copy(self):
        return TangentState(self.chart_id, self.x.copy(), self.v.copy())


@dataclass
class CurvatureSpectrum:
    """Eigen-decomposition of the Jacobi curvature operator at a tangent state.

    ``eigenvalues`` are ascending; ``eigenvectors[i]`` is the chart-coordinate
    vector of the i-th eigendirection, orthonormal under g(x) and orthogonal
    to v.
    """

    theta: TangentState
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def ricci(self):
        return float(np.sum(self.eigenvalues))


@dataclass(frozen=True)
class CurvatureFactor:
    """One factor of a model's closed-form curvature.

    ``coords`` selects the factor's chart coordinates and ``dim`` is its
    dimension.  Every plane tangent to the factor at chart point x has
    sectional curvature ``curvature(chart, x)``; planes spanned by vectors of
    two different factors are flat.  ``k_min`` and ``k_max`` are the closed-form
    extremes of ``curvature`` over the factor.
    """

    coords: slice
    dim: int
    curvature: Callable
    k_min: float
    k_max: float


def _constant_factor(coords, dim, K):
    return CurvatureFactor(coords, dim, lambda chart, x: K, K, K)


def _g_inner(a, g, b):
    return np.einsum("...i,...ij,...j->...", a, g, b)


def gram_schmidt(g, v, vectors):
    """Orthonormalize ``vectors`` (..., m, n) under the metric g, in order,
    within the g-orthogonal complement of v."""
    vn = v / np.sqrt(_g_inner(v, g, v))[..., None]
    out = np.empty(vectors.shape)
    for k in range(vectors.shape[-2]):
        w = vectors[..., k, :]
        w = w - _g_inner(w, g, vn)[..., None] * vn
        for j in range(k):
            ej = out[..., j, :]
            w = w - _g_inner(w, g, ej)[..., None] * ej
        out[..., k, :] = w / np.sqrt(_g_inner(w, g, w))[..., None]
    return out


@dataclass
class ManifoldModel:
    kind: str
    dim: int
    charts: list
    params: dict = field(default_factory=dict)
    homogeneous: bool = False
    isotropic: bool = False
    spec_string: str = ""
    # closed-form curvature, one entry per factor; empty when it comes from
    # the metric jet (charts.metric_jet)
    factors: tuple = ()
    # chart-0 coordinates of a generic base point
    base_x: np.ndarray | None = None

    # -- basic pointwise evaluators ------------------------------------------------

    def chart(self, chart_id=0):
        """Chart ``chart_id``.  An array of per-row ids gives one chart that
        evaluates each row of a batch in its own chart; a chart is returned
        as it is, so every ``chart_id`` below may also be such a chart."""
        if isinstance(chart_id, _charts.Chart):
            return chart_id
        if np.ndim(chart_id) == 0:
            return self.charts[chart_id]
        return self.charts[0].per_row(self.charts, chart_id)

    def metric(self, x, chart_id=0):
        x = np.asarray(x, dtype=float)
        _charts.require_in_domain(self.chart(chart_id), x)
        g = self.chart(chart_id).metric(x)
        if not np.all(np.isfinite(g)):
            raise NumericsError("metric evaluation produced non-finite entries")
        return g

    def christoffel(self, x, chart_id=0):
        x = np.asarray(x, dtype=float)
        _charts.require_in_domain(self.chart(chart_id), x)
        gam = _charts.christoffel(self.chart(chart_id), x)
        if not np.all(np.isfinite(gam)):
            raise NumericsError("Christoffel evaluation produced non-finite entries")
        return gam

    def inner(self, x, a, b, chart_id=0):
        g = self.chart(chart_id).metric(x)
        return np.einsum("...i,...ij,...j->...", a, g, b)

    def norm(self, x, a, chart_id=0):
        return np.sqrt(self.inner(x, a, a, chart_id))

    def unit_tangent(self, x, v, chart_id=0):
        """Normalized TangentState; the one place a vector is rescaled."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        nrm = self.norm(x, v, chart_id)
        if not np.all(nrm > 0.0):
            raise ValueError("cannot normalize a zero tangent vector")
        return TangentState(chart_id, x, v / nrm)

    def base_state(self, direction=None):
        """A deterministic unit tangent state at the model base point."""
        x = self.base_x.copy()
        if direction is None:
            direction = np.zeros(self.dim)
            direction[0] = 1.0
        return self.unit_tangent(x, direction, 0)

    # -- frames ---------------------------------------------------------------------

    def orthonormal_frame(self, x, v, chart_id=0):
        """Batched g-orthonormal frame of the complement of v, shape (..., n-1, n).

        Deterministic: coordinate directions are Gram-Schmidt'ed against v in
        the order of increasing alignment with v.
        """
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        n = self.dim
        g = self.chart(chart_id).metric(x)
        batch = x.shape[:-1]
        eye = np.broadcast_to(np.eye(n), batch + (n, n))
        gdiag = np.einsum("...ii->...i", g)
        scores = np.abs(np.einsum("...ij,...j->...i", g, v)) / np.sqrt(gdiag)
        order = np.argsort(scores, axis=-1)  # ascending: least aligned first
        kept = order[..., : n - 1]
        cand = np.take_along_axis(eye, kept[..., None], axis=-2)
        return gram_schmidt(g, v, cand)

    # -- curvature ------------------------------------------------------------------

    def curvature_frame_matrix(self, x, v, frame, chart_id=0, force_fd=False):
        """Matrix K_ij = <R(E_i, v)v, E_j> of the Jacobi operator in a frame,
        g-orthonormal and orthogonal to the unit vector v (:meth:`_jacobi_form`)."""
        if len(self.factors) == 1 and not force_fd:
            # R(E_i, v)v = K (E_i - <E_i, v> v) = K E_i on such a frame
            k = self.dim - 1
            out = np.zeros(np.shape(x)[:-1] + (k, k))
            idx = np.arange(k)
            K = self.factors[0].curvature(self.chart(chart_id), x)
            out[..., idx, idx] = np.asarray(K)[..., None]
            return out
        return self._jacobi_form(x, v, frame, chart_id, force_fd)

    def _jacobi_form(self, x, v, E, chart_id=0, force_fd=False):
        """<R(E_i, v)v, E_j> for any vectors E (..., m, n), from the curvature
        factors, or from :func:`charts.riemann` if there are none or ``force_fd``."""
        ch = self.chart(chart_id)
        g = ch.metric(x)
        if not self.factors or force_fd:
            Rv = np.einsum("...labc,...ka,...b,...c->...kl", _charts.riemann(ch, x), E, v, v)
            K = np.einsum("...kl,...lm,...jm->...kj", Rv, g, E)
            return 0.5 * (K + np.swapaxes(K, -1, -2))
        out = 0.0
        for f in self.factors:
            sl = f.coords
            gf, vf, Ef = g[..., sl, sl], v[..., sl], E[..., sl]
            vv = _g_inner(vf, gf, vf)
            Ev = np.einsum("...ki,...ij,...j->...k", Ef, gf, vf)
            EE = np.einsum("...ki,...ij,...lj->...kl", Ef, gf, Ef)
            Kf = np.asarray(f.curvature(ch, x))[..., None, None]
            out = out + Kf * (vv[..., None, None] * EE - Ev[..., :, None] * Ev[..., None, :])
        return out

    def curvature_operator(self, theta, force_fd=False):
        """Eigen-decomposition of the Jacobi operator at a unit tangent state."""
        self._check_unit(theta)
        frame = self.orthonormal_frame(theta.x, theta.v, theta.chart_id)
        K = self.curvature_frame_matrix(theta.x, theta.v, frame, theta.chart_id, force_fd)
        w, V = np.linalg.eigh(K)
        vecs = np.einsum("...ik,...im->...km", V, frame)
        return CurvatureSpectrum(theta, w, vecs)

    def ricci(self, theta):
        """Ricci curvature in the direction of a unit tangent vector."""
        self._check_unit(theta)
        frame = self.orthonormal_frame(theta.x, theta.v, theta.chart_id)
        K = self.curvature_frame_matrix(theta.x, theta.v, frame, theta.chart_id)
        return float(np.trace(K))

    def sectional(self, x, u, w, chart_id=0, force_fd=False):
        """Sectional curvature of the plane spanned by u, w at x."""
        x, u, w = (np.asarray(a, dtype=float) for a in (x, u, w))
        g = self.chart(chart_id).metric(x)
        den = _g_inner(u, g, u) * _g_inner(w, g, w) - _g_inner(u, g, w) ** 2
        return self._jacobi_form(x, w, u[..., None, :], chart_id, force_fd)[..., 0, 0] / den

    def _check_unit(self, theta, tol=1e-8):
        nrm = self.norm(theta.x, theta.v, theta.chart_id)
        if abs(float(nrm) - 1.0) > tol:
            raise ValueError(f"tangent vector is not unit: |v|={float(nrm)!r}")

    # -- curvature extremes -----------------------------------------------------------

    def extremal_curvatures(self, sample_count=200, seed=0, force_sampling=False):
        """(K_max, K_min, min_ricci).

        Closed forms from the curvature factors; otherwise sampled 2-planes and
        directions refined by shrinking-step coordinate ascent, with the
        returned extremes inflated by a 1e-3 relative safety factor so K_max
        stays an upper bound (and K_min / min_ricci lower bounds) at the
        sampled resolution.
        """
        if sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if self.factors and not force_sampling:
            fs = self.factors
            k_min = min(f.k_min for f in fs)
            if len(fs) > 1:
                # a plane spanned by vectors from two factors is flat
                k_min = min(k_min, 0.0)
            return max(f.k_max for f in fs), k_min, min((f.dim - 1) * f.k_min for f in fs)
        return self._sampled_extremes(sample_count, seed)

    def _sampled_extremes(self, sample_count, seed):
        rng = np.random.default_rng(seed)
        states = self.sample_sphere_bundle(10 * sample_count, seed)
        X = np.stack([s.x for s in states])
        V = np.stack([s.v for s in states])
        # random unit vector in the complement of V: combine frame vectors
        frame = self.orthonormal_frame(X, V)
        coeff = rng.standard_normal(X.shape[:-1] + (self.dim - 1,))
        coeff = coeff / np.linalg.norm(coeff, axis=-1, keepdims=True)
        W = np.einsum("...k,...ki->...i", coeff, frame)
        K = self.sectional(X, V, W)
        ric = np.trace(self.curvature_frame_matrix(X, V, frame), axis1=-2, axis2=-1)

        def ricci(x, v):
            return self.ricci(self.unit_tangent(x, v))

        top = max(1, len(states) // 100)
        kmax = max(self._ascend(self.sectional, (X[i], V[i], W[i]), +1.0)
                   for i in np.argsort(K)[::-1][:top])
        kmin = min(self._ascend(self.sectional, (X[i], V[i], W[i]), -1.0)
                   for i in np.argsort(K)[:top])
        rmin = min(self._ascend(ricci, (X[i], V[i]), -1.0) for i in np.argsort(ric)[:top])
        tol = 1e-3
        kmax = kmax + tol * abs(kmax)
        kmin = kmin - tol * abs(kmin)
        rmin = rmin - tol * abs(rmin)
        return float(kmax), float(kmin), float(rmin)

    def _ascend(self, f, parts, direction, rounds=8, step0=0.2):
        """Shrinking-step coordinate ascent of direction * f(*parts) over the
        chart point parts[0] and the vectors after it."""
        parts = [p.copy() for p in parts]
        cur = float(f(*parts))
        step = step0
        for _ in range(rounds):
            improved = False
            for which in range(len(parts)):
                for k in range(self.dim):
                    for sgn in (+1.0, -1.0):
                        trial = [p.copy() for p in parts]
                        trial[which][k] += sgn * step
                        if which == 0 and float(self.chart(0).margin(trial[0])) <= 1e-6:
                            continue
                        try:
                            val = float(f(*trial))
                        except (ValueError, NumericsError, FloatingPointError):
                            continue
                        if direction * val > direction * cur + 1e-14:
                            parts, cur = trial, val
                            improved = True
            if not improved:
                step *= 0.5
        return cur

    # -- sampling ---------------------------------------------------------------------

    def sample_sphere_bundle(self, count, seed=0):
        """Seeded sample of unit tangent states.

        Positions follow the Riemannian volume density sqrt(det g) over chart 0
        (pinned at the base point for homogeneous models); directions are
        uniform on the g(x)-unit sphere.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        rng = np.random.default_rng(seed)
        if self.homogeneous:
            X = np.tile(self.base_x, (count, 1))
        else:
            X = self._rejection_positions(count, rng)
        V = self.unit_directions(X, count, rng)
        return [TangentState(0, X[i], V[i]) for i in range(count)]

    def unit_directions(self, x, count, rng, chart_id=0):
        """``count`` seeded directions uniform on the g(x)-unit sphere, (count, n);
        x is one chart point or one per direction."""
        n = self.dim
        g = self.chart(chart_id).metric(x)
        L = np.linalg.cholesky(g)
        Z = rng.standard_normal((count, n))
        Z = Z / np.linalg.norm(Z, axis=-1, keepdims=True)
        LT = np.broadcast_to(np.swapaxes(L, -1, -2), (count, n, n))
        V = np.linalg.solve(LT, Z[..., None])[..., 0]
        return V / np.sqrt(_g_inner(V, g, V))[..., None]

    def _rejection_positions(self, count, rng):
        box, bound = self._sample_box()
        lo, hi = box[:, 0], box[:, 1]
        out = np.empty((count, self.dim))
        have = 0
        while have < count:
            m = max(4 * (count - have), 64)
            X = lo + (hi - lo) * rng.random((m, self.dim))
            dens = np.sqrt(np.abs(np.linalg.det(self.chart(0).metric(X))))
            keep = rng.random(m) * bound < dens
            keep &= self.chart(0).margin(X) > 1e-6
            Xk = X[keep]
            take = min(len(Xk), count - have)
            out[have : have + take] = Xk[:take]
            have += take
        return out

    def _sample_box(self):
        """Chart-0 sampling box and an upper bound for sqrt(det g) on it."""
        ch = self.chart(0)
        if self.kind == "sphere":
            box = np.array([[1e-3, np.pi - 1e-3]] * (self.dim - 1) + [[0.0, _TWO_PI]])
            return box, ch.radius**self.dim * 1.0001
        if self.kind == "ellipsoid":
            box = np.array([[1e-3, np.pi - 1e-3], [0.0, _TWO_PI]])
        elif getattr(ch, "domain", None) is not None:
            box = ch.domain
        else:
            box = np.array([[-np.pi, np.pi]] * self.dim)
        # numeric bound with a safety factor
        grid = np.stack(
            np.meshgrid(*[np.linspace(b[0] + 1e-6, b[1] - 1e-6, 13) for b in box], indexing="ij"),
            axis=-1,
        ).reshape(-1, self.dim)
        dens = np.sqrt(np.abs(np.linalg.det(ch.metric(grid))))
        return box, float(dens.max()) * 1.5

    # -- misc -------------------------------------------------------------------------

    def position_embedding(self, x, chart_id=0):
        """Chart-independent ambient representative of a chart point."""
        return self.chart(chart_id).embed(np.asarray(x, dtype=float))


# -- factories --------------------------------------------------------------------------


def _perm_rotation(m, shift):
    """Orthogonal matrix cyclically shifting the m ambient coordinates."""
    Q = np.zeros((m, m))
    for i in range(m):
        Q[(i + shift) % m, i] = 1.0
    return Q


def sphere(n=2, radius=1.0):
    if n < 2:
        raise ValueError("sphere dimension must be >= 2")
    # cyclic-permutation pole frames cover every hyperspherical singularity
    chs = [_charts.SphereChart(n, radius, _perm_rotation(n + 1, s)) for s in range(n + 1)]
    model = ManifoldModel(
        kind="sphere",
        dim=n,
        charts=chs,
        params={"n": n, "r": radius},
        homogeneous=True,
        isotropic=True,
        spec_string=f"sphere:n={n},r={radius}",
        factors=(_constant_factor(slice(0, n), n, 1.0 / radius**2),),
        base_x=np.array([np.pi / 2] * (n - 1) + [0.0]),
    )
    return model


def flat_torus(n=2, period=_TWO_PI):
    periods = np.full(n, float(period))
    model = ManifoldModel(
        kind="torus",
        dim=n,
        charts=[_charts.FlatTorusChart(periods)],
        params={"n": n, "l": float(period)},
        homogeneous=True,
        isotropic=True,
        spec_string=f"torus:n={n}",
        factors=(_constant_factor(slice(0, n), n, 0.0),),
        base_x=np.zeros(n),
    )
    return model


def hyperbolic(n=2, c=1.0):
    if c <= 0:
        raise ValueError("curvature scale c must be positive (curvature is -c)")
    model = ManifoldModel(
        kind="hyperbolic",
        dim=n,
        # one global horospherical chart: nothing to switch
        charts=[_charts.HyperbolicChart(n, c)],
        params={"n": n, "c": c},
        homogeneous=True,
        isotropic=True,
        spec_string=f"hyperbolic:n={n},c={c}",
        factors=(_constant_factor(slice(0, n), n, -c),),
        base_x=np.zeros(n),
    )
    return model


def ellipsoid(a=1.0, b=1.0, c=2.0):
    sa, sb, sc = float(a), float(b), float(c)
    abc2 = (sa * sb * sc) ** 2

    def gauss(chart, x):
        p = chart.embed(x)
        f = p[..., 0] ** 2 / sa**4 + p[..., 1] ** 2 / sb**4 + p[..., 2] ** 2 / sc**4
        return 1.0 / (abc2 * f**2)

    chs = [
        _charts.EllipsoidChart([a, b, c], axes=(0, 1, 2)),
        _charts.EllipsoidChart([a, b, c], axes=(1, 2, 0)),
    ]
    model = ManifoldModel(
        kind="ellipsoid",
        dim=2,
        charts=chs,
        params={"a": a, "b": b, "c": c},
        homogeneous=False,
        isotropic=False,
        spec_string=f"ellipsoid:a={a},b={b},c={c}",
        # Gauss curvature, extreme at the ends of the longest and shortest axes
        factors=(CurvatureFactor(slice(0, 2), 2, gauss,
                                 min(sa, sb, sc) ** 4 / abc2, max(sa, sb, sc) ** 4 / abc2),),
        base_x=np.array([np.pi / 2, 0.3]),
    )
    return model


def sphere_product(p=2, q=2, r1=1.0, r2=1.0):
    if p < 2 or q < 2:
        raise ValueError("factor dimensions must be >= 2")
    f1 = [_charts.SphereChart(p, r1, _perm_rotation(p + 1, s)) for s in range(p + 1)]
    f2 = [_charts.SphereChart(q, r2, _perm_rotation(q + 1, s)) for s in range(q + 1)]
    chs = [_charts.ProductChart(c1, c2) for c1 in f1 for c2 in f2]
    model = ManifoldModel(
        kind="sphereprod",
        dim=p + q,
        charts=chs,
        params={"p": p, "q": q, "r1": r1, "r2": r2},
        homogeneous=True,
        isotropic=False,
        spec_string=f"sphereprod:p={p},q={q},r1={r1},r2={r2}",
        factors=(_constant_factor(slice(0, p), p, 1.0 / r1**2),
                 _constant_factor(slice(p, p + q), q, 1.0 / r2**2)),
        base_x=np.array(
            [np.pi / 2] * (p - 1) + [0.0] + [np.pi / 2] * (q - 1) + [0.0]
        ),
    )
    return model


def chart_metric(func, dim, domain=None, name="chart-metric"):
    """Model from a user metric function on a single chart (no switching)."""
    ch = _charts.CallableMetricChart(func, dim, domain=domain)
    base = np.zeros(dim) if domain is None else np.asarray(domain, dtype=float).mean(axis=1)
    return ManifoldModel(
        kind="chart-metric",
        dim=dim,
        charts=[ch],
        params={"name": name, "n": dim},
        homogeneous=False,
        isotropic=False,
        spec_string=f"chart-metric:{name}",
        base_x=base,
    )


#: per kind, the factory and its parameters in call order, each with its type
#: and default; an int is a dimension (>= 2), a float a finite positive size
_SPECS = {
    "sphere": (sphere, {"n": (int, 2), "r": (float, 1.0)}),
    "torus": (flat_torus, {"n": (int, 2), "l": (float, _TWO_PI)}),
    "hyperbolic": (hyperbolic, {"n": (int, 2), "c": (float, 1.0)}),
    "ellipsoid": (ellipsoid, {"a": (float, 1.0), "b": (float, 1.0), "c": (float, 2.0)}),
    "sphereprod": (sphere_product,
                   {"p": (int, 2), "q": (int, 2), "r1": (float, 1.0), "r2": (float, 1.0)}),
}


def _build(kind, kw):
    """Model of ``kind`` from spec parameters (strings or numbers), checked."""
    if kind not in _SPECS:
        raise ValueError(f"unknown manifold kind: {kind!r}")
    factory, params = _SPECS[kind]
    unknown = sorted(set(kw) - set(params))
    if unknown:
        raise ValueError(f"unknown {kind} parameter(s): {', '.join(unknown)}")
    args = []
    for key, (typ, default) in params.items():
        val = typ(kw.get(key, default))
        if typ is int and val < 2:
            raise ValueError(f"{kind} dimension {key} must be >= 2, got {val}")
        if typ is float and not (math.isfinite(val) and val > 0.0):
            raise ValueError(f"{kind} parameter {key} must be finite and positive, got {val!r}")
        args.append(val)
    return factory(*args)


def parse_manifold(spec):
    """Build a model from a spec string like ``sphere:n=2,r=1.0`` or a JSON dict."""
    if isinstance(spec, dict):
        kw = dict(spec)
        return _build(kw.pop("kind", None), kw)
    text = str(spec).strip()
    if text.startswith("{"):
        return parse_manifold(json.loads(text))
    kind, _, rest = text.partition(":")
    kw = {}
    if rest.strip():
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not _:
                raise ValueError(f"malformed manifold parameter: {item!r}")
            kw[key.strip()] = val.strip()
    return _build(kind.strip(), kw)
