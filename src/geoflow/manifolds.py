"""Model Riemannian manifolds and pointwise curvature evaluation.

A :class:`ManifoldModel` bundles one or more overlapping charts with the
closed-form curvature data of the model (when available) and provides the
pointwise operations everything else builds on: inner products, orthonormal
frames, the Christoffel symbols and the symmetric Jacobi curvature operator
``w -> R(w, v)v`` restricted to the orthogonal complement of ``v``, its
spectrum (whose sum is the directional Ricci curvature), curvature extremes,
and seeded sampling of the unit sphere bundle.  The metric is the chart's,
``model.chart(i).metric``.  One method maps the curvature data to the
Christoffel symbols and the Jacobi matrix,
:meth:`ManifoldModel.stage_geometry`, which an RK4 stage calls once; on a
sphere product both come from one diagonal of the metric, on the ellipsoid
from one jet of its embedding.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import charts as _charts

_TWO_PI = 2.0 * np.pi
#: no chart is used below this margin, by trajectories or curvature extremes
MARGIN_FLOOR = 0.02


@dataclass
class TangentState:
    """A point of the unit sphere bundle: chart id, chart point, unit vector."""

    chart_id: int
    x: np.ndarray
    v: np.ndarray


@dataclass
class CurvatureSpectrum:
    """Eigen-decomposition of the Jacobi curvature operator at a tangent
    state, or at each state of a batch.

    ``eigenvalues`` (..., n-1) are ascending, and ``ricci`` (...) is their
    sum; ``eigenvectors[..., i, :]`` is the chart-coordinate vector of the
    i-th eigendirection, orthonormal under g(x) and orthogonal to v.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def ricci(self):
        return np.sum(self.eigenvalues, axis=-1)


@dataclass(frozen=True)
class CurvatureFactor:
    """One factor of a model's closed-form curvature.

    ``coords`` selects the factor's ``dim`` chart coordinates.  Every plane
    tangent to the factor at chart point x has sectional curvature
    ``curvature(chart, x)``; planes spanned by vectors of two different
    factors are flat.  ``k_min`` and ``k_max`` are the closed-form
    extremes of ``curvature`` over the factor.  A constant factor has no
    ``function``: its curvature is the number k_min = k_max, and the model's
    Jacobi matrices are built from that number once, not in every stage.
    """

    coords: slice
    k_min: float
    k_max: float
    function: Callable | None = None

    @property
    def dim(self):
        return self.coords.stop - self.coords.start

    @property
    def constant(self):
        return self.function is None

    def curvature(self, chart, x):
        """The sectional curvature at the chart points x: the constant, or
        ``function(chart, x)``."""
        return self.k_max if self.function is None else self.function(chart, x)


@functools.lru_cache(maxsize=64)
def _constant_jacobi(k, K):
    """K times the k x k identity, read-only, built once per (k, K): the
    Jacobi matrix of a constant factor in any orthonormal frame."""
    out = np.diag(np.full(k, float(K)))
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=64)
def _constant_curvatures(ks):
    """The curvatures ``ks`` of constant factors as one read-only (F,) vector."""
    out = np.array(ks, dtype=float)
    out.flags.writeable = False
    return out


def _g_inner(a, g, b):
    # a matmul sums each row alike, whatever the batch size
    return (a[..., None, :] @ g @ b[..., :, None])[..., 0, 0]


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


def _jet_form(jet, gam, W):
    """<R(E_i, v)v, E_j>, symmetrized, for W = [v; E_1..E_m], from a metric
    jet (g, dg, d2g) and its Christoffel symbols gam."""
    v, E = W[..., 0, :], W[..., 1:, :]
    Rv = np.einsum("...labc,...ka,...b,...c->...kl", _charts.jet_riemann(*jet[1:], gam), E, v, v)
    K = np.einsum("...kl,...jl->...kj", Rv, E)
    return 0.5 * (K + np.swapaxes(K, -1, -2))


@dataclass
class ManifoldModel:
    kind: str
    dim: int
    charts: list
    params: dict = field(default_factory=dict)
    # parse_manifold reads it back to params; "kind:key=value,..." by default
    spec_string: str = ""
    # closed-form curvature, one entry per factor; empty when it comes from
    # the metric jet (charts.metric_jet)
    factors: tuple = ()
    # chart-0 coordinates of a generic base point
    base_x: np.ndarray | None = None

    def __post_init__(self):
        if not self.spec_string:
            pairs = [f"{key}={value}" for key, value in self.params.items()]
            self.spec_string = f"{self.kind}:" + ",".join(pairs)

    @property
    def homogeneous(self):
        """Curvature factors that are all constant: every point looks alike."""
        return bool(self.factors) and all(f.constant for f in self.factors)

    @property
    def isotropic(self):
        """One constant curvature factor: every direction looks alike too."""
        return len(self.factors) == 1 and self.factors[0].constant

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

    def inner(self, x, a, b, chart_id=0):
        return _g_inner(np.asarray(a), self.chart(chart_id).metric(x), np.asarray(b))

    def norm(self, x, a, chart_id=0):
        return np.sqrt(self.inner(x, a, a, chart_id))

    def unit_tangent(self, x, v, chart_id=0):
        """The TangentState of v rescaled to unit length at x in the chart."""
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
        x, v = (np.asarray(a, dtype=float) for a in (x, v))
        g = self.chart(chart_id).metric(x)
        scores = np.abs(np.einsum("...ij,...j->...i", g, v)) / np.sqrt(np.einsum("...ii->...i", g))
        kept = np.argsort(scores, axis=-1)[..., : self.dim - 1]
        return gram_schmidt(g, v, np.eye(self.dim)[kept])

    def best_chart(self, chart_id, x, vecs):
        """The chart of the largest margin at the point x of chart ``chart_id``:
        (its id, its margin, x and the tangent vectors ``vecs`` (..., n) in
        it).  Another chart is taken only if its margin is larger by more
        than 1e-12; otherwise x and ``vecs`` come back as they are."""
        ch = self.chart(chart_id)
        best, best_m, best_x = chart_id, float(ch.margin(x)), x
        p = ch.embed(x) if len(self.charts) > 1 else None
        for j, cand in enumerate(self.charts):
            if j != chart_id:
                xc = cand.from_embedding(p)
                mc = float(cand.margin(xc))
                if mc > best_m + 1e-12:
                    best, best_m, best_x = j, mc, xc
        if best != chart_id:
            vecs = self.chart(best).tangent_from_ambient(best_x, ch.tangent_to_ambient(x, vecs))
        return best, best_m, best_x, vecs

    # -- curvature ------------------------------------------------------------------

    def stage_geometry(self, chart, x, W):
        """The geometry of one RK4 stage at the chart points x (..., n), with
        ``chart`` evaluating every row: the Christoffel symbols and, when the
        vectors W = [v; E_1..E_k] (..., 1 + k, n) hold a frame, g-orthonormal
        and orthogonal to the unit vector v, the Jacobi matrix
        K_ij = <R(E_i, v)v, E_j> (..., k, k) (else None).  This is the one
        place a model's curvature data becomes Gamma and K.  Several
        curvature factors (a sphere product, on a diagonal chart) give both
        from one :meth:`~geoflow.charts.DiagonalChart.diagonal` d: Gamma from
        d and P, the factors' Gram matrices from W g = W * d.  The ellipsoid
        takes Gamma and its Gauss curvature from one jet of its embedding,
        :meth:`~geoflow.charts.EllipsoidChart.geometry`; K is the curvature
        viewed as (..., 1, 1).  Another single factor gives Gamma from one
        Christoffel call and K as its curvature times the identity; of a
        constant factor K is one read-only (k, k) matrix, whatever the batch
        shape of x, which broadcasts over the batch.  A model without
        curvature factors takes both from one metric jet."""
        frame = W.shape[-2] > 1
        if len(self.factors) > 1:
            d, P = chart.diagonal(x)
            K = self._gram_form(chart, x, W, W * d[..., None, :]) if frame else None
            return _charts.diagonal_christoffel(d, P), K
        if self.factors and isinstance(chart, _charts.EllipsoidChart):
            gam, kappa = chart.geometry(x)
            return gam, kappa[..., None, None] if frame else None
        if self.factors:
            gam, f, k = _charts.christoffel(chart, x), self.factors[0], self.dim - 1
            if not frame:
                return gam, None
            if f.constant:
                return gam, _constant_jacobi(k, f.k_max)
            # R(E_i, v)v = K (E_i - <E_i, v> v) = K E_i on such a frame
            K = np.zeros(np.shape(x)[:-1] + (k, k))
            K[..., np.arange(k), np.arange(k)] = np.asarray(f.curvature(chart, x))[..., None]
            return gam, K
        jet = _charts.metric_jet(chart.metric, x)
        gam = _charts._raised(*jet[:2])
        return gam, _jet_form(jet, gam, W) if frame else None

    def curvature_frame_matrix(self, x, v, frame, chart_id=0):
        """The Jacobi matrix K_ij = <R(E_i, v)v, E_j> (..., k, k) of
        :meth:`stage_geometry` in the frame E (..., k, n) of the unit vector
        v, which broadcasts over the frame's batch."""
        v = np.broadcast_to(v[..., None, :], frame.shape[:-2] + (1, self.dim))
        return self.stage_geometry(self.chart(chart_id), x, np.concatenate([v, frame], axis=-2))[1]

    def _gram_form(self, ch, x, W, Wg):
        """<R(E_i, v)v, E_j> from the curvature factors for the vectors
        W = [v; E_1..E_m] (..., 1 + m, n) and their rows Wg = W g lowered by
        the metric at x."""
        # per factor f, K_f (|v_f|^2 E_f.E_f - (E_f.v_f)(E_f.v_f)^T) from the
        # Gram matrix G_f of W in the factor's block of g.  A product metric
        # is block diagonal, so the rows of W g restricted to each factor,
        # stacked over the factors, give every G_f from one product with W^T
        F, m, n = len(self.factors), W.shape[-2], self.dim
        M = np.zeros(Wg.shape[:-2] + (F, m, n))
        for i, f in enumerate(self.factors):
            M[..., i, :, f.coords] = Wg[..., f.coords]
        Wt = np.ascontiguousarray(np.swapaxes(W, -1, -2))
        G = (M.reshape(M.shape[:-3] + (F * m, n)) @ Wt).reshape(M.shape[:-1] + (m,))
        Ev = G[..., 1:, :1]
        form = G[..., :1, :1] * G[..., 1:, 1:] - Ev * np.swapaxes(Ev, -1, -2)
        # sum_f K_f form_f, one product over the factor axis
        if self.homogeneous:
            Kf = _constant_curvatures(tuple(f.k_max for f in self.factors))
        else:
            Kf = np.stack(np.broadcast_arrays(*(np.asarray(f.curvature(ch, x), dtype=float)
                                                for f in self.factors)), axis=-1)
        out = Kf[..., None, :] @ form.reshape(form.shape[:-2] + (-1,))
        return out.reshape(form.shape[:-3] + form.shape[-2:])

    def curvature_operator(self, theta):
        """Eigen-decomposition of the Jacobi operator at a unit tangent state,
        or at a batch of them: ``theta.x`` and ``theta.v`` (..., n), with one
        chart id or one per row.  Raises ValueError if a vector is not unit."""
        chart = self.chart(theta.chart_id)
        nrm = np.ravel(self.norm(theta.x, theta.v, chart))
        worst = float(nrm[np.argmax(np.abs(nrm - 1.0))])
        if abs(worst - 1.0) > 1e-8:
            raise ValueError(f"tangent vector is not unit: |v|={worst!r}")
        frame = self.orthonormal_frame(theta.x, theta.v, chart)
        K = self.curvature_frame_matrix(theta.x, theta.v, frame, chart)
        # a constant factor gives one (k, k) matrix for every row
        w, V = np.linalg.eigh(np.broadcast_to(K, frame.shape[:-2] + K.shape[-2:]))
        return CurvatureSpectrum(w, np.einsum("...ik,...im->...km", V, frame))

    # -- curvature extremes -----------------------------------------------------------

    def extremal_curvatures(self, sample_count=200, seed=0):
        """(K_max, K_min, min_ricci).

        Closed forms from the curvature factors.  Otherwise the extremes of the
        Jacobi spectrum over sampled unit tangent states: the states with the
        top 1% of each objective move to the chart of the largest margin, and
        a shrinking-step coordinate ascent refines them, over the point alone
        in dimension two and over the point and the direction above it.  The
        returned extremes are inflated by a 1e-3 relative safety factor so
        K_max stays an upper bound (and K_min / min_ricci lower bounds) at the
        sampled resolution.
        """
        if sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if self.factors:
            fs = self.factors
            k_min = min(f.k_min for f in fs)
            if len(fs) > 1:
                # a plane spanned by vectors from two factors is flat
                k_min = min(k_min, 0.0)
            return max(f.k_max for f in fs), k_min, min((f.dim - 1) * f.k_min for f in fs)
        return self._sampled_extremes(sample_count, seed)

    def _spectrum(self, x, v, chart_id=0):
        """Ascending eigenvalues (..., n-1) of the Jacobi operator of the
        direction v at x, nan where the operator is not finite."""
        with np.errstate(all="ignore"):
            v = v / self.norm(x, v, chart_id)[..., None]
            K = self.curvature_frame_matrix(x, v, self.orthonormal_frame(x, v, chart_id), chart_id)
        # a constant factor gives one (k, k) matrix for every row
        K = np.broadcast_to(K, np.shape(v)[:-1] + K.shape[-2:])
        # eigvalsh reads a nan matrix as finite
        return np.where(np.isfinite(K).all(axis=(-2, -1))[..., None], np.linalg.eigvalsh(K), np.nan)

    def _sampled_extremes(self, sample_count, seed):
        states = self.sample_sphere_bundle(10 * sample_count, seed)
        X = np.stack([s.x for s in states])
        V = np.stack([s.v for s in states])
        # one row per maximized objective, its weights on the spectrum: the
        # top eigenvalue, minus the bottom one and minus the trace (Ricci)
        n, top = self.dim, max(1, len(states) // 100)
        W = np.array([np.eye(n - 1)[-1], -np.eye(n - 1)[0], -np.ones(n - 1)])
        rows = np.argsort(-(self._spectrum(X, V) @ W.T), axis=0)[:top].T.ravel()
        W = np.repeat(W, top, axis=0)
        ids, _, x, v = zip(*(self.best_chart(0, X[i], V[i]) for i in rows))
        ids, P = np.array(ids), np.stack([x, v], axis=1)  # rows (x, v)

        def value(P):
            # the metric is evaluated only on rows above the floor
            val = np.full(len(P), -np.inf)
            ok = self.chart(ids).margin(P[:, 0]) > MARGIN_FLOOR
            if ok.any():
                val[ok] = np.sum(W[ok] * self._spectrum(P[ok, 0], P[ok, 1], self.chart(ids[ok])), axis=-1)
            return np.where(np.isfinite(val), val, -np.inf)

        # coordinate ascent of every row at once, over x (and v above
        # dimension two); a row halves its step after a round without gain
        cur = value(P)
        step = np.full(len(P), 0.2)
        for _ in range(8):
            improved = np.zeros(len(P), dtype=bool)
            for move in np.eye(2 * n).reshape(-1, 2, n)[: n if n == 2 else 2 * n]:
                for sgn in (+1.0, -1.0):
                    trial = P + sgn * step[:, None, None] * move
                    val = value(trial)
                    up = val > cur + 1e-14
                    P[up], cur[up] = trial[up], val[up]
                    improved |= up
            step[~improved] *= 0.5
        best = cur.reshape(3, top).max(axis=1)
        kmax, kmin, rmin = np.array([1.0, -1.0, -1.0]) * (best + 1e-3 * np.abs(best))
        return float(kmax), float(kmin), float(rmin)

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

    def unit_directions(self, x, count, rng):
        """``count`` seeded directions uniform on the g(x)-unit sphere, (count, n);
        x is one chart-0 point or one per direction."""
        n = self.dim
        g = self.chart(0).metric(x)
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
        """Chart-0 sampling box, the chart's ``domain`` or [-pi, pi]^n, and an
        upper bound for sqrt(det g) on it: 1.5 times its largest value on a
        grid of 13 points per axis, evaluated in chunks of at most 13^4
        points, the last four axes, so memory stays bounded in any
        dimension."""
        ch = self.chart(0)
        box = np.array([[-np.pi, np.pi]] * self.dim) if ch.domain is None else ch.domain
        axes = [np.linspace(b[0] + 1e-6, b[1] - 1e-6, 13) for b in box]
        tail = np.stack(np.meshgrid(*axes[-4:], indexing="ij"), axis=-1)
        tail = tail.reshape(-1, tail.shape[-1])
        peaks = []
        for head in itertools.product(*axes[:-4]):
            grid = np.concatenate([np.broadcast_to(head, (len(tail), len(head))), tail], axis=-1)
            peaks.append(np.sqrt(np.abs(np.linalg.det(ch.metric(grid)))).max())
        return box, float(np.max(peaks)) * 1.5


# -- factories --------------------------------------------------------------------------


def _sphere_charts(n, radius):
    """The n + 1 charts of S^n(radius), the pole frame of chart s shifted
    cyclically by s; together they cover every hyperspherical singularity."""
    m = n + 1
    # Q[i] = e_{(i - s) % m}: rows m - s .. 2m - s - 1 of two stacked identities;
    # np.roll(np.eye(m), s, axis=0) is the same, but adds a sixth to `bound sphere:n=5`
    twice = np.concatenate([np.eye(m)] * 2)
    return [_charts.SphereChart(n, radius, twice[m - s:2 * m - s]) for s in range(m)]


def sphere(n=2, radius=1.0):
    if n < 2:
        raise ValueError("sphere dimension must be >= 2")
    return ManifoldModel(
        kind="sphere",
        dim=n,
        charts=_sphere_charts(n, radius),
        params={"n": n, "r": radius},
        factors=(CurvatureFactor(slice(0, n), 1.0 / radius**2, 1.0 / radius**2),),
        base_x=np.array([np.pi / 2] * (n - 1) + [0.0]),
    )


def flat_torus(n=2, period=_TWO_PI):
    periods = np.full(n, float(period))
    return ManifoldModel(
        kind="torus",
        dim=n,
        charts=[_charts.FlatTorusChart(periods)],
        params={"n": n, "l": float(period)},
        factors=(CurvatureFactor(slice(0, n), 0.0, 0.0),),
        base_x=np.zeros(n),
    )


def hyperbolic(n=2, c=1.0):
    if c <= 0:
        raise ValueError("curvature scale c must be positive (curvature is -c)")
    return ManifoldModel(
        kind="hyperbolic",
        dim=n,
        # one global horospherical chart: nothing to switch
        charts=[_charts.HyperbolicChart(n, c)],
        params={"n": n, "c": c},
        factors=(CurvatureFactor(slice(0, n), -c, -c),),
        base_x=np.zeros(n),
    )


def ellipsoid(a=1.0, b=1.0, c=2.0):
    sa, sb, sc = float(a), float(b), float(c)
    abc2 = (sa * sb * sc) ** 2
    chs = [
        _charts.EllipsoidChart([a, b, c], axes=(0, 1, 2)),
        _charts.EllipsoidChart([a, b, c], axes=(1, 2, 0)),
    ]
    return ManifoldModel(
        kind="ellipsoid",
        dim=2,
        charts=chs,
        params={"a": a, "b": b, "c": c},
        # Gauss curvature, extreme at the ends of the longest and shortest axes
        # (not constant even on a round ellipsoid, whose k_min = k_max)
        factors=(CurvatureFactor(slice(0, 2), min(sa, sb, sc) ** 4 / abc2,
                                 max(sa, sb, sc) ** 4 / abc2, _charts.EllipsoidChart.gauss),),
        base_x=np.array([np.pi / 2, 0.3]),
    )


def sphere_product(p=2, q=2, r1=1.0, r2=1.0):
    if p < 2 or q < 2:
        raise ValueError("factor dimensions must be >= 2")
    f1, f2 = _sphere_charts(p, r1), _sphere_charts(q, r2)
    chs = [_charts.ProductChart(c1, c2) for c1 in f1 for c2 in f2]
    return ManifoldModel(
        kind="sphereprod",
        dim=p + q,
        charts=chs,
        params={"p": p, "q": q, "r1": r1, "r2": r2},
        factors=(CurvatureFactor(slice(0, p), 1.0 / r1**2, 1.0 / r1**2),
                 CurvatureFactor(slice(p, p + q), 1.0 / r2**2, 1.0 / r2**2)),
        base_x=np.array(
            [np.pi / 2] * (p - 1) + [0.0] + [np.pi / 2] * (q - 1) + [0.0]
        ),
    )


def chart_metric(func, dim, domain=None, name="chart-metric"):
    """Model from a user metric function on a single chart (no switching)."""
    ch = _charts.CallableMetricChart(func, dim, domain=domain)
    base = np.zeros(dim) if domain is None else np.asarray(domain, dtype=float).mean(axis=1)
    return ManifoldModel(
        kind="chart-metric",
        dim=dim,
        charts=[ch],
        params={"name": name, "n": dim},
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
