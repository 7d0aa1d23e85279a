"""Coordinate charts for the built-in model manifolds.

Every chart evaluates the metric (and its coordinate derivative) on batches of
chart points and knows how far a point sits from the chart boundary.  Charts of
the models with overlapping charts also move points and tangent vectors through
a Euclidean embedding, so that trajectories can hop between charts.  A batch
whose rows sit in different charts of one model is evaluated by the single
chart :meth:`Chart.per_row` returns.  Shapes follow numpy broadcasting: a
chart point batch has shape ``(..., n)``, metrics ``(..., n, n)`` and metric
derivatives ``(..., n, n, n)`` indexed ``[k, i, j] = d_k g_ij``.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ChartDomainError

#: difference step of :func:`metric_jet`
FD_STEP = 1e-4


def sphere_embed(angles):
    """Map hyperspherical angles (..., d) to unit vectors (..., d+1).

    u_0 = cos t_0, u_k = sin t_0 .. sin t_{k-1} cos t_k, u_d = sin t_0 .. sin t_{d-1}.
    """
    angles = np.asarray(angles, dtype=float)
    d = angles.shape[-1]
    s = np.sin(angles)
    c = np.cos(angles)
    out = np.empty(angles.shape[:-1] + (d + 1,))
    prod = np.ones(angles.shape[:-1])
    for k in range(d):
        out[..., k] = prod * c[..., k]
        prod = prod * s[..., k]
    out[..., d] = prod
    return out


def sphere_unembed(u):
    """Invert :func:`sphere_embed` for unit vectors (..., d+1) -> angles (..., d)."""
    u = np.asarray(u, dtype=float)
    d = u.shape[-1] - 1
    angles = np.empty(u.shape[:-1] + (d,))
    # tail norms give angles in [0, pi]; the last angle uses atan2 for full range
    tail = np.sqrt(np.cumsum(u[..., ::-1] ** 2, axis=-1))[..., ::-1]
    for k in range(d - 1):
        angles[..., k] = np.arctan2(tail[..., k + 1], u[..., k])
    last = np.arctan2(u[..., d], u[..., d - 1])
    angles[..., d - 1] = np.mod(last, 2.0 * np.pi)
    return angles


def sphere_embed_jacobian(angles):
    """Derivative of :func:`sphere_embed`, shape (..., d+1, d)."""
    angles = np.asarray(angles, dtype=float)
    d = angles.shape[-1]
    s = np.sin(angles)
    c = np.cos(angles)
    J = np.zeros(angles.shape[:-1] + (d + 1, d))
    for k in range(d + 1):
        nsin = k if k < d else d  # u_k carries sine factors for j < nsin
        for m in range(nsin):
            term = np.ones(angles.shape[:-1])
            for j in range(nsin):
                if j != m:
                    term = term * s[..., j]
            term = term * c[..., m]
            if k < d:
                term = term * c[..., k]
            J[..., k, m] = term
        if k < d:
            term = np.ones(angles.shape[:-1])
            for j in range(k):
                term = term * s[..., j]
            J[..., k, k] = -term * s[..., k]
    return J


class Chart:
    """Base chart: metric evaluation plus embedding-based transition maps."""

    dim: int
    ambient_dim: int

    def metric(self, x):
        raise NotImplementedError

    def d_metric(self, x):
        raise NotImplementedError

    def margin(self, x):
        """Normalized distance from the chart boundary: 1 deep inside, 0 on it."""
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1])

    def wrap(self, x):
        """Canonicalize periodic coordinates; identity by default."""
        return np.asarray(x, dtype=float)

    def embed(self, x):
        raise NotImplementedError

    def from_embedding(self, p):
        raise NotImplementedError

    def d_embed(self, x):
        raise NotImplementedError

    def tangent_to_ambient(self, x, v):
        J = self.d_embed(x)
        return np.einsum("...mi,...i->...m", J, v)

    def tangent_from_ambient(self, x, V):
        """Project an ambient tangent vector back to chart coordinates."""
        JtV = np.einsum("...mi,...m->...i", self.d_embed(x), V)
        g = self.metric(x)
        return np.linalg.solve(g, JtV[..., None])[..., 0]

    def christoffel(self, x):
        """Levi-Civita symbols g^lm Gamma_mij, shape (..., n, n, n) indexed
        [l, i, j], from the metric and its derivative."""
        dg = self.d_metric(x)
        return np.einsum("...lm,...mij->...lij", np.linalg.inv(self.metric(x)), _lowered(dg))

    def per_row(self, charts, ids):
        """One chart that evaluates row r of a batch in ``charts[ids[r]]``: its
        metric, Christoffel symbols, margin and curvature.  By default this
        chart, for the charts of a model share one coordinate metric (a
        rotation moves only the embedding)."""
        return self


class DiagonalChart(Chart):
    """Chart with a diagonal metric built from warps along the coordinates.

    The diagonal is d_k = w_0 w_1 ... w_k, where w_0 is a constant and w_{m+1}
    depends on x_m alone.  Subclasses supply :meth:`warps`: w (..., n) and the
    logarithmic derivatives L_m = d_m log w_{m+1} (..., n-1), so that the
    Jacobian of the diagonal is J[m, k] = d_m d_k = L_m d_k for m < k and 0
    otherwise.  The metric, its derivative and the Christoffel symbols all
    follow from d and J.
    """

    def diagonal(self, x):
        """d (..., n) and P (..., n-1, n), P[m, k] = L_m d_k: J where m < k."""
        w, L = self.warps(np.asarray(x, dtype=float))
        d = np.multiply.accumulate(w, axis=-1)
        return d, L[..., :, None] * d[..., None, :]

    def metric(self, x):
        d, _ = self.diagonal(x)
        return d[..., None] * np.eye(self.dim)

    def d_metric(self, x):
        _, P = self.diagonal(x)
        n = self.dim
        J = np.zeros(P.shape[:-2] + (n, n))
        J[..., :-1, :] = np.where(_diagonal_tables(n)[1], P, 0.0)
        return J[..., None] * np.eye(n)

    def christoffel(self, x):
        d, P = self.diagonal(x)
        n = self.dim
        batch = d.shape[:-1]
        T = P.reshape(batch + ((n - 1) * n,)) @ _diagonal_tables(n)[0]
        return ((0.5 / d)[..., None] * T.reshape(batch + (n, n * n))).reshape(batch + (n,) * 3)


@functools.lru_cache(maxsize=None)
def _diagonal_tables(n):
    """Constants of the diagonal-metric formulas in dimension n: the map from
    P to 2 d_l Gamma^l_ij = delta_lj J[i,l] + delta_li J[j,l] - delta_ij J[l,i],
    shape ((n-1)*n, n**3), and the mask of m < k, shape (n-1, n).  Each entry
    of the map's image is one entry of J up to sign, so the product is exact.
    """
    e = np.eye(n)
    gamma = (np.einsum("mi,kl,lj->mklij", e, e, e) + np.einsum("mj,kl,li->mklij", e, e, e)
             - np.einsum("ml,ki,ij->mklij", e, e, e))
    upper = np.triu(np.ones((n - 1, n), dtype=bool), 1)
    gamma = (gamma[:-1] * upper[..., None, None, None]).reshape((n - 1) * n, n**3)
    gamma.flags.writeable = upper.flags.writeable = False
    return gamma, upper


class SphereChart(DiagonalChart):
    """Round sphere S^n(r) in hyperspherical angles, pole frame rotated by Q.

    Coordinates t_0..t_{n-1} with t_j in (0, pi) for j < n-1 and t_{n-1}
    periodic.  g = r^2 diag(1, sin^2 t_0, sin^2 t_0 sin^2 t_1, ...), which is
    independent of the frame rotation.
    """

    def __init__(self, dim, radius, rotation=None):
        self.dim = dim
        self.ambient_dim = dim + 1
        self.radius = float(radius)
        self.rotation = np.eye(dim + 1) if rotation is None else np.asarray(rotation, dtype=float)

    def warps(self, x):
        # w = (r^2, sin^2 t_0, ..., sin^2 t_{n-2}); the last (periodic) angle warps nothing
        s = np.sin(x[..., :-1])
        w = np.concatenate([np.full(s.shape[:-1] + (1,), self.radius**2), s * s], axis=-1)
        return w, 2.0 * np.cos(x[..., :-1]) / s

    def margin(self, x):
        x = np.asarray(x, dtype=float)
        return np.prod(np.abs(np.sin(x[..., : self.dim - 1])), axis=-1)

    def wrap(self, x):
        x = np.array(x, dtype=float)
        x[..., -1] = np.mod(x[..., -1], 2.0 * np.pi)
        return x

    def embed(self, x):
        u = sphere_embed(x)
        return self.radius * np.einsum("ab,...b->...a", self.rotation, u)

    def from_embedding(self, p):
        u = np.einsum("ba,...b->...a", self.rotation, np.asarray(p, dtype=float) / self.radius)
        u = u / np.linalg.norm(u, axis=-1, keepdims=True)
        return sphere_unembed(u)

    def d_embed(self, x):
        J = sphere_embed_jacobian(x)
        return self.radius * np.einsum("ab,...bi->...ai", self.rotation, J)


class HyperbolicChart(DiagonalChart):
    """Hyperbolic space of curvature -c in horospherical coordinates.

    One global chart (the upper half-space model): (t, y) in R^n with
    g = dt^2 + e^{2 kappa t} |dy|^2, kappa = sqrt(c).  It has no boundary, so
    nothing switches; e^{2 kappa t} overflows past t = 354 / kappa.
    """

    def __init__(self, dim, curvature_scale):
        self.dim = dim
        self.kappa = float(np.sqrt(curvature_scale))

    def warps(self, x):
        # w = (1, e^{2 kappa t}, 1, ..., 1), so L = (2 kappa, 0, ..., 0)
        w = np.ones(x.shape)
        w[..., 1] = np.exp(2.0 * self.kappa * x[..., 0])
        L = np.zeros(x.shape[:-1] + (self.dim - 1,))
        L[..., 0] = 2.0 * self.kappa
        return w, L


class FlatTorusChart(DiagonalChart):
    """Flat torus with per-axis periods; one chart, nothing to switch."""

    def __init__(self, periods):
        self.periods = np.asarray(periods, dtype=float)
        self.dim = len(self.periods)

    def warps(self, x):
        return np.ones(x.shape), np.zeros(x.shape[:-1] + (self.dim - 1,))

    def wrap(self, x):
        return np.mod(np.asarray(x, dtype=float), self.periods)


class EllipsoidChart(Chart):
    """Two-dimensional ellipsoid x^2/a^2 + y^2/b^2 + z^2/c^2 = 1.

    Coordinates (u, phi): the ambient axis ``axes[2]`` carries cos(u) (the
    chart poles); ``axes[0]`` and ``axes[1]`` carry sin(u) cos(phi) and
    sin(u) sin(phi).  ``axes`` is one permutation of (0, 1, 2), or one per
    row of the last batch axis (shape (B, 3)), as in the chart :meth:`per_row`
    builds to evaluate each row in its own chart.  The metric, its derivative
    and the Christoffel symbols follow from the embedding; ``d2_embed`` has
    shape (..., 3, 2, 2) indexed [a, i, j] = d_i d_j E_a.
    """

    dim = 2

    ambient_dim = 3

    def __init__(self, semi_axes, axes=(0, 1, 2)):
        self.semi = np.asarray(semi_axes, dtype=float)
        self.axes = np.asarray(axes)
        # index in front of an ambient axis: all rows alike, or row r (last batch axis) by axes[r]
        self._at = (...,) if self.axes.ndim == 1 else (..., np.arange(len(self.axes)))

    def per_row(self, charts, ids):
        return EllipsoidChart(self.semi, np.array([ch.axes for ch in charts])[ids])

    def _parts(self, x):
        x = np.asarray(x, dtype=float)
        u, phi = x[..., 0], x[..., 1]
        return np.sin(u), np.cos(u), np.sin(phi), np.cos(phi)

    def embed(self, x):
        su, cu, sp, cp = self._parts(x)
        (i, j, k), at = self.axes.T, self._at
        p = np.empty(np.shape(su) + (3,))
        p[at + (i,)] = self.semi[i] * su * cp
        p[at + (j,)] = self.semi[j] * su * sp
        p[at + (k,)] = self.semi[k] * cu
        return p

    def d_embed(self, x):
        su, cu, sp, cp = self._parts(x)
        (i, j, k), at = self.axes.T, self._at
        J = np.zeros(np.shape(su) + (3, 2))
        J[at + (i, 0)] = self.semi[i] * cu * cp
        J[at + (i, 1)] = -self.semi[i] * su * sp
        J[at + (j, 0)] = self.semi[j] * cu * sp
        J[at + (j, 1)] = self.semi[j] * su * cp
        J[at + (k, 0)] = -self.semi[k] * su
        return J

    def metric(self, x):
        J = self.d_embed(x)
        return np.einsum("...mi,...mj->...ij", J, J)

    def d_metric(self, x):
        J = self.d_embed(x)
        H = self.d2_embed(x)
        term = np.einsum("...mki,...mj->...kij", np.swapaxes(H, -1, -2), J)
        return term + np.swapaxes(term, -2, -1)

    def christoffel(self, x):
        # the tangential part of d_i d_j E is Gamma^l_ij d_l E: solve
        # g Gamma[:, i, j] = J^T d_i d_j E with g = J^T J
        J = self.d_embed(x)
        JtH = np.einsum("...mi,...mjk->...ijk", J, self.d2_embed(x))
        g = np.einsum("...mi,...mj->...ij", J, J)
        return np.linalg.solve(g, JtH.reshape(JtH.shape[:-2] + (4,))).reshape(JtH.shape)

    def d2_embed(self, x):
        su, cu, sp, cp = self._parts(x)
        (i, j, k), at = self.axes.T, self._at
        H = np.zeros(np.shape(su) + (3, 2, 2))
        H[at + (i, 0, 0)] = -self.semi[i] * su * cp
        H[at + (i, 0, 1)] = H[at + (i, 1, 0)] = -self.semi[i] * cu * sp
        H[at + (i, 1, 1)] = -self.semi[i] * su * cp
        H[at + (j, 0, 0)] = -self.semi[j] * su * sp
        H[at + (j, 0, 1)] = H[at + (j, 1, 0)] = self.semi[j] * cu * cp
        H[at + (j, 1, 1)] = -self.semi[j] * su * sp
        H[at + (k, 0, 0)] = -self.semi[k] * cu
        return H

    def from_embedding(self, p):
        p = np.asarray(p, dtype=float)
        (i, j, k), at = self.axes.T, self._at
        cu = np.clip(p[at + (k,)] / self.semi[k], -1.0, 1.0)
        u = np.arccos(cu)
        phi = np.mod(np.arctan2(p[at + (j,)] / self.semi[j], p[at + (i,)] / self.semi[i]),
                     2.0 * np.pi)
        return np.stack([u, phi], axis=-1)

    def margin(self, x):
        return np.abs(np.sin(np.asarray(x, dtype=float)[..., 0]))

    def wrap(self, x):
        x = np.array(x, dtype=float)
        x[..., 1] = np.mod(x[..., 1], 2.0 * np.pi)
        return x


class ProductChart(Chart):
    """Riemannian product of two charts (block metric, independent factors)."""

    def __init__(self, first, second):
        self.first = first
        self.second = second
        self.dim = first.dim + second.dim
        self.ambient_dim = first.ambient_dim + second.ambient_dim
        self.split = first.dim

    def _halves(self, x):
        x = np.asarray(x, dtype=float)
        return x[..., : self.split], x[..., self.split:]

    def _blocks(self, method, x, rank):
        """Block-diagonal array of the factors' ``method``, ``rank`` chart indices."""
        a, b = self._halves(x)
        out = np.zeros(np.shape(x)[:-1] + (self.dim,) * rank)
        out[(...,) + (slice(None, self.split),) * rank] = getattr(self.first, method)(a)
        out[(...,) + (slice(self.split, None),) * rank] = getattr(self.second, method)(b)
        return out

    def metric(self, x):
        return self._blocks("metric", x, 2)

    def d_metric(self, x):
        return self._blocks("d_metric", x, 3)

    def christoffel(self, x):
        return self._blocks("christoffel", x, 3)

    def margin(self, x):
        a, b = self._halves(x)
        return np.minimum(self.first.margin(a), self.second.margin(b))

    def wrap(self, x):
        a, b = self._halves(x)
        return np.concatenate([self.first.wrap(a), self.second.wrap(b)], axis=-1)

    def embed(self, x):
        a, b = self._halves(x)
        return np.concatenate([self.first.embed(a), self.second.embed(b)], axis=-1)

    def from_embedding(self, p):
        p = np.asarray(p, dtype=float)
        m1 = self.first.ambient_dim
        return np.concatenate(
            [self.first.from_embedding(p[..., :m1]), self.second.from_embedding(p[..., m1:])],
            axis=-1,
        )

    def d_embed(self, x):
        a, b = self._halves(x)
        J1 = self.first.d_embed(a)
        J2 = self.second.d_embed(b)
        m1, m2 = J1.shape[-2], J2.shape[-2]
        J = np.zeros(np.shape(x)[:-1] + (m1 + m2, self.dim))
        J[..., :m1, : self.split] = J1
        J[..., m1:, self.split:] = J2
        return J


class CallableMetricChart(Chart):
    """User-supplied metric function on a box domain, called once per point;
    its derivative comes from :func:`metric_jet`."""

    def __init__(self, func, dim, domain=None):
        self.func = func
        self.dim = dim
        self.domain = None if domain is None else np.asarray(domain, dtype=float)

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1, self.dim)
        g = np.stack([np.asarray(self.func(pt), dtype=float) for pt in flat])
        return g.reshape(x.shape[:-1] + (self.dim, self.dim))

    def d_metric(self, x):
        return metric_jet(self.metric, x)[1]

    def margin(self, x):
        x = np.asarray(x, dtype=float)
        if self.domain is None:
            return np.ones(x.shape[:-1])
        lo = (x - self.domain[:, 0]) / (self.domain[:, 1] - self.domain[:, 0])
        hi = (self.domain[:, 1] - x) / (self.domain[:, 1] - self.domain[:, 0])
        m = np.minimum(lo.min(axis=-1), hi.min(axis=-1))
        return np.clip(2.0 * m, 0.0, 1.0)


@functools.lru_cache(maxsize=None)
def _stencil(n):
    """Offsets of :func:`metric_jet`: the centre, +h, -h, +h/2 and -h/2 along
    each axis, then +h+h, +h-h, -h+h and -h-h on each pair of axes a < b."""
    e, (a, b) = FD_STEP * np.eye(n), np.triu_indices(n, 1)
    out = np.concatenate([np.zeros((1, n)), e, -e, e / 2.0, -e / 2.0]
                         + [sa * e[a] + sb * e[b] for sa in (1, -1) for sb in (1, -1)])
    out.flags.writeable = False
    return out


def metric_jet(metric, x):
    """g, dg and d2g at chart points x (..., n) from one call of ``metric`` on
    the :func:`_stencil`: dg [..., k, i, j] = d_k g_ij by central differences
    with one Richardson extrapolation, d2g [..., a, k, i, j] = d_a d_k g_ij by
    (p + m - 2g)/h^2 for a = k and (pp - pm - mp + mm)/(4h^2) otherwise."""
    n, h = np.shape(x)[-1], FD_STEP
    (a, b), k = np.triu_indices(n, 1), np.arange(n)
    # the stencil axis goes in front, so a per-row chart keeps its rows last
    G = np.moveaxis(metric(x + _stencil(n)[(slice(None),) + (None,) * (np.ndim(x) - 1)]), 0, -3)
    g, p, m, pf, mf, pp, pm, mp, mm = np.split(G, np.cumsum([1] + [n] * 4 + [len(a)] * 3), -3)
    d2g = np.empty(np.shape(x)[:-1] + (n,) * 4)
    d2g[..., k, k, :, :] = (p + m - 2.0 * g) / h**2
    d2g[..., a, b, :, :] = d2g[..., b, a, :, :] = (pp - pm - mp + mm) / (4.0 * h**2)
    coarse, fine = (p - m) / (2.0 * h), (pf - mf) / (2.0 * (h / 2.0))
    return g[..., 0, :, :], (4.0 * fine - coarse) / 3.0, d2g


def _lowered(d):
    """Gamma_mij = 0.5 (d_i g_mj + d_j g_mi - d_m g_ij) [..., m, i, j] from
    d [..., k, i, j] = d_k g_ij; from d2g it gives d_a Gamma_mij [..., a, m, i, j]."""
    t1 = np.swapaxes(d, -3, -2)          # [m,i,j] = d_i g_mj
    t2 = np.swapaxes(t1, -2, -1)         # [m,i,j] = d_j g_mi
    return 0.5 * (t1 + t2 - d)


def christoffel(chart, x):
    """Levi-Civita Christoffel symbols, shape (..., n, n, n) indexed [l, i, j]."""
    return chart.christoffel(np.asarray(x, dtype=float))


def riemann(chart, x):
    """Curvature tensor R(d_a, d_b)d_c = R^l_abc d_l, shape (..., n, n, n, n)
    indexed [l, a, b, c], in closed form from the metric jet of ``chart``."""
    g, dg, d2g = metric_jet(chart.metric, x)
    ginv = np.linalg.inv(g)
    gam = np.einsum("...lm,...mij->...lij", ginv, _lowered(dg))
    # dgam[k, l, i, j] = d_k Gamma^l_ij = g^lm (d_k Gamma_mij - d_k g_mp Gamma^p_ij)
    dgam = np.einsum("...lm,...kmij->...klij", ginv,
                     _lowered(d2g) - np.einsum("...kmp,...pij->...kmij", dg, gam))
    # R^l_abc is the part of d_a Gamma^l_bc + Gamma^l_am Gamma^m_bc antisymmetric in a, b
    A = np.swapaxes(dgam, -4, -3) + np.einsum("...lam,...mbc->...labc", gam, gam)
    return A - np.swapaxes(A, -3, -2)


def require_in_domain(chart, x, floor=1e-9):
    margin = chart.margin(np.asarray(x, dtype=float))
    if np.any(margin <= floor):
        raise ChartDomainError("chart point outside the admissible chart domain")
