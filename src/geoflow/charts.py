"""Coordinate charts for the built-in model manifolds.

Every chart evaluates the metric (and its coordinate derivative) on batches of
chart points, knows how far a point sits from the chart boundary, and can move
points and tangent vectors through an ambient embedding so that trajectories
can hop between overlapping charts.  Shapes follow numpy broadcasting: a chart
point batch has shape ``(..., n)``, metrics ``(..., n, n)`` and metric
derivatives ``(..., n, n, n)`` indexed ``[k, i, j] = d_k g_ij``.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ChartDomainError


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
    # signature matrix of the ambient inner product (None -> Euclidean identity)
    ambient_signature = None

    def metric(self, x):
        raise NotImplementedError

    def d_metric(self, x):
        raise NotImplementedError

    def margin(self, x):
        """Normalized distance from the chart boundary: 1 deep inside, 0 on it."""
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1])

    def transfer_ok(self, x):
        """Whether the ambient tangent transfer is well-conditioned at x."""
        return True

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
        J = self.d_embed(x)
        eta = self.ambient_signature
        JtV = np.einsum("...mi,...m->...i", J, V) if eta is None else np.einsum(
            "...mi,mq,...q->...i", J, eta, V)
        g = self.metric(x)
        return np.linalg.solve(g, JtV[..., None])[..., 0]

    def christoffel(self, x):
        """Levi-Civita symbols 0.5 g^lm (d_i g_mj + d_j g_mi - d_m g_ij), shape
        (..., n, n, n) indexed [l, i, j], from the metric and its derivative."""
        dg = self.d_metric(x)
        t1 = np.swapaxes(dg, -3, -2)          # [m,i,j] = d_i g_mj
        t2 = np.swapaxes(t1, -2, -1)          # [m,i,j] = d_j g_mi
        ginv = np.linalg.inv(self.metric(x))
        return 0.5 * np.einsum("...lm,...mij->...lij", ginv, t1 + t2 - dg)

    def metric_key(self):
        """Equal for charts whose metric is the same function of the coordinates
        (a rotation or boost moves only the embedding); by default unique."""
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


class EmbeddedMetricChart(Chart):
    """Chart whose metric is induced by an explicit ambient embedding.

    Subclasses supply ``embed``/``d_embed``/``d2_embed``; the metric and its
    derivative follow from the chain rule.  ``d2_embed`` has shape
    ``(..., m, n, n)`` indexed ``[a, i, j] = d_i d_j E_a``.
    """

    def d2_embed(self, x):
        raise NotImplementedError

    def _pair(self, A, B):
        eta = self.ambient_signature
        if eta is None:
            return np.einsum("...mi,...mj->...ij", A, B)
        return np.einsum("...mi,mq,...qj->...ij", A, eta, B)

    def metric(self, x):
        J = self.d_embed(x)
        return self._pair(J, J)

    def d_metric(self, x):
        J = self.d_embed(x)
        H = self.d2_embed(x)
        eta = self.ambient_signature
        if eta is None:
            term = np.einsum("...mki,...mj->...kij", np.swapaxes(H, -1, -2), J)
        else:
            term = np.einsum("...mik,mq,...qj->...kij", H, eta, J)
        return term + np.swapaxes(term, -2, -1)


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

    def metric_key(self):
        return (SphereChart, self.dim, self.radius)

    def margin(self, x):
        x = np.asarray(x, dtype=float)
        if self.dim == 1:
            return np.ones(x.shape[:-1])
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
    """Hyperbolic space of curvature -c in polar coordinates about a base point.

    Embedded in Minkowski space as the hyperboloid <p, p> = -1/c; the chart
    frame is moved by a Lorentz matrix Q (boosts give charts centered at other
    points).  Coordinates (rho, angles) with g = diag(1, w(rho)^2 g_{S^{n-1}}),
    w(rho) = sinh(kappa rho)/kappa, kappa = sqrt(c).
    """

    #: radial cutoff keeping sinh^2 within double range; the polar chart has
    #: no interior singularity away from rho = 0, so switches (whose ambient
    #: transfer loses precision once cosh^2 rho overflows 1e16) only ever
    #: happen near the center
    RHO_MAX = 250.0

    def __init__(self, dim, curvature_scale, lorentz=None):
        self.dim = dim
        self.ambient_dim = dim + 1
        self.c = float(curvature_scale)
        self.kappa = float(np.sqrt(self.c))
        self.lorentz = np.eye(dim + 1) if lorentz is None else np.asarray(lorentz, dtype=float)
        eta = np.eye(dim + 1)
        eta[0, 0] = -1.0
        self.ambient_signature = eta

    def warps(self, x):
        # w = (1, sinh^2(kappa rho) / c, sin^2 t_1, ..., sin^2 t_{n-2})
        kr = self.kappa * x[..., :1]
        sh = np.sinh(kr)
        s = np.sin(x[..., 1:-1])
        w = np.concatenate([np.ones(kr.shape), (sh / self.kappa) ** 2, s * s], axis=-1)
        L = np.concatenate([2.0 * self.kappa * np.cosh(kr) / sh, 2.0 * np.cos(x[..., 1:-1]) / s],
                           axis=-1)
        return w, L

    def metric_key(self):
        return (HyperbolicChart, self.dim, self.c)

    def margin(self, x):
        x = np.asarray(x, dtype=float)
        rho = x[..., 0]
        m = np.clip(rho / 0.5, 0.0, 1.0)
        m = np.minimum(m, np.clip((self.RHO_MAX - rho) / 5.0, 0.0, 1.0))
        if self.dim > 2:
            m = m * np.prod(np.abs(np.sin(x[..., 1:-1])), axis=-1)
        return m

    def wrap(self, x):
        x = np.array(x, dtype=float)
        x[..., -1] = np.mod(x[..., -1], 2.0 * np.pi)
        return x

    def transfer_ok(self, x):
        # cancellation in the Minkowski tangent transfer grows like
        # eps * cosh^2(kappa rho); keep switches near the chart centers
        return bool(np.all(np.asarray(x, dtype=float)[..., 0] * self.kappa <= 8.0))

    def embed(self, x):
        x = np.asarray(x, dtype=float)
        rho = x[..., 0]
        u = sphere_embed(x[..., 1:]) if self.dim > 1 else np.ones(x.shape[:-1] + (1,))
        p = np.empty(x.shape[:-1] + (self.dim + 1,))
        p[..., 0] = np.cosh(self.kappa * rho)
        p[..., 1:] = np.sinh(self.kappa * rho)[..., None] * u
        p = p / self.kappa
        return np.einsum("ab,...b->...a", self.lorentz, p)

    def _inv_lorentz(self, p):
        eta = self.ambient_signature
        Qinv = eta @ self.lorentz.T @ eta
        return np.einsum("ab,...b->...a", Qinv, np.asarray(p, dtype=float))

    def from_embedding(self, p):
        w = self._inv_lorentz(p) * self.kappa
        t = np.maximum(w[..., 0], 1.0)
        rho = np.arccosh(t) / self.kappa
        spatial = w[..., 1:]
        nrm = np.linalg.norm(spatial, axis=-1, keepdims=True)
        nrm = np.where(nrm == 0.0, 1.0, nrm)
        angles = sphere_unembed(spatial / nrm)
        return np.concatenate([rho[..., None], angles], axis=-1)

    def d_embed(self, x):
        x = np.asarray(x, dtype=float)
        rho = x[..., 0]
        angles = x[..., 1:]
        u = sphere_embed(angles)
        Ju = sphere_embed_jacobian(angles)
        J = np.zeros(x.shape[:-1] + (self.dim + 1, self.dim))
        J[..., 0, 0] = self.kappa * np.sinh(self.kappa * rho) / self.kappa
        J[..., 1:, 0] = np.cosh(self.kappa * rho)[..., None] * u
        J[..., 1:, 1:] = (np.sinh(self.kappa * rho) / self.kappa)[..., None, None] * Ju
        return np.einsum("ab,...bi->...ai", self.lorentz, J)


class FlatTorusChart(DiagonalChart):
    """Flat torus with per-axis periods; one chart, nothing to switch."""

    def __init__(self, periods):
        self.periods = np.asarray(periods, dtype=float)
        self.dim = len(self.periods)
        self.ambient_dim = self.dim

    def warps(self, x):
        return np.ones(x.shape), np.zeros(x.shape[:-1] + (self.dim - 1,))

    def wrap(self, x):
        return np.mod(np.asarray(x, dtype=float), self.periods)

    def embed(self, x):
        return self.wrap(x)

    def from_embedding(self, p):
        return self.wrap(p)

    def d_embed(self, x):
        return self.metric(x)


class EllipsoidChart(EmbeddedMetricChart):
    """Two-dimensional ellipsoid x^2/a^2 + y^2/b^2 + z^2/c^2 = 1.

    Coordinates (u, phi): the ambient axis ``axes[2]`` carries cos(u) (the
    chart poles); the other two carry sin(u) cos(phi) and sin(u) sin(phi).
    """

    dim = 2

    ambient_dim = 3

    def __init__(self, semi_axes, axes=(0, 1, 2)):
        self.semi = np.asarray(semi_axes, dtype=float)
        self.axes = tuple(axes)

    def _parts(self, x):
        x = np.asarray(x, dtype=float)
        u, phi = x[..., 0], x[..., 1]
        return u, phi, np.sin(u), np.cos(u), np.sin(phi), np.cos(phi)

    def embed(self, x):
        u, phi, su, cu, sp, cp = self._parts(x)
        i, j, k = self.axes
        p = np.empty(np.shape(u) + (3,))
        p[..., i] = self.semi[i] * su * cp
        p[..., j] = self.semi[j] * su * sp
        p[..., k] = self.semi[k] * cu
        return p

    def d_embed(self, x):
        u, phi, su, cu, sp, cp = self._parts(x)
        i, j, k = self.axes
        J = np.zeros(np.shape(u) + (3, 2))
        J[..., i, 0] = self.semi[i] * cu * cp
        J[..., i, 1] = -self.semi[i] * su * sp
        J[..., j, 0] = self.semi[j] * cu * sp
        J[..., j, 1] = self.semi[j] * su * cp
        J[..., k, 0] = -self.semi[k] * su
        return J

    def d2_embed(self, x):
        u, phi, su, cu, sp, cp = self._parts(x)
        i, j, k = self.axes
        H = np.zeros(np.shape(u) + (3, 2, 2))
        H[..., i, 0, 0] = -self.semi[i] * su * cp
        H[..., i, 0, 1] = H[..., i, 1, 0] = -self.semi[i] * cu * sp
        H[..., i, 1, 1] = -self.semi[i] * su * cp
        H[..., j, 0, 0] = -self.semi[j] * su * sp
        H[..., j, 0, 1] = H[..., j, 1, 0] = self.semi[j] * cu * cp
        H[..., j, 1, 1] = -self.semi[j] * su * sp
        H[..., k, 0, 0] = -self.semi[k] * cu
        return H

    def from_embedding(self, p):
        p = np.asarray(p, dtype=float)
        i, j, k = self.axes
        cu = np.clip(p[..., k] / self.semi[k], -1.0, 1.0)
        u = np.arccos(cu)
        phi = np.mod(np.arctan2(p[..., j] / self.semi[j], p[..., i] / self.semi[i]), 2.0 * np.pi)
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
        e1 = first.ambient_signature
        e2 = second.ambient_signature
        if e1 is None and e2 is None:
            self.ambient_signature = None
        else:
            m1, m2 = first.ambient_dim, second.ambient_dim
            eta = np.eye(m1 + m2)
            if e1 is not None:
                eta[:m1, :m1] = e1
            if e2 is not None:
                eta[m1:, m1:] = e2
            self.ambient_signature = eta

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

    def metric_key(self):
        return (ProductChart, self.first.metric_key(), self.second.metric_key())

    def margin(self, x):
        a, b = self._halves(x)
        return np.minimum(self.first.margin(a), self.second.margin(b))

    def transfer_ok(self, x):
        a, b = self._halves(x)
        return self.first.transfer_ok(a) and self.second.transfer_ok(b)

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
    """User-supplied metric function on a box domain; derivatives by central
    differences with one Richardson extrapolation (step ``h``)."""

    def __init__(self, func, dim, domain=None, h=1e-4, vectorized=False):
        self.func = func
        self.dim = dim
        self.ambient_dim = dim
        self.domain = None if domain is None else np.asarray(domain, dtype=float)
        self.h = float(h)
        self.vectorized = vectorized

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        if self.vectorized:
            g = np.asarray(self.func(x), dtype=float)
        else:
            flat = x.reshape(-1, self.dim)
            g = np.stack([np.asarray(self.func(pt), dtype=float) for pt in flat])
            g = g.reshape(x.shape[:-1] + (self.dim, self.dim))
        return g

    def _central(self, x, h):
        dg = np.empty(np.shape(x)[:-1] + (self.dim,) * 3)
        for k in range(self.dim):
            e = np.zeros(self.dim)
            e[k] = h
            dg[..., k, :, :] = (self.metric(x + e) - self.metric(x - e)) / (2.0 * h)
        return dg

    def d_metric(self, x):
        coarse = self._central(x, self.h)
        fine = self._central(x, self.h / 2.0)
        return (4.0 * fine - coarse) / 3.0

    def margin(self, x):
        x = np.asarray(x, dtype=float)
        if self.domain is None:
            return np.ones(x.shape[:-1])
        lo = (x - self.domain[:, 0]) / (self.domain[:, 1] - self.domain[:, 0])
        hi = (self.domain[:, 1] - x) / (self.domain[:, 1] - self.domain[:, 0])
        m = np.minimum(lo.min(axis=-1), hi.min(axis=-1))
        return np.clip(2.0 * m, 0.0, 1.0)

    def embed(self, x):
        return np.asarray(x, dtype=float)

    def from_embedding(self, p):
        return np.asarray(p, dtype=float)

    def d_embed(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(np.eye(self.dim), x.shape[:-1] + (self.dim, self.dim)).copy()


def christoffel(chart, x):
    """Levi-Civita Christoffel symbols, shape (..., n, n, n) indexed [l, i, j]."""
    return chart.christoffel(np.asarray(x, dtype=float))


def riemann(chart, x, h=1e-4):
    """Curvature tensor R(d_a, d_b)d_c = R^l_{abc} d_l by differencing the
    Christoffel symbols, shape (..., n, n, n, n) indexed [l, a, b, c]."""
    n = chart.dim
    x = np.asarray(x, dtype=float)
    gam = christoffel(chart, x)
    dgam = np.empty(x.shape[:-1] + (n,) + gam.shape[len(x.shape) - 1:])
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        dgam[..., k, :, :, :] = (christoffel(chart, x + e) - christoffel(chart, x - e)) / (2.0 * h)
    # dGamma[k, l, i, j] = d_k Gamma^l_ij
    term1 = np.einsum("...albc->...labc", dgam)
    term2 = np.einsum("...blac->...labc", dgam)
    term3 = np.einsum("...lam,...mbc->...labc", gam, gam)
    term4 = np.einsum("...lbm,...mac->...labc", gam, gam)
    return term1 - term2 + term3 - term4


def require_in_domain(chart, x, floor=1e-9):
    margin = chart.margin(np.asarray(x, dtype=float))
    if np.any(margin <= floor):
        raise ChartDomainError("chart point outside the admissible chart domain")
