"""Coordinate charts for the built-in model manifolds.

Every chart evaluates the metric and the Christoffel symbols on batches of
chart points and knows how far a point sits from the chart boundary.  Charts of
the models with overlapping charts also move points and tangent vectors through
a Euclidean embedding, so that trajectories can hop between charts.  A batch
whose rows sit in different charts of one model is evaluated by the single
chart :meth:`Chart.per_row` returns.  Shapes follow numpy broadcasting: a
chart point batch has shape ``(..., n)``, metrics ``(..., n, n)`` and metric
derivatives ``(..., n, n, n)`` indexed ``[k, i, j] = d_k g_ij``.

Every chart that switches, of a sphere, a sphere product factor or the
ellipsoid, is a :class:`HypersphericalChart`: hyperspherical angles on a
scaled and permuted copy of the unit sphere, with one embedding, its
Jacobian, its inverse and its margin.  Its inverse returns canonical angles,
so a switch needs no further wrapping of periodic coordinates.
"""

from __future__ import annotations

import functools

import numpy as np

#: difference step of :func:`metric_jet`
FD_STEP = 1e-4


def _sine_products(angles):
    """sin t, cos t and the prefix products P (..., d+1) of the angles
    t (..., d): P_k = s_0 s_1 ... s_{k-1}, multiplied left to right, P_0 = 1."""
    angles = np.asarray(angles, dtype=float)
    s, c = np.sin(angles), np.cos(angles)
    ones = np.ones(angles.shape[:-1] + (1,))
    return s, c, np.multiply.accumulate(np.concatenate([ones, s], axis=-1), axis=-1)


def sphere_embed(angles):
    """Map hyperspherical angles (..., d) to unit vectors (..., d+1).

    u_0 = cos t_0, u_k = sin t_0 .. sin t_{k-1} cos t_k, u_d = sin t_0 .. sin t_{d-1}.
    """
    _, c, u = _sine_products(angles)
    u[..., :-1] *= c
    return u


def sphere_unembed(u):
    """Invert :func:`sphere_embed` for unit vectors (..., d+1) -> angles (..., d)."""
    u = np.asarray(u, dtype=float)
    d = u.shape[-1] - 1
    angles = np.empty(u.shape[:-1] + (d,))
    # tail norms give angles in [0, pi]; the last angle uses atan2 for full range
    tail = np.sqrt(np.cumsum(u[..., ::-1] ** 2, axis=-1))[..., ::-1]
    # one arctan2 per angle: numpy's arctan2 over a whole (..., d-1) block
    # does not round every entry as it does one column, and moves reports
    for k in range(d - 1):
        angles[..., k] = np.arctan2(tail[..., k + 1], u[..., k])
    last = np.arctan2(u[..., d], u[..., d - 1])
    angles[..., d - 1] = np.mod(last, 2.0 * np.pi)
    return angles


def sphere_embed_jacobian(angles):
    """Derivative of :func:`sphere_embed`, shape (..., d+1, d), [k, m] =
    d u_k / d t_m, from the products of :func:`_sine_products`."""
    s, c, P = _sine_products(angles)
    d = s.shape[-1]
    J = np.zeros(P.shape + (d,))
    for m in range(d):
        # below the diagonal, the sines before k but s_m, P_m s_{m+1} .. s_{k-1},
        # times c_m, and times c_k for k < d; on it -P_m s_m = -P_{m+1}
        col = np.multiply.accumulate(np.concatenate([P[..., m:m + 1], s[..., m + 1:]], axis=-1),
                                     axis=-1)
        col *= c[..., m:m + 1]
        col[..., :-1] *= c[..., m + 1:]
        J[..., m + 1:, m] = col
        J[..., m, m] = -P[..., m + 1]
    return J


class Chart:
    """Base chart: metric evaluation plus embedding-based transition maps;
    the embedding itself is defined only on the charts that switch."""

    dim: int
    ambient_dim: int
    domain = None  # box (n, 2) positions are sampled from; None: [-pi, pi]^n
    reach = None   # bound on |x[..., 0]|, coordinate 0, along a trajectory; None: none

    def metric(self, x):
        raise NotImplementedError

    def margin(self, x):
        """Normalized distance from the chart boundary: 1 deep inside, 0 on it."""
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1])

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
    otherwise.  Where L is the same at every point (the horospherical and
    flat-torus charts) it is one read-only row (n-1,), which broadcasts over
    the batch.  The metric and the Christoffel symbols both follow from d and
    J; :class:`ProductChart` supplies d and J itself.  Both read
    :meth:`diagonal`: the metric its d, the Christoffel symbols
    :func:`diagonal_christoffel` of d and P, which a caller holding d and P
    (a sphere-product RK4 stage) calls without evaluating a warp.
    """

    def diagonal(self, x):
        """d (..., n) and P (..., n-1, n), P[m, k] = L_m d_k: J where m < k;
        L may be one row shared by every point."""
        w, L = self.warps(np.asarray(x, dtype=float))
        d = np.multiply.accumulate(w, axis=-1)
        return d, L[..., :, None] * d[..., None, :]

    def metric(self, x):
        return self.diagonal(x)[0][..., None] * np.eye(self.dim)

    def christoffel(self, x):
        return diagonal_christoffel(*self.diagonal(x))


def diagonal_christoffel(d, P):
    """Christoffel symbols (..., n, n, n) of a diagonal metric from its
    diagonal d (..., n) and P (..., n-1, n) of :meth:`DiagonalChart.diagonal`."""
    n, batch = d.shape[-1], d.shape[:-1]
    T = P.reshape(batch + ((n - 1) * n,)) @ _diagonal_table(n)
    return ((0.5 / d)[..., None] * T.reshape(batch + (n, n * n))).reshape(batch + (n,) * 3)


@functools.lru_cache(maxsize=None)
def _diagonal_table(n):
    """The map from P to 2 d_l Gamma^l_ij = delta_lj J[i,l] + delta_li J[j,l]
    - delta_ij J[l,i] in dimension n, shape ((n-1)*n, n**3); it reads P only
    where m < k.  Each entry of its image is one entry of J up to sign, so the
    product is exact.
    """
    e = np.eye(n)
    gamma = (np.einsum("mi,kl,lj->mklij", e, e, e) + np.einsum("mj,kl,li->mklij", e, e, e)
             - np.einsum("ml,ki,ij->mklij", e, e, e))
    upper = np.triu(np.ones((n - 1, n)), 1)
    gamma = (gamma[:-1] * upper[..., None, None, None]).reshape((n - 1) * n, n**3)
    gamma.flags.writeable = False
    return gamma


class HypersphericalChart(Chart):
    """Hyperspherical angles t on the image p = Q (scale * u(t)) of the unit
    sphere, u = :func:`sphere_embed`: the scale stretches each axis of the
    standard position, and the permutation matrix Q moves it to the ambient
    axes.  ``scale`` is one number, one per axis (d+1,), or one such row per
    row of the last batch axis (B, d+1); ``rotation`` is Q, (d+1, d+1) or one
    per row (B, d+1, d+1).  The chart poles are where a sine of t_0..t_{d-2}
    vanishes; :meth:`from_embedding` returns canonical angles, t_j in [0, pi]
    for j < d-1 and t_{d-1} in [0, 2 pi).  Positions are sampled from the
    ``domain`` [1e-3, pi - 1e-3]^(d-1) x [0, 2 pi]."""

    def __init__(self, dim, scale, rotation=None):
        self.dim = dim
        self.ambient_dim = dim + 1
        self.domain = np.array([[1e-3, np.pi - 1e-3]] * (dim - 1) + [[0.0, 2.0 * np.pi]])
        self.scale = np.asarray(scale, dtype=float)
        self.rotation = np.eye(dim + 1) if rotation is None else np.asarray(rotation, dtype=float)

    def margin(self, x):
        x = np.asarray(x, dtype=float)
        return np.prod(np.abs(np.sin(x[..., : self.dim - 1])), axis=-1)

    def embed(self, x):
        return np.einsum("...ab,...b->...a", self.rotation, self.scale * sphere_embed(x))

    def from_embedding(self, p):
        u = np.einsum("...ba,...b->...a", self.rotation, np.asarray(p, dtype=float)) / self.scale
        u = u / np.linalg.norm(u, axis=-1, keepdims=True)
        return sphere_unembed(u)

    def d_embed(self, x):
        J = self.scale[..., None] * sphere_embed_jacobian(x)
        return np.einsum("...ab,...bi->...ai", self.rotation, J)


class SphereChart(DiagonalChart, HypersphericalChart):
    """Round sphere S^n(r): scale r on every axis, pole frame permuted by Q.

    Coordinates t_0..t_{n-1} with t_j in (0, pi) for j < n-1 and t_{n-1}
    periodic.  g = r^2 diag(1, sin^2 t_0, sin^2 t_0 sin^2 t_1, ...), which is
    independent of Q.
    """

    def __init__(self, dim, radius, rotation=None):
        self.radius = float(radius)
        super().__init__(dim, self.radius, rotation)

    def warps(self, x):
        # w = (r^2, sin^2 t_0, ..., sin^2 t_{n-2}); the last (periodic) angle warps nothing
        s = np.sin(x[..., :-1])
        w = np.concatenate([np.full(s.shape[:-1] + (1,), self.radius**2), s * s], axis=-1)
        return w, 2.0 * np.cos(x[..., :-1]) / s


#: kappa |t| a trajectory may reach in the horospherical chart, 14 short of
#: where e^{2 kappa t} overflows; between two checks a trajectory moves at most
#: max(0.1, step) in arclength, so kappa times that must stay below 14
HYPERBOLIC_REACH = 340.0


class HyperbolicChart(DiagonalChart):
    """Hyperbolic space of curvature -c in horospherical coordinates.

    One global chart (the upper half-space model): (t, y) in R^n with
    g = dt^2 + e^{2 kappa t} |dy|^2, kappa = sqrt(c).  It has no boundary, so
    nothing switches; e^{2 kappa t} overflows past kappa t = 354, and
    underflows below -354.  Its ``reach`` is |t| = HYPERBOLIC_REACH / kappa.
    """

    def __init__(self, dim, curvature_scale):
        self.dim = dim
        self.kappa = float(np.sqrt(curvature_scale))
        self.reach = HYPERBOLIC_REACH / self.kappa
        # L = (2 kappa, 0, ..., 0) at every point
        self.log_warps = 2.0 * self.kappa * np.eye(dim - 1)[0]
        self.log_warps.flags.writeable = False

    def warps(self, x):
        # w = (1, e^{2 kappa t}, 1, ..., 1)
        w = np.ones(x.shape)
        w[..., 1] = np.exp(2.0 * self.kappa * x[..., 0])
        return w, self.log_warps


class FlatTorusChart(DiagonalChart):
    """Flat torus with per-axis periods; one chart, nothing to switch."""

    def __init__(self, periods):
        self.periods = np.asarray(periods, dtype=float)
        self.dim = len(self.periods)
        self.log_warps = np.zeros(self.dim - 1)
        self.log_warps.flags.writeable = False

    def warps(self, x):
        return np.ones(x.shape), self.log_warps


# EllipsoidChart._jet reads each entry of its rows from the flattened table
# T [i, j] = (1, sin u, cos u)_i (1, sin phi, cos phi)_j, with a sign; an
# entry that vanishes reads T[0, 0] = 1 with sign 0
_ELLIPSOID_JET_INDEX = np.array([[3, 8, 7], [0, 4, 5], [6, 5, 4], [0, 7, 8], [0, 7, 8], [0, 5, 4]])
_ELLIPSOID_JET_SIGN = np.array([[-1.0, 1.0, 1.0], [0.0, -1.0, 1.0], [-1.0, -1.0, -1.0],
                                [0.0, -1.0, 1.0], [0.0, -1.0, 1.0], [0.0, -1.0, -1.0]])
_ADJUGATE_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])


class EllipsoidChart(HypersphericalChart):
    """Two-dimensional ellipsoid x^2/a^2 + y^2/b^2 + z^2/c^2 = 1.

    Coordinates (u, phi): the ambient axis ``axes[2]`` carries cos(u) (the
    chart poles); ``axes[0]`` and ``axes[1]`` carry sin(u) cos(phi) and
    sin(u) sin(phi).  ``axes`` is one permutation of (0, 1, 2), or one per
    row of the last batch axis (shape (B, 3)), as in the chart :meth:`per_row`
    builds to evaluate each row in its own chart.  So the scale is the
    semi-axes in the order ``axes[2], axes[0], axes[1]``, and Q puts them on
    those axes.  The metric, the Christoffel symbols and the Gauss curvature
    do not depend on Q; they come from the embedding in standard position,
    E = scale * sphere_embed(x), and its :meth:`_jet`, which costs one sine
    and one cosine of the chart point.  An RK4 stage takes the Christoffel
    symbols and the Gauss curvature from one jet, :meth:`geometry`;
    :meth:`christoffel` and :meth:`gauss` are its two halves.
    """

    def __init__(self, semi_axes, axes=(0, 1, 2)):
        self.semi = np.asarray(semi_axes, dtype=float)
        self.axes = np.asarray(axes)
        order = self.axes[..., [2, 0, 1]]
        # Q[a, m] = 1 where ambient axis a carries u_m
        super().__init__(2, self.semi[order], np.swapaxes(np.eye(3)[order], -1, -2))
        # the signed scale of each jet entry, and abc
        self._jet_scale = _ELLIPSOID_JET_SIGN * self.scale[..., None, :]
        self._volume = np.prod(self.scale, axis=-1)

    def per_row(self, charts, ids):
        return EllipsoidChart(self.semi, np.array([ch.axes for ch in charts])[ids])

    def _jet(self, x):
        """J (..., 6, 3) [r, a] = component a of the rows d_u E, d_phi E and
        d_i d_j E for ij = (u, u), (u, phi), (phi, u), (phi, phi) of
        E = scale * (cos u, sin u cos phi, sin u sin phi), and the unit-sphere
        point (cos u, sin u cos phi, sin u sin phi) (..., 3): the entries the
        (u, u) row reads, before their signs and the scale."""
        A = np.ones(np.shape(x)[:-1] + (2, 3))
        np.sin(x, out=A[..., 1])
        np.cos(x, out=A[..., 2])
        T = (A[..., 0, :, None] * A[..., 1, None, :]).reshape(A.shape[:-2] + (9,))
        return T[..., _ELLIPSOID_JET_INDEX] * self._jet_scale, T[..., 6:3:-1]

    def metric(self, x):
        dE = self._jet(x)[0][..., :2, :]
        return dE @ np.swapaxes(dE, -1, -2)

    def geometry(self, x):
        """The Christoffel symbols (..., 2, 2, 2) and the Gauss curvature
        (...) at the chart points x, from one :meth:`_jet`."""
        J, u = self._jet(x)
        # the tangential part of d_i d_j E is Gamma^l_ij d_l E: solve
        # g Gamma[:, i, j] = dE . d_i d_j E, g = dE dE^T, by the 2x2 adjugate;
        # g and the right-hand sides come from one product dE J^T
        G = J[..., :2, :] @ np.swapaxes(J, -1, -2)
        g, rhs = G[..., :2], G[..., 2:]
        adj = g[..., ::-1, ::-1] * _ADJUGATE_SIGN
        det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
        gam = (adj @ rhs) / det[..., None, None]
        # Gauss curvature 1 / (abc sum_m u_m^2 / scale_m^2)^2
        q = (u / self.scale) ** 2
        f = q[..., 0] + q[..., 1] + q[..., 2]
        return gam.reshape(gam.shape[:-1] + (2, 2)), 1.0 / (self._volume * f) ** 2

    def christoffel(self, x):
        return self.geometry(x)[0]

    def gauss(self, x):
        """Gauss curvature (...) at the chart points x, from :meth:`geometry`."""
        return self.geometry(x)[1]


class ProductChart(DiagonalChart):
    """Riemannian product of two diagonal charts: the factors' diagonals side
    by side, and their P in the diagonal blocks of P.  The row of the first
    factor's last coordinate is zero, for that angle warps nothing.  Positions
    are sampled from the product of the factors' domains."""

    def __init__(self, first, second):
        self.first = first
        self.second = second
        self.dim = first.dim + second.dim
        self.ambient_dim = first.ambient_dim + second.ambient_dim
        self.split = first.dim
        self.domain = np.concatenate([first.domain, second.domain])

    def _halves(self, x):
        x = np.asarray(x, dtype=float)
        return x[..., : self.split], x[..., self.split:]

    def diagonal(self, x):
        a, b = self._halves(x)
        (d1, P1), (d2, P2) = self.first.diagonal(a), self.second.diagonal(b)
        P = np.zeros(d1.shape[:-1] + (self.dim - 1, self.dim))
        P[..., : self.split - 1, : self.split] = P1
        P[..., self.split:, self.split:] = P2
        return np.concatenate([d1, d2], axis=-1), P

    def margin(self, x):
        a, b = self._halves(x)
        return np.minimum(self.first.margin(a), self.second.margin(b))

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
    the Christoffel symbols come from :func:`metric_jet`."""

    def __init__(self, func, dim, domain=None):
        self.func = func
        self.dim = dim
        self.domain = None if domain is None else np.asarray(domain, dtype=float)

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1, self.dim)
        g = np.stack([np.asarray(self.func(pt), dtype=float) for pt in flat])
        return g.reshape(x.shape[:-1] + (self.dim, self.dim))

    def christoffel(self, x):
        return _raised(*metric_jet(self.metric, x)[:2])

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


def _raised(g, dg):
    """Gamma^l_ij = g^lm Gamma_mij [..., l, i, j] from g and dg [..., k, i, j] = d_k g_ij."""
    return np.einsum("...lm,...mij->...lij", np.linalg.inv(g), _lowered(dg))


def christoffel(chart, x):
    """Levi-Civita Christoffel symbols, shape (..., n, n, n) indexed [l, i, j]."""
    return chart.christoffel(np.asarray(x, dtype=float))


def jet_riemann(dg, d2g, gam):
    """Curvature tensor with its first index lowered by g,
    R_labc = g(R(d_a, d_b)d_c, d_l), shape (..., n, n, n, n) indexed
    [l, a, b, c], in closed form from the derivatives dg and d2g of a metric
    jet (:func:`metric_jet`) and its Christoffel symbols gam = _raised(g, dg)."""
    # g_lm (d_a Gamma^m_bc + Gamma^m_ap Gamma^p_bc) = d_a Gamma_lbc - Gamma_pal Gamma^p_bc,
    # for d_a g_lp = Gamma_lap + Gamma_pal; R_labc is its part antisymmetric in a, b
    A = (np.swapaxes(_lowered(d2g), -4, -3)
         - np.einsum("...pal,...pbc->...labc", _lowered(dg), gam))
    return A - np.swapaxes(A, -3, -2)
