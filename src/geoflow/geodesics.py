"""Geodesic, parallel-frame, and Jacobi-system integration.

The integrator advances a batch of unit tangent states with classical
fixed-step RK4, co-integrating for each trajectory

* the geodesic equation  x' = v,  v'^l = -Gamma^l_ij v^i v^j,
* the parallel transport of an orthonormal frame E_1..E_{n-1} of the
  complement of v, and
* the matrix Jacobi system  Phi' = [[0, I], [-K, 0]] Phi,  where
  K_ij = <R(E_i, v)v, E_j> is the curvature operator along the trajectory,

so that Phi(t) is the fundamental solution of the linearized flow restricted
to the invariant complement of the flow direction, written in the orthonormal
coordinates {(E_i, 0), (0, E_i)}.  Trajectories hop between overlapping charts
when they approach a chart boundary; the frame coordinates (and hence Phi) are
chart-independent, so only positions, velocities, and frames are re-expressed.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field

import numpy as np

from . import charts as _charts
from .errors import IntegrationError
from .manifolds import ManifoldModel, TangentState, gram_schmidt

log = logging.getLogger(__name__)

#: steps between chart-margin checks
CHECK_EVERY = 10
#: steps between frame re-orthonormalizations
ORTHO_EVERY = 100
#: switch charts below this margin; give up below the hard floor
SWITCH_MARGIN = 0.2
MARGIN_FLOOR = 0.02


@dataclass
class GeodesicState:
    """Endpoint of a geodesic integration."""

    t: float
    chart_id: int
    x: np.ndarray
    v: np.ndarray
    speed_drift: float


@dataclass
class JacobiPropagation:
    """Fundamental solution of the Jacobi system along one geodesic."""

    theta: TangentState
    t: float
    chart_id: int
    x: np.ndarray
    v: np.ndarray
    frame0: np.ndarray
    frame: np.ndarray
    phi: np.ndarray
    speed_drift: float
    frame_drift: float


@dataclass
class PropagationResult:
    """Batch propagation record on a time grid."""

    t_grid: np.ndarray
    chart_ids: np.ndarray
    x: np.ndarray
    v: np.ndarray
    frames0: np.ndarray | None
    frames: np.ndarray | None
    phi: np.ndarray | None          # (G, B, 2k, 2k)
    radial: np.ndarray | None       # (G, B) accumulated integral of |det A|
    failed: np.ndarray              # (B,) bool
    speed_drift: np.ndarray
    frame_drift: np.ndarray
    states: list = field(default_factory=list)  # per grid point, if recorded


def _group_indices(chart_ids):
    if np.all(chart_ids == chart_ids[0]):
        return [(int(chart_ids[0]), slice(None))]
    return [(int(c), np.nonzero(chart_ids == c)[0]) for c in np.unique(chart_ids)]


def _derivatives(model, chart_ids, X, V, E, Phi, force_fd, jacobi):
    dX = V
    dV = np.empty_like(V)
    dE = np.empty_like(E) if jacobi else None
    dPhi = np.empty_like(Phi) if jacobi else None
    k = model.dim - 1
    for cid, idx in _group_indices(chart_ids):
        x, v = X[idx], V[idx]
        gam = _charts.christoffel(model.chart(cid), x)
        dV[idx] = -np.einsum("blij,bi,bj->bl", gam, v, v)
        if not jacobi:
            continue
        e = E[idx]
        dE[idx] = -np.einsum("blij,bi,bkj->bkl", gam, v, e)
        K = model.curvature_frame_matrix(x, v, e, cid, force_fd)
        dPhi[idx, :k, :] = Phi[idx, k:, :]
        dPhi[idx, k:, :] = -np.einsum("bij,bjk->bik", K, Phi[idx, :k, :])
    return dX, dV, dE, dPhi


def _rk4_step(model, chart_ids, X, V, E, Phi, h, force_fd, jacobi):
    def shift(c, dX, dV, dE, dPhi):
        return (
            X + c * dX,
            V + c * dV,
            E + c * dE if jacobi else E,
            Phi + c * dPhi if jacobi else Phi,
        )

    k1 = _derivatives(model, chart_ids, X, V, E, Phi, force_fd, jacobi)
    y2 = shift(h / 2.0, *k1)
    k2 = _derivatives(model, chart_ids, *y2, force_fd, jacobi)
    y3 = shift(h / 2.0, *k2)
    k3 = _derivatives(model, chart_ids, *y3, force_fd, jacobi)
    y4 = shift(h, *k3)
    k4 = _derivatives(model, chart_ids, *y4, force_fd, jacobi)
    X = X + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    V = V + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    if jacobi:
        E = E + (h / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        Phi = Phi + (h / 6.0) * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
    return X, V, E, Phi


def _switch_charts(model, chart_ids, X, V, E, failed, jacobi):
    """Move trajectories that approach a chart boundary to a better chart."""
    margins = np.empty(len(X))
    for cid, idx in _group_indices(chart_ids):
        margins[idx] = model.chart(cid).margin(X[idx])
    margins[failed] = 1.0
    for i in np.nonzero(margins < SWITCH_MARGIN)[0]:
        cid = int(chart_ids[i])
        ch = model.chart(cid)
        best, best_m, best_x = cid, float(margins[i]), X[i]
        if ch.transfer_ok(X[i]):
            p = ch.embed(X[i])
            for j, cand in enumerate(model.charts):
                if j == cid:
                    continue
                xc = cand.wrap(cand.from_embedding(p))
                mc = float(cand.margin(xc))
                if mc > best_m + 1e-12 and cand.transfer_ok(xc):
                    best, best_m, best_x = j, mc, xc
        if best == cid:
            if best_m < MARGIN_FLOOR:
                failed[i] = True
                log.warning("trajectory %d exhausted all charts (margin %.3g)", i, best_m)
                # park the failed row at the base state so batched linear
                # algebra stays clean; the failure mask excludes it anyway
                chart_ids[i] = 0
                X[i] = model.base_x
                V[i] = model.base_state().v
                if jacobi:
                    E[i] = model.orthonormal_frame(X[i], V[i], 0)
            continue
        cand = model.chart(best)
        Vamb = ch.tangent_to_ambient(X[i], V[i])
        V[i] = cand.tangent_from_ambient(best_x, Vamb)
        if jacobi:
            Eamb = ch.tangent_to_ambient(X[i], E[i])
            E[i] = cand.tangent_from_ambient(best_x, Eamb)
        X[i] = best_x
        chart_ids[i] = best
    return chart_ids, X, V, E, failed


def _reorthonormalize(model, chart_ids, X, V, E, Phi):
    """Stabilized Gram process on the frames; Phi coordinates follow along.

    Returns the largest correction applied (logged, never silent).
    """
    k = model.dim - 1
    worst = 0.0
    for cid, idx in _group_indices(chart_ids):
        e = E[idx]
        g = model.chart(cid).metric(X[idx])
        newE = gram_schmidt(g, V[idx], e)
        M = np.einsum("bai,bij,bcj->bac", newE, g, e)
        drift = np.nanmax(np.abs(M - np.eye(k))) if M.size else 0.0
        worst = max(worst, float(drift))
        corr = np.zeros(M.shape[:-2] + (2 * k, 2 * k))
        corr[..., :k, :k] = M
        corr[..., k:, k:] = M
        Phi[idx] = np.einsum("bij,bjk->bik", corr, Phi[idx])
        E[idx] = newE
    if worst > 1e-9:
        log.info("frame re-orthonormalization applied correction of size %.3g", worst)
    return E, Phi, worst


def propagate(
    model: ManifoldModel,
    states,
    t_grid,
    step=1e-3,
    *,
    jacobi=True,
    frames0=None,
    force_fd=False,
    accumulate_radial=False,
    record_states=False,
):
    """Advance a batch of unit tangent states, recording at the grid times.

    ``states`` is a list of :class:`TangentState` (or a single one).  The grid
    must be non-negative and strictly increasing.  Identical inputs produce
    bit-identical outputs.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    single = isinstance(states, TangentState)
    if single:
        states = [states]
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(t_grid < 0.0) or np.any(np.diff(t_grid) <= 0.0):
        raise ValueError("t_grid must be non-negative and strictly increasing")
    B = len(states)
    n = model.dim
    k = n - 1
    chart_ids = np.array([s.chart_id for s in states], dtype=int)
    X = np.stack([np.asarray(s.x, dtype=float) for s in states])
    V = np.stack([np.asarray(s.v, dtype=float) for s in states])
    if jacobi:
        if frames0 is not None:
            E = np.array(frames0, dtype=float).reshape(B, k, n)
        else:
            E = np.empty((B, k, n))
            for cid, idx in _group_indices(chart_ids):
                E[idx] = model.orthonormal_frame(X[idx], V[idx], cid)
        Phi = np.broadcast_to(np.eye(2 * k), (B, 2 * k, 2 * k)).copy()
        frames_init = E.copy()
    else:
        E = np.zeros((B, 0, n))
        Phi = np.zeros((B, 0, 0))
        frames_init = None

    G = len(t_grid)
    phi_rec = np.empty((G, B, 2 * k, 2 * k)) if jacobi else None
    radial = np.zeros((G, B)) if accumulate_radial else None
    rec_states = []
    failed = np.zeros(B, dtype=bool)
    frame_drift = np.zeros(B)
    multi_chart = len(model.charts) > 1
    if multi_chart:
        # a state starting near a chart boundary, heading out, can cross it
        # before the first periodic check; frames_init stays in the caller's chart
        chart_ids, X, V, E, failed = _switch_charts(model, chart_ids, X, V, E, failed, jacobi)

    t = 0.0
    nsteps = 0
    acc = np.zeros(B)
    f_prev = np.abs(np.linalg.det(Phi[:, :k, k:])) if accumulate_radial else None
    for gi, target in enumerate(t_grid):
        while t < target - 1e-12:
            h = min(step, target - t)
            X, V, E, Phi = _rk4_step(model, chart_ids, X, V, E, Phi, h, force_fd, jacobi)
            t += h
            nsteps += 1
            if accumulate_radial:
                f_cur = np.abs(np.linalg.det(Phi[:, :k, k:]))
                acc = acc + 0.5 * h * (f_prev + f_cur)
                f_prev = f_cur
            if multi_chart and nsteps % CHECK_EVERY == 0:
                chart_ids, X, V, E, failed = _switch_charts(
                    model, chart_ids, X, V, E, failed, jacobi)
            if jacobi and nsteps % ORTHO_EVERY == 0:
                E, Phi, worst = _reorthonormalize(model, chart_ids, X, V, E, Phi)
                frame_drift = np.maximum(frame_drift, worst)
        t = float(target)
        bad = ~np.isfinite(X).all(axis=-1) | ~np.isfinite(V).all(axis=-1)
        if jacobi:
            bad |= ~np.isfinite(Phi).all(axis=(-1, -2))
        for i in np.nonzero(bad & ~failed)[0]:
            log.warning("trajectory %d became non-finite by t=%.3g", i, t)
            chart_ids[i] = 0
            X[i] = model.base_x
            V[i] = model.base_state().v
            if jacobi:
                E[i] = model.orthonormal_frame(X[i], V[i], 0)
                Phi[i] = np.eye(2 * k)
        failed |= bad
        if jacobi:
            phi_rec[gi] = Phi
        if accumulate_radial:
            radial[gi] = acc
        if record_states:
            rec_states.append((chart_ids.copy(), X.copy(), V.copy(),
                               E.copy() if jacobi else None))

    speed = np.empty(B)
    for cid, idx in _group_indices(chart_ids):
        g = model.chart(cid).metric(X[idx])
        speed[idx] = np.einsum("bi,bij,bj->b", V[idx], g, V[idx])
    speed_drift = np.abs(speed - 1.0)
    if np.all(failed):
        raise IntegrationError(
            "all trajectories failed during integration",
            last_state=(chart_ids, X, V),
        )
    return PropagationResult(
        t_grid=t_grid,
        chart_ids=chart_ids,
        x=X,
        v=V,
        frames0=frames_init,
        frames=E if jacobi else None,
        phi=phi_rec,
        radial=radial,
        failed=failed,
        speed_drift=speed_drift,
        frame_drift=frame_drift,
        states=rec_states,
    )


def integrate_geodesic(model, theta, t_end, step=1e-3):
    """Integrate the geodesic with initial condition ``theta`` to time t_end."""
    if t_end < 0.0:
        raise ValueError("t_end must be non-negative")
    if t_end == 0.0:
        return GeodesicState(0.0, theta.chart_id, theta.x.copy(), theta.v.copy(), 0.0)
    res = propagate(model, theta, [t_end], step=step, jacobi=False)
    if res.failed[0]:
        raise IntegrationError("geodesic left every chart domain",
                               last_state=(res.chart_ids[0], res.x[0], res.v[0]))
    return GeodesicState(
        t=float(t_end),
        chart_id=int(res.chart_ids[0]),
        x=res.x[0],
        v=res.v[0],
        speed_drift=float(res.speed_drift[0]),
    )


def propagate_jacobi(model, theta, t_end, step=1e-3, force_fd=False):
    """Fundamental solution of the Jacobi system on [0, t_end] along theta."""
    if t_end < 0.0:
        raise ValueError("t_end must be non-negative")
    k = model.dim - 1
    if t_end == 0.0:
        frame = model.orthonormal_frame(theta.x, theta.v, theta.chart_id)
        return JacobiPropagation(theta, 0.0, theta.chart_id, theta.x.copy(),
                                 theta.v.copy(), frame, frame.copy(),
                                 np.eye(2 * k), 0.0, 0.0)
    res = propagate(model, theta, [t_end], step=step, force_fd=force_fd)
    if res.failed[0]:
        raise IntegrationError("trajectory left every chart domain",
                               last_state=(res.chart_ids[0], res.x[0], res.v[0]))
    return JacobiPropagation(
        theta=theta,
        t=float(t_end),
        chart_id=int(res.chart_ids[0]),
        x=res.x[0],
        v=res.v[0],
        frame0=res.frames0[0],
        frame=res.frames[0],
        phi=res.phi[0, 0],
        speed_drift=float(res.speed_drift[0]),
        frame_drift=float(res.frame_drift[0]),
    )


def exp_ball_jacobian(model, x, v, rho, step=1e-3, chart_id=0):
    """|det A_v(rho)| where A collects the Jacobi fields with J(0)=0, J'(0)=E_i.

    This is the radial Jacobian density of the exponential map, so that the
    ball-averaged arc count equals the iterated integral of this density over
    directions and radius.
    """
    if rho < 0.0:
        raise ValueError("rho must be non-negative")
    if rho == 0.0:
        return 0.0
    theta = model.unit_tangent(x, v, chart_id)
    prop = propagate_jacobi(model, theta, rho, step=step)
    k = model.dim - 1
    return float(np.abs(np.linalg.det(prop.phi[:k, k:])))


# -- expansion of a linear map -------------------------------------------------------


def expansion(m):
    """Largest absolute determinant of the map restricted to any subspace.

    Equals the maximal product of leading singular values: the product of all
    singular values >= 1 when there is one, otherwise the top singular value
    alone (the supremum over one-dimensional subspaces).  Takes one square
    matrix, giving a float, or a stack (..., d, d), giving an array (...).
    """
    A = np.asarray(m, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError("expected a square matrix or a stack of them")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    ex = np.max(np.cumprod(np.linalg.svd(A, compute_uv=False), axis=-1), axis=-1)
    return float(ex) if A.ndim == 2 else ex


def trajectory_csv(model, theta, t_end, step, path, samples=200):
    """Debug export: (t, x..., v...) rows along one geodesic."""
    grid = np.linspace(t_end / samples, t_end, samples)
    res = propagate(model, theta, grid, step=step, jacobi=False, record_states=True)
    n = model.dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{i}" for i in range(n)] + [f"v{i}" for i in range(n)])
        writer.writerow([0.0] + list(theta.x) + list(theta.v))
        for gi, (cids, X, V, _) in enumerate(res.states):
            writer.writerow([grid[gi]] + list(X[0]) + list(V[0]))
    return path
