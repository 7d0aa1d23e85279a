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
One chart, ``ManifoldModel.chart(chart_ids)``, evaluates every row in its own
chart, so each RK4 stage makes one ``ManifoldModel.stage_geometry`` call for
the whole batch; it is rebuilt only when a chart id changes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationError
from .manifolds import MARGIN_FLOOR, ManifoldModel, TangentState, _g_inner, gram_schmidt

log = logging.getLogger(__name__)

#: steps between chart-margin checks
CHECK_EVERY = 10
#: steps between frame re-orthonormalizations
ORTHO_EVERY = 100
#: switch charts below this margin; give up below MARGIN_FLOOR
SWITCH_MARGIN = 0.2


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


def _unpack(Y, n, jacobi):
    """Views of the packed state Y = [x | v | E_1..E_k | Phi]: x (B, n), the
    vectors W = [v; E_1..E_k] (B, n, n) (only v without the Jacobi system),
    and Phi (B, 2k, 2k) or None."""
    B = len(Y)
    end = n + n * n if jacobi else 2 * n
    W = Y[:, n:end].reshape(B, -1, n)
    Phi = Y[:, end:].reshape(B, 2 * n - 2, 2 * n - 2) if jacobi else None
    return Y[:, :n], W, Phi


def _derivatives(model, chart, Y, jacobi):
    """dY/dt with ``chart`` evaluating every row in its own chart."""
    k = model.dim - 1
    X, W, Phi = _unpack(Y, model.dim, jacobi)
    dY = np.empty_like(Y)
    dX, dW, dPhi = _unpack(dY, model.dim, jacobi)
    dX[:] = W[:, 0]
    gam, K = model.stage_geometry(chart, X, W)
    # geodesic spray and frame transport: (v, E)' = -Gamma(v, (v, E))
    dW[:] = -np.einsum("blij,bi,baj->bal", gam, W[:, 0], W)
    if jacobi:
        dPhi[:, :k] = Phi[:, k:]
        dPhi[:, k:] = -(K @ Phi[:, :k])
    return dY


def _rk4_step(model, chart, Y, h, jacobi):
    k1 = _derivatives(model, chart, Y, jacobi)
    k2 = _derivatives(model, chart, Y + (h / 2.0) * k1, jacobi)
    k3 = _derivatives(model, chart, Y + (h / 2.0) * k2, jacobi)
    k4 = _derivatives(model, chart, Y + h * k3, jacobi)
    return Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _park(model, chart_ids, Y, i, jacobi, lost):
    """Park failed row i at the base state, keeping batched linear algebra
    clean; its chart id, x and v at failure go to row i of ``lost``."""
    X, W, Phi = _unpack(Y, model.dim, jacobi)
    for rec, val in zip(lost, (chart_ids[i], X[i], W[i, 0])):
        rec[i] = val
    chart_ids[i] = 0
    X[i] = model.base_x
    W[i, 0] = model.base_state().v
    if jacobi:
        W[i, 1:] = model.orthonormal_frame(X[i], W[i, 0], 0)
        Phi[i] = np.eye(len(Phi[i]))


def _switch_charts(model, chart_ids, Y, failed, lost, jacobi):
    """Move rows below the switch margin to their ``ManifoldModel.best_chart``,
    in place; a row left in its chart below MARGIN_FLOOR fails and is
    parked.  Returns whether any chart id changed."""
    X, W, _ = _unpack(Y, model.dim, jacobi)
    before = chart_ids.copy()
    margins = model.chart(chart_ids).margin(X)
    margins[failed] = 1.0
    for i in np.nonzero(margins < SWITCH_MARGIN)[0]:
        cid, m, X[i], W[i] = model.best_chart(int(chart_ids[i]), X[i], W[i])
        if cid == chart_ids[i] and m < MARGIN_FLOOR:
            failed[i] = True
            log.warning("trajectory %d exhausted all charts (margin %.3g)", i, m)
            _park(model, chart_ids, Y, i, jacobi, lost)
        else:
            chart_ids[i] = cid
    return not np.array_equal(chart_ids, before)


def _reorthonormalize(chart, Y):
    """Stabilized Gram process on the frames, in place; Phi coordinates
    follow along.

    Returns each row's correction max|M - I| (logged, never silent).
    """
    k = chart.dim - 1
    X, W, Phi = _unpack(Y, chart.dim, True)
    e = W[:, 1:]
    g = chart.metric(X)
    newE = gram_schmidt(g, W[:, 0], e)
    M = newE @ g @ np.swapaxes(e, -1, -2)
    drift = np.abs(M - np.eye(k)).max(axis=(-2, -1), initial=0.0)
    # M acts on the E-coordinates of both halves of Phi
    Phi[:] = np.einsum("bij,bsjc->bsic", M, Phi.reshape(-1, 2, k, 2 * k)).reshape(Phi.shape)
    W[:, 1:] = newE
    worst = np.fmax.reduce(drift)
    if worst > 1e-9:
        log.info("frame re-orthonormalization applied correction of size %.3g", worst)
    return drift


def propagate(
    model: ManifoldModel,
    states,
    t_grid,
    step=1e-3,
    *,
    jacobi=True,
    frames0=None,
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
    if isinstance(states, TangentState):
        states = [states]
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(t_grid < 0.0) or np.any(np.diff(t_grid) <= 0.0):
        raise ValueError("t_grid must be non-negative and strictly increasing")
    B = len(states)
    n = model.dim
    k = n - 1
    chart_ids = np.array([s.chart_id for s in states], dtype=int)
    Y = np.zeros((B, n + n * n + 4 * k * k if jacobi else 2 * n))
    X, W, Phi = _unpack(Y, n, jacobi)
    X[:] = [s.x for s in states]
    W[:, 0] = [s.v for s in states]
    if jacobi:
        if frames0 is not None:
            W[:, 1:] = np.asarray(frames0, dtype=float).reshape(B, k, n)
        else:
            W[:, 1:] = model.orthonormal_frame(X, W[:, 0], chart_ids)
        Phi[:] = np.eye(2 * k)
    frames_init = W[:, 1:].copy() if jacobi else None

    G = len(t_grid)
    phi_rec = np.empty((G, B, 2 * k, 2 * k)) if jacobi else None
    radial = np.zeros((G, B)) if accumulate_radial else None
    rec_states = []
    failed = np.zeros(B, dtype=bool)
    # chart id, x and v of each failed row at the moment it failed
    lost = (chart_ids.copy(), np.empty((B, n)), np.empty((B, n)))
    frame_drift = np.zeros(B)
    multi_chart = len(model.charts) > 1
    if multi_chart:
        # a state starting near a chart boundary, heading out, can cross it
        # before the first periodic check; frames_init stays in the caller's chart
        _switch_charts(model, chart_ids, Y, failed, lost, jacobi)
    # evaluates every row in its own chart; rebuilt when a chart id changes
    chart = model.chart(chart_ids)

    t = 0.0
    nsteps = 0
    acc = np.zeros(B)
    f_prev = np.abs(np.linalg.det(Phi[:, :k, k:])) if accumulate_radial else None
    for gi, target in enumerate(t_grid):
        while t < target - 1e-12:
            h = min(step, target - t)
            Y = _rk4_step(model, chart, Y, h, jacobi)
            t += h
            nsteps += 1
            if accumulate_radial:
                f_cur = np.abs(np.linalg.det(_unpack(Y, n, jacobi)[2][:, :k, k:]))
                acc = acc + 0.5 * h * (f_prev + f_cur)
                f_prev = f_cur
            if (multi_chart and nsteps % CHECK_EVERY == 0
                    and _switch_charts(model, chart_ids, Y, failed, lost, jacobi)):
                chart = model.chart(chart_ids)
            if jacobi and nsteps % ORTHO_EVERY == 0:
                frame_drift = np.fmax(frame_drift, _reorthonormalize(chart, Y))
        t = float(target)
        bad = ~np.isfinite(Y).all(axis=-1) & ~failed
        for i in np.nonzero(bad)[0]:
            log.warning("trajectory %d became non-finite by t=%.3g", i, t)
            _park(model, chart_ids, Y, i, jacobi, lost)
        if bad.any():
            failed |= bad
            chart = model.chart(chart_ids)
        X, W, Phi = _unpack(Y, n, jacobi)
        if jacobi:
            phi_rec[gi] = Phi
        if accumulate_radial:
            radial[gi] = acc
        if record_states:
            rec_states.append((chart_ids.copy(), X.copy(), W[:, 0].copy(),
                               W[:, 1:].copy() if jacobi else None))

    speed_drift = np.abs(_g_inner(W[:, 0], chart.metric(X), W[:, 0]) - 1.0)
    if np.all(failed):
        raise IntegrationError("all trajectories failed during integration", last_state=lost)
    return PropagationResult(
        t_grid=t_grid,
        chart_ids=chart_ids,
        x=X,
        v=W[:, 0],
        frames0=frames_init,
        frames=W[:, 1:] if jacobi else None,
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
    return GeodesicState(
        t=float(t_end),
        chart_id=int(res.chart_ids[0]),
        x=res.x[0],
        v=res.v[0],
        speed_drift=float(res.speed_drift[0]),
    )


def propagate_jacobi(model, theta, t_end, step=1e-3):
    """Fundamental solution of the Jacobi system on [0, t_end] along theta."""
    if t_end < 0.0:
        raise ValueError("t_end must be non-negative")
    k = model.dim - 1
    if t_end == 0.0:
        frame = model.orthonormal_frame(theta.x, theta.v, theta.chart_id)
        return JacobiPropagation(theta, 0.0, theta.chart_id, theta.x.copy(),
                                 theta.v.copy(), frame, frame.copy(),
                                 np.eye(2 * k), 0.0, 0.0)
    res = propagate(model, theta, [t_end], step=step)
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

