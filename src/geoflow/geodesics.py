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

A stage is contiguous batched products.  Gamma is symmetric in i, j, so the
spray and the frame transport are one stacked matvec A = Gamma(., v, .) and
one product (v, E) A^T.  The state advances in place: ``propagate`` allocates
three stage buffers once (the stage input, the running sum of the stage
derivatives and the latest one) and binds their views once, and every stage
writes its derivatives into them.
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
    # chart id, x and v of each failed row when it failed; -1 and nan on the others
    lost: tuple
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


def _derivatives(model, chart, Y, dY, jacobi):
    """dY/dt of a stage input into a stage buffer, both as their
    :func:`_unpack` views Y = (X, W, Phi) and dY; ``chart`` evaluates every
    row in its own chart."""
    X, W, Phi = Y
    dX, dW, dPhi = dY
    B, n = X.shape
    v = W[:, 0]
    dX[:] = v
    gam, K = model.stage_geometry(chart, X, W)
    # geodesic spray and frame transport, (v, E)' = -Gamma(v, (v, E)): Gamma
    # is symmetric in i, j, so A = Gamma(., v, .) is one stacked matvec and
    # the transport one product (v, E) A^T
    A = (gam.reshape(B, n * n, n) @ v[..., None]).reshape(B, n, n)
    np.negative(np.matmul(W, np.swapaxes(A, -1, -2), out=dW), out=dW)
    if jacobi:
        k = n - 1
        dPhi[:, :k] = Phi[:, k:]
        np.negative(np.matmul(K, Phi[:, :k], out=dPhi[:, k:]), out=dPhi[:, k:])


def _stage_buffers(Y, n, jacobi):
    """The RK4 buffers of the state Y, allocated once: the :func:`_unpack`
    views of Y, then (array, its views) for the stage input, the running
    weighted sum of the stage derivatives and the latest stage derivative."""
    bufs = [np.empty_like(Y) for _ in range(3)]
    return _unpack(Y, n, jacobi), *((b, _unpack(b, n, jacobi)) for b in bufs)


def _rk4_step(model, chart, Y, h, jacobi, stages):
    """One RK4 step of size h, in place on Y, through the buffers ``stages``
    that :func:`_stage_buffers` bound to Y.  It keeps the order of operations
    of Y + (h/6)(((k1 + 2 k2) + 2 k3) + k4), so it is bit for bit the step
    with freshly allocated stages."""
    y, (S, s), (acc, a), (k, kv) = stages
    _derivatives(model, chart, y, a, jacobi)
    np.multiply(acc, h / 2.0, out=S)
    S += Y
    _derivatives(model, chart, s, kv, jacobi)
    for c in (h / 2.0, h):
        # the next stage input from k = k2 (then k3) before k is doubled
        # into the sum and overwritten by the next stage
        np.multiply(k, c, out=S)
        S += Y
        k *= 2.0
        acc += k
        _derivatives(model, chart, s, kv, jacobi)
    acc += k
    acc *= h / 6.0
    Y += acc


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
    must be non-negative and strictly increasing; a grid point at 0 takes no
    step, so ``phi`` there is the identity.  ``phi[g, b]`` is the fundamental
    solution of row b on [0, t_grid[g]], from the frame ``frames0[b]`` to the
    transported one (``frames[b]`` at the last grid time).  A row that runs
    out of charts or turns non-finite is flagged in ``failed`` and parked at
    the base state; :class:`IntegrationError` is raised only when every row
    fails.  Identical inputs produce bit-identical outputs.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if isinstance(states, TangentState):
        states = [states]
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(t_grid < 0.0) or np.any(np.diff(t_grid) <= 0.0):
        raise ValueError("t_grid must be non-negative and strictly increasing")
    B = len(states)
    if B == 0:
        raise ValueError("states must hold at least one tangent state")
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
    lost = (np.full(B, -1), np.full((B, n), np.nan), np.full((B, n), np.nan))
    frame_drift = np.zeros(B)
    multi_chart = len(model.charts) > 1
    if multi_chart:
        # a state starting near a chart boundary, heading out, can cross it
        # before the first periodic check; frames_init stays in the caller's chart
        _switch_charts(model, chart_ids, Y, failed, lost, jacobi)
    # evaluates every row in its own chart; rebuilt when a chart id changes
    chart = model.chart(chart_ids)
    stages = _stage_buffers(Y, n, jacobi)

    t = 0.0
    nsteps = 0
    acc = np.zeros(B)
    f_prev = np.abs(np.linalg.det(Phi[:, :k, k:])) if accumulate_radial else None
    for gi, target in enumerate(t_grid):
        while t < target - 1e-12:
            h = min(step, target - t)
            _rk4_step(model, chart, Y, h, jacobi, stages)
            t += h
            nsteps += 1
            if accumulate_radial:
                f_cur = np.abs(np.linalg.det(Phi[:, :k, k:]))
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
        lost=lost,
        states=rec_states,
    )


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

