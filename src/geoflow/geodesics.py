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

On a space form (``ManifoldModel.isotropic``) K is one constant kappa I in
every orthonormal frame, so the Jacobi system does not depend on the
geodesic: :func:`propagate_jacobi` integrates Phi alone.  Both systems go
through one RK4 step, :func:`_rk4_step`, which takes the right-hand side as
an argument, and one march over the time grid, :func:`_march`.

A stage is contiguous batched products.  Gamma is symmetric in i, j, so the
spray and the frame transport are one stacked matvec A = Gamma(., -v, .) and
one product (v, E) A^T.  The state advances in place: a run allocates three
stage buffers once (the stage input, the running sum of the stage
derivatives and the latest one) and binds their views once, and every stage
writes its derivatives into them.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationError
from .manifolds import (MARGIN_FLOOR, ManifoldModel, TangentState, _constant_jacobi, _g_inner,
                        gram_schmidt)

log = logging.getLogger(__name__)

#: most steps, and most arclength, between chart-margin and reach checks
CHECK_EVERY = 10
CHECK_ARCLENGTH = 0.1
#: steps between frame re-orthonormalizations
ORTHO_EVERY = 100
#: switch charts below this margin; give up below MARGIN_FLOOR
SWITCH_MARGIN = 0.2


@dataclass
class PropagationResult:
    """Batch propagation record on a time grid.  A run of the Jacobi system
    alone (:func:`propagate_jacobi`) integrates no geodesic: its chart ids,
    positions, velocities, frames, drifts and lost states are None, not
    measured."""

    t_grid: np.ndarray
    chart_ids: np.ndarray | None
    x: np.ndarray | None
    v: np.ndarray | None
    frames0: np.ndarray | None
    frames: np.ndarray | None
    phi: np.ndarray | None          # (G, B, 2k, 2k)
    radial: np.ndarray | None       # (G, B) accumulated integral of |det A|
    failed: np.ndarray              # (B,) bool
    # why each row failed: "charts" (it ran out of charts), "reach" (it left
    # its chart's reach), "non-finite"; "" on the others
    reason: np.ndarray
    speed_drift: np.ndarray | None
    frame_drift: np.ndarray | None
    # chart id, x and v of each failed row when it failed; -1 and nan on the others
    lost: tuple | None
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


def _jacobi_derivatives(K, Phi, dPhi):
    """dPhi/dt = [[0, I], [-K, 0]] Phi of the Jacobi system into dPhi, Phi
    and dPhi (B, 2k, 2k), for one Jacobi matrix K (k, k) of every row or
    one (B, k, k) per row."""
    k = K.shape[-1]
    dPhi[:, :k] = Phi[:, k:]
    # the minus sign goes on a fresh operand, -K, not on the product in
    # place: numpy 2.4's in-place np.negative miswrites an array whose
    # innermost stride is 64 bytes
    np.matmul(-K, Phi[:, :k], out=dPhi[:, k:])


def _derivatives(model, jacobi, chart, Y, dY):
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
    # is symmetric in i, j, so A = Gamma(., -v, .) is one stacked matvec and
    # the transport one product (v, E) A^T; -v is a fresh operand, as -K is
    A = (gam.reshape(B, n * n, n) @ -v[..., None]).reshape(B, n, n)
    np.matmul(W, np.swapaxes(A, -1, -2), out=dW)
    if jacobi:
        _jacobi_derivatives(K, Phi, dPhi)


def _stage_buffers(Y, views):
    """The RK4 buffers of the state Y, allocated once: ``views(Y)``, then
    (array, its views) for the stage input, the running weighted sum of the
    stage derivatives and the latest stage derivative."""
    bufs = [np.empty_like(Y) for _ in range(3)]
    return views(Y), *((b, views(b)) for b in bufs)


def _rk4_step(rhs, at, Y, h, stages):
    """One RK4 step of size h, in place on Y, of the system whose stage
    derivatives ``rhs(at, y, dy)`` writes from the views y of a stage input
    into the views dy of a stage buffer: :func:`_derivatives` at the chart
    that evaluates the batch, or :func:`_jacobi_derivatives` at a constant
    Jacobi matrix.  It goes through the buffers ``stages`` that
    :func:`_stage_buffers` bound to Y and keeps the order of operations of
    Y + (h/6)(((k1 + 2 k2) + 2 k3) + k4), so it is bit for bit the step
    with freshly allocated stages."""
    y, (S, s), (acc, a), (k, kv) = stages
    rhs(at, y, a)
    np.multiply(acc, h / 2.0, out=S)
    S += Y
    rhs(at, s, kv)
    for c in (h / 2.0, h):
        # the next stage input from k = k2 (then k3) before k is doubled
        # into the sum and overwritten by the next stage
        np.multiply(k, c, out=S)
        S += Y
        k *= 2.0
        acc += k
        rhs(at, s, kv)
    acc += k
    acc *= h / 6.0
    Y += acc


def _checked_grid(t_grid, step):
    """The time grid as a float array, after checking it and the step."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(t_grid < 0.0) or np.any(np.diff(t_grid) <= 0.0):
        raise ValueError("t_grid must be non-negative and strictly increasing")
    return t_grid


def _march(t_grid, step, Y, Phi, failed, advance, park, after_step=None, record=None,
           accumulate_radial=False):
    """Advance the packed state Y over the time grid: full steps of ``step``
    by ``advance(h)``, the last one before each grid time clipped onto it,
    each followed by ``after_step(nsteps)``.  With ``accumulate_radial`` the
    trapezoid of |det Phi[:k, k:]| runs over every step.  At each grid time
    the rows whose Y or radial integral turned non-finite fail: they are
    flagged in ``failed`` and handed to ``park(rows)``.  Then Phi, the
    radial integrals and ``record(gi)`` are recorded.  Returns the recorded Phi (G, B, 2k, 2k), or
    None where Phi is None, and the radial integrals (G, B) or None."""
    G, B = len(t_grid), len(Y)
    phi_rec = None if Phi is None else np.empty((G,) + Phi.shape)
    radial = np.zeros((G, B)) if accumulate_radial else None
    quiet = contextlib.nullcontext
    if accumulate_radial:
        k = Phi.shape[-1] // 2
        acc = np.zeros(B)
        f_prev = np.abs(np.linalg.det(Phi[:, :k, k:]))
        # |det Phi[:k, k:]| can overflow while Phi is finite (hyperbolic
        # space of dimension 3 and up).  Overflow is quiet while stepping: it
        # leaves Y or the integral non-finite, so the row fails at the grid time
        quiet = functools.partial(np.errstate, over="ignore")
    t = 0.0
    nsteps = 0
    for gi, target in enumerate(t_grid):
        with quiet():
            while t < target - 1e-12:
                h = min(step, target - t)
                advance(h)
                t += h
                nsteps += 1
                if accumulate_radial:
                    f_cur = np.abs(np.linalg.det(Phi[:, :k, k:]))
                    acc = acc + 0.5 * h * (f_prev + f_cur)
                    f_prev = f_cur
                if after_step is not None:
                    after_step(nsteps)
        t = float(target)
        finite = np.isfinite(Y).all(axis=-1)
        if accumulate_radial:
            finite &= np.isfinite(acc)
        bad = ~finite & ~failed
        if bad.any():
            rows = np.nonzero(bad)[0]
            for i in rows:
                log.warning("trajectory %d became non-finite by t=%.3g", i, t)
            failed |= bad
            park(rows)
        if Phi is not None:
            phi_rec[gi] = Phi
        if accumulate_radial:
            radial[gi] = acc
        if record is not None:
            record(gi)
    return phi_rec, radial


def _park(model, chart_ids, Y, i, jacobi, lost, reason, why):
    """Park failed row i at the base state, keeping batched linear algebra
    clean; its chart id, x and v at failure go to row i of ``lost``, the
    reason ``why`` to ``reason[i]``."""
    X, W, Phi = _unpack(Y, model.dim, jacobi)
    for rec, val in zip(lost, (chart_ids[i], X[i], W[i, 0])):
        rec[i] = val
    reason[i] = why
    chart_ids[i] = 0
    X[i] = model.base_x
    W[i, 0] = model.base_state().v
    if jacobi:
        W[i, 1:] = model.orthonormal_frame(X[i], W[i, 0], 0)
        Phi[i] = np.eye(len(Phi[i]))


def _switch_charts(model, chart_ids, Y, failed, lost, reason, jacobi):
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
            _park(model, chart_ids, Y, i, jacobi, lost, reason, "charts")
        else:
            chart_ids[i] = cid
    return not np.array_equal(chart_ids, before)


def _leave_reach(model, chart_ids, Y, failed, lost, reason, jacobi, reach):
    """Fail and park the rows whose chart coordinate |x_0|, the first column
    of the packed state Y, has passed ``reach``, the charts' ``Chart.reach``;
    their last finite states go to ``lost``.  Returns whether any row
    failed."""
    far = np.abs(Y[:, 0]) > reach
    if not far.any():
        return False
    rows = np.nonzero(far & ~failed)[0]
    for i in rows:
        failed[i] = True
        log.warning("trajectory %d left the chart's reach (|x_0| = %.6g)", i, abs(Y[i, 0]))
        _park(model, chart_ids, Y, i, jacobi, lost, reason, "reach")
    return len(rows) > 0


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
    out of charts, leaves its chart's reach (``Chart.reach``, checked with
    the chart margins) or turns non-finite is flagged in ``failed``, with
    that reason in ``reason``, and parked at the base state;
    :class:`IntegrationError` is raised only when every row fails.
    Identical inputs produce bit-identical outputs.
    """
    t_grid = _checked_grid(t_grid, step)
    if isinstance(states, TangentState):
        states = [states]
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

    rec_states = []
    failed = np.zeros(B, dtype=bool)
    # chart id, x and v of each failed row at the moment it failed
    lost = (np.full(B, -1), np.full((B, n), np.nan), np.full((B, n), np.nan))
    reason = np.full(B, "", dtype="<U10")
    frame_drift = np.zeros(B)
    multi_chart = len(model.charts) > 1
    reach = model.charts[0].reach
    # a coarse step checks more often, so no row crosses a pole between checks
    check_every = max(1, min(CHECK_EVERY, math.floor(CHECK_ARCLENGTH / step)))
    if multi_chart:
        # a state starting near a chart boundary, heading out, can cross it
        # before the first periodic check; frames_init stays in the caller's chart
        _switch_charts(model, chart_ids, Y, failed, lost, reason, jacobi)
    # evaluates every row in its own chart; rebuilt when a chart id changes
    chart = model.chart(chart_ids)
    rhs = functools.partial(_derivatives, model, jacobi)
    stages = _stage_buffers(Y, lambda b: _unpack(b, n, jacobi))

    def advance(h):
        _rk4_step(rhs, chart, Y, h, stages)

    def after_step(nsteps):
        nonlocal chart, frame_drift
        if nsteps % check_every == 0:
            left = reach is not None and _leave_reach(model, chart_ids, Y, failed, lost,
                                                      reason, jacobi, reach)
            switched = multi_chart and _switch_charts(model, chart_ids, Y, failed, lost,
                                                      reason, jacobi)
            if left or switched:
                chart = model.chart(chart_ids)
        if jacobi and nsteps % ORTHO_EVERY == 0:
            frame_drift = np.fmax(frame_drift, _reorthonormalize(chart, Y))

    def park(rows):
        nonlocal chart
        for i in rows:
            _park(model, chart_ids, Y, i, jacobi, lost, reason, "non-finite")
        chart = model.chart(chart_ids)

    def record(gi):
        rec_states.append((chart_ids.copy(), X.copy(), W[:, 0].copy(),
                           W[:, 1:].copy() if jacobi else None))

    phi_rec, radial = _march(t_grid, step, Y, Phi, failed, advance, park, after_step,
                             record if record_states else None, accumulate_radial)

    speed_drift = np.abs(_g_inner(W[:, 0], chart.metric(X), W[:, 0]) - 1.0)
    if np.all(failed):
        raise IntegrationError(f"all trajectories failed during integration "
                               f"({', '.join(sorted(set(reason)))})", last_state=lost)
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
        reason=reason,
        speed_drift=speed_drift,
        frame_drift=frame_drift,
        lost=lost,
        states=rec_states,
    )


def propagate_jacobi(model: ManifoldModel, batch, t_grid, step=1e-3):
    """The Jacobi system Phi' = [[0, I], [-K, 0]] Phi alone, from Phi = I,
    with its radial integral, for ``batch`` rows on a space form
    (``model.isotropic``), whose Jacobi matrix K is the one constant kappa I
    of :func:`~geoflow.manifolds._constant_jacobi` in every orthonormal frame.

    There is no position, velocity or frame, so no chart switch, reach
    check or re-orthonormalization.  The RK4 step, the march over the grid
    and the radial trapezoid are :func:`propagate`'s, so with
    re-orthonormalization out of reach ``phi`` and ``radial`` equal
    propagate's bit for bit.  A row fails only when Phi or its radial
    integral turns non-finite (on hyperbolic space of dimension n near
    kappa t = 710 / (n - 1)); :class:`IntegrationError` is raised when every
    row does.
    """
    if not model.isotropic:
        raise ValueError("the Jacobi system alone needs a space form (an isotropic model)")
    t_grid = _checked_grid(t_grid, step)
    if batch < 1:
        raise ValueError("batch must be at least 1")
    k = model.dim - 1
    K = _constant_jacobi(k, model.factors[0].k_max)
    Y = np.zeros((batch, 4 * k * k))

    def views(b):
        return b.reshape(batch, 2 * k, 2 * k)

    Phi = views(Y)
    Phi[:] = np.eye(2 * k)
    stages = _stage_buffers(Y, views)
    failed = np.zeros(batch, dtype=bool)

    def park(rows):
        Phi[rows] = np.eye(2 * k)

    phi_rec, radial = _march(t_grid, step, Y, Phi, failed,
                             lambda h: _rk4_step(_jacobi_derivatives, K, Y, h, stages), park,
                             accumulate_radial=True)
    if np.all(failed):
        raise IntegrationError("all rows of the Jacobi system turned non-finite")
    return PropagationResult(
        t_grid=t_grid, chart_ids=None, x=None, v=None, frames0=None, frames=None,
        phi=phi_rec, radial=radial, failed=failed,
        reason=np.where(failed, "non-finite", ""), speed_drift=None, frame_drift=None,
        lost=None)


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

