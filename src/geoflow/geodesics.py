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
every orthonormal frame, so the Jacobi system is the same along every
geodesic: :func:`propagate_jacobi` integrates its one Phi alone.  Both
systems go through one RK4 step, :func:`_rk4_step`, which takes the
right-hand side as an argument, and one march over the time grid,
:func:`_march`.  A row of :func:`propagate` fails in one place, its
``fail(rows, why)``: the row keeps its first reason and last state and is
parked at the base state.

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
from dataclasses import dataclass

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
    """Batch propagation record of geodesics on a time grid.  Without the
    Jacobi system the frames are empty (B, 0, n) and ``phi`` is None;
    ``radial`` is None unless it was accumulated."""

    t_grid: np.ndarray
    chart_ids: np.ndarray
    x: np.ndarray
    v: np.ndarray
    frames0: np.ndarray
    frames: np.ndarray
    phi: np.ndarray | None          # (G, B, 2k, 2k)
    radial: np.ndarray | None       # (G, B) accumulated integral of |det A|
    # why each row failed: "charts" (it ran out of charts), "reach" (it left
    # its chart's reach), "non-finite"; "" on the others
    reason: np.ndarray
    speed_drift: np.ndarray
    frame_drift: np.ndarray
    # chart id, x and v of each failed row when it failed; -1 and nan on the others
    lost: tuple

    @property
    def failed(self):
        """(B,) bool: the rows with a reason."""
        return self.reason != ""


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
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError("step must be finite and positive")
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if not np.isfinite(t_grid).all() or np.any(t_grid < 0.0) or np.any(np.diff(t_grid) <= 0.0):
        raise ValueError("t_grid must be finite, non-negative and strictly increasing")
    return t_grid


def _march(t_grid, step, Y, Phi, advance, fail, after_step=None, accumulate_radial=False):
    """Advance the packed state Y over the time grid: full steps of ``step``
    by ``advance(h)``, the last one before each grid time clipped onto it,
    each followed by ``after_step(nsteps)``.  With ``accumulate_radial`` the
    trapezoid of |det Phi[:k, k:]| runs over every step.  At each grid time
    the rows whose Y or radial integral turned non-finite go to
    ``fail(rows, "non-finite")``, then Phi and the radial integrals are
    recorded.  Returns the recorded Phi (G, B, 2k, 2k), or None where Phi is
    None, and the radial integrals (G, B) or None."""
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
        if not finite.all():
            fail(np.flatnonzero(~finite), "non-finite")
        if Phi is not None:
            phi_rec[gi] = Phi
        if accumulate_radial:
            radial[gi] = acc
    return phi_rec, radial


def _switch_charts(model, chart, chart_ids, X, W, failed):
    """Move the rows of X and W below the switch margin of ``chart`` (row i
    in chart ``chart_ids[i]``), other than the ``failed`` ones, to their
    ``ManifoldModel.best_chart``, in place.  Returns whether any chart id
    changed, and the rows left in their chart below MARGIN_FLOOR: they have
    run out of charts."""
    margins = chart.margin(X)
    margins[failed] = 1.0
    switched, out = False, []
    for i in np.nonzero(margins < SWITCH_MARGIN)[0]:
        cid, m, X[i], W[i] = model.best_chart(int(chart_ids[i]), X[i], W[i])
        if cid != chart_ids[i]:
            chart_ids[i] = cid
            switched = True
        elif m < MARGIN_FLOOR:
            out.append(i)
    return switched, out


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
):
    """Advance a batch of unit tangent states, recording at the grid times.

    ``states`` is a list of :class:`TangentState` (or a single one).  The grid
    must be non-negative and strictly increasing; a grid point at 0 takes no
    step, so ``phi`` there is the identity; ``step`` is the largest RK4 step,
    cut onto each grid time.  ``phi[g, b]`` is the fundamental solution of
    row b on [0, t_grid[g]], from the frame ``frames0[b]`` to the transported
    one (``frames[b]`` at the last grid time).  A row that runs out of
    charts, leaves its chart's reach (``Chart.reach``, checked with the chart
    margins) or turns non-finite fails once: it is logged, its reason goes
    to ``reason`` and its chart id, x and v to ``lost``, and it is parked at
    the base state.  :class:`IntegrationError` is raised only when every row
    fails.  Identical inputs produce bit-identical outputs.
    """
    t_grid = _checked_grid(t_grid, step)
    if accumulate_radial and not jacobi:
        raise ValueError("accumulate_radial needs the Jacobi system")
    if isinstance(states, TangentState):
        states = [states]
    B = len(states)
    if B == 0:
        raise ValueError("states must hold at least one tangent state")
    n = model.dim
    k = n - 1
    chart_ids = np.array([s.chart_id for s in states], dtype=int)
    # evaluates every row in its own chart; rebuilt when a chart id changes
    chart = model.chart(chart_ids)
    Y = np.zeros((B, n + n * n + 4 * k * k if jacobi else 2 * n))
    X, W, Phi = _unpack(Y, n, jacobi)
    X[:] = [s.x for s in states]
    W[:, 0] = [s.v for s in states]
    if jacobi:
        if frames0 is not None:
            W[:, 1:] = np.asarray(frames0, dtype=float).reshape(B, k, n)
        else:
            W[:, 1:] = model.orthonormal_frame(X, W[:, 0], chart)
        Phi[:] = np.eye(2 * k)
    frames_init = W[:, 1:].copy()

    # chart id, x and v of each failed row at the moment it failed
    lost = (np.full(B, -1), np.full((B, n), np.nan), np.full((B, n), np.nan))
    reason = np.full(B, "", dtype="<U10")
    frame_drift = np.zeros(B)
    multi_chart = len(model.charts) > 1
    reach = model.charts[0].reach
    # a coarse step checks more often, so no row crosses a pole between checks
    check_every = max(1, min(CHECK_EVERY, math.floor(CHECK_ARCLENGTH / step)))

    def fail(rows, why):
        nonlocal chart
        # a row fails once: it keeps its first reason and last state
        rows = [i for i in rows if not reason[i]]
        if not rows:
            return
        for i in rows:
            log.warning("trajectory %d failed (%s) in chart %d at x = %s",
                        i, why, chart_ids[i], X[i])
        for rec, val in zip(lost, (chart_ids, X, W[:, 0])):
            rec[rows] = val[rows]
        reason[rows] = why
        # parked at the base state, the rows keep batched linear algebra clean
        chart_ids[rows] = 0
        X[rows] = model.base_x
        W[rows, 0] = model.base_state().v
        if jacobi:
            W[rows, 1:] = model.orthonormal_frame(model.base_x, W[rows[0], 0], 0)
            Phi[rows] = np.eye(2 * k)
        chart = model.chart(chart_ids)

    def check_charts():
        nonlocal chart
        switched, out = _switch_charts(model, chart, chart_ids, X, W, reason != "")
        if switched:
            chart = model.chart(chart_ids)
        fail(out, "charts")

    if multi_chart:
        # a state starting near a chart boundary, heading out, can cross it
        # before the first periodic check; frames_init stays in the caller's chart
        check_charts()
    rhs = functools.partial(_derivatives, model, jacobi)
    stages = _stage_buffers(Y, lambda b: _unpack(b, n, jacobi))

    def advance(h):
        _rk4_step(rhs, chart, Y, h, stages)

    def after_step(nsteps):
        nonlocal frame_drift
        if nsteps % check_every == 0:
            if reach is not None:
                fail(np.flatnonzero(np.abs(Y[:, 0]) > reach), "reach")
            if multi_chart:
                check_charts()
        if jacobi and nsteps % ORTHO_EVERY == 0:
            frame_drift = np.fmax(frame_drift, _reorthonormalize(chart, Y))

    phi_rec, radial = _march(t_grid, step, Y, Phi, advance, fail, after_step, accumulate_radial)

    speed_drift = np.abs(_g_inner(W[:, 0], chart.metric(X), W[:, 0]) - 1.0)
    if np.all(reason != ""):
        raise IntegrationError(f"all trajectories failed during integration "
                               f"({', '.join(sorted(set(reason)))})", last_state=lost)
    return PropagationResult(
        t_grid=t_grid,
        chart_ids=chart_ids,
        x=X,
        v=W[:, 0],
        frames0=frames_init,
        frames=W[:, 1:],
        phi=phi_rec,
        radial=radial,
        reason=reason,
        speed_drift=speed_drift,
        frame_drift=frame_drift,
        lost=lost,
    )


def propagate_jacobi(model: ManifoldModel, t_grid, step=1e-3):
    """The Jacobi system Phi' = [[0, I], [-K, 0]] Phi alone, from Phi = I,
    with its radial integral, on a space form (``model.isotropic``), whose
    Jacobi matrix K is the one constant kappa I of
    :func:`~geoflow.manifolds._constant_jacobi` in every orthonormal frame:
    one Phi serves every geodesic.  Returns phi (G, 2k, 2k) and the radial
    integrals (G,) at the grid times.

    There is no position, velocity or frame, so no chart switch, reach
    check or re-orthonormalization.  The RK4 step, the march over the grid
    and the radial trapezoid are :func:`propagate`'s, so with
    re-orthonormalization out of reach ``phi`` and ``radial`` equal every
    row of propagate's bit for bit.  :class:`IntegrationError` is raised at
    the first grid time where Phi or its radial integral is non-finite (on
    hyperbolic space of dimension n near kappa t = 710 / (n - 1)).
    """
    if not model.isotropic:
        raise ValueError("the Jacobi system alone needs a space form (an isotropic model)")
    t_grid = _checked_grid(t_grid, step)
    k = model.dim - 1
    K = _constant_jacobi(k, model.factors[0].k_max)
    Y = np.zeros((1, 4 * k * k))

    def views(b):
        return b.reshape(1, 2 * k, 2 * k)

    def fail(rows, why):
        raise IntegrationError(f"the Jacobi system turned {why}")

    Phi = views(Y)
    Phi[:] = np.eye(2 * k)
    stages = _stage_buffers(Y, views)
    phi, radial = _march(t_grid, step, Y, Phi,
                         lambda h: _rk4_step(_jacobi_derivatives, K, Y, h, stages), fail,
                         accumulate_radial=True)
    return phi[:, 0], radial[:, 0]


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

