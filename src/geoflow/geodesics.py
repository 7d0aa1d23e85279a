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

A row of :func:`propagate` fails in one place, its ``fail(rows, why)``:
the row keeps its first reason and last state and is parked at the base
state.  :func:`propagate_jacobi` advances Phi of a constant K by RK4's step
matrix, over the same grid march, :func:`_march`: the Mane average on
sphere products and the count on every homogeneous model take it.  In K's
eigenframe the system splits into k independent 2 x 2 systems with the
generators [[0, 1], [-lam_i, 0]], so Phi is held as k blocks, and
:func:`block_expansion` takes their singular values in closed form.  The
march steps in runs of at most RADIAL_BLOCK equal steps, one call of the
integrator's ``advance`` per run, which returns |det Phi[:k, k:]| after
each step of the run, and takes the count's radial trapezoid per run with
one running sum.  :func:`propagate` takes that |det| with :func:`_abs_det`
(the entry for k = 1, ``np.linalg.det`` otherwise), :func:`propagate_jacobi`
as the product of the blocks' (0, 1) entries.

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
from .manifolds import MARGIN_FLOOR, ManifoldModel, _g_inner, as_batch, gram_schmidt

log = logging.getLogger(__name__)

#: most steps, and most arclength, between chart-margin and reach checks
CHECK_EVERY = 10
CHECK_ARCLENGTH = 0.1
#: steps between frame re-orthonormalizations
ORTHO_EVERY = 100
#: steps per batched det of the radial trapezoid
RADIAL_BLOCK = 64
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


def _derivatives(model, chart, Y, dY):
    """dY/dt of a stage input into a stage buffer, both as their
    :func:`_unpack` views Y = (X, W, Phi) and dY, with the Jacobi system
    dPhi/dt = [[0, I], [-K, 0]] Phi where Phi is not None; ``chart``
    evaluates every row in its own chart."""
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
    if Phi is not None:
        k = n - 1
        dPhi[:, :k] = Phi[:, k:]
        # the minus sign goes on a fresh operand, -K, not on the product in
        # place: numpy 2.4's in-place np.negative miswrites an array whose
        # innermost stride is 64 bytes
        np.matmul(-K, Phi[:, :k], out=dPhi[:, k:])


def _stage_buffers(Y, n, jacobi):
    """The RK4 buffers of the packed state Y, allocated once: the
    :func:`_unpack` views of Y, then (array, its views) for the stage input,
    the running weighted sum of the stage derivatives and the latest stage
    derivative."""
    bufs = [np.empty_like(Y) for _ in range(3)]
    return _unpack(Y, n, jacobi), *((b, _unpack(b, n, jacobi)) for b in bufs)


def _rk4_step(model, chart, Y, h, stages):
    """One RK4 step of size h, in place on Y, with the stage derivatives of
    :func:`_derivatives` at the chart that evaluates the batch.  It goes
    through the buffers ``stages`` that :func:`_stage_buffers` bound to Y
    and keeps the order of operations of Y + (h/6)(((k1 + 2 k2) + 2 k3) + k4),
    so it is bit for bit the step with freshly allocated stages."""
    y, (S, s), (acc, a), (k, kv) = stages
    _derivatives(model, chart, y, a)
    np.multiply(acc, h / 2.0, out=S)
    S += Y
    _derivatives(model, chart, s, kv)
    for c in (h / 2.0, h):
        # the next stage input from k = k2 (then k3) before k is doubled
        # into the sum and overwritten by the next stage
        np.multiply(k, c, out=S)
        S += Y
        k *= 2.0
        acc += k
        _derivatives(model, chart, s, kv)
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


def _abs_det(M):
    """|det| of a stack of k x k blocks (..., k, k): the entry itself for
    k = 1, ``np.linalg.det`` for larger k."""
    if M.shape[-1] == 1:
        return np.abs(M[..., 0, 0])
    return np.abs(np.linalg.det(M))


def _runs(t, target, step):
    """The steps from t to the grid time ``target`` as runs (h, m) of m
    equal steps h, at most RADIAL_BLOCK a run: the float loop on t takes
    full steps of ``step`` and clips the last one onto the grid time."""
    run_h, m = None, 0
    while t < target - 1e-12:
        h = min(step, target - t)
        t += h
        if m and (h != run_h or m == RADIAL_BLOCK):
            yield run_h, m
            m = 0
        run_h, m = h, m + 1
    if m:
        yield run_h, m


def _march(t_grid, step, Y, Phi, advance, fail, accumulate_radial=False):
    """Advance the packed state Y over the time grid: full steps of ``step``,
    the last one before each grid time clipped onto it, by one call
    ``advance(h, m)`` per run of :func:`_runs`; with ``accumulate_radial``
    it returns |det Phi[:k, k:]| after each of the run's m steps, (m, B), and
    the trapezoid of it runs over every step: per run one running sum, bit
    for bit the per-step sum acc + (h/2)(f_prev + f_cur).  At each grid
    time the rows whose Y or radial integral turned non-finite go to
    ``fail(rows, "non-finite")``, then Phi, in whatever layout the
    integrator keeps it, and the radial integrals are recorded.  Returns
    the recorded Phi (G, ...) of Phi's shape, or None where Phi is None,
    and the radial integrals (G, B) or None."""
    G, B = len(t_grid), len(Y)
    phi_rec = None if Phi is None else np.empty((G,) + Phi.shape)
    radial = np.zeros((G, B)) if accumulate_radial else None
    quiet = contextlib.nullcontext
    if accumulate_radial:
        acc = np.zeros(B)
        # f[0] is |det| at the step before the run: 0 at Phi = I
        f = np.zeros((RADIAL_BLOCK + 1, B))
        # |det Phi[:k, k:]| can overflow while Phi is finite (hyperbolic
        # space of dimension 3 and up), and a product of overflowed terms
        # can meet inf - inf.  Both are quiet while stepping: they leave Y
        # or the integral non-finite, so the row fails at the grid time
        quiet = functools.partial(np.errstate, over="ignore", invalid="ignore")

    t = 0.0
    for gi, target in enumerate(t_grid):
        with quiet():
            for h, m in _runs(t, target, step):
                if not accumulate_radial:
                    advance(h, m)
                    continue
                f[1:m + 1] = advance(h, m)
                terms = (0.5 * h) * (f[:m] + f[1:m + 1])
                terms[0] = acc + terms[0]
                # accumulate adds in order, as the per-step sum did
                acc = np.add.accumulate(terms, out=terms)[-1]
                f[0] = f[m]
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

    ``states`` is a :class:`TangentState`, one or a batch, or a list of
    them, read through :func:`~geoflow.manifolds.as_batch`.  The grid
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
    states = as_batch(states)
    B, n = states.v.shape
    k = n - 1
    chart_ids = states.chart_id
    # evaluates every row in its own chart; rebuilt when a chart id changes
    chart = model.chart(chart_ids)
    Y = np.zeros((B, n + n * n + 4 * k * k if jacobi else 2 * n))
    X, W, Phi = _unpack(Y, n, jacobi)
    X[:] = states.x
    W[:, 0] = states.v
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
    stages = _stage_buffers(Y, n, jacobi)
    # Phi[:k] after each step of a run, copied before a check or a
    # re-orthonormalization can change Phi
    top = np.empty((RADIAL_BLOCK, B, k, 2 * k)) if accumulate_radial else None
    nsteps = 0

    def advance(h, m):
        nonlocal frame_drift, nsteps
        for i in range(m):
            _rk4_step(model, chart, Y, h, stages)
            if top is not None:
                top[i] = Phi[:, :k]
            nsteps += 1
            if nsteps % check_every == 0:
                if reach is not None:
                    fail(np.flatnonzero(np.abs(Y[:, 0]) > reach), "reach")
                if multi_chart:
                    check_charts()
            if jacobi and nsteps % ORTHO_EVERY == 0:
                frame_drift = np.fmax(frame_drift, _reorthonormalize(chart, Y))
        return None if top is None else _abs_det(top[:m, :, :, k:])

    phi_rec, radial = _march(t_grid, step, Y, Phi, advance, fail, accumulate_radial)

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


def propagate_jacobi(lam, t_grid, step=1e-3, *, accumulate_radial=False):
    """The Jacobi system Phi' = A Phi, A = [[0, I], [-K, 0]], alone, from
    Phi = I, for one constant Jacobi matrix K per row, given by its
    eigenvalues ``lam`` (B, k): a locally symmetric model (a space form or
    a product of them) has a constant K in every parallel frame.  Both
    estimators call it there, the Mane average on sphere products and the
    count on every homogeneous model.  In K's eigenframe e_1..e_k the
    system splits into k independent 2 x 2 blocks A_i = [[0, 1],
    [-lam_i, 0]] on the coordinates (e_i, 0), (0, e_i), and Phi is held as
    those blocks.  Returns phi (G, B, k, 2, 2) at the grid times and, with
    ``accumulate_radial``, the radial integrals (G, B) of
    |det Phi[:k, k:]| = |prod_i Phi_i[0, 1]|, otherwise None.

    Each RK4 step of size h is Phi_i <- R(h A_i) Phi_i with RK4's step
    matrix R(z) = I + z + z^2/2 + z^3/6 + z^4/24, formed once per step
    size; as A_i^2 = -lam_i I it is (1 + x/2 + x^2/24) I + h (1 + x/6) A_i
    with x = -lam_i h^2.  It is the same method, step and truncation error
    as :func:`propagate`, which agrees up to rounding.  A run of m full
    steps is one batched product by a table of the full step's powers
    R, R^2, ..., R^RADIAL_BLOCK, (B, k, m, 2, 2), 4k doubles per row and
    power, grown on first use: Phi at the end of the run is P[m-1] Phi,
    and the radial trapezoid reads the (0, 1) entries of P[:m] Phi, one
    (2m, 2) @ (2, 2) product per block, as each block's powers are
    contiguous.  A run from Phi = I is bit for bit the per-step product.
    There is no position, velocity or frame, so no chart switch, reach
    check or re-orthonormalization; the march over the grid and the radial
    trapezoid are :func:`propagate`'s.
    :class:`IntegrationError` is raised at the first grid time where Phi or
    its radial integral is non-finite (on hyperbolic space of dimension n
    near kappa t = 710 / (n - 1)).
    """
    t_grid = _checked_grid(t_grid, step)
    lam = np.asarray(lam, dtype=float)
    B, k = lam.shape
    Y = np.zeros((B, 4 * k))
    Phi = Y.reshape(B, k, 2, 2)
    Phi[:] = np.eye(2)
    step_matrices = {}
    # R, R^2, ... of the full step along axis 2, grown on first use to the
    # longest run
    powers = np.empty((B, k, 0, 2, 2))

    def step_matrix(h):
        R = step_matrices.get(h)
        if R is None:
            x = -lam * (h * h)
            alpha, beta = 1.0 + x * (0.5 + x / 24.0), h * (1.0 + x / 6.0)
            R = np.stack([alpha, beta, -lam * beta, alpha], axis=-1).reshape(B, k, 2, 2)
            step_matrices[h] = R
        return R

    def advance(h, m):
        nonlocal powers
        if h == step:
            start = powers.shape[2]
            if start < m:
                powers = np.concatenate([powers, np.empty((B, k, m - start, 2, 2))], axis=2)
            P = powers
        else:
            # a clipped step, one per grid time: no table
            P, start = np.empty((B, k, m, 2, 2)), 0
        R = step_matrix(h)
        for j in range(start, m):
            P[:, :, j] = R if j == 0 else R @ P[:, :, j - 1]
        dets = None
        if accumulate_radial:
            run = P[:, :, :m].reshape(B * k, 2 * m, 2) @ Phi.reshape(B * k, 2, 2)
            dets = np.abs(np.prod(run.reshape(B, k, m, 2, 2)[..., 0, 1], axis=1)).T
        Phi[:] = P[:, :, m - 1] @ Phi
        return dets

    def fail(rows, why):
        raise IntegrationError(f"the Jacobi system turned {why}")

    return _march(t_grid, step, Y, Phi, advance, fail, accumulate_radial=accumulate_radial)


# -- expansion of a linear map -------------------------------------------------------


def _expansion(A, singular_values):
    """The expansion of each map of the stack A from its singular values
    ``singular_values(A)`` (..., d), in any order: the product of the
    singular values >= 1 where there is one, otherwise the largest.  That is
    the largest partial product of the singular values in decreasing order.
    Non-finite entries of A are a ValueError."""
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    s = np.sort(singular_values(A), axis=-1)[..., ::-1]
    return np.max(np.cumprod(s, axis=-1), axis=-1)


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
    ex = _expansion(A, functools.partial(np.linalg.svd, compute_uv=False))
    return float(ex) if A.ndim == 2 else ex


def block_expansion(blocks):
    """:func:`expansion` of block-diagonal maps given by their 2 x 2 blocks
    (..., k, 2, 2), the layout of :func:`propagate_jacobi`'s Phi, as an
    array (...).  The map has the singular values of its blocks, and
    [[a, b], [c, d]] has s1 = (hypot(a + d, c - b) + hypot(a - d, b + c)) / 2
    and s2 = |ad - bc| / s1."""

    def singular_values(M):
        (a, b), (c, d) = np.moveaxis(M, (-2, -1), (0, 1))
        s1 = 0.5 * (np.hypot(a + d, c - b) + np.hypot(a - d, b + c))
        return np.concatenate([s1, np.abs(a * d - b * c) / s1], axis=-1)

    return _expansion(np.asarray(blocks, dtype=float), singular_values)
