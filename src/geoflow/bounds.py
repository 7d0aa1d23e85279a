"""Short-time expansion of the linearized geodesic flow and entropy bounds.

The generator of the Jacobi system at a unit tangent state, written in the
horizontal/vertical splitting, is the block matrix [[0, I], [-K, 0]] with K
the curvature operator.  Its symmetrization has eigenvalues +-(1 - lambda_i)
with eigenvectors (e_i, +-e_i)/sqrt(2), which gives a closed first-order
formula for the expansion of the time-delta flow differential and, in the
limit, entropy upper bounds in terms of the curvature extremes alone.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DeltaTooLargeError, IntegrationError
from .geodesics import expansion, propagate
from .manifolds import TangentState


def generator_matrix(K):
    """Assemble [[0, I], [-K, 0]] from a curvature-operator matrix."""
    K = np.asarray(K, dtype=float)
    k = K.shape[-1]
    out = np.zeros(K.shape[:-2] + (2 * k, 2 * k))
    idx = np.arange(k)
    out[..., idx, idx + k] = 1.0
    out[..., k:, :k] = -K
    return out


def first_order_expansion(model, theta, delta):
    """Product formula for the expansion of the time-delta flow differential.

    Returns prod_i (1 + (delta/2)|1 - lambda_i|); when every lambda_i <= 1
    this is the product of the expanding eigenvalues 1 + (delta/2)(1 -
    lambda_i) of the symmetrized generator, and the absolute value extends it
    to eigenvalues above 1, whose expanding direction is (e_i, -e_i).
    """
    return float(_first_order(model.curvature_operator(theta).eigenvalues, delta))


def _first_order(lam, delta):
    """prod_i (1 + (delta/2)|1 - lambda_i|) over the last axis of the
    eigenvalues ``lam``; raises if any factor would not be positive."""
    if delta < 0.0:
        raise ValueError("delta must be non-negative")
    if delta > 0.0 and 0.5 * delta * float(np.max(np.abs(1.0 - lam))) >= 1.0:
        raise DeltaTooLargeError(
            "delta too large: a first-order factor 1 + (delta/2)(1 - lambda) "
            "would not be positive")
    return np.prod(1.0 + 0.5 * delta * np.abs(1.0 - lam), axis=-1)


def symmetric_sqrt(mat):
    """Square root of a symmetric positive-definite matrix by eigendecomposition."""
    w, V = np.linalg.eigh(np.asarray(mat, dtype=float))
    if np.any(w <= 0.0):
        raise ValueError("matrix is not positive definite")
    return (V * np.sqrt(w)) @ V.T


def _jacobi_step(delta):
    """RK4 step of a Jacobi run to time delta: 1e-3, or 20 steps if fewer."""
    return min(1e-3, delta / 20.0)


def first_order_residual(model, theta, delta, step=None):
    """Operator-norm distance between the polar factor of the time-delta flow
    differential and its first-order curvature form.

    Computes || (Phi(delta)^T Phi(delta))^(1/2) - (I + (delta/2)(R + R^T)) ||_2
    with both operators written in the same initial parallel frame.  The value
    decays quadratically in delta.
    """
    if delta < 0.0:
        raise ValueError("delta must be non-negative")
    if delta == 0.0:
        return 0.0
    res = propagate(model, theta, [delta], step=_jacobi_step(delta) if step is None else step)
    phi = res.phi[0, 0]
    K = model.curvature_frame_matrix(theta.x, theta.v, res.frames0[0], theta.chart_id)
    gen = generator_matrix(K)
    first_order = np.eye(gen.shape[0]) + 0.5 * delta * (gen + gen.T)
    polar = symmetric_sqrt(phi.T @ phi)
    return float(np.linalg.norm(polar - first_order, ord=2))


def expansion_defect_constants(model, thetas, deltas=(1e-2, 5e-3, 2.5e-3)):
    """Estimate C in |expansion - first order| <= C delta^2 across states.

    Returns per-delta constants (max over the states) plus a flag when the
    constant exceeds 100, which marks models where the quadratic remainder is
    badly conditioned.  All states are integrated to each delta in one batch;
    :class:`IntegrationError` is raised if any of them fails, with the failed
    states' last states.  The first-order expansions of
    :func:`first_order_expansion` come from one batched ``curvature_operator``.
    """
    ids, x, v = (np.array([getattr(theta, a) for theta in thetas]) for a in ("chart_id", "x", "v"))
    lam = model.curvature_operator(TangentState(ids, x, v)).eigenvalues
    consts = []
    for delta in deltas:
        res = propagate(model, thetas, [delta], step=_jacobi_step(delta))
        if res.failed.any():
            raise IntegrationError(
                f"{int(res.failed.sum())} of {len(res.failed)} states failed "
                f"before delta = {delta:g}",
                last_state=tuple(a[res.failed] for a in res.lost))
        defects = np.abs(expansion(res.phi[0]) - _first_order(lam, delta)) / delta**2
        consts.append(float(np.max(defects, initial=0.0)))
    return {
        "deltas": list(deltas),
        "constants": consts,
        "flagged": max(consts) > 100.0,
    }


# -- closed-form entropy bounds -----------------------------------------------------


def curvature_entropy_bound(n, k_max, min_ricci):
    """Entropy upper bound (n-1) sqrt(K_max)/2 - min_ricci / (2 sqrt(K_max)).

    Requires a positive upper bound K_max for the sectional curvature; for
    non-positively curved metrics use :func:`nonpositive_entropy_bound`.
    """
    if k_max <= 0.0:
        raise ValueError(
            "k_max must be positive; for non-positive curvature use "
            "nonpositive_entropy_bound")
    s = math.sqrt(k_max)
    return (n - 1) * s / 2.0 - min_ricci / (2.0 * s)


def nonpositive_entropy_bound(n, min_ricci):
    """Entropy upper bound sqrt(-(n-1) min_ricci), optimal rescaling of the
    curvature bound when the sectional curvature has no positive part."""
    if min_ricci > 0.0:
        raise ValueError("min_ricci must be <= 0 for the non-positive-curvature bound")
    return math.sqrt(-(n - 1) * min_ricci + 0.0)


def manning_entropy_bound(n, k):
    """Manning's bound (n-1) sqrt(k) from |K| <= k; weaker than the
    two-sided curvature bound whenever min_ricci > -(n-1)k."""
    if k <= 0.0:
        raise ValueError("k must be positive")
    return (n - 1) * math.sqrt(k)


def grossman_counting_rate(n):
    """Grossman's growth-rate bound 2(n-1)/pi * log(2 + pi/2) for the averaged
    arc count under 0 <= K <= 1; about 0.8103 per unit of n-1."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return 2.0 * (n - 1) / math.pi * math.log(2.0 + math.pi / 2.0)


def closed_form_bounds(n, k_max, k_min, min_ricci):
    """The closed-form bounds of dimension n and the curvature extremes in
    report order, None where one does not apply: ``theorem_b`` needs k_max > 0,
    ``manning`` k = max(|k_max|, |k_min|) > 0 and ``nonpositive`` min_ricci <= 0."""
    k = max(abs(k_max), abs(k_min))
    return {
        "theorem_b": curvature_entropy_bound(n, k_max, min_ricci) if k_max > 0 else None,
        "manning": manning_entropy_bound(n, k) if k > 0 else None,
        "grossman": grossman_counting_rate(n),
        "nonpositive": nonpositive_entropy_bound(n, min_ricci) if min_ricci <= 0 else None,
    }


def checked_bound(n, k_max, k_min, min_ricci):
    """(name, value) of the bound a growth rate is checked against:
    ``theorem_b`` where k_max > 0, else ``nonpositive``."""
    name = "theorem_b" if k_max > 0 else "nonpositive"
    return name, closed_form_bounds(n, k_max, k_min, min_ricci)[name]
