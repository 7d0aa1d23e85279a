import json
import math

import numpy as np
import pytest

from geoflow import charts, cli, entropy, geodesics, manifolds
from geoflow.errors import EstimatorError, IntegrationError


def shooting_arc_count(x_emb, y_emb, T, n_dirs=16384, tol=1e-3):
    """Brute-force arc count on the unit two-sphere: scan shooting directions,
    detect passes within the position tolerance, cluster passage times."""
    x = np.asarray(x_emb) / np.linalg.norm(x_emb)
    y = np.asarray(y_emb) / np.linalg.norm(y_emb)
    # orthonormal basis of the tangent plane at x
    seed_vec = np.array([1.0, 0.0, 0.0])
    if abs(seed_vec @ x) > 0.9:
        seed_vec = np.array([0.0, 1.0, 0.0])
    w1 = seed_vec - (seed_vec @ x) * x
    w1 /= np.linalg.norm(w1)
    w2 = np.cross(x, w1)
    beta = 2.0 * np.pi * np.arange(n_dirs) / n_dirs
    W = np.outer(np.cos(beta), w1) + np.outer(np.sin(beta), w2)
    a = float(y @ x)
    b = W @ y
    # distance from y to the great circle of each direction
    planar = np.hypot(a, b)
    off_plane = np.sqrt(np.maximum(0.0, 1.0 - planar**2))
    times = []
    for i in np.nonzero(off_plane <= tol)[0]:
        t0 = math.atan2(b[i], a) % (2.0 * math.pi)
        t = t0
        while t <= T:
            times.append(t)
            t += 2.0 * math.pi
    if not times:
        return 0
    times = np.sort(times)
    clusters = 1 + int(np.sum(np.diff(times) > 0.05))
    return clusters


class TestManeSeries:
    def test_sphere_slope_near_zero(self, s2):
        series = entropy.mane_series(s2, np.linspace(2, 10, 17), samples=200, step=1e-3)
        est = entropy.slope(series, window=(2.0, 10.0))
        assert abs(est.slope) <= 0.05
        assert series.metadata["mode"] == "isotropic-single"

    def test_hyperbolic_slope_one(self, h2):
        series = entropy.mane_series(h2, np.linspace(3, 10, 15), samples=100, step=1e-3)
        est = entropy.slope(series, window=(3.0, 10.0))
        assert abs(est.slope - 1.0) <= 0.02

    def test_torus_polynomial_growth(self, torus2):
        # the expansion grows linearly, so the log slope decays ~ 1/t and
        # drops under 0.05 once the window midpoint passes ~ 20
        series = entropy.mane_series(
            torus2, np.linspace(5, 60, 23), samples=100, step=1e-2)
        est = entropy.slope(series, window=(20.0, 60.0))
        assert 0.0 < est.slope <= 0.05

    def test_requires_samples(self, elli, s2xs2):
        # where rows are sampled: the whole bundle and the Monte Carlo rule
        for model in (elli, s2xs2):
            with pytest.raises(ValueError, match="samples"):
                entropy.mane_series(model, [1.0, 2.0, 3.0, 4.0], samples=50)

    def test_space_form_ignores_samples(self, h2):
        # one row, whatever the sample count
        series = entropy.mane_series(h2, [0.1, 0.2], samples=1, step=5e-2)
        assert (series.metadata["mode"], series.metadata["evaluated"]) == ("isotropic-single", 1)

    def test_deterministic(self, s2xs2):
        grid = np.linspace(1, 4, 5)
        a = entropy.mane_series(s2xs2, grid, samples=100, seed=3, step=1e-2)
        b = entropy.mane_series(s2xs2, grid, samples=100, seed=3, step=1e-2)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.stderr, b.stderr)

    def test_doubling_within_two_stderr(self, s2xs2):
        grid = np.linspace(2, 6, 5)
        small = entropy.mane_series(s2xs2, grid, samples=100, seed=9, step=1e-2)
        big = entropy.mane_series(s2xs2, grid, samples=200, seed=9, step=1e-2)
        gap = np.abs(small.values - big.values)
        allowance = 2.0 * np.maximum(small.stderr, big.stderr)
        assert np.all(gap <= allowance + 1e-12)

    def test_isotropic_fast_path_matches_full_sampling(self, s2, varying):
        # pinning the evaluation at one state is only legitimate because the
        # integrand is constant over the bundle; spot-check against a clone
        # whose curvature factor is not marked constant
        grid = np.array([1.0, 2.0, 3.0, 4.0])
        fast = entropy.mane_series(s2, grid, samples=100, seed=1, step=1e-2)
        full_model = varying(s2)
        assert full_model.isotropic is False and full_model.homogeneous is False
        full = entropy.mane_series(full_model, grid, samples=100, seed=1, step=1e-2)
        assert full.metadata["mode"] == "full-bundle"
        assert np.allclose(fast.values, full.values, atol=1e-6)

    def test_metric_rescaling_scales_slope(self):
        # g -> k g on curvature -1 gives curvature -1/k and slope 1/sqrt(k)
        grid = np.linspace(3, 9, 13)
        base = entropy.slope(entropy.mane_series(
            manifolds.hyperbolic(2, 1.0), grid, 100, step=1e-2))
        quarter = entropy.slope(entropy.mane_series(
            manifolds.hyperbolic(2, 4.0), grid, 100, step=1e-2))
        # k = 1/4: slopes 1 and 2
        assert abs(quarter.slope - 2.0 * base.slope) <= \
            2.0 * (base.halfwidth + quarter.halfwidth) + 0.02

    def test_csv_export(self, s2):
        series = entropy.mane_series(s2, [1.0, 2.0, 3.0, 4.0], samples=100, step=1e-2)
        body, lines = series.to_report()
        assert lines[0] == "t,y,stderr"
        assert len(lines) == 5
        assert lines[1] == f"{body['t'][0]},{body['y'][0]},{body['stderr'][0]}"


class TestSlope:
    def _series(self, t, y, se=None):
        se = np.zeros_like(y) if se is None else se
        return entropy.GrowthSeries(t, y, se, 100, 0, "mane-integral")

    def test_exact_line(self):
        t = np.linspace(0, 10, 11)
        est = entropy.slope(self._series(t, 2.0 * t), window=(0, 10))
        assert est.slope == 2.0 and est.halfwidth == 0.0

    def test_noisy_line_within_three_sigma(self):
        rng = np.random.default_rng(42)
        t = np.linspace(0, 10, 21)
        y = 2.0 * t + rng.normal(0.0, 0.01, t.size)
        est = entropy.slope(self._series(t, y), window=(0, 10))
        assert abs(est.slope - 2.0) <= est.halfwidth
        assert est.halfwidth > 0.0

    def test_single_point_window_rejected(self):
        t = np.linspace(0, 10, 11)
        with pytest.raises(ValueError):
            entropy.slope(self._series(t, 2.0 * t), window=(9.5, 10.0))

    def test_default_window_is_last_two_thirds(self):
        t = np.linspace(1, 9, 17)
        est = entropy.slope(self._series(t, t.copy()))
        assert est.window == (3.0, 9.0)

    def test_bad_window(self):
        t = np.linspace(0, 10, 11)
        with pytest.raises(ValueError):
            entropy.slope(self._series(t, t.copy()), window=(5.0, 5.0))


class TestCounting:
    def test_sphere_hemiball(self, s2):
        [val] = entropy.counting_series(
            s2, np.array([np.pi / 2, 0.3]), [np.pi], angular_samples=16,
            step=1e-3).metadata["integrals"]
        assert abs(val - 4.0 * np.pi) / (4.0 * np.pi) < 0.01

    def test_torus_disk_area(self, torus2):
        [val] = entropy.counting_series(
            torus2, np.zeros(2), [1.0], angular_samples=8, step=1e-3).metadata["integrals"]
        assert abs(val - np.pi) / np.pi < 0.01

    def test_small_radius_quadratic(self, torus2):
        [val] = entropy.counting_series(
            torus2, np.zeros(2), [1e-2], angular_samples=8, step=1e-4).metadata["integrals"]
        assert val == pytest.approx(np.pi * 1e-4, rel=1e-4)

    def test_nondecreasing_in_T(self, s2):
        grid = np.linspace(0.5, 12.0, 14)
        series = entropy.counting_series(
            s2, np.array([np.pi / 2, 0.3]), grid, angular_samples=8, step=5e-3)
        vals = np.array(series.metadata["integrals"])
        assert np.all(np.diff(vals) >= -1e-12)

    def test_hyperbolic_growth_slope_one(self, h2):
        est = entropy.slope(entropy.counting_series(
            h2, h2.base_x, np.linspace(1.0, 10.0, 13), angular_samples=8, step=5e-3))
        assert abs(est.slope - 1.0) <= 0.05

    def test_hyperbolic_radial_overflow_is_an_error(self):
        # every direction's |det A| = sinh(T)^2 overflows near T = 355 in
        # dimension 3, so every direction fails
        h3 = manifolds.hyperbolic(3)
        with pytest.raises(IntegrationError, match="non-finite"):
            entropy.counting_series(h3, h3.base_x, [400.0], angular_samples=4, step=0.1)

    def test_rejects_nonpositive_T(self, s2):
        with pytest.raises(ValueError):
            entropy.counting_series(s2, s2.base_x, [0.0])

    def test_product_monte_carlo_directions(self, s2xs2):
        # n = 4 uses seeded sphere sampling; small ball volume check:
        # vol of a ball of radius T in R^4 is pi^2 T^4 / 2
        T = 0.5
        [val] = entropy.counting_series(
            s2xs2, s2xs2.base_x, [T], angular_samples=256, step=1e-2,
            seed=4).metadata["integrals"]
        expect = math.pi**2 * T**4 / 2.0
        assert abs(val - expect) / expect < 0.05


def test_homogeneous_count_takes_one_stage_geometry_call(monkeypatch, s2, h2, torus2, elli):
    # a space form's count integrates the Jacobi system alone, from the
    # constant Jacobi matrix of one stage_geometry call; the ellipsoid's
    # takes its geometry from one stage_geometry call per RK4 stage.  A
    # binary step lands on the grid exactly: 64 steps
    calls = []
    stage_geometry = manifolds.ManifoldModel.stage_geometry

    def spy(model, *args, **kwargs):
        calls.append(model.kind)
        return stage_geometry(model, *args, **kwargs)

    monkeypatch.setattr(manifolds.ManifoldModel, "stage_geometry", spy)
    homogeneous = (s2, h2, torus2, manifolds.sphere(3))
    for model in homogeneous:
        entropy.counting_series(model, model.base_x, [0.5, 1.0], angular_samples=4, step=1 / 64)
    assert calls == [model.kind for model in homogeneous]
    calls.clear()
    entropy.counting_series(elli, elli.base_x, [0.5, 1.0], angular_samples=4, step=1 / 64)
    assert calls == ["ellipsoid"] * 4 * 64


def spy_on(monkeypatch, module, name, record):
    """Replace ``module.name`` by a wrapper that passes each call's args and
    kwargs to ``record`` before calling the original."""
    original = getattr(module, name)

    def wrapped(*args, **kwargs):
        record(args, kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)


@pytest.mark.filterwarnings("ignore:direction sampling not converged")
def test_homogeneous_count_steps_only_the_jacobi_system(monkeypatch, s2, s2xs2):
    # a homogeneous count calls neither propagate nor _rk4_step: it advances
    # Phi by the step matrix alone, one row on a space form whatever the
    # direction count, one row per direction on a sphere product
    calls, rows = [], []
    spy_on(monkeypatch, entropy, "propagate", lambda args, kwargs: calls.append("propagate"))
    spy_on(monkeypatch, geodesics, "_rk4_step", lambda args, kwargs: calls.append("_rk4_step"))
    spy_on(monkeypatch, entropy, "propagate_jacobi",
           lambda args, kwargs: rows.append(len(args[0])))
    for model in (s2, s2xs2):
        entropy.counting_series(model, model.base_x, [0.5, 1.0], angular_samples=16, step=1 / 64)
    assert calls == [] and rows == [1, 16]


def test_space_form_count_matches_propagate(monkeypatch):
    # within 1e-12 relative (the step matrix and propagate's RK4 stages
    # round differently), with re-orthonormalization out of propagate's
    # reach: the rule's one row of S^3, propagated as a geodesic, is the count
    monkeypatch.setattr(geodesics, "ORTHO_EVERY", 10**9)
    s3, grid = manifolds.sphere(3), [0.5, 1.0, 1.5]
    dirs, weights, rule = entropy._directions_at(s3, s3.base_x, 16, 5)
    assert (rule, len(dirs)) == ("isotropic-single", 1)
    res = geodesics.propagate(s3, manifolds.TangentState(0, s3.base_x[None], dirs), grid,
                              step=1e-2, accumulate_radial=True)
    series = entropy.counting_series(s3, s3.base_x, grid, angular_samples=16, step=1e-2,
                                     seed=5)
    np.testing.assert_allclose(series.metadata["integrals"], res.radial @ weights, rtol=1e-12,
                               atol=0.0)


@pytest.mark.parametrize("spec", ["sphere:n=2", "sphere:n=3", "hyperbolic:n=3", "torus:n=2"])
def test_space_form_count_is_one_row(spec):
    # bitwise: one Jacobi row times |S^{n-1}|, whatever the direction count
    # and the seed
    model, grid = manifolds.parse_manifold(spec), [0.5, 1.0, 1.5]
    lam = np.full((1, model.dim - 1), model.factors[0].k_max)
    _, radial = geodesics.propagate_jacobi(lam, grid, step=1 / 64, accumulate_radial=True)
    want = (radial[:, 0] * entropy._unit_sphere_area(model.dim)).tolist()
    for samples, seed in ((2, 0), (16, 5), (48, 123)):
        meta = entropy.counting_series(model, model.base_x, grid, angular_samples=samples,
                                       step=1 / 64, seed=seed).metadata
        assert meta["integrals"] == want, (samples, seed)
        assert (meta["rule"], meta["directions"]) == ("isotropic-single", 1)


def march_trapezoid(f, t_grid, step):
    """The trapezoid of f over the step sequence of ``geodesics._march`` (full
    steps, the last one before each grid time cut onto it), at the grid
    times; f maps times (m,) to values (m, r)."""
    t, nodes, ends = 0.0, [0.0], []
    for target in t_grid:
        while t < target - 1e-12:
            h = min(step, target - t)
            t += h
            nodes.append(t)
        t = float(target)
        ends.append(len(nodes) - 1)
    nodes = np.array(nodes)
    y = f(nodes)
    steps = 0.5 * np.diff(nodes)[:, None] * (y[:-1] + y[1:])
    acc = np.concatenate([np.zeros((1,) + y.shape[1:]), np.cumsum(steps, axis=0)])
    return acc[ends]


def test_sphere_product_count_matches_the_closed_form(monkeypatch, s2xs2):
    # on S^2 x S^2 the row whose direction makes the angle a with the first
    # factor (|v_1| = cos a) has |det A_v(rho)| =
    # rho |sin(rho cos a) sin(rho sin a)| / (cos a sin a).  Its trapezoid over
    # _march's own steps leaves only RK4's error in Phi; tolerance, fixed
    # before the first run: 1e-8 relative, per row and for the count
    x, grid, step = s2xs2.base_x, cli._default_grid(3.0, points=12), 2e-2
    seen = []
    propagate_jacobi = geodesics.propagate_jacobi

    def spy(*args, **kwargs):
        out = propagate_jacobi(*args, **kwargs)
        seen.append(out[1])
        return out

    monkeypatch.setattr(entropy, "propagate_jacobi", spy)
    series = entropy.counting_series(s2xs2, x, grid, angular_samples=48, step=step, seed=7)
    dirs, weights, rule = entropy._directions_at(s2xs2, x, 48, 7)
    assert (rule, len(dirs)) == ("monte-carlo", 48)
    first = np.zeros_like(dirs)
    first[:, s2xs2.factors[0].coords] = dirs[:, s2xs2.factors[0].coords]
    cos_a = s2xs2.norm(np.broadcast_to(x, dirs.shape), first)
    sin_a = s2xs2.norm(np.broadcast_to(x, dirs.shape), dirs - first)

    def det(rho):
        rho = rho[:, None]
        return rho * np.abs(np.sin(rho * cos_a) * np.sin(rho * sin_a)) / (cos_a * sin_a)

    want = march_trapezoid(det, grid, step)
    np.testing.assert_allclose(series.metadata["integrals"], want @ weights, rtol=1e-8, atol=0.0)
    assert len(seen) == 1
    np.testing.assert_allclose(seen[0], want, rtol=1e-8, atol=0.0)


@pytest.mark.filterwarnings("ignore:direction sampling not converged")
@pytest.mark.parametrize("q", [2, 3])
def test_product_rows_are_the_sampled_bundle(q, monkeypatch):
    # bitwise: on S^2 x S^q the rows of sample_sphere_bundle, which the
    # benchmark's closed-form reference reads, are the states both the Mane
    # average and the count build their Jacobi matrices at; neither calls
    # propagate
    model, grid = manifolds.sphere_product(2, q), [0.1, 0.2]
    seen = []
    propagate = geodesics.propagate
    curvature_frame_matrix = manifolds.ManifoldModel.curvature_frame_matrix

    def spy(model, states, *args, **kwargs):
        seen.append(manifolds.as_batch(states))
        return propagate(model, states, *args, **kwargs)

    def spy_jacobi(model, x, v, frame, chart_id=0):
        seen.append(manifolds.as_batch(manifolds.TangentState(chart_id, x, v)))
        return curvature_frame_matrix(model, x, v, frame, chart_id)

    monkeypatch.setattr(entropy, "propagate", spy)
    monkeypatch.setattr(manifolds.ManifoldModel, "curvature_frame_matrix", spy_jacobi)
    mane = entropy.mane_series(model, grid, 100, seed=3, step=5e-2)
    count = entropy.counting_series(model, model.base_x, grid, angular_samples=100,
                                    step=5e-2, seed=3)
    assert (mane.metadata["mode"], count.metadata["rule"]) == ("monte-carlo", "monte-carlo")
    assert count.metadata["directions"] == 100
    want = model.sample_sphere_bundle(100, seed=3)
    assert len(seen) == 2
    for got in seen:
        assert got.chart_id.tolist() == [0] * 100
        assert np.array_equal(got.x, want.x) and np.array_equal(got.v, want.v)


def product_expansion(model, dirs, t):
    """Closed-form expansion (G, B) at the times t (G,) of the rows ``dirs``
    at the base point of S^p x S^q with unit radii.  With |v_1| = cos a, K
    in a parallel frame has the eigenvalues cos^2 a (p - 1 times),
    sin^2 a (q - 1 times) and 0; an eigenvalue w^2 gives the block
    [[cos wt, sinc], [-w^2 sinc, cos wt]], sinc = sin(wt) / w (t at w = 0),
    with singular values s and 1 / s, and the expansion is the product of
    the blocks' larger singular values."""
    x = np.broadcast_to(model.base_x, dirs.shape)
    first = np.zeros_like(dirs)
    first[:, model.factors[0].coords] = dirs[:, model.factors[0].coords]
    cos2 = model.norm(x, first) ** 2
    t = np.asarray(t, dtype=float)[:, None]
    out = np.ones((len(t), len(dirs)))
    for w2, mult in ((cos2, model.factors[0].dim - 1), (1.0 - cos2, model.factors[1].dim - 1),
                     (np.zeros_like(cos2), 1)):
        w = np.sqrt(w2)
        cos, sinc = np.cos(w * t), t * np.sinc(w * t / np.pi)
        block = np.stack([np.stack([cos, sinc], -1), np.stack([-w2 * sinc, cos], -1)], -2)
        out *= np.linalg.svd(block, compute_uv=False)[..., 0] ** mult
    return out


def test_sphere_product_mane_matches_the_closed_form(s2xs2):
    # the Mane average on S^2 x S^2 at its own rows, the sampled bundle,
    # against the closed form; tolerance, fixed before the first run: 2e-10
    # absolute on the log mean
    grid = cli._default_grid(1.0)
    series = entropy.mane_series(s2xs2, grid, 100, seed=3, step=2e-2)
    want = np.log(product_expansion(s2xs2, s2xs2.sample_sphere_bundle(100, seed=3).v,
                                    grid).mean(axis=1))
    assert np.abs(series.values - want).max() <= 2e-10


@pytest.mark.parametrize("spec", ["sphereprod:p=2,q=2", "sphereprod:p=2,q=3,r1=1,r2=2"])
def test_sphere_product_mane_matches_propagate(spec):
    # the step matrix against propagate's geodesic, frame and Phi at the same
    # rows, whose integration error reaches K; tolerance, fixed before the
    # first run: 1e-8 absolute on the log mean
    model, grid = manifolds.parse_manifold(spec), cli._default_grid(1.0)
    series = entropy.mane_series(model, grid, 100, seed=3, step=2e-2)
    res = geodesics.propagate(model, model.sample_sphere_bundle(100, seed=3), grid, step=2e-2)
    want = np.log(geodesics.expansion(res.phi).mean(axis=1))
    assert np.abs(series.values - want).max() <= 1e-8


def test_sphere_product_mane_steps_its_rows(monkeypatch, capsys, s2xs2):
    # a sphere product's Mane average calls neither propagate nor _rk4_step:
    # its 100 rows go to propagate_jacobi, without the radial integral.  A
    # space-form estimate still integrates its geodesic
    calls, rows = [], []
    spy_on(monkeypatch, entropy, "propagate", lambda args, kwargs: calls.append("propagate"))
    spy_on(monkeypatch, geodesics, "_rk4_step", lambda args, kwargs: calls.append("_rk4_step"))
    spy_on(monkeypatch, entropy, "propagate_jacobi",
           lambda args, kwargs: rows.append((len(args[0]), kwargs["accumulate_radial"])))
    entropy.mane_series(s2xs2, [0.5, 1.0], 100, seed=3, step=1 / 64)
    assert calls == [] and rows == [(100, False)]
    assert cli.main(["estimate", "hyperbolic:n=2", "--t-max", "0.1", "--format", "json"]) == 0
    capsys.readouterr()
    assert calls[0] == "propagate" and set(calls[1:]) == {"_rk4_step"}
    assert rows == [(100, False)]


@pytest.mark.filterwarnings("ignore:invalid value encountered in det:RuntimeWarning")
class TestFailedRows:
    """Rows made non-finite are flagged by ``propagate`` and left out of both
    estimators; more than 1% of them is an error (CLI exit 3).  The poisoned
    rows stay non-finite after parking, hence the det warnings.  A sphere
    product's estimators integrate no geodesic, so both run on a
    non-constant copy of S^2 x S^2 and, through the CLI, on the ellipsoid."""

    GRID = np.linspace(0.2, 1.0, 5)

    @pytest.fixture
    def poison(self, monkeypatch):
        # the Christoffel symbols of every diagonal chart, the sphere
        # product's included, come from diagonal_christoffel, whether a
        # stage asks the chart for them or takes them from its diagonal;
        # an ellipsoid stage takes them from EllipsoidChart.geometry
        def install(rows, batch):
            christoffel = charts.diagonal_christoffel
            geometry = charts.EllipsoidChart.geometry

            def poisoned(d, P):
                gam = np.array(christoffel(d, P))
                if np.ndim(d) == 2 and len(d) == batch:
                    gam[rows] = np.nan
                return gam

            def poisoned_geometry(chart, x):
                gam, kappa = geometry(chart, x)
                if np.ndim(x) == 2 and len(x) == batch:
                    gam = np.array(gam)
                    gam[rows] = np.nan
                return gam, kappa

            monkeypatch.setattr(charts, "diagonal_christoffel", poisoned)
            monkeypatch.setattr(charts.EllipsoidChart, "geometry", poisoned_geometry)
        return install

    def test_mane_leaves_out_failed_rows(self, s2xs2, varying, poison, caplog):
        model = varying(s2xs2)
        states = model.sample_sphere_bundle(100, seed=3)
        clean = geodesics.propagate(model, states, self.GRID, step=2e-2)
        poison([17], 100)
        with caplog.at_level("WARNING", logger=geodesics.log.name):
            res = geodesics.propagate(model, states, self.GRID, step=2e-2)
        assert np.flatnonzero(res.failed).tolist() == [17]
        # the row turns non-finite again after parking, at every grid time:
        # it fails and is logged once, and keeps its first reason
        assert [r.getMessage().split(" in chart")[0] for r in caplog.records] == [
            "trajectory 17 failed (non-finite)"]
        assert res.reason[17] == "non-finite"
        series = entropy.mane_series(model, self.GRID, 100, seed=3, step=2e-2)
        assert (series.metadata["evaluated"], series.metadata["failed"]) == (99, 1)
        ex = geodesics.expansion(np.delete(clean.phi, 17, axis=1))
        mean = ex.mean(axis=1)
        np.testing.assert_allclose(series.values, np.log(mean), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(series.stderr, ex.std(axis=1) / np.sqrt(99) / mean,
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.filterwarnings("ignore:direction sampling not converged")
    def test_counting_leaves_out_failed_rows(self, s2xs2, varying, poison):
        model = varying(s2xs2)
        x = model.base_x
        dirs, weights, rule = entropy._directions_at(model, x, 128, 4)
        assert rule == "monte-carlo"
        states = [model.unit_tangent(x, d) for d in dirs]
        clean = geodesics.propagate(model, states, self.GRID, step=2e-2,
                                    accumulate_radial=True)
        poison([5], 128)
        series = entropy.counting_series(model, x, self.GRID, angular_samples=128,
                                         step=2e-2, seed=4)
        assert series.metadata["failed"] == 1
        radial = np.delete(clean.radial, 5, axis=1)
        totals = radial @ np.delete(weights, 5)
        np.testing.assert_allclose(series.metadata["integrals"], totals, rtol=1e-12, atol=0.0)
        # the Monte Carlo error uses the kept directions only
        area = 2.0 * np.pi**2
        rel = area * np.std(radial[-1]) / np.sqrt(127) / totals[-1]
        np.testing.assert_allclose(series.stderr, rel, rtol=1e-12, atol=0.0)

    def test_more_than_one_percent_is_an_error(self, s2xs2, varying, poison):
        poison([3, 40], 100)
        with pytest.raises(EstimatorError) as err:
            entropy.mane_series(varying(s2xs2), self.GRID, 100, seed=3, step=2e-2)
        assert err.value.failure_census == {"failed": 2, "total": 100}
        poison([3, 40], 128)
        with pytest.raises(EstimatorError) as err:
            entropy.counting_series(varying(s2xs2), s2xs2.base_x, self.GRID,
                                    angular_samples=128, step=2e-2, seed=4)
        assert err.value.failure_census == {"failed": 2, "total": 128}

    def test_cli_exit_3(self, poison, capsys):
        poison([3, 40], 100)
        code = cli.main(["estimate", "ellipsoid:a=1,b=1,c=2", "--samples", "100",
                         "--t-max", "1", "--step", "2e-2"])
        assert code == 3
        assert capsys.readouterr().err.startswith("numeric failure: 2/100 trajectories failed")

    def test_cli_count_reports_failed_directions(self, poison, capsys):
        argv = ["count", "ellipsoid:a=1,b=1,c=2", "--samples", "128", "--t-max", "1",
                "--step", "2e-2", "--seed", "4", "--format", "json"]
        # poisoning no rows is the clean run
        for rows, failed in (([], 0), ([5], 1)):
            poison(rows, 128)
            assert cli.main(argv) == 0
            series = json.loads(capsys.readouterr().out)["series"]
            assert (series["failed"], series["rule"]) == (failed, "angles")
            assert series["directions"] == 128
        assert cli.main(argv[:-2]) == 0
        assert "directions 128 (angles), 1 failed" in capsys.readouterr().out
        # a space form integrates the rule's one row, whatever --samples asks
        argv = ["count", "sphere:n=3", "--samples", "16", "--t-max", "1", "--step", "2e-2"]
        assert cli.main(argv + ["--format", "json"]) == 0
        series = json.loads(capsys.readouterr().out)["series"]
        assert (series["directions"], series["rule"], series["failed"]) == (
            1, "isotropic-single", 0)
        assert cli.main(argv) == 0
        assert "directions 1 (isotropic-single), 0 failed" in capsys.readouterr().out


class TestSphereArcs:
    def test_examples(self):
        assert entropy.sphere_arc_count(np.pi / 2, 2 * np.pi) == 2
        assert entropy.sphere_arc_count(np.pi / 2, 4 * np.pi) == 4
        assert entropy.sphere_arc_count(1.0, 0.5) == 0

    def test_domain(self):
        with pytest.raises(ValueError):
            entropy.sphere_arc_count(0.0, 1.0)
        with pytest.raises(ValueError):
            entropy.sphere_arc_count(np.pi, 1.0)

    def test_array_matches_scalar_calls(self):
        # the oracle's midpoints, counted in one call and one at a time
        d = (np.arange(4000) + 0.5) * np.pi / 4000
        for T in (0.5, np.pi, 7.0, 20.0):
            counts = entropy.sphere_arc_count(d, T)
            assert all(type(entropy.sphere_arc_count(di, T)) is int for di in d[::500])
            np.testing.assert_array_equal(counts, [entropy.sphere_arc_count(di, T) for di in d])
        with pytest.raises(ValueError):
            entropy.sphere_arc_count(np.append(d, np.pi), 1.0)

    def test_shooting_oracle_matches(self):
        # brute-force shooting over initial directions, matched within 1e-3
        for d in (0.7, np.pi / 2, 2.2):
            x = np.array([0.0, 0.0, 1.0])
            y = np.array([np.sin(d), 0.0, np.cos(d)])
            for T in (0.5, 3.0, 2 * np.pi, 11.0, 4 * np.pi):
                assert shooting_arc_count(x, y, T) == entropy.sphere_arc_count(d, T), (d, T)

    def test_oracle_integral_matches_counting(self, s2):
        for T in (2.0, np.pi, 5.0):
            [direct] = entropy.counting_series(
                s2, np.array([np.pi / 2, 0.1]), [T], angular_samples=8,
                step=2e-3).metadata["integrals"]
            oracle = entropy.sphere_counting_oracle(T)
            assert abs(direct - oracle) / oracle < 0.01


class TestLowerBoundFromRadius:
    def test_inverse_of_dim4_threshold(self):
        val = entropy.entropy_lower_from_radius(4, 1.0, math.exp(-math.pi * math.sqrt(3)))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_unit_radius_gives_zero(self):
        assert entropy.entropy_lower_from_radius(4, 1.0, 1.0) == 0.0

    def test_elliptic_flagged(self):
        with pytest.warns(UserWarning):
            assert entropy.entropy_lower_from_radius(4, 1.0, 2.0) == 0.0

    def test_surface_flagged_but_computes(self):
        with pytest.warns(UserWarning):
            val = entropy.entropy_lower_from_radius(2, 1.0, 0.5)
        assert val == pytest.approx(-math.log(0.5) / math.pi)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            entropy.entropy_lower_from_radius(4, 1.0, 0.0)
        with pytest.raises(ValueError):
            entropy.entropy_lower_from_radius(4, 0.0, 0.5)
