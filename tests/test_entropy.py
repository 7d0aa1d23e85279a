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

    def test_requires_samples(self, s2):
        with pytest.raises(ValueError):
            entropy.mane_series(s2, [1.0, 2.0, 3.0, 4.0], samples=50)

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


def test_space_form_counts_take_no_stage_geometry(monkeypatch, s2, h2, torus2, elli):
    # a space form's count integrates the Jacobi system alone, from its
    # constant Jacobi matrix; the ellipsoid's takes its geometry from one
    # stage_geometry call per RK4 stage.  A binary step lands on the grid
    # exactly: 64 steps
    calls = []
    stage_geometry = manifolds.ManifoldModel.stage_geometry

    def spy(model, *args, **kwargs):
        calls.append(model.kind)
        return stage_geometry(model, *args, **kwargs)

    monkeypatch.setattr(manifolds.ManifoldModel, "stage_geometry", spy)
    for model in (s2, h2, torus2, manifolds.sphere(3)):
        entropy.counting_series(model, model.base_x, [0.5, 1.0], angular_samples=4, step=1 / 64)
    assert calls == []
    entropy.counting_series(elli, elli.base_x, [0.5, 1.0], angular_samples=4, step=1 / 64)
    assert calls == ["ellipsoid"] * 4 * 64


def test_space_form_count_steps_one_row(monkeypatch, s2):
    # the 16 directions share one Jacobi row: each RK4 step advances one row
    rows = []
    rk4_step = geodesics._rk4_step

    def spy(rhs, at, Y, h, stages):
        rows.append(len(Y))
        return rk4_step(rhs, at, Y, h, stages)

    monkeypatch.setattr(geodesics, "_rk4_step", spy)
    entropy.counting_series(s2, s2.base_x, [0.5, 1.0], angular_samples=16, step=1 / 64)
    assert rows == [1] * 64


def test_space_form_count_matches_propagate(monkeypatch):
    # bitwise, with re-orthonormalization out of propagate's reach: the
    # rule's one row of S^3, propagated as a geodesic, is the count
    monkeypatch.setattr(geodesics, "ORTHO_EVERY", 10**9)
    s3, grid = manifolds.sphere(3), [0.5, 1.0, 1.5]
    dirs, weights, rule = entropy._directions_at(s3, s3.base_x, 16, 5)
    assert (rule, len(dirs)) == ("isotropic-single", 1)
    res = geodesics.propagate(s3, manifolds.TangentState(0, s3.base_x[None], dirs), grid,
                              step=1e-2, accumulate_radial=True)
    series = entropy.counting_series(s3, s3.base_x, grid, angular_samples=16, step=1e-2,
                                     seed=5)
    np.testing.assert_array_equal(series.metadata["integrals"], res.radial @ weights)


@pytest.mark.parametrize("spec", ["sphere:n=2", "sphere:n=3", "hyperbolic:n=3", "torus:n=2"])
def test_space_form_count_is_one_row(spec):
    # bitwise: one Jacobi row times |S^{n-1}|, whatever the direction count
    # and the seed
    model, grid = manifolds.parse_manifold(spec), [0.5, 1.0, 1.5]
    _, radial = geodesics.propagate_jacobi(model, grid, step=1 / 64)
    want = (radial * entropy._unit_sphere_area(model.dim)).tolist()
    for samples, seed in ((2, 0), (16, 5), (48, 123)):
        meta = entropy.counting_series(model, model.base_x, grid, angular_samples=samples,
                                       step=1 / 64, seed=seed).metadata
        assert meta["integrals"] == want, (samples, seed)
        assert (meta["rule"], meta["directions"]) == ("isotropic-single", 1)


@pytest.mark.filterwarnings("ignore:direction sampling not converged")
@pytest.mark.parametrize("q", [2, 3])
def test_product_rows_are_the_sampled_bundle(q, monkeypatch):
    # bitwise: on S^2 x S^q both estimators integrate the rows of
    # sample_sphere_bundle, which the benchmark's closed-form reference reads
    model, grid = manifolds.sphere_product(2, q), [0.1, 0.2]
    seen = []
    propagate = geodesics.propagate

    def spy(model, states, *args, **kwargs):
        seen.append(manifolds.as_batch(states))
        return propagate(model, states, *args, **kwargs)

    monkeypatch.setattr(entropy, "propagate", spy)
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


@pytest.mark.filterwarnings("ignore:invalid value encountered in det:RuntimeWarning")
class TestFailedRows:
    """Rows made non-finite are flagged by ``propagate`` and left out of both
    estimators; more than 1% of them is an error (CLI exit 3).  The poisoned
    rows stay non-finite after parking, hence the det warnings."""

    GRID = np.linspace(0.2, 1.0, 5)

    @pytest.fixture
    def poison(self, monkeypatch):
        # the Christoffel symbols of every diagonal chart, the sphere
        # product's included, come from diagonal_christoffel, whether a
        # stage asks the chart for them or takes them from its diagonal
        def install(rows, batch):
            christoffel = charts.diagonal_christoffel

            def poisoned(d, P):
                gam = np.array(christoffel(d, P))
                if np.ndim(d) == 2 and len(d) == batch:
                    gam[rows] = np.nan
                return gam

            monkeypatch.setattr(charts, "diagonal_christoffel", poisoned)
        return install

    def test_mane_leaves_out_failed_rows(self, s2xs2, poison, caplog):
        states = s2xs2.sample_sphere_bundle(100, seed=3)
        clean = geodesics.propagate(s2xs2, states, self.GRID, step=2e-2)
        poison([17], 100)
        with caplog.at_level("WARNING", logger=geodesics.log.name):
            res = geodesics.propagate(s2xs2, states, self.GRID, step=2e-2)
        assert np.flatnonzero(res.failed).tolist() == [17]
        # the row turns non-finite again after parking, at every grid time:
        # it fails and is logged once, and keeps its first reason
        assert [r.getMessage().split(" in chart")[0] for r in caplog.records] == [
            "trajectory 17 failed (non-finite)"]
        assert res.reason[17] == "non-finite"
        series = entropy.mane_series(s2xs2, self.GRID, 100, seed=3, step=2e-2)
        assert (series.metadata["evaluated"], series.metadata["failed"]) == (99, 1)
        ex = geodesics.expansion(np.delete(clean.phi, 17, axis=1))
        mean = ex.mean(axis=1)
        np.testing.assert_allclose(series.values, np.log(mean), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(series.stderr, ex.std(axis=1) / np.sqrt(99) / mean,
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.filterwarnings("ignore:direction sampling not converged")
    def test_counting_leaves_out_failed_rows(self, s2xs2, poison):
        x = s2xs2.base_x
        dirs, weights, rule = entropy._directions_at(s2xs2, x, 128, 4)
        assert rule == "monte-carlo"
        states = [s2xs2.unit_tangent(x, d) for d in dirs]
        clean = geodesics.propagate(s2xs2, states, self.GRID, step=2e-2,
                                    accumulate_radial=True)
        poison([5], 128)
        series = entropy.counting_series(s2xs2, x, self.GRID, angular_samples=128,
                                         step=2e-2, seed=4)
        assert series.metadata["failed"] == 1
        radial = np.delete(clean.radial, 5, axis=1)
        totals = radial @ np.delete(weights, 5)
        np.testing.assert_allclose(series.metadata["integrals"], totals, rtol=1e-12, atol=0.0)
        # the Monte Carlo error uses the kept directions only
        area = 2.0 * np.pi**2
        rel = area * np.std(radial[-1]) / np.sqrt(127) / totals[-1]
        np.testing.assert_allclose(series.stderr, rel, rtol=1e-12, atol=0.0)

    def test_more_than_one_percent_is_an_error(self, s2xs2, poison):
        poison([3, 40], 100)
        with pytest.raises(EstimatorError) as err:
            entropy.mane_series(s2xs2, self.GRID, 100, seed=3, step=2e-2)
        assert err.value.failure_census == {"failed": 2, "total": 100}
        poison([3, 40], 128)
        with pytest.raises(EstimatorError) as err:
            entropy.counting_series(s2xs2, s2xs2.base_x, self.GRID, angular_samples=128,
                                    step=2e-2, seed=4)
        assert err.value.failure_census == {"failed": 2, "total": 128}

    def test_cli_exit_3(self, poison, capsys):
        poison([3, 40], 100)
        code = cli.main(["estimate", "sphereprod:p=2,q=2", "--samples", "100",
                         "--t-max", "1", "--step", "2e-2"])
        assert code == 3
        assert capsys.readouterr().err.startswith("numeric failure: 2/100 trajectories failed")

    @pytest.mark.filterwarnings("ignore:direction sampling not converged")
    def test_cli_count_reports_failed_directions(self, poison, capsys):
        argv = ["count", "sphereprod:p=2,q=2", "--samples", "128", "--t-max", "1",
                "--step", "2e-2", "--seed", "4", "--format", "json"]
        # poisoning no rows is the clean run
        for rows, failed in (([], 0), ([5], 1)):
            poison(rows, 128)
            assert cli.main(argv) == 0
            series = json.loads(capsys.readouterr().out)["series"]
            assert (series["failed"], series["rule"]) == (failed, "monte-carlo")
            assert series["directions"] == 128
        assert cli.main(argv[:-2]) == 0
        assert "directions 128 (monte-carlo), 1 failed" in capsys.readouterr().out
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
