import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoflow import charts, manifolds
from geoflow.errors import ChartDomainError


def fd_metric_derivative(chart, x, h=1e-6):
    out = np.empty((chart.dim, chart.dim, chart.dim))
    for k in range(chart.dim):
        e = np.zeros(chart.dim)
        e[k] = h
        out[k] = (chart.metric(x + e) - chart.metric(x - e)) / (2.0 * h)
    return out


class TestMetric:
    def test_torus_identity(self, torus2):
        g = torus2.metric(np.array([0.3, 5.1]))
        assert np.array_equal(g, np.eye(2))

    def test_sphere_equator(self, s2):
        g = s2.metric(np.array([np.pi / 2, 0.7]))
        assert np.allclose(g, np.diag([1.0, 1.0]), atol=1e-15)

    def test_degenerate_ellipsoid_matches_round_sphere(self, s2):
        round_e = manifolds.ellipsoid(1.0, 1.0, 1.0)
        for x in [np.array([0.4, 1.0]), np.array([1.2, 3.0]), np.array([2.8, 5.5])]:
            # chart-0 coordinates of the degenerate ellipsoid are (polar, azimuth)
            # with the pole on the z axis, matching the sphere chart exactly
            assert np.allclose(round_e.metric(x), s2.metric(x), atol=1e-12)

    def test_spd_at_sampled_points(self, all_models):
        for name, model in all_models.items():
            states = model.sample_sphere_bundle(20, seed=11)
            X = np.stack([s.x for s in states])
            g = model.metric(X)
            assert np.allclose(g, np.swapaxes(g, -1, -2), atol=1e-12), name
            assert np.all(np.linalg.eigvalsh(g) > 0.0), name

    def test_out_of_chart_rejected(self, elli):
        with pytest.raises(ChartDomainError):
            elli.metric(np.array([0.0, 0.0]))  # chart pole

    def test_analytic_d_metric_matches_fd(self, s2, h2, elli, s2xs2):
        pts = {
            "s2": (s2, np.array([0.8, 0.3])),
            "h2": (h2, np.array([1.4, 2.0])),
            "elli": (elli, np.array([1.1, 0.9])),
            "s2xs2": (s2xs2, np.array([1.0, 0.2, 2.0, 0.4])),
        }
        for name, (model, x) in pts.items():
            ch = model.chart(0)
            fd = fd_metric_derivative(ch, x)
            for dg in (ch.d_metric(x), charts.metric_jet(ch.metric, x)[1]):
                assert np.allclose(dg, fd, atol=1e-7), name


class TestChristoffel:
    def test_torus_zero(self, torus2):
        gam = torus2.christoffel(np.array([1.0, 2.0]))
        assert np.array_equal(gam, np.zeros((2, 2, 2)))

    def test_sphere_closed_form(self, s2):
        rho = 0.9
        gam = s2.christoffel(np.array([rho, 0.4]))
        assert np.isclose(gam[0, 1, 1], -np.sin(rho) * np.cos(rho), atol=1e-12)
        assert np.isclose(gam[1, 0, 1], np.cos(rho) / np.sin(rho), atol=1e-12)
        assert np.isclose(gam[1, 1, 0], gam[1, 0, 1], atol=1e-15)

    def test_hyperbolic_closed_form(self):
        # horospherical g = dt^2 + e^{2 kappa t} dy^2 at curvature -4
        kappa, t = 2.0, 0.7
        gam = manifolds.hyperbolic(2, 4.0).christoffel(np.array([t, -1.3]))
        assert np.isclose(gam[0, 1, 1], -kappa * np.exp(2 * kappa * t), rtol=1e-14, atol=0.0)
        assert gam[1, 0, 1] == gam[1, 1, 0] == kappa
        assert gam[0, 0, 0] == gam[0, 0, 1] == gam[1, 0, 0] == gam[1, 1, 1] == 0.0

    def test_constant_chart_metric_zero(self):
        model = manifolds.chart_metric(
            lambda x: np.array([[2.0, 0.3], [0.3, 1.5]]), 2, name="const")
        gam = model.christoffel(np.zeros(2))
        assert np.allclose(gam, 0.0, atol=1e-9)

    @pytest.mark.parametrize("name", ["s2", "s4", "h2", "h3", "torus2", "s2xs2", "elli",
                                      "elli-rows"])
    def test_closed_form_matches_general_formula(self, name, request):
        # closed-form charts against 0.5 g^-1 (dg + dg - dg) built from metric
        # and d_metric, at 20 points, 5 of them near a pole inside the switch
        # margin; the horospherical chart has no boundary; "elli-rows" is the
        # per-row ellipsoid chart, alternating its two pole axes
        if name == "elli-rows":
            model = request.getfixturevalue("elli")
            ch = model.chart(np.arange(20) % 2)
        else:
            model = manifolds.hyperbolic(3) if name == "h3" else request.getfixturevalue(name)
            ch = model.chart(0)
        rng = np.random.default_rng(13)
        x = rng.uniform(0.05, np.pi - 0.05, (20, model.dim))
        x[:5, 0] = rng.uniform(0.01, 0.09, 5)
        gam = charts.christoffel(ch, x)
        oracle = charts.Chart.christoffel(ch, x)
        if model.kind == "torus":
            assert np.array_equal(gam, np.zeros_like(gam))
        elif model.kind != "hyperbolic":
            assert np.sum(ch.margin(x) < 0.2) >= 5
        np.testing.assert_allclose(gam, oracle, rtol=1e-12, atol=1e-12)

    def test_per_row_chart_matches_each_row_alone(self, all_models):
        # a batch over every chart of the model, each row in its own chart;
        # chart-0 sample points lie in every chart's coordinate domain;
        # riemann evaluates the metric on a (stencil, rows) batch
        def evaluate(ch, method, x):
            return charts.riemann(ch, x) if method == "riemann" else getattr(ch, method)(x)

        for name, model in all_models.items():
            X = np.stack([s.x for s in model.sample_sphere_bundle(12, seed=9)])
            ids = np.arange(len(X)) % len(model.charts)
            rows = model.chart(ids)
            for method in ("metric", "christoffel", "margin", "riemann"):
                got = evaluate(rows, method, X)
                for r, cid in enumerate(ids):
                    want = evaluate(model.chart(int(cid)), method, X[r])
                    np.testing.assert_array_equal(got[r], want, err_msg=f"{name} {method}")

    def test_symmetric_lower_indices(self, all_models):
        for name, model in all_models.items():
            st_ = model.sample_sphere_bundle(5, seed=3)
            for s in st_:
                gam = model.christoffel(s.x)
                assert np.allclose(gam, np.swapaxes(gam, -1, -2), atol=1e-8), name


class TestCurvature:
    def test_space_forms_constant(self, s2, s4, h2, torus2):
        for model, expect in ((s2, 1.0), (s4, 1.0), (h2, -1.0), (torus2, 0.0)):
            spec = model.curvature_operator(model.base_state())
            assert np.allclose(spec.eigenvalues, expect, atol=1e-12)

    def test_space_forms_fd_path(self, s2, s4, h2, torus2):
        # the finite-difference route, forced through, reproduces the constant
        for model, expect in ((s2, 1.0), (s4, 1.0), (h2, -1.0), (torus2, 0.0)):
            states = model.sample_sphere_bundle(4, seed=5)
            for stt in states:
                spec = model.curvature_operator(stt, force_fd=True)
                assert np.allclose(spec.eigenvalues, expect, atol=1e-6), model.kind

    def test_product_split_spectrum(self, s2xs2):
        alpha = 0.7
        v = np.zeros(4)
        v[1] = np.cos(alpha)
        v[3] = np.sin(alpha)
        theta = s2xs2.unit_tangent(s2xs2.base_x, v)
        spec = s2xs2.curvature_operator(theta)
        expect = np.sort([0.0, np.cos(alpha) ** 2, np.sin(alpha) ** 2])
        assert np.allclose(spec.eigenvalues, expect, atol=1e-10)
        fd = s2xs2.curvature_operator(theta, force_fd=True)
        assert np.allclose(fd.eigenvalues, expect, atol=1e-6)

    def test_closed_form_matches_fd_path(self, s2, s4, h2, torus2, elli, s2xs2):
        # every closed form agrees with the curvature of the metric jet, for
        # the Jacobi operator and for sectional curvature
        rng = np.random.default_rng(4)
        models = (s2, s4, h2, torus2, elli, s2xs2, manifolds.sphere_product(2, 3))
        for model in models:
            for stt in model.sample_sphere_bundle(20, seed=4):
                exact = model.curvature_operator(stt).eigenvalues
                fd = model.curvature_operator(stt, force_fd=True).eigenvalues
                assert np.allclose(exact, fd, atol=1e-5), model.spec_string
                u, w = rng.standard_normal((2, model.dim))
                exact = model.sectional(stt.x, u, w)
                fd = model.sectional(stt.x, u, w, force_fd=True)
                assert np.isclose(exact, fd, atol=1e-5), model.spec_string

    @pytest.mark.parametrize("n", [2, 3])
    def test_round_spheres_as_chart_metric(self, n):
        # the unit sphere's hyperspherical metric given as a user function:
        # curvature from the metric jet alone
        def metric(x):
            s = np.sin(x[:-1])
            return np.diag(np.concatenate([[1.0], np.cumprod(s * s)]))

        domain = [[0.2, np.pi - 0.2]] * (n - 1) + [[0.0, 2 * np.pi]]
        model = manifolds.chart_metric(metric, n, domain=domain, name=f"round-s{n}")
        states = model.sample_sphere_bundle(20, seed=8)
        X = np.stack([s.x for s in states])
        V = np.stack([s.v for s in states])
        W = np.random.default_rng(8).standard_normal(X.shape)
        assert np.all(np.abs(model.sectional(X, V, W) - 1.0) <= 1e-6)

    def test_eigenvectors_orthonormal(self, all_models):
        for name, model in all_models.items():
            for stt in model.sample_sphere_bundle(5, seed=9):
                spec = model.curvature_operator(stt)
                g = model.metric(stt.x)
                gram = spec.eigenvectors @ g @ spec.eigenvectors.T
                assert np.allclose(gram, np.eye(model.dim - 1), atol=1e-8), name

    def test_ricci_equals_trace(self, all_models):
        for name, model in all_models.items():
            for stt in model.sample_sphere_bundle(5, seed=2):
                spec = model.curvature_operator(stt)
                assert np.isclose(model.ricci(stt), spec.ricci, atol=1e-10), name

    def test_ricci_examples(self, s4, torus2, s2xs2):
        assert np.isclose(s4.ricci(s4.base_state()), 3.0, atol=1e-12)
        assert np.isclose(torus2.ricci(torus2.base_state()), 0.0, atol=1e-15)
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.standard_normal(4)
            theta = s2xs2.unit_tangent(s2xs2.base_x, v)
            assert np.isclose(s2xs2.ricci(theta), 1.0, atol=1e-10)


class TestExtremes:
    def test_closed_forms(self, s4, s2xs2, torus2, h2):
        assert s4.extremal_curvatures() == (1.0, 1.0, 3.0)
        assert s2xs2.extremal_curvatures() == (1.0, 0.0, 1.0)
        assert torus2.extremal_curvatures() == (0.0, 0.0, 0.0)
        assert h2.extremal_curvatures() == (-1.0, -1.0, -1.0)

    def test_min_ricci_identity_on_spheres(self):
        for n in (2, 3, 4):
            for r in (1.0, 2.0):
                model = manifolds.sphere(n, r)
                k_max, _, min_ric = model.extremal_curvatures()
                assert min_ric == k_max * (n - 1)

    def test_ellipsoid_grid_oracle(self, elli):
        # dense-grid maximum of the finite-difference sectional curvature is an
        # independent check of the closed-form extremes
        k_max, k_min, min_ric = elli.extremal_curvatures()
        us = np.concatenate([[0.01], np.linspace(0.05, np.pi - 0.05, 60), [np.pi - 0.01]])
        phis = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
        vals = []
        for u in us:
            for phi in phis[::4]:
                x = np.array([u, phi])
                vals.append(float(elli.sectional(
                    x, np.array([1.0, 0.0]), np.array([0.0, 1.0]), force_fd=True)))
        vals = np.array(vals)
        # grid misses the exact poles, hence the 1% tolerance
        assert abs(vals.max() - k_max) / k_max < 0.01
        assert abs(vals.min() - k_min) / k_min < 0.01
        assert np.isclose(min_ric, k_min, atol=1e-12)

    def test_sampling_path_brackets_truth(self, elli):
        k_max, k_min, min_ric = elli.extremal_curvatures(
            sample_count=150, seed=1, force_sampling=True)
        assert k_max >= 4.0 - 1e-6 and k_max < 4.2
        assert k_min <= 0.25 + 1e-6 and k_min > 0.2
        assert min_ric <= 0.25 + 1e-6 and min_ric > 0.2

    def test_sample_count_validated(self, s2):
        with pytest.raises(ValueError):
            s2.extremal_curvatures(sample_count=0)


class TestSampling:
    def test_count_validated(self, s2):
        with pytest.raises(ValueError):
            s2.sample_sphere_bundle(0)

    def test_unit_norm(self, all_models):
        for name, model in all_models.items():
            for stt in model.sample_sphere_bundle(50, seed=1):
                nrm = model.norm(stt.x, stt.v)
                assert abs(nrm - 1.0) <= 1e-10, name

    def test_torus_mean_direction(self, torus2):
        states = torus2.sample_sphere_bundle(4000, seed=7)
        V = np.stack([s.v for s in states])
        assert np.all(np.abs(V.mean(axis=0)) < 3.0 / np.sqrt(4000))

    def test_homogeneous_positions_pinned(self, s2xs2):
        states = s2xs2.sample_sphere_bundle(10, seed=0)
        X = np.stack([s.x for s in states])
        assert np.all(X == s2xs2.base_x)

    def test_sphere_position_density(self, s2):
        # polar angle density on the 2-sphere is proportional to sin(rho);
        # under it E[cos rho] = 0
        model = manifolds.sphere(2, 1.0)
        model = manifolds.ManifoldModel(**{**model.__dict__, "homogeneous": False})
        states = model.sample_sphere_bundle(4000, seed=13)
        c = np.cos([s.x[0] for s in states])
        assert abs(c.mean()) < 3.0 / np.sqrt(4000)

    def test_deterministic(self, elli):
        a = elli.sample_sphere_bundle(64, seed=5)
        b = elli.sample_sphere_bundle(64, seed=5)
        assert all(np.array_equal(p.x, q.x) and np.array_equal(p.v, q.v)
                   for p, q in zip(a, b))


class TestUnitTangent:
    def test_normalizes(self, s2):
        theta = s2.unit_tangent(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert abs(s2.norm(theta.x, theta.v) - 1.0) < 1e-12

    def test_zero_vector_rejected(self, s2):
        with pytest.raises(ValueError):
            s2.unit_tangent(np.array([1.0, 2.0]), np.zeros(2))

    @given(st.floats(0.3, np.pi - 0.3), st.floats(0.0, 6.0),
           st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_always_unit(self, rho, phi, a, b):
        model = manifolds.sphere(2, 1.0)
        if abs(a) + abs(b) < 1e-3:
            return
        theta = model.unit_tangent(np.array([rho, phi]), np.array([a, b]))
        assert abs(model.norm(theta.x, theta.v) - 1.0) < 1e-10


class TestParse:
    def test_examples(self):
        for spec, kind, dim in [
            ("sphere:n=2,r=1.0", "sphere", 2),
            ("torus:n=2", "torus", 2),
            ("hyperbolic:n=2,c=1.0", "hyperbolic", 2),
            ("ellipsoid:a=1,b=1,c=2", "ellipsoid", 2),
            ("sphereprod:p=2,q=2,r1=1,r2=1", "sphereprod", 4),
        ]:
            model = manifolds.parse_manifold(spec)
            assert model.kind == kind and model.dim == dim

    def test_json_document(self):
        model = manifolds.parse_manifold('{"kind": "hyperbolic", "n": 2, "c": 4.0}')
        assert model.kind == "hyperbolic" and model.params["c"] == 4.0

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            manifolds.parse_manifold("mobius:n=2")
        with pytest.raises(ValueError):
            manifolds.parse_manifold("sphere:n2")


class TestChartTransitions:
    def test_sphere_roundtrip_between_charts(self, s2):
        x = np.array([0.4, 1.3])
        ch0, ch1 = s2.chart(0), s2.chart(1)
        p = ch0.embed(x)
        x1 = ch1.from_embedding(p)
        assert np.allclose(ch1.embed(x1), p, atol=1e-12)
        # tangent transfer preserves the norm
        v = np.array([0.7, -0.2])
        amb = ch0.tangent_to_ambient(x, v)
        v1 = ch1.tangent_from_ambient(x1, amb)
        n0 = v @ ch0.metric(x) @ v
        n1 = v1 @ ch1.metric(x1) @ v1
        assert np.isclose(n0, n1, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hyperbolic_has_one_chart(self, n):
        assert len(manifolds.hyperbolic(n).charts) == 1

    def test_margin_flags_poles(self, s2):
        assert s2.chart(0).margin(np.array([0.01, 0.0])) < 0.1
        assert s2.chart(0).margin(np.array([np.pi / 2, 0.0])) > 0.9
