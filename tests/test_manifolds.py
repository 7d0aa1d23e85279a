import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoflow import charts, manifolds


def fd_metric_derivative(chart, x, h=1e-6):
    out = np.empty((chart.dim, chart.dim, chart.dim))
    for k in range(chart.dim):
        e = np.zeros(chart.dim)
        e[k] = h
        out[k] = (chart.metric(x + e) - chart.metric(x - e)) / (2.0 * h)
    return out


def d_metric(chart, x):
    """Oracle: d_k g_ij [..., k, i, j] in closed form, from the ellipsoid's
    embedding jet or from the Jacobian J of a diagonal chart's diagonal
    (P where m < k, zero elsewhere)."""
    if isinstance(chart, charts.EllipsoidChart):
        J = chart._jet(x)[0]
        dE, d2E = J[..., :2, :], J[..., 2:, :].reshape(J.shape[:-2] + (2, 2, 3))
        term = d2E @ np.swapaxes(dE, -1, -2)[..., None, :, :]   # [k, i, j] = d_k d_i E . d_j E
        return term + np.swapaxes(term, -2, -1)
    _, P = chart.diagonal(x)
    n = chart.dim
    J = np.zeros(P.shape[:-2] + (n, n))
    J[..., :-1, :] = np.where(np.triu(np.ones((n - 1, n), dtype=bool), 1), P, 0.0)
    return J[..., None] * np.eye(n)


def general_christoffel(chart, x):
    """Oracle: g^lm 0.5 (d_i g_mj + d_j g_mi - d_m g_ij) from the metric and
    :func:`d_metric`."""
    return charts._raised(chart.metric(x), d_metric(chart, x))


def loop_sphere_embed(angles):
    """Oracle: the hyperspherical embedding, one coordinate at a time."""
    d = angles.shape[-1]
    s, c = np.sin(angles), np.cos(angles)
    out = np.empty(angles.shape[:-1] + (d + 1,))
    prod = np.ones(angles.shape[:-1])
    for k in range(d):
        out[..., k] = prod * c[..., k]
        prod = prod * s[..., k]
    out[..., d] = prod
    return out


def loop_sphere_embed_jacobian(angles):
    """Oracle: d u_k / d t_m of the embedding, one product of sines and
    cosines per entry."""
    d = angles.shape[-1]
    s, c = np.sin(angles), np.cos(angles)
    J = np.zeros(angles.shape[:-1] + (d + 1, d))
    for k in range(d + 1):
        for m in range(k if k < d else d):
            term = np.ones(angles.shape[:-1])
            for j in range(k if k < d else d):
                if j != m:
                    term = term * s[..., j]
            term = term * c[..., m]
            if k < d:
                term = term * c[..., k]
            J[..., k, m] = term
        if k < d:
            term = np.ones(angles.shape[:-1])
            for j in range(k):
                term = term * s[..., j]
            J[..., k, k] = -term * s[..., k]
    return J


def warp_metric(chart, x):
    """Oracle: the metric of a diagonal chart, its diagonal the running
    product of the warps, each factor's on its own on a product chart."""
    def diag(ch, y):
        if isinstance(ch, charts.ProductChart):
            return np.concatenate([diag(ch.first, y[..., :ch.split]),
                                   diag(ch.second, y[..., ch.split:])], axis=-1)
        return np.multiply.accumulate(ch.warps(y)[0], axis=-1)
    return diag(chart, x)[..., None] * np.eye(chart.dim)


def sectional(model, x, u, w, chart_id=0):
    """Oracle: the sectional curvature of the plane spanned by u, w at x,
    <R(u, w)w, u> over the Gram determinant of u, w.  The form comes from the
    curvature factors on the dense metric or, without factors, from one
    metric jet, which then also gives g."""
    x, u, w = (np.asarray(a, dtype=float) for a in (x, u, w))
    W, ch = np.stack(np.broadcast_arrays(w, u), axis=-2), model.chart(chart_id)
    if model.factors:
        g = ch.metric(x)
        form = model._gram_form(ch, x, W, W @ g)
    else:
        jet = charts.metric_jet(ch.metric, x)
        g, form = jet[0], manifolds._jet_form(jet, charts._raised(*jet[:2]), W)
    inner = manifolds._g_inner
    return form[..., 0, 0] / (inner(u, g, u) * inner(w, g, w) - inner(u, g, w) ** 2)


class TestMetric:
    def test_torus_identity(self, torus2):
        g = torus2.chart(0).metric(np.array([0.3, 5.1]))
        assert np.array_equal(g, np.eye(2))

    def test_sphere_equator(self, s2):
        g = s2.chart(0).metric(np.array([np.pi / 2, 0.7]))
        assert np.allclose(g, np.diag([1.0, 1.0]), atol=1e-15)

    def test_degenerate_ellipsoid_matches_round_sphere(self, s2):
        round_e = manifolds.ellipsoid(1.0, 1.0, 1.0)
        for x in [np.array([0.4, 1.0]), np.array([1.2, 3.0]), np.array([2.8, 5.5])]:
            # chart-0 coordinates of the degenerate ellipsoid are (polar, azimuth)
            # with the pole on the z axis, matching the sphere chart exactly
            assert np.allclose(round_e.chart(0).metric(x), s2.chart(0).metric(x), atol=1e-12)

    def test_diagonal_charts_match_warp_oracle(self, s2, s4, h2, torus2, s2xs2):
        # the metric reads d from diagonal, bit for bit the warps' product
        for model in (s2, s4, h2, torus2, s2xs2):
            rng = np.random.default_rng(model.dim)
            for shape in [(), (7,), (3, 5)]:
                X = model.base_x + rng.uniform(-1.0, 1.0, shape + (model.dim,))
                for cid in range(len(model.charts)):
                    chart = model.chart(cid)
                    assert chart.metric(X).tobytes() == warp_metric(chart, X).tobytes(), \
                        (model.spec_string, shape, cid)

    def test_spd_at_sampled_points(self, all_models):
        for name, model in all_models.items():
            states = model.sample_sphere_bundle(20, seed=11)
            X = np.stack([s.x for s in states])
            g = model.chart(0).metric(X)
            assert np.allclose(g, np.swapaxes(g, -1, -2), atol=1e-12), name
            assert np.all(np.linalg.eigvalsh(g) > 0.0), name

    def test_analytic_d_metric_matches_fd(self, s2, h2, elli, elli3, s2xs2):
        pts = {
            "s2": (s2, np.array([0.8, 0.3])),
            "h2": (h2, np.array([1.4, 2.0])),
            "elli": (elli, np.array([1.1, 0.9])),
            "elli3": (elli3, np.array([1.1, 0.9])),
            "s2xs2": (s2xs2, np.array([1.0, 0.2, 2.0, 0.4])),
        }
        for name, (model, x) in pts.items():
            ch = model.chart(0)
            fd = fd_metric_derivative(ch, x)
            for dg in (d_metric(ch, x), charts.metric_jet(ch.metric, x)[1]):
                assert np.allclose(dg, fd, atol=1e-7), name


class TestChristoffel:
    def test_torus_zero(self, torus2):
        gam = charts.christoffel(torus2.chart(0), np.array([1.0, 2.0]))
        assert np.array_equal(gam, np.zeros((2, 2, 2)))

    def test_sphere_closed_form(self, s2):
        rho = 0.9
        gam = charts.christoffel(s2.chart(0), np.array([rho, 0.4]))
        assert np.isclose(gam[0, 1, 1], -np.sin(rho) * np.cos(rho), atol=1e-12)
        assert np.isclose(gam[1, 0, 1], np.cos(rho) / np.sin(rho), atol=1e-12)
        assert np.isclose(gam[1, 1, 0], gam[1, 0, 1], atol=1e-15)

    def test_hyperbolic_closed_form(self):
        # horospherical g = dt^2 + e^{2 kappa t} dy^2 at curvature -4
        kappa, t = 2.0, 0.7
        gam = charts.christoffel(manifolds.hyperbolic(2, 4.0).chart(0), np.array([t, -1.3]))
        assert np.isclose(gam[0, 1, 1], -kappa * np.exp(2 * kappa * t), rtol=1e-14, atol=0.0)
        assert gam[1, 0, 1] == gam[1, 1, 0] == kappa
        assert gam[0, 0, 0] == gam[0, 0, 1] == gam[1, 0, 0] == gam[1, 1, 1] == 0.0

    def test_constant_chart_metric_zero(self):
        model = manifolds.chart_metric(
            lambda x: np.array([[2.0, 0.3], [0.3, 1.5]]), 2, name="const")
        gam = charts.christoffel(model.chart(0), np.zeros(2))
        assert np.allclose(gam, 0.0, atol=1e-9)

    @pytest.mark.parametrize("name", ["s2", "s4", "h2", "h3", "torus2", "s2xs2", "elli",
                                      "elli-rows", "elli3", "elli3-chart1", "elli3-rows",
                                      "wavy"])
    def test_closed_form_matches_general_formula(self, name, request):
        # closed-form charts (the ellipsoid's by a 2x2 adjugate solve) against
        # 0.5 g^-1 (dg + dg - dg) built from metric and d_metric, at 20
        # points, 5 of them near a pole inside the switch margin; the
        # horospherical chart has no boundary; "-rows" is the per-row
        # ellipsoid chart, alternating its two pole axes, and "-chart1" the
        # second chart.  Every chart's Gamma is symmetric in i, j bit for
        # bit, which the matvec spray of geodesics relies on; the wavy
        # chart-metric model's Gamma is the general formula on its metric jet
        base, _, which = name.partition("-")
        model = manifolds.hyperbolic(3) if base == "h3" else request.getfixturevalue(base)
        ch = model.chart({"": 0, "chart1": 1, "rows": np.arange(20) % 2}[which])
        rng = np.random.default_rng(13)
        x = rng.uniform(0.05, np.pi - 0.05, (20, model.dim))
        x[:5, 0] = rng.uniform(0.01, 0.09, 5)
        gam = charts.christoffel(ch, x)
        np.testing.assert_array_equal(gam, np.swapaxes(gam, -1, -2))
        if model.kind == "chart-metric":
            return
        oracle = general_christoffel(ch, x)
        if model.kind == "torus":
            assert np.array_equal(gam, np.zeros_like(gam))
        elif model.kind != "hyperbolic":
            assert np.sum(ch.margin(x) < 0.2) >= 5
        np.testing.assert_allclose(gam, oracle, rtol=1e-12, atol=1e-12)

    def test_per_row_chart_matches_each_row_alone(self, all_models):
        # a batch over every chart of the model, each row in its own chart;
        # chart-0 sample points lie in every chart's coordinate domain;
        # the curvature tensor evaluates the metric on a (stencil, rows) batch;
        # "factor k" is the curvature of the model's k-th curvature factor
        def evaluate(ch, method, x):
            if method.startswith("factor"):
                return np.broadcast_to(model.factors[int(method[7:])].curvature(ch, x),
                                       np.shape(x)[:-1])
            if method == "riemann":
                g, dg, d2g = charts.metric_jet(ch.metric, x)
                return charts.jet_riemann(dg, d2g, charts._raised(g, dg))
            return getattr(ch, method)(x)

        for name, model in all_models.items():
            X = np.stack([s.x for s in model.sample_sphere_bundle(12, seed=9)])
            ids = np.arange(len(X)) % len(model.charts)
            rows = model.chart(ids)
            factors = [f"factor {k}" for k in range(len(model.factors))]
            for method in ["metric", "christoffel", "margin", "riemann"] + factors:
                got = evaluate(rows, method, X)
                for r, cid in enumerate(ids):
                    want = evaluate(model.chart(int(cid)), method, X[r])
                    np.testing.assert_array_equal(got[r], want, err_msg=f"{name} {method}")

    def test_symmetric_lower_indices(self, all_models):
        for name, model in all_models.items():
            st_ = model.sample_sphere_bundle(5, seed=3)
            for s in st_:
                gam = charts.christoffel(model.chart(s.chart_id), s.x)
                assert np.allclose(gam, np.swapaxes(gam, -1, -2), atol=1e-8), name

    @pytest.mark.parametrize("p, q, r1", [(2, 2, 1.0), (3, 2, 2.0)])
    def test_product_kernel_is_block_diagonal(self, p, q, r1):
        # g, dg and Gamma of a product chart are exactly the factor charts'
        # own results in the diagonal blocks and zero off them, so no factor's
        # warp reaches the other factor's coordinates
        model = manifolds.sphere_product(p, q, r1, 1.0)
        x = np.random.default_rng(21).uniform(0.05, np.pi - 0.05, (64, p + q))
        kernels = {"metric": lambda c, y: c.metric(y), "d_metric": d_metric,
                   "christoffel": charts.christoffel}
        for cid in (0, len(model.charts) - 1):
            ch = model.chart(cid)
            for method, rank in [("metric", 2), ("d_metric", 3), ("christoffel", 3)]:
                kernel = kernels[method]
                want = np.zeros((64,) + (p + q,) * rank)
                want[(...,) + (slice(None, p),) * rank] = kernel(ch.first, x[:, :p])
                want[(...,) + (slice(p, None),) * rank] = kernel(ch.second, x[:, p:])
                np.testing.assert_array_equal(kernel(ch, x), want,
                                              err_msg=f"chart {cid} {method}")


class TestCurvature:
    def test_space_forms_constant(self, s2, s4, h2, torus2):
        for model, expect in ((s2, 1.0), (s4, 1.0), (h2, -1.0), (torus2, 0.0)):
            spec = model.curvature_operator(model.base_state())
            assert np.allclose(spec.eigenvalues, expect, atol=1e-12)

    def test_space_forms_fd_path(self, s2, s4, h2, torus2, factor_free):
        # the finite-difference route, forced through, reproduces the constant
        for model, expect in ((s2, 1.0), (s4, 1.0), (h2, -1.0), (torus2, 0.0)):
            states = model.sample_sphere_bundle(4, seed=5)
            for stt in states:
                spec = factor_free(model).curvature_operator(stt)
                assert np.allclose(spec.eigenvalues, expect, atol=1e-6), model.kind

    def test_product_split_spectrum(self, s2xs2, factor_free):
        alpha = 0.7
        v = np.zeros(4)
        v[1] = np.cos(alpha)
        v[3] = np.sin(alpha)
        theta = s2xs2.unit_tangent(s2xs2.base_x, v)
        spec = s2xs2.curvature_operator(theta)
        expect = np.sort([0.0, np.cos(alpha) ** 2, np.sin(alpha) ** 2])
        assert np.allclose(spec.eigenvalues, expect, atol=1e-10)
        fd = factor_free(s2xs2).curvature_operator(theta)
        assert np.allclose(fd.eigenvalues, expect, atol=1e-6)

    def test_closed_form_matches_fd_path(self, s2, s4, h2, torus2, elli, elli3, s2xs2,
                                         factor_free):
        # every closed form agrees with the curvature of the metric jet, for
        # the Jacobi operator and for sectional curvature
        rng = np.random.default_rng(4)
        models = (s2, s4, h2, torus2, elli, elli3, s2xs2, manifolds.sphere_product(2, 3))
        for model in models:
            for stt in model.sample_sphere_bundle(20, seed=4):
                exact = model.curvature_operator(stt).eigenvalues
                fd = factor_free(model).curvature_operator(stt).eigenvalues
                assert np.allclose(exact, fd, atol=1e-5), model.spec_string
                u, w = rng.standard_normal((2, model.dim))
                exact = sectional(model, stt.x, u, w)
                fd = sectional(factor_free(model), stt.x, u, w)
                assert np.isclose(exact, fd, atol=1e-5), model.spec_string

    def test_product_form_matches_einsum_oracle(self, s2xs2):
        # the factor Jacobi form by batched products against the three-einsum
        # form it replaced, at 64 states on the per-row chart, 16 of them
        # near a pole of the first factor; S^3(1) x S^2(2) has blocks of
        # different sizes and curvatures
        def einsum_form(model, ch, x, v, E):
            g = ch.metric(x)
            out = 0.0
            for f in model.factors:
                sl = f.coords
                gf, vf, Ef = g[..., sl, sl], v[..., sl], E[..., sl]
                vv = np.einsum("...i,...ij,...j->...", vf, gf, vf)
                Ev = np.einsum("...ki,...ij,...j->...k", Ef, gf, vf)
                EE = np.einsum("...ki,...ij,...lj->...kl", Ef, gf, Ef)
                Kf = np.asarray(f.curvature(ch, x))[..., None, None]
                out = out + Kf * (vv[..., None, None] * EE - Ev[..., :, None] * Ev[..., None, :])
            return out

        for model in (s2xs2, manifolds.sphere_product(3, 2, 1.0, 2.0)):
            rng = np.random.default_rng(17)
            X = rng.uniform(0.05, np.pi - 0.05, (64, model.dim))
            X[:16, 0] = rng.uniform(0.02, 0.05, 16)
            ids = np.arange(64) % len(model.charts)
            ch = model.chart(ids)
            V = model.unit_directions(X, 64, rng)
            E = model.orthonormal_frame(X, V, ids)
            assert np.sum(ch.margin(X) < 0.05) >= 16
            K = model.curvature_frame_matrix(X, V, E, ch)
            np.testing.assert_allclose(K, einsum_form(model, ch, X, V, E), rtol=0.0, atol=1e-15,
                                       err_msg=model.spec_string)

    def test_stage_geometry_of_chart_metric_is_one_jet(self, wavy, monkeypatch):
        # one metric jet gives the same Christoffel symbols and Jacobi matrix
        # as the pointwise queries, bit for bit, from half the user calls
        ch = wavy.chart(0)
        func, count = ch.func, [0]

        def counting_func(x):
            count[0] += 1
            return func(x)

        states = wavy.sample_sphere_bundle(5, seed=6)
        X = np.stack([s.x for s in states])
        V = np.stack([s.v for s in states])
        W = np.concatenate([V[:, None], wavy.orthonormal_frame(X, V)], axis=1)
        monkeypatch.setattr(ch, "func", counting_func)
        gam, K = wavy.stage_geometry(ch, X, W)
        assert count[0] == 13 * len(X)
        np.testing.assert_array_equal(gam, charts.christoffel(ch, X))
        np.testing.assert_array_equal(K, wavy.curvature_frame_matrix(X, V, W[:, 1:], ch))
        assert wavy.stage_geometry(ch, X, W[:, :1])[1] is None

    def test_sectional_user_calls_per_point(self, wavy, monkeypatch):
        # one metric jet per point, 13 stencil points at n = 2; g is its centre
        ch = wavy.chart(0)
        func, count = ch.func, [0]

        def counting_func(x):
            count[0] += 1
            return func(x)

        X = np.stack([s.x for s in wavy.sample_sphere_bundle(5, seed=2)])
        U, W = np.random.default_rng(2).standard_normal((2,) + X.shape)
        monkeypatch.setattr(ch, "func", counting_func)
        sectional(wavy, X, U, W)
        assert count[0] == 13 * len(X)

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
        assert np.all(np.abs(sectional(model, X, V, W) - 1.0) <= 1e-6)

    def test_eigenvectors_orthonormal(self, all_models):
        for name, model in all_models.items():
            for stt in model.sample_sphere_bundle(5, seed=9):
                spec = model.curvature_operator(stt)
                g = model.chart(stt.chart_id).metric(stt.x)
                gram = spec.eigenvectors @ g @ spec.eigenvectors.T
                assert np.allclose(gram, np.eye(model.dim - 1), atol=1e-8), name

    def test_ricci_equals_trace(self, all_models):
        for name, model in all_models.items():
            for stt in model.sample_sphere_bundle(5, seed=2):
                spec = model.curvature_operator(stt)
                frame = model.orthonormal_frame(stt.x, stt.v, stt.chart_id)
                K = model.curvature_frame_matrix(stt.x, stt.v, frame, stt.chart_id)
                assert np.isclose(np.trace(K), spec.ricci, atol=1e-10), name

    def test_batch_matches_single_states(self, elli, s2xs2, wavy, s4):
        # one call on a batch, its rows in the charts of the largest margin,
        # gives each row's single-state spectrum bit for bit; the constant
        # Jacobi matrix of the 4-sphere is one for every row
        for model in (elli, s2xs2, wavy, s4):
            states = []
            for s in model.sample_sphere_bundle(16, seed=6):
                cid, _, x, v = model.best_chart(0, s.x, s.v)
                states.append(model.unit_tangent(x, v, cid))
            ids = np.array([s.chart_id for s in states])
            if model is elli:
                assert set(ids.tolist()) == {0, 1}
            batch = manifolds.TangentState(ids, np.stack([s.x for s in states]),
                                           np.stack([s.v for s in states]))
            spec = model.curvature_operator(batch)
            assert spec.eigenvalues.shape == (16, model.dim - 1)
            assert spec.eigenvectors.shape == (16, model.dim - 1, model.dim)
            for i, stt in enumerate(states):
                one = model.curvature_operator(stt)
                np.testing.assert_array_equal(spec.eigenvalues[i], one.eigenvalues)
                np.testing.assert_array_equal(spec.eigenvectors[i], one.eigenvectors)
                assert spec.ricci[i] == one.ricci
            batch.v[3] *= 1.5
            with pytest.raises(ValueError, match="not unit"):
                model.curvature_operator(batch)

    def test_ricci_examples(self, s4, torus2, s2xs2):
        assert np.isclose(s4.curvature_operator(s4.base_state()).ricci, 3.0, atol=1e-12)
        assert np.isclose(torus2.curvature_operator(torus2.base_state()).ricci, 0.0, atol=1e-15)
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.standard_normal(4)
            theta = s2xs2.unit_tangent(s2xs2.base_x, v)
            assert np.isclose(s2xs2.curvature_operator(theta).ricci, 1.0, atol=1e-10)


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

    def test_ellipsoid_grid_oracle(self, elli, factor_free):
        # dense-grid maximum of the finite-difference sectional curvature is an
        # independent check of the closed-form extremes
        k_max, k_min, min_ric = elli.extremal_curvatures()
        us = np.concatenate([[0.01], np.linspace(0.05, np.pi - 0.05, 60), [np.pi - 0.01]])
        phis = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
        vals = []
        for u in us:
            for phi in phis[::4]:
                x = np.array([u, phi])
                vals.append(float(sectional(
                    factor_free(elli), x, np.array([1.0, 0.0]), np.array([0.0, 1.0]))))
        vals = np.array(vals)
        # grid misses the exact poles, hence the 1% tolerance
        assert abs(vals.max() - k_max) / k_max < 0.01
        assert abs(vals.min() - k_min) / k_min < 0.01
        assert np.isclose(min_ric, k_min, atol=1e-12)

    def test_sampling_path_brackets_truth(self, elli):
        k_max, k_min, min_ric = elli._sampled_extremes(150, seed=1)
        assert k_max >= 4.0 - 1e-6 and k_max < 4.2
        assert k_min <= 0.25 + 1e-6 and k_min > 0.2
        assert min_ric <= 0.25 + 1e-6 and min_ric > 0.2
        # a constant factor gives one Jacobi matrix for every sampled row
        got = manifolds.sphere(3)._sampled_extremes(30, seed=1)
        assert np.allclose(got, (1.0, 1.0, 2.0), rtol=0.01, atol=0.0)

    @pytest.mark.parametrize("axes", [(1.0, 1.0, 2.0), (1.0, 1.5, 2.0)])
    def test_factor_free_ellipsoid_finds_closed_forms(self, axes, factor_free):
        # the metric-jet route, as every chart-metric model takes it
        model = manifolds.ellipsoid(*axes)
        for seed in (1, 2, 3):
            got = factor_free(model).extremal_curvatures(150, seed)
            assert np.allclose(got, model.extremal_curvatures(), rtol=0.01, atol=0.0), seed

    def test_factor_free_sphere_finds_closed_forms(self, factor_free):
        # positions sampled over the chart, and an ascent over the direction too
        model = factor_free(manifolds.sphere(3))
        for seed in (1, 2, 3):
            got = model.extremal_curvatures(30, seed)
            assert np.allclose(got, (1.0, 1.0, 2.0), rtol=0.01, atol=0.0), seed

    def test_chart_metric_extremes(self, wavy):
        # values of the free-plane ascent this route replaced, at seed 1
        got = wavy.extremal_curvatures(20, seed=1)
        assert np.allclose(got, (0.082898, -0.123962, -0.123962), rtol=1e-3, atol=0.0)

    def test_chart_metric_extremes_stay_in_the_box(self):
        # K = 0.02 exp(0.02 x0^2) grows to the edge of the box, so the ascent
        # of K_max ends at the floor; no trial may evaluate the metric outside
        def metric(x):
            if np.any(np.abs(x) > 8.0):
                raise RuntimeError("metric evaluated outside its box")
            return np.exp(-0.02 * x[0] ** 2) * np.eye(2)

        model = manifolds.chart_metric(metric, 2, domain=[[-8.0, 8.0], [-8.0, 8.0]], name="edge")
        # the floor's margin 0.02 is 0.16 inside the edge
        k_edge = 0.02 * np.exp(0.02 * 7.84**2)
        for seed in (1, 2, 3):
            kmax, kmin, rmin = model.extremal_curvatures(20, seed)
            assert 0.99 * k_edge <= kmax <= 1.001 * k_edge, seed
            assert np.isclose(kmin, 0.02, rtol=0.01) and rmin == kmin, seed

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

    def test_sphere_position_density(self, varying):
        # the density of the first polar angle on the n-sphere is proportional
        # to sin^(n-1)(rho); under it E[cos rho] = 0
        for n in (2, 3):
            model = varying(manifolds.sphere(n, 1.0))
            states = model.sample_sphere_bundle(4000, seed=13)
            c = np.cos([s.x[0] for s in states])
            assert abs(c.mean()) < 3.0 / np.sqrt(4000), n

    def test_product_positions_in_factor_domains(self, s2xs2, factor_free):
        # positions of a product that is not homogeneous come from the factors'
        # angle ranges, whose bound grid stays off the poles: a sample from
        # [-pi, pi]^4 would evaluate the metric at t_0 = 0 and divide by zero
        model = factor_free(s2xs2)
        X = np.stack([s.x for s in model.sample_sphere_bundle(12, seed=3)])
        domain = np.concatenate([c.domain for c in (model.chart(0).first, model.chart(0).second)])
        assert np.all((X >= domain[:, 0]) & (X <= domain[:, 1]))

    @staticmethod
    def whole_grid_bound(model):
        # the bound from the whole 13-point-per-axis grid in one evaluation
        box = model._sample_box()[0]
        grid = np.stack(np.meshgrid(*[np.linspace(b[0] + 1e-6, b[1] - 1e-6, 13) for b in box],
                                    indexing="ij"), axis=-1).reshape(-1, model.dim)
        return float(np.sqrt(np.abs(np.linalg.det(model.chart(0).metric(grid)))).max()) * 1.5

    def test_sample_box_bound_in_chunks(self, elli, s2xs2, factor_free, monkeypatch):
        # bitwise the bound of the whole grid; in dimension 5 the grid's
        # 13^5 points are evaluated 13^4 at a time
        for model in (elli, factor_free(s2xs2)):
            assert model._sample_box()[1] == self.whole_grid_bound(model), model.spec_string
        domain = [[-1.0, 1.0]] * 5
        model = manifolds.chart_metric(lambda x: np.diag(1.0 + x**2), 5, domain=domain)
        ch = model.chart(0)
        rows = []

        def metric(x):
            # the same metric, batched
            rows.append(len(x))
            return (1.0 + x**2)[..., None] * np.eye(5)

        monkeypatch.setattr(ch, "metric", metric)
        want = self.whole_grid_bound(model)
        rows.clear()
        assert model._sample_box()[1] == want
        assert rows == [13**4] * 13

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

    def test_inner_row_alone_matches_row_in_batch(self, elli3):
        # a row's g-inner product must not depend on the batch it is in
        for seed in range(20):
            X = np.stack([s.x for s in elli3.sample_sphere_bundle(6, seed=seed)])
            V = np.random.default_rng(seed).standard_normal(X.shape)
            batch = elli3.inner(X, V, V)
            for i in range(len(X)):
                np.testing.assert_array_equal(batch[i], elli3.inner(X[i], V[i], V[i]),
                                              err_msg=f"seed {seed} row {i}")


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

    def test_flags_follow_the_factors(self, varying):
        # isotropic: one constant factor; homogeneous: every factor constant;
        # the ellipsoid's factor is never constant, even where k_min = k_max
        for spec, isotropic, homogeneous in [
            ("sphere:n=3", True, True), ("torus:n=2", True, True),
            ("hyperbolic:n=2", True, True), ("sphereprod:p=2,q=2", False, True),
            ("ellipsoid:a=1,b=1,c=1", False, False), ("ellipsoid", False, False),
        ]:
            model = manifolds.parse_manifold(spec)
            assert (model.isotropic, model.homogeneous) == (isotropic, homogeneous), spec
            assert not varying(model).isotropic and not varying(model).homogeneous, spec
        wavy = manifolds.chart_metric(lambda x: np.eye(2), 2)
        assert not wavy.isotropic and not wavy.homogeneous

    def test_spec_string_rebuilds_the_params(self):
        # every kind's spec string parses back to the model's parameters, a
        # torus's period included
        for spec in [*manifolds._SPECS, "torus:n=2,l=3.0", "sphere:n=3,r=0.5",
                     "hyperbolic:n=3,c=4.0", "ellipsoid:a=1,b=1.5,c=2",
                     "sphereprod:p=3,q=2,r1=1,r2=2"]:
            model = manifolds.parse_manifold(spec)
            again = manifolds.parse_manifold(model.spec_string)
            assert again.kind == model.kind and again.params == model.params, spec
        assert manifolds.parse_manifold("torus:n=2,l=3.0").spec_string == "torus:n=2,l=3.0"
        flat = manifolds.chart_metric(lambda x: np.eye(2), 2, name="flat")
        assert flat.spec_string == "chart-metric:flat"

    def test_factor_dimension_is_its_coordinate_count(self, s2xs2):
        assert manifolds.CurvatureFactor(slice(2, 5), 1.0, 1.0).dim == 3
        assert [f.dim for f in s2xs2.factors] == [2, 2]

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

    @pytest.mark.parametrize("name", ["ellipsoid", "sphereprod"])
    def test_best_chart_leaves_a_pole(self, name, all_models):
        model = all_models[name]
        x = model.base_x.copy()
        x[0] = 1e-3  # next to a pole of chart 0
        vecs = np.random.default_rng(5).standard_normal((model.dim, model.dim))
        cid, m, y, w = model.best_chart(0, x, vecs)
        ch0, ch = model.chart(0), model.chart(cid)
        assert cid != 0 and m == float(ch.margin(y)) and m > float(ch0.margin(x))
        assert np.allclose(ch.embed(y), ch0.embed(x), rtol=0.0, atol=1e-12)
        assert np.allclose(ch.tangent_to_ambient(y, w), ch0.tangent_to_ambient(x, vecs),
                           rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name", ["ellipsoid", "sphereprod", "chart-metric"])
    def test_best_chart_keeps_a_point_in_its_best_chart(self, name, all_models):
        model = all_models[name]
        x = model.base_x.copy()
        vecs = np.random.default_rng(6).standard_normal((model.dim, model.dim))
        cid, m, y, w = model.best_chart(0, x, vecs)
        assert cid == 0 and m == float(model.chart(0).margin(x))
        assert y.tobytes() == x.tobytes() and w.tobytes() == vecs.tobytes()

    @pytest.mark.parametrize("d", range(1, 7))
    def test_embedding_matches_loop_oracle(self, d):
        # one table of sine products gives the embedding and its Jacobian,
        # bit for bit and sign for sign the products of the loops
        rng = np.random.default_rng(d)
        for shape in [(d,), (5, d), (3, 4, d)]:
            for _ in range(25):
                t = rng.uniform(-4.0, 7.0, shape)
                # exact zeros of the sines and cosines, of either sign
                t.flat[rng.integers(t.size, size=2)] = rng.choice([0.0, -0.0, np.pi, np.pi / 2], 2)
                for got, want in [(charts.sphere_embed(t), loop_sphere_embed(t)),
                                  (charts.sphere_embed_jacobian(t), loop_sphere_embed_jacobian(t))]:
                    assert got.shape == want.shape
                    assert np.array_equal(got, want) and np.array_equal(np.signbit(got),
                                                                        np.signbit(want))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_sphere_charts_shift_the_pole_frame(self, n):
        # chart s of S^n puts u_i on ambient axis (i + s) % (n + 1); the sphere
        # and both factors of a sphere product take the same charts
        m = n + 1
        chs = manifolds._sphere_charts(n, 2.0)
        assert len(chs) == m
        for s, ch in enumerate(chs):
            want = np.zeros((m, m))
            want[(np.arange(m) + s) % m, np.arange(m)] = 1.0
            assert ch.radius == 2.0 and np.array_equal(ch.rotation, want)
            assert np.array_equal(manifolds.sphere(n).chart(s).rotation, want)
        s2 = manifolds._sphere_charts(2, 1.0)
        for j, ch in enumerate(manifolds.sphere_product(n, 2).charts):
            assert np.array_equal(ch.first.rotation, chs[j // 3].rotation)
            assert np.array_equal(ch.second.rotation, s2[j % 3].rotation)

    def test_margin_flags_poles(self, s2):
        assert s2.chart(0).margin(np.array([0.01, 0.0])) < 0.1
        assert s2.chart(0).margin(np.array([np.pi / 2, 0.0])) > 0.9
