import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoflow import bounds, geodesics, manifolds
from geoflow.errors import DeltaTooLargeError, IntegrationError


def jacobi_generator(model, theta):
    """The ascending eigenvalues of the Jacobi operator at theta and the
    block generator [[0, I], [-K, 0]] of the Jacobi system in their
    eigenframe, K = diag(eigenvalues)."""
    lam = model.curvature_operator(theta).eigenvalues
    return lam, bounds.generator_matrix(np.diag(lam))


class TestJacobiGenerator:
    def test_flat_block_form(self, torus2):
        _, gen = jacobi_generator(torus2, torus2.base_state())
        assert np.array_equal(gen, [[0.0, 1.0], [0.0, 0.0]])

    def test_sphere_symmetrization_vanishes(self, s2):
        _, gen = jacobi_generator(s2, s2.base_state())
        assert np.array_equal(gen, [[0.0, 1.0], [-1.0, 0.0]])
        assert np.allclose(gen + gen.T, 0.0, atol=1e-12)

    def test_hyperbolic_symmetrized_eigenvalues(self, h2):
        _, gen = jacobi_generator(h2, h2.base_state())
        w = np.linalg.eigvalsh(gen + gen.T)
        assert np.allclose(np.sort(w), [-2.0, 2.0], atol=1e-12)

    def test_symmetrized_spectrum_and_vectors(self, all_models):
        # eigenvalues +-(1 - lambda_i) with eigenvectors (e_i, +-e_i)/sqrt(2)
        for name, model in all_models.items():
            theta = model.sample_sphere_bundle(1, seed=21)[0]
            lam, gen = jacobi_generator(model, theta)
            k = model.dim - 1
            sym = gen + gen.T
            expected = np.sort(np.concatenate([1.0 - lam, -(1.0 - lam)]))
            assert np.allclose(np.sort(np.linalg.eigvalsh(sym)),
                               expected, atol=1e-10), name
            for i in range(k):
                e = np.zeros(k)
                e[i] = 1.0
                for sign in (+1.0, -1.0):
                    vec = np.concatenate([e, sign * e]) / np.sqrt(2.0)
                    val = sign * (1.0 - lam[i])
                    assert np.allclose(sym @ vec, val * vec, atol=1e-10), name

    def test_eigenvalue_identity_first_order_matrix(self, all_models):
        for name, model in all_models.items():
            theta = model.sample_sphere_bundle(1, seed=22)[0]
            lam, gen = jacobi_generator(model, theta)
            for delta in (1e-2, 1e-3):
                mat = np.eye(2 * (model.dim - 1)) + 0.5 * delta * (gen + gen.T)
                got = np.sort(np.linalg.eigvalsh(mat))
                expect = np.sort(np.concatenate(
                    [1.0 + 0.5 * delta * (1.0 - lam),
                     1.0 - 0.5 * delta * (1.0 - lam)]))
                assert np.allclose(got, expect, atol=1e-10), name


class TestFirstOrderExpansion:
    def test_unit_curvature_gives_one(self, s2, s4):
        assert bounds.first_order_expansion(s2, s2.base_state(), 0.01) == 1.0
        assert bounds.first_order_expansion(s4, s4.base_state(), 0.01) == 1.0

    def test_flat_torus(self, torus2):
        val = bounds.first_order_expansion(torus2, torus2.base_state(), 0.01)
        assert np.isclose(val, 1.005, atol=1e-15)

    def test_product_pure_direction(self, s2xs2):
        # pure first-factor direction has curvature spectrum {1, 0, 0}: two
        # flat eigendirections each contribute a factor 1 + delta/2
        v = np.zeros(4)
        v[1] = 1.0
        theta = s2xs2.unit_tangent(s2xs2.base_x, v)
        spec = s2xs2.curvature_operator(theta)
        assert np.allclose(np.sort(spec.eigenvalues), [0.0, 0.0, 1.0], atol=1e-12)
        val = bounds.first_order_expansion(s2xs2, theta, 0.01)
        assert np.isclose(val, 1.005**2, atol=1e-12)

    def test_delta_too_large(self, h2):
        # lambda = -1 so the signed first-order factor turns negative at delta = 1
        with pytest.raises(DeltaTooLargeError):
            bounds.first_order_expansion(h2, h2.base_state(), 1.5)

    def test_matches_symmetrized_matrix_expansion(self, elli):
        theta = elli.sample_sphere_bundle(1, seed=7)[0]
        delta = 1e-2
        _, gen = jacobi_generator(elli, theta)
        mat = np.eye(2) + 0.5 * delta * (gen + gen.T)
        assert np.isclose(bounds.first_order_expansion(elli, theta, delta),
                          geodesics.expansion(mat), atol=1e-12)


class TestFirstOrderResidual:
    def test_zero_delta(self, s2):
        assert bounds.first_order_residual(s2, s2.base_state(), 0.0) == 0.0

    def test_sphere_residual_small(self, s2):
        assert bounds.first_order_residual(s2, s2.base_state(), 1e-2) <= 1e-4

    def test_torus_closed_form(self, torus2):
        # Phi(delta) = [[1, d], [0, 1]]: residual -> (3/8) d^2
        delta = 1e-2
        res = bounds.first_order_residual(torus2, torus2.base_state(), delta)
        assert np.isclose(res, 3.0 * delta**2 / 8.0, rtol=1e-3)

    def test_quadratic_ratio_torus(self, torus2):
        theta = torus2.base_state()
        r1 = bounds.first_order_residual(torus2, theta, 1e-2)
        r2 = bounds.first_order_residual(torus2, theta, 5e-3)
        assert 3.5 <= r1 / r2 <= 4.5

    def test_quadratic_ratio_across_models(self, elli, s2xs2, h2, wavy):
        for model in (elli, s2xs2, h2, wavy):
            theta = model.sample_sphere_bundle(1, seed=31)[0]
            r1 = bounds.first_order_residual(model, theta, 1e-2)
            r2 = bounds.first_order_residual(model, theta, 5e-3)
            if r2 < 1e-12:  # degenerate direction: both residuals at noise level
                assert r1 < 1e-10
                continue
            assert 3.5 <= r1 / r2 <= 4.5, model.kind


class TestExpansionDefect:
    def test_constants_stable_under_halving(self, all_models):
        deltas = (1e-2, 5e-3, 2.5e-3)
        for name, model in all_models.items():
            thetas = model.sample_sphere_bundle(3, seed=17)
            out = bounds.expansion_defect_constants(model, thetas, deltas)
            consts = np.array(out["constants"])
            floor = 1e-9
            ratio = consts.max() / max(consts.min(), floor)
            assert consts.max() < 10.0, name
            assert ratio <= 2.0 or consts.max() <= floor, (name, consts)
            assert not out["flagged"], name

    def test_batch_matches_per_state_oracle(self, all_models):
        # bitwise: one propagate call per state and delta, as the constants
        # were computed before the states were batched
        deltas = (1e-2, 5e-3, 2.5e-3)
        for name, model in all_models.items():
            thetas = model.sample_sphere_bundle(3, seed=17)
            oracle = []
            for delta in deltas:
                worst = 0.0
                for theta in thetas:
                    res = geodesics.propagate(model, theta, [delta], step=min(1e-3, delta / 20.0))
                    defect = abs(geodesics.expansion(res.phi[0, 0])
                                 - bounds.first_order_expansion(model, theta, delta))
                    worst = max(worst, defect / delta**2)
                oracle.append(worst)
            out = bounds.expansion_defect_constants(model, thetas, deltas)
            assert out["constants"] == oracle, name

    def test_constants_pinned(self, all_models):
        # the constants of the per-state frame and spectrum the batched
        # curvature operator replaced, as floats
        want = {
            "sphere": [0.0, 1.7763568394002505e-11, 7.105427357601002e-11],
            "torus": [0.12499921876019116, 0.1249998046848333, 0.12499995118986362],
            "hyperbolic": [0.501670841677182, 0.5008343760604106, 0.5004169271671799],
            "ellipsoid": [0.06580356883389982, 0.06588691867648322, 0.06592844165709266],
            "sphereprod": [0.2491163279372266, 0.2485010912867125, 0.24819345373572332],
            "chart-metric": [0.1504298641630264, 0.15040161830626175, 0.1503885987119702],
        }
        for name, model in all_models.items():
            thetas = model.sample_sphere_bundle(3, seed=17)
            assert bounds.expansion_defect_constants(model, thetas)["constants"] == want[name], name

    def test_rejects_a_vector_that_is_not_unit(self, elli):
        thetas = elli.sample_sphere_bundle(3, seed=17)
        thetas[1].v = 2.0 * thetas[1].v
        with pytest.raises(ValueError, match="not unit"):
            bounds.expansion_defect_constants(elli, thetas)

    def test_failed_state_raises(self, elli):
        # two copies of one ellipsoid chart: the state heading into its pole
        # runs out of charts while the other state of the batch integrates
        model = manifolds.ManifoldModel(**{**elli.__dict__,
                                           "charts": [elli.chart(0), elli.chart(0)]})
        doomed = model.unit_tangent(np.array([0.3, 0.3]), np.array([-1.0, 0.0]))
        fine = model.unit_tangent(np.array([1.5, 0.3]), np.array([0.0, 1.0]))
        with pytest.raises(IntegrationError) as err:
            bounds.expansion_defect_constants(model, [fine, doomed], deltas=(0.6,))
        # the doomed state alone, as it failed: in chart 0, down its meridian
        # phi = 0.3 to below the margin floor
        ids, x, v = err.value.last_state
        assert ids.tolist() == [0] and x.shape == v.shape == (1, 2)
        assert x[0, 0] < 0.3 and x[0, 1] == pytest.approx(0.3)
        assert model.chart(0).margin(x[0]) < manifolds.MARGIN_FLOOR


class TestClosedFormBounds:
    def test_space_form_sharpness(self):
        for n in (2, 3, 4, 6):
            assert bounds.curvature_entropy_bound(n, 1.0, n - 1.0) == 0.0

    def test_known_values(self):
        assert bounds.curvature_entropy_bound(4, 1.0, 1.0) == 1.0
        assert bounds.curvature_entropy_bound(2, 1.0, -1.0) == 1.0
        assert bounds.nonpositive_entropy_bound(2, -1.0) == 1.0
        assert bounds.nonpositive_entropy_bound(2, 0.0) == 0.0
        assert bounds.nonpositive_entropy_bound(2, -4.0) == 2.0
        assert bounds.manning_entropy_bound(2, 1.0) == 1.0
        assert bounds.manning_entropy_bound(4, 1.0) == 3.0
        assert bounds.manning_entropy_bound(3, 4.0) == 4.0

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            bounds.curvature_entropy_bound(3, 0.0, 1.0)
        with pytest.raises(ValueError):
            bounds.curvature_entropy_bound(3, -1.0, 0.0)
        with pytest.raises(ValueError):
            bounds.nonpositive_entropy_bound(3, 0.5)
        with pytest.raises(ValueError):
            bounds.manning_entropy_bound(3, 0.0)

    def test_hyperbolic_forms_recover_volume_entropy(self):
        for n in (2, 3, 5):
            # constant curvature -1: min_ricci = -(n-1), entropy n-1
            assert np.isclose(bounds.nonpositive_entropy_bound(n, -(n - 1.0)),
                              n - 1.0, atol=1e-12)

    @given(st.integers(2, 8), st.floats(0.1, 10.0), st.floats(-10.0, 10.0))
    @settings(max_examples=80, deadline=None)
    def test_rescaling_identity(self, n, k, r_min):
        # the bound transforms like the entropy under g -> k g
        lhs = bounds.curvature_entropy_bound(n, k, r_min)
        rhs = math.sqrt(k) * bounds.curvature_entropy_bound(n, 1.0, r_min / k)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @given(st.integers(2, 8), st.floats(0.1, 10.0), st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_dominated_by_manning(self, n, k, frac):
        # whenever min_ricci >= -(n-1)k the curvature bound refines Manning's
        r_min = -frac * (n - 1) * k
        assert bounds.curvature_entropy_bound(n, k, r_min) <= \
            bounds.manning_entropy_bound(n, k) + 1e-12

    def test_table_leaves_out_what_does_not_apply(self):
        # the bounds geoflow bound reports, in its order, None where a bound
        # needs a curvature sign the model does not have
        g2, g4 = bounds.grossman_counting_rate(2), bounds.grossman_counting_rate(4)
        cases = {
            "sphere:n=2": (0.0, 1.0, g2, None),
            "torus:n=2": (None, None, g2, 0.0),
            "hyperbolic:n=2,c=4.0": (None, 2.0, g2, 2.0),
            "sphereprod:p=2,q=2": (1.0, 3.0, g4, None),
        }
        for spec, want in cases.items():
            model = manifolds.parse_manifold(spec)
            table = bounds.closed_form_bounds(model.dim, *model.extremal_curvatures())
            assert list(table) == ["theorem_b", "manning", "grossman", "nonpositive"]
            assert tuple(table.values()) == want, spec

    @pytest.mark.parametrize("k_max, k_min, name", [(1.0, 0.0, "theorem_b"),
                                                   (0.0, 0.0, "nonpositive"),
                                                   (-1.0, -4.0, "nonpositive")])
    def test_checked_bound(self, k_max, k_min, name):
        # an estimate is checked against Theorem B where k_max > 0, else
        # against the non-positive bound
        min_ricci = 2 * k_min
        want = bounds.closed_form_bounds(3, k_max, k_min, min_ricci)[name]
        assert want is not None
        assert bounds.checked_bound(3, k_max, k_min, min_ricci) == (name, want)

    def test_grossman_values(self):
        assert abs(bounds.grossman_counting_rate(2) - 0.8103) < 5e-5
        assert abs(bounds.grossman_counting_rate(4) - 3 * 0.8103) < 1e-3
        assert bounds.grossman_counting_rate(4) > bounds.curvature_entropy_bound(4, 1.0, 0.0)
        assert bounds.curvature_entropy_bound(4, 1.0, 1.0) < bounds.grossman_counting_rate(4)
        with pytest.raises(ValueError):
            bounds.grossman_counting_rate(1)


def test_symmetric_sqrt():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4))
    spd = a @ a.T + 4.0 * np.eye(4)
    root = bounds.symmetric_sqrt(spd)
    assert np.allclose(root @ root, spd, atol=1e-10)
    with pytest.raises(ValueError):
        bounds.symmetric_sqrt(np.diag([1.0, -1.0]))
