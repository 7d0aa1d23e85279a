import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from geoflow import charts, geodesics, manifolds
from geoflow.errors import IntegrationError


def brute_force_expansion(m, trials=4000, seed=0):
    """Independent oracle: maximize |det of the restriction| over random
    subspaces of every dimension, via Gram volume distortion."""
    m = np.asarray(m, dtype=float)
    d = m.shape[0]
    rng = np.random.default_rng(seed)
    best = 0.0
    gram = m.T @ m
    for k in range(1, d + 1):
        for _ in range(trials // d):
            q, _ = np.linalg.qr(rng.standard_normal((d, k)))
            val = np.sqrt(abs(np.linalg.det(q.T @ gram @ q)))
            best = max(best, val)
    return best


def singular_values_jacobi(m, max_sweeps=60, tol=1e-14):
    """Oracle: singular values by one-sided Jacobi iteration, descending."""
    A = np.array(m, dtype=float)
    d = A.shape[0]
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(d - 1):
            for q in range(p + 1, d):
                ap = A[:, p]
                aq = A[:, q]
                app = float(ap @ ap)
                aqq = float(aq @ aq)
                apq = float(ap @ aq)
                if app * aqq == 0.0 or abs(apq) <= tol * np.sqrt(app * aqq):
                    continue
                off = max(off, abs(apq) / np.sqrt(app * aqq))
                zeta = (aqq - app) / (2.0 * apq)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta)) if zeta != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                A[:, p], A[:, q] = c * ap - s * aq, s * ap + c * aq
        if off < tol:
            break
    sv = np.sqrt(np.sum(A * A, axis=0))
    sv.sort()
    return sv[::-1]


def assemble(blocks, Q):
    """Oracle layout: the 2k x 2k Phi (..., B, 2k, 2k) in the frame where
    K = Q diag(lam) Q^T, from its 2 x 2 blocks (..., B, k, 2, 2) in K's
    eigenframe: the quadrant (r, c) of Phi is Q diag(blocks[..., r, c]) Q^T,
    so Phi = diag(Q, Q) P diag(Q, Q)^T with P the blocks interleaved."""
    Qt = np.swapaxes(Q, -1, -2)
    return np.block([[(Q * blocks[..., None, :, r, c]) @ Qt for c in (0, 1)] for r in (0, 1)])


class TestExpansion:
    def test_identity(self):
        assert geodesics.expansion(np.eye(3)) == 1.0

    def test_single_expanding_direction(self):
        assert geodesics.expansion(np.diag([2.0, 0.5])) == 2.0

    def test_product_of_top_singular_values(self):
        m = np.diag([3.0, 2.0, 0.25])
        assert geodesics.expansion(m) == 6.0
        assert brute_force_expansion(m) == pytest.approx(6.0, rel=1e-3)

    def test_all_contracting_returns_top(self):
        m = np.diag([0.5, 0.2])
        assert geodesics.expansion(m) == 0.5
        assert brute_force_expansion(m) == pytest.approx(0.5, rel=1e-3)

    def test_brute_force_oracle_random(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            m = rng.standard_normal((3, 3))
            assert brute_force_expansion(m) <= geodesics.expansion(m) * (1 + 1e-6)
            assert brute_force_expansion(m) >= geodesics.expansion(m) * 0.98

    def test_orthogonal_has_expansion_one(self):
        rng = np.random.default_rng(1)
        for d in (2, 4, 6):
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            assert abs(geodesics.expansion(q) - 1.0) < 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            geodesics.expansion(np.ones((2, 3)))
        with pytest.raises(ValueError):
            geodesics.expansion(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    @given(hnp.arrays(np.float64, (4, 4), elements=st.floats(-3, 3)))
    @settings(max_examples=60, deadline=None)
    def test_jacobi_svd_matches_lapack(self, m):
        ours = singular_values_jacobi(m)
        ref = np.linalg.svd(m, compute_uv=False)
        assert np.allclose(ours, ref, atol=1e-10)

    def test_stack_matches_jacobi_oracle(self):
        rng = np.random.default_rng(7)
        stack = rng.standard_normal((5, 4, 6, 6)) * rng.uniform(0.1, 3.0, (5, 4, 1, 1))
        got = geodesics.expansion(stack)
        assert got.shape == (5, 4)
        want = np.array([[np.max(np.cumprod(singular_values_jacobi(m))) for m in row]
                         for row in stack])
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        assert geodesics.expansion(stack[2, 1]) == got[2, 1]

    @given(hnp.arrays(np.float64, (3, 3), elements=st.floats(-2, 2)),
           hnp.arrays(np.float64, (3, 3), elements=st.floats(-2, 2)))
    @settings(max_examples=60, deadline=None)
    def test_submultiplicative(self, a, b):
        ex_ab = geodesics.expansion(a @ b)
        assert ex_ab <= geodesics.expansion(a) * geodesics.expansion(b) * (1 + 1e-9)


class TestGeodesicIntegration:
    def test_torus_straight_line(self, torus2):
        theta = torus2.unit_tangent(np.zeros(2), np.array([1.0, 0.0]))
        end = geodesics.propagate(torus2, theta, [1.0], step=1e-2, jacobi=False)
        assert np.allclose(end.x[0], [1.0, 0.0], atol=1e-12)
        # wrap at a full period
        end = geodesics.propagate(torus2, theta, [2 * np.pi], step=1e-2, jacobi=False)
        wrapped = np.mod(end.x[0], torus2.chart(0).periods)
        assert np.allclose(wrapped, [0.0, 0.0], atol=1e-9)

    def test_sphere_great_circle_closes(self, s2):
        theta = s2.unit_tangent(np.array([np.pi / 2, 0.0]), np.array([0.0, 1.0]))
        end = geodesics.propagate(s2, theta, [2 * np.pi], step=1e-3, jacobi=False)
        p0 = s2.chart(0).embed(theta.x)
        p1 = s2.chart(int(end.chart_ids[0])).embed(end.x[0])
        assert np.linalg.norm(p1 - p0) < 1e-6

    def test_geodesic_through_pole_switches_chart(self, s2):
        theta = s2.unit_tangent(np.array([np.pi / 2, 0.0]), np.array([-1.0, 0.0]))
        end = geodesics.propagate(s2, theta, [np.pi], step=1e-3, jacobi=False)
        p0 = s2.chart(0).embed(theta.x)
        p1 = s2.chart(int(end.chart_ids[0])).embed(end.x[0])
        assert np.isclose(p0 @ p1, -1.0, atol=1e-8)  # antipode reached

    def test_start_heading_into_pole(self, elli):
        # starts 0.03 from the chart-0 pole, heading 0.01 rad off straight
        # into it: the pole is crossed before the first periodic chart check
        x = np.array([0.03, 0.3])
        g = elli.chart(0).metric(x)
        v = np.array([-np.cos(0.01) / np.sqrt(g[0, 0]), np.sin(0.01) / np.sqrt(g[1, 1])])
        theta = elli.unit_tangent(x, v)
        res = geodesics.propagate(elli, theta, [0.5], step=1e-2)
        phi, frame0 = res.phi[0, 0], res.frames0[0]
        assert np.all(np.isfinite(phi))
        assert res.speed_drift[0] <= 1e-6
        assert abs(np.linalg.det(phi) - 1.0) <= 1e-6
        # the initial frame stays in the caller's chart
        k = frame0 @ g @ np.concatenate([frame0, theta.v[None]]).T
        assert np.allclose(k, [[1.0, 0.0]], atol=1e-12)

    def test_unit_speed_preserved(self, all_models):
        # drift scales like step^4; the 1e-8 contract holds at the default
        # step 1e-3 and is spot-checked there on the sphere below
        for name, model in all_models.items():
            theta = model.sample_sphere_bundle(1, seed=4)[0]
            end = geodesics.propagate(model, theta, [5.0], step=5e-3, jacobi=False)
            assert end.speed_drift[0] <= 1e-7, name

    def test_unit_speed_default_step_long_run(self, s2):
        theta = s2.unit_tangent(np.array([np.pi / 2, 0.2]), np.array([0.5, 1.0]))
        end = geodesics.propagate(s2, theta, [20.0], step=1e-3, jacobi=False)
        assert end.speed_drift[0] <= 1e-8

    def test_step_validation(self, s2):
        theta = s2.base_state()
        with pytest.raises(ValueError):
            geodesics.propagate(s2, theta, [1.0], step=0.0, jacobi=False)
        with pytest.raises(ValueError):
            geodesics.propagate(s2, theta, [-1.0], jacobi=False)
        # an infinite step takes one RK4 step per grid interval, a nan step
        # none, and an infinite grid time is never reached; both integrators
        # share the check
        for grid, step in [([1.0], np.inf), ([1.0], np.nan), ([1.0, np.inf], 1e-2),
                           ([np.nan], 1e-2)]:
            with pytest.raises(ValueError, match="finite"):
                geodesics.propagate(s2, theta, grid, step=step)
            with pytest.raises(ValueError, match="finite"):
                geodesics.propagate_jacobi(np.ones((1, 1)), grid, step=step)
        # the radial integral reads Phi, which only the Jacobi system carries
        with pytest.raises(ValueError, match="Jacobi"):
            geodesics.propagate(s2, theta, [0.5], jacobi=False, accumulate_radial=True)

    def test_step_is_the_largest_step(self, s2, monkeypatch):
        # a step longer than the grid spacing is cut onto each grid time
        widths = []
        rk4_step = geodesics._rk4_step

        def spy(model, chart, Y, h, stages):
            widths.append(h)
            return rk4_step(model, chart, Y, h, stages)

        monkeypatch.setattr(geodesics, "_rk4_step", spy)
        geodesics.propagate(s2, s2.base_state(), [0.5, 1.0], step=10.0)
        assert widths == [0.5, 0.5]

    def test_empty_batch_rejected(self, s2):
        with pytest.raises(ValueError, match="at least one"):
            geodesics.propagate(s2, [], [1.0])

    def test_chart_exhaustion(self, elli):
        # two copies of one ellipsoid chart: heading straight into its pole,
        # no chart is better, and the trajectory fails below MARGIN_FLOOR
        model = manifolds.ManifoldModel(**{**elli.__dict__,
                                           "charts": [elli.chart(0), elli.chart(0)]})
        x = np.array([0.3, 0.3])
        theta = model.unit_tangent(x, np.array([-1.0, 0.0]))
        with pytest.raises(IntegrationError) as err:
            geodesics.propagate(model, theta, [0.6], step=1e-3, jacobi=False)
        chart_ids, x, v = err.value.last_state
        assert model.chart(0).margin(x[0]) < geodesics.MARGIN_FLOOR

    def test_coarse_step_checks_charts_by_arclength(self):
        # at step 4e-2 a margin check every 10 steps let rows cross a pole of
        # the prolate ellipsoid unseen and turn non-finite; every 2 steps
        # (0.08 in arclength) keeps all 100 rows of this batch to t = 8
        model = manifolds.ellipsoid(1.0, 1.0, 2.0)
        states = model.sample_sphere_bundle(100, seed=5)
        res = geodesics.propagate(model, states, np.linspace(0.8, 8.0, 25), step=4e-2)
        assert not res.failed.any()

    @pytest.mark.parametrize("v", [[1.0, 0.0], [0.0, 1.0]])
    def test_hyperbolic_long_geodesic(self, h2, v):
        # the one horospherical chart reaches t = 300 along d_t and sideways
        theta = h2.unit_tangent(h2.base_x, np.array(v))
        end = geodesics.propagate(h2, theta, [300.0], step=5e-2, jacobi=False)
        assert end.chart_ids[0] == 0 and np.all(np.isfinite(end.x[0]))
        assert end.speed_drift[0] <= 1e-6

    def test_hyperbolic_overflow_fails(self, h2):
        # e^{2t} would overflow past t = 354; the trajectory leaves the
        # chart's reach at t = 340 first, so no numpy warning is raised
        with pytest.raises(IntegrationError, match="reach") as err:
            geodesics.propagate(h2, h2.base_state(), [400.0], step=5e-2, jacobi=False)
        _, x, v = err.value.last_state
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(v))

    def test_radial_overflow_fails_the_rows(self):
        # in dimension 4 |det Phi[:k, k:]| = sinh(t)^3 overflows near t = 237,
        # before the geodesic's reach at 340; the rows fail as non-finite,
        # from finite last states
        model = manifolds.hyperbolic(4)
        with pytest.raises(IntegrationError, match="non-finite") as err:
            geodesics.propagate(model, model.sample_sphere_bundle(2, seed=1), [300.0],
                                step=0.2, accumulate_radial=True)
        _, x, v = err.value.last_state
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(v))

    def test_hyperbolic_reach(self, caplog):
        # rows heading to t -> +inf and t -> -inf fail with reason "reach"
        # once kappa |t| passes 340, checked every 2 steps (0.1 in arclength)
        # at step 5e-2; their last states are finite, and each failed row is
        # logged once.  A row starting at t = -100 ends at t = 250 and does
        # not fail
        model = manifolds.hyperbolic(2, 4.0)
        states = [model.unit_tangent([0.0, 0.0], [1.0, 0.0]),
                  model.unit_tangent([0.0, 0.0], [-1.0, 0.0]),
                  model.unit_tangent([-100.0, 0.0], [1.0, 0.0])]
        with caplog.at_level("WARNING", logger=geodesics.log.name):
            res = geodesics.propagate(model, states, [100.0, 175.0], step=5e-2)
        assert [r.getMessage().split(" in chart")[0] for r in caplog.records] == [
            "trajectory 0 failed (reach)", "trajectory 1 failed (reach)"]
        assert res.reason.tolist() == ["reach", "reach", ""]
        assert res.failed.tolist() == [True, True, False]
        chart_ids, x, v = res.lost
        assert chart_ids.tolist() == [0, 0, -1]
        assert np.all(np.isfinite(x[:2])) and np.all(np.isfinite(v[:2]))
        reach = charts.HYPERBOLIC_REACH / 2.0
        assert np.all((reach < np.abs(x[:2, 0])) & (np.abs(x[:2, 0]) <= reach + 0.1))
        assert res.x[2, 0] == pytest.approx(75.0, abs=1e-9)

    def test_fourth_order_convergence(self, s2):
        theta = s2.unit_tangent(np.array([np.pi / 2, 0.0]), np.array([0.0, 1.0]))
        errs = []
        for h in (0.02, 0.01):
            phi = geodesics.propagate(s2, theta, [2.0], step=h).phi[0, 0]
            closed = np.array([[np.cos(2.0), np.sin(2.0)],
                               [-np.sin(2.0), np.cos(2.0)]])
            errs.append(np.abs(phi - closed).max())
        assert errs[0] / errs[1] >= 14.0


class TestJacobiPropagation:
    def test_phi0_is_identity(self, s2):
        res = geodesics.propagate(s2, s2.base_state(), [0.0])
        assert np.array_equal(res.phi[0, 0], np.eye(2))
        assert np.array_equal(res.frames0, res.frames)

    def test_torus_shear_blocks(self, torus2):
        theta = torus2.unit_tangent(np.zeros(2), np.array([1.0, 0.0]))
        phi = geodesics.propagate(torus2, theta, [2.5], step=1e-2).phi[0, 0]
        assert np.allclose(phi, [[1.0, 2.5], [0.0, 1.0]], atol=1e-12)

    def test_sphere_rotation_blocks(self, s2):
        theta = s2.unit_tangent(np.array([np.pi / 2, 0.0]), np.array([0.0, 1.0]))
        for t in (1.0, 4.0, 10.0):
            phi = geodesics.propagate(s2, theta, [t], step=1e-3).phi[0, 0]
            closed = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
            assert np.abs(phi - closed).max() < 1e-6

    def test_hyperbolic_cosh_blocks(self, h2):
        theta = h2.base_state()
        for t in (1.0, 3.0):
            phi = geodesics.propagate(h2, theta, [t], step=1e-3).phi[0, 0]
            closed = np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]])
            assert np.abs(phi / closed - 1.0).max() < 1e-6

    def test_unit_determinant_all_models(self, all_models):
        for name, model in all_models.items():
            theta = model.sample_sphere_bundle(1, seed=8)[0]
            res = geodesics.propagate(model, theta, [2.0, 6.0, 10.0], step=5e-3)
            dets = np.linalg.det(res.phi[:, 0])
            assert np.abs(dets - 1.0).max() <= 1e-6, (name, dets)

    def test_frame_orthonormal_along_trajectory(self, elli):
        # the run to the earlier grid time ends where the longer run passes it
        theta = elli.sample_sphere_bundle(1, seed=2)[0]
        for grid in ([3.0], [3.0, 7.0]):
            res = geodesics.propagate(elli, theta, grid, step=1e-3)
            g = elli.chart(int(res.chart_ids[0])).metric(res.x[0])
            vecs = np.vstack([res.v[0][None, :], res.frames[0]])
            gram = vecs @ g @ vecs.T
            assert np.abs(gram - np.eye(2)).max() < 1e-8

    def test_flow_property(self, elli, s2xs2):
        # Phi_theta(t+s) = Phi_{flow_s theta}(t) Phi_theta(s), matrices taken
        # in the transported frames
        for model in (elli, s2xs2):
            theta = model.sample_sphere_bundle(1, seed=6)[0]
            s, t = 1.3, 2.1
            res = geodesics.propagate(model, theta, [s, s + t], step=1e-3)
            phi_s = res.phi[0, 0]
            phi_st = res.phi[1, 0]
            # the state at s is the end of the run to s
            head = geodesics.propagate(model, theta, [s], step=1e-3)
            mid = manifolds.TangentState(int(head.chart_ids[0]), head.x[0], head.v[0])
            res2 = geodesics.propagate(model, mid, [t], step=1e-3,
                                       frames0=head.frames[0][None])
            assert np.abs(res2.phi[0, 0] @ phi_s - phi_st).max() < 1e-6

    def test_row_alone_matches_row_in_batch(self, elli, elli3, wavy, s2xs2):
        # bitwise: a row's result does not depend on the size of its batch;
        # the batches of the models that switch span more than one chart, and
        # frame_drift is each row's own
        grid = [1.5, 3.0]
        for model in (elli, elli3, wavy, manifolds.sphere(3), s2xs2):
            charts_seen = set()
            for seed in range(1, 7):
                states = model.sample_sphere_bundle(6, seed=seed)
                batch = geodesics.propagate(model, states, grid, step=1e-2)
                # the charts at the earlier grid time end the run to it
                head = geodesics.propagate(model, states, grid[:1], step=1e-2)
                charts_seen |= {int(c) for res in (head, batch) for c in res.chart_ids}
                for i, theta in enumerate(states):
                    alone = geodesics.propagate(model, theta, grid, step=1e-2)
                    for got, want in ((alone.x[0], batch.x[i]), (alone.v[0], batch.v[i]),
                                      (alone.phi[:, 0], batch.phi[:, i]),
                                      (alone.speed_drift[0], batch.speed_drift[i]),
                                      (alone.frame_drift[0], batch.frame_drift[i])):
                        np.testing.assert_array_equal(
                            got, want, err_msg=f"{model.spec_string} seed {seed} row {i}")
            assert len(charts_seen) >= min(2, len(model.charts)), model.spec_string

    def test_batch_matches_the_list_of_its_rows(self, elli, s2xs2, wavy):
        # bitwise: a batch and the list of its rows are one input; the
        # switching models' rows start in several charts
        grid = [0.5, 1.0]
        for model in (elli, s2xs2, wavy):
            states = model.sample_sphere_bundle(6, seed=11)
            if len(model.charts) > 1:
                X, V, ids = spread_over_charts(model, states, 3)
                assert len(set(ids)) > 1, model.spec_string
                states = manifolds.TangentState(ids, X, V)
            runs = [geodesics.propagate(model, given_, grid, step=1e-2, accumulate_radial=True)
                    for given_ in (states, list(states))]
            for name in ("chart_ids", "x", "v", "frames0", "frames", "phi", "radial", "reason",
                         "speed_drift", "frame_drift"):
                np.testing.assert_array_equal(getattr(runs[0], name), getattr(runs[1], name),
                                              err_msg=f"{model.spec_string} {name}")

    @pytest.mark.parametrize("spec", ["ellipsoid:a=1,b=1,c=2", "sphereprod:p=2,q=2",
                                      "hyperbolic:n=2"])
    def test_run_to_an_earlier_time_is_a_prefix(self, spec, monkeypatch):
        # bitwise: the packed state at the end of a run to s is the state the
        # run to a later grid time enters its first step past s with
        model = manifolds.parse_manifold(spec)
        states = model.sample_sphere_bundle(4, seed=3)
        s, step = 1.5, 1e-2
        entering = []
        rk4_step = geodesics._rk4_step

        def spy(model, chart, Y, h, stages):
            entering.append(Y.copy())
            return rk4_step(model, chart, Y, h, stages)

        monkeypatch.setattr(geodesics, "_rk4_step", spy)
        head = geodesics.propagate(model, states, [s], step=step, accumulate_radial=True)
        steps = len(entering)
        full = geodesics.propagate(model, states, [s, 3.0], step=step, accumulate_radial=True)
        n = model.dim
        X, W, Phi = geodesics._unpack(entering[2 * steps], n, True)
        np.testing.assert_array_equal(X, head.x)
        np.testing.assert_array_equal(W[:, 0], head.v)
        np.testing.assert_array_equal(W[:, 1:], head.frames)
        np.testing.assert_array_equal(Phi, head.phi[0])
        np.testing.assert_array_equal(full.phi[0], head.phi[0])
        np.testing.assert_array_equal(full.radial[0], head.radial[0])

    def test_split_submultiplicativity_along_flow(self, elli):
        theta = elli.sample_sphere_bundle(1, seed=12)[0]
        res = geodesics.propagate(elli, theta, [2.0, 5.0], step=1e-2)
        phi_s, phi_t = res.phi[0, 0], res.phi[1, 0]
        leg = phi_t @ np.linalg.inv(phi_s)
        ex_t = geodesics.expansion(phi_t)
        assert ex_t <= geodesics.expansion(leg) * geodesics.expansion(phi_s) * (1 + 1e-9)


class TestJacobiOnly:
    """``propagate_jacobi`` advances Phi of a constant Jacobi matrix per row
    by RK4's step matrix, over the grid march of ``propagate``."""

    @pytest.mark.parametrize("spec", ["sphere:n=2", "sphere:n=4", "hyperbolic:n=3", "torus:n=2"])
    def test_matches_propagate_without_reorthonormalization(self, spec, monkeypatch):
        # the same RK4 method and step, so only the rounding differs: 1e-12
        # relative.  Re-orthonormalization multiplies propagate's Phi by a
        # frame correction M = I up to rounding, so it is moved out of reach
        monkeypatch.setattr(geodesics, "ORTHO_EVERY", 10**9)
        model = manifolds.parse_manifold(spec)
        states = model.sample_sphere_bundle(6, seed=2)
        grid = np.linspace(0.4, 4.0, 5)
        full = geodesics.propagate(model, states, grid, step=1e-2, accumulate_radial=True)
        lam, Q = np.linalg.eigh(model.curvature_frame_matrix(states.x, states.v, full.frames0))
        phi, radial = geodesics.propagate_jacobi(lam, grid, step=1e-2, accumulate_radial=True)
        np.testing.assert_allclose(assemble(phi, Q), full.phi, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(radial, full.radial, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("spec", ["sphereprod:p=2,q=2", "sphereprod:p=2,q=3,r1=1,r2=2"])
    def test_sphere_product_matches_propagate(self, spec):
        # a product of space forms is locally symmetric: K in propagate's
        # parallel frame stays K(0), and propagate's Phi differs by the error
        # of its geodesic and frame integration, which reaches K.  Bound,
        # fixed before the first run: 1e-6 of the largest entry
        model = manifolds.parse_manifold(spec)
        states = model.sample_sphere_bundle(8, seed=5)
        grid = np.linspace(0.4, 4.0, 5)
        full = geodesics.propagate(model, states, grid, step=1e-2)
        lam, Q = np.linalg.eigh(model.curvature_frame_matrix(states.x, states.v, full.frames0))
        phi, _ = geodesics.propagate_jacobi(lam, grid, step=1e-2)
        assert np.abs(assemble(phi, Q) - full.phi).max() <= 1e-6 * np.abs(full.phi).max()

    @pytest.mark.parametrize("spec", ["sphere:n=2", "sphere:n=3", "hyperbolic:n=2",
                                      "hyperbolic:n=3", "torus:n=2"])
    def test_space_form_matches_the_closed_form(self, spec):
        # Phi(t) = [[c I, s I], [-kappa s I, c I]] with c, s = cos t, sin t
        # (kappa = 1), cosh t, sinh t (kappa = -1) or 1, t (kappa = 0).  RK4's
        # truncation bound, fixed before the first run: A's eigenvalues are
        # 0 or +-sqrt(-kappa), of modulus at most 1, so one step misses
        # e^(h lambda) by at most h^5 e^h / 120 and N = t / h steps by N times
        # that, grown by at most e^t on hyperbolic space (and not at all where
        # |R(h lambda)| <= 1); each entry of Phi is a combination of e^(t lambda)
        # with weights of modulus at most 1.  N steps may add 8 N ulps of
        # the largest entry in rounding
        model = manifolds.parse_manifold(spec)
        kappa, k = model.factors[0].k_max, model.dim - 1
        states = model.sample_sphere_bundle(1, seed=3)
        lam, Q = np.linalg.eigh(model.curvature_frame_matrix(
            states.x, states.v, model.orthonormal_frame(states.x, states.v)))
        grid, h = np.array([0.5, 1.0, 2.0, 4.0]), 0.05
        phi = assemble(geodesics.propagate_jacobi(lam, grid, step=h)[0], Q)
        c, s = {1.0: (np.cos(grid), np.sin(grid)), -1.0: (np.cosh(grid), np.sinh(grid)),
                0.0: (np.ones_like(grid), grid)}[kappa]
        eye = np.eye(k)
        want = np.block([[c[:, None, None] * eye, s[:, None, None] * eye],
                         [-kappa * s[:, None, None] * eye, c[:, None, None] * eye]])
        steps = np.round(grid / h)
        grow = np.exp(grid) if kappa < 0 else 1.0
        scale = np.abs(want).max(axis=(1, 2))
        bound = grid * h**4 * np.exp(h) / 120.0 * grow + 8 * steps * np.finfo(float).eps * scale
        err = np.abs(phi[:, 0] - want).max(axis=(1, 2))
        assert np.all(err <= bound), (err, bound)

    def test_integrates_no_geodesic(self):
        # one Phi per row and its radial integral, from the identity at time 0
        blocks, radial = geodesics.propagate_jacobi(np.ones((1, 1)), [0.0, 1.0], step=1e-2,
                                                    accumulate_radial=True)
        phi = assemble(blocks, np.ones((1, 1, 1)))
        assert phi.shape == (2, 1, 2, 2) and radial.shape == (2, 1)
        assert np.array_equal(phi[0, 0], np.eye(2)) and radial[0, 0] == 0.0

    def test_radial_integral_is_optional(self, s2xs2):
        # as in propagate: without accumulate_radial there is no radial
        # integral, and Phi is bitwise the same
        states = s2xs2.sample_sphere_bundle(5, seed=1)
        lam, Q = np.linalg.eigh(s2xs2.curvature_frame_matrix(
            states.x, states.v, s2xs2.orthonormal_frame(states.x, states.v)))
        grid = [0.3, 0.7, 1.0]
        phi, radial = geodesics.propagate_jacobi(lam, grid, step=1e-1)
        with_radial = geodesics.propagate_jacobi(lam, grid, step=1e-1, accumulate_radial=True)
        assert radial is None and with_radial[1].shape == (3, 5)
        assert np.array_equal(assemble(phi, Q), assemble(with_radial[0], Q))

    def test_hyperbolic_passes_the_geodesic_reach(self):
        # Phi grows like e^t / 2 and stays finite past the geodesic's reach;
        # RK4's relative error of cosh is about T h^4 / 120 = 2e-5 here
        # and the trapezoid's of the radial integral cosh T - 1 about h^2 / 12
        blocks, radial = geodesics.propagate_jacobi(-np.ones((1, 1)), [400.0], step=5e-2,
                                                    accumulate_radial=True)
        phi = assemble(blocks, np.ones((1, 1, 1)))
        assert phi[0, 0, 0, 0] == pytest.approx(np.cosh(400.0), rel=1e-4)
        assert radial[0, 0] == pytest.approx(np.cosh(400.0) - 1.0, rel=1e-3)

    def test_radial_overflow_fails_the_rows(self):
        # in dimension 3 |det Phi[:k, k:]| = sinh(t)^2 overflows near
        # t = 355.6, while Phi stays finite up to 709: the run fails at the
        # first grid time after it, without numpy's overflow warning, though
        # the overflow falls inside a block of the radial trapezoid
        lam = np.full((1, 2), -1.0)
        _, radial = geodesics.propagate_jacobi(lam, [300.0, 350.0], step=0.1,
                                               accumulate_radial=True)
        assert np.all(np.isfinite(radial))
        for grid in ([300.0, 400.0], [300.0, 350.0, 360.0]):
            with pytest.raises(IntegrationError, match="non-finite"):
                geodesics.propagate_jacobi(lam, grid, step=0.1, accumulate_radial=True)


def per_step_march(t_grid, step, Y, Phi, advance, fail, accumulate_radial=False):
    """Oracle of ``_march`` with the radial integral: the march with one
    ``advance(h, 1)`` per step, which returns that step's |det Phi[:k, k:]|,
    each followed by acc = acc + 0.5 * h * (f_prev + f_cur), from
    f_prev = 0 at Phi = I."""
    assert accumulate_radial
    G, B = len(t_grid), len(Y)
    phi_rec, radial = np.empty((G,) + Phi.shape), np.zeros((G, B))
    acc = np.zeros(B)
    f_prev = np.zeros(B)
    t = 0.0
    for gi, target in enumerate(t_grid):
        with np.errstate(over="ignore", invalid="ignore"):
            while t < target - 1e-12:
                h = min(step, target - t)
                f_cur = advance(h, 1)[0]
                t += h
                acc = acc + 0.5 * h * (f_prev + f_cur)
                f_prev = f_cur
        t = float(target)
        finite = np.isfinite(Y).all(axis=-1) & np.isfinite(acc)
        if not finite.all():
            fail(np.flatnonzero(~finite), "non-finite")
        phi_rec[gi] = Phi
        radial[gi] = acc
    return phi_rec, radial


def block_grid(h):
    """A grid of step h: a first interval of more than two RADIAL_BLOCKs of
    steps that ends in a clipped step, an interval of one step, one of one
    clipped step, and one of 21 steps."""
    t0 = (2 * geodesics.RADIAL_BLOCK + 5.5) * h
    return np.array([t0, t0 + h, t0 + 1.3 * h, t0 + 21.6 * h])


class TestRadialBlocks:
    """``_march`` steps in runs of at most RADIAL_BLOCK steps, with one
    batched |det| and one running sum per run: ``propagate``'s radial
    trapezoid is bit for bit the per-step one of :func:`per_step_march`,
    ``propagate_jacobi``'s agrees up to rounding, and the buffers do not
    grow with the grid."""

    @staticmethod
    def blocked_and_per_step(run, monkeypatch):
        blocked = run()
        with monkeypatch.context() as m:
            m.setattr(geodesics, "_march", per_step_march)
            return blocked, run()

    @pytest.mark.parametrize("case", ["ellipsoid-charts", "sphereprod", "parked-rows"])
    def test_propagate_matches_the_per_step_trapezoid(self, case, elli, s2xs2, monkeypatch):
        if case == "ellipsoid-charts":
            X, V, ids = spread_over_charts(elli, elli.sample_sphere_bundle(12, seed=4), 4)
            assert len(set(ids.tolist())) > 1
            model, states, h = elli, manifolds.TangentState(ids, X, V), 1e-2
        elif case == "sphereprod":
            model, states, h = s2xs2, s2xs2.sample_sphere_bundle(8, seed=4), 1e-2
        else:
            # two rows leave the reach near t = 5, inside the first interval's
            # second block, and are parked there; the third row stays
            model, h = manifolds.hyperbolic(2, 4.0), 5e-2
            states = [model.unit_tangent([165.0, 0.0], [1.0, 0.0]),
                      model.unit_tangent([-165.0, 0.0], [-1.0, 0.0]),
                      model.unit_tangent([0.0, 0.0], [1.0, 0.0])]
        grid = block_grid(h)
        blocked, per_step = self.blocked_and_per_step(
            lambda: geodesics.propagate(model, states, grid, step=h, accumulate_radial=True),
            monkeypatch)
        if case == "parked-rows":
            assert blocked.reason.tolist() == ["reach", "reach", ""]
        for name in ("chart_ids", "x", "v", "frames", "phi", "radial", "reason",
                     "speed_drift", "frame_drift"):
            np.testing.assert_array_equal(getattr(blocked, name), getattr(per_step, name),
                                          err_msg=name)

    @pytest.mark.parametrize("spec,rows", [("sphereprod:p=2,q=2", 48), ("hyperbolic:n=3", 1)])
    def test_propagate_jacobi_matches_the_per_step_trapezoid(self, spec, rows, monkeypatch):
        # a run advances Phi by powers of the full step's R, the oracle by
        # one R @ Phi per step: they round differently.  Tolerances, fixed
        # before the first run: phi to 1e-12 of its largest entry, the
        # radial integrals to 1e-12 relative
        model = manifolds.parse_manifold(spec)
        states = model.sample_sphere_bundle(rows, seed=6)
        lam, Q = np.linalg.eigh(model.curvature_frame_matrix(
            states.x, states.v, model.orthonormal_frame(states.x, states.v)))
        grid = block_grid(1e-2)
        (phi, radial), (want_phi, want_radial) = self.blocked_and_per_step(
            lambda: geodesics.propagate_jacobi(lam, grid, step=1e-2, accumulate_radial=True),
            monkeypatch)
        phi, want_phi = assemble(phi, Q), assemble(want_phi, Q)
        assert np.abs(phi - want_phi).max() <= 1e-12 * np.abs(want_phi).max()
        np.testing.assert_allclose(radial, want_radial, rtol=1e-12, atol=0.0)

    def test_a_run_from_the_identity_is_the_per_step_product(self, s2xs2, monkeypatch):
        # one run of RADIAL_BLOCK full binary steps from Phi = I: the powers
        # of R are the per-step products bit for bit, which keeps the bytes
        # of sphere-product estimates
        states = s2xs2.sample_sphere_bundle(8, seed=3)
        lam, Q = np.linalg.eigh(s2xs2.curvature_frame_matrix(
            states.x, states.v, s2xs2.orthonormal_frame(states.x, states.v)))
        h = 1 / 64
        (phi, radial), (want_phi, want_radial) = self.blocked_and_per_step(
            lambda: geodesics.propagate_jacobi(lam, [geodesics.RADIAL_BLOCK * h], step=h,
                                               accumulate_radial=True),
            monkeypatch)
        np.testing.assert_array_equal(assemble(phi, Q), assemble(want_phi, Q))
        np.testing.assert_array_equal(radial, want_radial)

    def test_buffers_do_not_grow_with_the_interval(self, s2xs2):
        # 2e4 steps in one interval: buffers of the whole interval would
        # hold 2e4 x 48 x 3 x 3 doubles, about 69 MB
        states = s2xs2.sample_sphere_bundle(48, seed=2)
        lam = np.linalg.eigvalsh(s2xs2.curvature_frame_matrix(
            states.x, states.v, s2xs2.orthonormal_frame(states.x, states.v)))
        tracemalloc.start()
        try:
            geodesics.propagate_jacobi(lam, [2.0], step=1e-4, accumulate_radial=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6, peak


class TestAbsDet:
    """``_abs_det`` takes |det| of 1 x 1 blocks as the entry and of larger
    ones by ``np.linalg.det``."""

    @staticmethod
    def stack(k, seed):
        # 200 seeded blocks, 50 each: well conditioned; near-singular (the
        # last row a combination of the others, moved by 1e-9); scaled by
        # 1e6; scaled by 1e-6
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((4, 50, k, k))
        M[1, :, -1] = ((rng.standard_normal((50, 1, k - 1)) @ M[1, :, :-1])[:, 0]
                       + 1e-9 * rng.standard_normal((50, k)))
        M[2] *= 1e6
        M[3] *= 1e-6
        return M

    def test_one_by_one_is_the_entry(self):
        M = self.stack(1, 0)
        assert np.array_equal(geodesics._abs_det(M), np.abs(M[..., 0, 0]))

    @pytest.mark.parametrize("k", [2, 3])
    def test_small_blocks_go_to_lapack(self, k):
        M = self.stack(k, k)
        assert np.array_equal(geodesics._abs_det(M), np.abs(np.linalg.det(M)))

    def test_larger_blocks_go_to_lapack(self):
        M = self.stack(4, 4)
        assert np.array_equal(geodesics._abs_det(M), np.abs(np.linalg.det(M)))


class TestBlockExpansion:
    """``block_expansion`` takes each 2 x 2 block's singular values in
    closed form: it is ``expansion`` of the assembled 2k x 2k Phi in the
    frame of K.  Tolerance, fixed before the first run: 1e-12 relative,
    since every singular value >= 1 here is within 40 of the largest and
    LAPACK's and the closed form's errors are a few ulps of the largest."""

    def test_sphere_product_rows_match_the_assembled_svd(self, s2xs2):
        states = s2xs2.sample_sphere_bundle(100, seed=11)
        lam, Q = np.linalg.eigh(s2xs2.curvature_frame_matrix(
            states.x, states.v, s2xs2.orthonormal_frame(states.x, states.v)))
        grid = np.linspace(1.0, 40.0, 40)
        phi, _ = geodesics.propagate_jacobi(lam, grid, step=2e-2)
        got = geodesics.block_expansion(phi)
        assert got.shape == (40, 100)
        np.testing.assert_allclose(got, geodesics.expansion(assemble(phi, Q)), rtol=1e-12,
                                   atol=0.0)

    def test_shear_block_matches_the_svd(self):
        # lam = 0: Phi = [[1, t], [0, 1]], singular values about t and 1 / t
        phi, _ = geodesics.propagate_jacobi(np.zeros((1, 1)), [1e3], step=5e-2)
        got = geodesics.block_expansion(phi[0])
        want = geodesics.expansion(assemble(phi[0], np.ones((1, 1, 1))))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert got[0] == pytest.approx(1e3, rel=1e-5)

    def test_hyperbolic_block_is_its_largest_singular_value(self):
        # lam = -1 at t = 300: Phi ~ [[cosh t, sinh t], [sinh t, cosh t]],
        # whose true smaller singular value is about e^-t, so the expansion
        # is the largest one.  LAPACK resolves the smaller one only to
        # eps * e^t ~ 1e114, which makes ``expansion`` of the same matrix
        # read e^t times that noise; the oracle is LAPACK's largest
        # singular value, which is accurate to a few ulps
        phi, _ = geodesics.propagate_jacobi(-np.ones((1, 1)), [300.0], step=5e-2)
        got = geodesics.block_expansion(phi[0])
        top = np.linalg.svd(assemble(phi[0], np.ones((1, 1, 1))), compute_uv=False)[..., 0]
        np.testing.assert_allclose(got, top, rtol=1e-12, atol=0.0)
        assert got[0] == pytest.approx(np.exp(300.0), rel=1e-3)

    def test_rejects_non_finite_blocks(self):
        blocks = np.tile(np.eye(2), (3, 2, 1, 1))
        blocks[1, 0, 0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            geodesics.block_expansion(blocks)
        blocks[1, 0, 0, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            geodesics.block_expansion(blocks)


class TestKernelCalls:
    """The benchmark reads these counts: one Christoffel call per RK4 stage
    for the whole batch on the space forms (sphere, torus, hyperbolic
    space), whatever charts its rows are in, and one ``_rk4_step`` per
    step.  Every stage takes its geometry from ``stage_geometry``, which no
    stage reaches through ``curvature_frame_matrix``.  The ellipsoid takes
    its Christoffel symbols and its Gauss curvature from one jet per stage
    for the whole batch, ``EllipsoidChart.geometry``, without a
    ``charts.christoffel`` or ``EllipsoidChart.gauss`` call.  A sphere
    product takes its Christoffel symbols and its Jacobi matrix from one
    diagonal of the metric per stage, without a ``charts.christoffel``
    call.  A ``chart_metric`` model calls its user metric on one metric-jet
    stencil per stage, for both the Christoffel symbols and the
    curvature."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"christoffel": 0, "rows": [], "switch": 0}
        christoffel, rk4_step = charts.christoffel, geodesics._rk4_step
        switch_charts = geodesics._switch_charts

        def counting_christoffel(*args, **kwargs):
            calls["christoffel"] += 1
            return christoffel(*args, **kwargs)

        def counting_rk4_step(*args, **kwargs):
            calls["rows"].append(len(args[2]))
            return rk4_step(*args, **kwargs)

        def counting_switch_charts(*args, **kwargs):
            calls["switch"] += 1
            return switch_charts(*args, **kwargs)

        monkeypatch.setattr(charts, "christoffel", counting_christoffel)
        monkeypatch.setattr(geodesics, "_rk4_step", counting_rk4_step)
        monkeypatch.setattr(geodesics, "_switch_charts", counting_switch_charts)
        return calls

    def test_batch_one(self, h2, calls):
        # a binary step lands on the grid exactly: 64 steps
        geodesics.propagate(h2, h2.base_state(), [0.5, 1.0], step=1 / 64)
        assert calls["rows"] == [1] * 64
        assert calls["christoffel"] == 4 * 64
        # one global chart: the hyperbolic run never looks for another
        assert calls["switch"] == 0

    def test_radial_batch_across_charts(self, s2, calls):
        angles = 2 * np.pi * np.arange(8) / 8
        states = [s2.unit_tangent(s2.base_x, [np.cos(a), np.sin(a)]) for a in angles]
        res = geodesics.propagate(s2, states, [1.0, 2.0], step=1 / 64, accumulate_radial=True)
        assert len(set(res.chart_ids.tolist())) >= 2
        assert calls["rows"] == [8] * 128
        assert calls["christoffel"] == 4 * 128

    def test_ellipsoid_batch_across_charts(self, calls, monkeypatch):
        # the ellipsoid's two charts have different coordinate metrics; the
        # model is built after the patch, so its curvature factor calls the
        # counting gauss
        rows, gauss_calls = [], [0]
        geometry, gauss = charts.EllipsoidChart.geometry, charts.EllipsoidChart.gauss

        def counting_geometry(chart, x):
            rows.append(len(x))
            return geometry(chart, x)

        def counting_gauss(chart, x):
            gauss_calls[0] += 1
            return gauss(chart, x)

        monkeypatch.setattr(charts.EllipsoidChart, "geometry", counting_geometry)
        monkeypatch.setattr(charts.EllipsoidChart, "gauss", counting_gauss)
        elli = manifolds.ellipsoid(1.0, 1.0, 2.0)
        x = np.array([0.5, 0.3])
        angles = 2 * np.pi * np.arange(8) / 8
        states = [elli.unit_tangent(x, [np.cos(a), np.sin(a)]) for a in angles]
        res = geodesics.propagate(elli, states, [1.0, 2.0], step=1 / 64)
        assert set(res.chart_ids.tolist()) == {0, 1}
        assert calls["rows"] == [8] * 128
        assert rows == [8] * (4 * 128)
        assert calls["christoffel"] == 0 and gauss_calls[0] == 0

    def test_chart_checks_build_no_chart(self, elli, calls, monkeypatch):
        # the checks read the margins of the chart the stages use: along the
        # equator of chart 0, where no row switches, the per-row chart is
        # built once per run
        built = []
        per_row = charts.EllipsoidChart.per_row

        def counting_per_row(chart, *args):
            built.append(len(args[1]))
            return per_row(chart, *args)

        monkeypatch.setattr(charts.EllipsoidChart, "per_row", counting_per_row)
        states = [elli.unit_tangent(np.array([np.pi / 2, 0.3]), [0.0, s]) for s in (1.0, -1.0)]
        res = geodesics.propagate(elli, states, [1.0], step=1 / 64)
        assert res.chart_ids.tolist() == [0, 0]
        assert calls["switch"] == 11 and built == [2]

    def test_ellipsoid_solves_no_linear_system(self, elli, monkeypatch):
        # the Christoffel symbols come from a 2x2 adjugate; the states stay
        # deep inside chart 0, so no chart switch solves for a tangent vector
        solve, count = np.linalg.solve, [0]

        def counting_solve(*args, **kwargs):
            count[0] += 1
            return solve(*args, **kwargs)

        angles = 2 * np.pi * np.arange(8) / 8
        states = [elli.unit_tangent(elli.base_x, [np.cos(a), np.sin(a)]) for a in angles]
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        res = geodesics.propagate(elli, states, [0.25, 0.5], step=1 / 64)
        assert not res.failed.any() and set(res.chart_ids.tolist()) == {0}
        assert count[0] == 0

    def test_chart_metric_user_calls_per_stage(self, wavy, monkeypatch):
        # 13 stencil points at n = 2; the difference of a 4-step and
        # a 2-step run leaves out the calls made once per run
        ch = wavy.chart(0)
        func, count = ch.func, [0]

        def counting_func(x):
            count[0] += 1
            return func(x)

        monkeypatch.setattr(ch, "func", counting_func)
        states = wavy.sample_sphere_bundle(2, seed=3)
        totals = []
        for steps in (2, 4):
            count[0] = 0
            geodesics.propagate(wavy, states, [steps / 64], step=1 / 64)
            totals.append(count[0])
        assert (totals[1] - totals[0]) / (2 * 4 * len(states)) == 13


def packed_state(model, states, jacobi):
    """The packed batch [x | v | E_1..E_k | Phi] that propagate integrates,
    with the frames of ``orthonormal_frame`` and a seeded random Phi."""
    n, k = model.dim, model.dim - 1
    Y = np.zeros((len(states), n + n * n + 4 * k * k if jacobi else 2 * n))
    X, W, Phi = geodesics._unpack(Y, n, jacobi)
    X[:] = [s.x for s in states]
    W[:, 0] = [s.v for s in states]
    if jacobi:
        W[:, 1:] = model.orthonormal_frame(X, W[:, 0], 0)
        Phi[:] = np.random.default_rng(0).standard_normal(Phi.shape)
    return Y


def spread_over_charts(model, states, seed):
    """x (B, n), v (B, n) and chart ids (B,) of chart-0 states, each moved to
    a chart drawn at random among those where its margin is above the
    switch margin."""
    X, V = np.stack([s.x for s in states]), np.stack([s.v for s in states])
    ch0 = model.chart(0)
    moved = [(ch.from_embedding(ch0.embed(X)), ch) for ch in model.charts]
    ok = np.stack([ch.margin(x) > geodesics.SWITCH_MARGIN for x, ch in moved], axis=-1)
    ids = np.argmax(ok * np.random.default_rng(seed).random(ok.shape), axis=-1)
    for c, (x, ch) in enumerate(moved):
        rows = ids == c
        V[rows] = ch.tangent_from_ambient(x[rows], ch0.tangent_to_ambient(X[rows], V[rows]))
        X[rows] = x[rows]
    return X, V, ids


def dense_gram_form(model, chart, x, W):
    """Oracle of the sphere-product Jacobi form: the Gram matrices of W in
    each factor's block of the dense metric, W g W^T with W g = W @ g, and
    sum_f K_f (|v_f|^2 E_f.E_f - (E_f.v_f)(E_f.v_f)^T), in the order of
    operations of the stage."""
    Wg = W @ chart.metric(x)
    F, m, n = len(model.factors), W.shape[-2], model.dim
    M = np.zeros(Wg.shape[:-2] + (F, m, n))
    for i, f in enumerate(model.factors):
        M[..., i, :, f.coords] = Wg[..., f.coords]
    Wt = np.ascontiguousarray(np.swapaxes(W, -1, -2))
    G = (M.reshape(M.shape[:-3] + (F * m, n)) @ Wt).reshape(M.shape[:-1] + (m,))
    Ev = G[..., 1:, :1]
    form = G[..., :1, :1] * G[..., 1:, 1:] - Ev * np.swapaxes(Ev, -1, -2)
    Kf = np.stack(np.broadcast_arrays(*(np.asarray(f.curvature(chart, x), dtype=float)
                                        for f in model.factors)), axis=-1)
    out = Kf[..., None, :] @ form.reshape(form.shape[:-2] + (-1,))
    return out.reshape(form.shape[:-3] + form.shape[-2:])


def ellipsoid_per_call_oracle(chart, x):
    """Oracle of the ellipsoid stage: Gamma (..., 2, 2, 2) from the jet of
    E = scale * (cos u, sin u cos phi, sin u sin phi) written entry by entry
    and the 2x2 adjugate solve of g Gamma = dE d2E^T, and the Gauss curvature
    (...) from a sine and cosine of its own, in their order of operations."""
    s, c = np.sin(x), np.cos(x)
    su, sp, cu, cp = s[..., 0], s[..., 1], c[..., 0], c[..., 1]
    J = np.zeros(np.shape(x)[:-1] + (6, 3))
    J[..., 0, 0] = -su
    J[..., 2, 0] = -cu
    J[..., 0, 1] = J[..., 3, 2] = J[..., 4, 2] = cu * cp
    J[..., 0, 2] = cu * sp
    J[..., 3, 1] = J[..., 4, 1] = -J[..., 0, 2]
    J[..., 1, 2] = su * cp
    J[..., 2, 1] = J[..., 5, 1] = -J[..., 1, 2]
    J[..., 1, 1] = J[..., 2, 2] = J[..., 5, 2] = -su * sp
    J *= chart.scale[..., None, :]
    dE, d2E = J[..., :2, :], J[..., 2:, :].reshape(J.shape[:-2] + (2, 2, 3))
    g = dE @ np.swapaxes(dE, -1, -2)
    rhs = dE @ np.swapaxes(d2E.reshape(d2E.shape[:-3] + (4, 3)), -1, -2)
    adj = g[..., ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    gam = (adj @ rhs) / det[..., None, None]
    s, c = np.sin(x), np.cos(x)
    u = (c[..., 0], s[..., 0] * c[..., 1], s[..., 0] * s[..., 1])
    f = sum((u[m] / chart.scale[..., m]) ** 2 for m in range(3))
    return gam.reshape(gam.shape[:-1] + (2, 2)), 1.0 / (np.prod(chart.scale, axis=-1) * f) ** 2


class TestStage:
    """One RK4 stage: the spray as a stacked matvec and one product, the
    stage buffers that ``propagate`` allocates once, the geometry of a
    sphere-product stage from one diagonal of the metric and that of an
    ellipsoid stage from one jet."""

    @staticmethod
    def derivatives(model, chart, Y, jacobi):
        # dY/dt into a freshly allocated array
        dY = np.empty_like(Y)
        geodesics._derivatives(model, chart, geodesics._unpack(Y, model.dim, jacobi),
                               geodesics._unpack(dY, model.dim, jacobi))
        return dY

    @pytest.mark.parametrize("batch", [1, 100])
    def test_spray_matches_einsum_oracle(self, all_models, batch):
        # the einsum the spray replaced is the oracle; the bound, fixed before
        # the first run, is 1e-14 of the sum of the terms' magnitudes
        for name, model in all_models.items():
            n = model.dim
            Y = packed_state(model, model.sample_sphere_bundle(batch, seed=5), True)
            chart = model.chart(np.zeros(batch, dtype=int))
            X, W, _ = geodesics._unpack(Y, n, True)
            dW = geodesics._unpack(self.derivatives(model, chart, Y, True), n, True)[1]
            gam, _ = model.stage_geometry(chart, X, W)
            oracle = -np.einsum("blij,bi,baj->bal", gam, W[:, 0], W)
            scale = np.einsum("blij,bi,baj->bal", np.abs(gam), np.abs(W[:, 0]), np.abs(W))
            assert np.all(np.abs(dW - oracle) <= 1e-14 * scale), name

    @pytest.mark.parametrize("jacobi", [True, False])
    @pytest.mark.parametrize("batch", [1, 100])
    def test_buffered_step_matches_allocating_stages(self, all_models, batch, jacobi):
        # bitwise: two steps through one set of bound buffers against
        # Y + (h/6)(k1 + 2 k2 + 2 k3 + k4) from stages allocated afresh
        h = 0.05
        for name, model in all_models.items():
            Y = packed_state(model, model.sample_sphere_bundle(batch, seed=8), jacobi)
            chart = model.chart(np.zeros(batch, dtype=int))
            got = Y.copy()
            stages = geodesics._stage_buffers(got, model.dim, jacobi)
            for _ in range(2):
                k1 = self.derivatives(model, chart, Y, jacobi)
                k2 = self.derivatives(model, chart, Y + (h / 2.0) * k1, jacobi)
                k3 = self.derivatives(model, chart, Y + (h / 2.0) * k2, jacobi)
                k4 = self.derivatives(model, chart, Y + h * k3, jacobi)
                Y = Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                geodesics._rk4_step(model, chart, got, h, stages)
                np.testing.assert_array_equal(got, Y, err_msg=name)

    @pytest.mark.parametrize("batch", [1, 100])
    def test_constant_curvature_matches_per_stage_oracle(self, varying, batch):
        # bitwise: K, K Phi and the stage derivatives from the bound K of
        # constant factors against K built per stage, a zero array with its
        # diagonal filled from the factor's curvature, or for a sphere
        # product the per-row stack of the K_f (a non-constant copy); bytes
        # are compared, so signs of zeros count, at a random Phi and at the
        # identity that propagate starts from
        specs = ["sphere:n=2", "sphere:n=4", "torus:n=2", "hyperbolic:n=2", "hyperbolic:n=3",
                 "sphereprod:p=2,q=2", "sphereprod:p=3,q=2,r1=1,r2=2"]
        for spec in specs:
            model = manifolds.parse_manifold(spec)
            n, k = model.dim, model.dim - 1
            chart = model.chart(np.zeros(batch, dtype=int))
            Y = packed_state(model, model.sample_sphere_bundle(batch, seed=4), True)
            X, W, Phi = geodesics._unpack(Y, n, True)
            K = model.stage_geometry(chart, X, W)[1]
            if len(model.factors) == 1:
                assert K.shape == (k, k), spec
                oracle = np.zeros((batch, k, k))
                oracle[:, np.arange(k), np.arange(k)] = model.factors[0].curvature(chart, X)
            else:
                oracle = varying(model).stage_geometry(chart, X, W)[1]
            for phi in (Phi.copy(), np.eye(2 * k)):
                Phi[:] = phi
                for got, want in [(np.broadcast_to(K, oracle.shape), oracle),
                                  (K @ Phi[:, :k], oracle @ Phi[:, :k]),
                                  (self.derivatives(model, chart, Y, True),
                                   self.derivatives(varying(model), chart, Y, True))]:
                    np.testing.assert_array_equal(got, want, err_msg=spec)
                    assert got.tobytes() == want.tobytes(), spec

    @pytest.mark.parametrize("batch", [1, 100])
    def test_product_stage_matches_per_call_oracle(self, varying, batch):
        # bitwise: Gamma and K of the fused product stage against a
        # Christoffel call and the Gram form of the dense metric, with the
        # rows in charts drawn at random, for constant and varying factors;
        # curvature_frame_matrix is the stage's K
        for spec in ["sphereprod:p=2,q=2", "sphereprod:p=3,q=2,r1=1,r2=2"]:
            base = manifolds.parse_manifold(spec)
            X, V, ids = spread_over_charts(base, base.sample_sphere_bundle(batch, seed=6), 6)
            assert batch == 1 or len(set(ids.tolist())) > 1, spec
            for model in (base, varying(base)):
                chart = model.chart(ids)
                W = np.concatenate([V[:, None], model.orthonormal_frame(X, V, chart)], axis=1)
                gam, K = model.stage_geometry(chart, X, W)
                assert np.array_equal(gam, charts.christoffel(chart, X)), spec
                assert np.array_equal(K, dense_gram_form(model, chart, X, W)), spec
                K_view = model.curvature_frame_matrix(X, V, W[:, 1:], chart)
                assert np.array_equal(K_view, dense_gram_form(model, chart, X, W)), spec
                # without a frame (count), the same Gamma and no K
                gam_v, K_v = model.stage_geometry(chart, X, W[:, :1])
                assert np.array_equal(gam_v, gam) and K_v is None, spec

    @pytest.mark.parametrize("batch", [1, 100])
    def test_ellipsoid_stage_matches_per_call_oracle(self, elli, elli3, batch):
        # bitwise: Gamma and K of the ellipsoid stage from one jet against
        # the separate formulas of ellipsoid_per_call_oracle, in chart 0 and
        # with the rows in charts drawn at random; K is the curvature as
        # (batch, 1, 1), and christoffel and gauss are the two halves
        for model in (elli, elli3, manifolds.ellipsoid(0.7, 1.3, 2.2)):
            states = model.sample_sphere_bundle(batch, seed=9)
            X, V, ids = spread_over_charts(model, states, 9)
            assert batch == 1 or set(ids.tolist()) == {0, 1}, model.spec_string
            X0, V0 = np.stack([s.x for s in states]), np.stack([s.v for s in states])
            for chart, x, v in [(model.chart(0), X0, V0), (model.chart(ids), X, V)]:
                W = np.concatenate([v[:, None], model.orthonormal_frame(x, v, chart)], axis=1)
                gam, K = model.stage_geometry(chart, x, W)
                want_gam, want_k = ellipsoid_per_call_oracle(chart, x)
                assert K.shape == (batch, 1, 1), model.spec_string
                assert np.array_equal(gam, want_gam), model.spec_string
                assert np.array_equal(K[:, 0, 0], want_k), model.spec_string
                assert np.array_equal(charts.christoffel(chart, x), want_gam), model.spec_string
                assert np.array_equal(chart.gauss(x), want_k), model.spec_string
                # without a frame (count), the same Gamma and no K
                gam_v, K_v = model.stage_geometry(chart, x, W[:, :1])
                assert np.array_equal(gam_v, gam) and K_v is None, model.spec_string

    def test_product_stage_reads_each_warp_once(self, s2xs2, monkeypatch):
        # one _derivatives call evaluates each factor's warps once and never
        # builds the dense metric
        Y = packed_state(s2xs2, s2xs2.sample_sphere_bundle(4, seed=7), True)
        chart = s2xs2.chart(np.zeros(4, dtype=int))
        counts = {}
        warps, metric = charts.SphereChart.warps, charts.DiagonalChart.metric

        def counting_warps(ch, x):
            counts[id(ch)] = counts.get(id(ch), 0) + 1
            return warps(ch, x)

        def counting_metric(ch, x):
            counts["metric"] = counts.get("metric", 0) + 1
            return metric(ch, x)

        monkeypatch.setattr(charts.SphereChart, "warps", counting_warps)
        monkeypatch.setattr(charts.DiagonalChart, "metric", counting_metric)
        self.derivatives(s2xs2, chart, Y, True)
        assert counts == {id(chart.first): 1, id(chart.second): 1}

    def test_bound_constants_are_read_only(self):
        # one K, one vector of factor curvatures and one L serve every stage
        # of every run, so none of them may be written into
        s3, h3 = manifolds.sphere(3), manifolds.hyperbolic(3)
        x = np.tile(s3.base_x, (4, 1))
        E = s3.orthonormal_frame(x, np.tile(s3.base_state().v, (4, 1)))
        bound = [s3.curvature_frame_matrix(x, s3.base_state().v, E),
                 manifolds._constant_curvatures((1.0, 0.25)),
                 h3.chart(0).warps(x)[1], manifolds.flat_torus(3).chart(0).warps(x)[1]]
        for arr in bound:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 2.0

    def test_second_call_leaves_first_result(self, s2xs2, elli):
        # no buffer of one propagate call is shared with a result of another
        def arrays(obj):
            if isinstance(obj, (list, tuple)):
                for item in obj:
                    yield from arrays(item)
            elif obj is not None:
                yield np.asarray(obj)

        for model in (s2xs2, elli):
            kw = dict(step=1e-2, accumulate_radial=True)
            # the run to the earlier grid time holds the state there
            firsts = [geodesics.propagate(model, model.sample_sphere_bundle(4, seed=2), grid,
                                          **kw) for grid in ([0.2], [0.2, 0.4])]
            before = [{f.name: [a.copy() for a in arrays(getattr(first, f.name))]
                       for f in dataclasses.fields(first)} for first in firsts]
            geodesics.propagate(model, model.sample_sphere_bundle(4, seed=3), [0.2, 0.4], **kw)
            for first, fields in zip(firsts, before):
                for name, want in fields.items():
                    got = list(arrays(getattr(first, name)))
                    assert len(got) == len(want) > 0, name
                    for g, w in zip(got, want):
                        np.testing.assert_array_equal(g, w,
                                                      err_msg=f"{model.spec_string} {name}")


def radial_density(phi):
    """|det A| for a Jacobi fundamental solution phi = [[., A], [., .]]: A
    collects the Jacobi fields with J(0) = 0, J'(0) = E_i, so |det A(rho)|
    is the radial Jacobian density of the exponential map."""
    k = len(phi) // 2
    return float(np.abs(np.linalg.det(phi[:k, k:])))


class TestExpBallJacobian:
    def test_zero_radius(self, s2):
        theta = s2.unit_tangent(s2.base_x, np.array([1.0, 0.0]))
        assert radial_density(geodesics.propagate(s2, theta, [0.0]).phi[0, 0]) == 0.0

    def test_sphere_sine(self, s2):
        theta = s2.unit_tangent(np.array([np.pi / 2, 0.0]), np.array([0.0, 1.0]))
        for rho in (0.5, 1.5, 3.0):
            val = radial_density(geodesics.propagate(s2, theta, [rho], step=1e-3).phi[0, 0])
            assert np.isclose(val, abs(np.sin(rho)), atol=1e-6)

    def test_torus_linear(self, torus2):
        theta = torus2.unit_tangent(np.zeros(2), np.array([1.0, 0.0]))
        val = radial_density(geodesics.propagate(torus2, theta, [2.0], step=1e-2).phi[0, 0])
        assert np.isclose(val, 2.0, atol=1e-10)

    def test_negative_radius_rejected(self, s2):
        theta = s2.unit_tangent(s2.base_x, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            geodesics.propagate(s2, theta, [-1.0])
