import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoflow import topology
from geoflow.errors import ProfileValidationError

# dimension-five middle-Betti threshold floor((5/2) e^{6 pi}), pinned from a
# 50-digit evaluation: mpmath.floor(mpf(5)/2 * e**(6*pi)) at mp.dps = 50
DIM5_B2_THRESHOLD = 383882338


def test_pinned_threshold_matches_high_precision_oracle():
    with mpmath.workdps(50):
        val = mpmath.mpf(5) / 2 * mpmath.e ** (6 * mpmath.pi)
        assert int(mpmath.floor(val)) == DIM5_B2_THRESHOLD
        # the double-precision bound agrees to well below the integer scale
        assert abs(float(val) - topology.betti_p_bound(5, 2)) < 1e-4


def symmetric_profile(n, mid, formal=False, **kw):
    """Duality-valid Betti vector with prescribed middle entries."""
    b = [0] * (n + 1)
    b[0] = b[n] = 1
    for i, v in enumerate(mid, start=2):
        b[i] = v
        b[n - i] = v
    return topology.BettiProfile(n, b, formal=formal, **kw)


@st.composite
def duality_profiles(draw):
    n = draw(st.integers(4, 9))
    half = (n - 2) // 2 - (1 if n % 2 == 0 else 0) + 1
    mid = draw(st.lists(st.integers(0, 9), min_size=half, max_size=half))
    b = [0] * (n + 1)
    b[0] = b[n] = 1
    for i, v in enumerate(mid, start=2):
        b[i] = v
        b[n - i] = v
    return topology.BettiProfile(n, b)


class TestProfileValidation:
    def test_simply_connected_constraints(self):
        with pytest.raises(ProfileValidationError):
            topology.BettiProfile(4, [1, 1, 0, 1, 1])
        with pytest.raises(ProfileValidationError):
            topology.BettiProfile(4, [2, 0, 0, 0, 1])

    def test_duality_enforced(self):
        with pytest.raises(ProfileValidationError):
            topology.BettiProfile(4, [1, 0, 2, 1, 1])

    def test_chi_consistency(self):
        topology.BettiProfile(4, [1, 0, 2, 0, 1], chi=4)
        with pytest.raises(ProfileValidationError):
            topology.BettiProfile(4, [1, 0, 2, 0, 1], chi=5)

    def test_connectivity_zeroes(self):
        topology.BettiProfile(6, [1, 0, 0, 2, 0, 0, 1], connected_p=3)
        with pytest.raises(ProfileValidationError):
            topology.BettiProfile(6, [1, 0, 1, 0, 1, 0, 1], connected_p=3)

    def test_non_simply_connected_rejected(self):
        with pytest.raises(ProfileValidationError):
            topology.BettiProfile(4, [1, 0, 2, 0, 1], simply_connected=False)

    def test_json_round_trip(self):
        p = topology.BettiProfile(5, [1, 0, 3, 3, 0, 1], formal=True)
        q = topology.BettiProfile.from_json_dict(json.loads(json.dumps(p.to_json_dict())))
        assert q.betti == p.betti and q.formal and q.n == 5

    def test_numpy_integers_serialize_as_plain_ints(self):
        plain = topology.BettiProfile(4, [1, 0, 3, 0, 1], formal=True, connected_p=2)
        numpy_ints = topology.BettiProfile(np.int64(4), [1, 0, 3, 0, 1], formal=True,
                                           connected_p=np.int32(2))
        for p in (plain, numpy_ints):
            assert type(p.n) is int and type(p.connected_p) is int
        assert (json.dumps(topology.certify(numpy_ints).to_json_dict())
                == json.dumps(topology.certify(plain).to_json_dict()))


@pytest.mark.parametrize("coeffs, expected", [
    ([1, 0, 2, 0, 1], [([1, 0, 1], 2)]),                        # (1 + t^2)^2
    ([1, 3, 3, 6, 3, 3, 1], [([1, 3, 1], 1), ([1, 0, 1], 2)]),  # (1 + t^2)^2 (1 + 3t + t^2)
    ([1, 2, 6, 8, 13, 12, 13, 8, 6, 2, 1],                      # (1 + t^2)^3 (1 + t + t^2)^2
     [([1, 1, 1], 2), ([1, 0, 1], 3)]),
    ([1, 0, 3, 0, 1], [([1, 0, 3, 0, 1], 1)]),                  # square-free dimension four
])
def test_square_free_factors(coeffs, expected):
    got = topology.square_free_factors(coeffs)
    assert got == [([Fraction(c) for c in f], m) for f, m in expected]
    assert all(isinstance(c, Fraction) for f, _ in got for c in f)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _random_profile_betti(rng, n, slot):
    """Betti numbers drawn by the rule of the benchmark's random certify
    profiles: b_2 with up to 1.1 times the digits of the middle-Betti bound
    (at most 12), the other free entries two-digit."""
    betti = [0] * (n + 1)
    betti[0] = betti[n] = 1
    top = min(1.1 * topology.betti_p_bound_log10(n, 2), 12.0)
    digits = max(1, round(top * (slot + 1) / 3))
    betti[2] = betti[n - 2] = int(rng.integers(10 ** (digits - 1), 10**digits))
    for i in range(3, n // 2 + 1):
        betti[i] = betti[n - i] = int(rng.integers(10, 100))
    return betti


def _random_profiles_betti(rounds):
    rng = np.random.default_rng(53366851)
    return [_random_profile_betti(rng, n, slot)
            for _ in range(rounds) for n in range(4, 25) for slot in range(3)]


def _criterion_9_betti():
    rng = np.random.default_rng(11)
    out = []
    for _ in range(200):
        n = int(rng.integers(4, 10))
        half = (n - 2) // 2 - (1 if n % 2 == 0 else 0) + 1
        out.append(symmetric_profile(n, [int(rng.integers(0, 10)) for _ in range(half)]).betti)
    return out


class TestSquareFreeModPrime:
    """The test mod ``topology.PRIME`` in front of Musser's loop returns only
    what the loop alone returns, and spares the loop on square-free input."""

    def test_agrees_with_musser_loop(self, monkeypatch):
        q = topology.PRIME
        polys = ([[1, 0, b2, 0, 1] for b2 in range(301)]
                 + [[1, 0, b2, b2, 0, 1] for b2 in (DIM5_B2_THRESHOLD, DIM5_B2_THRESHOLD + 1)]
                 + _criterion_9_betti() + _random_profiles_betti(3)
                 # no answer mod q: q + t^2, q t^2 + 1 and (1 + q t)^2 (q | lc),
                 # (t + q)^2; repeated factors with lc 1, 2 and 3; and
                 # (t + 1/2)^2, whose numerators mod q are square-free
                 + [[q, 0, 1], [1, 0, q], [1, 2 * q, q * q], [q * q, 2 * q, 1],
                    [1, 0, 2, 0, 1], [2, 4, 2], [3, 0, 6, 0, 3], [Fraction(1, 4), 1, 1]])
        assert len(polys) == 303 + 200 + 189 + 8
        got = [topology.square_free_factors(p) for p in polys]
        monkeypatch.setattr(topology, "_coprime_mod_prime", lambda a, b: False)
        for p, fast in zip(polys, got):
            oracle = topology.square_free_factors(p)
            assert fast == oracle, p
            assert all(type(c) is Fraction for f, _ in fast for c in f)

    @pytest.fixture
    def gcd_calls(self, monkeypatch):
        calls, poly_gcd = [0], topology._poly_gcd

        def counting_poly_gcd(*args):
            calls[0] += 1
            return poly_gcd(*args)

        monkeypatch.setattr(topology, "_poly_gcd", counting_poly_gcd)
        return calls

    def test_square_free_profiles_skip_the_rational_loop(self, gcd_calls):
        profiles = ([[1, 0, b2, 0, 1] for b2 in range(1, 301) if b2 != 2]
                    + _random_profiles_betti(1))
        assert len(profiles) == 299 + 63
        for betti in profiles:
            topology.certify(topology.BettiProfile(len(betti) - 1, betti, formal=True))
        assert gcd_calls[0] == 0
        # (1 + t^2)^2 has a repeated factor, which only the loop over Q splits
        topology.certify(topology.BettiProfile(4, [1, 0, 2, 0, 1], formal=True))
        assert gcd_calls[0] >= 1


_small_monic = st.integers(0, 4).flatmap(
    lambda d: st.lists(st.integers(-4, 4), min_size=d, max_size=d).map(lambda c: c + [1]))


@given(_small_monic, _small_monic)
@settings(max_examples=150, deadline=None)
def test_square_free_factors_of_f_squared_g(f, g):
    # f = 1 often leaves p = g square-free (the test mod a prime answers);
    # any other f puts a square in p (Musser's loop splits it)
    p = _poly_mul(_poly_mul(f, f), g)
    factors = topology.square_free_factors(p)
    product = [Fraction(1)]
    for factor, mult in factors:
        assert len(factor) > 1 and factor[-1] == 1 and mult >= 1
        assert len(topology._poly_gcd(factor, topology._poly_deriv(factor))) == 1
        for _ in range(mult):
            product = _poly_mul(product, factor)
    assert product == [Fraction(c, p[-1]) for c in p]
    for i, (a, _) in enumerate(factors):
        for b, _ in factors[i + 1:]:
            assert len(topology._poly_gcd(a, b)) == 1
    if len(f) > 1:
        assert max(m for _, m in factors) >= 2


class TestPoincareRoots:
    def test_sphere_profile_unimodular(self):
        p = topology.BettiProfile(4, [1, 0, 0, 0, 1])
        roots = topology.poincare_roots(p)
        assert np.allclose(np.abs(roots), 1.0, atol=1e-12)
        assert topology.felix_thomas_r_upper(p) == pytest.approx(1.0, abs=1e-12)

    def test_double_roots_exact(self):
        p = topology.BettiProfile(4, [1, 0, 2, 0, 1])
        roots = topology.poincare_roots(p)
        assert topology.reciprocity_defect(roots) < 1e-12

    def test_quadruple_roots_exact(self):
        # (1 + t^2)^4: companion eigenvalues alone would smear this cluster
        p = topology.BettiProfile(8, [1, 0, 4, 0, 6, 0, 4, 0, 1])
        roots = topology.poincare_roots(p)
        assert topology.reciprocity_defect(roots) < 1e-10
        assert np.allclose(np.abs(roots), 1.0, atol=1e-10)

    def test_min_max_reciprocal(self):
        p = topology.BettiProfile(4, [1, 0, 3, 0, 1])
        roots = topology.poincare_roots(p)
        mods = np.abs(roots)
        assert mods.min() * mods.max() == pytest.approx(1.0, abs=1e-10)
        assert topology.felix_thomas_r_upper(p) < 1.0

    @given(duality_profiles())
    @settings(max_examples=120, deadline=None)
    def test_reciprocity_property(self, profile):
        roots = topology.poincare_roots(profile)
        assert len(roots) == profile.n
        assert topology.reciprocity_defect(roots) < 1e-6

    @given(duality_profiles())
    @settings(max_examples=60, deadline=None)
    def test_min_modulus_at_most_one(self, profile):
        assert topology.felix_thomas_r_upper(profile) <= 1.0 + 1e-9

    @given(duality_profiles())
    @settings(max_examples=60, deadline=None)
    def test_roots_satisfy_polynomial(self, profile):
        roots = topology.poincare_roots(profile)
        coeffs = profile.betti
        scale = max(coeffs)
        for z in roots:
            val = sum(c * z**i for i, c in enumerate(coeffs))
            assert abs(val) <= 1e-8 * scale * max(1.0, abs(z)) ** profile.n


class TestClosedFormBounds:
    def test_neg_log_r_values(self):
        assert topology.neg_log_r_upper(4, 1.0) == pytest.approx(
            math.pi * math.sqrt(3), abs=1e-12)
        assert topology.neg_log_r_upper(2, 1.0) == 0.0
        assert topology.neg_log_r_upper(5, 1.0) == pytest.approx(3 * math.pi, abs=1e-12)
        with pytest.raises(ValueError):
            topology.neg_log_r_upper(4, 0.0)

    def test_neg_log_r_high_precision(self):
        with mpmath.workdps(50):
            expect = float(mpmath.pi * mpmath.sqrt(3))
        assert topology.neg_log_r_upper(4, 1.0) == pytest.approx(expect, abs=1e-14)

    def test_homology_dim_bound(self):
        assert topology.homology_dim_bound(2) == pytest.approx(4.0, abs=1e-9)
        with mpmath.workdps(50):
            expect = float((1 + mpmath.e ** (mpmath.pi * mpmath.sqrt(3))) ** 4)
        assert topology.homology_dim_bound(4) == pytest.approx(expect, rel=1e-12)
        for n in range(2, 12):
            assert topology.homology_dim_bound(n) >= 2.0**n

    def test_radius_bound(self):
        assert topology.homology_dim_from_radius(4, 1.0) == 16.0
        assert topology.homology_dim_from_radius(4, math.inf) == 16.0
        val = topology.homology_dim_from_radius(4, math.exp(-math.pi * math.sqrt(3)))
        assert val == pytest.approx(topology.homology_dim_bound(4), rel=1e-12)
        with pytest.raises(ValueError):
            topology.homology_dim_from_radius(4, 0.0)

    def test_connected_radius(self):
        assert topology.connected_radius_upper(4, 2, 2) == 1.0
        assert topology.connected_radius_upper(5, 2, 10) == 0.5
        vals = [topology.connected_radius_upper(6, 2, b) for b in (1, 2, 5, 9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        with pytest.raises(ValueError):
            topology.connected_radius_upper(4, 2, 0)

    def test_betti_p_bound(self):
        assert topology.betti_p_bound(5, 2) == pytest.approx(
            2.5 * math.exp(6 * math.pi), rel=1e-12)
        assert topology.betti_p_bound(2, 2) == pytest.approx(1.0, abs=1e-12)

    def test_babenko(self):
        assert topology.babenko_inv_r_lower(2) == 1.0
        assert topology.babenko_inv_r_lower(230) <= math.exp(math.pi * math.sqrt(3))
        assert topology.babenko_inv_r_lower(231) > math.exp(math.pi * math.sqrt(3))
        vals = [topology.babenko_inv_r_lower(b) for b in range(2, 40)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        with pytest.raises(ValueError):
            topology.babenko_inv_r_lower(1)

    def test_babenko_max_b2(self):
        assert topology.babenko_max_b2() == 230

    def test_dim4_checks(self):
        out = topology.dim4_gauss_bonnet_checks(2, 0)
        assert out["hitchin"]["passed"] and out["gursky_lebrun"]["passed"]
        out = topology.dim4_gauss_bonnet_checks(10, 0)
        assert out["hitchin"]["passed"] and not out["gursky_lebrun"]["passed"]
        out = topology.dim4_gauss_bonnet_checks(4, 2)
        assert out["hitchin"]["threshold"] == pytest.approx(1.5**1.5 * 2)
        assert out["hitchin"]["passed"] and not out["gursky_lebrun"]["passed"]

    def test_gromov_constant(self):
        # n = 2: M = 8^2 10^12 exactly; log10 C = 10^4 (log10 3 + M log10 2)
        expect = 1e4 * (math.log10(3.0) + 64e12 * math.log10(2.0))
        assert topology.gromov_log10_c(2) == pytest.approx(expect, rel=1e-12)
        vals = [topology.gromov_log10_c(n) for n in range(2, 11)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        for n in range(4, 11):
            assert topology.homology_dim_bound_log10(n) < topology.gromov_log10_c(n)

    def test_entropy_homology_bound(self):
        assert topology.homology_dim_from_entropy(4, 1.0, 0.0) == 16.0
        assert topology.homology_dim_from_entropy(4, 1.0, 1.0) == pytest.approx(
            topology.homology_dim_bound(4), rel=1e-12)
        a = topology.homology_dim_from_entropy(4, 1.0, 0.5)
        b = topology.homology_dim_from_entropy(4, 1.0, 1.5)
        assert a < b


class TestCertify:
    def test_dim5_threshold(self):
        bad = symmetric_profile(5, [DIM5_B2_THRESHOLD + 1], formal=True)
        rep = topology.certify(bad)
        assert rep.obstructed
        failing = [t.name for t in rep.tests if t.applicable and t.passed is False]
        assert "betti-p-bound" in failing
        good = symmetric_profile(5, [DIM5_B2_THRESHOLD], formal=True)
        assert not topology.certify(good).obstructed
        tiny = symmetric_profile(5, [1], formal=True)
        assert not topology.certify(tiny).obstructed

    def test_dim4_b2_cap(self):
        rep = topology.certify(symmetric_profile(4, [231], formal=True))
        assert rep.obstructed
        assert not topology.certify(symmetric_profile(4, [230], formal=True)).obstructed
        # the certifier's implied maximum b_2 in dimension four is exactly 230
        max_pass = max(
            b2 for b2 in range(1, 300)
            if not topology.certify(symmetric_profile(4, [b2], formal=True)).obstructed)
        assert max_pass == 230

    def test_product_of_spheres_passes(self):
        prof = topology.BettiProfile(4, [1, 0, 2, 0, 1], formal=True, chi=4, tau=0)
        rep = topology.certify(prof)
        assert not rep.obstructed
        assert rep.verdict == "no obstruction found"

    def test_gauss_bonnet_fail(self):
        prof = symmetric_profile(4, [8], formal=True, chi=10, tau=0)
        rep = topology.certify(prof)
        failing = [t.name for t in rep.tests if t.applicable and t.passed is False]
        assert failing == ["gursky-lebrun"]

    def test_radius_test(self):
        r_bad = math.exp(-topology.neg_log_r_upper(4, 1.0)) / 2.0
        prof = topology.BettiProfile(4, [1, 0, 2, 0, 1], radius=r_bad)
        rep = topology.certify(prof)
        failing = [t.name for t in rep.tests if t.applicable and t.passed is False]
        assert "homotopy-radius" in failing

    def test_root_radius_needs_establishment(self):
        # formal but hyperbolicity unknown: the root test stays out of the verdict
        prof = symmetric_profile(6, [0, 9], formal=True)
        rep = topology.certify(prof)
        root_test = next(t for t in rep.tests if t.name == "poincare-root-radius")
        assert not root_test.applicable
        # supplying a radius below one establishes hyperbolicity
        prof2 = symmetric_profile(6, [0, 9], formal=True, radius=0.5)
        rep2 = topology.certify(prof2)
        root_test2 = next(t for t in rep2.tests if t.name == "poincare-root-radius")
        assert root_test2.applicable

    def test_monotone_in_betti(self):
        # bumping any free Betti entry never flips a fail back to a pass
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(4, 8))
            half = (n - 2) // 2 - (1 if n % 2 == 0 else 0) + 1
            mid = [int(rng.integers(0, 400))] + [int(rng.integers(0, 10))
                                                 for _ in range(half - 1)]
            prof = symmetric_profile(n, mid, formal=True)
            was_obstructed = topology.certify(prof).obstructed
            if not was_obstructed:
                continue
            k = int(rng.integers(0, half))
            bigger = list(mid)
            bigger[k] += int(rng.integers(1, 50))
            assert topology.certify(symmetric_profile(n, bigger, formal=True)).obstructed

    def test_report_json_and_text(self):
        rep = topology.certify(symmetric_profile(4, [231], formal=True))
        doc = rep.to_json_dict()
        assert doc["obstructed"] is True
        assert "no Einstein metric" in doc["verdict"]
        text = rep.render_text()
        assert "FAIL" in text and "babenko-b2" in text

    def test_suma_consistency_for_passing_profiles(self):
        # the radius-based homology bound evaluated at the root radius always
        # dominates the actual Betti sum
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(4, 9))
            half = (n - 2) // 2 - (1 if n % 2 == 0 else 0) + 1
            mid = [int(rng.integers(0, 9)) for _ in range(half)]
            prof = symmetric_profile(n, mid, formal=True)
            if topology.certify(prof).obstructed:
                continue
            r_up = topology.felix_thomas_r_upper(prof)
            assert topology.homology_dim_from_radius(n, r_up) >= prof.total_homology - 1e-6


def test_load_profile_inline_and_file(tmp_path):
    doc = {"n": 4, "betti": [1, 0, 2, 0, 1], "formal": True}
    p1 = topology.load_profile(json.dumps(doc))
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(doc))
    p2 = topology.load_profile(str(path))
    assert p1.betti == p2.betti == [1, 0, 2, 0, 1]
