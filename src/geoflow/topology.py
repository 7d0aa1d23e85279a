"""Topological bounds and the Einstein-metric obstruction certifier.

Inputs are Betti profiles (dimension, Betti numbers, formality and
connectivity flags, optional Euler characteristic / signature / homotopy
radius).  The certifier evaluates every inequality a closed simply connected
Einstein manifold of non-negative sectional curvature must satisfy, gated by
the hypotheses each inequality actually needs, and reports the violated ones.
Verdicts are conservative: a test that would only apply under rational
hyperbolicity is not counted against a profile unless hyperbolicity is
established by the supplied data.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np

from .errors import ProfileValidationError

LOG10_E = math.log10(math.e)
#: floats above this are reported alongside their log10 form
BIG = 1e15
#: prime of the square-free test; below 2^30, so every residue is a one-digit int
PRIME = 1_000_000_007


# -- profiles ----------------------------------------------------------------------


@dataclass
class BettiProfile:
    """Rational Betti data of a closed simply connected manifold."""

    n: int
    betti: list
    formal: bool = False
    connected_p: int = 2
    simply_connected: bool = True
    chi: int | None = None
    tau: int | None = None
    radius: float | None = None  # radius of convergence of the homotopy series

    def __post_init__(self):
        self.validate()
        self.n, self.connected_p = int(self.n), int(self.connected_p)
        self.betti = [int(b) for b in self.betti]

    def validate(self):
        for key, flag in (("formal", self.formal), ("simply_connected", self.simply_connected)):
            if not isinstance(flag, bool):
                raise ProfileValidationError(f"{key} must be true or false, got {flag!r}")
        for key, val in (("chi", self.chi), ("tau", self.tau), ("R", self.radius)):
            if val is not None and (isinstance(val, bool) or not isinstance(val, numbers.Real)):
                raise ProfileValidationError(f"{key} must be a number, got {val!r}")
        for key, val in (("n", self.n), ("connected_p", self.connected_p),
                         *((f"b_{i}", bi) for i, bi in enumerate(self.betti))):
            if isinstance(val, bool) or not isinstance(val, numbers.Integral):
                raise ProfileValidationError(
                    f"malformed profile: {key} must be an integer, got {val!r}")
        b = self.betti
        n = self.n
        if n < 2:
            raise ProfileValidationError("dimension must be >= 2")
        if len(b) != n + 1:
            raise ProfileValidationError(f"expected {n + 1} Betti numbers, got {len(b)}")
        if any(x < 0 for x in b):
            raise ProfileValidationError("Betti numbers must be non-negative")
        if not self.simply_connected:
            raise ProfileValidationError(
                "only simply connected profiles are accepted (pass to the "
                "universal cover for finite fundamental groups)")
        if b[0] != 1 or b[n] != 1 or b[1] != 0:
            raise ProfileValidationError(
                "simply connected closed profiles need b_0 = b_n = 1 and b_1 = 0")
        for i in range(n + 1):
            if b[i] != b[n - i]:
                raise ProfileValidationError(
                    f"Poincare duality violated: b_{i} = {b[i]} != b_{n - i} = {b[n - i]}")
        if not 2 <= self.connected_p <= n:
            raise ProfileValidationError("connectivity p must satisfy 2 <= p <= n")
        for i in range(1, self.connected_p):
            if b[i] != 0:
                raise ProfileValidationError(
                    f"a {self.connected_p - 1}-connected manifold needs b_{i} = 0")
        if self.chi is not None:
            alt = sum((-1) ** i * bi for i, bi in enumerate(b))
            if self.chi != alt:
                raise ProfileValidationError(
                    f"Euler characteristic {self.chi} != alternating Betti sum {alt}")
        if self.radius is not None and self.radius <= 0.0:
            raise ProfileValidationError("radius of convergence must be positive")

    @property
    def total_homology(self):
        return int(sum(self.betti))

    @classmethod
    def from_json_dict(cls, data):
        try:
            return cls(
                n=data["n"],
                betti=list(data["betti"]),
                formal=data.get("formal", False),
                connected_p=data.get("connected_p", 2),
                simply_connected=data.get("simply_connected", True),
                chi=data.get("chi"),
                tau=data.get("tau"),
                radius=data.get("R"),
            )
        except (KeyError, TypeError) as exc:
            raise ProfileValidationError(f"malformed profile: {exc!r}") from exc

    def to_json_dict(self):
        return {
            "n": self.n,
            "betti": list(self.betti),
            "formal": self.formal,
            "connected_p": self.connected_p,
            "chi": self.chi,
            "tau": self.tau,
            "R": self.radius,
        }


# -- exact square-free decomposition + companion roots ------------------------------


def _poly_trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_deriv(p):
    return _poly_trim([p[i] * i for i in range(1, len(p))]) if len(p) > 1 else [Fraction(0)]


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    for deg in range(len(a) - len(b), -1, -1):
        if a[deg + len(b) - 1]:  # Poincare polynomials are often sparse
            q[deg] = coef = a[deg + len(b) - 1] / b[-1]
            for i, bi in enumerate(b):
                a[deg + i] -= coef * bi
    return _poly_trim(q), _poly_trim(a[: len(b) - 1] or [Fraction(0)])


def _poly_gcd(a, b):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while len(b) > 1 or b[0] != 0:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    return [c / a[-1] for c in a]  # monic


def _coprime_mod_prime(a, b):
    """Whether gcd(a, b) over GF(PRIME) is a non-zero constant, for integer
    coefficient lists a and b (lowest degree first)."""
    a, b = _poly_trim([c % PRIME for c in a]), _poly_trim([c % PRIME for c in b])
    while b[-1]:
        inv = pow(b[-1], -1, PRIME)
        for deg in range(len(a) - len(b), -1, -1):
            coef = a[deg + len(b) - 1] * inv % PRIME
            if coef:
                for i, bi in enumerate(b):
                    a[deg + i] = (a[deg + i] - coef * bi) % PRIME
        a, b = b, _poly_trim(a[: len(b) - 1] or [0])
    return len(a) == 1 and a[0] != 0


def square_free_factors(coeffs):
    """Exact square-free decomposition [(factor, multiplicity)] of a
    polynomial with rational coefficients, lowest degree first: [(p, 1)]
    when p is square-free, monic Fraction factors otherwise.

    An integer p whose leading coefficient PRIME does not divide is tested
    mod PRIME first: a constant gcd(p, p') there proves p square-free (by
    Gauss's lemma a repeated factor f^2 | p can be taken primitive, and f
    mod PRIME keeps its degree and divides p and p').  Otherwise Musser's
    loop runs over Q.
    """
    p = _poly_trim([Fraction(c) for c in coeffs])
    if len(p) <= 1:
        return []
    ints = [c.numerator for c in p]
    if (all(c.denominator == 1 for c in p) and ints[-1] % PRIME
            and _coprime_mod_prime(ints, _poly_deriv(ints))):
        return [(p, 1)]
    g = _poly_gcd(p, _poly_deriv(p))
    if len(g) == 1:
        return [(p, 1)]
    # for p = prod a_i^i: w = prod_{i >= mult} a_i and g = prod_{i > mult} a_i^(i - mult)
    w = [c / p[-1] for c in _poly_divmod(p, g)[0]]
    out = []
    mult = 1
    while len(w) > 1:
        y = _poly_gcd(w, g)
        z, _ = _poly_divmod(w, y)
        if len(z) > 1:
            out.append((z, mult))
        w, g = y, _poly_divmod(g, y)[0]
        mult += 1
    return out


def _poly_eval(coeffs, z):
    out = 0.0 + 0.0j
    for c in reversed(coeffs):
        out = out * z + complex(c)
    return out


def _companion_roots(coeffs):
    """Roots of a polynomial via companion-matrix eigenvalues plus Newton polish."""
    c = [float(x) for x in coeffs]
    d = len(c) - 1
    if d == 0:
        return np.array([], dtype=complex)
    if d == 1:
        return np.array([-c[0] / c[1]], dtype=complex)
    comp = np.zeros((d, d))
    comp[1:, :-1] = np.eye(d - 1)
    comp[:, -1] = [-x / c[-1] for x in c[:-1]]
    roots = np.linalg.eigvals(comp)
    dcoeffs = [c[i] * i for i in range(1, len(c))]
    scale = max(abs(x) for x in c)
    for i, z in enumerate(roots):
        for _ in range(5):
            pz = _poly_eval(c, z)
            if abs(pz) <= 1e-10 * scale * max(1.0, abs(z)) ** d:
                break
            dz = _poly_eval(dcoeffs, z)
            if dz == 0:
                break
            z = z - pz / dz
        roots[i] = z
    return roots


def poincare_roots(profile: BettiProfile):
    """All n complex roots of the Poincare polynomial sum b_i t^i.

    Duality pairs the roots into reciprocal pairs {z, 1/z}; multiple roots are
    isolated exactly by :func:`square_free_factors`, whose test mod a prime
    applies to every validated profile (integer b_i, b_n = 1), so
    reciprocity survives in floating point.
    """
    profile.validate()
    roots = []
    for factor, mult in square_free_factors(profile.betti):
        roots.extend(np.repeat(_companion_roots(factor), mult))
    return np.array(sorted(roots, key=lambda z: (abs(z), z.real, z.imag)), dtype=complex)


def reciprocity_defect(roots):
    """Greedy matching distance between the root multiset and its reciprocals."""
    pool = list(roots)
    worst = 0.0
    for z in roots:
        inv = 1.0 / z
        best_i = min(range(len(pool)), key=lambda i: abs(pool[i] - inv))
        worst = max(worst, abs(pool[best_i] - inv))
        pool.pop(best_i)
    return worst


def felix_thomas_r_upper(profile: BettiProfile):
    """Upper bound min |z_i| for the homotopy-series radius of a formal
    rationally hyperbolic manifold, from the Poincare polynomial roots."""
    roots = poincare_roots(profile)
    return float(np.min(np.abs(roots)))


# -- closed-form bounds --------------------------------------------------------------


def neg_log_r_upper(n, k=1.0):
    """Upper bound pi sqrt(n-1)/2 (sqrt(k)(n-1) - 1/sqrt(k)) for -log R under
    the normalization r >= g with max sectional curvature k; k = 1 gives
    pi sqrt(n-1)(n-2)/2, the Einstein non-negative-curvature case."""
    if k <= 0.0:
        raise ValueError("k must be positive")
    s = math.sqrt(k)
    return math.pi * math.sqrt(n - 1) / 2.0 * ((n - 1) * s - 1.0 / s)


def _log10_power(n, x):
    """log10 of (1 + e^x)^n, computed stably."""
    return n * (x * LOG10_E + math.log1p(math.exp(-x)) * LOG10_E)


def homology_dim_bound_log10(n):
    """log10 of (1 + exp(pi sqrt(n-1)(n-2)/2))^n, computed stably."""
    return _log10_power(n, neg_log_r_upper(n, 1.0))


def homology_dim_bound(n):
    """Total-homology bound (1 + exp(pi sqrt(n-1)(n-2)/2))^n for formal
    profiles; inf when it exceeds double range (use the log10 variant)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    lg = homology_dim_bound_log10(n)
    return math.inf if lg > 308.0 else 10.0**lg


def homology_dim_from_radius(n, R):
    """Total-homology bound (1 + 1/R)^n from a homotopy-series radius; an
    infinite radius (rationally elliptic) leaves the universal bound 2^n."""
    if R is None or math.isinf(R):
        return 2.0**n
    if R <= 0.0:
        raise ValueError("R must be positive")
    try:
        return (1.0 + 1.0 / R) ** n
    except OverflowError:
        return math.inf


def connected_radius_upper(n, p, b_p):
    """Radius bound (n / (p b_p))^(1/p) for (p-1)-connected formal manifolds."""
    if not 2 <= p <= n:
        raise ValueError("need 2 <= p <= n")
    if b_p < 1:
        raise ValueError("not applicable: b_p must be at least 1")
    return (n / (p * b_p)) ** (1.0 / p)


def betti_p_bound_log10(n, p):
    if not 2 <= p <= n:
        raise ValueError("need 2 <= p <= n")
    return math.log10(n / p) + p * neg_log_r_upper(n, 1.0) * LOG10_E


def betti_p_bound(n, p):
    """Middle-Betti bound (n/p) exp(p pi sqrt(n-1)(n-2)/2) for formal
    (p-1)-connected profiles; dimension five with p = 2 gives (5/2) e^{6 pi}."""
    lg = betti_p_bound_log10(n, p)
    return math.inf if lg > 308.0 else 10.0**lg


def babenko_inv_r_lower(b2):
    """Dimension-four lower bound (b_2 + sqrt(b_2^2 - 4))/2 for 1/R."""
    if b2 < 2:
        raise ValueError("not applicable below b_2 = 2 (rationally elliptic range)")
    return (b2 + math.sqrt(b2 * b2 - 4.0)) / 2.0


def babenko_max_b2():
    """Largest b_2 a dim-4 profile can carry before the 1/R lower bound
    contradicts the curvature upper bound on -log R."""
    cap = math.exp(neg_log_r_upper(4, 1.0))
    b2 = 2
    while babenko_inv_r_lower(b2 + 1) <= cap:
        b2 += 1
    return b2


def dim4_gauss_bonnet_checks(chi, tau):
    """Euler characteristic / signature tests special to dimension four.

    Returns the two verdicts: chi >= (3/2)^{3/2} |tau|, and 9 >= chi > (15/4)|tau|.
    """
    hitchin_thr = 1.5**1.5 * abs(tau)
    gl_lower = 15.0 / 4.0 * abs(tau)
    return {
        "hitchin": {
            "threshold": hitchin_thr,
            "observed": float(chi),
            "passed": chi >= hitchin_thr,
        },
        "gursky_lebrun": {
            "threshold": [gl_lower, 9.0],
            "observed": float(chi),
            "passed": (chi <= 9.0) and (chi > gl_lower),
        },
    }


def gromov_log10_c(n):
    """log10 of the universal Betti-sum constant ((n+1) 2^{M})^{100^n} with
    M = 8^n 10^{n^2 + 4n}; the inner exponent is computed exactly."""
    if n < 2:
        raise ValueError("n must be >= 2")
    M = 8**n * 10 ** (n * n + 4 * n)
    with mpmath.workdps(50):
        val = mpmath.mpf(100) ** n * (mpmath.log10(n + 1) + mpmath.mpf(M) * mpmath.log10(2))
        return float(val)


def homology_dim_from_entropy(n, delta, h):
    """Total-homology bound (1 + exp(pi h sqrt((n-1)/delta)))^n from an
    entropy value h under a Ricci lower bound delta."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if h < 0.0:
        raise ValueError("h must be non-negative")
    lg = _log10_power(n, math.pi * h * math.sqrt((n - 1) / delta))
    return math.inf if lg > 308.0 else 10.0**lg


# -- certifier -----------------------------------------------------------------------


@dataclass
class ObstructionTest:
    name: str
    applicable: bool
    relation: str  # "<=", ">=" or "in" (lo < observed <= hi)
    threshold: float | list | None
    observed: float | None
    passed: bool | None
    note: str = ""

    def to_json_dict(self):
        return dict(vars(self))


def _test(name, relation, applicable, threshold=None, observed=None, note=""):
    """One obstruction test.  An applicable test passes when the observed
    value (compared exactly, reported as a float) satisfies ``relation``
    against the threshold; a non-applicable one has ``passed = None``."""
    passed = None
    if applicable:
        if relation == "<=":
            passed = observed <= threshold
        elif relation == ">=":
            passed = observed >= threshold
        else:
            passed = threshold[0] < observed <= threshold[1]
    return ObstructionTest(name, applicable, relation, threshold,
                           None if observed is None else float(observed), passed, note)


@dataclass
class ObstructionReport:
    profile: BettiProfile
    tests: list
    notes: list = field(default_factory=list)

    @property
    def obstructed(self):
        return any(t.applicable and t.passed is False for t in self.tests)

    @property
    def verdict(self):
        if self.obstructed:
            return "no Einstein metric of non-negative sectional curvature"
        return "no obstruction found"

    def to_json_dict(self):
        return {
            "profile": self.profile.to_json_dict(),
            "tests": [t.to_json_dict() for t in self.tests],
            "obstructed": self.obstructed,
            "verdict": self.verdict,
            "notes": list(self.notes),
        }

    def render_text(self):
        lines = [f"obstruction report (n = {self.profile.n})"]
        for t in self.tests:
            status = "n/a " if not t.applicable else "PASS" if t.passed else "FAIL"
            detail = ""
            if t.observed is not None:
                detail = f" observed {_fmt6(t.observed)} {t.relation} threshold {_fmt6(t.threshold)}"
            note = f"  [{t.note}]" if t.note else ""
            lines.append(f"  {status}  {t.name}{detail}{note}")
        lines += [f"verdict: {self.verdict}"] + [f"note: {note}" for note in self.notes]
        return "\n".join(lines)


def _fmt6(value):
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt6(v) for v in value) + "]"
    if value is None:
        return "-"
    if isinstance(value, float) and (math.isinf(value) or abs(value) >= BIG):
        return f"10^{math.log10(value):.4g}" if not math.isinf(value) else "inf"
    return f"{value:.6g}"


def certify(profile: BettiProfile):
    """Run every applicable obstruction test against a Betti profile.

    A failing applicable test certifies that the profile admits no Einstein
    metric of non-negative sectional curvature.  Tests needing rational
    hyperbolicity stay non-applicable unless the supplied data establishes it
    (a radius below one, or dimension four with b_2 > 2).
    """
    profile.validate()
    n, b, p, formal = profile.n, profile.betti, profile.connected_p, profile.formal
    B = neg_log_r_upper(n, 1.0)
    tests = []
    dim4_hyperbolic = n == 4 and b[2] > 2
    notes = (["b_2 > 2 in dimension four establishes rational hyperbolicity"]
             if dim4_hyperbolic else [])
    hyperbolic_known = dim4_hyperbolic or (profile.radius is not None and profile.radius < 1.0)

    # total homology vs the formality bound (elliptic case covered by 2^n <= bound)
    if formal:
        tests.append(_test("betti-sum-bound", "<=", True, homology_dim_bound(n),
                           profile.total_homology))
    else:
        tests.append(_test("betti-sum-bound", "<=", False, observed=profile.total_homology,
                           note="needs the formality flag"))

    # first possibly non-zero Betti number of a (p-1)-connected formal profile
    if formal and b[p] >= 1:
        tests.append(_test("betti-p-bound", "<=", True, betti_p_bound(n, p), b[p],
                           note=f"p = {p}"))
    else:
        tests.append(_test("betti-p-bound", "<=", False, note="needs formality and b_p >= 1"))

    # dimension-four b_2 cap from the reciprocal-radius lower bound
    if n == 4 and b[2] >= 3:
        tests.append(_test("babenko-b2", "<=", True, math.exp(B), babenko_inv_r_lower(b[2])))
    else:
        tests.append(_test("babenko-b2", "<=", False, note="dimension four with b_2 >= 3 only"))

    # dimension-four Gauss-Bonnet style tests
    if n == 4 and profile.chi is not None and profile.tau is not None:
        checks = dim4_gauss_bonnet_checks(profile.chi, profile.tau)
        tests.append(_test("hitchin", ">=", True, checks["hitchin"]["threshold"], profile.chi))
        tests.append(_test("gursky-lebrun", "in", True, checks["gursky_lebrun"]["threshold"],
                           profile.chi))
    else:
        tests += [_test(nm, ">=", False, note="dimension four with chi and tau only")
                  for nm in ("hitchin", "gursky-lebrun")]

    # user-supplied homotopy radius against the curvature bound
    if profile.radius is not None and not math.isinf(profile.radius):
        tests.append(_test("homotopy-radius", "<=", True, B, -math.log(profile.radius)))
    else:
        tests.append(_test("homotopy-radius", "<=", False, B,
                           note="needs a supplied radius of convergence"))

    # Poincare-polynomial root radius (formal + rationally hyperbolic only)
    min_root = felix_thomas_r_upper(profile)
    thr = math.exp(-B)
    if formal and hyperbolic_known:
        tests.append(_test("poincare-root-radius", ">=", True, thr, min_root))
    else:
        note = "needs formality and established rational hyperbolicity"
        if formal and min_root < thr:
            note += "; would obstruct under rational hyperbolicity"
        tests.append(_test("poincare-root-radius", ">=", False, thr, min_root, note))

    return ObstructionReport(profile=profile, tests=tests, notes=notes)


def load_profile(path_or_text):
    """Read a Betti profile from a JSON file path or a JSON string."""
    text = path_or_text
    if not str(path_or_text).lstrip().startswith("{"):
        with open(path_or_text) as fh:
            text = fh.read()
    return BettiProfile.from_json_dict(json.loads(text))
