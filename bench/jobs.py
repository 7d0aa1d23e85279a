"""Seeded job mixes for the four benchmark workloads and the closed-form
references every job's report is checked against.

A job is one ``geoflow`` command line.  The benchmark derives the work a job
asks for (trajectories, RK4 steps, arclength, profiles) from its command line
and the parsed model, never from the program's own counters, so those figures
stay comparable when the program changes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import mpmath
import numpy as np

WORKLOADS = ("bundle-expansion", "orbit-batch1", "arc-count", "certify-sweep")

#: grid points ``cli._default_grid`` lays on [t_max / 10, t_max] per command
GRID_POINTS = {"estimate": 25, "count": 12}

#: largest accepted deviation from a closed-form reference, per check
SLOPE_TOL = 1e-6          # fitted slope of an isotropic space form
SERIES_TOL = 1e-5         # log mean expansion on a product of round spheres
COUNT_TOL = 1e-4          # relative error of a ball-averaged arc count; the
                          # trapezoidal radial sum alone is off by h^2 / 12
EXACT_TOL = 1e-9          # bound values, root radii, Gromov table entries
#: share of its trajectories ``mane_series`` or ``counting_series`` may drop
#: (non-finite or out of charts); beyond it they raise and the CLI exits 3
DROP_SHARE = 0.01

#: deviations below one unit in the last place read as this, so ``ref_err``
#: is never zero
EPS = float(np.finfo(float).eps)


class CheckFailed(Exception):
    """A report disagrees with its reference or with a previous run."""


@dataclass(frozen=True)
class Job:
    """One command line plus the work it asks for."""

    argv: tuple
    expect: int = 0        # exit code the job must return
    batch: int = 0         # trajectories propagated by the job's one propagate call
    steps: int = 0         # RK4 steps of that call
    t_max: float = 0.0
    profiles: int = 0      # Betti profiles certified
    seeded: bool = False   # drawn from the benchmark seed: checked, but kept out
                           # of ref_err so that it repeats across seeds

    @property
    def command(self):
        return self.argv[0]

    @property
    def row_steps(self):
        return self.batch * self.steps

    @property
    def arclength(self):
        return self.batch * self.t_max


def cli_grid(command, t_max):
    """The time grid the CLI integrates to for ``estimate`` and ``count``."""
    return np.linspace(t_max / 10.0, t_max, GRID_POINTS[command])


def rk4_steps(grid, step):
    """RK4 steps the grid loop of ``geodesics.propagate`` takes: full steps
    up to each grid time, with a shortened last step landing on it."""
    t, n = 0.0, 0
    for target in grid:
        while t < target - 1e-12:
            t += min(step, target - t)
            n += 1
        t = float(target)
    return n


def spec_params(spec):
    """``kind`` and float parameters of a spec string like ``sphere:n=2``."""
    kind, _, rest = spec.partition(":")
    params = {}
    for item in filter(None, rest.split(",")):
        key, _, val = item.partition("=")
        params[key] = float(val)
    return kind, params


# -- job mixes ---------------------------------------------------------------------

#: spec, t_max, step, sampling seed (None: drawn from the benchmark seed).
#: The sphere products keep fixed samples so their closed-form deviation,
#: part of ref_err, is the same in every run.  An ellipsoid job takes about
#: a third as long as a sphere-product job, and there are fewer of them, so
#: a run's median falls among the sphere products and not on a boundary
#: between two kinds of job, where the seed-drawn ellipsoid samples would
#: move it.
BUNDLE_ESTIMATES = (
    ("sphereprod:p=2,q=2", 1.0, 2e-2, 1),
    ("sphereprod:p=2,q=2", 1.0, 2e-2, 2),
    ("sphereprod:p=2,q=2", 1.0, 2e-2, 3),
    ("ellipsoid:a=1,b=1,c=2", 2.0, 1e-2, None),
    ("ellipsoid:a=1,b=1,c=2", 2.0, 1e-2, None),
)
ORBIT_ESTIMATES = (
    ("hyperbolic:n=2", 1.5, 1e-3),
    ("hyperbolic:n=3", 1.5, 1e-3),
    ("sphere:n=3", 1.5, 1e-3),
)
BOUND_SPECS = ("sphere:n=2", "torus:n=2", "hyperbolic:n=2",
               "ellipsoid:a=1,b=1,c=2", "sphereprod:p=2,q=2")
#: spec, t_max, directions, step; sized so each job takes about as long as
#: the others and the median job is not a boundary between two kinds
COUNTS = (
    ("sphere:n=2", 7.0, 16, 1e-2),
    ("ellipsoid:a=1,b=1,c=2", 10.0, 16, 2e-2),
    ("sphereprod:p=2,q=2", 3.0, 48, 2e-2),
    ("hyperbolic:n=2", 8.0, 8, 1e-2),
)
DIM4_SWEEP = range(1, 301)
DIM5_PAIR = (383882338, 383882339)
RANDOM_DIMS = range(4, 25)
RANDOM_SLOTS = 3
SAMPLES = 100

WARMUP = {
    "bundle-expansion": ("estimate", "ellipsoid:a=1,b=1,c=2", "--samples", "100",
                         "--t-max", "0.5", "--step", "1e-2"),
    "orbit-batch1": ("estimate", "hyperbolic:n=2", "--t-max", "0.5", "--step", "1e-3"),
    "arc-count": ("count", "sphere:n=2", "--t-max", "0.5", "--samples", "16",
                  "--step", "1e-2"),
    "certify-sweep": ("certify", "--profile", '{"n": 4, "betti": [1, 0, 3, 0, 1], "formal": true}'),
}


def workload_specs(workload):
    """Every model spec the workload parses."""
    return {
        "bundle-expansion": [s for s, _, _, _ in BUNDLE_ESTIMATES],
        "orbit-batch1": [s for s, _, _ in ORBIT_ESTIMATES],
        "arc-count": [s for s, _, _, _ in COUNTS],
        "certify-sweep": list(BOUND_SPECS),
    }[workload]


def _integration_job(command, spec, model, t_max, step, samples, seed):
    batch = 1 if command == "estimate" and model.isotropic else samples
    argv = (command, spec, "--samples", str(samples), "--t-max", repr(t_max),
            "--step", repr(step), "--seed", str(seed), "--format", "json")
    steps = rk4_steps(cli_grid(command, t_max), step)
    return Job(argv, batch=batch, steps=steps, t_max=t_max)


def _certify_job(profile, seeded=False):
    text = json.dumps(profile, separators=(",", ":"))
    return Job(("certify", "--profile", text, "--format", "json"),
               expect=int(reference_obstructed(profile)), profiles=1, seeded=seeded)


def random_profile(rng, n, slot):
    """Poincare-dual, simply connected, formal Betti data in dimension n.

    The seed draws the digits; the slot (0, 1 or 2) fixes how many, so the
    certifier's exact polynomial arithmetic costs about the same for every
    seed.  b_2 gets up to 1.1 times the digits of the middle-Betti bound
    (capped at 12), so both verdicts occur.
    """
    betti = [0] * (n + 1)
    betti[0] = betti[n] = 1
    top = min(1.1 * betti_p_bound_log10(n), 12.0)
    digits = max(1, round(top * (slot + 1) / 3))
    betti[2] = betti[n - 2] = int(rng.integers(10 ** (digits - 1), 10**digits))
    for i in range(3, n // 2 + 1):
        betti[i] = betti[n - i] = int(rng.integers(10, 100))
    return {"n": n, "betti": betti, "formal": True}


def build_jobs(workload, seed, models):
    """The workload's round of jobs, in a seeded order.

    ``models`` maps each spec of :func:`workload_specs` to its parsed model.
    The seed picks sampling seeds, random profiles and the order; the work a
    round asks for does not depend on it.
    """
    rng = np.random.default_rng(seed)

    def cli_seed():
        return int(rng.integers(0, 2**31 - 1))

    jobs = []
    if workload == "bundle-expansion":
        for spec, t_max, step, fixed in BUNDLE_ESTIMATES:
            jobs.append(_integration_job("estimate", spec, models[spec], t_max, step,
                                         SAMPLES, cli_seed() if fixed is None else fixed))
    elif workload == "orbit-batch1":
        for spec, t_max, step in ORBIT_ESTIMATES:
            jobs.append(_integration_job("estimate", spec, models[spec], t_max, step,
                                         SAMPLES, cli_seed()))
    elif workload == "arc-count":
        for spec, t_max, dirs, step in COUNTS:
            jobs.append(_integration_job("count", spec, models[spec], t_max, step,
                                         dirs, cli_seed()))
    elif workload == "certify-sweep":
        for b2 in DIM4_SWEEP:
            jobs.append(_certify_job({"n": 4, "betti": [1, 0, b2, 0, 1], "formal": True}))
        for b2 in DIM5_PAIR:
            jobs.append(_certify_job({"n": 5, "betti": [1, 0, b2, b2, 0, 1], "formal": True}))
        for n in RANDOM_DIMS:
            for slot in range(RANDOM_SLOTS):
                jobs.append(_certify_job(random_profile(rng, n, slot), seeded=True))
        jobs.append(Job(("gromov", "--n-max", "10", "--format", "json")))
        # bound takes milliseconds, like certify; among the seconds-long
        # integrations of orbit-batch1 it would pull the median to a low quantile
        for spec in BOUND_SPECS:
            jobs.append(Job(("bound", spec, "--seed", str(cli_seed()), "--format", "json")))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


# -- closed-form references ------------------------------------------------------------


def _neg_log_r(n):
    """pi sqrt(n-1) (n-2) / 2, the curvature bound on -log R (mpmath)."""
    return mpmath.pi * mpmath.sqrt(n - 1) * (n - 2) / 2


def betti_p_bound_log10(n, p=2):
    with mpmath.workdps(30):
        return float(mpmath.log10(mpmath.mpf(n) / p) + p * _neg_log_r(n) / mpmath.ln(10))


def reference_obstructed(profile):
    """Verdict of the obstruction tests, evaluated at 30 digits from their
    closed forms, for formal (p = 2) profiles without chi, tau or R."""
    n, b = profile["n"], profile["betti"]
    with mpmath.workdps(30):
        B = _neg_log_r(n)
        if sum(b) > (1 + mpmath.exp(B)) ** n:
            return True
        if b[2] >= 1 and b[2] > mpmath.mpf(n) / 2 * mpmath.exp(2 * B):
            return True
        if n == 4 and b[2] >= 3:
            inv_r = (b[2] + mpmath.sqrt(mpmath.mpf(b[2]) ** 2 - 4)) / 2
            # Babenko's 1/R bound, and the Poincare root radius 1/sqrt(1/R)
            if inv_r > mpmath.exp(B) or inv_r > mpmath.exp(2 * B):
                return True
    return False


def _rel(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def _bound_reference(spec):
    """K_max, K_min, min_ricci and the four bounds for a built-in spec."""
    kind, p = spec_params(spec)
    if kind == "sphere":
        n, K = int(p["n"]), 1.0 / p.get("r", 1.0) ** 2
        kmax, kmin, ric = K, K, (n - 1) * K
    elif kind == "torus":
        n, kmax, kmin, ric = int(p["n"]), 0.0, 0.0, 0.0
    elif kind == "hyperbolic":
        n, c = int(p["n"]), p.get("c", 1.0)
        kmax, kmin, ric = -c, -c, -(n - 1) * c
    elif kind == "ellipsoid" and p["a"] == p["b"]:
        # surface of revolution: K = c^2 / a^4 at the poles, 1 / c^2 on the equator
        n, a, c = 2, p["a"], p["c"]
        kmax, kmin = max(c * c / a**4, 1.0 / (c * c)), min(c * c / a**4, 1.0 / (c * c))
        ric = kmin
    elif kind == "sphereprod":
        pp, qq = int(p["p"]), int(p["q"])
        n, kmax, kmin, ric = pp + qq, 1.0, 0.0, float(min(pp - 1, qq - 1))
    else:
        raise ValueError(f"no closed form for {spec}")
    kabs = max(abs(kmax), abs(kmin))
    return {
        "n": n, "K_max": kmax, "K_min": kmin, "min_ricci": ric,
        "theorem_b": (n - 1) * math.sqrt(kmax) / 2 - ric / (2 * math.sqrt(kmax))
        if kmax > 0 else None,
        "manning": (n - 1) * math.sqrt(kabs) if kabs > 0 else None,
        "grossman": 2 * (n - 1) / math.pi * math.log(2 + math.pi / 2),
        "nonpositive": math.sqrt(-(n - 1) * ric) if ric <= 0 else None,
    }


def _product_series(model, p, q, samples, seed, grid):
    """log of the mean expansion on a product of unit round spheres.

    A product of round spheres is a symmetric space, so the Jacobi operator is
    constant in a parallel frame, with eigenvalues cos^2 a (p-1 times),
    sin^2 a (q-1 times) and 0, where cos a is the length of the velocity's
    first factor.  Each eigenvalue w^2 gives a unimodular 2x2 block
    [[cos wt, sin(wt)/w], [-w sin wt, cos wt]] whose larger singular value is
    (sqrt(F + 2) + sqrt(F - 2)) / 2, F its squared Frobenius norm; the
    expansion is the product of those.
    """
    pp, qq = int(p), int(q)
    states = model.sample_sphere_bundle(samples, seed)
    V = np.stack([s.v for s in states])
    g = model.chart(0).metric(states[0].x)
    c2 = np.einsum("bi,ij,bj->b", V[:, :pp], g[:pp, :pp], V[:, :pp])
    t = np.asarray(grid)[:, None]
    log_exp = np.zeros((len(grid), len(states)))
    for w2, mult in ((c2, pp - 1), (1.0 - c2, qq - 1), (np.zeros_like(c2), 1)):
        w = np.sqrt(np.clip(w2, 0.0, None))[None, :]
        cos, sinc = np.cos(w * t), t * np.sinc(w * t / np.pi)
        F = 2 * cos**2 + sinc**2 + (w * w * sinc) ** 2
        F = np.maximum(F, 2.0)
        log_exp += mult * np.log((np.sqrt(F + 2) + np.sqrt(F - 2)) / 2)
    return np.log(np.mean(np.exp(log_exp), axis=1))


def _count_reference(kind, T):
    """Ball-averaged arc count 2 pi int_0^T |det A(r)| dr on S^2 and H^2."""
    if kind == "sphere":
        k, rem = divmod(T, math.pi)
        return 2 * math.pi * (2 * k + 1 - math.cos(rem))
    return 2 * math.pi * (math.cosh(T) - 1)


def _dim4_root_radius(b2):
    if b2 < 2:
        return 1.0
    return math.sqrt(2.0 / (b2 + math.sqrt(b2 * b2 - 4.0)))


def _gromov_reference(n):
    with mpmath.workdps(50):
        B = _neg_log_r(n)
        betti_sum = n * mpmath.log10(1 + mpmath.exp(B))
        M = 8**n * 10 ** (n * n + 4 * n)
        universal = mpmath.mpf(100) ** n * (mpmath.log10(n + 1) + M * mpmath.log10(2))
        return float(universal), float(betti_sum)


def dropped_rows(job, report):
    """Trajectories an ``estimate`` report says were left out.

    The estimators drop a trajectory that turns non-finite or runs out of
    charts and keep the rest, up to :data:`DROP_SHARE` of the batch.  A
    sampled state near a chart pole and heading into it can pass the pole
    before ``propagate`` first checks its chart, and turn non-finite; on
    bundle-expansion some seeds draw such a state.  That report is within
    the program's contract, so it is not a failed job, but the drop is
    counted (``geodesics.propagate.dropped_rows``) rather than hidden.
    ``count`` reports carry no such count; the CLI's exit code is their check.
    """
    meta = report["series"]["metadata"]
    dropped = int(meta["failed"])
    if dropped > DROP_SHARE * job.batch:
        raise CheckFailed(f"{dropped} of {job.batch} trajectories dropped")
    if "evaluated" in meta and meta["evaluated"] + dropped != job.batch:
        raise CheckFailed(f"{meta['evaluated']} evaluated + {dropped} dropped "
                          f"is not {job.batch} trajectories")
    return dropped


def check_report(job, report, models):
    """Largest deviation of the report from its closed-form reference, or None
    where the job has none.  Raises :class:`CheckFailed` on a wrong answer."""
    cmd = job.command
    if cmd in ("estimate", "count", "bound"):
        spec = job.argv[1]
        kind, params = spec_params(spec)
    if cmd == "estimate":
        dropped_rows(job, report)
        if not report["bound_check"]["satisfied"]:
            raise CheckFailed(f"{spec}: slope exceeds the curvature bound")
        slope = report["estimate"]["slope"]
        if kind == "hyperbolic" and params.get("c", 1.0) == 1.0:
            dev = abs(slope - (params["n"] - 1))
            tol = SLOPE_TOL
        elif kind == "sphere" and params.get("r", 1.0) == 1.0:
            dev, tol = abs(slope), SLOPE_TOL
        elif kind == "sphereprod":
            y = np.array([float(v) for v in report["series"]["y"]])
            t = np.array([float(v) for v in report["series"]["t"]])
            cfg = report["config"]
            ref = _product_series(models[spec], params["p"], params["q"],
                                  cfg["samples"], cfg["seed"], t)
            dev, tol = float(np.max(np.abs(y - ref))), SERIES_TOL
        else:
            return None
    elif cmd == "count":
        integrals = report["series"]["integrals"]
        if not all(math.isfinite(v) and v > 0 for v in integrals):
            raise CheckFailed(f"{spec}: non-positive or non-finite count")
        if kind not in ("sphere", "hyperbolic"):
            return None
        t = [float(v) for v in report["series"]["t"]]
        dev = max(_rel(v, _count_reference(kind, T)) for v, T in zip(integrals, t))
        tol = COUNT_TOL
    elif cmd == "bound":
        want = _bound_reference(spec)
        got = report["bounds"]
        dev = 0.0
        for key, ref in want.items():
            if (ref is None) != (got[key] is None):
                raise CheckFailed(f"{spec}: {key} is {got[key]}, expected {ref}")
            if ref is not None:
                dev = max(dev, abs(got[key] - ref))
        tol = EXACT_TOL
    elif cmd == "certify":
        obs = report["obstruction"]
        if obs["obstructed"] != bool(job.expect):
            raise CheckFailed(f"wrong verdict for {obs['profile']['betti']}")
        profile = obs["profile"]
        if profile["n"] != 4 or job.seeded:
            return None
        b2 = profile["betti"][2]
        tests = {t["name"]: t for t in obs["tests"]}
        dev = _rel(tests["poincare-root-radius"]["observed"], _dim4_root_radius(b2))
        if b2 >= 3:
            inv_r = (b2 + math.sqrt(b2 * b2 - 4.0)) / 2
            dev = max(dev, _rel(tests["babenko-b2"]["observed"], inv_r))
        tol = EXACT_TOL
    elif cmd == "gromov":
        if not report["curvature_bound_smaller_everywhere"]:
            raise CheckFailed("gromov: universal constant reported smaller")
        dev = 0.0
        for row in report["table"]:
            universal, betti_sum = _gromov_reference(row["n"])
            dev = max(dev, _rel(row["log10_universal_constant"], universal),
                      _rel(row["log10_betti_sum_bound"], betti_sum))
        tol = EXACT_TOL
    else:
        raise CheckFailed(f"no check for {cmd}")
    if not dev <= tol:
        raise CheckFailed(f"{' '.join(job.argv[:2])}: deviation {dev:.3g} above {tol:g}")
    return dev
