"""Gaussian noise operator and the big-sphere limit machinery.

The smoothing kernel against the standard Gaussian measure is

    (1 - rho^2)^(-n/2) * exp(-(rho^2 ||x||^2 - 2 rho <x,y> + rho^2 ||y||^2)
                              / (2 (1 - rho^2))),

the sign of the cross term chosen so that the kernel averages to one and
matches the direct definition E[f(rho x + sqrt(1-rho^2) z)]; the positive
cross term seen in one printed source fails both checks, and the erratum is
pinned by tests.  The big-sphere kernel factors into a finite-dimensional
piece converging to this kernel and a spherical Poisson piece of unit mass,
with radius tied to the ambient dimension by R = sqrt(N - n - 3).  The
factor functions take vectors stacked along leading axes, with rho a scalar
or one per row, and :func:`factor_check` runs every check of the
factorization as one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .entropy import PsiSpec, binary_entropy, normal_cdf, normal_pdf, \
    normal_quantile

__all__ = [
    "GaussianSetSpec",
    "LimitParams",
    "random_interval_union",
    "mehler_kernel",
    "ou_apply",
    "neg_cond_entropy",
    "neg_cond_entropy_gh",
    "gaussian_mi",
    "a_factor",
    "r_factor",
    "u_rho_N",
    "q_rho",
    "poisson_factor",
    "poisson_factor_mass_mc",
    "decomposition_integral_check",
    "factor_check",
    "borell_check",
    "log_sphere_area",
]

_QUAD_LIMIT = 10.0


@dataclass(frozen=True)
class GaussianSetSpec:
    """Indicator set reducible to coordinate 1: a halfspace x1 >= t or a
    finite union of disjoint intervals for x1."""

    kind: str
    threshold: float = 0.0
    intervals: tuple = ()

    def __post_init__(self):
        if self.kind not in ("halfspace", "interval_union"):
            raise ValueError(f"unknown set kind {self.kind!r}")
        if self.kind == "interval_union":
            iv = self.intervals
            if not iv:
                raise ValueError("interval union needs at least one interval")
            last = -math.inf
            for a, b in iv:
                if not (math.isfinite(a) and math.isfinite(b) and a < b):
                    raise ValueError(f"bad interval ({a}, {b})")
                if a < last:
                    raise ValueError("intervals must be disjoint and sorted")
                last = b

    @classmethod
    def halfspace(cls, threshold: float) -> "GaussianSetSpec":
        return cls("halfspace", threshold=float(threshold))

    @classmethod
    def halfspace_with_measure(cls, mu: float) -> "GaussianSetSpec":
        return cls("halfspace", threshold=-normal_quantile(mu))

    @classmethod
    def interval_union(cls, intervals) -> "GaussianSetSpec":
        iv = tuple((float(a), float(b)) for a, b in intervals)
        return cls("interval_union", intervals=iv)

    def measure(self) -> float:
        if self.kind == "halfspace":
            return normal_cdf(-self.threshold)
        return math.fsum(normal_cdf(b) - normal_cdf(a)
                         for a, b in self.intervals)

    def indicator(self, x1) -> np.ndarray:
        x = np.asarray(x1, dtype=float)
        if self.kind == "halfspace":
            return (x >= self.threshold).astype(float)
        out = np.zeros_like(x)
        for a, b in self.intervals:
            out += ((x >= a) & (x <= b)).astype(float)
        return np.clip(out, 0.0, 1.0)


def random_interval_union(mu: float, pieces: int, rng) -> GaussianSetSpec:
    """Random union of ``pieces`` disjoint intervals with exact Gaussian
    measure ``mu``, built by splitting quantile space."""
    if not 0.0 < mu < 1.0:
        raise ValueError("measure must be in (0, 1)")
    lengths = rng.dirichlet(np.ones(pieces)) * mu
    gaps = rng.dirichlet(np.ones(pieces + 1)) * (1.0 - mu)
    # Gap, piece, gap, piece, ...: the running sum gives each piece's ends.
    edges = np.cumsum(np.column_stack([gaps[:-1], lengths])).reshape(-1, 2)
    iv = [(normal_quantile(a), normal_quantile(b)) for a, b in edges]
    return GaussianSetSpec.interval_union(iv)


def _check_rho(rho, name: str = "correlation"):
    """One correlation as a float, or a per-row array of them, in [0, 1)."""
    vals = np.asarray(rho, dtype=float)
    if not ((0.0 <= vals) & (vals < 1.0)).all():
        raise ValueError(f"{name} {rho!r} outside [0, 1)")
    return float(vals) if vals.ndim == 0 else vals


def mehler_kernel(x, y, rho: float) -> float:
    """Smoothing kernel density against the Gaussian measure."""
    rho = _check_rho(rho)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    quad_form = (rho ** 2 * (x @ x) - 2.0 * rho * (x @ y)
                 + rho ** 2 * (y @ y))
    return float((1.0 - rho ** 2) ** (-n / 2.0)
                 * math.exp(-quad_form / (2.0 * (1.0 - rho ** 2))))


def ou_apply(f: GaussianSetSpec, rho: float, x1: float) -> float:
    """Conditional probability of the set for the noisy copy, closed form.

    For the halfspace x1 >= t this is Phi((rho x1 - t)/sqrt(1 - rho^2));
    interval unions sum the matching CDF differences.
    """
    rho = _check_rho(rho)
    x1 = float(x1)
    s = math.sqrt(1.0 - rho ** 2)
    if f.kind == "halfspace":
        return normal_cdf((rho * x1 - f.threshold) / s)
    total = math.fsum(
        normal_cdf((b - rho * x1) / s) - normal_cdf((a - rho * x1) / s)
        for a, b in f.intervals)
    return min(max(total, 0.0), 1.0)


def neg_cond_entropy(f: GaussianSetSpec, rho: float) -> float:
    """-H(f(x) | y) = E_x[-h(U_rho f(x))] by adaptive quadrature."""
    rho = _check_rho(rho)

    def integrand(s):
        return -binary_entropy(ou_apply(f, rho, s)) * normal_pdf(s)

    val, err = quad(integrand, -_QUAD_LIMIT, _QUAD_LIMIT,
                    epsabs=1e-11, epsrel=1e-10, limit=200)
    if err > 1e-9:
        raise RuntimeError(f"quadrature error estimate too large: {err}")
    return val


_GH_CACHE: dict = {}


def neg_cond_entropy_gh(f: GaussianSetSpec, rho: float,
                        order: int = 200) -> float:
    """Fixed-order Gauss-Hermite cross-check of :func:`neg_cond_entropy`."""
    rho = _check_rho(rho)
    if order not in _GH_CACHE:
        _GH_CACHE[order] = np.polynomial.hermite_e.hermegauss(order)
    nodes, weights = _GH_CACHE[order]
    vals = np.array([-binary_entropy(ou_apply(f, rho, s)) for s in nodes])
    return float(weights @ vals / math.sqrt(2.0 * math.pi))


def gaussian_mi(f: GaussianSetSpec, rho: float) -> float:
    """h(measure) + E[-h(U_rho f)], the mutual information in bits."""
    return binary_entropy(f.measure()) + neg_cond_entropy(f, rho)


# ---------------------------------------------------------------------------
# big-sphere factorization


@dataclass(frozen=True)
class LimitParams:
    """Ambient dimension N, retained dimension n, radius sqrt(N - n - 3)."""

    N: int
    n: int

    def __post_init__(self):
        if self.n < 1 or self.N < self.n + 4:
            raise ValueError("need 1 <= n <= N - 4 for a positive radius")

    @property
    def R(self) -> float:
        return math.sqrt(self.N - self.n - 3)


def _lone_or_batch(fn: str):
    # A lone pair keeps the math library's rounding, so it returns the float
    # the scalar API always did; numpy's SIMD log and exp can differ from it
    # in the last bit, which only batches see.
    return lambda v: getattr(np if isinstance(v, np.ndarray) else math, fn)(v)


_log, _log1p, _exp = map(_lone_or_batch, ("log", "log1p", "exp"))


def _rowdot(a, b):
    # Dot products along the last axis; two 1-D vectors give a float.
    if a.ndim == b.ndim == 1:
        return float(a @ b)
    return np.einsum("...i,...i->...", a, b)


def _a_r(y, z, rho, params: LimitParams):
    """A and r of vectors stacked along leading axes, for a checked rho
    (scalar or one per row); floats for one pair."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    r2 = params.R ** 2
    ny = _rowdot(y, y) / r2
    nz = _rowdot(z, z) / r2
    if (np.maximum(ny, nz) > 1.0 + 1e-12).any():
        raise ValueError("vectors must lie inside the radius-R ball")
    cy, cz = 1.0 - np.minimum(ny, 1.0), 1.0 - np.minimum(nz, 1.0)
    half_b = 0.5 * (1.0 + rho ** 2 - 2.0 * rho * _rowdot(y, z) / r2)
    disc = half_b ** 2 - rho ** 2 * cy * cz
    if (disc < -1e-12).any():
        raise ValueError(f"negative discriminant {np.min(disc)} too large")
    a = half_b + np.sqrt(np.maximum(disc, 0.0))
    r = rho * np.sqrt(cy * cz) / a
    return (a, r) if isinstance(a, np.ndarray) else (float(a), float(r))


def a_factor(y, z, rho, params: LimitParams):
    """Larger root of A^2 - (1 + rho^2 - 2 rho <y,z>/R^2) A
    + rho^2 (1 - ||y||^2/R^2)(1 - ||z||^2/R^2) = 0, row by row for vectors
    stacked along leading axes (rho a scalar or one per row); a float for
    one pair.  Every row must lie in the radius-R ball."""
    return _a_r(y, z, _check_rho(rho), params)[0]


def r_factor(y, z, rho, params: LimitParams):
    """Residual spherical correlation rho*sqrt((1-||y||^2/R^2)(1-||z||^2/R^2))/A,
    always in [0, rho]; rows as in :func:`a_factor`."""
    return _a_r(y, z, _check_rho(rho), params)[1]


def u_rho_N(y, z, rho, params: LimitParams):
    """Finite-N kernel (1-rho^2)^(1-n/2) / ((1-r^2) A^((N-n)/2)); rows as in
    :func:`a_factor`."""
    rho = _check_rho(rho)
    a, r = _a_r(y, z, rho, params)
    n = params.n
    log_val = ((1.0 - n / 2.0) * _log(1.0 - rho ** 2)
               - _log(1.0 - r ** 2)
               - 0.5 * (params.N - n) * _log(a))
    return _exp(log_val)


def log_sphere_area(d: int) -> float:
    """log surface area of the unit sphere in R^d: log(2 pi^(d/2)/Gamma(d/2))."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return math.log(2.0) + 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d)


def q_rho(u, v, rho: float, params: LimitParams) -> float:
    """Big-sphere kernel R (1-rho^2)^(1-n/2) / (|S^(N-n-1)| ||u - rho v||^(N-n))."""
    rho = _check_rho(rho)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.size != params.N or v.size != params.N:
        raise ValueError("vectors must live in R^N")
    for w in (u, v):
        if abs(np.linalg.norm(w) - params.R) > 1e-9 * max(1.0, params.R):
            raise ValueError("vectors must lie on the radius-R sphere")
    n = params.n
    log_val = (math.log(params.R)
               + (1.0 - n / 2.0) * math.log(1.0 - rho ** 2)
               - log_sphere_area(params.N - n)
               - (params.N - n) * math.log(np.linalg.norm(u - rho * v)))
    return math.exp(log_val)


def poisson_factor(w, x, r):
    """Unit-mass spherical factor R (1-r^2) / (|S^(d-1)| ||w - r x||^d), row
    by row for w, x stacked along leading axes (r a scalar or one per row);
    a float for one pair.  Each pair shares a radius-R sphere in R^d, with
    d and R read off the vectors: the identity holds at every radius, not
    only at the limit coupling R = sqrt(N - n - 3)."""
    r = _check_rho(r, "residual correlation")
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    if w.shape[-1] != x.shape[-1]:
        raise ValueError("factor vectors must share a dimension")
    d = w.shape[-1]
    radius = np.sqrt(_rowdot(w, w))
    if (np.abs(np.sqrt(_rowdot(x, x)) - radius)
            > 1e-9 * np.maximum(1.0, radius)).any():
        raise ValueError("factor vectors must share a radius")
    diff = w - np.asarray(r)[..., None] * x
    log_val = (_log(radius) + _log1p(-r ** 2) - log_sphere_area(d)
               - d * _log(np.sqrt(_rowdot(diff, diff))))
    return _exp(log_val)


def _uniform_sphere(rng, count: int, dim: int, radius: float) -> np.ndarray:
    pts = rng.standard_normal((count, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return radius * pts


def _uniform_ball(rng, count: int, dim: int, radius: float) -> np.ndarray:
    return _uniform_sphere(rng, count, dim, 1.0) \
        * (rng.uniform(size=(count, 1)) ** (1.0 / dim)) * radius


def poisson_factor_mass_mc(d: int, r: float, seed: int, radius: float = 1.0,
                           samples: int = 20000) -> dict:
    """Monte Carlo estimate of the factor's surface integral (target 1)."""
    rng = np.random.default_rng(seed)
    w = np.zeros(d)
    w[0] = radius
    xs = _uniform_sphere(rng, samples, d, radius)
    area = math.exp(log_sphere_area(d) + (d - 1) * math.log(radius))
    vals = poisson_factor(w, xs, r) * area
    mean = float(np.mean(vals))
    sigma = float(np.std(vals, ddof=1) / math.sqrt(samples))
    return {"mass": mean, "sigma": sigma, "samples": samples}


_DECOMP_TEST_FUNCTIONS = {
    "const": lambda u: np.ones(len(u)),
    "x1sq": lambda u: u[:, 0] ** 2,
}


def decomposition_integral_check(g, params: LimitParams, seed: int,
                                 samples: int = 40000,
                                 exponent: str = "corrected") -> dict:
    """Monte Carlo comparison of a sphere integral against its
    ball-times-fiber splitting, reporting lhs, rhs, and their ratio.

    ``g`` is "const", "x1sq", or a callable on (samples, N) point arrays.
    With ``exponent="corrected"`` the radial density is
    (1 - ||x||^2/R^2)^((N-n-2)/2), which makes the splitting an exact
    identity (ratio 1, independent of g); ``exponent="printed"`` uses the
    (N-n-3)/2 power found in print, whose lhs/rhs ratio is measurably
    g-dependent at finite N.  The two powers agree in every N -> infinity
    limit, which is the only way the splitting is used downstream.
    """
    if isinstance(g, str):
        if g not in _DECOMP_TEST_FUNCTIONS:
            raise ValueError(f"unknown test function {g!r}")
        g = _DECOMP_TEST_FUNCTIONS[g]
    if exponent == "corrected":
        power = 0.5 * (params.N - params.n - 2)
    elif exponent == "printed":
        power = 0.5 * (params.N - params.n - 3)
    else:
        raise ValueError(f"unknown exponent form {exponent!r}")
    rng = np.random.default_rng(seed)
    N, n, R = params.N, params.n, params.R
    d = N - n

    big = _uniform_sphere(rng, samples, N, R)
    area_big = math.exp(log_sphere_area(N) + (N - 1) * math.log(R))
    lhs_vals = g(big) * area_big

    # rhs sampling: x uniform in the n-ball, v uniform on the (N-n)-sphere.
    x = _uniform_ball(rng, samples, n, R)
    v = _uniform_sphere(rng, samples, d, R)
    radial = 1.0 - np.sum(x * x, axis=1) / R ** 2
    u_side = np.hstack([x, np.sqrt(radial)[:, None] * v])
    vol_ball = math.exp(0.5 * n * math.log(math.pi)
                        - math.lgamma(0.5 * n + 1) + n * math.log(R))
    area_small = math.exp(log_sphere_area(d) + (d - 1) * math.log(R))
    rhs_vals = g(u_side) * radial ** power * vol_ball * area_small

    lhs = float(np.mean(lhs_vals))
    rhs = float(np.mean(rhs_vals))
    ratio = lhs / rhs
    var = (np.var(lhs_vals, ddof=1) / lhs ** 2
           + np.var(rhs_vals, ddof=1) / rhs ** 2) / samples
    return {
        "lhs": lhs,
        "rhs": rhs,
        "ratio": ratio,
        "sigma": float(abs(ratio) * math.sqrt(var)),
        "samples": samples,
    }


_A_BOUND_DRAWS = 100000


def factor_check(params: LimitParams, rho: float, trials: int, samples: int,
                 seed: int) -> dict:
    """Every check of the big-sphere factorization: its metrics in report
    order, then the verdict under "pass".  ``trials`` random sphere pairs
    test q_rho = U_{rho,N} x Poisson factor, 100,000 random ball pairs with
    their own rho test A's lower bound and r <= rho, and ``samples`` draws
    each estimate the factor's mass and the decomposition ratio."""
    if trials < 0 or samples < 2:
        raise ValueError("factor check needs trials >= 0 and samples >= 2; "
                         f"got {trials}, {samples}")
    rho = _check_rho(rho)
    rng = np.random.default_rng(seed)
    n, R, d = params.n, params.R, params.N - params.n
    worst_rel = 0.0
    for _ in range(trials):
        y, z = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
        w, x = rng.standard_normal(d), rng.standard_normal(d)
        w *= R / np.linalg.norm(w)
        x *= R / np.linalg.norm(x)
        u = np.hstack([y, math.sqrt(1.0 - y @ y / R ** 2) * w])
        v = np.hstack([z, math.sqrt(1.0 - z @ z / R ** 2) * x])
        rhs = u_rho_N(y, z, rho, params) \
            * poisson_factor(w, x, r_factor(y, z, rho, params))
        lhs = q_rho(u, v, rho, params)
        worst_rel = max(worst_rel, abs(lhs - rhs) / lhs)

    y = _uniform_ball(rng, _A_BOUND_DRAWS, n, R)
    z = _uniform_ball(rng, _A_BOUND_DRAWS, n, R)
    rhos = rng.uniform(0.0, 0.99, _A_BOUND_DRAWS)
    a, r = _a_r(y, z, rhos, params)
    lower = np.sqrt((1.0 - _rowdot(y, y) / R ** 2)
                    * (1.0 - _rowdot(z, z) / R ** 2))
    violations = int(np.count_nonzero(lower > a + 1e-12)
                     + np.count_nonzero(r > rhos + 1e-12))

    mass = poisson_factor_mass_mc(d, rho, seed, radius=R, samples=samples)
    dec_const = decomposition_integral_check("const", params, seed,
                                             samples=samples)
    dec_x1sq = decomposition_integral_check("x1sq", params, seed + 1,
                                            samples=samples)
    consistent = abs(dec_const["ratio"] - dec_x1sq["ratio"]) <= \
        3.0 * math.hypot(dec_const["sigma"], dec_x1sq["sigma"])
    mass_ok = abs(mass["mass"] - 1.0) <= 3.0 * mass["sigma"]
    return {
        "factorization_worst_rel": worst_rel,
        "a_bound_violations": violations,
        "poisson_factor_mass": mass["mass"],
        "poisson_factor_sigma": mass["sigma"],
        "decomposition_ratio_const": dec_const["ratio"],
        "decomposition_ratio_x1sq": dec_x1sq["ratio"],
        "decomposition_consistent": consistent,
        "pass": bool(worst_rel <= 1e-9 and violations == 0 and mass_ok
                     and consistent),
    }


def borell_check(f: GaussianSetSpec, psi: PsiSpec, rho: float) -> dict:
    """E[Psi(U_rho f)] against the measure-matched halfspace, for increasing
    convex Psi."""
    if not psi.is_increasing:
        raise ValueError("borell check needs an increasing convex psi")
    rho = _check_rho(rho)
    halfspace = GaussianSetSpec.halfspace_with_measure(f.measure())

    def expectation(spec):
        val, _ = quad(lambda s: psi(ou_apply(spec, rho, s)) * normal_pdf(s),
                      -_QUAD_LIMIT, _QUAD_LIMIT,
                      epsabs=1e-11, epsrel=1e-10, limit=200)
        return val

    value_f = expectation(f)
    value_halfspace = expectation(halfspace)
    return {
        "value_f": value_f,
        "value_halfspace": value_halfspace,
        "pass": bool(value_f <= value_halfspace + 1e-8),
    }
