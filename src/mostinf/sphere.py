"""Discretized spherical setting: caps, rearrangement, polarization, kernels.

The circle uses an exact uniform grid whose supported reflections map grid
points to grid points, so the two-point identities behind the polarization
inequality hold to float precision.  Higher-dimensional spheres use
Monte Carlo point sets closed under a single chosen reflection.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.spatial import cKDTree

from .entropy import PsiSpec, binary_entropy

__all__ = [
    "Reflection",
    "SpherePointSet",
    "SphericalField",
    "KernelSpec",
    "circle_grid",
    "sphere_sample",
    "cap_measure",
    "rearrange",
    "polarize",
    "kernel_apply",
    "functional_J",
    "polarization_inequality_check",
    "polarization_pointwise_check",
    "polarization_check",
    "iterate_polarizations",
    "spherical_mi",
    "field_to_json",
    "field_from_json",
]

_ON_PLANE_TOL = 1e-12
_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class Reflection:
    """Hyperplane through the origin, stored by its unit normal.

    The normal is oriented so the distinguished pole lies strictly on the
    positive side; orientation is fixed against the pole at point-set
    construction time.
    """

    normal: tuple

    @classmethod
    def from_vector(cls, v, pole=None) -> "Reflection":
        v = np.asarray(v, dtype=float)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise ValueError("reflection normal must be nonzero")
        v = v / norm
        if pole is not None:
            side = float(np.dot(v, pole))
            if abs(side) <= _MATCH_TOL * np.linalg.norm(pole):
                raise ValueError("hyperplane passes through the pole")
            if side < 0.0:
                v = -v
        return cls(tuple(float(c) for c in v))

    @property
    def vector(self) -> np.ndarray:
        return np.asarray(self.normal)

    def apply(self, points: np.ndarray) -> np.ndarray:
        v = self.vector
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = pts - 2.0 * (pts @ v)[:, None] * v[None, :]
        return out if np.ndim(points) > 1 else out[0]


class SpherePointSet:
    """Weighted points on a radius-R sphere with supported reflections."""

    def __init__(self, n: int, radius: float, points, weights, pole,
                 reflections, grid_m: int | None = None):
        self.n = int(n)
        self.radius = float(radius)
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.pole = np.asarray(pole, dtype=float)
        self.reflections = list(reflections)
        self.grid_m = grid_m
        if self.points.shape != (self.weights.size, self.n):
            raise ValueError("points/weights shape mismatch")
        if np.any(self.weights <= 0.0):
            raise ValueError("weights must be positive")
        norms = np.linalg.norm(self.points, axis=1)
        if np.max(np.abs(norms - self.radius)) > 1e-9 * max(1.0, self.radius):
            raise ValueError("points do not lie on the sphere")
        self._tree = None
        self._partners: dict = {}
        self._kernel_cache: dict = {}

    @property
    def size(self) -> int:
        return self.weights.size

    def polar_angles(self) -> np.ndarray:
        c = (self.points @ self.pole) / (self.radius ** 2)
        return np.arccos(np.clip(c, -1.0, 1.0))

    def partner_indices(self, sigma: Reflection) -> np.ndarray:
        """Index of each point's mirror image; errors if not closed."""
        key = sigma.normal
        if key in self._partners:
            return self._partners[key]
        if abs(float(np.dot(sigma.vector, self.pole))) <= \
                _MATCH_TOL * self.radius:
            raise ValueError("hyperplane passes through the pole")
        if self._tree is None:
            self._tree = cKDTree(self.points)
        reflected = sigma.apply(self.points)
        dist, idx = self._tree.query(reflected)
        if np.max(dist) > _MATCH_TOL * max(1.0, self.radius):
            raise ValueError("point set is not closed under this reflection")
        if np.max(np.abs(self.weights[idx] - self.weights)) > 1e-15:
            raise ValueError("reflection does not preserve weights")
        self._partners[key] = idx
        return idx

    def kernel_matrix(self, kernel: "KernelSpec") -> np.ndarray:
        if kernel not in self._kernel_cache:
            gram = self.points @ self.points.T
            self._kernel_cache[kernel] = kernel.evaluate(gram, self.radius)
        return self._kernel_cache[kernel]


@dataclass
class SphericalField:
    """Real values attached to the points of a SpherePointSet."""

    pointset: SpherePointSet
    values: np.ndarray
    check_range: bool = True

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.pointset.size,):
            raise ValueError("value count does not match point count")
        if self.check_range and (self.values.min() < -1e-12
                                 or self.values.max() > 1.0 + 1e-12):
            raise ValueError("field values outside [0, 1]")

    def mean(self) -> float:
        total = float(np.sum(self.pointset.weights))
        return float(self.pointset.weights @ self.values) / total


@dataclass(frozen=True)
class KernelSpec:
    """Non-decreasing bounded function of the inner product.

    ``poisson`` is (1 - rho^2) / ||x - rho y||^dim on the radius-R sphere in
    R^dim, normalized against the uniform probability measure; ``step`` is
    the indicator of inner product >= threshold; ``custom_monotone`` is a
    piecewise-linear nondecreasing table over inner-product nodes.
    """

    kind: str
    rho: float = 0.0
    dim: int = 0
    threshold: float = 0.0
    nodes: tuple = field(default=())
    table: tuple = field(default=())

    def __post_init__(self):
        if self.kind not in ("poisson", "step", "custom_monotone"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "poisson":
            if not 0.0 <= self.rho < 1.0:
                raise ValueError("poisson kernel needs 0 <= rho < 1")
            if self.dim < 2:
                raise ValueError("poisson kernel needs ambient dim >= 2")
        if self.kind == "custom_monotone":
            ys = np.asarray(self.table, dtype=float)
            if ys.size != len(self.nodes) or ys.size < 2:
                raise ValueError("custom kernel table mismatch")
            if np.any(np.diff(ys) < -1e-15):
                raise ValueError("custom kernel must be nondecreasing")

    @classmethod
    def poisson(cls, rho: float, dim: int) -> "KernelSpec":
        return cls("poisson", rho=float(rho), dim=int(dim))

    @classmethod
    def step(cls, threshold: float) -> "KernelSpec":
        return cls("step", threshold=float(threshold))

    @classmethod
    def custom_monotone(cls, nodes, table) -> "KernelSpec":
        return cls("custom_monotone",
                   nodes=tuple(float(x) for x in nodes),
                   table=tuple(float(y) for y in table))

    def evaluate(self, inner, radius: float = 1.0):
        s = np.asarray(inner, dtype=float)
        if self.kind == "poisson":
            rho, d = self.rho, self.dim
            # ||x - rho y||^2 = R^2 (1 + rho^2) - 2 rho <x,y>, >= R^2(1-rho)^2.
            sq = radius ** 2 * (1.0 + rho ** 2) - 2.0 * rho * s
            return (1.0 - rho ** 2) * radius ** d * sq ** (-d / 2.0)
        if self.kind == "step":
            return (s >= self.threshold).astype(float)
        return np.interp(s, self.nodes, self.table)


def circle_grid(m: int) -> SpherePointSet:
    """Uniform M-point grid on the unit circle, pole at angle zero.

    Supported reflections are the axes at angles pi*l/M for l = 1..M-1; the
    polar axis itself (l = 0) is excluded.  Every supported reflection maps
    grid points to grid points exactly.
    """
    if m % 2 != 0:
        raise ValueError("grid size must be even")
    if m < 8:
        raise ValueError("grid size must be at least 8")
    theta = 2.0 * np.pi * np.arange(m) / m
    points = np.column_stack([np.cos(theta), np.sin(theta)])
    pole = np.array([1.0, 0.0])
    reflections = []
    for ell in range(1, m):
        phi = np.pi * ell / m
        normal = np.array([np.sin(phi), -np.cos(phi)])
        reflections.append(Reflection.from_vector(normal, pole))
    return SpherePointSet(
        n=2, radius=1.0, points=points, weights=np.full(m, 1.0 / m),
        pole=pole, reflections=reflections, grid_m=m)


def sphere_sample(n: int, m: int, seed: int,
                  sigma: Reflection | None = None) -> SpherePointSet:
    """Monte Carlo point set on the unit sphere in R^n, closed under one
    reflection: M/2 uniform points plus their mirror images."""
    if m < 2 or m % 2 != 0:
        raise ValueError(f"sample size must be even and positive, got {m}")
    if n < 3:
        raise ValueError("use circle_grid for the circle")
    pole = np.zeros(n)
    pole[0] = 1.0
    if sigma is None:
        sigma = Reflection.from_vector(pole, pole)
    rng = np.random.default_rng(seed)
    half = rng.standard_normal((m // 2, n))
    half /= np.linalg.norm(half, axis=1, keepdims=True)
    points = np.vstack([half, sigma.apply(half)])
    return SpherePointSet(
        n=n, radius=1.0, points=points, weights=np.full(m, 1.0 / m),
        pole=pole, reflections=[sigma])


def cap_measure(n: int, theta: float) -> float:
    """Normalized measure of the polar cap of opening angle theta on the
    sphere in R^n: int_0^theta sin^(n-2) / int_0^pi sin^(n-2)."""
    theta = float(theta)
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"angle {theta!r} outside [0, pi]")
    if n < 2:
        raise ValueError("ambient dimension must be >= 2")
    power = n - 2
    num, _ = quad(lambda t: math.sin(t) ** power, 0.0, theta,
                  epsabs=1e-12, epsrel=1e-12)
    den, _ = quad(lambda t: math.sin(t) ** power, 0.0, math.pi,
                  epsabs=1e-12, epsrel=1e-12)
    return num / den


def _require_uniform_weights(ps: SpherePointSet):
    w = ps.weights
    if np.max(w) - np.min(w) > 1e-15 * np.max(w):
        raise ValueError("operation requires uniform quadrature weights")


def rearrange(f: SphericalField) -> SphericalField:
    """Equimeasurable field sorted to be non-increasing in polar angle.

    Positions are ordered by (polar angle, point index); on the circle grid
    this puts the +angle point of each mirror pair first.  Requires uniform
    weights so the (value, weight) multiset is preserved.
    """
    ps = f.pointset
    _require_uniform_weights(ps)
    order = np.lexsort((np.arange(ps.size), ps.polar_angles()))
    out = np.empty(ps.size)
    out[order] = np.sort(f.values)[::-1]
    return SphericalField(ps, out, check_range=False)


def polarize(f: SphericalField, sigma: Reflection) -> SphericalField:
    """Two-point rearrangement across sigma: the larger of each mirror pair
    moves to the pole side; points on the hyperplane keep their value."""
    ps = f.pointset
    partner = ps.partner_indices(sigma)
    side = ps.points @ sigma.vector
    v = f.values
    mirrored = v[partner]
    out = np.where(side > _ON_PLANE_TOL, np.maximum(v, mirrored),
                   np.where(side < -_ON_PLANE_TOL, np.minimum(v, mirrored), v))
    return SphericalField(ps, out, check_range=False)


def kernel_apply(kernel: KernelSpec, f: SphericalField) -> SphericalField:
    """(Kf)_i = sum_j w_j K(<p_i, p_j>) f_j."""
    ps = f.pointset
    mat = ps.kernel_matrix(kernel)
    out = mat @ (ps.weights * f.values)
    return SphericalField(ps, out, check_range=False)


def functional_J(psi: PsiSpec, kernel: KernelSpec, f: SphericalField) -> float:
    """Weighted sum of psi over the smoothed field."""
    return _psi_sum(psi, kernel_apply(kernel, f).values, f.pointset.weights)


def _psi_sum(psi: PsiSpec, kf: np.ndarray, weights: np.ndarray) -> float:
    """sum_i w_i psi(kf_i) for an already smoothed field kf."""
    if psi.domain is not None:
        lo, hi = psi.domain
        if kf.min() < lo - 1e-9 or kf.max() > hi + 1e-9:
            raise ValueError("smoothed values escape psi's domain")
        kf = np.clip(kf, lo, hi)
    return float(math.fsum((weights * psi(kf)).tolist()))


def _reflection_checks(f: SphericalField, sigmas, kernel: KernelSpec,
                       psi: PsiSpec | None = None, tol: float = 1e-10):
    """Per-reflection metrics of f against f^sigma for each sigma, with f
    smoothed once and each f^sigma once; J only when ``psi`` is given."""
    ps = f.pointset
    kf = kernel_apply(kernel, f).values
    if psi is not None:
        j_before = _psi_sum(psi, kf, ps.weights)
    for sigma in sigmas:
        partner = ps.partner_indices(sigma)
        kfs = kernel_apply(kernel, polarize(f, sigma)).values
        sum_dev = np.abs(kf + kf[partner] - kfs - kfs[partner])
        diff_margin = np.abs(kfs - kfs[partner]) - np.abs(kf - kf[partner])
        out = {"max_sum_dev": float(np.max(sum_dev)),
               "min_diff_margin": float(np.min(diff_margin))}
        if psi is not None:
            j_after = _psi_sum(psi, kfs, ps.weights)
            out.update({"j_before": j_before, "j_after": j_after,
                        "pass": bool(j_after >= j_before - tol)})
        yield out


def polarization_inequality_check(f: SphericalField, sigma: Reflection,
                                  kernel: KernelSpec, psi: PsiSpec,
                                  tol: float = 1e-10) -> dict:
    """J(f) <= J(f^sigma) up to float tolerance, with the two-point metrics
    of ``polarization_pointwise_check`` from the same smoothing pass."""
    return next(_reflection_checks(f, [sigma], kernel, psi, tol))


def polarization_pointwise_check(f: SphericalField, sigma: Reflection,
                                 kernel: KernelSpec) -> dict:
    """Pointwise two-point identities for the smoothed field.

    Reports the largest deviation of Kf(x) + Kf(sx) = Kf^s(x) + Kf^s(sx)
    and the worst margin of |Kf^s(x) - Kf^s(sx)| >= |Kf(x) - Kf(sx)|.
    """
    return next(_reflection_checks(f, [sigma], kernel))


def polarization_check(grid_m: int, rho: float, psi: PsiSpec, trials: int,
                       seed: int) -> dict:
    """Polarization inequality and two-point identities on the M-point circle.

    Draws ``trials`` random 0/1 fields and checks every supported
    reflection of each with the Poisson kernel at ``rho``.  A check fails
    when J drops or an identity is off by more than 1e-10.
    """
    if trials < 0:
        raise ValueError(f"trial count {trials} is negative")
    grid = circle_grid(grid_m)
    kernel = KernelSpec.poisson(rho, 2)
    rng = np.random.default_rng(seed)
    checks = failures = 0
    worst_j = worst_sum = worst_diff = 0.0
    for _ in range(trials):
        f = SphericalField(grid, rng.integers(0, 2, grid_m).astype(float))
        for res in _reflection_checks(f, grid.reflections, kernel, psi):
            checks += 1
            worst_j = max(worst_j, res["j_before"] - res["j_after"])
            worst_sum = max(worst_sum, res["max_sum_dev"])
            worst_diff = min(worst_diff, res["min_diff_margin"])
            if not res["pass"] or res["max_sum_dev"] > 1e-10 \
                    or res["min_diff_margin"] < -1e-10:
                failures += 1
    return {"checks": checks, "failures": failures, "worst_j_drop": worst_j,
            "worst_sum_dev": worst_sum, "worst_diff_margin": worst_diff,
            "pass": failures == 0}


def iterate_polarizations(f: SphericalField, reflections_seed: int, steps: int,
                          kernel: KernelSpec | None = None,
                          psi: PsiSpec | None = None) -> dict:
    """Apply randomly chosen supported reflections and trace convergence.

    Records the L1 distance to the rearranged field after every step, and
    the kernel functional J when a kernel/psi pair is supplied.
    """
    ps = f.pointset
    if not ps.reflections:
        raise ValueError("point set supports no reflections")
    if steps < 0:
        raise ValueError(f"step count {steps} is negative")
    target = rearrange(f).values
    rng = np.random.default_rng(reflections_seed)
    record_j = kernel is not None and psi is not None

    def l1(values):
        return float(np.sum(ps.weights * np.abs(values - target)))

    current = f
    l1_trace = [l1(current.values)]
    j_trace = [functional_J(psi, kernel, current)] if record_j else None
    for _ in range(steps):
        sigma = ps.reflections[rng.integers(len(ps.reflections))]
        current = polarize(current, sigma)
        l1_trace.append(l1(current.values))
        if record_j:
            j_trace.append(functional_J(psi, kernel, current))
    out = {"final": current, "l1_to_rearranged": np.asarray(l1_trace)}
    if record_j:
        out["j_trace"] = np.asarray(j_trace)
    return out


def spherical_mi(f: SphericalField, rho: float) -> float:
    """Mutual information of a 0/1 field against its smoothed copy:
    h(mean) - sum_i w_i h((P_rho f)_i) with the Poisson kernel."""
    rho = float(rho)
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"correlation {rho!r} outside [0, 1)")
    vals = f.values
    if np.any(np.abs(vals * (1.0 - vals)) > 1e-12):
        raise ValueError("spherical_mi needs a 0/1-valued field")
    ps = f.pointset
    kernel = KernelSpec.poisson(rho, ps.n)
    smooth = kernel_apply(kernel, f).values
    if smooth.min() < -1e-6 or smooth.max() > 1.0 + 1e-6:
        raise AssertionError("smoothed indicator escaped [0, 1]")
    smooth = np.clip(smooth, 0.0, 1.0)
    total = float(np.sum(ps.weights))
    cond = math.fsum((ps.weights * binary_entropy(smooth)).tolist()) / total
    return binary_entropy(f.mean()) - cond


def field_to_json(f: SphericalField) -> str:
    """Snapshot: {n, R, M, points (omitted for circle grids), values}."""
    ps = f.pointset
    obj = {"n": ps.n, "R": ps.radius, "M": ps.size,
           "values": [float(v) for v in f.values]}
    if ps.grid_m is None:
        obj["points"] = [[float(c) for c in p] for p in ps.points]
    return json.dumps(obj, sort_keys=True)


def field_from_json(text: str) -> SphericalField:
    obj = json.loads(text)
    if "points" in obj:
        pts = np.asarray(obj["points"], dtype=float)
        pole = np.zeros(obj["n"])
        pole[0] = obj["R"]
        sigma = Reflection.from_vector(pole, pole)
        ps = SpherePointSet(
            n=obj["n"], radius=obj["R"], points=pts,
            weights=np.full(len(pts), 1.0 / len(pts)), pole=pole,
            reflections=[sigma])
    else:
        ps = circle_grid(obj["M"])
    return SphericalField(ps, np.asarray(obj["values"], dtype=float),
                          check_range=False)
