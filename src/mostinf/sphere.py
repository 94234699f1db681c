"""Discretized spherical setting: caps, rearrangement, polarization, kernels.

The circle uses an exact uniform grid whose supported reflections map grid
points to grid points, so the two-point identities behind the polarization
inequality hold to float precision.  Higher-dimensional spheres use
Monte Carlo point sets: a half and its mirror image across one hyperplane.

Every point set's mirror 0, sigma, has an index map P, an
involution.  Since sigma is self-adjoint, K(<p_P(r), p_j>) = K(<p_r, p_P(j)>),
so the kernel's rows on R = {i : i <= P[i]} determine the rest: with
T = K[R, :], (Kw)[R] = T @ w and (Kw)[P[R]] = T @ w[P].  A point set caches
only T, which is M/2 rows for a sample (P the half swap) and for a circle
grid (P the axis l = 1, which maps j to 1 - j and fixes no point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import PsiSpec

__all__ = [
    "SpherePointSet",
    "SphericalField",
    "KernelSpec",
    "circle_grid",
    "sphere_sample",
    "rearrange",
    "polarize",
    "kernel_apply",
    "functional_J",
    "polarization_inequality_check",
    "polarization_pointwise_check",
    "polarization_check",
    "mc_check",
    "iterate_polarizations",
    "rearrange_check",
]

_MATCH_TOL = 1e-9
# mc_check rejects a sample of more coordinates, or a half kernel of more
# entries, and circle_grid mirror maps of more entries, than this (256 MiB
# of floats) before it allocates any of them.
MC_MAX_ENTRIES = 1 << 25
# The stacked checks evaluate at most this many field entries at a time.
_BLOCK = 1 << 16


def _reflect(points: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The rows of ``points`` mirrored across the hyperplane of unit normal v."""
    return points - 2.0 * (points @ v)[:, None] * v[None, :]


class SpherePointSet:
    """Equal-weight points on the unit sphere in R^n, n = points.shape[1],
    with the pole at e1, and their mirrors: mirror k, for k in
    ``reflections``, is the reflection across the hyperplane of unit normal
    ``normals[k]``, and its index map is the row ``partners[k]`` of one
    (L, M) int32 array.  Each map must be an involution whose entry j lies
    within 1e-9 of sigma_k(p_j).  The normals are checked at construction
    and not kept."""

    def __init__(self, points, normals, partners):
        self.points = np.asarray(points, dtype=float)
        if self.points.ndim != 2:
            raise ValueError("points must form an (M, n) array")
        self.n = self.points.shape[1]
        self.weights = np.full(len(self.points), 1.0 / len(self.points))
        norms = np.linalg.norm(self.points, axis=1)
        if np.max(np.abs(norms - 1.0)) > _MATCH_TOL:
            raise ValueError("points do not lie on the sphere")
        normals = np.asarray(normals, dtype=float)
        self.reflections = range(len(normals))
        partners = np.asarray(partners, dtype=np.int32)
        if partners.size != len(normals) * self.size:
            raise ValueError("point set is not closed under a reflection")
        self.partners = partners.reshape(len(normals), self.size)
        self._height = np.ascontiguousarray(self.points[:, 0])
        ident = np.arange(self.size)
        for v, partner in zip(normals, self.partners):
            if abs(v[0]) <= _MATCH_TOL:
                raise ValueError("hyperplane passes through the pole")
            if np.max(np.linalg.norm(_reflect(self.points, v)
                                     - self.points[partner], axis=1)) \
                    > _MATCH_TOL:
                raise ValueError("point set is not closed under a reflection")
            if (partner[partner] != ident).any():
                raise ValueError("mirror map is not an involution")
        first = self.partners[0].astype(np.intp) if len(normals) else ident
        rows = np.flatnonzero(ident <= first)
        self._half = (rows, first[rows], first)     # R, P[R], P
        self._kernel_cache: dict = {}
        self._pole_sides: dict = {}

    @property
    def size(self) -> int:
        return self.weights.size

    def polar_angles(self) -> np.ndarray:
        return np.arccos(np.clip(self._height, -1.0, 1.0))

    def kernel_matrix(self, kernel: "KernelSpec") -> np.ndarray:
        """T = K[R, :], the kernel's rows on R = {i : i <= P[i]}, one point
        of each pair of the first mirror's map P (all rows if there is no
        mirror); ``kernel_apply`` gets the rows P[R] from
        K(<p_P(r), p_j>) = K(<p_r, p_P(j)>).  Cached."""
        if kernel not in self._kernel_cache:
            if kernel.dim != self.n:
                raise ValueError(f"a kernel on the sphere in R^{kernel.dim} "
                                 f"cannot smooth points in R^{self.n}")
            gram = self.points[self._half[0]] @ self.points.T
            self._kernel_cache[kernel] = kernel._evaluate_owned(gram)
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


@dataclass(frozen=True)
class KernelSpec:
    """The Poisson kernel (1 - rho^2) / ||x - rho y||^dim on the unit
    sphere in R^dim, normalized against the uniform probability measure: a
    non-decreasing bounded function of the inner product."""

    rho: float
    dim: int

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("poisson kernel needs 0 <= rho < 1")
        if self.dim < 2:
            raise ValueError("poisson kernel needs ambient dim >= 2")

    @classmethod
    def poisson(cls, rho: float, dim: int) -> "KernelSpec":
        return cls(rho=float(rho), dim=int(dim))

    def _evaluate_owned(self, s: np.ndarray) -> np.ndarray:
        """The kernel at the inner products ``s``, a float array the caller
        owns: the formula overwrites ``s`` and returns it."""
        rho, d = self.rho, self.dim
        # ||x - rho y||^2 = 1 + rho^2 - 2 rho <x,y>, >= (1 - rho)^2.
        s *= 2.0 * rho
        np.subtract(1.0 + rho ** 2, s, out=s)
        s **= -d / 2.0
        s *= 1.0 - rho ** 2
        return s


def circle_grid(m: int) -> SpherePointSet:
    """Uniform M-point grid on the unit circle, pole at angle zero.

    Mirror l - 1, for l = 1..M-1, is the axis at angle pi*l/M; the polar
    axis itself (l = 0) is excluded.  The axis at pi*l/M maps grid point j
    to point (l - j) mod M exactly.  A grid whose (M - 1) x M maps
    would hold more than ``MC_MAX_ENTRIES`` entries is rejected first.
    """
    if m % 2 != 0:
        raise ValueError("grid size must be even")
    if m < 8:
        raise ValueError("grid size must be at least 8")
    if (m - 1) * m > MC_MAX_ENTRIES:
        raise ValueError(f"a {m}-point grid needs {m - 1} x {m} mirror maps; "
                         f"they may hold at most MC_MAX_ENTRIES = "
                         f"{MC_MAX_ENTRIES} entries")
    theta = 2.0 * np.pi * np.arange(m) / m
    points = np.column_stack([np.cos(theta), np.sin(theta)])
    axes = np.pi * np.arange(1, m) / m
    normals = np.column_stack([np.sin(axes), -np.cos(axes)])
    partners = np.subtract.outer(np.arange(1, m, dtype=np.int32),
                                 np.arange(m, dtype=np.int32))
    partners %= m
    return SpherePointSet(points, normals, partners)


def sphere_sample(n: int, m: int, seed: int) -> SpherePointSet:
    """Monte Carlo point set on the unit sphere in R^n: M/2 uniform points,
    then their mirror images across the pole's orthogonal hyperplane."""
    if m < 2 or m % 2 != 0:
        raise ValueError(f"sample size must be even and positive, got {m}")
    if n < 3:
        raise ValueError("use circle_grid for the circle")
    rng = np.random.default_rng(seed)
    half = rng.standard_normal((m // 2, n))
    half /= np.linalg.norm(half, axis=1, keepdims=True)
    pole = np.zeros(n)
    pole[0] = 1.0
    return SpherePointSet(np.vstack([half, _reflect(half, pole)]), [pole],
                          [(np.arange(m) + m // 2) % m])


def rearrange(f: SphericalField) -> SphericalField:
    """Equimeasurable field sorted to be non-increasing in polar angle.

    Positions are ordered by (polar angle, point index); on the circle grid
    this puts the +angle point of each mirror pair first.
    """
    ps = f.pointset
    order = np.lexsort((np.arange(ps.size), ps.polar_angles()))
    out = np.empty(ps.size)
    out[order] = np.sort(f.values)[::-1]
    return SphericalField(ps, out, check_range=False)


def _polarized(ps: SpherePointSet, values: np.ndarray, k) -> np.ndarray:
    """``polarize`` of the fields ``values`` (..., M) across mirror k, or of
    one field (M,) across each of the mirrors k (B,) as (B, M).  A point is
    on the pole's side exactly when it is higher than its mirror image; a
    lone mirror's sides are cached on first use, a stack's are not."""
    partner = ps.partners[k].astype(np.intp)
    if not isinstance(k, int):
        side = ps._height > ps._height[partner]
    elif (side := ps._pole_sides.get(k)) is None:
        side = ps._pole_sides[k] = ps._height > ps._height[partner]
    mirrored = values[..., partner]
    return np.where(side, np.maximum(values, mirrored),
                    np.minimum(values, mirrored))


def _smoothed(kernel: KernelSpec, ps: SpherePointSet,
              values: np.ndarray) -> np.ndarray:
    """K applied to each field of ``values`` (..., M): (Kf)[R] = T @ wf and
    (Kf)[P[R]] = T @ wf[P] (see ``kernel_matrix``), two matrix-vector
    products per field, so no field's result depends on its stack."""
    rows, mirrored, partner = ps._half
    half = ps.kernel_matrix(kernel)
    wf = (ps.weights * values).reshape(-1, ps.size)
    out = np.empty(wf.shape)
    for kf, w in zip(out, wf):
        # A fixed point i = P[i] lies in both R and P[R]; its row is T @ w.
        kf[mirrored] = np.dot(half, w[partner])
        kf[rows] = np.dot(half, w)
    return out.reshape(np.shape(values))


def _psi_sum(psi: PsiSpec, kf: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i w_i psi(kf_i) for each already smoothed field of kf (..., M),
    one ``math.fsum`` per field."""
    if psi.domain is not None:
        lo, hi = psi.domain
        if kf.min() < lo - 1e-9 or kf.max() > hi + 1e-9:
            raise ValueError("smoothed values escape psi's domain")
        kf = np.clip(kf, lo, hi)
    terms = (weights * psi(kf)).reshape(-1, kf.shape[-1])
    return np.array([math.fsum(t.tolist()) for t in terms]).reshape(
        kf.shape[:-1])


def _blocks(count: int, m: int):
    """Consecutive index ranges over ``count`` fields of M values, each of
    at most ``_BLOCK`` entries (one field if a field alone is larger)."""
    step = max(1, _BLOCK // m)
    return (np.arange(lo, min(lo + step, count))
            for lo in range(0, count, step))


def _mirror(ps: SpherePointSet, k: int) -> int:
    """k, which must name one of the point set's mirrors."""
    if not 0 <= k < len(ps.reflections):
        raise ValueError(f"mirror {k!r} outside the point set's mirrors "
                         f"0..{len(ps.reflections) - 1}")
    return k


def polarize(f: SphericalField, k: int) -> SphericalField:
    """Two-point rearrangement across mirror k: the larger value of each
    pair moves to the pole side; a point on the hyperplane is its own pair."""
    ps = f.pointset
    return SphericalField(ps, _polarized(ps, f.values, _mirror(ps, k)),
                          check_range=False)


def kernel_apply(kernel: KernelSpec, f: SphericalField) -> SphericalField:
    """(Kf)_i = sum_j w_j K(<p_i, p_j>) f_j, from the kernel's stored rows."""
    return SphericalField(f.pointset, _smoothed(kernel, f.pointset, f.values),
                          check_range=False)


def functional_J(psi: PsiSpec, kernel: KernelSpec, f: SphericalField) -> float:
    """Weighted sum of psi over the smoothed field."""
    ps = f.pointset
    return float(_psi_sum(psi, _smoothed(kernel, ps, f.values), ps.weights))


def _reflection_checks(kernel: KernelSpec, ps: SpherePointSet,
                       values: np.ndarray, k, psi: PsiSpec | None = None):
    """The field ``values`` against its polarization across mirror k, or
    each of the mirrors k: the largest deviation of
    Kf(x) + Kf(sx) = Kf^s(x) + Kf^s(sx), the worst margin of
    |Kf^s(x) - Kf^s(sx)| >= |Kf(x) - Kf(sx)|, and J(f), J(f^s) when
    ``psi`` is given."""
    partner = ps.partners[k].astype(np.intp)
    kf = _smoothed(kernel, ps, values)
    kfs = _smoothed(kernel, ps, _polarized(ps, values, k))
    kfs_mirror = np.take_along_axis(kfs, partner, axis=-1)
    sum_dev = np.abs(kf + kf[partner] - kfs - kfs_mirror)
    diff_margin = np.abs(kfs - kfs_mirror) - np.abs(kf - kf[partner])
    out = {"max_sum_dev": np.max(sum_dev, axis=-1),
           "min_diff_margin": np.min(diff_margin, axis=-1)}
    if psi is not None:
        out["j_before"] = _psi_sum(psi, kf, ps.weights)
        out["j_after"] = _psi_sum(psi, kfs, ps.weights)
    return out


def polarization_inequality_check(f: SphericalField, k: int,
                                  kernel: KernelSpec, psi: PsiSpec,
                                  tol: float = 1e-10) -> dict:
    """J(f) <= J(f^k) up to float tolerance, with the two-point metrics of
    ``polarization_pointwise_check`` for mirror k from the same pass."""
    ps = f.pointset
    res = _reflection_checks(kernel, ps, f.values, _mirror(ps, k), psi)
    out = {key: float(v) for key, v in res.items()}
    out["pass"] = bool(out["j_after"] >= out["j_before"] - tol)
    return out


def polarization_pointwise_check(f: SphericalField, k: int,
                                 kernel: KernelSpec) -> dict:
    """Pointwise two-point identities for the smoothed field and mirror k.

    Reports the largest deviation of Kf(x) + Kf(sx) = Kf^s(x) + Kf^s(sx)
    and the worst margin of |Kf^s(x) - Kf^s(sx)| >= |Kf(x) - Kf(sx)|.
    """
    ps = f.pointset
    res = _reflection_checks(kernel, ps, f.values, _mirror(ps, k))
    return {key: float(v) for key, v in res.items()}


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
        values = rng.integers(0, 2, grid_m).astype(float)
        for ks in _blocks(len(grid.reflections), grid_m):
            res = _reflection_checks(kernel, grid, values, ks, psi)
            drop = res["j_before"] - res["j_after"]
            checks += len(ks)
            worst_j = max(worst_j, float(np.max(drop)))
            worst_sum = max(worst_sum, float(np.max(res["max_sum_dev"])))
            worst_diff = min(worst_diff, float(np.min(res["min_diff_margin"])))
            failures += int(np.count_nonzero(
                ~(res["j_after"] >= res["j_before"] - 1e-10)
                | (res["max_sum_dev"] > 1e-10)
                | (res["min_diff_margin"] < -1e-10)))
    return {"checks": checks, "failures": failures, "worst_j_drop": worst_j,
            "worst_sum_dev": worst_sum, "worst_diff_margin": worst_diff,
            "pass": failures == 0}


def mc_check(dim: int, points: int, rho: float, seed: int) -> dict:
    """``polarization_inequality_check`` (Psi = t^2) of a random 0/1 field
    on ``sphere_sample(dim, points, seed)``, whose mean projection on the
    pole must also lie within 3/sqrt(points) of 0.  A sample of more than
    ``MC_MAX_ENTRIES`` coordinates, or a half kernel of more entries, is
    rejected before anything is allocated."""
    if points > 0 and dim > 0 and max(points * dim, points // 2 * points) \
            > MC_MAX_ENTRIES:
        raise ValueError(
            f"{points} points in R^{dim} need a {points} x {dim} sample and "
            f"a {points // 2} x {points} kernel; each may hold at most "
            f"MC_MAX_ENTRIES = {MC_MAX_ENTRIES} entries")
    ps = sphere_sample(dim, points, seed)
    rng = np.random.default_rng(seed + 1)
    f = SphericalField(ps, rng.integers(0, 2, points).astype(float))
    res = polarization_inequality_check(f, 0, KernelSpec.poisson(rho, dim),
                                        PsiSpec.square())
    mean_proj = float(np.mean(ps._height))
    keys = ("j_before", "j_after", "max_sum_dev", "min_diff_margin")
    return {"weight_sum": float(np.sum(ps.weights)),
            "mean_pole_projection": mean_proj, **{k: res[k] for k in keys},
            "pass": bool(res["pass"] and res["max_sum_dev"] <= 1e-10
                         and res["min_diff_margin"] >= -1e-10
                         and abs(mean_proj) <= 3.0 / math.sqrt(points))}


def iterate_polarizations(f: SphericalField, reflections_seed: int, steps: int,
                          kernel: KernelSpec, psi: PsiSpec) -> dict:
    """Apply randomly chosen supported reflections and trace convergence.

    Records the L1 distance to the rearranged field and the kernel
    functional J after every step, one stack of ``_BLOCK`` field entries
    at a time.
    """
    ps = f.pointset
    if not ps.reflections:
        raise ValueError("point set supports no reflections")
    if steps < 0:
        raise ValueError(f"step count {steps} is negative")
    target = rearrange(f).values
    rng = np.random.default_rng(reflections_seed)
    current = f
    l1_trace, j_trace = [], []
    for ks in _blocks(steps + 1, ps.size):
        trace = np.empty((len(ks), ps.size))
        for i, step in enumerate(ks):
            if step:
                current = polarize(current, ps.reflections[
                    rng.integers(len(ps.reflections))])
            trace[i] = current.values
        l1_trace.append(np.sum(ps.weights * np.abs(trace - target), axis=-1))
        j_trace.append(_psi_sum(psi, _smoothed(kernel, ps, trace),
                                ps.weights))
    return {"final": current, "l1_to_rearranged": np.concatenate(l1_trace),
            "j_trace": np.concatenate(j_trace)}


def rearrange_check(grid_m: int, rho: float, steps: int, seed: int) -> dict:
    """``iterate_polarizations`` of a random 0/1 field on the M-point circle
    (Psi = -h): L1 to the rearrangement must never rise, J never drop, nor
    exceed the rearrangement's.  The trace is the "table"."""
    grid = circle_grid(grid_m)
    kernel = KernelSpec.poisson(rho, 2)
    psi = PsiSpec.neg_binary_entropy()
    rng = np.random.default_rng(seed)
    f = SphericalField(grid, rng.integers(0, 2, grid_m).astype(float))
    res = iterate_polarizations(f, seed, steps, kernel=kernel, psi=psi)
    l1 = res["l1_to_rearranged"]
    jt = res["j_trace"]
    j_rearranged = functional_J(psi, kernel, rearrange(f))
    l1_monotone = bool(np.all(np.diff(l1) <= 1e-12))
    j_monotone = bool(np.all(np.diff(jt) >= -1e-12))
    return {"l1_initial": float(l1[0]), "l1_final": float(l1[-1]),
            "l1_monotone": l1_monotone, "j_initial": float(jt[0]),
            "j_final": float(jt[-1]), "j_rearranged": j_rearranged,
            "j_monotone": j_monotone,
            "pass": bool(l1_monotone and j_monotone
                         and jt[-1] <= j_rearranged + 1e-10),
            "table": (["step", "J", "l1_distance"],
                      list(zip(range(len(l1)), jt, l1)))}
