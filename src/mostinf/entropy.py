"""Scalar special functions shared by every setting.

Binary entropy and its Jensen-gap functional, the convex-function registry
used by the kernel inequalities, standard-normal helpers, the Gaussian
isoperimetric function, and the two published channel bounds.  All entropies
are in bits; natural logs appear only inside series constants and the
curvature coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "binary_entropy",
    "phi",
    "phi_entropy",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
    "gaussian_isoperimetric",
    "osw_bound",
    "erkip_bound",
    "PsiSpec",
]

_LOG2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# OSW bound domain lower endpoint, (1/2)(1 - 1/sqrt(3)).
_OSW_ALPHA_MIN = 0.5 * (1.0 - 1.0 / math.sqrt(3.0))


def binary_entropy(beta):
    """Entropy in bits of a {0,1} coin with bias ``beta``.

    Accepts a scalar or ndarray; endpoints use the continuity convention
    0*log(1/0) = 0 and give +0.0.
    """
    b = np.asarray(beta, dtype=float)
    if np.any(b < 0.0) or np.any(b > 1.0):
        raise ValueError(f"binary_entropy: bias outside [0, 1]: {beta!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 0.0 - np.where(b > 0.0, b * np.log2(b), 0.0)
        out -= np.where(b < 1.0, (1.0 - b) * np.log2(1.0 - b), 0.0)
    if np.isscalar(beta) or np.ndim(beta) == 0:
        return float(out)
    return out


def phi(t):
    """The even convex bridge 1 - h((1 - t)/2) from correlation to bits."""
    v = np.asarray(t, dtype=float)
    if np.any(np.abs(v) > 1.0):
        raise ValueError(f"phi: argument outside [-1, 1]: {t!r}")
    out = 1.0 - binary_entropy(0.5 - 0.5 * v)
    if np.isscalar(t) or np.ndim(t) == 0:
        return float(out)
    return out


def phi_entropy(values, weights) -> float:
    """Jensen gap sum_i w_i phi(v_i) - phi(sum_i w_i v_i).

    ``weights`` must be a probability vector (sum within 1e-12 of 1) and all
    values must lie in [-1, 1].  Nonnegative by convexity of phi; zero iff
    the values are all equal.
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.shape != w.shape:
        raise ValueError("phi_entropy: values and weights length mismatch")
    if np.any(w < 0.0):
        raise ValueError("phi_entropy: negative weight")
    if abs(math.fsum(w.tolist()) - 1.0) > 1e-12:
        raise ValueError("phi_entropy: weights do not sum to 1")
    if np.any(np.abs(v) > 1.0):
        raise ValueError("phi_entropy: value outside [-1, 1]")
    mean = math.fsum((w * v).tolist())
    # Compensated accumulation keeps the Jensen gap meaningful near zero.
    gap = math.fsum((w * phi(v)).tolist()) - phi(mean)
    return gap


def normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-float(z) / _SQRT2)


def normal_pdf(z: float) -> float:
    """Standard normal density."""
    z = float(z)
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


# Rational-approximation coefficients (central region and tails) for the
# standard normal quantile; |error| < 1.2e-9 before refinement.
_QUANT_A = (
    -3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
    1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
)
_QUANT_B = (
    -5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
    6.680131188771972e+01, -1.328068155288572e+01,
)
_QUANT_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
    -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
)
_QUANT_D = (
    7.784695709041462e-03, 3.224671290700398e-01,
    2.445134137142996e+00, 3.754408661907416e+00,
)


def normal_quantile(p: float) -> float:
    """Inverse of :func:`normal_cdf`.

    Rational approximation split into central and tail regions, then one
    Newton step against the erfc-based CDF; round-trip error stays below
    1e-12 for p in [1e-12, 1 - 1e-12].
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal_quantile: p must be in (0, 1), got {p!r}")
    p_low, p_high = 0.02425, 1.0 - 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        a, b, c, d, e, f = _QUANT_C
        u, v, w, s = _QUANT_D
        z = (((((a * q + b) * q + c) * q + d) * q + e) * q + f) / \
            ((((u * q + v) * q + w) * q + s) * q + 1.0)
    elif p > p_high:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        a, b, c, d, e, f = _QUANT_C
        u, v, w, s = _QUANT_D
        z = -(((((a * q + b) * q + c) * q + d) * q + e) * q + f) / \
            ((((u * q + v) * q + w) * q + s) * q + 1.0)
    else:
        q = p - 0.5
        r = q * q
        a, b, c, d, e, f = _QUANT_A
        u, v, w, s, t = _QUANT_B
        z = (((((a * r + b) * r + c) * r + d) * r + e) * r + f) * q / \
            (((((u * r + v) * r + w) * r + s) * r + t) * r + 1.0)
    # One Newton refinement; pdf(z) > 0 throughout the usable range.
    z -= (normal_cdf(z) - p) / normal_pdf(z)
    return z


def gaussian_isoperimetric(mu: float) -> float:
    """Normal density at the normal quantile of ``mu``; symmetric about 1/2."""
    mu = float(mu)
    if not 0.0 < mu < 1.0:
        raise ValueError(f"gaussian_isoperimetric: need 0 < mu < 1, got {mu!r}")
    return normal_pdf(normal_quantile(mu))


def osw_bound(alpha: float) -> float:
    """Quartic channel bound for unbiased functions, in bits.

    (log2 e)/2 * (1-2a)^2 + 9*(1 - (log2 e)/2) * (1-2a)^4, valid for
    alpha in [(1/2)(1 - 1/sqrt(3)), 1/2].
    """
    alpha = float(alpha)
    if not _OSW_ALPHA_MIN - 1e-15 <= alpha <= 0.5 + 1e-15:
        raise ValueError(
            f"osw_bound: alpha {alpha!r} outside [{_OSW_ALPHA_MIN:.6f}, 0.5]")
    rho2 = (1.0 - 2.0 * alpha) ** 2
    half_log2e = 0.5 / _LOG2
    return half_log2e * rho2 + 9.0 * (1.0 - half_log2e) * rho2 * rho2


def erkip_bound(alpha: float) -> float:
    """Quadratic channel bound (1 - 2*alpha)^2."""
    r = 1.0 - 2.0 * float(alpha)
    return r * r


@dataclass(frozen=True)
class PsiSpec:
    """A convex scalar function usable inside the kernel functionals.

    ``kind`` is one of ``neg_binary_entropy`` (-h, convex, not increasing),
    ``square``, ``abs_power`` (|t|^p with p >= 1), or ``custom_table``
    (piecewise-linear values on a uniform grid over [0, 1]; convexity is
    validated at construction).
    """

    kind: str
    power: float = 2.0
    table: tuple = field(default=())

    def __post_init__(self):
        if self.kind not in ("neg_binary_entropy", "square", "abs_power",
                             "custom_table"):
            raise ValueError(f"unknown PsiSpec kind {self.kind!r}")
        if self.kind == "abs_power" and self.power < 1.0:
            raise ValueError("abs_power requires p >= 1")
        if self.kind == "custom_table":
            ys = np.asarray(self.table, dtype=float)
            if ys.size < 2:
                raise ValueError("custom_table needs at least two values")
            # Second differences of equally spaced samples must be >= 0.
            if ys.size >= 3 and np.any(np.diff(ys, 2) < -1e-12):
                raise ValueError("custom_table values are not convex")

    @classmethod
    def neg_binary_entropy(cls) -> "PsiSpec":
        return cls("neg_binary_entropy")

    @classmethod
    def square(cls) -> "PsiSpec":
        return cls("square")

    @classmethod
    def abs_power(cls, p: float) -> "PsiSpec":
        return cls("abs_power", power=float(p))

    @classmethod
    def custom_table(cls, values) -> "PsiSpec":
        return cls("custom_table", table=tuple(float(v) for v in values))

    @property
    def is_increasing(self) -> bool:
        """True when the function is nondecreasing on its working domain."""
        if self.kind in ("square", "abs_power"):
            return True  # on the nonnegative inputs these functionals see
        if self.kind == "custom_table":
            return bool(np.all(np.diff(self.table) >= -1e-15))
        return False

    @property
    def domain(self):
        """Closed interval of valid inputs, or None for the whole line."""
        if self.kind in ("neg_binary_entropy", "custom_table"):
            return (0.0, 1.0)
        return None

    def __call__(self, t):
        v = np.asarray(t, dtype=float)
        if self.kind == "neg_binary_entropy":
            out = -binary_entropy(v)
        elif self.kind == "square":
            out = v * v
        elif self.kind == "abs_power":
            out = np.abs(v) ** self.power
        else:
            ys = np.asarray(self.table, dtype=float)
            if np.any(v < -1e-12) or np.any(v > 1.0 + 1e-12):
                raise ValueError("custom_table: argument outside [0, 1]")
            xs = np.linspace(0.0, 1.0, ys.size)
            out = np.interp(np.clip(v, 0.0, 1.0), xs, ys)
        if np.isscalar(t) or np.ndim(t) == 0:
            return float(out)
        return out
