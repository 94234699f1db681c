"""Scalar special functions shared by every setting.

Binary entropy and its Jensen-gap functional, the convex-function registry
used by the kernel inequalities, standard-normal helpers (the quantile is
scipy's ``ndtri``), the Gaussian isoperimetric function, and the two
published channel bounds.  All entropies are in bits; natural logs appear
only inside series constants and the curvature coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    Accepts a scalar or ndarray in [0, 1], nan rejected; endpoints use the
    continuity convention 0*log(1/0) = 0 and give +0.0.
    """
    b = np.asarray(beta, dtype=float)
    inside = (0.0 <= b) & (b <= 1.0)
    if not inside.all():
        raise ValueError(f"binary_entropy: bias outside [0, 1]: "
                         f"{float(b[~inside][0])!r}")
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


def phi_entropy(values) -> float:
    """Jensen gap E phi(V) - phi(E V) of the values V under the uniform
    measure.

    All values must lie in [-1, 1].  Nonnegative by convexity of phi; zero
    iff the values are all equal.
    """
    v = np.asarray(values, dtype=float)
    w = 1.0 / v.size
    if np.any(np.abs(v) > 1.0):
        raise ValueError("phi_entropy: value outside [-1, 1]")
    mean = math.fsum((w * v).tolist())
    # Compensated accumulation keeps the Jensen gap meaningful near zero.
    return math.fsum((w * phi(v)).tolist()) - phi(mean)


def normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-float(z) / _SQRT2)


def normal_pdf(z: float) -> float:
    """Standard normal density."""
    z = float(z)
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def normal_quantile(p: float) -> float:
    """Inverse of :func:`normal_cdf`: scipy's ``ndtri``, to a few ulps."""
    from scipy.special import ndtri

    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal_quantile: p must be in (0, 1), got {p!r}")
    return float(ndtri(p))


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

    ``kind`` is ``neg_binary_entropy`` (-h, convex, not increasing) or
    ``abs_power`` (|t|^p with p >= 1; ``square`` is p = 2).
    """

    kind: str
    power: float = 2.0

    def __post_init__(self):
        if self.kind not in ("neg_binary_entropy", "abs_power"):
            raise ValueError(f"unknown PsiSpec kind {self.kind!r}")
        if self.kind == "abs_power" and not 1.0 <= self.power < math.inf:
            raise ValueError(f"abs_power requires p >= 1 and finite, "
                             f"got {self.power}")

    @classmethod
    def neg_binary_entropy(cls) -> "PsiSpec":
        return cls("neg_binary_entropy")

    @classmethod
    def square(cls) -> "PsiSpec":
        return cls.abs_power(2.0)

    @classmethod
    def abs_power(cls, p: float) -> "PsiSpec":
        return cls("abs_power", power=float(p))

    @property
    def domain(self):
        """Closed interval of valid inputs, or None for the whole line."""
        if self.kind == "neg_binary_entropy":
            return (0.0, 1.0)
        return None

    def __call__(self, t):
        v = np.asarray(t, dtype=float)
        if self.kind == "neg_binary_entropy":
            out = -binary_entropy(v)
        elif self.power == 2.0:
            out = v * v     # bit for bit np.abs(v) ** 2.0, with less work
        else:
            out = np.abs(v) ** self.power
        if np.isscalar(t) or np.ndim(t) == 0:
            return float(out)
        return out
