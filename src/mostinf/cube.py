"""Boolean functions on the discrete cube and their channel functionals.

Point encoding is fixed once: index j holds the input bits b1..bn with b1
most significant, and coordinate i equals +1 exactly when b_i = 0.  Truth
tables store raw bits; the value convention (0/1 or +/-1, with +/-1 value
1 - 2*bit) is applied at read time.  Subset masks for Fourier coefficients
use the same layout, so coordinate i corresponds to mask bit (n - i).

Every smoothing of a table goes through one engine, ``_smooth`` (T_rho along
the last axis of stacked tables, kept inside each row's [min, max]), and
every entropy of a distribution through ``_entropy_bits``.  Multi-output MI
smooths the one-hot row of each output value, O(2^k n 2^n): about 10 s at
k = 11, so ``perfect_code_mi`` keeps its millisecond coset path.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass

import numpy as np

from .entropy import binary_entropy, phi_entropy

__all__ = [
    "BooleanFunction",
    "MultiOutputFunction",
    "SymmetricProfile",
    "fwht",
    "mutual_information_direct",
    "mutual_information_phi",
    "mi_check",
    "degree_weight",
    "dictator",
    "and_k",
    "lex",
    "hamming_ball",
    "majority",
    "make_family",
    "family_check",
    "and_mi_exact",
    "and_mi_simple_form",
    "symmetric_mi",
    "hamming_ball_w1_exact",
    "c2_coefficient",
    "taylor_curvature_check",
    "taylor_check",
    "perfect_code_mi",
    "perfect_code_check",
    "hamming_code_decoder",
    "parse_truth_table",
    "parse_multi_table",
    "format_truth_table",
]

MAX_TRANSFORM_N = 24
_LN2 = math.log(2.0)

ZERO_ONE = "zero_one"
PLUS_MINUS = "plus_minus"


def _popcount(a) -> np.ndarray:
    """Vectorized 32-bit population count."""
    v = np.asarray(a).astype(np.uint32)
    v = v - ((v >> 1) & np.uint32(0x55555555))
    v = (v & np.uint32(0x33333333)) + ((v >> 2) & np.uint32(0x33333333))
    v = (v + (v >> 4)) & np.uint32(0x0F0F0F0F)
    return ((v * np.uint32(0x01010101)) >> 24).astype(np.int64)


def _table_size(n: int) -> int:
    """2^n after BooleanFunction's check of n, before any 2^n allocation."""
    if not 1 <= n <= MAX_TRANSFORM_N:
        raise ValueError(f"dimension {n} outside 1..{MAX_TRANSFORM_N}")
    return 1 << n


class BooleanFunction:
    """Truth table over the n-cube, uint8 bits, convention applied on read."""

    __slots__ = ("n", "convention", "bits")

    def __init__(self, n: int, bits, convention: str = ZERO_ONE):
        size = _table_size(n)
        if convention not in (ZERO_ONE, PLUS_MINUS):
            raise ValueError(f"unknown value convention {convention!r}")
        b = np.array(bits, dtype=np.uint8)
        if b.shape != (size,):
            raise ValueError(f"table length {b.size} != 2^{n}")
        if np.any(b > 1):
            raise ValueError("table entries must be 0/1")
        self.n = n
        self.convention = convention
        self.bits = b

    def values(self) -> np.ndarray:
        """Table read under the declared convention, as floats."""
        b = self.bits.astype(float)
        if self.convention == PLUS_MINUS:
            return 1.0 - 2.0 * b
        return b

    def reread(self, convention: str) -> "BooleanFunction":
        return BooleanFunction(self.n, self.bits, convention)

    def table_int(self) -> int:
        """Table as an integer with table bit j at binary position j."""
        return int.from_bytes(
            np.packbits(self.bits, bitorder="little").tobytes(), "little")

    @classmethod
    def from_int(cls, n: int, table: int,
                 convention: str = ZERO_ONE) -> "BooleanFunction":
        size = 1 << n
        if not 0 <= table < (1 << size):
            raise ValueError("table integer out of range")
        raw = np.frombuffer(table.to_bytes((size + 7) // 8, "little"),
                            dtype=np.uint8)
        bits = np.unpackbits(raw, count=size, bitorder="little")
        return cls(n, bits, convention)

    def __eq__(self, other):
        return (isinstance(other, BooleanFunction) and self.n == other.n
                and self.convention == other.convention
                and np.array_equal(self.bits, other.bits))

    def __repr__(self):
        return f"BooleanFunction(n={self.n}, conv={self.convention})"


@dataclass
class MultiOutputFunction:
    """Map from the n-cube to k output bits, stored as output integers."""

    n: int
    k: int
    table: np.ndarray

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"output bits k={self.k} must be >= 1")
        self.table = np.asarray(self.table, dtype=np.int64)
        if self.table.shape != (1 << self.n,):
            raise ValueError(f"table length {self.table.size} != 2^{self.n}")
        if np.any(self.table < 0) or np.any(self.table >= (1 << self.k)):
            raise ValueError("outputs must lie in [0, 2^k)")


@dataclass
class SymmetricProfile:
    """Value of a weight-symmetric function per Hamming level.

    Level i is the set of inputs with exactly i coordinates equal to -1
    (index popcount i).  A fractional level value is the fraction of that
    level mapped to 1, used for exact-mean balls.
    """

    n: int
    levels: np.ndarray

    def __post_init__(self):
        self.levels = np.asarray(self.levels, dtype=float)
        if self.levels.shape != (self.n + 1,):
            raise ValueError("profile needs n+1 level values")
        if np.any(self.levels < 0.0) or np.any(self.levels > 1.0):
            raise ValueError("level values must lie in [0, 1]")


def _hadamard_inplace(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis."""
    size = a.shape[-1]
    out = np.ascontiguousarray(a, dtype=float).copy()
    flat = out.reshape(-1, size)
    h = 1
    while h < size:
        blocks = flat.reshape(flat.shape[0], size // (2 * h), 2, h)
        top = blocks[:, :, 0, :] + blocks[:, :, 1, :]
        bot = blocks[:, :, 0, :] - blocks[:, :, 1, :]
        blocks[:, :, 0, :] = top
        blocks[:, :, 1, :] = bot
        h *= 2
    return out


def fwht(f: BooleanFunction) -> np.ndarray:
    """The 2^n Fourier coefficients under f's declared value convention,
    indexed by subset bitmask."""
    return _hadamard_inplace(f.values()) / (1 << f.n)


def _damped_inverse(coeffs: np.ndarray, rho: float) -> np.ndarray:
    """Inverse transform of spectra (last axis) damped by rho^|S|."""
    rho = float(rho)
    if abs(rho) > 1.0:
        raise ValueError(f"correlation {rho!r} outside [-1, 1]")
    levels = _popcount(np.arange(coeffs.shape[-1]))
    return _hadamard_inplace(coeffs * rho ** levels)


def _smooth(tables, rho: float) -> np.ndarray:
    """T_rho along the last axis of stacked 2^n-entry tables.

    T_rho averages each row, so the result must stay in the row's own
    [min, max]: an escape beyond 1e-9 is an AssertionError, anything inside
    is clipped.
    """
    tables = np.asarray(tables, dtype=float)
    coeffs = _hadamard_inplace(tables) / tables.shape[-1]
    out = _damped_inverse(coeffs, rho)
    lo = tables.min(axis=-1, keepdims=True)
    hi = tables.max(axis=-1, keepdims=True)
    if np.any(out < lo - 1e-9) or np.any(out > hi + 1e-9):
        raise AssertionError("smoothed table escaped the convex hull")
    return np.clip(out, lo, hi)


def _entropy_bits(p, axis: int = -1):
    """Entropy in bits of the distributions laid along ``axis``."""
    p = np.asarray(p, dtype=float)
    out = -np.sum(p * np.log2(np.where(p > 0.0, p, 1.0)), axis=axis)
    return float(out) if out.ndim == 0 else out


def _flip_probability(alpha) -> float:
    """``alpha`` as a float, which must lie in [0, 1] (nan does not)."""
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"flip probability {alpha!r} outside [0, 1]")
    return alpha


def _distance_weights(n: int, alpha: float) -> np.ndarray:
    """Pr[x | y] per Hamming distance class, exponentiated from log space."""
    if alpha == 0.0:
        w = np.zeros(n + 1)
        w[0] = 1.0
        return w
    if alpha == 1.0:
        w = np.zeros(n + 1)
        w[n] = 1.0
        return w
    d = np.arange(n + 1, dtype=float)
    return np.exp(d * math.log(alpha) + (n - d) * math.log1p(-alpha))


def mutual_information_direct(f, alpha: float) -> float:
    """Exact mutual information (bits) between f(x) and the noisy copy y.

    Single-output tables smooth the 0/1 table once (exchangeability of the
    correlated pair); multi-output tables smooth the one-hot row of every
    output value, which costs O(2^k n 2^n).
    """
    alpha = _flip_probability(alpha)
    if not isinstance(f, (BooleanFunction, MultiOutputFunction)):
        raise TypeError(f"unsupported function type {type(f)!r}")
    if f.n > 15:
        raise ValueError("exact enumeration capped at n = 15")
    if isinstance(f, MultiOutputFunction):
        return _mi_multi_output(f, alpha)
    bits = f.bits.astype(float)
    mu = float(np.mean(bits))
    p = _smooth(bits, 1.0 - 2.0 * alpha)
    cond = math.fsum(binary_entropy(p).tolist()) / p.size
    return binary_entropy(mu) - cond


# Table entries that _mi_multi_output smooths at once: 2^16 floats (512 KiB)
# bound memory at any k and stay in cache; at n = 15 that is two one-hot
# rows, which runs faster than blocks of 4 or more rows.
_MULTI_BLOCK = 1 << 16


def _mi_multi_output(f: MultiOutputFunction, alpha: float) -> float:
    """h(f(X)) - E_y H(f(X) | Y = y); Pr[f(X) = v | Y = y] is T_rho applied
    to the indicator of f = v."""
    size = 1 << f.n
    counts = np.bincount(f.table)
    values = np.flatnonzero(counts)
    cond = np.zeros(size)
    step = max(1, _MULTI_BLOCK >> f.n)
    for start in range(0, values.size, step):
        block = values[start:start + step, None]
        rows = _smooth((f.table == block).astype(float), 1.0 - 2.0 * alpha)
        cond += _entropy_bits(rows, axis=0)
    return _entropy_bits(counts / size) - math.fsum(cond.tolist()) / size


def mutual_information_phi(f: BooleanFunction, rho: float) -> float:
    """Jensen-gap form of the mutual information for a +/-1 valued table."""
    if f.convention != PLUS_MINUS:
        raise ValueError("phi path requires the plus_minus convention")
    t = _smooth(f.values(), rho)
    return phi_entropy(t)


def mi_check(text: str, alpha: float, multi: int | None = None) -> dict:
    """Report metrics of a truth table's MI, or with ``multi`` given of a
    ``multi``-bit output table (``parse_multi_table``)."""
    if multi is not None:
        mi = mutual_information_direct(parse_multi_table(text, multi), alpha)
        return {"mi": mi, "per_bit": mi / multi}
    f = parse_truth_table(text)
    mi = mutual_information_direct(f, alpha)
    mi_phi = mutual_information_phi(f.reread(PLUS_MINUS), 1.0 - 2.0 * alpha)
    return {"mi": mi, "mean": float(np.mean(f.bits)), "mi_phi_path": mi_phi,
            "path_difference": abs(mi - mi_phi)}


def degree_weight(coeffs: np.ndarray, k: int) -> float:
    """Fourier weight at degree k of the 2^n coefficients ``coeffs``."""
    n = coeffs.size.bit_length() - 1
    if not 0 <= k <= n:
        raise ValueError(f"level {k} outside 0..{n}")
    sel = coeffs[_popcount(np.arange(coeffs.size)) == k]
    return float(math.fsum((sel * sel).tolist()))


# ---------------------------------------------------------------------------
# structured families


def dictator(n: int, i: int) -> BooleanFunction:
    """f(x) = x_i in the +/-1 convention."""
    if not 1 <= i <= n:
        raise ValueError(f"coordinate {i} outside 1..{n}")
    j = np.arange(_table_size(n))
    bits = ((j >> (n - i)) & 1).astype(np.uint8)
    return BooleanFunction(n, bits, PLUS_MINUS)


def and_k(n: int, k: int) -> BooleanFunction:
    """Indicator of x_1 = ... = x_k = +1 (0/1 convention)."""
    if not 1 <= k <= n:
        raise ValueError(f"arity {k} outside 1..{n}")
    j = np.arange(_table_size(n))
    bits = (j >> (n - k) == 0).astype(np.uint8)
    return BooleanFunction(n, bits, ZERO_ONE)


def lex(n: int, count: int) -> BooleanFunction:
    """Indicator of the first ``count`` indices (0/1 convention)."""
    if not 0 <= count <= _table_size(n):
        raise ValueError(f"count {count} outside 0..2^{n}")
    bits = (np.arange(1 << n) < count).astype(np.uint8)
    return BooleanFunction(n, bits, ZERO_ONE)


def hamming_ball(n: int, ones_count: int) -> BooleanFunction:
    """Ball around the all-(+1) point, boundary ties by ascending index."""
    if not 0 <= ones_count <= _table_size(n):
        raise ValueError(f"ones_count {ones_count} outside 0..2^{n}")
    order = np.argsort(_popcount(np.arange(1 << n)), kind="stable")
    bits = np.zeros(1 << n, dtype=np.uint8)
    bits[order[:ones_count]] = 1
    return BooleanFunction(n, bits, ZERO_ONE)


def majority(n: int) -> BooleanFunction:
    """Indicator of a +1 majority; n must be odd."""
    if n % 2 == 0:
        raise ValueError("majority needs odd n")
    return hamming_ball(n, 1 << (n - 1))


_FAMILY_BUILDERS = {
    "dictator": lambda p: dictator(p["n"], p["i"]),
    "and_k": lambda p: and_k(p["n"], p["k"]),
    "lex": lambda p: lex(p["n"], p["count"]),
    "hamming_ball": lambda p: hamming_ball(p["n"], p["ones_count"]),
    "majority": lambda p: majority(p["n"]),
}


def make_family(kind: str, **params) -> BooleanFunction:
    if kind not in _FAMILY_BUILDERS:
        raise ValueError(f"unknown family kind {kind!r}")
    return _FAMILY_BUILDERS[kind](params)


def family_check(kind: str, n: int, alpha: float, **option) -> dict:
    """Report metrics of ``make_family(kind, n=n, **option)``."""
    f = make_family(kind, n=n, **option)
    metrics = {"mean": float(np.mean(f.bits)),
               "mi": mutual_information_direct(f.reread(ZERO_ONE), alpha),
               "w1": degree_weight(fwht(f), 1)}
    if kind == "and_k":
        exact = and_mi_exact(option["k"], alpha)
        quoted = and_mi_simple_form(option["k"], alpha)
        metrics.update(mi_exact_form=exact, mi_simple_form=quoted,
                       simple_form_ratio=quoted / exact if exact > 0.0
                       else float(quoted == 0.0))
    return metrics


# ---------------------------------------------------------------------------
# closed forms and large-n fast paths


def and_mi_exact(k: int, alpha: float) -> float:
    """Exact mutual information of the k-wise AND indicator, O(k) terms.

    h(2^-k) minus the average conditional entropy over the 2^k patterns of
    the k relevant noisy bits, grouped by their count of +1 entries.
    """
    if not 1 <= k <= 30:
        raise ValueError(f"arity {k} outside 1..30")
    alpha = float(alpha)
    mu = 2.0 ** (-k)
    terms = []
    for m in range(k + 1):
        p_one = (1.0 - alpha) ** m * alpha ** (k - m)
        terms.append(math.comb(k, m) * mu * binary_entropy(p_one))
    return binary_entropy(mu) - math.fsum(terms)


def and_mi_simple_form(k: int, alpha: float) -> float:
    """The widely quoted k*2^(1-k)*(1-h(alpha)) closed form.

    Kept for comparison reports only: it disagrees with the exact value
    (already at alpha = 0, where the exact answer is h(2^-k)), so it is
    never asserted.
    """
    return k * 2.0 ** (1 - k) * (1.0 - binary_entropy(alpha))


def _log_binom(n: int, k) -> np.ndarray:
    from scipy.special import gammaln

    k = np.asarray(k, dtype=float)
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


def _level_masses(n: int) -> np.ndarray:
    """Bin(n, 1/2) masses of the Hamming levels 0..n."""
    return np.exp(_log_binom(n, np.arange(n + 1)) - n * _LN2)


def _binom_pmf(m: int, alpha: float) -> np.ndarray:
    """Bin(m, alpha) probabilities, exponentiated from log space."""
    if m == 0:
        return np.ones(1)
    if alpha == 0.0:
        out = np.zeros(m + 1)
        out[0] = 1.0
        return out
    if alpha == 1.0:
        out = np.zeros(m + 1)
        out[m] = 1.0
        return out
    a = np.arange(m + 1)
    logp = _log_binom(m, a) + a * math.log(alpha) + (m - a) * math.log1p(-alpha)
    return np.exp(logp)


def symmetric_mi(profile: SymmetricProfile, alpha: float) -> float:
    """Mutual information of a weight-symmetric function via level kernels.

    The level-transition row Pr[|y| = . | |x| = i] is the convolution of
    the down-flip binomial Bin(i, alpha), reversed, with the up-flip
    binomial Bin(n-i, alpha).  All binomials are computed in log space.
    Exact for whole-level profiles; fractional boundary levels are treated
    as the level-averaged function.  That value is a lower bound: h is
    concave and the channel commutes with permuting coordinates, so it is
    at most the mutual information of any Boolean function with the same
    level profile, such as ``hamming_ball`` with as many points.
    """
    n = profile.n
    if n > 2000:
        raise ValueError("level range capped at n = 2000")
    alpha = _flip_probability(alpha)
    levels = profile.levels
    q = _level_masses(n)
    mu = min(max(float(math.fsum((q * levels).tolist())), 0.0), 1.0)
    p_given_y = np.empty(n + 1)
    for i in range(n + 1):
        row = np.convolve(_binom_pmf(i, alpha)[::-1], _binom_pmf(n - i, alpha))
        p_given_y[i] = row @ levels
    p_given_y = np.clip(p_given_y, 0.0, 1.0)
    cond = math.fsum((q * binary_entropy(p_given_y)).tolist())
    return binary_entropy(mu) - cond


def hamming_ball_w1_exact(n: int, r: int) -> float:
    """Degree-1 Fourier weight of the full-level ball 0..r: n*(2^-n*C(n-1,r))^2."""
    if not 0 <= r < n:
        raise ValueError(f"radius {r} outside 0..{n - 1}")
    if n > 2000:
        raise ValueError("level range capped at n = 2000")
    log_coeff = _log_binom(n - 1, r) - n * _LN2
    return float(np.exp(math.log(n) + 2.0 * log_coeff))


def c2_coefficient(mu: float) -> float:
    """Second-order entropy-drop coefficient -1/(2 ln 2 * mu(1-mu))."""
    mu = float(mu)
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mean {mu!r} outside (0, 1)")
    return -1.0 / (2.0 * _LN2 * mu * (1.0 - mu))


def taylor_curvature_check(f: BooleanFunction, rho: float = 1e-3):
    """Small-correlation entropy drop against its curvature prediction.

    Returns (measured, predicted) with measured = (E[h(T_rho f)] - h(mu))
    / rho^2 and predicted = c2(mu) * W1[f].  Averaging over x kills the
    odd-order terms whose coefficients are not pinned down, so the two
    agree to O(rho) relative error.
    """
    bits = f.bits.astype(float)
    mu = float(np.mean(bits))
    if not 0.0 < mu < 1.0:
        raise ValueError("constant functions have no curvature to check")
    spec = fwht(f.reread(ZERO_ONE))
    w1 = degree_weight(spec, 1)
    smoothed = _smooth(bits, rho)
    avg_h = math.fsum(binary_entropy(smoothed).tolist()) / smoothed.size
    measured = (avg_h - binary_entropy(mu)) / rho ** 2
    predicted = c2_coefficient(mu) * w1
    return measured, predicted


def taylor_check(n: int, trials: int, seed: int) -> dict:
    """``taylor_curvature_check`` at rho = 1e-3 on ``trials`` random tables
    from ``seed``: failures (error above 1% of the prediction plus 1e-8),
    the worst relative error, and the verdict under "pass"."""
    if trials < 0:
        raise ValueError(f"taylor check needs trials >= 0, got {trials}")
    size = _table_size(n)
    rng = np.random.default_rng(seed)
    worst_rel = 0.0
    failures = done = 0
    while done < trials:
        bits = rng.integers(0, 2, size).astype(np.uint8)
        if bits.min() == bits.max():
            bits[0] ^= 1
        f = BooleanFunction(n, bits)
        measured, predicted = taylor_curvature_check(f, rho=1e-3)
        # Parity-like draws with zero degree-1 weight (so zero prediction)
        # have no rho^2 term to compare against; resample them.
        if predicted == 0.0:
            continue
        done += 1
        err = abs(measured - predicted)
        if err > 0.01 * abs(predicted) + 1e-8:
            failures += 1
        worst_rel = max(worst_rel, err / abs(predicted))
    return {"trials": trials, "failures": failures,
            "worst_rel_err": worst_rel, "pass": failures == 0}


# ---------------------------------------------------------------------------
# the Hamming(15,11) multi-bit counterexample

_CODE_N = 15
_CODE_K = 11
# Data coordinates are the non-power-of-two column values 1..15.
_DATA_POSITIONS = [b for b in range(_CODE_N) if (b + 1) & b != 0]


def hamming_code_decoder() -> MultiOutputFunction:
    """Syndrome decoder of the Hamming(15,11) code as an 11-bit output table.

    Parity-check columns are the binary representations of 1..15, so the
    syndrome of a received word is directly the 1-based position of the
    unique flipped bit (0 means a codeword).  The output is the 11-bit
    message read off the corrected word's data positions.
    """
    x = np.arange(1 << _CODE_N, dtype=np.int64)
    synd = np.zeros(1 << _CODE_N, dtype=np.int64)
    for b in range(_CODE_N):
        synd ^= ((x >> b) & 1) * (b + 1)
    corrected = np.where(synd > 0, x ^ (1 << np.maximum(synd - 1, 0)), x)
    msg = np.zeros(1 << _CODE_N, dtype=np.int64)
    for out_bit, b in enumerate(_DATA_POSITIONS):
        msg |= ((corrected >> b) & 1) << out_bit
    return MultiOutputFunction(_CODE_N, _CODE_K, msg)


def perfect_code_mi(alpha: float):
    """Mutual information of the Hamming(15,11) decoder output, and per bit.

    Linearity is used twice: the conditional entropy depends on y only
    through its syndrome coset, and the 15 nonzero-syndrome cosets are
    equivalent under code automorphisms, so only y = 0 and one weight-1 y
    are enumerated over the 2^15 noise patterns.  The generic O(4^n) route,
    ``mutual_information_direct(hamming_code_decoder(), alpha)``, is its
    oracle.
    """
    alpha = _flip_probability(alpha)
    decoder = hamming_code_decoder()
    xs = np.arange(1 << _CODE_N, dtype=np.int64)
    wd = _distance_weights(_CODE_N, alpha)
    out_card = 1 << _CODE_K

    def cond_entropy(y: int) -> float:
        w = wd[_popcount(xs ^ y)]
        cond = np.bincount(decoder.table, weights=w, minlength=out_card)
        return _entropy_bits(cond)

    h_syndrome_zero = cond_entropy(0)
    h_syndrome_one = cond_entropy(1)
    # 1 coset with syndrome 0, 15 equivalent cosets with nonzero syndrome.
    mi = _CODE_K - (h_syndrome_zero + 15.0 * h_syndrome_one) / 16.0
    return mi, mi / _CODE_K


def perfect_code_check(alpha: float) -> dict:
    """The decoder's MI per bit must beat the dictator bound 1 - h(alpha)."""
    mi, per_bit = perfect_code_mi(alpha)
    bound = 1.0 - binary_entropy(alpha)
    return {"mi": mi, "per_bit": per_bit, "bound": bound,
            "margin": per_bit - bound, "pass": per_bit > bound}


# ---------------------------------------------------------------------------
# truth-table text format


def format_truth_table(f: BooleanFunction) -> str:
    """Two-line text form: header, then the table integer's hex digits,
    least significant nibble first."""
    header = f"n={f.n} conv={f.convention}"
    width = ((1 << f.n) + 3) // 4
    return f"{header}\n0x{format(f.table_int(), f'0{width}x')[::-1]}\n"


def _header_fields(header: str, *keys: str) -> dict:
    """``key=value`` fields of a table header; each of ``keys`` is required."""
    fields = dict(item.partition("=")[::2] for item in header.split())
    missing = " ".join(f"{k}=" for k in keys if k not in fields)
    if missing:
        raise ValueError(f"truth-table header {header!r} lacks {missing}")
    return fields


def parse_truth_table(text: str) -> BooleanFunction:
    """Parse the two-line format; the body may be binary chars or 0x... hex
    with LSB-first nibbles (first nibble holds indices 0-3)."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) != 2:
        raise ValueError("expected a header line and a table line")
    fields = _header_fields(lines[0], "n", "conv")
    n = int(fields["n"])
    convention = fields["conv"]
    size = 1 << n
    body = lines[1]
    if body.startswith("0x") or body.startswith("0X"):
        nibbles = body[2:]
        if len(nibbles) != (size + 3) // 4:
            raise ValueError("hex table length mismatch")
        bad = [ch for ch in nibbles if ch not in string.hexdigits]
        if bad:
            raise ValueError(f"invalid literal for int() with base 16: "
                             f"{bad[0]!r}")
        table = int(nibbles[::-1], 16)
        if table >> size:
            raise ValueError("hex table has bits beyond 2^n")
        return BooleanFunction.from_int(n, table, convention)
    if len(body) != size:
        raise ValueError(f"table line length {len(body)} != 2^{n}")
    if set(body) - {"0", "1"}:
        raise ValueError("table line must contain only 0/1")
    bits = np.frombuffer(body.encode(), dtype=np.uint8) - ord("0")
    return BooleanFunction(n, bits, convention)


def parse_multi_table(text: str, k: int) -> MultiOutputFunction:
    """Parse a header with ``n=`` and 2^n k-bit output integers."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty truth table")
    n = int(_header_fields(lines[0], "n")["n"])
    table = [int(tok, 0) for tok in " ".join(lines[1:]).split()]
    return MultiOutputFunction(n, k, np.asarray(table))
