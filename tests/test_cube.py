"""Cube transforms, noise operator, information paths, families, fast paths."""

import math

import numpy as np
import pytest

from mostinf.cube import (
    BooleanFunction,
    MultiOutputFunction,
    PLUS_MINUS,
    SymmetricProfile,
    ZERO_ONE,
    _damped_inverse,
    _hadamard_inplace,
    _popcount,
    _smooth,
    and_k,
    and_mi_exact,
    and_mi_simple_form,
    c2_coefficient,
    degree_weight,
    dictator,
    format_truth_table,
    fwht,
    hamming_ball,
    hamming_ball_w1_exact,
    hamming_code_decoder,
    lex,
    majority,
    make_family,
    mutual_information_direct,
    mutual_information_phi,
    parse_truth_table,
    perfect_code_mi,
    symmetric_mi,
    taylor_curvature_check,
)
from mostinf.entropy import binary_entropy, phi


def subset_mask(coords, n: int) -> int:
    """Bitmask of the coordinate subset, coordinate i at bit (n - i)."""
    m = 0
    for i in coords:
        if not 1 <= i <= n:
            raise ValueError(f"coordinate {i} outside 1..{n}")
        m |= 1 << (n - i)
    return m


def variance_trho(spec: np.ndarray, rho: float) -> float:
    """Variance of the smoothed function, from a +/-1-valued source spectrum."""
    total = math.fsum((spec * spec).tolist())
    if abs(total - 1.0) > 1e-6:
        raise ValueError("spectrum does not come from a +/-1-valued table")
    levels = _popcount(np.arange(spec.size))
    c2 = spec * spec
    terms = np.where(levels > 0, c2 * float(rho) ** (2 * levels), 0.0)
    return float(math.fsum(terms.tolist()))


def brute_force_coeff(values, mask, n):
    """Direct character sum 2^-n sum_x f(x) prod_{i in S} x_i."""
    total = 0.0
    for j in range(1 << n):
        chi = (-1) ** bin(mask & j).count("1")
        total += values[j] * chi
    return total / (1 << n)


def mi_enumeration_oracle(bits, alpha):
    """Conditional-entropy enumeration with explicit flip products.

    Independent of the transform path: for every y it accumulates
    Pr[f(x)=1 | y] = sum_x prod_i alpha^[x_i != y_i] (1-alpha)^[x_i = y_i].
    """
    n = int(round(math.log2(len(bits))))
    size = 1 << n
    mu = sum(bits) / size
    cond = 0.0
    for y in range(size):
        p_one = 0.0
        for x in range(size):
            d = bin(x ^ y).count("1")
            p_one += bits[x] * alpha ** d * (1 - alpha) ** (n - d)
        cond += binary_entropy(p_one)
    return binary_entropy(mu) - cond / size


def multi_output_oracle(table, k, alpha):
    """The O(4^n) loop over y for a k-bit output table.

    For every y it accumulates Pr[f(X) = v | Y = y] from explicit flip
    weights, takes its entropy, and averages over y; it shares nothing with
    the smoothing engine.
    """
    table = np.asarray(table, dtype=np.int64)
    size = table.size
    n = size.bit_length() - 1
    xs = np.arange(size)
    dist = np.array([bin(x).count("1") for x in range(size)])
    weight = alpha ** dist * (1 - alpha) ** (n - dist)

    def entropy(p):
        p = p[p > 0]
        return float(-np.sum(p * np.log2(p)))

    cond = [entropy(np.bincount(table, weights=weight[xs ^ y],
                                minlength=1 << k))
            for y in range(size)]
    return entropy(np.bincount(table) / size) - math.fsum(cond) / size


class TestTransform:
    def test_dictator_spectrum(self):
        spec = fwht(dictator(3, 1))
        expected = np.zeros(8)
        expected[subset_mask([1], 3)] = 1.0
        np.testing.assert_allclose(spec, expected, atol=1e-12)

    def test_constant_plus_one(self):
        f = BooleanFunction(3, np.zeros(8, dtype=np.uint8), PLUS_MINUS)
        spec = fwht(f)
        assert spec[0] == pytest.approx(1.0)
        assert np.max(np.abs(spec[1:])) < 1e-12

    def test_and2_coefficients(self):
        # (1+x1)(1+x2)/4 expands with weight 1/4 on every subset.
        spec = fwht(and_k(2, 2))
        np.testing.assert_allclose(spec, 0.25, atol=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        for conv in (ZERO_ONE, PLUS_MINUS):
            f = BooleanFunction(4, rng.integers(0, 2, 16), conv)
            spec = fwht(f)
            vals = f.values()
            for mask in range(16):
                assert spec[mask] == pytest.approx(
                    brute_force_coeff(vals, mask, 4), abs=1e-12)

    def test_parseval_and_inverse(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = BooleanFunction(6, rng.integers(0, 2, 64), PLUS_MINUS)
            spec = fwht(f)
            assert np.sum(spec ** 2) == pytest.approx(1.0, abs=1e-10)
            np.testing.assert_allclose(_hadamard_inplace(spec),
                                       f.values(), atol=1e-10)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            BooleanFunction(25, np.zeros(2, dtype=np.uint8))


class TestNoiseOperator:
    def test_rho_one_identity(self):
        rng = np.random.default_rng(2)
        f = BooleanFunction(4, rng.integers(0, 2, 16), PLUS_MINUS)
        np.testing.assert_allclose(_damped_inverse(fwht(f), 1.0),
                                   f.values(), atol=1e-12)

    def test_rho_zero_mean(self):
        rng = np.random.default_rng(3)
        f = BooleanFunction(4, rng.integers(0, 2, 16))
        out = _damped_inverse(fwht(f), 0.0)
        np.testing.assert_allclose(out, np.mean(f.values()), atol=1e-12)

    def test_dictator_scaling(self):
        f = dictator(3, 2)
        out = _damped_inverse(fwht(f), 0.6)
        np.testing.assert_allclose(out, 0.6 * f.values(), atol=1e-12)

    def test_hull_containment(self):
        rng = np.random.default_rng(4)
        f = BooleanFunction(5, rng.integers(0, 2, 32))
        out = _damped_inverse(fwht(f), 0.8)
        assert out.min() >= -1e-10 and out.max() <= 1.0 + 1e-10


class TestMutualInformation:
    def test_constant_is_zero(self):
        f = BooleanFunction(3, np.ones(8, dtype=np.uint8))
        assert mutual_information_direct(f, 0.2) == pytest.approx(0.0,
                                                                  abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.45])
    def test_dictator_value(self, alpha):
        f = dictator(4, 1).reread(ZERO_ONE)
        assert mutual_information_direct(f, alpha) == pytest.approx(
            1 - binary_entropy(alpha), abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.35])
    def test_and2_conditional_enumeration(self, alpha):
        # Four equally likely patterns of the two relevant noisy bits.
        expected = binary_entropy(0.25) - (
            binary_entropy((1 - alpha) ** 2) / 4
            + binary_entropy(alpha * (1 - alpha)) / 2
            + binary_entropy(alpha ** 2) / 4)
        assert mutual_information_direct(and_k(2, 2), alpha) == \
            pytest.approx(expected, abs=1e-12)

    def test_against_enumeration_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            bits = rng.integers(0, 2, 1 << n)
            alpha = float(rng.uniform(0.02, 0.48))
            f = BooleanFunction(n, bits)
            assert mutual_information_direct(f, alpha) == pytest.approx(
                mi_enumeration_oracle(bits.tolist(), alpha), abs=1e-12)

    def test_alpha_mirror_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            f = BooleanFunction(5, rng.integers(0, 2, 32))
            a = float(rng.uniform(0.0, 1.0))
            assert mutual_information_direct(f, a) == pytest.approx(
                mutual_information_direct(f, 1 - a), abs=1e-11)

    def test_data_processing_bounds(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            n = int(rng.integers(2, 11))
            f = BooleanFunction(n, rng.integers(0, 2, 1 << n))
            alpha = float(rng.uniform(0.05, 0.45))
            mi = mutual_information_direct(f, alpha)
            h_out = binary_entropy(float(np.mean(f.values())))
            assert mi <= min(h_out, float(n)) + 1e-9
            assert mi <= (1 - 2 * alpha) ** 2 + 1e-9

    def test_multi_output_agrees_with_single(self):
        rng = np.random.default_rng(12)
        bits = rng.integers(0, 2, 64)
        single = BooleanFunction(6, bits)
        multi = MultiOutputFunction(6, 1, bits.astype(np.int64))
        for alpha in (0.1, 0.3):
            assert mutual_information_direct(multi, alpha) == pytest.approx(
                mutual_information_direct(single, alpha), abs=1e-11)

    def test_multi_output_two_bits(self):
        # Two independent dictators carry 2(1 - h(alpha)) bits.
        j = np.arange(16)
        table = ((j >> 3) & 1) | (((j >> 2) & 1) << 1)
        f = MultiOutputFunction(4, 2, table)
        alpha = 0.15
        assert mutual_information_direct(f, alpha) == pytest.approx(
            2 * (1 - binary_entropy(alpha)), abs=1e-11)

    def test_multi_output_needs_an_output_bit(self):
        for k in (0, -1):
            with pytest.raises(ValueError, match=f"k={k} must be >= 1"):
                MultiOutputFunction(2, k, np.zeros(4, dtype=np.int64))


class TestSmoothingEngine:
    def test_batched_rows_bit_identical(self):
        rng = np.random.default_rng(50)
        for n in range(1, 11):
            bits = rng.integers(0, 2, (6, 1 << n)).astype(float)
            bits[0] = 1.0
            for tables in (bits, 1.0 - 2.0 * bits):
                rho = float(rng.uniform(-1.0, 1.0))
                batch = _smooth(tables, rho)
                for row, out in zip(tables, batch):
                    np.testing.assert_array_equal(_smooth(row, rho), out)

    def test_hull_guard(self, monkeypatch):
        # A transform that puts T_rho outside the table's own [min, max]
        # trips the guard.
        monkeypatch.setattr("mostinf.cube._damped_inverse",
                            lambda coeffs, rho: np.array([2.0, 0.0]))
        with pytest.raises(AssertionError, match="convex hull"):
            _smooth(np.array([0.0, 1.0]), 0.5)

    def test_multi_output_matches_loop_oracle(self):
        rng = np.random.default_rng(51)
        # The last two cases smooth their one-hot rows in several blocks.
        cases = [(n, k) for n in range(4, 11) for k in range(1, 5)]
        for n, k in cases + [(11, 6), (10, 8)]:
            table = rng.integers(0, 1 << k, 1 << n)
            f = MultiOutputFunction(n, k, table)
            for alpha in (0.0, 0.1, 0.37, 0.5):
                assert mutual_information_direct(f, alpha) == \
                    pytest.approx(multi_output_oracle(table, k, alpha),
                                  abs=1e-12)


def input_symmetries(n, rng):
    """Index maps of one coordinate permutation and one input negation."""
    j = np.arange(1 << n)
    shifts = n - 1 - np.arange(n)
    planes = (j[:, None] >> shifts) & 1
    permuted = planes[:, rng.permutation(n)] @ (1 << shifts)
    negated = j ^ (1 << int(rng.integers(n)))
    return permuted, negated


class TestInvariances:
    def test_single_output(self):
        rng = np.random.default_rng(52)
        for n in range(1, 9):
            bits = rng.integers(0, 2, 1 << n)
            alpha = float(rng.uniform(0.0, 0.5))
            base = mutual_information_direct(BooleanFunction(n, bits), alpha)
            permuted, negated = input_symmetries(n, rng)
            for variant in (bits[permuted], bits[negated], 1 - bits):
                mi = mutual_information_direct(BooleanFunction(n, variant),
                                               alpha)
                assert mi == pytest.approx(base, abs=1e-12)

    def test_multi_output(self):
        rng = np.random.default_rng(53)
        for n in range(2, 9):
            k = int(rng.integers(1, 5))
            table = rng.integers(0, 1 << k, 1 << n)
            alpha = float(rng.uniform(0.0, 0.5))
            base = mutual_information_direct(MultiOutputFunction(n, k, table),
                                             alpha)
            permuted, negated = input_symmetries(n, rng)
            flipped = table ^ (1 << int(rng.integers(k)))
            relabeled = rng.permutation(1 << k)[table]
            for variant in (table[permuted], table[negated], flipped,
                            relabeled):
                mi = mutual_information_direct(
                    MultiOutputFunction(n, k, variant), alpha)
                assert mi == pytest.approx(base, abs=1e-12)


class TestPhiPath:
    @pytest.mark.parametrize("rho", [0.2, 0.6, 0.9])
    def test_dictator_phi_value(self, rho):
        assert mutual_information_phi(dictator(3, 1), rho) == pytest.approx(
            phi(rho), abs=1e-12)

    def test_rho_zero(self):
        rng = np.random.default_rng(13)
        f = BooleanFunction(4, rng.integers(0, 2, 16), PLUS_MINUS)
        assert mutual_information_phi(f, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_dual_path_equivalence(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            bits = rng.integers(0, 2, 1 << n)
            alpha = float(rng.uniform(0.05, 0.45))
            pm = BooleanFunction(n, bits, PLUS_MINUS)
            zo = BooleanFunction(n, bits, ZERO_ONE)
            assert abs(mutual_information_phi(pm, 1 - 2 * alpha)
                       - mutual_information_direct(zo, alpha)) <= 1e-10

    def test_requires_pm_convention(self):
        with pytest.raises(ValueError):
            mutual_information_phi(and_k(2, 2), 0.5)


class TestSpectrumFunctionals:
    def test_degree_weight_dictator(self):
        assert degree_weight(fwht(dictator(4, 2)), 1) == pytest.approx(1.0)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_degree_weight_and_k(self, k):
        mu = 2.0 ** (-k)
        spec = fwht(and_k(max(k, 2) + 1, k))
        assert degree_weight(spec, 1) == pytest.approx(
            mu ** 2 * math.log2(1 / mu), abs=1e-12)

    def test_and2_w1(self):
        assert degree_weight(fwht(and_k(2, 2)), 1) == pytest.approx(1 / 8)

    def test_variance_dictator(self):
        for rho in (0.2, 0.7):
            assert variance_trho(fwht(dictator(3, 1)), rho) == \
                pytest.approx(rho ** 2, abs=1e-13)

    def test_variance_constant(self):
        f = BooleanFunction(3, np.zeros(8, dtype=np.uint8), PLUS_MINUS)
        assert variance_trho(fwht(f), 0.5) == 0.0

    def test_variance_maj3(self):
        # The +/-1 reading that is +1 exactly where majority is 1.
        spec = fwht(BooleanFunction(3, 1 - majority(3).bits, PLUS_MINUS))
        assert variance_trho(spec, 0.5) == pytest.approx(0.19140625,
                                                         abs=1e-12)

    def test_variance_bounded_with_dictator_gap(self):
        rng = np.random.default_rng(15)
        dictators = {dictator(6, i).bits.tobytes() for i in range(1, 7)}
        dictators |= {(1 - dictator(6, i).bits).tobytes()
                      for i in range(1, 7)}
        for _ in range(60):
            bits = rng.integers(0, 2, 64)
            spec = fwht(BooleanFunction(6, bits, PLUS_MINUS))
            rho = float(rng.uniform(0.05, 0.95))
            v = variance_trho(spec, rho)
            assert v <= rho ** 2 + 1e-12
            if bits.astype(np.uint8).tobytes() not in dictators:
                assert v <= rho ** 2 - 1e-9

    def test_variance_rejects_unscaled_source(self):
        spec = np.array([0.1, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            variance_trho(spec, 0.5)


class TestFamilies:
    def test_lex_half_is_first_coordinate_indicator(self):
        f = lex(4, 8)
        np.testing.assert_array_equal(f.bits, and_k(4, 1).bits)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_and_k_mean(self, k):
        assert float(np.mean(and_k(4, k).values())) == \
            pytest.approx(2.0 ** (-k))

    def test_hamming_ball_is_majority(self):
        np.testing.assert_array_equal(hamming_ball(3, 4).bits,
                                      majority(3).bits)

    def test_ball_tie_break_ascending(self):
        f = hamming_ball(3, 2)
        # level 0 (index 0) then the first level-1 index (100 -> index 4...)
        # ascending index order at level 1 is 1, 2, 4.
        expected = np.zeros(8, dtype=np.uint8)
        expected[0] = 1
        expected[1] = 1
        np.testing.assert_array_equal(f.bits, expected)

    def test_count_range_errors(self):
        with pytest.raises(ValueError):
            lex(3, 9)
        with pytest.raises(ValueError):
            hamming_ball(3, 100)
        with pytest.raises(ValueError):
            majority(4)

    def test_make_family_dispatch(self):
        f = make_family("dictator", n=3, i=2)
        np.testing.assert_array_equal(f.bits, dictator(3, 2).bits)
        with pytest.raises(ValueError):
            make_family("parity", n=3)


class TestAndClosedForm:
    @pytest.mark.parametrize("alpha", [0.1, 0.3])
    def test_k1_is_dictator(self, alpha):
        assert and_mi_exact(1, alpha) == pytest.approx(
            1 - binary_entropy(alpha), abs=1e-13)

    def test_independent_channel(self):
        assert and_mi_exact(5, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_alpha_zero(self):
        assert and_mi_exact(2, 0.0) == pytest.approx(binary_entropy(0.25),
                                                     abs=1e-13)

    @pytest.mark.parametrize("k", [2, 4, 7, 10])
    def test_matches_direct_enumeration(self, k):
        n = max(k, 2)
        for alpha in (0.1, 0.37):
            assert and_mi_exact(k, alpha) == pytest.approx(
                mutual_information_direct(and_k(n, k), alpha), abs=1e-12)

    def test_quoted_simple_form_disagrees(self):
        # The often-quoted k 2^(1-k) (1 - h(alpha)) closed form does not
        # match the exact value; at alpha = 0 it gives k 2^(1-k) instead of
        # h(2^-k).  Computed, reported, never asserted as equal.
        assert and_mi_simple_form(2, 0.0) == pytest.approx(1.0)
        assert abs(and_mi_simple_form(2, 0.0) - and_mi_exact(2, 0.0)) > 0.18


class TestSymmetricFastPath:
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4])
    def test_majority_equivalence(self, alpha):
        prof = SymmetricProfile(3, [1.0, 1.0, 0.0, 0.0])
        assert symmetric_mi(prof, alpha) == pytest.approx(
            mutual_information_direct(majority(3), alpha), abs=1e-10)

    def test_constant_profile(self):
        prof = SymmetricProfile(5, np.ones(6))
        assert symmetric_mi(prof, 0.2) == pytest.approx(0.0, abs=1e-12)

    def test_half_flip(self):
        prof = SymmetricProfile(6, [1, 1, 1, 0, 0, 0, 0])
        assert symmetric_mi(prof, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_random_symmetric_equivalence(self):
        rng = np.random.default_rng(21)
        n = 12
        levels = rng.integers(0, 2, n + 1).astype(float)
        weights = np.array([bin(j).count("1") for j in range(1 << n)])
        f = BooleanFunction(n, levels[weights].astype(np.uint8))
        prof = SymmetricProfile(n, levels)
        for alpha in (0.08, 0.33):
            assert symmetric_mi(prof, alpha) == pytest.approx(
                mutual_information_direct(f, alpha), abs=1e-10)

    def test_level_cap(self):
        prof = SymmetricProfile(2001, np.ones(2002))
        with pytest.raises(ValueError):
            symmetric_mi(prof, 0.2)

    @pytest.mark.parametrize("alpha", [math.nan, 1.5, -0.1])
    def test_bad_flip_probability_rejected(self, alpha):
        for call in (lambda: mutual_information_direct(dictator(3, 1), alpha),
                     lambda: perfect_code_mi(alpha),
                     lambda: symmetric_mi(
                         SymmetricProfile(3, np.ones(4)), alpha)):
            with pytest.raises(ValueError,
                               match=r"flip probability .* outside"):
                call()


class TestBallWeight:
    def test_maj3_value(self):
        # Brute-force transform of the radius-1 ball on 3 bits.
        spec = fwht(hamming_ball(3, 4))
        oracle = sum(spec[subset_mask([i], 3)] ** 2
                     for i in range(1, 4))
        assert hamming_ball_w1_exact(3, 1) == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(3 / 16, abs=1e-12)

    def test_radius_two_value(self):
        # Complementing the ball flips every first-level coefficient sign,
        # so the formula is invariant under r -> n-1-r; radius 2 on 3 bits
        # pairs with radius 0 and the brute-force weight is 3/64.
        spec = fwht(hamming_ball(3, 7))
        oracle = sum(spec[subset_mask([i], 3)] ** 2
                     for i in range(1, 4))
        assert hamming_ball_w1_exact(3, 2) == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(3 / 64, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_one_point_ball(self, n):
        # Radius 0 is the one-point ball, n 4^-n by brute force.
        spec = fwht(hamming_ball(n, 1))
        oracle = sum(spec[subset_mask([i], n)] ** 2
                     for i in range(1, n + 1))
        assert hamming_ball_w1_exact(n, 0) == pytest.approx(oracle,
                                                           abs=1e-15)
        assert oracle == n * 4.0 ** -n

    def test_range_errors(self):
        with pytest.raises(ValueError):
            hamming_ball_w1_exact(4000, 2000)
        for r in (-1, 10):
            with pytest.raises(ValueError):
                hamming_ball_w1_exact(10, r)

    def test_limit_toward_isoperimetric(self):
        from mostinf.entropy import gaussian_isoperimetric
        target = gaussian_isoperimetric(0.5) ** 2
        assert hamming_ball_w1_exact(1001, 500) == pytest.approx(target,
                                                                 rel=0.05)


class TestCurvature:
    def test_c2_values(self):
        assert c2_coefficient(0.5) == pytest.approx(-2.885390081777927,
                                                    abs=1e-12)
        assert c2_coefficient(0.25) == pytest.approx(-3.847186775703902,
                                                     abs=1e-12)

    def test_c2_symmetry(self):
        assert c2_coefficient(0.3) == pytest.approx(c2_coefficient(0.7),
                                                    abs=1e-13)

    def test_c2_domain(self):
        with pytest.raises(ValueError):
            c2_coefficient(0.0)

    def test_taylor_prediction(self):
        rng = np.random.default_rng(30)
        done = 0
        while done < 30:
            n = int(rng.integers(3, 9))
            bits = rng.integers(0, 2, 1 << n).astype(np.uint8)
            if bits.min() == bits.max():
                bits[0] ^= 1
            f = BooleanFunction(n, bits)
            if degree_weight(fwht(f), 1) == 0.0:
                continue
            measured, predicted = taylor_curvature_check(f)
            assert abs(measured - predicted) <= 0.01 * abs(predicted) + 1e-8
            done += 1

    def test_taylor_zero_w1_edge_case(self):
        # Two-bit XOR has no degree-1 weight, so the rho^2 coefficient of
        # the entropy drop is the degree-2 term: c2(1/2) * W2 * rho^2.
        parity = BooleanFunction(2, np.array([0, 1, 1, 0], dtype=np.uint8))
        assert degree_weight(fwht(parity), 1) == 0.0
        measured, predicted = taylor_curvature_check(parity, rho=1e-3)
        assert predicted == 0.0
        next_order = c2_coefficient(0.5) * 0.25 * 1e-6
        assert measured == pytest.approx(next_order, rel=0.01)


class TestPerfectCode:
    def test_decoder_structure(self):
        decoder = hamming_code_decoder()
        counts = np.bincount(decoder.table, minlength=1 << 11)
        # Radius-1 spheres tile the space: every message has 16 preimages.
        assert np.all(counts == 16)

    def test_noiseless_channel(self):
        mi, per_bit = perfect_code_mi(0.0)
        assert mi == pytest.approx(11.0, abs=1e-9)
        assert per_bit == pytest.approx(1.0, abs=1e-9)

    def test_independence_limit(self):
        mi, _ = perfect_code_mi(0.5)
        assert mi == pytest.approx(0.0, abs=1e-9)

    def test_violates_per_bit_bound(self):
        _, per_bit = perfect_code_mi(0.1)
        assert per_bit > 1 - binary_entropy(0.1)

    def test_weight_one_cosets_equivalent(self):
        # All 15 nonzero-syndrome cosets share one conditional entropy.
        import mostinf.cube as cube_mod
        decoder = hamming_code_decoder()
        xs = np.arange(1 << 15, dtype=np.int64)
        wd = cube_mod._distance_weights(15, 0.12)

        def cond_entropy(y):
            w = wd[cube_mod._popcount(xs ^ y)]
            c = np.bincount(decoder.table, weights=w, minlength=1 << 11)
            return cube_mod._entropy_bits(c)

        h1 = cond_entropy(1)
        for y in (2, 1 << 7, 1 << 14):
            assert cond_entropy(y) == pytest.approx(h1, abs=1e-10)

    @pytest.mark.slow
    def test_naive_oracle_agreement(self):
        mi_coset, _ = perfect_code_mi(0.1)
        mi_naive = multi_output_oracle(hamming_code_decoder().table, 11, 0.1)
        assert mi_naive == pytest.approx(mi_coset, abs=1e-6)


class TestTruthTableFormat:
    def test_roundtrip_binary(self):
        rng = np.random.default_rng(40)
        f = BooleanFunction(4, rng.integers(0, 2, 16), PLUS_MINUS)
        body = "".join(str(b) for b in f.bits)
        assert parse_truth_table(f"n=4 conv=plus_minus\n{body}\n") == f

    def test_roundtrip_hex(self):
        rng = np.random.default_rng(41)
        f = BooleanFunction(5, rng.integers(0, 2, 32))
        assert parse_truth_table(format_truth_table(f)) == f

    def test_hex_nibbles_lsb_first(self):
        f = parse_truth_table("n=2 conv=zero_one\n0x3\n")
        np.testing.assert_array_equal(f.bits, [1, 1, 0, 0])

    def test_bad_length(self):
        with pytest.raises(ValueError):
            parse_truth_table("n=3 conv=zero_one\n0101\n")

    def test_bad_chars(self):
        with pytest.raises(ValueError):
            parse_truth_table("n=2 conv=zero_one\n01x1\n")

    def test_table_int_roundtrip(self):
        f = BooleanFunction.from_int(3, 0b10110010)
        assert f.table_int() == 0b10110010

    def test_table_does_not_alias_its_input(self):
        source = np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=np.uint8)
        f = BooleanFunction(3, source)
        source[:] = 1
        np.testing.assert_array_equal(f.bits, [0, 1, 1, 0, 1, 0, 0, 1])
        assert f.table_int() == 0b10010110
