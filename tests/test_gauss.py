"""Gaussian kernel machinery: closed forms, quadrature, and the big-sphere
factorization with its convergence checks."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from mostinf.entropy import PsiSpec, binary_entropy, normal_pdf
from mostinf.gauss import (
    GaussianSetSpec,
    LimitParams,
    _check_rho,
    _ou_expectation,
    a_factor,
    decomposition_integral_check,
    factor_check,
    log_sphere_area,
    mehler_kernel,
    neg_cond_entropy,
    neg_cond_entropy_gh,
    ou_apply,
    poisson_factor,
    poisson_factor_mass_mc,
    poisson_factor_mass_quad,
    q_rho,
    r_factor,
    random_interval_union,
    u_rho_N,
)

GH_NODES, GH_WEIGHTS = np.polynomial.hermite_e.hermegauss(200)
SQRT_2PI = math.sqrt(2 * math.pi)


def gh_expectation(fn):
    return float(GH_WEIGHTS @ np.array([fn(t) for t in GH_NODES])) / SQRT_2PI


def gaussian_mi(f, rho):
    """h(measure) + E[-h(U_rho f)], the mutual information in bits."""
    return binary_entropy(f.measure()) + neg_cond_entropy(f, rho)


def psi_is_increasing(psi):
    """True when the function is nondecreasing on its working domain."""
    if psi.kind in ("square", "abs_power"):
        return True  # on the nonnegative inputs these functionals see
    return False


def borell_check(f, psi, rho):
    """E[Psi(U_rho f)] against the measure-matched halfspace, for increasing
    convex Psi."""
    if not psi_is_increasing(psi):
        raise ValueError("borell check needs an increasing convex psi")
    rho = _check_rho(rho)
    halfspace = GaussianSetSpec.halfspace_with_measure(f.measure())

    value_f = _ou_expectation(psi, f, rho)[0]
    value_halfspace = _ou_expectation(psi, halfspace, rho)[0]
    return {
        "value_f": value_f,
        "value_halfspace": value_halfspace,
        "pass": bool(value_f <= value_halfspace + 1e-8),
    }


class TestSetSpecs:
    def test_halfspace_measure(self):
        half = GaussianSetSpec("halfspace", threshold=0.0)
        assert half.measure() == pytest.approx(0.5)
        assert GaussianSetSpec.halfspace_with_measure(0.3).measure() == \
            pytest.approx(0.3, abs=1e-12)

    def test_interval_union_measure(self):
        spec = GaussianSetSpec.interval_union([(-1.0, 0.0), (1.0, 2.0)])
        expected, _ = quad(normal_pdf, -1, 0)
        expected2, _ = quad(normal_pdf, 1, 2)
        assert spec.measure() == pytest.approx(expected + expected2,
                                               abs=1e-10)

    def test_rejects_overlap_and_reversal(self):
        with pytest.raises(ValueError):
            GaussianSetSpec.interval_union([(0.0, 2.0), (1.0, 3.0)])
        with pytest.raises(ValueError):
            GaussianSetSpec.interval_union([(1.0, 0.5)])

    def test_random_union_has_exact_measure(self):
        rng = np.random.default_rng(1)
        for mu in (0.2, 0.5, 0.8):
            for _ in range(5):
                spec = random_interval_union(mu, int(rng.integers(1, 5)), rng)
                assert spec.measure() == pytest.approx(mu, abs=1e-9)

    def test_random_union_rejects_no_pieces_before_drawing(self):
        rng = np.random.default_rng(1)
        for pieces in (0, -1):
            with pytest.raises(ValueError, match=f"pieces={pieces} must"):
                random_interval_union(0.5, pieces, rng)
        assert rng.random() == np.random.default_rng(1).random()


class TestMehlerKernel:
    def test_rho_zero_is_one(self):
        assert mehler_kernel([0.3, -1.2], [0.5, 2.0], 0.0) == 1.0

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            rho = float(rng.uniform(0, 0.95))
            k1 = mehler_kernel(x, y, rho)
            assert k1 > 0.0
            assert k1 == pytest.approx(mehler_kernel(y, x, rho), rel=1e-13)

    def test_averages_to_one(self):
        val = gh_expectation(
            lambda t: mehler_kernel([0.7], [t], 0.5))
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_kernel_path_matches_definition_path(self):
        # E_y[U(x, y) f(y)] computed by adaptive quadrature over the set
        # must agree with the closed-form smoothed set on a (t, rho) grid.
        def kernel_mass(lo, hi, x1, rho):
            val, _ = quad(lambda y: mehler_kernel([x1], [y], rho)
                          * normal_pdf(y), lo, hi, epsabs=1e-12)
            return val

        for t in (-0.5, 0.3, 1.0):
            for rho in (0.3, 0.6, 0.9):
                for x1 in (-1.1, 0.7):
                    spec = GaussianSetSpec("halfspace", threshold=t)
                    assert kernel_mass(t, 12.0, x1, rho) == pytest.approx(
                        ou_apply(spec, rho, x1), abs=1e-7)
        union = GaussianSetSpec.interval_union([(-1.0, -0.2), (0.4, 1.3)])
        for rho in (0.3, 0.6, 0.9):
            total = sum(kernel_mass(a, b, 0.7, rho)
                        for a, b in union.intervals)
            assert total == pytest.approx(ou_apply(union, rho, 0.7),
                                          abs=1e-7)

    def test_positive_cross_term_fails_definition_path(self):
        # The erratum pin: flipping the cross-term sign still averages to 1
        # (y -> -y symmetry) but sends mass to the wrong side.
        rho, x1, t = 0.5, 0.7, 0.3

        def flipped(y):
            qf = rho ** 2 * x1 ** 2 + 2 * rho * x1 * y + rho ** 2 * y ** 2
            return math.exp(-qf / (2 * (1 - rho ** 2))) \
                / math.sqrt(1 - rho ** 2)

        mass = gh_expectation(flipped)
        assert mass == pytest.approx(1.0, abs=1e-8)
        val, _ = quad(lambda y: flipped(y) * normal_pdf(y), t, 10.0,
                      epsabs=1e-12)
        half = GaussianSetSpec("halfspace", threshold=t)
        assert abs(val - ou_apply(half, rho, x1)) > 0.1

    def test_rho_domain(self):
        with pytest.raises(ValueError):
            mehler_kernel([0.0], [0.0], 1.0)


class TestSmoothedSets:
    def test_halfspace_center(self):
        half = GaussianSetSpec("halfspace", threshold=0.0)
        for rho in (0.0, 0.4, 0.9):
            assert ou_apply(half, rho, 0.0) == pytest.approx(0.5, abs=1e-14)

    def test_rho_zero_gives_measure(self):
        spec = GaussianSetSpec.interval_union([(-0.5, 0.3), (1.0, 1.7)])
        for x1 in (-2.0, 0.0, 3.0):
            assert ou_apply(spec, 0.0, x1) == pytest.approx(spec.measure(),
                                                            abs=1e-12)

    def test_high_correlation_limit(self):
        half = GaussianSetSpec("halfspace", threshold=0.4)
        assert ou_apply(half, 0.999, 1.0) == pytest.approx(1.0, abs=1e-3)

    def test_interval_union_against_preimage_quadrature(self):
        # Pr[rho x + sqrt(1-rho^2) z lands in the union] integrates the
        # standard density over the preimage intervals in z.
        spec = GaussianSetSpec.interval_union([(-1.2, -0.2), (0.8, 1.5)])
        rho, x1 = 0.6, 0.4
        s = math.sqrt(1 - rho ** 2)
        direct = 0.0
        for a, b in spec.intervals:
            piece, _ = quad(normal_pdf, (a - rho * x1) / s,
                            (b - rho * x1) / s, epsabs=1e-13)
            direct += piece
        assert ou_apply(spec, rho, x1) == pytest.approx(direct, abs=1e-10)


class TestNegCondEntropy:
    def test_rho_zero(self):
        spec = GaussianSetSpec("halfspace", threshold=0.7)
        assert neg_cond_entropy(spec, 0.0) == pytest.approx(
            -binary_entropy(spec.measure()), abs=1e-10)

    def test_quadrature_vs_gauss_hermite(self):
        # The fixed-order oracle is machine-exact at moderate rho; at 0.9
        # the smoothed slab grazes the entropy endpoints and order 200
        # carries an inherent ~1e-7 error, so that point gets its own bar.
        for spec in (GaussianSetSpec("halfspace", threshold=-0.3),
                     GaussianSetSpec.interval_union([(-0.6745, 0.6745)])):
            for rho in (0.3, 0.6):
                assert neg_cond_entropy(spec, rho) == pytest.approx(
                    neg_cond_entropy_gh(spec, rho), abs=1e-8)
            assert neg_cond_entropy(spec, 0.9) == pytest.approx(
                neg_cond_entropy_gh(spec, 0.9), abs=1e-6)

    def test_halfspace_dominates_symmetric_slab(self):
        slab = GaussianSetSpec.interval_union([(-0.6745, 0.6745)])
        half = GaussianSetSpec.halfspace_with_measure(slab.measure())
        assert neg_cond_entropy(half, 0.6) >= neg_cond_entropy(slab, 0.6)

    def test_monotone_in_rho(self):
        spec = GaussianSetSpec.interval_union([(-1.5, -0.5), (0.2, 0.9)])
        grid = [0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9]
        vals = [neg_cond_entropy(spec, r) for r in grid]
        assert all(a <= b + 1e-10 for a, b in zip(vals, vals[1:]))

    def test_jensen_floor(self):
        for spec in (GaussianSetSpec("halfspace", threshold=0.3),
                     GaussianSetSpec.interval_union([(-2.0, -1.0),
                                                     (0.5, 1.5)])):
            floor = -binary_entropy(spec.measure())
            assert neg_cond_entropy(spec, 0.0) == pytest.approx(floor,
                                                                abs=1e-9)
            for rho in (0.2, 0.5, 0.8):
                assert neg_cond_entropy(spec, rho) >= floor - 1e-10


class TestGaussianMI:
    def test_rho_zero(self):
        half = GaussianSetSpec("halfspace", threshold=0.0)
        assert gaussian_mi(half, 0.0) == pytest.approx(0.0, abs=1e-10)

    def test_near_empty_set(self):
        half = GaussianSetSpec("halfspace", threshold=8.0)
        assert gaussian_mi(half, 0.5) == pytest.approx(0.0, abs=1e-10)

    def test_reported_below_boolean_dictator(self):
        # Comparison report, not an asserted theorem: the centered halfspace
        # at rho = 1 - 2*0.11 sits below the cube dictator value.
        mi = gaussian_mi(GaussianSetSpec("halfspace", threshold=0.0),
                         1 - 2 * 0.11)
        assert mi < 1 - binary_entropy(0.11)


class TestFactorAlgebra:
    def test_origin_collapse(self):
        p = LimitParams(N=9, n=2)
        zero = np.zeros(2)
        for rho in (0.2, 0.5, 0.8):
            assert a_factor(zero, zero, rho, p) == pytest.approx(1.0,
                                                                 abs=1e-14)
            assert r_factor(zero, zero, rho, p) == pytest.approx(rho,
                                                                 abs=1e-14)
            assert u_rho_N(zero, zero, rho, p) == pytest.approx(
                (1 - rho ** 2) ** (-1.0), abs=1e-12)

    def test_quadratic_root(self):
        p = LimitParams(N=20, n=3)
        rng = np.random.default_rng(3)
        for _ in range(200):
            y = rng.uniform(-1.5, 1.5, 3)
            z = rng.uniform(-1.5, 1.5, 3)
            rho = float(rng.uniform(0, 0.95))
            a = a_factor(y, z, rho, p)
            b = 1 + rho ** 2 - 2 * rho * float(y @ z) / p.R ** 2
            c = rho ** 2 * (1 - y @ y / p.R ** 2) * (1 - z @ z / p.R ** 2)
            assert a * a - b * a + c == pytest.approx(0.0, abs=1e-10)

    def test_lower_bound_and_r_cap(self):
        p = LimitParams(N=12, n=2)
        rng = np.random.default_rng(4)
        for _ in range(5000):
            y = rng.uniform(-1, 1, 2) * p.R / 2
            z = rng.uniform(-1, 1, 2) * p.R / 2
            rho = float(rng.uniform(0, 0.99))
            a = a_factor(y, z, rho, p)
            lower = math.sqrt((1 - y @ y / p.R ** 2)
                              * (1 - z @ z / p.R ** 2))
            assert lower <= a + 1e-12
            assert r_factor(y, z, rho, p) <= rho + 1e-12

    def test_norm_guard(self):
        p = LimitParams(N=9, n=2)
        with pytest.raises(ValueError):
            a_factor(np.array([5.0, 0.0]), np.zeros(2), 0.5, p)

    def test_symmetry_and_positivity(self):
        p = LimitParams(N=30, n=2)
        rng = np.random.default_rng(5)
        for _ in range(100):
            y = rng.uniform(-1, 1, 2)
            z = rng.uniform(-1, 1, 2)
            v1 = u_rho_N(y, z, 0.6, p)
            assert v1 > 0.0
            assert v1 == pytest.approx(u_rho_N(z, y, 0.6, p), rel=1e-13)


class TestBatchedFactors:
    """Vectors stacked along a leading axis, one rho per row, N = 9, n = 2."""

    P = LimitParams(N=9, n=2)
    ROWS = 1000

    def _sphere(self, rng, dim):
        pts = rng.standard_normal((self.ROWS, dim))
        return pts * self.P.R / np.linalg.norm(pts, axis=1, keepdims=True)

    def test_factorization_matches_scalar_kernel_per_row(self):
        p = self.P
        rng = np.random.default_rng(61)
        Y = rng.uniform(-1, 1, (self.ROWS, 2))
        Z = rng.uniform(-1, 1, (self.ROWS, 2))
        W = self._sphere(rng, 7)
        X = self._sphere(rng, 7)
        rho = rng.uniform(0, 0.95, self.ROWS)
        rhs = u_rho_N(Y, Z, rho, p) * poisson_factor(W, X,
                                                     r_factor(Y, Z, rho, p))
        assert rhs.shape == (self.ROWS,)
        for i in range(self.ROWS):
            y, z = Y[i], Z[i]
            u = np.hstack([y, math.sqrt(1 - y @ y / p.R ** 2) * W[i]])
            v = np.hstack([z, math.sqrt(1 - z @ z / p.R ** 2) * X[i]])
            lhs = q_rho(u, v, float(rho[i]), p)
            assert abs(lhs - rhs[i]) / lhs <= 1e-9

    def test_a_lower_bound_and_r_range_on_every_row(self):
        p = self.P
        rng = np.random.default_rng(62)
        Y = self._sphere(rng, 2) * rng.uniform(size=(self.ROWS, 1))
        Z = self._sphere(rng, 2) * rng.uniform(size=(self.ROWS, 1))
        rho = rng.uniform(0, 0.99, self.ROWS)
        a = a_factor(Y, Z, rho, p)
        r = r_factor(Y, Z, rho, p)
        lower = np.sqrt((1 - np.sum(Y * Y, axis=1) / p.R ** 2)
                        * (1 - np.sum(Z * Z, axis=1) / p.R ** 2))
        assert np.all(lower <= a + 1e-12)
        assert np.all(r >= 0.0)
        assert np.all(r <= rho + 1e-12)

    def test_one_row_outside_the_ball_raises(self):
        rng = np.random.default_rng(63)
        Y = rng.uniform(-1, 1, (self.ROWS, 2))
        Z = rng.uniform(-1, 1, (self.ROWS, 2))
        Y[417] = [5.0, 0.0]
        for fn in (a_factor, r_factor, u_rho_N):
            with pytest.raises(ValueError):
                fn(Y, Z, 0.5, self.P)
            rest = fn(np.delete(Y, 417, 0), np.delete(Z, 417, 0), 0.5, self.P)
            assert rest.shape == (self.ROWS - 1,)

    def test_one_pair_gives_a_float(self):
        y, z = np.array([0.5, 0.0]), np.array([0.2, 0.3])
        for fn in (a_factor, r_factor, u_rho_N):
            assert type(fn(y, z, 0.5, self.P)) is float


class TestBigSphereKernel:
    def test_factorization_identity(self):
        p = LimitParams(N=9, n=2)
        rng = np.random.default_rng(6)
        for _ in range(100):
            y = rng.uniform(-1, 1, 2)
            z = rng.uniform(-1, 1, 2)
            w = rng.standard_normal(7)
            w *= p.R / np.linalg.norm(w)
            x = rng.standard_normal(7)
            x *= p.R / np.linalg.norm(x)
            u = np.hstack([y, math.sqrt(1 - y @ y / p.R ** 2) * w])
            v = np.hstack([z, math.sqrt(1 - z @ z / p.R ** 2) * x])
            lhs = q_rho(u, v, 0.5, p)
            r = r_factor(y, z, 0.5, p)
            rhs = u_rho_N(y, z, 0.5, p) * poisson_factor(w, x, r)
            assert abs(lhs - rhs) / lhs <= 1e-9

    def test_rho_zero_depends_only_on_radius(self):
        p = LimitParams(N=8, n=2)
        rng = np.random.default_rng(7)
        u = rng.standard_normal(8)
        u *= p.R / np.linalg.norm(u)
        vals = []
        for _ in range(3):
            v = rng.standard_normal(8)
            v *= p.R / np.linalg.norm(v)
            vals.append(q_rho(u, v, 0.0, p))
        assert vals[0] == pytest.approx(vals[1], rel=1e-13)
        assert vals[1] == pytest.approx(vals[2], rel=1e-13)

    def test_norm_violation(self):
        p = LimitParams(N=9, n=2)
        with pytest.raises(ValueError):
            q_rho(np.ones(9), np.ones(9) * p.R / 3, 0.5, p)

    def test_mehler_limit_at_standard_point(self):
        y = np.array([0.5, 0.0])
        z = np.array([0.2, 0.3])
        ref = mehler_kernel(y, z, 0.5)
        errs = []
        for big_n in (50, 200, 1000):
            val = u_rho_N(y, z, 0.5, LimitParams(N=big_n, n=2))
            errs.append(abs(val - ref) / ref)
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.05

    def test_exponential_form_of_a_power(self):
        y = np.array([0.5, 0.0])
        z = np.array([0.2, 0.3])
        rho = 0.5
        p = LimitParams(N=1000, n=2)
        a = a_factor(y, z, rho, p)
        power = a ** (0.5 * (p.N - p.n))
        target = math.exp((rho ** 2 * (y @ y + z @ z)
                           - 2 * rho * float(y @ z)) / (2 * (1 - rho ** 2)))
        assert power == pytest.approx(target, rel=0.05)

    @pytest.mark.parametrize("d", [3, 4])
    def test_poisson_factor_mass(self, d):
        res = poisson_factor_mass_mc(d, 0.4, seed=3)
        assert abs(res["mass"] - 1.0) <= 3 * res["sigma"]

    @pytest.mark.parametrize("d", [7, 9, 48])
    @pytest.mark.parametrize("r", [0.5, 0.8, 0.9])
    def test_poisson_factor_mass_by_quadrature(self, d, r):
        mass, err = poisson_factor_mass_quad(d, r)
        assert abs(mass - 1.0) <= 1e-14
        assert err <= 5e-13

    @pytest.mark.parametrize("rho", [0.5, 0.8])
    def test_factor_check_passes_where_the_mc_mass_strays(self, rho):
        # At d = 48 the MC mass strays beyond its own 3 sigma on many seeds
        # (seed 5 at rho = 0.5: 0.466 +- 0.063); the quadrature mass does not.
        res = factor_check(LimitParams(N=50, n=2), rho, trials=5,
                           samples=20000, seed=5)
        assert abs(res["poisson_factor_mass_quad"] - 1.0) <= 1e-9
        assert res["pass"] is True

    def test_factor_check_passes_where_the_mc_ratios_stray(self):
        # At seed 56 the two MC decomposition ratios (0.964 and 1.071) sit
        # 3.15 sigma apart; the closed-form ratio is 1 to rounding.
        res = factor_check(LimitParams(N=50, n=2), 0.5, trials=5,
                           samples=20000, seed=56)
        assert res["decomposition_consistent"] is False
        assert abs(res["decomposition_ratio_exact"] - 1.0) <= 1e-13
        assert res["pass"] is True

    def test_factor_check_limit_follows_samples(self):
        # Fewer samples leave more room before the MC sums of squares
        # overflow: N = 243 at n = 2 fits 2 samples but not 20,000.
        factor_check(LimitParams(N=243, n=2), 0.5, trials=1, samples=2,
                     seed=0)
        with pytest.raises(ValueError, match="N = 243"):
            factor_check(LimitParams(N=243, n=2), 0.5, trials=1,
                         samples=20000, seed=0)

    @pytest.mark.parametrize("big_n, n", [(20, 12), (300, 290), (14, 6)])
    def test_factor_check_needs_the_trial_cube_inside_the_ball(self, big_n,
                                                                n):
        # y, z are drawn from [-1, 1]^n, which lies in the ball of radius R
        # only while n <= R^2 = N - n - 3.
        with pytest.raises(ValueError, match="n <= R"):
            factor_check(LimitParams(N=big_n, n=n), 0.5, trials=1,
                         samples=2, seed=0)

    def test_factor_check_takes_the_cube_on_the_sphere(self):
        # n = R^2: the corner of the cube lies on the sphere of radius R.
        res = factor_check(LimitParams(N=13, n=5), 0.5, trials=3, samples=2,
                           seed=0)
        assert res["factorization_worst_rel"] <= 1e-9

    def test_sphere_area_values(self):
        assert math.exp(log_sphere_area(2)) == pytest.approx(2 * math.pi)
        assert math.exp(log_sphere_area(3)) == pytest.approx(4 * math.pi)


class TestDecomposition:
    def test_corrected_exponent_is_exact_identity(self):
        p = LimitParams(N=7, n=2)
        rc = decomposition_integral_check("const", p, seed=2, samples=100000)
        rx = decomposition_integral_check("x1sq", p, seed=5, samples=100000)
        assert abs(rc["ratio"] - 1.0) <= 3 * rc["sigma"]
        assert abs(rx["ratio"] - 1.0) <= 3 * rx["sigma"]

    def test_ratio_reproducible_across_seeds(self):
        p = LimitParams(N=7, n=2)
        r1 = decomposition_integral_check("const", p, seed=2, samples=60000)
        r2 = decomposition_integral_check("const", p, seed=9, samples=60000)
        assert abs(r1["ratio"] - r2["ratio"]) <= \
            3 * math.hypot(r1["sigma"], r2["sigma"])

    @pytest.mark.parametrize("big_n,n", [(9, 2), (12, 3), (50, 2), (50, 3)])
    def test_exact_ratio_of_the_corrected_exponent_is_one(self, big_n, n):
        res = decomposition_integral_check("const", LimitParams(N=big_n, n=n),
                                           seed=1, samples=2)
        assert abs(res["ratio_exact"] - 1.0) <= 3e-14

    def test_exact_ratio_of_the_printed_exponent_matches_mc(self):
        res = decomposition_integral_check("const", LimitParams(N=9, n=2),
                                           seed=1, samples=60000,
                                           exponent="printed")
        assert res["ratio_exact"] == pytest.approx(6 / 7, rel=1e-13)
        assert abs(res["ratio_exact"] - res["ratio"]) <= 3 * res["sigma"]

    def test_printed_exponent_ratio_is_g_dependent(self):
        # With the (N-n-3)/2 power the two sides are not related by one
        # constant; the measured ratios differ far beyond Monte Carlo noise.
        p = LimitParams(N=7, n=2)
        rc = decomposition_integral_check("const", p, seed=2,
                                          samples=60000, exponent="printed")
        rx = decomposition_integral_check("x1sq", p, seed=5,
                                          samples=60000, exponent="printed")
        assert abs(rc["ratio"] - rx["ratio"]) > \
            5 * math.hypot(rc["sigma"], rx["sigma"])


class TestBorell:
    def test_halfspace_is_equality(self):
        spec = GaussianSetSpec("halfspace", threshold=0.2)
        res = borell_check(spec, PsiSpec.square(), 0.5)
        assert res["value_f"] == pytest.approx(res["value_halfspace"],
                                               abs=1e-12)

    def test_slab_passes(self):
        slab = GaussianSetSpec.interval_union([(-0.6745, 0.6745)])
        res = borell_check(slab, PsiSpec.square(), 0.5)
        assert res["pass"]
        assert res["value_f"] < res["value_halfspace"]

    def test_rho_zero_equality(self):
        slab = GaussianSetSpec.interval_union([(-0.6745, 0.6745)])
        res = borell_check(slab, PsiSpec.square(), 0.0)
        assert res["value_f"] == pytest.approx(res["value_halfspace"],
                                               abs=1e-10)

    def test_abs_power_passes(self):
        spec = GaussianSetSpec.interval_union([(-0.3, 0.5), (1.2, 2.0)])
        res = borell_check(spec, PsiSpec.abs_power(3.0), 0.6)
        assert res["pass"]

    def test_rejects_non_increasing_psi(self):
        with pytest.raises(ValueError):
            borell_check(GaussianSetSpec("halfspace", threshold=0.0),
                         PsiSpec.neg_binary_entropy(), 0.5)

    def test_increasing_flags(self):
        assert psi_is_increasing(PsiSpec.square())
        assert psi_is_increasing(PsiSpec.abs_power(2.0))
        assert not psi_is_increasing(PsiSpec.neg_binary_entropy())
