"""Scalar special functions: exact values, inverses, convexity."""

import math

import numpy as np
import pytest

from mostinf.entropy import (
    PsiSpec,
    binary_entropy,
    erkip_bound,
    gaussian_isoperimetric,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    osw_bound,
    phi,
    phi_entropy,
)

LN2 = math.log(2.0)

# High-precision reference values, frozen from a 40-digit evaluation.
H_QUARTER = 0.8112781244591328
PHI_HALF = 0.1887218755408671
PDF_AT_ZERO = 0.3989422804014327
OSW_QUARTER = 0.3370788998610995


def phi_power_series(t, terms=12):
    """Partial sum of the even series sum t^(2k) / (2k (2k-1)) / ln 2."""
    return sum(t ** (2 * k) / ((2 * k) * (2 * k - 1))
               for k in range(1, terms + 1)) / LN2


class TestBinaryEntropy:
    def test_symmetric_maximum(self):
        assert binary_entropy(0.5) == 1.0

    @pytest.mark.parametrize("endpoint", [0.0, 1.0])
    def test_limit_convention(self, endpoint):
        assert binary_entropy(endpoint) == 0.0

    @pytest.mark.parametrize("endpoint", [0, 1, 0.0, 1.0])
    def test_endpoints_are_positive_zero(self, endpoint):
        # Records print -0 for a negative zero; only +0.0 is allowed.
        assert math.copysign(1.0, binary_entropy(endpoint)) == 1.0
        out = binary_entropy(np.array([endpoint, endpoint, 0.5]))
        assert np.all(np.copysign(1.0, out) == 1.0)
        assert out[0] == 0.0 and out[2] == 1.0

    def test_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(H_QUARTER, abs=1e-14)

    @pytest.mark.parametrize("bad", [-0.01, 1.01, 2.0])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            binary_entropy(bad)

    def test_mirror_symmetry(self):
        b = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(binary_entropy(b), binary_entropy(1 - b),
                                   atol=1e-14)

    def test_concavity_random_chords(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            a, b = np.sort(rng.uniform(0.0, 1.0, 2))
            lam = rng.uniform()
            mid = lam * a + (1 - lam) * b
            chord = lam * binary_entropy(a) + (1 - lam) * binary_entropy(b)
            assert binary_entropy(mid) >= chord - 1e-12

    def test_maximal_at_half(self):
        b = np.linspace(0.01, 0.99, 99)
        assert np.all(binary_entropy(b) <= 1.0)


class TestPhi:
    def test_endpoints(self):
        assert phi(0.0) == 0.0
        assert phi(1.0) == pytest.approx(1.0, abs=1e-15)
        assert phi(0.5) == pytest.approx(PHI_HALF, abs=1e-14)

    def test_even(self):
        t = np.linspace(-1.0, 1.0, 51)
        np.testing.assert_allclose(phi(t), phi(-t), atol=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            phi(1.0001)

    def test_series_match(self):
        # The 12-term tail at |t| = 0.9 is ~5e-4 (geometric bound
        # t^26 / (26*25*ln2*(1-t^2))), so the 1e-6 agreement is asserted on
        # the radius where twelve terms actually deliver it, plus a
        # longer-sum check out to 0.9.
        for t in np.linspace(-0.7, 0.7, 29):
            assert abs(phi(t) - phi_power_series(t)) <= 1e-6
        for t in np.linspace(-0.9, 0.9, 37):
            assert abs(phi(t) - phi_power_series(t)) <= 6e-4
            assert abs(phi(t) - phi_power_series(t, terms=40)) <= 1e-6

    def test_convexity_random_chords(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            a, b = rng.uniform(-1.0, 1.0, 2)
            lam = rng.uniform()
            mid = lam * a + (1 - lam) * b
            assert phi(mid) <= lam * phi(a) + (1 - lam) * phi(b) + 1e-12


class TestPhiEntropy:
    def test_jensen_equality_for_constants(self):
        for c in (-0.7, 0.0, 0.4):
            assert phi_entropy([c, c, c], [0.2, 0.3, 0.5]) == \
                pytest.approx(0.0, abs=1e-13)

    def test_pm_one_split(self):
        assert phi_entropy([1.0, -1.0], [0.5, 0.5]) == \
            pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
    def test_dictator_value(self, rho):
        assert phi_entropy([rho, -rho], [0.5, 0.5]) == \
            pytest.approx(phi(rho), abs=1e-14)

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = rng.integers(2, 6)
            v = rng.uniform(-1.0, 1.0, m)
            w = rng.dirichlet(np.ones(m))
            gap = phi_entropy(v, w)
            assert gap >= -1e-13
            if np.ptp(v) > 1e-3:
                assert gap > 0.0

    def test_weight_sum_violation(self):
        with pytest.raises(ValueError):
            phi_entropy([0.1, 0.2], [0.5, 0.6])

    def test_value_domain_violation(self):
        with pytest.raises(ValueError):
            phi_entropy([1.2, 0.0], [0.5, 0.5])


class TestNormalHelpers:
    def test_cdf_symmetry(self):
        assert normal_cdf(0.0) == 0.5

    def test_quantile_symmetry(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_roundtrip(self):
        assert normal_quantile(normal_cdf(1.7)) == \
            pytest.approx(1.7, abs=1e-10)

    def test_mutual_inverse_across_range(self):
        for p in np.concatenate([
                [1e-12, 1e-9, 1e-6, 1e-3],
                np.linspace(0.01, 0.99, 41),
                [1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12]]):
            assert abs(normal_cdf(normal_quantile(p)) - p) <= 1e-12

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1])
    def test_quantile_domain(self, bad):
        with pytest.raises(ValueError):
            normal_quantile(bad)

    def test_pdf_peak(self):
        assert normal_pdf(0.0) == pytest.approx(PDF_AT_ZERO, abs=1e-15)


class TestIsoperimetric:
    def test_at_half(self):
        assert gaussian_isoperimetric(0.5) == \
            pytest.approx(PDF_AT_ZERO, abs=1e-13)

    def test_symmetry(self):
        for mu in (0.1, 0.25, 0.4):
            assert gaussian_isoperimetric(mu) == \
                pytest.approx(gaussian_isoperimetric(1 - mu), abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 1.0])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            gaussian_isoperimetric(bad)

    def test_small_mu_asymptotics(self):
        # U(mu)^2 / ((2 ln 2) mu^2 log2(1/mu)) climbs toward 1 from inside
        # (0.5, 1) as mu = 2^-k shrinks.
        ratios = []
        for k in (5, 10, 20, 40):
            mu = 2.0 ** (-k)
            ratios.append(gaussian_isoperimetric(mu) ** 2
                          / (2 * LN2 * mu ** 2 * k))
        assert all(0.5 < r < 1.0 for r in ratios)
        assert all(a < b for a, b in zip(ratios, ratios[1:]))


class TestPublishedBounds:
    def test_osw_at_half(self):
        assert osw_bound(0.5) == 0.0

    def test_osw_quarter(self):
        assert osw_bound(0.25) == pytest.approx(OSW_QUARTER, abs=1e-14)

    def test_osw_domain(self):
        with pytest.raises(ValueError):
            osw_bound(0.1)

    def test_osw_approaches_conjectured_value(self):
        # bound / (1 - h(alpha)) -> 1 as alpha -> 1/2.
        r1 = osw_bound(0.49) / (1 - binary_entropy(0.49))
        r2 = osw_bound(0.499) / (1 - binary_entropy(0.499))
        assert abs(r2 - 1) < abs(r1 - 1)
        assert abs(r2 - 1) < 1e-3

    def test_osw_dominates_dictator_value(self):
        for alpha in np.linspace(0.212, 0.5, 40):
            assert osw_bound(alpha) >= 1 - binary_entropy(alpha) - 1e-12

    def test_erkip(self):
        assert erkip_bound(0.5) == 0.0
        assert erkip_bound(0.0) == 1.0
        assert erkip_bound(0.3) == pytest.approx(0.16, abs=1e-15)


PSI_REGISTRY = [
    PsiSpec.neg_binary_entropy(),
    PsiSpec.square(),
    PsiSpec.abs_power(1.5),
    PsiSpec.abs_power(3.0),
    PsiSpec.custom_table([(i / 16) ** 2 for i in range(17)]),
]


class TestPsiSpec:
    @pytest.mark.parametrize("psi", PSI_REGISTRY,
                             ids=lambda p: f"{p.kind}")
    def test_convex_sum_lemma(self, psi):
        # x + y = x' + y' with |x' - y'| >= |x - y| implies
        # psi(x) + psi(y) <= psi(x') + psi(y').
        rng = np.random.default_rng(17)
        lo, hi = psi.domain if psi.domain else (-3.0, 3.0)
        for _ in range(400):
            center = rng.uniform(lo, hi)
            room = min(center - lo, hi - center)
            s_small, s_big = np.sort(rng.uniform(0.0, room, 2))
            inner = psi(center - s_small) + psi(center + s_small)
            outer = psi(center - s_big) + psi(center + s_big)
            assert inner <= outer + 1e-12

    def test_custom_table_rejects_nonconvex(self):
        with pytest.raises(ValueError):
            PsiSpec.custom_table([0.0, 1.0, 0.0])

    def test_abs_power_rejects_small_exponent(self):
        with pytest.raises(ValueError):
            PsiSpec.abs_power(0.5)

    def test_neg_entropy_values(self):
        psi = PsiSpec.neg_binary_entropy()
        assert psi(0.5) == -1.0
        assert psi(0.0) == 0.0

    def test_increasing_flags(self):
        assert PsiSpec.square().is_increasing
        assert PsiSpec.abs_power(2.0).is_increasing
        assert not PsiSpec.neg_binary_entropy().is_increasing
