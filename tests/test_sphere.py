"""Spherical discretization: reflections, rearrangement, kernel inequalities."""

import json
import math

import numpy as np
import pytest

from mostinf.entropy import PsiSpec, binary_entropy
from mostinf.sphere import (
    KernelSpec,
    Reflection,
    SphericalField,
    cap_measure,
    circle_grid,
    field_from_json,
    field_to_json,
    functional_J,
    iterate_polarizations,
    kernel_apply,
    polarization_check,
    polarization_inequality_check,
    polarization_pointwise_check,
    polarize,
    rearrange,
    sphere_sample,
    spherical_mi,
)


def random_01_field(ps, rng):
    return SphericalField(ps, rng.integers(0, 2, ps.size).astype(float))


class TestCircleGrid:
    def test_basic_layout(self):
        g = circle_grid(8)
        assert g.size == 8
        np.testing.assert_allclose(g.weights, 1 / 8)
        assert len(g.reflections) == 7
        assert g.polar_angles()[0] == pytest.approx(0.0, abs=1e-15)

    def test_grid_closure_under_all_reflections(self):
        g = circle_grid(16)
        for ell, sigma in enumerate(g.reflections, start=1):
            partner = g.partner_indices(sigma)
            expected = (ell - np.arange(16)) % 16
            np.testing.assert_array_equal(partner, expected)

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            circle_grid(9)
        with pytest.raises(ValueError):
            circle_grid(6)


class TestReflectionIdentities:
    def test_inner_product_preserved(self):
        rng = np.random.default_rng(1)
        g = circle_grid(32)
        for sigma in g.reflections[:8]:
            x = g.points[rng.integers(32)]
            y = g.points[rng.integers(32)]
            assert abs(x @ y - sigma.apply(x) @ sigma.apply(y)) <= 1e-10

    def test_positive_side_inequality(self):
        rng = np.random.default_rng(2)
        ps = sphere_sample(4, 400, seed=5)
        sigma = ps.reflections[0]
        v = sigma.vector
        pos = ps.points[ps.points @ v > 0]
        for _ in range(200):
            x = pos[rng.integers(len(pos))]
            y = pos[rng.integers(len(pos))]
            assert x @ y >= sigma.apply(x) @ y - 1e-10

    def test_pole_on_plane_rejected(self):
        g = circle_grid(8)
        bad = Reflection.from_vector([0.0, 1.0])  # plane through the pole
        with pytest.raises(ValueError):
            g.partner_indices(bad)


class TestSphereSample:
    def test_weights_and_closure(self):
        ps = sphere_sample(3, 500, seed=11)
        assert float(np.sum(ps.weights)) == pytest.approx(1.0, abs=1e-12)
        partner = ps.partner_indices(ps.reflections[0])
        np.testing.assert_array_equal(partner[partner], np.arange(500))

    def test_mean_projection_small(self):
        ps = sphere_sample(5, 1000, seed=7)
        proj = ps.points @ np.eye(5)[1]
        assert abs(float(np.mean(proj))) <= 3 / math.sqrt(1000)

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            sphere_sample(3, 501, seed=0)


class TestCapMeasure:
    def test_hemisphere(self):
        assert cap_measure(3, math.pi / 2) == pytest.approx(0.5, abs=1e-10)

    def test_s2_closed_form(self):
        for theta in (0.4, math.pi / 3, 2.2):
            assert cap_measure(3, theta) == pytest.approx(
                (1 - math.cos(theta)) / 2, abs=1e-10)
        assert cap_measure(3, math.pi / 3) == pytest.approx(0.25, abs=1e-10)

    def test_circle_arc_ratio(self):
        for theta in (0.3, 1.1, 3.0):
            assert cap_measure(2, theta) == pytest.approx(theta / math.pi,
                                                          abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            cap_measure(3, -0.1)


class TestRearrange:
    def test_constant_unchanged(self):
        g = circle_grid(16)
        f = SphericalField(g, np.full(16, 0.25))
        np.testing.assert_allclose(rearrange(f).values, 0.25)

    def test_indicator_becomes_polar_cap(self):
        g = circle_grid(16)
        rng = np.random.default_rng(3)
        f = random_01_field(g, rng)
        m = int(f.values.sum())
        out = rearrange(f)
        order = np.lexsort((np.arange(16), g.polar_angles()))
        np.testing.assert_array_equal(out.values[order[:m]], 1.0)
        np.testing.assert_array_equal(out.values[order[m:]], 0.0)

    def test_idempotent_and_equimeasurable(self):
        g = circle_grid(32)
        rng = np.random.default_rng(4)
        f = SphericalField(g, rng.uniform(0, 1, 32))
        once = rearrange(f)
        np.testing.assert_array_equal(rearrange(once).values, once.values)
        assert sorted(once.values) == sorted(f.values)

    def test_monotone_in_polar_angle(self):
        g = circle_grid(32)
        rng = np.random.default_rng(5)
        f = SphericalField(g, rng.uniform(0, 1, 32))
        out = rearrange(f)
        order = np.lexsort((np.arange(32), g.polar_angles()))
        assert np.all(np.diff(out.values[order]) <= 1e-15)


class TestPolarize:
    def test_rearranged_field_is_fixed(self):
        g = circle_grid(24)
        rng = np.random.default_rng(6)
        f = rearrange(SphericalField(g, rng.uniform(0, 1, 24)))
        for sigma in g.reflections:
            np.testing.assert_array_equal(polarize(f, sigma).values, f.values)

    def test_preserves_weighted_sum_and_multiset(self):
        g = circle_grid(16)
        rng = np.random.default_rng(7)
        f = SphericalField(g, rng.uniform(0, 1, 16))
        for sigma in g.reflections[::3]:
            out = polarize(f, sigma)
            assert float(g.weights @ out.values) == pytest.approx(
                float(g.weights @ f.values), abs=1e-14)
            assert sorted(out.values) == sorted(f.values)

    def test_indicator_stays_indicator(self):
        g = circle_grid(16)
        rng = np.random.default_rng(8)
        f = random_01_field(g, rng)
        out = polarize(f, g.reflections[4])
        assert set(np.unique(out.values)) <= {0.0, 1.0}
        assert out.values.sum() == f.values.sum()

    def test_closure_required(self):
        ps = sphere_sample(3, 100, seed=1)
        other = Reflection.from_vector([0.3, 0.9, 0.1], ps.pole)
        f = SphericalField(ps, np.zeros(100))
        with pytest.raises(ValueError):
            polarize(f, other)


class TestKernelApply:
    def test_constant_kernel(self):
        g = circle_grid(16)
        rng = np.random.default_rng(9)
        f = SphericalField(g, rng.uniform(0, 1, 16))
        k = KernelSpec.custom_monotone([-1.0, 1.0], [2.5, 2.5])
        out = kernel_apply(k, f)
        np.testing.assert_allclose(out.values, 2.5 * f.mean(), atol=1e-12)

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.9])
    def test_poisson_unit_mass_on_fine_grid(self, rho):
        g = circle_grid(256)
        ones = SphericalField(g, np.ones(256))
        mass = kernel_apply(KernelSpec.poisson(rho, 2), ones).values
        assert np.max(np.abs(mass - 1.0)) <= 1e-6

    def test_poisson_eigenfunctions(self):
        # On the circle the kernel damps the k-th harmonic by rho^k.
        g = circle_grid(128)
        theta = 2 * np.pi * np.arange(128) / 128
        rho = 0.6
        for k in (1, 2, 4):
            f = SphericalField(g, np.cos(k * theta), check_range=False)
            got = kernel_apply(KernelSpec.poisson(rho, 2), f).values
            np.testing.assert_allclose(got, rho ** k * np.cos(k * theta),
                                       atol=1e-10)

    def test_poisson_rho_domain(self):
        with pytest.raises(ValueError):
            KernelSpec.poisson(1.0, 2)

    def test_step_kernel_monotone(self):
        k = KernelSpec.step(0.2)
        s = np.linspace(-1, 1, 41)
        vals = k.evaluate(s)
        assert np.all(np.diff(vals) >= 0.0)

    def test_custom_kernel_rejects_decreasing(self):
        with pytest.raises(ValueError):
            KernelSpec.custom_monotone([-1.0, 0.0, 1.0], [1.0, 0.5, 2.0])


class TestFunctionalJ:
    def test_square_of_zero_field(self):
        g = circle_grid(16)
        f = SphericalField(g, np.zeros(16))
        assert functional_J(PsiSpec.square(), KernelSpec.poisson(0.5, 2),
                            f) == pytest.approx(0.0, abs=1e-15)

    def test_reflection_change_of_variables(self):
        g = circle_grid(32)
        rng = np.random.default_rng(10)
        f = SphericalField(g, rng.uniform(0, 1, 32))
        k = KernelSpec.poisson(0.4, 2)
        psi = PsiSpec.square()
        for sigma in g.reflections[::5]:
            partner = g.partner_indices(sigma)
            reflected = SphericalField(g, f.values[partner])
            assert functional_J(psi, k, reflected) == pytest.approx(
                functional_J(psi, k, f), abs=1e-12)

    def test_constant_field_neg_entropy(self):
        g = circle_grid(64)
        for c in (0.2, 0.7):
            f = SphericalField(g, np.full(64, c))
            assert functional_J(PsiSpec.neg_binary_entropy(),
                                KernelSpec.poisson(0.5, 2), f) == \
                pytest.approx(-binary_entropy(c), abs=1e-9)

    def test_domain_guard(self):
        g = circle_grid(32)
        f = SphericalField(g, np.full(32, 1.0))
        # Coarse grid at high rho overshoots 1 by more than the tolerance.
        with pytest.raises(ValueError):
            functional_J(PsiSpec.neg_binary_entropy(),
                         KernelSpec.poisson(0.9, 2), f)


PSI_FOR_GRID32 = [
    (PsiSpec.neg_binary_entropy(), 0.3),
    (PsiSpec.square(), 0.6),
    (PsiSpec.abs_power(3.0), 0.6),
    (PsiSpec.custom_table([(i / 8) ** 2 for i in range(9)]), 0.3),
]


class TestPolarizationInequality:
    @pytest.mark.parametrize("psi,rho", PSI_FOR_GRID32,
                             ids=lambda v: str(getattr(v, "kind", v)))
    def test_monotone_for_all_reflections(self, psi, rho):
        g = circle_grid(32)
        rng = np.random.default_rng(11)
        kernel = KernelSpec.poisson(rho, 2)
        for _ in range(100):
            f = random_01_field(g, rng)
            for sigma in g.reflections:
                res = polarization_inequality_check(f, sigma, kernel, psi)
                assert res["pass"]

    def test_already_polarized_is_equality(self):
        g = circle_grid(32)
        rng = np.random.default_rng(12)
        kernel = KernelSpec.poisson(0.5, 2)
        psi = PsiSpec.square()
        f = random_01_field(g, rng)
        sigma = g.reflections[10]
        g1 = polarize(f, sigma)
        res = polarization_inequality_check(g1, sigma, kernel, psi)
        assert res["j_after"] == pytest.approx(res["j_before"], abs=1e-14)

    def test_pointwise_lemmas(self):
        g = circle_grid(64)
        rng = np.random.default_rng(13)
        kernel = KernelSpec.poisson(0.7, 2)
        for _ in range(10):
            f = random_01_field(g, rng)
            for sigma in g.reflections[::7]:
                pw = polarization_pointwise_check(f, sigma, kernel)
                assert pw["max_sum_dev"] <= 1e-10
                assert pw["min_diff_margin"] >= -1e-10

    def test_two_point_identities_on_random_grids(self):
        # Kf + Kf o s is unchanged by polarization and the pair spread
        # never shrinks, on any reflection-closed grid (a theorem).
        rng = np.random.default_rng(23)
        for _ in range(12):
            m = 2 * int(rng.integers(4, 129))
            g = circle_grid(m)
            kernel = KernelSpec.poisson(float(rng.uniform(0.0, 0.95)), 2)
            f = random_01_field(g, rng)
            picks = rng.choice(len(g.reflections), 4, replace=False)
            for k in picks:
                pw = polarization_pointwise_check(f, g.reflections[k],
                                                  kernel)
                assert pw["max_sum_dev"] <= 1e-10, m
                assert pw["min_diff_margin"] >= -1e-10, m

    def test_library_check_matches_per_reflection_checks(self):
        psi = PsiSpec.neg_binary_entropy()
        out = polarization_check(16, 0.6, psi, 3, seed=5)
        g = circle_grid(16)
        kernel = KernelSpec.poisson(0.6, 2)
        rng = np.random.default_rng(5)
        worst_j = worst_sum = worst_diff = 0.0
        for _ in range(3):
            f = random_01_field(g, rng)
            for sigma in g.reflections:
                res = polarization_inequality_check(f, sigma, kernel, psi)
                pw = polarization_pointwise_check(f, sigma, kernel)
                worst_j = max(worst_j, res["j_before"] - res["j_after"])
                worst_sum = max(worst_sum, pw["max_sum_dev"])
                worst_diff = min(worst_diff, pw["min_diff_margin"])
        assert out == {"checks": 45, "failures": 0, "worst_j_drop": worst_j,
                       "worst_sum_dev": worst_sum,
                       "worst_diff_margin": worst_diff, "pass": True}

    def test_monte_carlo_point_set(self):
        ps = sphere_sample(3, 600, seed=21)
        rng = np.random.default_rng(22)
        f = random_01_field(ps, rng)
        kernel = KernelSpec.poisson(0.5, 3)
        res = polarization_inequality_check(f, ps.reflections[0], kernel,
                                            PsiSpec.square())
        pw = polarization_pointwise_check(f, ps.reflections[0], kernel)
        assert res["pass"]
        assert pw["max_sum_dev"] <= 1e-10
        assert pw["min_diff_margin"] >= -1e-10


class TestRearrangementDominance:
    def test_indicator_fields(self):
        g = circle_grid(64)
        rng = np.random.default_rng(14)
        kernel = KernelSpec.poisson(0.7, 2)
        for psi in (PsiSpec.neg_binary_entropy(), PsiSpec.square()):
            for _ in range(20):
                f = random_01_field(g, rng)
                assert functional_J(psi, kernel, f) <= \
                    functional_J(psi, kernel, rearrange(f)) + 1e-10

    def test_real_valued_fields(self):
        g = circle_grid(32)
        rng = np.random.default_rng(15)
        kernel = KernelSpec.poisson(0.3, 2)
        for psi in (PsiSpec.neg_binary_entropy(), PsiSpec.square()):
            for _ in range(20):
                f = SphericalField(g, rng.uniform(0, 1, 32))
                assert functional_J(psi, kernel, f) <= \
                    functional_J(psi, kernel, rearrange(f)) + 1e-10


class TestIteratePolarizations:
    def test_rearranged_stays_at_zero_distance(self):
        g = circle_grid(32)
        rng = np.random.default_rng(16)
        f = rearrange(random_01_field(g, rng))
        res = iterate_polarizations(f, reflections_seed=5, steps=50)
        np.testing.assert_allclose(res["l1_to_rearranged"], 0.0, atol=1e-14)

    def test_random_field_converges(self):
        g = circle_grid(64)
        rng = np.random.default_rng(17)
        f = random_01_field(g, rng)
        kernel = KernelSpec.poisson(0.7, 2)
        psi = PsiSpec.neg_binary_entropy()
        res = iterate_polarizations(f, reflections_seed=9, steps=500,
                                    kernel=kernel, psi=psi)
        l1 = res["l1_to_rearranged"]
        assert l1[-1] <= l1[0]
        assert np.all(np.diff(l1) <= 1e-12)
        jt = res["j_trace"]
        assert np.all(np.diff(jt) >= -1e-12)
        j_target = functional_J(psi, kernel, rearrange(f))
        assert jt[-1] <= j_target + 1e-10


class TestSphericalMI:
    def test_rho_zero(self):
        g = circle_grid(32)
        rng = np.random.default_rng(18)
        assert spherical_mi(random_01_field(g, rng), 0.0) == \
            pytest.approx(0.0, abs=1e-10)

    def test_constant_field(self):
        g = circle_grid(32)
        f = SphericalField(g, np.ones(32))
        assert spherical_mi(f, 0.6) == pytest.approx(0.0, abs=1e-10)

    def test_cap_beats_scattered(self):
        g = circle_grid(128)
        rng = np.random.default_rng(19)
        order = np.lexsort((np.arange(128), g.polar_angles()))
        cap = np.zeros(128)
        cap[order[:32]] = 1.0
        scattered = np.zeros(128)
        scattered[rng.choice(128, 32, replace=False)] = 1.0
        assert spherical_mi(SphericalField(g, cap), 0.6) >= \
            spherical_mi(SphericalField(g, scattered), 0.6)

    def test_monotone_in_rho(self):
        g = circle_grid(128)
        order = np.lexsort((np.arange(128), g.polar_angles()))
        cap = np.zeros(128)
        cap[order[:40]] = 1.0
        f = SphericalField(g, cap)
        vals = [spherical_mi(f, r) for r in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_requires_indicator(self):
        g = circle_grid(32)
        f = SphericalField(g, np.full(32, 0.5))
        with pytest.raises(ValueError):
            spherical_mi(f, 0.5)

    def test_rho_domain(self):
        g = circle_grid(32)
        f = SphericalField(g, np.zeros(32))
        with pytest.raises(ValueError):
            spherical_mi(f, 1.0)


class TestSnapshots:
    def test_grid_roundtrip_omits_points(self):
        g = circle_grid(16)
        rng = np.random.default_rng(20)
        f = random_01_field(g, rng)
        blob = field_to_json(f)
        assert "points" not in json.loads(blob)
        back = field_from_json(blob)
        np.testing.assert_array_equal(back.values, f.values)
        assert back.pointset.grid_m == 16

    def test_mc_roundtrip_keeps_points(self):
        ps = sphere_sample(3, 40, seed=2)
        f = SphericalField(ps, np.zeros(40))
        blob = field_to_json(f)
        assert "points" in json.loads(blob)
        back = field_from_json(blob)
        np.testing.assert_allclose(back.pointset.points, ps.points,
                                   atol=1e-12)
