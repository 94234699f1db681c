"""Spherical discretization: reflections, rearrangement, kernel inequalities."""

import math

import numpy as np
import pytest

from mostinf.entropy import PsiSpec, binary_entropy
from mostinf.sphere import (
    KernelSpec,
    _polarized,
    SpherePointSet,
    SphericalField,
    circle_grid,
    functional_J,
    iterate_polarizations,
    kernel_apply,
    polarization_check,
    polarization_inequality_check,
    polarization_pointwise_check,
    polarize,
    rearrange,
    sphere_sample,
)
from test_entropy import TablePsi, psi_id


def random_01_field(ps, rng):
    return SphericalField(ps, rng.integers(0, 2, ps.size).astype(float))


def mirror_normals(ps):
    """A unit normal with v_1 > 0 for each mirror of a built point set: the
    circle grid's axis at pi l/M for mirror l - 1, or a sample's e1."""
    if ps.n == 2:
        axes = np.pi * np.arange(1, ps.size) / ps.size
        return np.column_stack([np.sin(axes), -np.cos(axes)])
    return np.eye(ps.n)[:1]


def reflect(x, v):
    """x mirrored across the hyperplane of unit normal v."""
    return x - 2.0 * (x @ v) * v


def spherical_mi(f, rho):
    """Mutual information of a 0/1 field against its smoothed copy:
    h(mean) - sum_i w_i h((P_rho f)_i) with the Poisson kernel.  A discrete
    kernel's rows sum to 1 only up to the grid's quadrature error, so the
    smoothed values are clipped to [0, 1] after a 1e-6 guard."""
    ps = f.pointset
    smooth = kernel_apply(KernelSpec.poisson(rho, ps.n), f).values
    assert -1e-6 <= smooth.min() and smooth.max() <= 1.0 + 1e-6
    smooth = np.clip(smooth, 0.0, 1.0)
    cond = math.fsum((ps.weights * binary_entropy(smooth)).tolist())
    mean = float(ps.weights @ f.values) / float(np.sum(ps.weights))
    return binary_entropy(mean) - cond / float(np.sum(ps.weights))


class TestCircleGrid:
    def test_basic_layout(self):
        g = circle_grid(8)
        assert g.size == 8
        np.testing.assert_allclose(g.weights, 1 / 8)
        assert len(g.reflections) == 7
        assert g.polar_angles()[0] == pytest.approx(0.0, abs=1e-15)

    def test_grid_closure_under_all_reflections(self):
        g = circle_grid(16)
        for ell, k in enumerate(g.reflections, start=1):
            partner = g.partners[k]
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
        for v in mirror_normals(g)[:8]:
            x = g.points[rng.integers(32)]
            y = g.points[rng.integers(32)]
            assert abs(x @ y - reflect(x, v) @ reflect(y, v)) <= 1e-10

    def test_positive_side_inequality(self):
        rng = np.random.default_rng(2)
        ps = sphere_sample(4, 400, seed=5)
        v = mirror_normals(ps)[0]
        pos = ps.points[ps.points @ v > 0]
        for _ in range(200):
            x = pos[rng.integers(len(pos))]
            y = pos[rng.integers(len(pos))]
            assert x @ y >= reflect(x, v) @ y - 1e-10

    def test_index_outside_the_mirrors_rejected(self):
        g = circle_grid(8)
        f = SphericalField(g, np.zeros(8))
        kernel = KernelSpec.poisson(0.5, 2)
        for k in (len(g.reflections), -1):
            for check in (
                    lambda: polarize(f, k),
                    lambda: polarization_inequality_check(
                        f, k, kernel, PsiSpec.square()),
                    lambda: polarization_pointwise_check(f, k, kernel)):
                with pytest.raises(ValueError, match=f"mirror {k} ") as err:
                    check()
                assert "\n" not in str(err.value)


class TestSphereSample:
    def test_weights_and_closure(self):
        ps = sphere_sample(3, 500, seed=11)
        assert float(np.sum(ps.weights)) == pytest.approx(1.0, abs=1e-12)
        partner = ps.partners[0]
        np.testing.assert_array_equal(partner[partner], np.arange(500))

    def test_mean_projection_small(self):
        ps = sphere_sample(5, 1000, seed=7)
        proj = ps.points @ np.eye(5)[1]
        assert abs(float(np.mean(proj))) <= 3 / math.sqrt(1000)

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            sphere_sample(3, 501, seed=0)

    def test_map_is_the_half_swap(self):
        ps = sphere_sample(4, 300, seed=3)
        np.testing.assert_array_equal(ps.partners[0],
                                      (np.arange(300) + 150) % 300)


class TestPointSetConstruction:
    def grid_parts(self, m=8):
        theta = 2 * np.pi * np.arange(m) / m
        return np.column_stack([np.cos(theta), np.sin(theta)])

    def test_map_that_does_not_close_rejected(self):
        points = self.grid_parts()
        normal = [np.sin(np.pi / 8), -np.cos(np.pi / 8)]
        SpherePointSet(points, [normal], [(1 - np.arange(8)) % 8])
        with pytest.raises(ValueError, match="not closed"):
            SpherePointSet(points, [normal], [(2 - np.arange(8)) % 8])

    def test_plane_through_the_pole_rejected(self):
        points = self.grid_parts()
        # The polar axis maps j to -j, a closed map, but its plane holds
        # the pole.
        with pytest.raises(ValueError, match="pole"):
            SpherePointSet(points, [[0.0, 1.0]], [(-np.arange(8)) % 8])

    def test_points_off_the_sphere_rejected(self):
        points = self.grid_parts()
        with pytest.raises(ValueError, match="sphere"):
            SpherePointSet(1.01 * points, [], [])


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
        for k in g.reflections:
            np.testing.assert_array_equal(polarize(f, k).values, f.values)

    def test_preserves_weighted_sum_and_multiset(self):
        g = circle_grid(16)
        rng = np.random.default_rng(7)
        f = SphericalField(g, rng.uniform(0, 1, 16))
        for k in g.reflections[::3]:
            out = polarize(f, k)
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

    def test_larger_value_goes_to_the_pole_side(self):
        # Off its plane, a point p gets the larger value of its pair exactly
        # when p.v > 0, v the mirror's normal, oriented toward the pole
        # (v_1 > 0).
        rng = np.random.default_rng(21)
        sets = [circle_grid(m) for m in range(8, 130, 2)]
        sets += [sphere_sample(d, m, seed) for d in (3, 4, 6, 7)
                 for m in (2, 10, 300, 2000) for seed in range(5)]
        for ps in sets:
            values = rng.uniform(0.0, 1.0, ps.size)
            f = SphericalField(ps, values)
            for k, v in zip(ps.reflections, mirror_normals(ps)):
                partner = ps.partners[k]
                off = partner != np.arange(ps.size)
                want = np.where(ps.points @ v > 0.0,
                                np.maximum(values, values[partner]),
                                np.minimum(values, values[partner]))
                np.testing.assert_array_equal(
                    polarize(f, k).values[off], want[off])

    def test_normal_pointing_away_from_the_pole(self):
        # A hand-built normal with v_1 < 0 still sends the larger value of
        # each pair toward the pole.
        points = TestPointSetConstruction().grid_parts()
        a = np.pi / 8
        ps = SpherePointSet(points, [[-np.sin(a), np.cos(a)]],
                            [(1 - np.arange(8)) % 8])
        out = polarize(SphericalField(ps, np.arange(8) == 1), 0)
        np.testing.assert_array_equal(out.values, np.arange(8) == 0)

    def test_lone_mirror_sides_cached_on_first_use(self):
        # A lone mirror reads its pole sides from a row cached on first
        # use; a stack of mirrors computes them.  Both give the same bits,
        # and only the mirrors used get a row.
        g = circle_grid(64)
        assert g._pole_sides == {}
        rng = np.random.default_rng(22)
        f = SphericalField(g, rng.uniform(0.0, 1.0, 64))
        used = [5, 17, 5, 40]
        stacked = _polarized(g, f.values, np.array(used))
        for k, want in zip(used, stacked):
            np.testing.assert_array_equal(polarize(f, k).values, want)
        assert sorted(g._pole_sides) == [5, 17, 40]
        for row in g._pole_sides.values():
            assert row.dtype == bool and row.shape == (64,)

    def test_closure_required(self):
        # A sample supports one mirror only.
        ps = sphere_sample(3, 100, seed=1)
        f = SphericalField(ps, np.zeros(100))
        with pytest.raises(ValueError):
            polarize(f, 1)


class TestKernelApply:
    def test_constant_kernel(self):
        # At rho = 0 the Poisson kernel is 1 everywhere.
        g = circle_grid(16)
        rng = np.random.default_rng(9)
        f = SphericalField(g, rng.uniform(0, 1, 16))
        out = kernel_apply(KernelSpec.poisson(0.0, 2), f)
        mean = float(g.weights @ f.values) / float(np.sum(g.weights))
        np.testing.assert_allclose(out.values, mean, atol=1e-12)

    @pytest.mark.parametrize("build,dim", [
        (lambda: circle_grid(64), 3), (lambda: circle_grid(64), 5),
        (lambda: sphere_sample(4, 200, 0), 2)], ids=["2-3", "2-5", "4-2"])
    def test_kernel_of_another_dimension_rejected(self, build, dim):
        # Built anyway, such a kernel smooths the constant-1 field on the
        # 64-grid to 1.418 (dim 3) or 3.725 (dim 5) instead of about 1.
        ps = build()
        f = SphericalField(ps, np.ones(ps.size))
        with pytest.raises(ValueError, match=f"R\\^{dim} cannot smooth"):
            kernel_apply(KernelSpec.poisson(0.5, dim), f)

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

    @pytest.mark.parametrize("m", [8, 16, 64, 256])
    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.8, 0.95])
    def test_circle_mass_is_the_aliased_poisson_series(self, m, rho):
        # sum_j K(<p_i, p_j>) / M = sum_k rho^|k| over the frequencies k
        # aliased to 0 on the M-grid, (1 + rho^M) / (1 - rho^M): a grid row
        # holds more than unit mass, by 2 rho^M to first order.
        ones = SphericalField(circle_grid(m), np.ones(m))
        mass = kernel_apply(KernelSpec.poisson(rho, 2), ones).values
        np.testing.assert_allclose(mass, (1 + rho ** m) / (1 - rho ** m),
                                   rtol=1e-12, atol=0.0)

    def test_poisson_kernel_monotone(self):
        vals = KernelSpec.poisson(0.6, 3)._evaluate_owned(
            np.linspace(-1, 1, 41))
        assert np.all(np.diff(vals) > 0.0)


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
        for m in g.reflections[::5]:
            partner = g.partners[m]
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
    (TablePsi([(i / 8) ** 2 for i in range(9)]), 0.3),
]


class TestPolarizationInequality:
    @pytest.mark.parametrize("psi,rho", PSI_FOR_GRID32,
                             ids=psi_id)
    def test_monotone_for_all_reflections(self, psi, rho):
        g = circle_grid(32)
        rng = np.random.default_rng(11)
        kernel = KernelSpec.poisson(rho, 2)
        for _ in range(100):
            f = random_01_field(g, rng)
            for k in g.reflections:
                res = polarization_inequality_check(f, k, kernel, psi)
                assert res["pass"]

    def test_already_polarized_is_equality(self):
        g = circle_grid(32)
        rng = np.random.default_rng(12)
        kernel = KernelSpec.poisson(0.5, 2)
        psi = PsiSpec.square()
        f = random_01_field(g, rng)
        k = g.reflections[10]
        g1 = polarize(f, k)
        res = polarization_inequality_check(g1, k, kernel, psi)
        assert res["j_after"] == pytest.approx(res["j_before"], abs=1e-14)

    def test_pointwise_lemmas(self):
        g = circle_grid(64)
        rng = np.random.default_rng(13)
        kernel = KernelSpec.poisson(0.7, 2)
        for _ in range(10):
            f = random_01_field(g, rng)
            for k in g.reflections[::7]:
                pw = polarization_pointwise_check(f, k, kernel)
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
        # The 258-grid's 257 polarized fields span two stacked blocks.
        psi = PsiSpec.neg_binary_entropy()
        for m, rho, trials in ((16, 0.6, 3), (258, 0.5, 1)):
            out = polarization_check(m, rho, psi, trials, seed=5)
            g = circle_grid(m)
            kernel = KernelSpec.poisson(rho, 2)
            rng = np.random.default_rng(5)
            worst_j = worst_sum = worst_diff = 0.0
            for _ in range(trials):
                f = random_01_field(g, rng)
                for k in g.reflections:
                    res = polarization_inequality_check(f, k, kernel, psi)
                    pw = polarization_pointwise_check(f, k, kernel)
                    worst_j = max(worst_j, res["j_before"] - res["j_after"])
                    worst_sum = max(worst_sum, pw["max_sum_dev"])
                    worst_diff = min(worst_diff, pw["min_diff_margin"])
            assert out == {"checks": trials * (m - 1), "failures": 0,
                           "worst_j_drop": worst_j,
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
        res = iterate_polarizations(f, reflections_seed=5, steps=50,
                                    kernel=KernelSpec.poisson(0.5, 2),
                                    psi=PsiSpec.square())
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

    def test_traces_match_step_by_step(self):
        # 1,101 fields of 64 values span two stacked blocks; each entry
        # must equal the lone field's J and L1 to the bit.
        g = circle_grid(64)
        f = random_01_field(g, np.random.default_rng(20))
        kernel = KernelSpec.poisson(0.7, 2)
        psi = PsiSpec.neg_binary_entropy()
        res = iterate_polarizations(f, reflections_seed=3, steps=1100,
                                    kernel=kernel, psi=psi)
        target = rearrange(f).values
        rng = np.random.default_rng(3)
        current, j_want, l1_want = f, [], []
        for step in range(1101):
            if step:
                current = polarize(current, g.reflections[
                    rng.integers(len(g.reflections))])
            j_want.append(functional_J(psi, kernel, current))
            l1_want.append(float(np.sum(
                g.weights * np.abs(current.values - target))))
        assert res["j_trace"].tolist() == j_want
        assert res["l1_to_rearranged"].tolist() == l1_want
        assert np.array_equal(res["final"].values, current.values)


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


def kernel_formula(kernel, inner):
    """The Poisson kernel at the inner products ``inner``, in one
    expression, as the stored kernel rows must hold it."""
    s = np.asarray(inner, dtype=float)
    rho, d = kernel.rho, kernel.dim
    sq = 1.0 + rho ** 2 - 2.0 * rho * s
    return (1.0 - rho ** 2) * sq ** (-d / 2.0)


def dense_kernel(kernel, ps):
    """The full M x M kernel matrix: one M x M inner-product matrix, then
    the kernel's formula."""
    return kernel_formula(kernel, ps.points @ ps.points.T)


def fixed_point_circle(m=16):
    """The M-point circle whose only mirror is the axis at 2 pi / M, which
    maps j to 2 - j and fixes points 1 and 1 + M/2."""
    theta = 2 * np.pi * np.arange(m) / m
    points = np.column_stack([np.cos(theta), np.sin(theta)])
    phi = 2 * np.pi / m
    return SpherePointSet(points, [[np.sin(phi), -np.cos(phi)]],
                          [(2 - np.arange(m)) % m])


HALF_KERNEL_SETS = (
    [(f"sample-{d}-{m}", lambda d=d, m=m: sphere_sample(d, m, seed=d + m))
     for d in (3, 4, 7) for m in (2, 10, 300)]
    + [(f"grid-{m}", lambda m=m: circle_grid(m)) for m in (8, 64, 256)]
    + [("fixed-points", fixed_point_circle)])


class TestHalfKernel:
    """The point set stores the kernel's rows R = {i : i <= P[i]} of its
    first mirror's map P; kernel_apply must equal the dense product."""

    @staticmethod
    def fields(ps, rng):
        return ([rng.integers(0, 2, ps.size).astype(float) for _ in range(3)]
                + [rng.uniform(0.0, 1.0, ps.size) for _ in range(3)])

    @pytest.mark.parametrize("name,build", HALF_KERNEL_SETS,
                             ids=[n for n, _ in HALF_KERNEL_SETS])
    @pytest.mark.parametrize("rho", [0.0, 0.2])
    def test_matches_dense_oracle(self, name, build, rho):
        ps = build()
        rng = np.random.default_rng(31)
        rows = np.flatnonzero(
            np.arange(ps.size) <= ps.partners[0])
        kernel = KernelSpec.poisson(rho, ps.n)
        dense = dense_kernel(kernel, ps)
        assert np.max(np.abs(ps.kernel_matrix(kernel) - dense[rows])) \
            <= 1e-15 * np.max(np.abs(dense[rows])), name
        for values in self.fields(ps, rng):
            want = dense @ (ps.weights * values)
            got = kernel_apply(kernel, SphericalField(ps, values)).values
            assert np.max(np.abs(got - want)) <= \
                1e-15 * np.max(np.abs(want)), name

    @pytest.mark.parametrize("name,build", HALF_KERNEL_SETS,
                             ids=[n for n, _ in HALF_KERNEL_SETS])
    @pytest.mark.parametrize("rho", [0.5, 0.9])
    def test_matches_dense_oracle_at_high_rho(self, name, build, rho):
        # The stored rows take their inner products from an |R| x M product,
        # the oracle from an M x M one, and the two may round an entry
        # differently (at most n eps for unit vectors in R^n).  The Poisson
        # kernel's relative slope d rho / ||x - rho y||^2 <= d rho / (1 -
        # rho)^2 carries that rounding into the entries.
        ps = build()
        rng = np.random.default_rng(32)
        kernel = KernelSpec.poisson(rho, ps.n)
        tol = 1e-15 + ps.n * rho / (1.0 - rho) ** 2 * ps.n * 2.0 ** -52
        rows = np.flatnonzero(
            np.arange(ps.size) <= ps.partners[0])
        dense = dense_kernel(kernel, ps)
        np.testing.assert_allclose(ps.kernel_matrix(kernel), dense[rows],
                                   rtol=tol, atol=0.0)
        for values in self.fields(ps, rng):
            want = dense @ (ps.weights * values)
            got = kernel_apply(kernel, SphericalField(ps, values)).values
            assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))

    def test_half_of_the_rows_are_stored(self):
        # A return to the dense M x M kernel fails here.
        kernel = KernelSpec.poisson(0.5, 4)
        assert sphere_sample(4, 2000, 0).kernel_matrix(kernel).shape == \
            (1000, 2000)
        circle = KernelSpec.poisson(0.5, 2)
        assert circle_grid(64).kernel_matrix(circle).shape == (32, 64)
        # Points 1 and 9 are their own pairs and keep their rows.
        assert fixed_point_circle(16).kernel_matrix(circle).shape == (9, 16)

    def test_map_that_is_not_an_involution_rejected(self):
        # Point 8 duplicates point 0, so the axis at pi / 8 sends both to
        # point 1, which goes back to 0 only: closed, but no involution.
        theta = 2 * np.pi * np.arange(8) / 8
        points = np.column_stack([np.cos(theta), np.sin(theta)])
        points = np.vstack([points, points[:1]])
        normal = [np.sin(np.pi / 8), -np.cos(np.pi / 8)]
        partner = np.append((1 - np.arange(8)) % 8, 1)
        with pytest.raises(ValueError, match="involution"):
            SpherePointSet(points, [normal], [partner])


class TestKernelEvaluate:
    @pytest.mark.parametrize("kernel", [
        KernelSpec.poisson(0.0, 3), KernelSpec.poisson(0.3, 2),
        KernelSpec.poisson(0.7, 4), KernelSpec.poisson(0.5, 7)],
        ids=lambda k: f"poisson-{k.rho}-{k.dim}")
    def test_bit_equal_and_input_untouched(self, kernel):
        # The stored rows are the formula at the points' inner products,
        # bit for bit, and building them leaves the points as they were.
        rng = np.random.default_rng(34)
        points = rng.standard_normal((11, kernel.dim))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        kept = points.copy()
        ps = SpherePointSet(points, [], [])
        got = ps.kernel_matrix(kernel)
        assert np.array_equal(ps.points, kept)
        assert np.array_equal(got, kernel_formula(kernel, kept @ kept.T))


class TestMcCap:
    def test_oversized_input_rejected_before_sampling(self, monkeypatch):
        import mostinf.sphere as sphere_mod

        def boom(*args):
            raise AssertionError("sample drawn")
        monkeypatch.setattr(sphere_mod, "sphere_sample", boom)
        for dim, points in ((4, 2_000_000), (100_000, 2000), (4, 8194)):
            with pytest.raises(ValueError, match="MC_MAX_ENTRIES"):
                sphere_mod.mc_check(dim, points, 0.5, 0)
        # 4096 x 8192 entries is the cap itself, so the sample is drawn.
        with pytest.raises(AssertionError, match="sample drawn"):
            sphere_mod.mc_check(4, 8192, 0.5, 0)

    def test_oversized_grid_rejected_before_building(self, monkeypatch):
        import mostinf.sphere as sphere_mod

        class NoArrays:
            def __getattr__(self, name):
                raise AssertionError("grid built")
        # Any use of numpy in the sphere module raises, so the grid's
        # points and maps cannot be built before the cap check.
        monkeypatch.setattr(sphere_mod, "np", NoArrays())
        # 5793 x 5794 map entries exceed 2^25; 5791 x 5792 do not.
        for m in (5794, 100_000):
            with pytest.raises(ValueError, match="MC_MAX_ENTRIES"):
                sphere_mod.circle_grid(m)
        with pytest.raises(AssertionError, match="grid built"):
            sphere_mod.circle_grid(5792)

    def test_sample_in_high_dimension(self):
        ps = sphere_sample(100_000, 2, seed=0)
        assert ps.points.shape == (2, 100_000)
