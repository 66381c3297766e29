"""Tests for the sine-series function space."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from oddperiodic import (
    EvenPeriodicFunction,
    OddPeriodicFunction,
    OddSymmetryError,
    differentiate,
    from_samples,
    grid_samples,
    mean,
    odd_symmetry_defect,
    sup_norm,
)
from oddperiodic.funcspace import _full_grid, _half_grid, _sine_rows

T2PI = 2.0 * np.pi


def sine_coefficient_quadrature(f, n, period):
    """Independent oracle: b_n = (2/T) * int_0^T f(t) sin(2*pi*n*t/T) dt."""
    val, _ = quad(lambda x: f(x) * np.sin(2 * np.pi * n * x / period),
                  0.0, period, limit=400, epsabs=1e-13, epsrel=1e-13)
    return 2.0 * val / period


def dense_synthesis(coeffs, n_points, kernel):
    """Independent reference: sum_n c_n kernel(2*pi*n*j/P), phase n*j mod P."""
    j = np.arange(n_points)[:, None]
    n = np.arange(1, len(coeffs) + 1)[None, :]
    return kernel(2.0 * np.pi * ((j * n) % n_points) / n_points) @ coeffs


def random_odd_samples(rng, n_points):
    """Samples that are exactly odd-symmetric on a P-point grid."""
    half = rng.uniform(-1.0, 1.0, n_points // 2 + 1)
    half[0] = half[-1] = 0.0
    return np.concatenate([half, -half[-2:0:-1]])


class TestFromSamples:
    def test_pure_basis_function(self):
        t = np.arange(16) * (T2PI / 16)
        u = from_samples(np.sin(t), T2PI)
        assert u.modes == 8
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(u.coeffs, expected, atol=1e-15)

    def test_zero_samples(self):
        u = from_samples(np.zeros(16), T2PI)
        assert np.all(u.coeffs == 0.0)

    def test_two_mode_polynomial_matches_quadrature(self):
        f = lambda x: np.sin(x) + 0.5 * np.sin(3 * x)
        t = np.arange(16) * (T2PI / 16)
        u = from_samples(f(t), T2PI)
        for n in (1, 3):
            oracle = sine_coefficient_quadrature(f, n, T2PI)
            assert abs(u.coeffs[n - 1] - oracle) < 1e-12
        assert abs(u.coeffs[0] - 1.0) < 1e-14
        assert abs(u.coeffs[2] - 0.5) < 1e-14
        others = np.delete(u.coeffs, [0, 2])
        assert np.max(np.abs(others)) < 1e-14

    def test_round_trips_grid_samples(self, rng, make_random_odd):
        for _ in range(20):
            u = make_random_odd(rng)
            samples = grid_samples(u, 2 * (u.modes + 1))
            v = from_samples(samples, u.period)
            scale = np.max(np.abs(u.coeffs))
            np.testing.assert_allclose(v.coeffs[: u.modes], u.coeffs,
                                       atol=1e-13 * scale)
            assert np.max(np.abs(v.coeffs[u.modes:])) < 1e-13 * scale

    def test_rejects_even_content(self):
        t = np.arange(16) * (T2PI / 16)
        with pytest.raises(OddSymmetryError):
            from_samples(np.cos(t), T2PI)

    def test_rejects_non_finite(self):
        s = np.zeros(16)
        s[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            from_samples(s, T2PI)

    def test_rejects_odd_or_short_counts(self):
        with pytest.raises(ValueError):
            from_samples(np.zeros(15), T2PI)
        with pytest.raises(ValueError):
            from_samples(np.zeros(2), T2PI)

    def test_order_is_half_the_sample_count(self):
        for P in (4, 12, 512):
            assert from_samples(np.zeros(P), T2PI).modes == P // 2


# (modes N, grid points P): P >= 2N+2 resolves every mode, P = 2N puts the
# top mode on the invisible P/2 line, P < 2N aliases, P = 6 is the smallest
# grid of the odd-symmetry check used by analysis.
TRANSFORM_SIZES = [(5, 12), (6, 12), (9, 12), (20, 8), (3, 6), (7, 6),
                   (64, 256), (300, 512), (3, 100), (250, 100), (1, 2)]


class TestGridTransforms:
    @pytest.mark.parametrize("modes,n_points", TRANSFORM_SIZES)
    @pytest.mark.parametrize("cls,kernel", [(OddPeriodicFunction, np.sin),
                                            (EvenPeriodicFunction, np.cos)])
    def test_synthesis_matches_dense_reference(self, rng, modes, n_points,
                                               cls, kernel):
        coeffs = rng.uniform(-1.0, 1.0, modes)
        samples = grid_samples(cls(3.0, coeffs), n_points)
        reference = dense_synthesis(coeffs, n_points, kernel)
        np.testing.assert_allclose(samples, reference, rtol=0,
                                   atol=1e-14 * np.sum(np.abs(coeffs)))

    @pytest.mark.parametrize("modes,n_points", TRANSFORM_SIZES)
    def test_symmetry_is_bitwise(self, rng, modes, n_points):
        coeffs = rng.uniform(-1.0, 1.0, modes)
        odd = grid_samples(OddPeriodicFunction(3.0, coeffs), n_points)
        even = grid_samples(EvenPeriodicFunction(3.0, coeffs), n_points)
        mirror = np.roll(np.arange(n_points)[::-1], 1)  # j -> (P - j) mod P
        np.testing.assert_array_equal(odd, -odd[mirror])
        np.testing.assert_array_equal(even, even[mirror])
        assert odd[0] == 0.0 and odd[n_points // 2] == 0.0

    @pytest.mark.parametrize("n_points", [6, 8, 12, 256, 1000])
    def test_analysis_matches_dense_reference(self, rng, n_points):
        samples = random_odd_samples(rng, n_points)
        coeffs = from_samples(samples, 3.0).coeffs
        basis = dense_synthesis(np.eye(n_points // 2), n_points, np.sin)
        reference = (2.0 / n_points) * (basis.T @ samples)
        np.testing.assert_allclose(coeffs, reference, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n_points", [4, 6, 8, 256, 1000])
    def test_top_mode_comes_back_exactly_zero(self, rng, n_points):
        samples = random_odd_samples(rng, n_points)
        assert from_samples(samples, 3.0).coeffs[-1] == 0.0
        # the same grid with an alias of mode P/2 folded onto it
        u = OddPeriodicFunction(3.0, rng.uniform(-1.0, 1.0, n_points))
        assert from_samples(grid_samples(u, n_points), 3.0).coeffs[-1] == 0.0

    @settings(max_examples=150, deadline=None)
    @given(coeffs=st.lists(st.floats(-1.0, 1.0, allow_subnormal=False),
                           min_size=1, max_size=80),
           half=st.integers(1, 120))
    def test_transforms_agree_with_reference(self, coeffs, half):
        coeffs, P = np.array(coeffs), 2 * half
        tol = 1e-14 * (np.sum(np.abs(coeffs)) + 1e-300)
        odd = grid_samples(OddPeriodicFunction(2.5, coeffs), P)
        even = grid_samples(EvenPeriodicFunction(2.5, coeffs), P)
        assert np.max(np.abs(odd - dense_synthesis(coeffs, P, np.sin))) <= tol
        assert np.max(np.abs(even - dense_synthesis(coeffs, P, np.cos))) <= tol
        if P >= 2 * (coeffs.size + 1):
            back = from_samples(odd, 2.5).coeffs  # P/2 modes, zero above N
            assert np.max(np.abs(back - np.pad(coeffs, (0, half - coeffs.size)))) <= tol


class TestEvaluate:
    def test_single_mode_peak(self):
        u = OddPeriodicFunction(T2PI, [1.0])
        assert u(np.pi / 2) == pytest.approx(1.0, abs=1e-15)

    def test_zero_at_origin(self, rng, make_random_odd):
        for _ in range(5):
            u = make_random_odd(rng)
            assert u(0.0) == 0.0

    def test_hand_evaluated_combination(self):
        # sin(pi/6) + 0.5*sin(pi/2) = 0.5 + 0.5
        u = OddPeriodicFunction(T2PI, [1.0, 0.0, 0.5])
        assert u(np.pi / 6) == pytest.approx(1.0, abs=1e-15)

    def test_oddness_is_exact(self, rng, make_random_odd):
        u = make_random_odd(rng, max_modes=256)
        t = rng.uniform(-40.0, 40.0, 1000)
        np.testing.assert_array_equal(u(t) + u(-t), np.zeros(1000))

    def test_periodicity(self, rng, make_random_odd):
        u = make_random_odd(rng)
        t = rng.uniform(0.0, u.period, 100)
        np.testing.assert_allclose(u(t + 3 * u.period), u(t),
                                   atol=1e-11 * (1 + sup_norm(u)))

    def test_scalar_in_scalar_out(self):
        u = OddPeriodicFunction(1.0, [1.0, 2.0])
        assert isinstance(u(0.3), float)
        assert u(np.array([0.3])).shape == (1,)


class TestSupNorm:
    def test_zero_function(self):
        assert sup_norm(OddPeriodicFunction(T2PI, [0.0])) == 0.0

    def test_single_mode_attained_on_grid(self):
        assert sup_norm(OddPeriodicFunction(T2PI, [1.0])) == pytest.approx(1.0, abs=1e-15)

    def test_two_mode_maximum_against_root_oracle(self):
        # oracle: stationary point of sin t + sin 2t solves cos t + 2 cos 2t = 0
        t_star = brentq(lambda x: np.cos(x) + 2 * np.cos(2 * x), 0.5, 1.5,
                        xtol=1e-15)
        oracle = np.sin(t_star) + np.sin(2 * t_star)
        assert oracle == pytest.approx(1.7601725930460868, abs=1e-12)
        u = OddPeriodicFunction(T2PI, [1.0, 1.0])
        fine = np.max(np.abs(grid_samples(u, 1_000_000)))
        assert fine == pytest.approx(oracle, abs=1e-9)

    def test_is_lower_bound_of_true_sup(self):
        u = OddPeriodicFunction(T2PI, [1.0, 1.0])
        assert sup_norm(u) <= np.max(np.abs(grid_samples(u, 1_000_000))) + 1e-15

    def test_grid_values_beyond_the_float_range_read_inf(self):
        # finite coefficients whose transform overflows: inf, no warning
        assert sup_norm(OddPeriodicFunction(1.0, [1.5e308, 1.5e308])) == np.inf
        # an overflow inside the transform only
        u = OddPeriodicFunction(1.0, [-1e308, -1e308])
        assert 1.7e308 < sup_norm(u) < np.inf


class TestMean:
    def test_odd_series_mean_zero(self):
        assert mean(OddPeriodicFunction(T2PI, [1.0])) == pytest.approx(0.0, abs=1e-15)

    def test_raw_samples_with_constant_shift(self):
        t = np.arange(64) * (T2PI / 64)
        assert mean(np.cos(t) + 2.0) == pytest.approx(2.0, abs=1e-14)

    def test_raw_samples_of_odd_cube(self):
        t = np.arange(128) * (T2PI / 128)
        assert abs(mean(np.sin(t) ** 3)) < 1e-14

    def test_random_series(self, rng, make_random_odd):
        for _ in range(50):
            u = make_random_odd(rng, max_modes=256)
            assert abs(mean(u)) <= 1e-14 * max(sup_norm(u), 1e-300)


class TestOddSymmetryDefect:
    def test_sine_samples(self):
        t = np.arange(32) * (T2PI / 32)
        assert odd_symmetry_defect(np.sin(t)) < 1e-15

    def test_cosine_samples(self):
        t = np.arange(32) * (T2PI / 32)
        assert odd_symmetry_defect(np.cos(t)) == pytest.approx(2.0, abs=1e-15)

    def test_mixed_parity_defect_from_even_part(self):
        # u(t) + u(-t) = 0.2*cos(2t), maximum 0.2 on the grid
        t = np.arange(64) * (T2PI / 64)
        defect = odd_symmetry_defect(np.sin(t) + 0.1 * np.cos(2 * t))
        assert defect == pytest.approx(0.2, abs=1e-15)


class TestDifferentiate:
    def test_second_derivative_of_sine(self):
        u = OddPeriodicFunction(T2PI, [1.0])
        upp = differentiate(u, 2)
        np.testing.assert_allclose(upp.coeffs, [-1.0], atol=1e-15)

    def test_second_derivative_mode_two(self):
        u = OddPeriodicFunction(T2PI, [0.0, 1.0])
        upp = differentiate(u, 2)
        np.testing.assert_allclose(upp.coeffs, [0.0, -4.0], atol=1e-14)

    def test_first_derivative_against_finite_differences(self):
        u = OddPeriodicFunction(1.0, [1.0])
        up = differentiate(u, 1)
        assert isinstance(up, EvenPeriodicFunction)
        assert up(0.0) == pytest.approx(2 * np.pi, abs=1e-12)
        h = 1e-6
        for t in (0.0, 0.13, 0.37):
            fd = (u(t + h) - u(t - h)) / (2 * h)
            assert up(t) == pytest.approx(fd, abs=1e-4)

    def test_parity_tags_and_exactness(self, rng, make_random_odd):
        u = make_random_odd(rng, max_modes=128)
        up = differentiate(u, 1)
        upp = differentiate(u, 2)
        assert up.parity == "even" and upp.parity == "odd"
        t = np.arange(1, 200) * (u.period / 512)
        assert np.max(np.abs(up(t) - up(-t))) == 0.0
        assert np.max(np.abs(upp(t) + upp(-t))) == 0.0

    def test_second_derivative_of_a_tiny_period(self):
        # (2 pi n/T)^2 overflows at T = 1e-150 for n >= 2100 or so: a zero
        # coefficient there stays 0, the others take -w*(w*b)
        T, N = 1e-150, 4096
        coeffs = np.zeros(N)
        coeffs[[0, 2999]] = [1e-300, 1e-310]
        w = 2.0 * np.pi * np.arange(1, N + 1) / T
        upp = differentiate(OddPeriodicFunction(T, coeffs), 2).coeffs
        assert w[2999] > np.sqrt(np.finfo(float).max)  # w*w overflows
        assert upp[0] == -(w[0] * w[0]) * 1e-300
        assert upp[2999] == -w[2999] * (w[2999] * 1e-310)
        assert not np.any(np.delete(upp, [0, 2999]))
        with pytest.raises(ValueError):  # an overflowing u'' is refused
            differentiate(OddPeriodicFunction(T, [0.0] * 2999 + [1.0]), 2)

    def test_rejects_other_orders(self):
        u = OddPeriodicFunction(1.0, [1.0])
        with pytest.raises(ValueError):
            differentiate(u, 3)


class TestValueSemantics:
    def test_structural_invariants(self, rng, make_random_odd):
        u = make_random_odd(rng)
        assert u(0.0) == 0.0
        assert abs(u(u.period / 2)) < 1e-12 * max(sup_norm(u), 1.0)

    def test_coeffs_read_only(self):
        u = OddPeriodicFunction(1.0, [1.0, 2.0])
        with pytest.raises(ValueError):
            u.coeffs[0] = 5.0

    def test_arithmetic_pads_modes(self):
        a = OddPeriodicFunction(1.0, [1.0])
        b = OddPeriodicFunction(1.0, [0.0, 2.0])
        c = a + b
        np.testing.assert_array_equal(c.coeffs, [1.0, 2.0])
        d = 2.0 * a - b
        np.testing.assert_array_equal(d.coeffs, [2.0, -2.0])

    def test_period_mismatch_rejected(self):
        a = OddPeriodicFunction(1.0, [1.0])
        b = OddPeriodicFunction(2.0, [1.0])
        with pytest.raises(ValueError, match="period"):
            a + b

    def test_with_modes(self):
        u = OddPeriodicFunction(1.0, [1.0, 2.0, 3.0])
        assert u.with_modes(5).modes == 5
        np.testing.assert_array_equal(u.with_modes(2).coeffs, [1.0, 2.0])

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            OddPeriodicFunction(-1.0, [1.0])
        with pytest.raises(ValueError):
            OddPeriodicFunction(1.0, [np.inf])
        with pytest.raises(ValueError):
            OddPeriodicFunction(1.0, [])


class TestBatchedRowsEqualSingleRows:
    """A batched solve or shot is bitwise a single one only if every
    transform of many rows equals the same transform row by row; a host
    whose FFT kernels treat a batch differently fails here."""

    @pytest.mark.parametrize("modes", [64, 1024])
    def test_grids_and_analysis_of_40_rows(self, modes):
        rows = np.random.default_rng(modes).uniform(-1.0, 1.0, (40, modes))
        for P in (4 * modes, 8 * modes):
            for odd in (True, False):
                half = _half_grid(rows, P, odd)
                full = _full_grid(rows, P, odd)
                for row, h, f in zip(rows, half, full):
                    assert np.array_equal(h, _half_grid(row, P, odd))
                    assert np.array_equal(f, _full_grid(row, P, odd))
        samples = _full_grid(rows, 4 * modes)
        coeffs = _sine_rows(samples, modes)
        for s, c in zip(samples, coeffs):
            assert np.array_equal(c, _sine_rows(s, modes))

    def test_full_grid_mirrors_each_row(self):
        rows = np.random.default_rng(3).uniform(-1.0, 1.0, (5, 16))
        P = 64
        odd, even = _full_grid(rows, P), _full_grid(rows, P, odd=False)
        assert odd.shape == even.shape == (5, P)
        assert np.array_equal(odd[:, 1:], -odd[:, :0:-1])
        assert np.array_equal(even[:, 1:], even[:, :0:-1])
        for row, o in zip(rows, odd):
            assert np.array_equal(o, grid_samples(OddPeriodicFunction(T2PI, row), P))
