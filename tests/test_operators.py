"""Tests for the diagonal inverse and the nonlinear right-hand side."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import jv

from oddperiodic import (
    Nonlinearity,
    NonFiniteNonlinearityError,
    OddPeriodicFunction,
    OddSymmetryError,
    builtin,
    differentiate,
    fixed_point_map,
    inverse_norm_bound,
    invert_second_derivative,
    nonlinear_rhs,
    mean,
    solve_picard,
    sup_norm,
)

T2PI = 2.0 * np.pi


class TestInverse:
    def test_inverts_sine(self):
        f = OddPeriodicFunction(T2PI, [1.0])
        np.testing.assert_allclose(invert_second_derivative(f).coeffs, [-1.0],
                                   rtol=1e-15)

    def test_single_mode_eigenvalue(self):
        f = OddPeriodicFunction(T2PI, [0.0, 0.0, 1.0])
        u = invert_second_derivative(f)
        assert u.coeffs[2] == pytest.approx(-1.0 / 9.0, rel=1e-15)

    def test_two_modes_unit_period(self):
        f = OddPeriodicFunction(1.0, [1.0, 1.0])
        u = invert_second_derivative(f)
        assert u.coeffs[0] == pytest.approx(-0.025330295910584444, rel=1e-14)
        assert u.coeffs[1] == pytest.approx(-0.006332573977646111, rel=1e-14)
        # spectral differentiation must undo it
        np.testing.assert_allclose(differentiate(u, 2).coeffs, f.coeffs,
                                   rtol=1e-13)

    def test_single_mode_gain_is_exact(self):
        for T in (0.7, 1.0, T2PI, 17.3):
            for n in (1, 2, 7, 64):
                coeffs = np.zeros(n)
                coeffs[-1] = 1.0
                u = invert_second_derivative(OddPeriodicFunction(T, coeffs))
                assert u.coeffs[-1] == -((T / (2 * np.pi * n)) ** 2)

    def test_two_sided_inverse_on_random_functions(self, rng, make_random_odd):
        for _ in range(50):
            u = make_random_odd(rng)
            back = invert_second_derivative(differentiate(u, 2))
            assert sup_norm(back - u) <= 1e-12 * sup_norm(u)
            f = make_random_odd(rng)
            forth = differentiate(invert_second_derivative(f), 2)
            assert sup_norm(forth - f) <= 1e-12 * sup_norm(f)


class TestNormBound:
    def test_certified_value_is_half_period_squared(self):
        assert inverse_norm_bound(T2PI) == T2PI * T2PI / 2.0
        assert inverse_norm_bound(T2PI) == pytest.approx(19.739208802178716,
                                                         rel=1e-15)
        assert inverse_norm_bound(1.0) == 0.5
        assert inverse_norm_bound(3.0) == 4.5

    def test_single_mode_gains_decrease_below_bound(self):
        gains = []
        for n in range(1, 30):
            coeffs = np.zeros(n)
            coeffs[-1] = 1.0
            u = invert_second_derivative(OddPeriodicFunction(T2PI, coeffs))
            gains.append(abs(u.coeffs[-1]))
        assert gains[0] == pytest.approx(1.0, rel=1e-15)
        assert all(a > b for a, b in zip(gains, gains[1:]))
        assert gains[0] <= inverse_norm_bound(T2PI)

    def test_rejects_nonpositive_period(self):
        for period in (0.0, -2.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                inverse_norm_bound(period)

    def test_bound_never_violated_empirically(self, rng, make_random_odd):
        worst = 0.0
        for _ in range(200):
            f = make_random_odd(rng)
            ratio = sup_norm(invert_second_derivative(f)) / sup_norm(f)
            limit = f.period ** 2 / 2.0
            assert ratio <= limit
            worst = max(worst, ratio / limit)
        assert worst < 1.0


class TestNonlinearRhs:
    def test_zero_g_returns_forcing(self):
        p = builtin("zero", period=T2PI, forcing=[(1, 1.0), (3, -0.25)])
        u = OddPeriodicFunction(T2PI, [0.3, 0.1, 0.0, 0.2])
        out = nonlinear_rhs(p, u)
        np.testing.assert_allclose(out.coeffs[:3], [1.0, 0.0, -0.25], atol=1e-14)

    def test_identity_g_negates_u(self):
        p = builtin("linear", {"c": 1.0}, period=T2PI, forcing=[])
        u = OddPeriodicFunction(T2PI, [1.0]).with_modes(8)
        out = nonlinear_rhs(p, u)
        np.testing.assert_allclose(out.coeffs[0], -1.0, atol=1e-14)
        assert np.max(np.abs(out.coeffs[1:])) < 1e-14

    def test_pendulum_projection_against_quadrature(self):
        # first sine coefficient of sin(0.1*sin t) by quadrature, then the
        # Bessel identity as a second, closed-form oracle
        oracle, _ = quad(lambda x: np.sin(0.1 * np.sin(x)) * np.sin(x),
                         0.0, T2PI, limit=400, epsabs=1e-14, epsrel=1e-14)
        oracle *= 2.0 / T2PI
        assert oracle == pytest.approx(2 * jv(1, 0.1), abs=1e-14)
        p = builtin("pendulum", {"a": 1.0}, period=T2PI, forcing=[(1, 0.05)])
        u = OddPeriodicFunction(T2PI, [0.1]).with_modes(16)
        out = nonlinear_rhs(p, u)
        assert out.coeffs[0] == pytest.approx(0.05 - oracle, abs=1e-13)
        assert out.coeffs[0] == pytest.approx(-0.04987505207248398, abs=1e-12)

    def test_output_is_structurally_odd_mean_zero(self, rng):
        p = builtin("tanh_g", {"s": 1.0}, period=T2PI, forcing=[(2, 0.7)])
        u = OddPeriodicFunction(T2PI, rng.uniform(-1, 1, 32))
        out = nonlinear_rhs(p, u)
        assert abs(mean(out)) < 1e-14 * (1 + sup_norm(out))

    def test_non_finite_g_rejected(self):
        bad = Nonlinearity("bad", lambda x: np.where(np.abs(x) > 0.5, np.nan, x),
                           lambda x: np.ones_like(x))
        p = SimpleNamespace(g=bad, k=OddPeriodicFunction(T2PI, [1.0]),
                            period=T2PI)
        u = OddPeriodicFunction(T2PI, [1.0]).with_modes(8)
        with pytest.raises(NonFiniteNonlinearityError):
            nonlinear_rhs(p, u)

    def test_non_odd_g_fails_symmetry_check(self):
        # bypasses Problem validation to exercise the runtime guard
        crooked = Nonlinearity("crooked", lambda x: np.asarray(x) + 0.01,
                               lambda x: np.ones_like(x))
        p = SimpleNamespace(g=crooked, k=OddPeriodicFunction(T2PI, [1.0]),
                            period=T2PI)
        u = OddPeriodicFunction(T2PI, [1.0]).with_modes(8)
        with pytest.raises(OddSymmetryError):
            nonlinear_rhs(p, u)


class TestFixedPointMap:
    def test_affine_map_lands_on_solution(self):
        p = builtin("zero", period=T2PI, forcing=[(1, 1.0)])
        u0 = OddPeriodicFunction.zero(T2PI, 8)
        u1 = fixed_point_map(p, u0)
        exact = OddPeriodicFunction(T2PI, [-1.0]).with_modes(8)
        assert sup_norm(u1 - exact) < 1e-14

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from([("pendulum", "a"), ("tanh_g", "s"),
                                   ("linear", "c")]),
           param=st.floats(-2.0, 2.0),
           period=st.floats(0.5, 20.0),
           amplitudes=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=8),
           u_modes=st.sampled_from(["fewer", "as many", "more"]),
           data=st.data())
    def test_map_is_inverse_of_rhs_at_the_larger_order(
            self, family, param, period, amplitudes, u_modes, data):
        name, key = family
        forcing = list(enumerate(amplitudes, start=1))
        p = builtin(name, {key: param}, period=period, forcing=forcing)
        K = p.k.modes
        N = {"fewer": K - 1, "as many": K, "more": 2 * K}[u_modes]
        u = OddPeriodicFunction(period, data.draw(
            st.lists(st.floats(-2.0, 2.0), min_size=N, max_size=N)))
        mapped = fixed_point_map(p, u)
        rhs = nonlinear_rhs(p, u)
        assert mapped.modes == rhs.modes == max(N, K)
        composed = invert_second_derivative(rhs)
        assert mapped.coeffs.tobytes() == composed.coeffs.tobytes()
        if N >= K:
            # the solver's tick runs the same kernel: one Picard step from u
            # (a shorter u is padded to k's order before the step)
            step = solve_picard(p, initial_guess=u, max_iter=1, modes=1)
            assert step.solution.coeffs.tobytes() == mapped.coeffs.tobytes()
