"""Tests for the RK4 integrator, shooting and residual oracle."""

from pathlib import Path

import numpy as np
import pytest

import oddperiodic.oracle as oracle
from oddperiodic import (
    BlowUpError,
    OddPeriodicFunction,
    OracleInconclusiveError,
    builtin,
    cross_validate,
    grid_samples,
    integrate_ivp,
    make_problem,
    odd_symmetry_defect,
    ode_residual,
    pointwise_residual,
    shoot,
    shooting_distances,
    solve_picard,
    sup_norm,
)

T2PI = 2.0 * np.pi


def zero_problem(forcing=((1, 1.0),)):
    return builtin("zero", period=T2PI, forcing=list(forcing))


def reference_rk4(problem, v0, t_end, steps):
    """Classical RK4 stepped on numpy scalars, written out term by term."""
    h = t_end / steps
    t = h * np.arange(steps + 1)
    k_node = problem.k(t)
    k_half = problem.k(t[:-1] + 0.5 * h)
    g = problem.g.value
    u_out = np.empty(steps + 1)
    v_out = np.empty(steps + 1)
    u, v = 0.0, float(v0)
    u_out[0], v_out[0] = u, v
    for i in range(steps):
        k1u = v
        k1v = k_node[i] - g(u)
        k2u = v + 0.5 * h * k1v
        k2v = k_half[i] - g(u + 0.5 * h * k1u)
        k3u = v + 0.5 * h * k2v
        k3v = k_half[i] - g(u + 0.5 * h * k2u)
        k4u = v + h * k3v
        k4v = k_node[i + 1] - g(u + h * k3u)
        u = u + h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v = v + h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        u_out[i + 1], v_out[i + 1] = u, v
    return u_out, v_out


@pytest.fixture
def shot_slopes(monkeypatch):
    """Record the initial slope of every RK4 shot the oracle integrates."""
    slopes = []
    integrate = oracle.integrate_ivp

    def counting(problem, u0, v0, t_end, steps=None):
        slopes.append(v0)
        return integrate(problem, u0, v0, t_end, steps=steps)

    monkeypatch.setattr(oracle, "integrate_ivp", counting)
    return slopes


class TestIntegrateIvp:
    def test_free_motion_is_linear(self):
        p = zero_problem(forcing=[])
        traj = integrate_ivp(p, 0.0, 1.0, np.pi, steps=4096)
        assert traj.u[-1] == pytest.approx(np.pi, abs=1e-10)
        np.testing.assert_allclose(traj.u, traj.t, atol=1e-10)

    def test_harmonic_oscillator_quarter_period(self):
        p = builtin("linear", {"c": 1.0}, period=T2PI, forcing=[])
        traj = integrate_ivp(p, 0.0, 1.0, np.pi / 2)
        assert traj.u[-1] == pytest.approx(1.0, abs=1e-10)

    def test_forced_linear_closed_form(self):
        # u'' = sin t with u(0)=0, u'(0)=-1 is solved by u = -sin t
        p = zero_problem()
        traj = integrate_ivp(p, 0.0, -1.0, np.pi)
        assert abs(traj.u[-1]) < 1e-10
        np.testing.assert_allclose(traj.u, -np.sin(traj.t), atol=1e-10)

    def test_default_step_density(self):
        p = zero_problem()
        traj = integrate_ivp(p, 0.0, 1.0, T2PI / 2)
        h = traj.t[1] - traj.t[0]
        assert h <= T2PI / 2048 + 1e-15

    def test_rejects_too_few_steps(self):
        with pytest.raises(ValueError):
            integrate_ivp(zero_problem(), 0.0, 1.0, 1.0, steps=8)

    def test_blow_up_reports_escape_time(self):
        p = builtin("cubic", {"c3": -1.0}, period=T2PI, forcing=[])
        with pytest.raises(BlowUpError) as e:
            integrate_ivp(p, 0.0, 5.0, 10.0, steps=4096)
        assert 0.0 < e.value.t_escape <= 10.0

    @pytest.mark.parametrize("family,params,forcing", [
        ("pendulum", {"a": 0.04}, [(1, 0.05)]),
        ("tanh_g", {"s": 1.0}, [(1, 0.5)]),
        ("linear", {"c": 0.01}, [(1, 1.0), (3, -0.2)]),
    ])
    def test_bitwise_equal_to_numpy_scalar_loop(self, family, params, forcing):
        p = builtin(family, params, period=T2PI, forcing=forcing)
        traj = integrate_ivp(p, 0.0, 0.3, np.pi, steps=1024)
        u_ref, v_ref = reference_rk4(p, 0.3, np.pi, 1024)
        assert np.array_equal(traj.u, u_ref)
        assert np.array_equal(traj.v, v_ref)

    def test_rk4_fourth_order_convergence(self):
        p = builtin("linear", {"c": 1.0}, period=T2PI, forcing=[])
        errs = []
        for n in (64, 128):
            traj = integrate_ivp(p, 0.0, 1.0, np.pi, steps=n)
            errs.append(np.hypot(traj.u[-1] - 0.0, traj.v[-1] - (-1.0)))
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0


class TestShoot:
    def test_linear_forced_slope(self):
        shot = shoot(zero_problem(), (-2.0, 0.0))
        assert shot.v0 == pytest.approx(-1.0, abs=1e-10)
        exact = OddPeriodicFunction(T2PI, [-1.0])
        assert sup_norm(shot.reconstructed - exact.with_modes(shot.reconstructed.modes)) < 1e-10
        assert abs(shot.boundary_defect) <= 1e-11

    def test_weak_linear_restoring_force(self):
        # u = B sin t with B = 1/(c - 1) forces u'(0) = B
        p = builtin("linear", {"c": 0.01}, period=T2PI, forcing=[(1, 1.0)])
        shot = shoot(p, (-2.0, 0.0))
        assert shot.v0 == pytest.approx(1.0 / (0.01 - 1.0), abs=1e-9)

    def test_zero_problem_finds_zero(self):
        p = builtin("pendulum", {"a": 0.04}, period=T2PI, forcing=[])
        shot = shoot(p, (-1.0, 1.0))
        assert abs(shot.v0) < 1e-10
        assert sup_norm(shot.reconstructed) < 1e-10

    def test_secant_fallback_without_sign_change(self):
        shot = shoot(zero_problem(), (1.0, 2.0))  # F > 0 on both endpoints
        assert shot.v0 == pytest.approx(-1.0, abs=1e-9)

    def test_degenerate_seed_is_inconclusive(self):
        with pytest.raises(OracleInconclusiveError):
            shoot(zero_problem(), (0.7, 0.7))

    def test_degenerate_bracket_shoots_once(self, shot_slopes):
        # both endpoints equal the midpoint: its shot is reused for them
        with pytest.raises(OracleInconclusiveError):
            shoot(zero_problem(), (0.7, 0.7))
        assert shot_slopes == [0.7]

    def test_bisection_shoots_each_slope_once(self, shot_slopes):
        # the midpoint -0.75 misses u(pi) = 0, so the bracket is bisected
        p = zero_problem()
        shot = shoot(p, (-2.0, 0.5))
        assert len(shot_slopes) > 3
        assert len(set(shot_slopes)) == len(shot_slopes)
        assert shot_slopes[:3] == [-0.75, -2.0, 0.5]
        # plain bisection from the endpoints reaches the same slope
        steps = len(shot.trajectory.t) - 1

        def F(v0):
            return integrate_ivp(p, 0.0, v0, np.pi, steps=steps).u[-1]

        a, b = -2.0, 0.5
        fa = F(a)
        for _ in range(200):
            m = 0.5 * (a + b)
            fm = F(m)
            if abs(fm) <= 1e-11:
                break
            if fa * fm < 0.0:
                b = m
            else:
                a, fa = m, fm
        assert shot.v0 == m
        # the accepted shot's own trajectory is returned
        assert shot.trajectory.v[0] == shot.v0
        assert np.array_equal(shot.trajectory.u,
                              integrate_ivp(p, 0.0, m, np.pi, steps=steps).u)
        assert shot.boundary_defect == shot.trajectory.u[-1] == fm

    def test_reconstruction_quality_invariants(self):
        p = builtin("pendulum", {"a": 0.04}, period=T2PI, forcing=[(1, 0.05)])
        tol = 1e-11  # the boundary tolerance of shoot
        shot = shoot(p, (-2.0, 0.5))
        r = shot.reconstructed
        assert odd_symmetry_defect(grid_samples(r, 4 * r.modes)) <= 1e-9
        assert ode_residual(p, r) <= 10 * tol
        assert shot.trajectory.u[0] == 0.0

    def test_reconstruction_samples_every_fourth_node_of_the_shot(self):
        # 1024 half-period steps put the 512-point grid of the 256-mode
        # reconstruction on every 4th node of the shot: no interpolation
        p = builtin("pendulum", {"a": 0.04}, period=T2PI, forcing=[(1, 0.05)])
        shot = shoot(p, (-2.0, 0.5))
        traj, r = shot.trajectory, shot.reconstructed
        assert r.modes == 256 and len(traj.t) == 1025
        assert np.array_equal(traj.t[::4], np.arange(257) * (T2PI / 512))
        # the nodes less the ramp that takes out the boundary defect
        ramp = traj.u[-1] * np.arange(257) / 256
        assert np.max(np.abs(grid_samples(r, 512)[:257]
                             - (traj.u[::4] - ramp))) <= 1e-14


class TestResidual:
    def test_exact_solution_has_zero_residual(self):
        u = OddPeriodicFunction(T2PI, [-1.0])
        assert ode_residual(zero_problem(), u) < 1e-12

    def test_sign_flipped_candidate(self):
        u = OddPeriodicFunction(T2PI, [1.0])
        assert ode_residual(zero_problem(), u) == pytest.approx(2.0, abs=1e-12)

    def test_pointwise_residual_closed_form(self):
        # u = sin t against u'' = sin t: the defect is |-sin t - sin t|
        u = OddPeriodicFunction(T2PI, [1.0])
        t = np.arange(16) * (T2PI / 16)
        samples, residual = pointwise_residual(zero_problem(), u, 16)
        np.testing.assert_allclose(samples, np.sin(t), atol=1e-15)
        np.testing.assert_allclose(residual, 2.0 * np.abs(np.sin(t)), atol=1e-14)
        assert ode_residual(zero_problem(), u) == np.max(
            pointwise_residual(zero_problem(), u, 4)[1])

    def test_end_to_end_solver_residual(self):
        p = builtin("pendulum", {"a": 0.04}, period=T2PI, forcing=[(1, 0.05)])
        report = solve_picard(p)
        assert ode_residual(p, report.solution) <= 1e-8


class TestCrossValidate:
    def test_exact_linear_case(self):
        p = zero_problem()
        u = OddPeriodicFunction(T2PI, [-1.0]).with_modes(64)
        cv = cross_validate(p, u, tol=1e-6)
        assert cv.passed
        assert cv.distance <= 1e-10

    def test_converged_candidate_costs_one_shot(self, shot_slopes):
        p = builtin("pendulum", {"a": 0.04}, period=T2PI, forcing=[(1, 0.05)])
        report = solve_picard(p)
        assert report.converged
        cv = cross_validate(p, report.solution, tol=1e-6)
        assert cv.passed
        assert shot_slopes == [cv.shooting.v0]

    def test_pendulum_solver_output(self):
        p = builtin("pendulum", {"a": 0.04}, period=T2PI, forcing=[(1, 0.05)])
        cv = cross_validate(p, solve_picard(p).solution, tol=1e-6)
        assert cv.passed
        assert cv.distance <= 1e-7

    @pytest.mark.parametrize("family,params,period,forcing", [
        ("zero", {}, T2PI, [(1, 1.0)]),
        ("zero", {}, 3.0, [(1, 0.5), (2, 0.25)]),
        ("linear", {"c": 0.01}, T2PI, [(1, 1.0)]),
        ("pendulum", {"a": 0.04}, T2PI, [(1, 0.05)]),
        ("pendulum", {"a": 0.04}, 5.0, [(2, 0.3)]),
        ("tanh_g", {"s": 0.05}, T2PI, [(1, 0.4)]),
    ])
    def test_every_certified_solve_cross_validates(self, family, params,
                                                   period, forcing):
        p = builtin(family, params, period=period, forcing=forcing)
        from oddperiodic import certify

        assert certify(p).holds
        report = solve_picard(p)
        assert report.converged
        cv = cross_validate(p, report.solution, tol=1e-6)
        assert cv.passed

    def test_corrupted_candidate_is_caught(self):
        p = builtin("pendulum", {"a": 0.04}, period=T2PI, forcing=[(1, 0.05)])
        u = solve_picard(p).solution
        bad = u + OddPeriodicFunction(T2PI, [0.0, 0.1])  # add 0.1*sin(2t)
        cv = cross_validate(p, bad, tol=1e-6)
        assert not cv.passed
        assert cv.distance == pytest.approx(0.1, rel=0.05)

    def test_oracle_never_touches_solver(self):
        # independence by inspection of imports, pinned here as a regression
        import oddperiodic.oracle as oracle_mod

        src = Path(oracle_mod.__file__).read_text()
        assert "from .solver" not in src and "from . import solver" not in src
        assert "from .operators" not in src and "from . import operators" not in src
        assert "invert_second_derivative" not in src
        assert "fixed_point_map" not in src and "solve_picard" not in src


class TestBatchedShots:
    """The vectorized RK4 of a sweep's first shots must reproduce the
    scalar integrator bit for bit, row by row."""

    def test_rows_equal_integrate_ivp_and_a_blow_up_stays_in_its_row(self):
        pend = builtin("pendulum", {"a": 0.5}, period=T2PI, forcing=[(1, 0.3)])
        rows = [
            (pend, 0.2),
            (make_problem(4.0, pend.g, [(1, 0.3)]), -0.7),  # shares pend's g
            (builtin("tanh_g", {"s": 1.0}, period=3.0, forcing=[(2, 0.5)]), 1.1),
            # u'' = u^3 + k escapes in finite time
            (builtin("cubic", {"c3": -1.0}, period=T2PI, forcing=[(1, 1.0)]), 50.0),
            (builtin("linear", {"c": 0.01}, period=9.0, forcing=[(1, 1.0)]), 0.0),
        ]
        problems = [p for p, _ in rows]
        t_end = [0.5 * p.period for p in problems]
        u, t_escape = oracle._integrate_rows(
            problems, [0.0] * len(rows), [v0 for _, v0 in rows], t_end, 1024)
        for i, (p, v0) in enumerate(rows):
            if i == 3:
                with pytest.raises(BlowUpError) as err:
                    integrate_ivp(p, 0.0, v0, t_end[i], steps=1024)
                assert t_escape[i] == err.value.t_escape
                continue
            assert np.isnan(t_escape[i])
            assert np.array_equal(u[i], integrate_ivp(p, 0.0, v0, t_end[i],
                                                      steps=1024).u)
        # without the escaping row the others come out the same
        keep = [0, 1, 2, 4]
        u_alone, _ = oracle._integrate_rows(
            [problems[i] for i in keep], [0.0] * 4, [rows[i][1] for i in keep],
            [t_end[i] for i in keep], 1024)
        assert np.array_equal(u_alone, u[keep])

    def test_shooting_distances_equal_cross_validate(self, shot_slopes):
        tanh = builtin("tanh_g", {"s": 1.0}, period=T2PI, forcing=[(1, 0.5)])
        problems = [make_problem(T, tanh.g, [(1, 0.5)], label="tanh")
                    for T in (1.0, 2.5, 4.0)]
        candidates = [solve_picard(p, modes=64).solution for p in problems]
        # a poor candidate: its midpoint misses and bisection takes over
        problems.append(problems[1])
        candidates.append(OddPeriodicFunction(2.5, [0.3]))
        # a candidate whose first shot escapes
        cubic = builtin("cubic", {"c3": -1.0}, period=T2PI, forcing=[(1, 1.0)])
        problems.append(cubic)
        candidates.append(OddPeriodicFunction(T2PI, [50.0]))
        distances = shooting_distances(problems, candidates)
        # only the poor candidate shoots again, one scalar shot at a time,
        # from the lower end of its bracket
        assert len(shot_slopes) > 1
        assert shot_slopes[0] == oracle._slope_bracket(candidates[3])[0]
        for p, u, d in zip(problems[:-1], candidates, distances):
            assert d == cross_validate(p, u).distance
        with pytest.raises(BlowUpError):
            cross_validate(cubic, candidates[-1])
        assert np.isnan(distances[-1])

    def test_a_lone_row_that_escapes(self):
        cubic = builtin("cubic", {"c3": -1.0}, period=T2PI, forcing=[(1, 1.0)])
        u, t_escape = oracle._integrate_rows([cubic], [0.0], [50.0], [np.pi], 64)
        with pytest.raises(BlowUpError) as err:
            integrate_ivp(cubic, 0.0, 50.0, np.pi, steps=64)
        assert t_escape[0] == err.value.t_escape and np.isnan(u[0, -1])
