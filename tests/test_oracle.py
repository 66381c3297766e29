"""Tests for the RK4 integrator, shooting and residual oracle."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import oddperiodic.oracle as oracle
from oddperiodic import (
    MAX_MODES,
    BlowUpError,
    OddPeriodicFunction,
    OracleInconclusiveError,
    ProblemError,
    builtin,
    cross_validate,
    differentiate,
    grid_samples,
    integrate_ivp,
    make_problem,
    odd_symmetry_defect,
    ode_residual,
    pointwise_residual,
    shoot,
    shooting_distances,
    solve,
    solve_many,
    solve_picard,
    sup_norm,
)

T2PI = 2.0 * np.pi


def zero_problem(forcing=((1, 1.0),)):
    return builtin("zero", period=T2PI, forcing=list(forcing))


def overflowing_slope_candidate():
    """cubic c3 = 1 at T = 1e-150 and the iterate solve_picard returns from
    the guess 1e300 sin(2 pi t/T): its slope u' overflows."""
    cubic = builtin("cubic", {"c3": 1.0}, period=1e-150, forcing=[(1, 1.0)])
    report = solve_picard(cubic, initial_guess=OddPeriodicFunction(1e-150, [1e300]),
                          max_iter=1)
    with pytest.raises(ValueError):
        differentiate(report.solution, 1)
    return cubic, report.solution


def two_branch_pendulum():
    """A forced pendulum outside the contraction regime with two odd
    solutions whose slopes u'(0), about 0.455 and 1.728, share the bracket
    of the second; solve reaches the second by continuation."""
    return builtin("pendulum", {"a": 0.8510919489882861},
                   period=8.377995415034054,
                   forcing=[(5, -0.18810434416878308),
                            (8, 0.4008348930932357),
                            (2, -0.44187539730181546)])


def reference_rk4(problem, v0, t_end, steps):
    """Classical RK4 stepped on numpy scalars, written out term by term.
    On a half-period grid, k at the nodes and midpoints is the full grid
    of 4*steps points up to T/2; on any other grid, k pointwise."""
    h = t_end / steps
    t = h * np.arange(steps + 1)
    if t_end == 0.5 * problem.period:
        k_grid = grid_samples(problem.k, 4 * steps)[:2 * steps + 1]
        k_node, k_half = k_grid[::2], k_grid[1::2]
    else:
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

    @pytest.mark.parametrize("t_end", [T2PI / 2, -T2PI / 2])
    def test_default_step_density(self, t_end):
        # |h| <= T/2048 backwards in time as forwards
        p = zero_problem()
        traj = integrate_ivp(p, 0.0, 1.0, t_end)
        h = traj.t[1] - traj.t[0]
        assert abs(h) <= T2PI / 2048 + 1e-15

    @pytest.mark.parametrize("t_end,steps", [
        (1.0, 8), (float("inf"), None), (float("-inf"), None),
        (float("nan"), None), (float("nan"), 1024), (float("inf"), 1024)])
    def test_rejects_too_few_steps_and_a_non_finite_end(self, t_end, steps):
        with pytest.raises(ValueError, match="steps must be|t_end must be"):
            integrate_ivp(zero_problem(), 0.0, 1.0, t_end, steps=steps)

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
    @pytest.mark.parametrize("t_end", [np.pi, 1.0])
    def test_bitwise_equal_to_numpy_scalar_loop(self, family, params, forcing,
                                                t_end):
        p = builtin(family, params, period=T2PI, forcing=forcing)
        traj = integrate_ivp(p, 0.0, 0.3, t_end, steps=1024)
        u_ref, v_ref = reference_rk4(p, 0.3, t_end, 1024)
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

    def test_no_sign_change_in_the_bracket_is_inconclusive(self, shot_slopes):
        # u(pi; v0) = (v0 + 1) pi > 0 on the whole bracket; the root -1
        # lies outside it and is never shot
        with pytest.raises(OracleInconclusiveError):
            shoot(zero_problem(), (1.0, 2.0))
        assert len(shot_slopes) > 1
        assert all(1.0 <= v0 <= 2.0 for v0 in shot_slopes)
        assert shot_slopes[-2:] == [1.0, 2.0]  # the walk ends at the ends

    def test_unreachable_tolerance_is_inconclusive(self, shot_slopes):
        # u = -1e6 sin t: rounding keeps |u(pi)| above 1e-11 at every
        # double near the root, so bisection runs out of doubles
        with pytest.raises(OracleInconclusiveError, match="bisection"):
            shoot(zero_problem(forcing=[(1, 1e6)]), (-1.5e6, -0.5e6))
        assert 2 < len(shot_slopes) < 100
        assert all(-1.5e6 <= v0 <= -0.5e6 for v0 in shot_slopes)

    def test_degenerate_seed_is_inconclusive(self):
        with pytest.raises(OracleInconclusiveError):
            shoot(zero_problem(), (0.7, 0.7))

    def test_degenerate_bracket_shoots_once(self, shot_slopes):
        # both endpoints equal the midpoint: its shot is reused for them
        with pytest.raises(OracleInconclusiveError):
            shoot(zero_problem(), (0.7, 0.7))
        assert shot_slopes == [0.7]

    def test_walk_and_bisection_shoot_each_slope_once(self, shot_slopes):
        # the midpoint -0.75 misses u(pi) = (v0 + 1) pi = 0; the walk shoots
        # -0.75 -+ d for d = 1.75e-9 * 16^j, and first crosses the root -1
        # on the lower side at j = 7, d = 0.4697...
        p = zero_problem()
        shot = shoot(p, (-2.0, 0.5))
        walk = [-0.75 + sign * 1.75e-9 * 16.0**j
                for j in range(7) for sign in (-1.0, 1.0)]
        walk.append(-0.75 - 1.75e-9 * 16.0**7)
        assert shot_slopes[:16] == pytest.approx([-0.75] + walk, rel=1e-15)
        assert len(shot_slopes) > 16
        assert len(set(shot_slopes)) == len(shot_slopes)
        assert all(-2.0 <= v0 <= 0.5 for v0 in shot_slopes)
        # plain bisection between the walk's last slope and the midpoint
        # reaches the same slope
        steps = len(shot.trajectory.t) - 1

        def F(v0):
            return integrate_ivp(p, 0.0, v0, np.pi, steps=steps).u[-1]

        a, b = shot_slopes[15], -0.75
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
        assert shot.v0 == m == shot_slopes[-1]
        # the accepted shot's own trajectory is returned
        assert shot.trajectory.v[0] == shot.v0
        assert np.array_equal(shot.trajectory.u,
                              integrate_ivp(p, 0.0, m, np.pi, steps=steps).u)
        assert shot.boundary_defect == shot.trajectory.u[-1] == fm

    def test_half_period_shots_read_one_synthesis_of_k(self, monkeypatch):
        # a period sweep's rows share k's coefficients: every shot, batched
        # or scalar (the poor row's bisection), reads the same two arrays,
        # and none evaluates k pointwise
        tanh = builtin("tanh_g", {"s": 1.0}, period=T2PI, forcing=[(1, 0.5)])
        problems = [make_problem(T, tanh.g, [(1, 0.5)], label="tanh")
                    for T in (1.0, 2.5, 4.0)]
        candidates = [r.solution for r in solve_many(problems, modes=64)]
        # a poor candidate, whose midpoint misses and goes to shoot
        problems.append(problems[1])
        candidates.append(OddPeriodicFunction(2.5, [-0.1]))
        calls, read = [], []
        original = OddPeriodicFunction.__call__
        monkeypatch.setattr(OddPeriodicFunction, "__call__",
                            lambda f, t: calls.append(f) or original(f, t))
        samples = oracle._forcing_samples
        monkeypatch.setattr(oracle, "_forcing_samples",
                            lambda *args: read.append(samples(*args)) or read[-1])
        shoot(problems[0], oracle._slope_bracket(candidates[0]))
        distances = shooting_distances(problems, candidates)
        assert calls == [] and all(np.isfinite(distances))
        # one read of the shot, one per batched row, and those of shoot's
        # shots for the poor row
        assert len(read) > 1 + len(problems)
        assert all(r is read[0] for r in read)
        assert all(a is b for r in read for a, b in zip(r, read[0]))

    @seed(20261021)
    @settings(max_examples=40, deadline=None, database=None)
    @example(period=T2PI, forcing=[(1, 1.0), (65536, 1e-3)],
             points=[0, 1, 2047, 2048])
    @given(period=st.floats(1e-3, 1e3),
           forcing=st.lists(st.tuples(st.integers(1, MAX_MODES),
                                      st.floats(-1e3, 1e3)),
                            min_size=1, max_size=3, unique_by=lambda f: f[0]),
           points=st.lists(st.integers(0, 2048), min_size=1, max_size=32))
    def test_half_period_samples_agree_with_pointwise_k(self, period, forcing,
                                                        points):
        # the FFT samples, modes above 4096 folded onto the grid, against
        # problem.k at the nodes (even j) and midpoints (odd j) of a shot's
        # grid, at a few points j: the pointwise sum rounds each phase 2*pi*n*t/T
        # (up to pi*n) by a few ulps, so the bound grows with the top mode
        p = builtin("zero", period=period, forcing=forcing)
        steps = oracle._HALF_PERIOD_STEPS
        k_node, k_half = oracle._forcing_samples(p, 0.5 * period, steps)
        h = 0.5 * period / steps
        j = np.array(points)
        t = h * (j // 2) + np.where(j % 2, 0.5 * h, 0.0)
        fft = np.where(j % 2, k_half[np.minimum(j // 2, steps - 1)],
                       k_node[j // 2])
        top = max(mode for mode, _ in forcing)
        l1 = float(np.sum(np.abs(p.k.coeffs)))
        bound = 4 * np.pi * (1 + top) * np.finfo(float).eps * l1
        assert np.max(np.abs(fft - p.k(t))) <= bound

    def test_returns_the_root_nearest_the_midpoint(self):
        p = two_branch_pendulum()
        u = solve(p, modes=128).solution
        a, b = oracle._slope_bracket(u)
        assert a < 0.455 < 1.728 < b
        assert shoot(p, (0.4, 0.5)).v0 == pytest.approx(0.4551, abs=1e-4)
        # the midpoint is the candidate's slope, on the second root's side
        assert shoot(p, (a, b)).v0 == pytest.approx(1.72793, abs=1e-5)

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

    def test_overflowing_second_derivative_reads_inf(self):
        # at T = 1e-103 the mode's (2 pi / T)^2 = 4e207 takes u'' past 1e308
        p = builtin("zero", period=1e-103, forcing=[(1, 1.0)])
        assert ode_residual(p, OddPeriodicFunction(1e-103, [-1e101])) == np.inf
        samples, residual = pointwise_residual(
            p, OddPeriodicFunction(1e-103, [-1e101]), 8)
        assert np.all(np.isfinite(samples)) and np.all(residual == np.inf)

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

    @pytest.mark.parametrize("mode,size", [(2, 0.1), (3, 1e-4)])
    def test_corrupted_candidate_is_caught(self, mode, size):
        # size*sin(mode*t) added to a genuine solution: the check fails,
        # with a finite distance, rather than ending inconclusive
        p = builtin("pendulum", {"a": 0.04}, period=T2PI, forcing=[(1, 0.05)])
        u = solve_picard(p).solution
        bad = u + OddPeriodicFunction(T2PI, [0.0] * (mode - 1) + [size])
        cv = cross_validate(p, bad, tol=1e-6)
        assert not cv.passed
        assert cv.distance == pytest.approx(size, rel=0.05)

    @pytest.mark.parametrize("problem", [
        two_branch_pendulum(),
        builtin("tanh_g", {"s": 0.49992566982513287}, period=9.49815411951235,
                forcing=[(7, -0.9751056491007373), (4, -0.8555018144815858),
                         (5, -0.8187031352608753)]),
    ], ids=["pendulum", "tanh_g"])
    def test_a_solution_among_several_passes(self, problem):
        # outside the contraction regime; the bracket of the candidate's
        # slope holds another branch's root too
        report = solve(problem, modes=128)
        assert report.converged and report.regime == "continuation"
        assert cross_validate(problem, report.solution).passed

    @seed(20261020)
    @settings(max_examples=60, deadline=None, database=None)
    @given(family=st.sampled_from([("pendulum", "a"), ("tanh_g", "s"),
                                   ("linear", "c")]),
           param=st.floats(0.0, 1.0),
           period=st.floats(1.0, 10.0),
           modes=st.lists(st.integers(1, 8), min_size=1, max_size=3,
                          unique=True),
           data=st.data())
    def test_every_accurate_solve_cross_validates(self, family, param, period,
                                                  modes, data):
        name, key = family
        amplitudes = data.draw(st.lists(st.floats(-1.0, 1.0),
                                         min_size=len(modes),
                                         max_size=len(modes)))
        p = builtin(name, {key: param}, period=period,
                    forcing=list(zip(modes, amplitudes)))
        # 500 maps per stage, not 10 000, bound the time of a row that stalls
        report = solve(p, modes=128, max_iter=500)
        if report.converged and report.residual <= 1e-9:
            assert cross_validate(p, report.solution).passed

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_refuses_a_bad_tol_before_shooting(self, monkeypatch, tol):
        def no_shot(*args):
            raise AssertionError("shot before the tolerance was checked")

        monkeypatch.setattr(oracle, "shoot", no_shot)
        u = OddPeriodicFunction(T2PI, [-1.0])
        with pytest.raises(ProblemError, match="tol must be positive") as info:
            cross_validate(zero_problem(), u, tol=tol)
        assert info.value.code == "bad_tol"

    def test_overflowing_slope_blows_up(self):
        cubic, u = overflowing_slope_candidate()
        with pytest.raises(BlowUpError):
            cross_validate(cubic, u)

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
        u, blown = oracle._integrate_rows(problems, [v0 for _, v0 in rows])
        assert blown.tolist() == [False, False, False, True, False]
        for i, (p, v0) in enumerate(rows):
            if blown[i]:
                with pytest.raises(BlowUpError):
                    integrate_ivp(p, 0.0, v0, t_end[i], steps=1024)
                continue
            # the batched shot keeps every 4th node, the last included
            assert np.array_equal(u[i], integrate_ivp(p, 0.0, v0, t_end[i],
                                                      steps=1024).u[::4])
        # without the escaping row the others come out the same
        keep = [0, 1, 2, 4]
        u_alone, _ = oracle._integrate_rows([problems[i] for i in keep],
                                            [rows[i][1] for i in keep])
        assert np.array_equal(u_alone, u[keep])

    def test_shooting_distances_equal_cross_validate(self, shot_slopes):
        tanh = builtin("tanh_g", {"s": 1.0}, period=T2PI, forcing=[(1, 0.5)])
        problems = [make_problem(T, tanh.g, [(1, 0.5)], label="tanh")
                    for T in (1.0, 2.5, 4.0)]
        candidates = [solve_picard(p, modes=64).solution for p in problems]
        # a poor candidate: its midpoint misses, and its bracket holds the
        # root at about -0.236
        problems.append(problems[1])
        candidates.append(OddPeriodicFunction(2.5, [-0.1]))
        # a candidate whose first shot escapes
        cubic = builtin("cubic", {"c3": -1.0}, period=T2PI, forcing=[(1, 1.0)])
        problems.append(cubic)
        candidates.append(OddPeriodicFunction(T2PI, [50.0]))
        distances = shooting_distances(problems, candidates)
        # only the poor candidate shoots again, one scalar shot at a time,
        # in shoot's sequence: its midpoint once more, then the walk's
        # first slope below it
        a, b = oracle._slope_bracket(candidates[3])
        m = 0.5 * (a + b)
        assert len(shot_slopes) > 2
        assert shot_slopes[:2] == [m, m - 1e-9 * (1.0 + abs(m))]
        for p, u, d in zip(problems[:-1], candidates, distances):
            assert d == cross_validate(p, u).distance
        with pytest.raises(BlowUpError):
            cross_validate(cubic, candidates[-1])
        assert np.isnan(distances[-1])

    def test_only_a_missed_midpoint_calls_shoot(self, monkeypatch):
        tanh = builtin("tanh_g", {"s": 1.0}, period=T2PI, forcing=[(1, 0.5)])
        problems = [make_problem(T, tanh.g, [(1, 0.5)], label="tanh")
                    for T in (1.0, 2.5, 4.0)]
        candidates = [solve_picard(p, modes=64).solution for p in problems]
        # two poor candidates, whose midpoints miss and whose brackets hold
        # the roots at about -0.236 and -0.526
        problems += [problems[1], problems[2]]
        candidates += [OddPeriodicFunction(2.5, [-0.1]),
                       OddPeriodicFunction(4.0, [-0.3])]
        # a candidate whose first shot escapes
        problems.append(builtin("cubic", {"c3": -1.0}, period=T2PI,
                                forcing=[(1, 1.0)]))
        candidates.append(OddPeriodicFunction(T2PI, [50.0]))
        calls = []
        scalar_shoot = oracle.shoot

        def counting(problem, v0_bracket):
            calls.append((problem, v0_bracket))
            return scalar_shoot(problem, v0_bracket)

        monkeypatch.setattr(oracle, "shoot", counting)
        distances = shooting_distances(problems, candidates)
        assert calls == [(problems[i], oracle._slope_bracket(candidates[i]))
                         for i in (3, 4)]
        assert all(np.isfinite(distances[:5])) and np.isnan(distances[5])

    @pytest.mark.parametrize("rows,candidates", [(2, 1), (1, 2)])
    def test_lengths_must_match(self, monkeypatch, rows, candidates):
        def no_shots(*args):
            raise AssertionError("shot before the lengths were checked")

        monkeypatch.setattr(oracle, "_integrate_rows", no_shots)
        monkeypatch.setattr(oracle, "integrate_ivp", no_shots)
        p, u = zero_problem(), OddPeriodicFunction(T2PI, [-1.0])
        with pytest.raises(ValueError, match=f"{rows} problems but "
                                             f"{candidates} candidates"):
            shooting_distances([p] * rows, [u] * candidates)

    def test_no_rows(self):
        assert shooting_distances([], []) == []

    def test_an_overflowing_slope_is_a_nan_row(self):
        cubic, bad = overflowing_slope_candidate()
        pend = builtin("pendulum", {"a": 0.04}, period=T2PI, forcing=[(1, 0.05)])
        u = solve_picard(pend).solution
        (alone,) = shooting_distances([pend], [u])
        distances = shooting_distances([cubic, pend], [bad, u])
        assert np.isnan(distances[0]) and distances[1] == alone

    def test_a_lone_row_that_escapes(self):
        cubic = builtin("cubic", {"c3": -1.0}, period=T2PI, forcing=[(1, 1.0)])
        u, blown = oracle._integrate_rows([cubic], [50.0])
        with pytest.raises(BlowUpError):
            integrate_ivp(cubic, 0.0, 50.0, np.pi, steps=1024)
        assert blown.tolist() == [True] and not np.isfinite(u[0, -1])
