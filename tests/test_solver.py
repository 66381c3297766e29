"""Tests for Picard iteration, continuation, certificates and bounds."""

import inspect

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oddperiodic import (
    CertificateError,
    MajorantError,
    Nonlinearity,
    OddPeriodicFunction,
    ProblemError,
    apriori_bound,
    builtin,
    certify,
    differentiate,
    fixed_point_map,
    from_samples,
    grid_samples,
    make_problem,
    nonlinear_rhs,
    shoot,
    shooting_distances,
    solve,
    solve_continuation,
    solve_many,
    solve_picard,
    sup_norm,
    uniqueness_probe,
)
from oddperiodic.operators import _forcing, _nonlinear_parts
from oddperiodic.problems import FAMILIES, MAX_MODES, _row_values

T2PI = 2.0 * np.pi


def pendulum(a=0.04, amp=0.05, T=T2PI):
    return builtin("pendulum", {"a": a}, period=T, forcing=[(1, amp)])


def tanh_at_2pi():
    """``configs/tanh.json``: outside the certificate, inside the a-priori
    bound."""
    return builtin("tanh_g", {"s": 1.0}, period=T2PI, forcing=[(1, 0.5)])


class TestCertify:
    def test_weak_pendulum_holds(self):
        cert = certify(pendulum())
        assert cert.lipschitz_g == 0.04
        assert cert.factor == pytest.approx(0.7895683520871487, rel=1e-14)
        assert cert.holds

    def test_zero_g_always_holds(self):
        for T in (0.1, 1.0, 100.0):
            cert = certify(builtin("zero", period=T, forcing=[(1, 1.0)]))
            assert cert.factor == 0.0 and cert.holds

    def test_classical_pendulum_fails_at_this_period(self):
        cert = certify(pendulum(a=1.0))
        assert cert.factor == pytest.approx(19.739208802178716, rel=1e-14)
        assert not cert.holds

    def test_no_derivative_bound_errors(self):
        p = builtin("cubic", {"c3": 1.0}, period=T2PI, forcing=[(1, 1.0)])
        with pytest.raises(CertificateError) as e:
            certify(p)
        # the refusal carries its record code
        assert e.value.code == "no_derivative_bound"
        assert isinstance(e.value, ProblemError) and isinstance(e.value, ValueError)


class TestSolvePicard:
    def test_affine_problem_lands_immediately(self):
        p = builtin("zero", period=T2PI, forcing=[(1, 1.0)])
        report = solve_picard(p)
        assert report.converged
        exact = OddPeriodicFunction(T2PI, [-1.0]).with_modes(report.solution.modes)
        assert sup_norm(report.solution - exact) < 1e-13
        # the first application already lands on the fixed point
        assert report.step_norms[0] == pytest.approx(1.0, abs=1e-14)
        assert report.step_norms[1] < 1e-14

    def test_linear_fixed_point_analytic(self):
        p = builtin("linear", {"c": 0.01}, period=T2PI, forcing=[(1, 1.0)])
        report = solve_picard(p)
        exact = OddPeriodicFunction(T2PI, [1.0 / (0.01 - 1.0)])
        assert sup_norm(report.solution - exact.with_modes(report.solution.modes)) < 1e-8

    def test_certified_regime_report(self):
        report = solve_picard(pendulum())
        assert report.converged
        assert report.regime == "certified_contraction"
        assert report.certificate is not None and report.certificate.holds
        assert report.residual <= 1e-8
        assert report.failure is None

    def test_certified_step_ratio_invariant(self):
        report = solve_picard(pendulum())
        lam = report.certificate.factor
        s = report.step_norms
        for j in range(1, len(s) - 1):
            assert s[j + 1] <= lam * s[j] * (1 + 1e-8)

    def test_fixed_point_residual_invariant(self):
        tol = 1e-12
        p = pendulum()
        report = solve_picard(p, tol=tol)
        gap = sup_norm(report.solution - fixed_point_map(p, report.solution))
        assert gap <= 10 * tol

    def test_uncertified_flag(self):
        report = solve_picard(builtin("tanh_g", {"s": 1.0}, period=T2PI,
                                      forcing=[(1, 0.5)]))
        assert report.regime == "uncertified_picard"
        assert report.converged  # converges despite the lapsed certificate

    def test_max_iter_reported_not_raised(self):
        report = solve_picard(pendulum(), max_iter=2, tol=1e-15)
        assert not report.converged
        assert report.failure == "max_iter"
        assert report.iterations == 2

    def test_divergence_reported_with_diagnostics(self):
        p = builtin("cubic", {"c3": 1.0}, period=T2PI, forcing=[(1, 5.0)])
        report = solve_picard(p)
        assert not report.converged
        assert report.failure == "non_finite"
        assert len(report.step_norms) >= 2
        assert report.step_norms[-1] > report.step_norms[0]  # growing steps

    def test_custom_initial_guess(self):
        p = pendulum()
        guess = OddPeriodicFunction(T2PI, [3.0, -2.0])
        r1 = solve_picard(p, initial_guess=guess)
        r2 = solve_picard(p)
        assert sup_norm(r1.solution - r2.solution) <= 1e-10

    def test_high_truncation_order_agrees_with_moderate(self):
        high = solve_picard(pendulum(), modes=4096)
        low = solve_picard(pendulum(), modes=1024)
        assert high.converged and low.converged
        assert high.solution.modes == 4096
        assert sup_norm(high.solution - low.solution) <= 1e-10

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            solve_picard(pendulum(), tol=0.0)


class TestSolveContinuation:
    def test_zero_g_matches_picard(self):
        p = builtin("zero", period=T2PI, forcing=[(1, 1.0)])
        rc = solve_continuation(p)
        rp = solve_picard(p)
        assert rc.converged
        assert sup_norm(rc.solution - rp.solution) < 1e-12

    def test_tanh_reaches_endpoint_with_bound(self):
        p = builtin("tanh_g", {"s": 1.0}, period=T2PI, forcing=[(1, 0.5)])
        report = solve_continuation(p)
        assert report.converged
        assert report.lambda_path[-1] == 1.0
        assert report.residual <= 1e-8
        assert report.apriori_bound == pytest.approx(29.608813203268074, rel=1e-13)
        assert report.max_iterate_norm <= report.apriori_bound
        # at lam = 1 the iterate is a fixed point of the unscaled map
        gap = sup_norm(report.solution - fixed_point_map(p, report.solution))
        assert gap <= 10 * 1e-12

    def test_certified_problem_agrees_with_picard(self):
        p = pendulum()
        rc = solve_continuation(p)
        rp = solve_picard(p)
        assert sup_norm(rc.solution - rp.solution) <= 1e-10

    def test_lambda_path_is_increasing_to_one(self):
        p = builtin("tanh_g", {"s": 1.0}, period=T2PI, forcing=[(1, 0.5)])
        path = solve_continuation(p).lambda_path
        assert all(a < b for a, b in zip(path, path[1:]))
        assert path[-1] == 1.0

    def test_lambda_path_steps_by_a_tenth(self):
        # every stage of this problem converges: the step is never halved
        p = builtin("tanh_g", {"s": 1.0}, period=T2PI, forcing=[(1, 0.5)])
        path = solve_continuation(p).lambda_path
        assert path == pytest.approx([0.1 * k for k in range(1, 11)], abs=1e-12)

    def test_requires_sublinearity_declaration(self):
        p = builtin("cubic", {"c3": 1.0}, period=T2PI, forcing=[(1, 1.0)])
        with pytest.raises(MajorantError):
            solve_continuation(p)

    def test_step_underflow_reported_not_raised(self):
        # a 1-iteration budget makes every stage fail until the step underflows
        p = builtin("tanh_g", {"s": 1.0}, period=T2PI, forcing=[(1, 0.5)])
        report = solve_continuation(p, max_iter_per_step=1)
        assert not report.converged
        assert report.failure == "step_underflow"
        assert report.lambda_path == [] or report.lambda_path[-1] < 1.0

    def test_apriori_violation_reported_not_raised(self, monkeypatch):
        import oddperiodic.solver as solver

        p = tanh_at_2pi()
        monkeypatch.setattr(p, "apriori_bound", 1e-3)
        applied = []
        nonlinear_parts = solver._nonlinear_parts

        def counting(g, rows, forcing):
            applied.append(len(rows))
            return nonlinear_parts(g, rows, forcing)

        monkeypatch.setattr(solver, "_nonlinear_parts", counting)
        report = solve_continuation(p, modes=64)
        assert (report.converged, report.failure, report.lambda_path) == \
            (False, "apriori_violation", [])
        # the maps of the stage that broke the bound still count
        assert report.iterations == sum(applied) > 0
        assert report.max_iterate_norm > report.apriori_bound == 1e-3

    def test_same_stage_cap_as_solve(self):
        def default(func, name):
            return inspect.signature(func).parameters[name].default

        assert default(solve_continuation, "max_iter_per_step") == \
            default(solve, "max_iter") == default(solve_many, "max_iter")

    def test_rejects_bad_tol_like_picard(self):
        p = builtin("tanh_g", {"s": 1.0}, period=T2PI, forcing=[(1, 0.5)])
        for method in ("picard", "continuation"):
            with pytest.raises(ValueError, match="tol must be positive"):
                solve(p, method=method, tol=-1)


# each entry point that takes a working truncation order
MODES_CALLS = {
    "solve": lambda p, modes: solve(p, modes=modes),
    "solve_many": lambda p, modes: solve_many([p], modes=modes),
    "solve_picard": lambda p, modes: solve_picard(p, modes=modes),
    "solve_continuation": lambda p, modes: solve_continuation(p, modes=modes),
    "uniqueness_probe": lambda p, modes: uniqueness_probe(p, 3, modes=modes),
}
BAD_MODES = (0, -3, MAX_MODES + 1)


class TestSolveLimits:
    """The library refuses the limits the CLI refuses, with the CLI's
    codes (bad_modes, bad_tol, bad_max_iter), instead of reporting on
    them, and before any row is built."""

    @pytest.mark.parametrize("call, code, match", [
        (lambda p: solve(p, max_iter=-3), "bad_max_iter", "iteration cap"),
        (lambda p: solve(p, tol=float("inf")), "bad_tol", "tol must be positive"),
        (lambda p: solve_continuation(p, max_iter_per_step=0), "bad_max_iter",
         "iteration cap"),
    ] + [(lambda p, f=f, m=m: f(p, m), "bad_modes", "modes must be in")
         for f in MODES_CALLS.values() for m in BAD_MODES],
        ids=["negative_max_iter", "infinite_tol", "zero_cap_per_stage"]
        + [f"{name}_modes_{m}" for name in MODES_CALLS for m in BAD_MODES])
    def test_refused(self, monkeypatch, call, code, match):
        import oddperiodic.solver as solver

        def no_rows(*args, **kwargs):
            raise AssertionError("a row was built before the limits were checked")

        for name in ("_picard_row", "_ContinuationRow", "_drive"):
            monkeypatch.setattr(solver, name, no_rows)
        # tanh at 2*pi: continuation runs, and the certificate fails, so
        # uniqueness_probe refuses the limit before the certificate
        p = builtin("tanh_g", {"s": 1.0}, period=T2PI, forcing=[(1, 0.5)])
        with pytest.raises(ProblemError, match=match) as info:
            call(p)
        assert info.value.code == code


class TestAprioriBound:
    def test_zero_g_bound_and_consistency(self):
        p = builtin("zero", period=T2PI, forcing=[(1, 1.0)])
        bound = apriori_bound(p)
        assert bound == pytest.approx(19.739208802178716, rel=1e-13)
        assert sup_norm(solve_picard(p).solution) <= bound

    def test_tanh_bound_value(self):
        p = builtin("tanh_g", {"s": 1.0}, period=T2PI, forcing=[(1, 0.5)])
        assert apriori_bound(p) == pytest.approx(29.608813203268074, rel=1e-13)

    def test_trivial_problem_zero_bound(self):
        p = builtin("zero", period=T2PI, forcing=[])
        assert apriori_bound(p) == 0.0
        report = solve_picard(p)
        assert sup_norm(report.solution) == 0.0

    def test_unusable_epsilon_errors(self):
        # linear slope above 2/T^2: the only declared pair is unusable
        p = builtin("linear", {"c": 0.1}, period=T2PI, forcing=[(1, 1.0)])
        assert 0.1 > 2.0 / T2PI**2
        with pytest.raises(MajorantError):
            apriori_bound(p)

    def test_two_mode_forcing_bound_exceeds_the_theorems(self):
        # k = sin t + 0.5 sin 3t peaks at 1.0758, which the theorem's bound
        # (T^2/2) * (sup|k| + 1) = 40.975 uses; sum |b_n| = 1.5 gives 49.348,
        # and a grid maximum of 1.0607 gave 40.676, below the theorem's value
        p = builtin("tanh_g", {"s": 1.0}, period=T2PI,
                    forcing=[(1, 1.0), (3, 0.5)])
        assert apriori_bound(p) >= 40.975
        assert apriori_bound(p) == pytest.approx(49.34802200544679, rel=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(s=st.floats(0.1, 3.0), period=st.floats(0.5, 20.0),
           forcing=st.lists(st.tuples(st.integers(1, 16),
                                      st.floats(-10.0, 10.0)),
                            min_size=1, max_size=8,
                            unique_by=lambda pair: pair[0]))
    def test_bound_is_at_least_the_theorems(self, s, period, forcing):
        p = builtin("tanh_g", {"s": s}, period=period, forcing=forcing)
        nb = period**2 / 2
        k_max = float(np.max(np.abs(grid_samples(p.k, 2**16))))
        # tanh_g declares the one pair (0, |s|), usable at every period
        theorem = min(nb * (k_max + M) for eps, M in p.majorants)
        # a relative 1e-12 absorbs the rounding of the grid's own maximum
        assert apriori_bound(p) >= theorem * (1.0 - 1e-12)

    def test_minimum_over_pairs(self):
        from oddperiodic import parse_problem

        cfg = {"family": "pendulum", "params": {"a": 0.04},
               "period": float(T2PI), "forcing": [{"mode": 1, "amplitude": 0.05}],
               "majorants": [{"eps": 0.0, "M": 10.0}]}
        p = parse_problem(cfg)
        # family pair (0, 0.04) beats the declared (0, 10)
        expected = (T2PI**2 / 2) * (0.05 + 0.04)
        assert apriori_bound(p) == pytest.approx(expected, rel=1e-12)


class TestUniquenessProbe:
    def test_pendulum_five_starts_agree(self):
        result = uniqueness_probe(pendulum(), 5)
        assert result.agrees
        assert result.max_distance <= 1e-10

    def test_affine_problem_three_starts(self):
        p = builtin("zero", period=T2PI, forcing=[(1, 1.0)])
        result = uniqueness_probe(p, 3)
        assert result.agrees
        assert result.max_distance <= 1e-13

    def test_linear_common_limit(self):
        p = builtin("linear", {"c": 0.01}, period=T2PI, forcing=[(1, 1.0)])
        result = uniqueness_probe(p, 4)
        assert result.agrees
        report = solve_picard(p)
        exact = OddPeriodicFunction(T2PI, [1.0 / (0.01 - 1.0)])
        assert sup_norm(report.solution - exact.with_modes(report.solution.modes)) < 1e-8

    def test_seed_reproducibility(self):
        r1 = uniqueness_probe(pendulum(), 3, seed=7)
        r2 = uniqueness_probe(pendulum(), 3, seed=7)
        assert r1.max_distance == r2.max_distance

    def test_requires_certificate(self):
        with pytest.raises(ValueError):
            uniqueness_probe(pendulum(a=1.0), 3)

    def test_requires_two_trials(self):
        with pytest.raises(ValueError):
            uniqueness_probe(pendulum(), 1)

    def test_trials_are_one_batch_bitwise_as_separate_solves(self,
                                                             monkeypatch):
        import oddperiodic.solver as solver

        p, trials, seed = pendulum(), 6, 3
        rng = np.random.default_rng(seed)
        solutions = [solve_picard(p, initial_guess=OddPeriodicFunction(
            T2PI, rng.uniform(-10.0, 10.0, 8))).solution
            for _ in range(trials)]
        expected = 0.0
        for i in range(trials):
            for j in range(i + 1, trials):
                expected = max(expected, sup_norm(solutions[i] - solutions[j]))
        batches = []
        drive = solver._drive

        def counted(rows, *args):
            batches.append(len(rows))
            return drive(rows, *args)

        monkeypatch.setattr(solver, "_drive", counted)
        result = uniqueness_probe(p, trials, seed=seed)
        assert batches == [trials]
        assert result.max_distance.hex() == expected.hex()
        assert (result.agrees, result.trials) == (expected <= 1e-10, trials)


def l1_norm(f):
    """sum|b_n|: the solvers' step norm, a bound on sup|f|."""
    return float(np.sum(np.abs(f.coeffs)))


def grid_max(f):
    """max|f| on the map's 4N sampling grid: the solvers' iterate norm."""
    return float(np.max(np.abs(grid_samples(f, 4 * f.modes))))


def reference_picard(problem, modes, tol=1e-12, max_iter=10_000):
    """Picard iteration on series objects through the public map."""
    u = OddPeriodicFunction.zero(problem.period, max(modes, problem.k.modes))
    step_norms, max_norm = [], 0.0
    for iterations in range(1, max_iter + 1):
        max_norm = max(max_norm, grid_max(u))
        u_next = fixed_point_map(problem, u)
        step_norms.append(l1_norm(u_next - u))
        u = u_next
        if step_norms[-1] < tol:
            break
    return u, step_norms, max(max_norm, grid_max(u)), iterations


def reference_continuation(problem, modes, tol=1e-12, max_iter=5000):
    """Continuation with damped Picard stages on series objects, from a
    lambda step of 0.1 halved down to 1e-4; also returns how many stages
    ended with the damping theta at 0.5."""
    u = OddPeriodicFunction.zero(problem.period, max(modes, problem.k.modes))
    lam, step, path, damped = 0.0, 0.1, [], 0
    max_norm, step_norms, iterations = 0.0, [], 0
    while step >= 1e-4:
        lam_next = lam + step
        if lam_next >= 1.0 - 1e-12:
            lam_next = 1.0
        v, theta, prev, reversals = u, 1.0, None, 0
        hist, ok = [], False
        for _ in range(max_iter):
            max_norm = max(max_norm, grid_max(v))
            step_vec = lam_next * fixed_point_map(problem, v) - v
            if prev is not None and theta == 1.0:
                if float(np.dot(step_vec.coeffs, prev.coeffs)) < 0.0:
                    reversals += 1
                    theta = 0.5 if reversals >= 3 else theta
                else:
                    reversals = 0
            prev = step_vec
            v = v + theta * step_vec
            hist.append(theta * l1_norm(step_vec))
            if hist[-1] < tol:
                ok = True
                break
        iterations += len(hist)
        max_norm = max(max_norm, grid_max(v))
        damped += theta == 0.5
        if not ok:
            step *= 0.5
            continue
        lam, u, step_norms = lam_next, v, hist
        path.append(lam)
        if lam >= 1.0:
            break
    return u, step_norms, max_norm, iterations, path, damped


class TestCoefficientLoops:
    """The solvers iterate on coefficient arrays; they must reproduce the
    same iteration written with series objects bit for bit."""

    # at 1024 modes the map's synthesis runs on 4096 points
    @pytest.mark.parametrize("problem,regime,modes", [
        (pendulum(), "certified_contraction", 64),
        (pendulum(), "certified_contraction", 1024),
        (builtin("linear", {"c": 0.1}, period=T2PI, forcing=[(1, 1.0), (3, 0.2)]),
         "uncertified_picard", 64),
    ], ids=["pendulum", "pendulum-1024", "linear"])
    def test_picard_matches_series_loop(self, problem, regime, modes):
        report = solve_picard(problem, modes=modes)
        u, step_norms, max_norm, iterations = reference_picard(problem, modes)
        assert report.regime == regime and report.converged
        assert np.array_equal(report.solution.coeffs, u.coeffs)
        assert np.array_equal(report.step_norms, step_norms)
        assert report.max_iterate_norm == max_norm
        assert report.iterations == iterations

    @pytest.mark.parametrize("problem,max_iter,failure", [
        # g' < 0 makes successive steps alternate, so every stage damps
        (builtin("tanh_g", {"s": -1.0}, period=3.0, forcing=[(1, 0.5)]),
         5000, None),
        # some runs of reversals are broken by a step that does not
        # reverse, and only three in a row damp a stage
        (builtin("pendulum", {"a": 4.0}, period=12.0, forcing=[(1, 0.5)]),
         60, "step_underflow"),
    ], ids=["tanh", "pendulum-broken-runs"])
    def test_continuation_matches_series_loop(self, problem, max_iter,
                                              failure):
        report = solve_continuation(problem, modes=64,
                                    max_iter_per_step=max_iter)
        u, step_norms, max_norm, iterations, path, damped = \
            reference_continuation(problem, 64, max_iter=max_iter)
        assert damped > 0
        assert report.failure == failure
        assert report.converged == (path[-1] == 1.0) == (failure is None)
        assert np.array_equal(report.solution.coeffs, u.coeffs)
        assert np.array_equal(report.step_norms, step_norms)
        assert report.max_iterate_norm == max_norm
        assert report.iterations == iterations
        assert report.lambda_path == path

    @pytest.mark.parametrize("modes", [1, 5, 64, 100])
    def test_sup_norm_is_the_grid_maximum(self, rng, modes):
        coeffs = rng.uniform(-1.0, 1.0, modes)
        P = max(8 * modes, 8)
        for f in (OddPeriodicFunction(3.0, coeffs),
                  differentiate(OddPeriodicFunction(3.0, coeffs), 1)):
            assert sup_norm(f) == np.max(np.abs(grid_samples(f, P)))

    @pytest.mark.parametrize("g", [
        # finite, but above the 1e300 cap as soon as |u| > 0.5
        Nonlinearity("step", lambda x: 1e305 * np.sign(x) * (np.abs(x) > 0.5),
                     lambda x: np.zeros_like(x)),
        # overflows to inf
        Nonlinearity("sinh", np.sinh, np.cosh),
    ], ids=["cap", "overflow"])
    def test_blow_up_ends_non_finite(self, g):
        p = make_problem(T2PI, g, [(1, 50.0)])
        report = solve_picard(p, modes=64)
        assert not report.converged
        assert report.failure == "non_finite"
        assert report.iterations == len(report.step_norms) + 1
        assert np.all(np.isfinite(report.solution.coeffs))


FAMILY_ROWS = [
    # (family, params, forcing, periods straddling T* = sqrt(2 / sup|g'|))
    ("pendulum", {"a": 0.04}, [(1, 0.05)], (1.0, 12.0)),     # T* = 7.07
    ("tanh_g", {"s": 1.0}, [(1, 0.5)], (0.5, 6.0)),          # T* = 1.41
    ("linear", {"c": 0.01}, [(1, 1.0)], (2.0, 20.0)),        # T* = 14.1
]


def assert_same_report(batched, single):
    assert np.array_equal(batched.solution.coeffs, single.solution.coeffs)
    assert batched.solution.period == single.solution.period
    assert batched.iterations == single.iterations
    assert np.array_equal(batched.step_norms, single.step_norms)
    assert batched.max_iterate_norm == single.max_iterate_norm
    assert batched.lambda_path == single.lambda_path
    assert batched.certificate == single.certificate
    assert batched.residual == single.residual
    assert (batched.regime, batched.converged, batched.failure,
            batched.apriori_bound) == (single.regime, single.converged,
                                       single.failure, single.apriori_bound)


# finite everywhere, but beyond the 1e300 cap as soon as |u| > 3
CLIPPED = Nonlinearity("clipped",
                       lambda x: np.where(np.abs(x) > 3.0, 1e305 * np.sign(x), x),
                       lambda x: np.where(np.abs(x) > 3.0, 0.0, 1.0),
                       majorants=((0.0, 1e305),))


class TestSolveMany:
    """Rows solved in lockstep must come out bitwise as separate solves."""

    @pytest.mark.parametrize("family,params,forcing,span", FAMILY_ROWS,
                             ids=[row[0] for row in FAMILY_ROWS])
    def test_period_sweep_equals_separate_solves(self, family, params,
                                                 forcing, span):
        base = builtin(family, params, period=T2PI, forcing=forcing)
        problems = [make_problem(T, base.g, forcing)
                    for T in np.linspace(*span, 12)]
        reports = solve_many(problems, modes=64)
        regimes = {r.regime for r in reports}
        assert "certified_contraction" in regimes and len(regimes) > 1
        for problem, report in zip(problems, reports):
            assert_same_report(report, solve(problem, modes=64))

    def test_rows_of_different_g_and_size_equal_separate_solves(self):
        problems = [pendulum(a=a) for a in (0.02, 0.3, 1.0)]
        # 80 forcing modes put this row in a batch of its own size
        problems.append(builtin("tanh_g", {"s": 1.0}, period=4.0,
                                forcing=[(1, 0.5), (80, 0.01)]))
        problems.append(builtin("cubic", {"c3": 1.0}, period=T2PI,
                                forcing=[(1, 5.0)]))
        for method in ("auto", "picard", "continuation"):
            rows = problems[:-1] if method == "continuation" else problems
            reports = solve_many(rows, method=method, modes=32, max_iter=400)
            for problem, report in zip(rows, reports):
                assert_same_report(report, solve(problem, method=method,
                                                  modes=32, max_iter=400))

    def test_one_row_is_solve_picard_and_solve_continuation(self):
        p = builtin("tanh_g", {"s": 1.0}, period=T2PI, forcing=[(1, 0.5)])
        assert_same_report(solve(p, method="picard", modes=32),
                           solve_picard(p, modes=32))
        assert_same_report(solve(p, method="continuation", modes=32),
                           solve_continuation(p, modes=32))

    def test_every_row_outcome_in_one_batch(self):
        # one batch of 32 modes whose rows end in each way a row can end
        max_iter = 30
        linear = Nonlinearity("linear", lambda x: 0.9 * np.asarray(x),
                              lambda x: np.full_like(np.asarray(x, dtype=float), 0.9),
                              gprime_bound=0.9)
        rows = {
            "picard converged": pendulum(T=2.0),
            "picard max_iter": make_problem(T2PI, linear, [(1, 1.0)]),
            "picard non_finite": make_problem(
                T2PI, Nonlinearity("sinh", np.sinh, np.cosh), [(1, 50.0)]),
            # g' < 0: its stages damp, and some fail at max_iter and halve
            "continuation halved": builtin("tanh_g", {"s": -2.0}, period=6.0,
                                           forcing=[(1, 0.5)]),
            "continuation step_underflow": make_problem(T2PI, CLIPPED, [(1, 5.0)]),
        }
        reports = dict(zip(rows, solve_many(list(rows.values()), modes=32,
                                            max_iter=max_iter)))
        outcomes = {name: (r.regime == "continuation", r.converged, r.failure)
                    for name, r in reports.items()}
        assert outcomes == {
            "picard converged": (False, True, None),
            "picard max_iter": (False, False, "max_iter"),
            "picard non_finite": (False, False, "non_finite"),
            "continuation halved": (True, True, None),
            "continuation step_underflow": (True, False, "step_underflow"),
        }
        halved = reports["continuation halved"]
        assert len(halved.lambda_path) > 10 and halved.iterations > max_iter
        # a blown application counts, but has no step norm
        blown = reports["picard non_finite"]
        assert blown.iterations == len(blown.step_norms) + 1
        capped = reports["picard max_iter"]
        assert capped.iterations == len(capped.step_norms) == max_iter
        for name, problem in rows.items():
            assert_same_report(reports[name], solve(problem, modes=32,
                                                    max_iter=max_iter))
        u, step_norms, max_norm, iterations = reference_picard(
            rows["picard converged"], 32, max_iter=max_iter)
        r = reports["picard converged"]
        assert np.array_equal(r.solution.coeffs, u.coeffs)
        assert (r.step_norms, r.max_iterate_norm, r.iterations) == \
            (step_norms, max_norm, iterations)
        u, step_norms, max_norm, iterations, path, damped = \
            reference_continuation(rows["continuation halved"], 32,
                                   max_iter=max_iter)
        assert damped > 0
        assert np.array_equal(halved.solution.coeffs, u.coeffs)
        assert (halved.step_norms, halved.max_iterate_norm, halved.iterations,
                halved.lambda_path) == (step_norms, max_norm, iterations, path)

    def test_one_map_call_and_no_norm_call_per_tick(self, monkeypatch):
        import oddperiodic.solver as solver

        calls = {"_nonlinear_parts": 0, "sup_norm": 0, "_half_grid": 0,
                 "_end_stages": 0}
        for owner, name in ((solver, "_nonlinear_parts"), (solver, "sup_norm"),
                            (solver, "_half_grid"),
                            (solver._Batch, "_end_stages")):
            def counted(*args, _name=name, _fn=getattr(owner, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(owner, name, counted)
        base = pendulum()
        problems = [make_problem(T, base.g, [(1, 0.05)])
                    for T in np.linspace(1.0, 12.0, 12)]
        reports = solve_many(problems, modes=64)
        assert all(r.converged for r in reports)
        assert {r.regime for r in reports} == {"certified_contraction",
                                               "continuation"}
        ticks = max(r.iterations for r in reports)
        # the step norms take no transform; the iterates' grid maxima come
        # with the map, and with one synthesis only where stages end
        ends = calls["_end_stages"]
        assert 0 < ends < ticks
        assert calls == {"_nonlinear_parts": ticks, "sup_norm": 0,
                         "_half_grid": ends, "_end_stages": ends}

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            solve(pendulum(), method="newton")

    def test_g_of_a_batch_equals_per_row_calls(self):
        x = np.random.default_rng(5).uniform(-30.0, 30.0, (40, 256))
        gs = [factory(*[0.7] * len(names))
              for factory, names in FAMILIES.values()]
        for g in gs:
            batched = g.value(x)
            for row, out in zip(x, batched):
                assert np.array_equal(out, g.value(row))
        # rows of different g: one call per g, the same values
        mixed = [gs[i % len(gs)] for i in range(40)]
        values = _row_values(mixed)(x)
        for g, row, out in zip(mixed, x, values):
            assert np.array_equal(out, g.value(row))

    @pytest.mark.parametrize("modes", [64, 16384])
    def test_reversal_dots_of_a_batch_equal_np_dot(self, modes):
        # the driver's reversal test takes each row's dot product as a row
        # times a column; the reference loop takes np.dot of the pair
        a, b = np.random.default_rng(modes).normal(size=(2, 20, modes))
        b[3] = -a[3][::-1]  # a dot that cancels to near zero
        dots = (a[:, np.newaxis] @ b[..., np.newaxis])[:, 0, 0]
        for x, y, d in zip(a, b, dots):
            assert d.tobytes() == np.dot(x, y).tobytes()
        # the driver's l1 step norms are row sums of the batch; the
        # reference loop takes np.sum of one row
        for x, n in zip(a, np.abs(a).sum(axis=1)):
            assert n.tobytes() == np.sum(np.abs(x)).tobytes()

    def test_a_failing_row_leaves_the_others_alone(self):
        good, bad = pendulum(), builtin("cubic", {"c3": 1.0}, period=T2PI,
                                        forcing=[(1, 1.0)])
        rows = np.array([np.full(16, 0.1), np.full(16, 1e120)])
        out, blown, norms = _nonlinear_parts(
            _row_values([good.g, bad.g]), rows,
            np.array([_forcing(good, 16), _forcing(bad, 16)]))
        u = OddPeriodicFunction(T2PI, rows[0])
        assert out[0].tobytes() == nonlinear_rhs(good, u).coeffs.tobytes()
        assert blown.tolist() == [False, True]
        assert norms.tolist() == [grid_max(u), grid_max(
            OddPeriodicFunction(T2PI, rows[1]))]

    @pytest.mark.parametrize("method,failure", [
        ("picard", "non_finite"), ("continuation", "step_underflow")])
    def test_a_row_whose_iterate_overflows_ends_alone(self, method, failure):
        # at T = 1e150 the inverse's gains (T/2 pi n)^2 reach 2.5e297, and
        # the iterate overflows after them, not in g
        linear = {"c": 0.01}
        overflowing = builtin("linear", linear, period=1e150,
                              forcing=[(1, 1.0)])
        healthy = builtin("linear", linear, period=T2PI, forcing=[(1, 1.0)])
        blown, report = solve_many([overflowing, healthy], method=method)
        assert (blown.converged, blown.failure) == (False, failure)
        assert report.converged
        assert_same_report(report, solve(healthy, method=method))

    def test_an_apriori_violation_ends_its_row_alone(self, monkeypatch):
        healthy, violating = tanh_at_2pi(), tanh_at_2pi()
        monkeypatch.setattr(violating, "apriori_bound", 1e-3)
        broken, report = solve_many([violating, healthy],
                                    method="continuation", modes=64)
        assert_same_report(report, solve(healthy, method="continuation",
                                         modes=64))
        # the first stage converges above the bound: nothing is accepted
        assert (broken.converged, broken.failure, broken.lambda_path,
                broken.step_norms) == (False, "apriori_violation", [], [])
        assert not broken.solution.coeffs.any()
        assert broken.iterations > 0


class TestSolvePolicy:
    """``solve(method="auto")``: one test per branch of the policy."""

    def test_certified_pendulum_goes_to_picard(self):
        report = solve(pendulum(), modes=32)
        assert report.regime == "certified_contraction" and report.converged
        assert report.lambda_path == [] and report.certificate.holds

    def test_uncertified_tanh_goes_to_continuation(self):
        p = builtin("tanh_g", {"s": 1.0}, period=T2PI, forcing=[(1, 0.5)])
        report = solve(p, modes=32)
        assert report.regime == "continuation" and report.converged
        assert report.lambda_path[-1] == 1.0
        assert not report.certificate.holds
        assert report.apriori_bound == apriori_bound(p)

    def test_linear_beyond_its_majorant_continues_without_bound(self):
        # eps = c >= 2/T^2: the declared pair admits no a-priori bound, but
        # a majorant is declared, so continuation runs without one
        p = builtin("linear", {"c": 0.1}, period=T2PI, forcing=[(1, 1.0)])
        with pytest.raises(MajorantError):
            apriori_bound(p)
        report = solve(p, modes=32)
        assert report.regime == "continuation" and report.converged
        assert report.apriori_bound is None

    def test_no_majorant_falls_back_to_picard(self):
        g = Nonlinearity("linear", lambda x: 0.1 * np.asarray(x),
                         lambda x: np.full_like(np.asarray(x, dtype=float), 0.1),
                         gprime_bound=0.1)
        p = make_problem(T2PI, g, [(1, 1.0)])
        assert not certify(p).holds
        with pytest.raises(MajorantError):
            solve_continuation(p)
        report = solve(p, modes=32)
        assert report.regime == "uncertified_picard" and report.converged
        assert report.certificate == certify(p)

    def test_cubic_without_bound_or_majorant_goes_to_picard(self):
        p = builtin("cubic", {"c3": 1.0}, period=T2PI, forcing=[(1, 5.0)])
        report = solve(p, modes=32, max_iter=200)
        assert report.regime == "uncertified_picard"
        assert report.certificate is None
        assert not report.converged
        assert report.failure in ("max_iter", "non_finite")

    def test_continuation_method_without_majorant_raises(self):
        p = builtin("cubic", {"c3": 1.0}, period=T2PI, forcing=[(1, 5.0)])
        with pytest.raises(MajorantError) as e:
            solve(p, method="continuation", modes=32)
        # the refusal carries its record code
        assert e.value.code == "no_majorant"
        assert isinstance(e.value, ProblemError) and isinstance(e.value, ValueError)


def test_blown_up_stages_count_their_map_applications(monkeypatch):
    import oddperiodic.solver as solver

    p = make_problem(T2PI, CLIPPED, [(1, 5.0)])
    applied, blown = [], []
    nonlinear_parts = solver._nonlinear_parts

    def counting(g, rows, forcing):
        out, failed, norms = nonlinear_parts(g, rows, forcing)
        applied.append(len(out))
        blown.extend(np.flatnonzero(failed))
        return out, failed, norms

    monkeypatch.setattr(solver, "_nonlinear_parts", counting)
    report = solve_continuation(p, modes=32)
    assert report.failure == "step_underflow" and blown
    assert report.iterations == sum(applied)


@pytest.mark.parametrize("func, params", [
    (shoot, ["problem", "v0_bracket"]),
    (sup_norm, ["f"]),
    (from_samples, ["samples", "period"]),
    (solve_continuation, ["problem", "tol", "max_iter_per_step", "modes"]),
], ids=["shoot", "sup_norm", "from_samples", "solve_continuation"])
def test_tuning_constants_are_not_options(func, params):
    # the oracle's tolerance, steps and reconstruction order, the norm grid
    # and the continuation steps are module constants: the truncation order
    # N stays the one approximation knob
    assert list(inspect.signature(func).parameters) == params


def _signed_decades(lo, hi):
    """Values of either sign with magnitudes log-uniform over
    10^lo..10^hi."""
    return st.builds(lambda sign, e: sign * 10.0 ** e,
                     st.sampled_from([-1.0, 1.0]), st.floats(lo, hi))


@st.composite
def _accepted_problems(draw):
    """A problem of any family that validation accepts: periods
    log-uniform over 1e-150..1e150, parameters and forcing amplitudes over
    sixteen decades, forcing modes up to 300."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    params = {name: draw(_signed_decades(-8, 8))
              for name in FAMILIES[family][1]}
    forcing = draw(st.lists(st.tuples(st.integers(1, 300),
                                      _signed_decades(-8, 8)),
                            min_size=1, max_size=3,
                            unique_by=lambda pair: pair[0]))
    period = 10.0 ** draw(st.floats(-150.0, 150.0))
    try:
        return builtin(family, params, period=period, forcing=forcing)
    except ProblemError:
        assume(False)


# about 0.6 s a draw
@settings(max_examples=12, deadline=None)
@given(problems=st.lists(_accepted_problems(), min_size=1, max_size=3),
       method=st.sampled_from(["auto", "picard", "continuation"]),
       tol=st.sampled_from([5e-324, 1e-12, 1e300]),
       max_iter=st.integers(1, 50), modes=st.integers(1, 16),
       guess=st.lists(_signed_decades(-308, 308), min_size=1, max_size=16),
       trials=st.integers(2, 3), seed=st.integers(0, 2 ** 32 - 1))
# an iterate that overflows after the inverse's gains
@example(problems=[builtin("linear", {"c": 0.01}, period=1e150,
                           forcing=[(1, 1.0)])],
         method="picard", tol=1e-12, max_iter=50, modes=16,
         guess=[1.0], trials=2, seed=0)
# a guess whose u'' overflows at T = 1e-103 ends the solve as itself
@example(problems=[builtin("cubic", {"c3": 1.0}, period=1e-103,
                           forcing=[(1, 1.0)])],
         method="auto", tol=5e-324, max_iter=1, modes=1,
         guess=[-1e101], trials=2, seed=0)
# a guess whose grid values overflow
@example(problems=[builtin("zero", period=1.0, forcing=[(1, 1.0)])],
         method="auto", tol=5e-324, max_iter=1, modes=1,
         guess=[-1e308, -1e308], trials=2, seed=0)
def test_every_accepted_problem_ends_in_reports(problems, method, tol,
                                                 max_iter, modes, guess,
                                                 trials, seed):
    """solve_many, solve_picard from an initial guess, uniqueness_probe
    where the certificate holds and shooting_distances end in their
    results, or in their documented exceptions, and never in a warning
    (which the test settings make an error)."""
    first = problems[0]
    report = solve_picard(first, tol=tol, max_iter=max_iter, modes=modes,
                          initial_guess=OddPeriodicFunction(first.period,
                                                            guess))
    assert report.failure in (None, "max_iter", "non_finite")
    assert report.converged == (report.failure is None)
    for problem in problems:
        if problem.certificate is not None and problem.certificate.holds:
            try:
                probe = uniqueness_probe(problem, trials, tol=tol, seed=seed,
                                         modes=modes)
            except RuntimeError:  # a trial that does not converge
                continue
            assert probe.trials == trials
    try:
        reports = solve_many(problems, method=method, tol=tol,
                             max_iter=max_iter, modes=modes)
    except MajorantError:
        assert method == "continuation"
        assert not all(p.majorants for p in problems)
        return
    for report in reports:
        assert report.failure in (None, "max_iter", "non_finite",
                                  "step_underflow", "apriori_violation")
        assert report.converged == (report.failure is None)
    distances = shooting_distances(problems, [r.solution for r in reports])
    assert len(distances) == len(problems)


# coefficients over the whole range a row can hold: zeros, subnormals,
# the extremes +-1e300 and everything between
_COEFFS = st.one_of(
    st.sampled_from([0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300]),
    st.floats(-1e300, 1e300, allow_subnormal=True))


@settings(max_examples=150, deadline=None)
@given(b=st.lists(_COEFFS, min_size=1, max_size=512))
@example(b=[5e-324])
@example(b=[1e300] * 512)
def test_l1_norm_bounds_the_grid_maxima(b):
    """sum|b_n| >= sup_norm (8N grid) >= the 4N grid maximum of the map.

    Both grids are FFT values, so each ordering holds up to the transforms'
    rounding: 2*log2(8N) units of roundoff relative to sum|b_n|, plus N
    subnormal units for rows of subnormals (the largest excesses measured on
    random rows are 0.73*log2(8N) units and N/4 subnormal units).
    """
    b = np.array(b)
    N = b.size
    l1 = np.sum(np.abs(b))
    slack = 2 * np.log2(8 * N) * np.finfo(float).eps * l1 + N * 5e-324
    sup8 = sup_norm(OddPeriodicFunction(1.0, b))
    zero = Nonlinearity("zero", np.zeros_like, np.zeros_like).value
    (grid4,) = _nonlinear_parts(zero, b[np.newaxis],
                                np.zeros((1, N)))[2]
    assert np.isfinite(l1)
    assert l1 + slack >= sup8
    assert sup8 + slack >= grid4


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["zero", "linear", "pendulum", "tanh_g"]),
       param=st.floats(-1.0, 1.0), period=st.floats(0.5, 6.0),
       forcing=st.lists(st.tuples(st.integers(1, 8), st.floats(-1.0, 1.0)),
                        min_size=1, max_size=3, unique_by=lambda f: f[0]),
       modes=st.integers(1, 64), tol=st.sampled_from([1e-12, 1e-8, 1e-4]))
def test_a_converged_row_stops_on_a_step_below_tol(family, param, period,
                                                    forcing, modes, tol):
    """The stopping rule bounds the true step: the last step of a converged
    Picard row, measured on a 64N grid, is below tol."""
    params = {name: param for name in FAMILIES[family][1]}
    p = builtin(family, params, period=period, forcing=forcing)
    report = solve_picard(p, tol=tol, max_iter=500, modes=modes)
    assume(report.converged)
    n = report.iterations
    before = (solve_picard(p, tol=tol, max_iter=n - 1, modes=modes).solution
              if n > 1 else OddPeriodicFunction.zero(period, report.solution.modes))
    step = report.solution - before
    assert report.step_norms[-1] == l1_norm(step) < tol
    assert np.max(np.abs(grid_samples(step, 64 * step.modes))) < tol
