"""Tests for Picard iteration, continuation, certificates and bounds."""

import inspect

import numpy as np
import pytest

from oddperiodic import (
    CertificateError,
    MajorantError,
    NonFiniteNonlinearityError,
    Nonlinearity,
    OddPeriodicFunction,
    apriori_bound,
    builtin,
    certify,
    differentiate,
    fixed_point_map,
    from_samples,
    grid_samples,
    make_problem,
    shoot,
    solve,
    solve_continuation,
    solve_many,
    solve_picard,
    sup_norm,
    uniqueness_probe,
)
from oddperiodic.operators import _apply_maps, _CoefficientMap
from oddperiodic.problems import FAMILIES, _row_values

T2PI = 2.0 * np.pi


def pendulum(a=0.04, amp=0.05, T=T2PI):
    return builtin("pendulum", {"a": a}, period=T, forcing=[(1, amp)])


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
        with pytest.raises(CertificateError):
            certify(p)


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

    def test_rejects_bad_tol_like_picard(self):
        p = builtin("tanh_g", {"s": 1.0}, period=T2PI, forcing=[(1, 0.5)])
        for method in ("picard", "continuation"):
            with pytest.raises(ValueError, match="tol must be positive"):
                solve(p, method=method, tol=-1)


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


def reference_picard(problem, modes, tol=1e-12, max_iter=10_000):
    """Picard iteration on series objects through the public map."""
    u = OddPeriodicFunction.zero(problem.period, max(modes, problem.k.modes))
    step_norms, max_norm = [], sup_norm(u)
    for iterations in range(1, max_iter + 1):
        u_next = fixed_point_map(problem, u)
        step_norms.append(sup_norm(u_next - u))
        u = u_next
        max_norm = max(max_norm, sup_norm(u))
        if step_norms[-1] < tol:
            break
    return u, step_norms, max_norm, iterations


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
        hist, stage_max, ok = [], sup_norm(v), False
        for _ in range(max_iter):
            step_vec = lam_next * fixed_point_map(problem, v) - v
            if prev is not None and theta == 1.0:
                if float(np.dot(step_vec.coeffs, prev.coeffs)) < 0.0:
                    reversals += 1
                    theta = 0.5 if reversals >= 3 else theta
                else:
                    reversals = 0
            prev = step_vec
            v = v + theta * step_vec
            hist.append(theta * sup_norm(step_vec))
            stage_max = max(stage_max, sup_norm(v))
            if hist[-1] < tol:
                ok = True
                break
        iterations += len(hist)
        max_norm = max(max_norm, stage_max)
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

    # at 1024 modes the 2-row FFT of the step norms runs on 8192 points
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

    def test_continuation_matches_series_loop(self):
        # g' < 0 makes successive steps alternate, so every stage damps
        p = builtin("tanh_g", {"s": -1.0}, period=3.0, forcing=[(1, 0.5)])
        report = solve_continuation(p, modes=64)
        u, step_norms, max_norm, iterations, path, damped = \
            reference_continuation(p, 64)
        assert damped > 0
        assert report.converged and path[-1] == 1.0
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
                           solve_continuation(p, modes=32,
                                              max_iter_per_step=10_000))

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

    def test_a_failing_row_leaves_the_others_alone(self):
        good, bad = pendulum(), builtin("cubic", {"c3": 1.0}, period=T2PI,
                                        forcing=[(1, 1.0)])
        rows = np.array([np.full(16, 0.1), np.full(16, 1e120)])
        out = _apply_maps([_CoefficientMap(good, 16), _CoefficientMap(bad, 16)],
                          rows)
        assert np.array_equal(out[0], _CoefficientMap(good, 16)(rows[0]))
        assert isinstance(out[1], NonFiniteNonlinearityError)


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
        with pytest.raises(MajorantError):
            solve(p, method="continuation", modes=32)


def test_blown_up_stages_count_their_map_applications(monkeypatch):
    import oddperiodic.solver as solver

    # finite everywhere, but beyond the 1e300 cap as soon as |u| > 3
    g = Nonlinearity("clipped",
                     lambda x: np.where(np.abs(x) > 3.0, 1e305 * np.sign(x), x),
                     lambda x: np.where(np.abs(x) > 3.0, 0.0, 1.0),
                     majorants=((0.0, 1e305),))
    p = make_problem(T2PI, g, [(1, 5.0)])
    applied, blown = [], []
    apply_maps = solver._apply_maps

    def counting(maps, rows):
        out = apply_maps(maps, rows)
        applied.append(len(out))
        blown.extend(o for o in out if isinstance(o, NonFiniteNonlinearityError))
        return out

    monkeypatch.setattr(solver, "_apply_maps", counting)
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
