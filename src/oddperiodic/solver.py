"""Fixed-point solvers for u'' + g(u) = k(t) on the odd periodic space.

Two regimes, matching the two existence results the library implements:

* **Certified contraction.**  When sup|g'| < 2/T^2 the solution map
  u -> invert_second_derivative(k - g(u)) is a contraction with factor
  lambda = (T^2/2) * sup|g'| < 1, so plain Picard iteration converges to the
  unique odd periodic solution from any start, with step norms shrinking at
  least geometrically with ratio lambda.  :func:`certify` computes the
  certificate; :func:`solve_picard` runs the iteration.

* **Sublinear continuation.**  When g is merely sublinear (|g(x)| <= M(eps)
  + eps*|x| for declared majorant pairs), a solution still exists and every
  solution of the scaled family u = lam * map(u), lam in (0, 1], obeys the
  explicit a-priori bound of :func:`apriori_bound`.  The existence argument
  is non-constructive; :func:`solve_continuation` is its numerical analogue,
  climbing lam from 0 to 1 with warm starts and step halving.  Failure of
  the path following is reported honestly -- it never refutes existence.

Certificates always use the conservative operator-norm constant T^2/2.  The
per-mode analysis shows the true gains are much smaller, so Picard often
converges well outside the certified region; such runs are flagged
``uncertified_picard`` and their convergence is an observation, not a
guarantee.

Stopping is on the sup norm of the iteration step, not on the equation
residual; the residual is computed once at the end through the independent
oracle and reported.  No acceleration is applied, so the measured step-norm
ratios remain directly comparable to the certificate factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .funcspace import OddPeriodicFunction, _sup_norms, sup_norm
from .operators import (
    NonFiniteNonlinearityError,
    _apply_maps,
    _check_period,
    _CoefficientMap,
    inverse_norm_bound,
)
from .oracle import ode_residual

__all__ = [
    "ContractionCertificate",
    "SolveReport",
    "ProbeResult",
    "CertificateError",
    "MajorantError",
    "certify",
    "solve",
    "solve_many",
    "solve_picard",
    "solve_continuation",
    "apriori_bound",
    "uniqueness_probe",
]

DEFAULT_MODES = 256
DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10_000


class CertificateError(ValueError):
    """No usable derivative bound is declared for g."""


class MajorantError(ValueError):
    """No declared majorant pair is usable at this period."""


@dataclass(frozen=True)
class ContractionCertificate:
    """The uniqueness certificate: lambda = sup|g'| * T^2/2.

    ``holds`` is equivalent to sup|g'| < 2/T^2.  When it holds, Picard
    iteration is guaranteed to converge to the unique odd periodic solution
    and successive step norms contract at least by ``factor``.
    """

    lipschitz_g: float
    norm_bound: float
    factor: float
    holds: bool

    def as_dict(self) -> dict:
        return {
            "lipschitz_g": self.lipschitz_g,
            "norm_bound": self.norm_bound,
            "lambda": self.factor,
            "holds": self.holds,
        }


@dataclass
class SolveReport:
    """Everything a solve produced, converged or not.

    ``regime`` is one of ``certified_contraction``, ``uncertified_picard``
    or ``continuation``.  ``failure`` is None on success, else ``max_iter``,
    ``non_finite`` or ``step_underflow``; the best iterate is still
    returned.  ``max_iterate_norm`` tracks sup|u_j| over every iterate seen,
    which is what the a-priori bound is checked against.
    """

    solution: OddPeriodicFunction
    iterations: int
    step_norms: list[float]
    residual: float
    regime: str
    converged: bool
    failure: str | None = None
    lambda_path: list[float] = field(default_factory=list)
    apriori_bound: float | None = None
    max_iterate_norm: float = 0.0
    certificate: ContractionCertificate | None = None


@dataclass(frozen=True)
class ProbeResult:
    """Multi-start agreement check: ``agrees`` iff all converged solutions
    coincide within 100x the solve tolerance."""

    agrees: bool
    max_distance: float
    trials: int


def certify(problem) -> ContractionCertificate:
    """Evaluate the contraction certificate lambda = sup|g'| * T^2/2.

    Raises
    ------
    CertificateError
        If no derivative bound is declared for g (e.g. the cubic family).
    """
    bound = problem.gprime_bound
    if bound is None:
        raise CertificateError(
            f"no sup|g'| bound is available for g = {problem.g.name!r}; "
            "the contraction certificate cannot be evaluated")
    norm_bound = inverse_norm_bound(problem.period).certified_bound
    factor = float(bound) * norm_bound
    return ContractionCertificate(
        lipschitz_g=float(bound),
        norm_bound=norm_bound,
        factor=factor,
        holds=factor < 1.0,
    )


def _try_certificate(problem) -> ContractionCertificate | None:
    try:
        return certify(problem)
    except CertificateError:
        return None


def solve(problem, *, method: str = "auto", tol: float = DEFAULT_TOL,
          max_iter: int = DEFAULT_MAX_ITER,
          modes: int = DEFAULT_MODES) -> SolveReport:
    """Solve one problem: the one-row case of :func:`solve_many`."""
    (report,) = solve_many([problem], method=method, tol=tol,
                           max_iter=max_iter, modes=modes)
    return report


def solve_many(problems, *, method: str = "auto", tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER,
               modes: int = DEFAULT_MODES) -> list[SolveReport]:
    """Solve every problem in lockstep; a report is bitwise the one a
    separate solve of its problem returns.

    ``method`` is ``picard``, ``continuation`` (``max_iter`` caps each
    stage) or ``auto``: Picard where the contraction certificate holds or
    g declares no majorant, continuation otherwise.  Each problem's
    certificate is computed once and carried by its report.
    """
    if method not in ("auto", "picard", "continuation"):
        raise ValueError(f"unknown method {method!r}")
    rows = []
    for problem in problems:
        cert = _try_certificate(problem)
        if method == "picard" or (method == "auto" and (
                cert is not None and cert.holds or not problem.majorants)):
            rows.append(_picard(problem, cert, None, tol, max_iter, modes))
        else:
            rows.append(_continuation(problem, cert, tol, max_iter, modes))
    return _lockstep(rows)


def solve_picard(problem, *, initial_guess: OddPeriodicFunction | None = None,
                 tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                 modes: int = DEFAULT_MODES) -> SolveReport:
    """Picard iteration u_{j+1} = invert_second_derivative(k - g(u_j)).

    Runs until the step sup norm drops below ``tol``.  In the certified
    regime convergence is guaranteed; outside it, non-convergence is a
    reportable outcome (``converged=False`` with diagnostics), not an error.

    Parameters
    ----------
    initial_guess : OddPeriodicFunction, optional
        Starting iterate; defaults to the zero function.
    tol : float
        Step sup-norm stopping threshold.
    max_iter : int
        Iteration cap; exceeding it reports ``failure="max_iter"``.
    modes : int
        Working truncation order (raised to the forcing's order if needed).
    """
    (report,) = _lockstep([_picard(problem, _try_certificate(problem),
                                   initial_guess, tol, max_iter, modes)])
    return report


def _lockstep(rows) -> list[SolveReport]:
    """Run the solve generators ``rows`` together; return their reports.

    A row yields ``(step_map, b)`` and receives step_map(b), or ``(None,
    pair)`` and receives the sup norms of the pair's two rows.  Every
    pending request of one kind and size goes into one batched call; a
    failed map application is thrown back into its row.
    """
    reports: list = [None] * len(rows)
    pending: dict[int, tuple] = {}

    def advance(i: int, reply) -> None:
        try:
            if isinstance(reply, Exception):
                pending[i] = rows[i].throw(reply)
            else:
                pending[i] = rows[i].send(reply)
        except StopIteration as stop:
            reports[i] = stop.value

    for i in range(len(rows)):
        advance(i, None)
    while pending:
        batches: dict[tuple, list[int]] = {}
        for i, (step_map, array) in pending.items():
            batches.setdefault((step_map is None, array.shape[-1]), []).append(i)
        requests, replies = dict(pending), {}
        pending.clear()
        for (norms, _), idx in batches.items():
            arrays = np.array([requests[i][1] for i in idx])
            replies.update(zip(idx, _pair_norms(arrays) if norms else
                               _apply_maps([requests[i][0] for i in idx], arrays)))
        for i in sorted(replies):
            advance(i, replies[i])
    return reports


def _pair_norms(pairs: np.ndarray) -> list[tuple[float, float]]:
    """sup_norm of both rows of every pair, from one transform call.

    A non-finite coefficient raises the ValueError that building its row
    as a series would raise; no solve loop handles it.
    """
    if not np.all(np.isfinite(pairs)):
        raise ValueError("coeffs must be finite")
    return [(float(step), float(norm)) for step, norm in _sup_norms(pairs)]


def _check_tol(tol) -> None:
    """The one tol check of both solve methods."""
    if not tol > 0:
        raise ValueError("tol must be positive")


def _picard(problem, cert, initial_guess, tol, max_iter, modes):
    """The Picard solve of :func:`solve_picard` as a row of :func:`_lockstep`."""
    _check_tol(tol)
    N = max(int(modes), problem.k.modes)
    if initial_guess is None:
        u = OddPeriodicFunction.zero(problem.period, N)
    else:
        u = initial_guess.with_modes(max(N, initial_guess.modes))
        _check_period(problem, u)

    regime = ("certified_contraction" if cert is not None and cert.holds
              else "uncertified_picard")

    step_norms: list[float] = []
    max_norm = sup_norm(u)
    b = u.coeffs
    step_map = _CoefficientMap(problem, b.size)
    converged = False
    failure = None
    iterations = 0
    for iterations in range(1, max_iter + 1):
        try:
            b_next = yield step_map, b
        except NonFiniteNonlinearityError:
            failure = "non_finite"
            break
        step, norm = yield None, np.array((b_next - b, b_next))
        step_norms.append(step)
        b = b_next
        max_norm = max(max_norm, norm)
        if step < tol:
            converged = True
            break
    else:
        iterations = max_iter
    if not converged and failure is None:
        failure = "max_iter"

    u = OddPeriodicFunction(problem.period, b)
    residual = ode_residual(problem, u)
    return SolveReport(
        solution=u,
        iterations=iterations,
        step_norms=step_norms,
        residual=residual,
        regime=regime,
        converged=converged,
        failure=failure,
        max_iterate_norm=max_norm,
        certificate=cert,
    )


def _damped_picard(step_map, u: OddPeriodicFunction, lam: float, tol: float,
                   max_iter: int):
    """Fixed point of u = lam * map(u) by Picard with optional damping.

    Damping theta drops from 1 to 0.5 once the iteration oscillates (three
    consecutive direction reversals of the coefficient step).  ``step_map``
    is the map on u's coefficients, applied through :func:`_lockstep`; an
    application that meets a non-finite g(u) fails the stage.  Returns
    (iterate, converged, step_norms, iterate_norms, applications), where
    iterate_norms holds sup|u| of each new iterate from the batched norm
    pairs (the start's norm is the caller's).
    """
    theta = 1.0
    prev_step = None
    reversals = 0
    step_norms: list[float] = []
    norms: list[float] = []
    b = u.coeffs
    converged = False
    for _ in range(max_iter):
        try:
            target = lam * (yield step_map, b)
        except NonFiniteNonlinearityError:
            # a blown-up stage is a failed stage; its applications count
            return u, False, step_norms, norms, len(step_norms) + 1
        step_vec = target - b
        if prev_step is not None and theta == 1.0:
            if float(np.dot(step_vec, prev_step)) < 0.0:
                reversals += 1
                if reversals >= 3:
                    theta = 0.5
            else:
                reversals = 0
        prev_step = step_vec
        b = b + theta * step_vec
        step_sup, norm = yield None, np.array((step_vec, b))
        step = theta * step_sup
        step_norms.append(step)
        norms.append(norm)
        if step < tol:
            converged = True
            break
    return (OddPeriodicFunction(u.period, b), converged, step_norms, norms,
            len(step_norms))


def solve_continuation(problem, *, lambda_step: float = 0.1,
                       tol: float = DEFAULT_TOL,
                       max_iter_per_step: int = 5000,
                       modes: int = DEFAULT_MODES,
                       min_lambda_step: float = 1e-4) -> SolveReport:
    """Homotopy in the scaling of the solution map: u = lam * map(u).

    Climbs lam from 0 (where u = 0) to 1 (the original problem), warm
    starting each stage from the previous solution and halving the step on
    stage failure.  The step aborting below ``min_lambda_step`` is reported
    as ``failure="step_underflow"`` -- the existence theory guarantees a
    solution, not that this path reaches it.  ``iterations`` counts every
    map application, those of failed stages included.

    When the declared majorants admit an a-priori bound, every accepted
    stage solution is checked against it; a violation would mean numerical
    breakdown and raises ``RuntimeError``.
    """
    (report,) = _lockstep([_continuation(
        problem, _try_certificate(problem), tol, max_iter_per_step, modes,
        lambda_step, min_lambda_step)])
    return report


def _continuation(problem, cert, tol, max_iter_per_step, modes,
                  lambda_step=0.1, min_lambda_step=1e-4):
    """The solve of :func:`solve_continuation` as a row of :func:`_lockstep`."""
    _check_tol(tol)
    if not (0 < lambda_step <= 1):
        raise ValueError("lambda_step must be in (0, 1]")
    try:
        bound = apriori_bound(problem)
    except MajorantError:
        if not problem.majorants:
            raise MajorantError(
                "continuation requires a sublinearity declaration: g must "
                f"carry majorant pairs, but {problem.g.name!r} has none")
        bound = None

    N = max(int(modes), problem.k.modes)
    u = OddPeriodicFunction.zero(problem.period, N)
    step_map = _CoefficientMap(problem, N)
    lam = 0.0
    path: list[float] = []
    step = float(lambda_step)
    max_norm = 0.0
    step_norms: list[float] = []
    converged = False
    failure = None
    iterations = 0
    while True:
        lam_next = lam + step
        if lam_next >= 1.0 - 1e-12:  # snap the endpoint: accumulation dust
            lam_next = 1.0
        u_trial, ok, hist, norms, applied = yield from _damped_picard(
            step_map, u, lam_next, tol, max_iter_per_step)
        iterations += applied
        max_norm = max([max_norm, *norms])
        if ok:
            lam = lam_next
            u = u_trial
            path.append(lam)
            step_norms = hist
            if bound is not None and norms[-1] > bound * (1 + 1e-9) + 10 * tol:
                raise RuntimeError(
                    "accepted continuation solution violates the a-priori "
                    "bound; this indicates numerical breakdown")
            if lam >= 1.0:
                converged = True
                break
        else:
            step *= 0.5
            if step < min_lambda_step:
                failure = "step_underflow"
                break

    residual = ode_residual(problem, u)
    return SolveReport(
        solution=u,
        iterations=iterations,
        step_norms=step_norms,
        residual=residual,
        regime="continuation",
        converged=converged,
        failure=failure,
        lambda_path=path,
        apriori_bound=bound,
        max_iterate_norm=max_norm,
        certificate=cert,
    )


def apriori_bound(problem) -> float:
    """Explicit bound on sup|u| for every solution of the scaled family.

    For each declared majorant pair (eps, M) with eps < 2/T^2, every u
    solving u = lam * map(u) for some lam in (0, 1] satisfies

        sup|u| <= (T^2/2) * (sup|k| + M) / (1 - eps * T^2/2),

    and the returned value is the minimum over usable pairs.

    Raises
    ------
    MajorantError
        If no pair is declared or every declared eps >= 2/T^2.
    """
    nb = inverse_norm_bound(problem.period).certified_bound
    k_norm = sup_norm(problem.k)
    best = None
    for eps, M in problem.majorants:
        denom = 1.0 - eps * nb
        if denom <= 0.0:
            continue
        value = nb * (k_norm + M) / denom
        if best is None or value < best:
            best = value
    if best is None:
        raise MajorantError(
            f"no usable majorant at period {problem.period:g}: need a "
            f"declared pair with eps < {2.0 / problem.period ** 2:.6g}")
    return best


def uniqueness_probe(problem, trials: int, *, tol: float = DEFAULT_TOL,
                     seed: int = 0, modes: int = DEFAULT_MODES) -> ProbeResult:
    """Empirical uniqueness check in the certified regime.

    Runs :func:`solve_picard` from ``trials`` random initial guesses
    (coefficients uniform in [-10, 10] on modes 1..8, seeded for
    reproducibility) and measures the maximum pairwise sup-norm distance of
    the converged solutions.

    Raises
    ------
    ValueError
        If the certificate does not hold (the guarantee being probed would
        not apply) or trials < 2.
    """
    if trials < 2:
        raise ValueError("trials must be >= 2")
    cert = certify(problem)
    if not cert.holds:
        raise ValueError(
            f"uniqueness probe requires a holding certificate; lambda = "
            f"{cert.factor:.4g} >= 1")
    rng = np.random.default_rng(seed)
    solutions = []
    for _ in range(trials):
        guess = OddPeriodicFunction(problem.period, rng.uniform(-10.0, 10.0, 8))
        report = solve_picard(problem, initial_guess=guess, tol=tol, modes=modes)
        if not report.converged:
            raise RuntimeError(
                "probe solve failed to converge in the certified regime; "
                f"failure={report.failure!r}")
        solutions.append(report.solution)
    max_distance = 0.0
    for i in range(trials):
        for j in range(i + 1, trials):
            max_distance = max(max_distance, sup_norm(solutions[i] - solutions[j]))
    return ProbeResult(agrees=max_distance <= 100.0 * tol,
                       max_distance=max_distance, trials=trials)
