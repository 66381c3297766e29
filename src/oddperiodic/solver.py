"""Fixed-point solvers for u'' + g(u) = k(t) on the odd periodic space.

Two regimes, matching the two existence results the library implements:

* **Certified contraction.**  When sup|g'| < 2/T^2 the solution map
  u -> invert_second_derivative(k - g(u)) is a contraction with factor
  lambda = (T^2/2) * sup|g'| < 1, so plain Picard iteration converges to the
  unique odd periodic solution from any start, with step norms shrinking at
  least geometrically with ratio lambda.  :func:`certify` returns the
  certificate the problem derived at validation; :func:`solve_picard` runs
  the iteration.

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

Stopping is on sum|b_n| of the step, a transform-free bound on its sup norm,
not on the equation residual, which is computed once at the end through the
independent oracle and reported.  No acceleration is applied, so measured
step-norm ratios remain directly comparable to the certificate factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .funcspace import OddPeriodicFunction, _grid_max, _half_grid, sup_norm
from .operators import _check_period, _forcing, _neg_gains, _nonlinear_parts
from .oracle import ode_residual
from .problems import ContractionCertificate, ProblemError, _check_limits, _row_values

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

METHODS = ("picard", "continuation", "auto")
DEFAULT_MODES = 256
DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10_000
# continuation: the first lambda step, halved on each failed stage down to
# the floor below which the path is given up
_LAMBDA_STEP = 0.1
_MIN_LAMBDA_STEP = 1e-4


class CertificateError(ProblemError):
    """No usable derivative bound is declared for g: no_derivative_bound."""

    def __init__(self, message: str):
        super().__init__("no_derivative_bound", message)


class MajorantError(ProblemError):
    """No declared majorant pair is usable at this period: no_majorant."""

    def __init__(self, message: str):
        super().__init__("no_majorant", message)


@dataclass
class SolveReport:
    """Everything a solve produced, converged or not.

    ``regime`` is one of ``certified_contraction``, ``uncertified_picard``
    or ``continuation``.  ``failure`` is None on success, else ``max_iter``,
    ``non_finite``, ``step_underflow`` or ``apriori_violation``; the best
    iterate is still returned.  ``step_norms`` are l1 norms, which bound the
    steps' sup norms; ``max_iterate_norm`` is max|u_j| over the iterates
    seen, on the map's 4N grid (a lower bound), as the a-priori check uses.
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
    """The contraction certificate lambda = sup|g'| * T^2/2 that the
    problem derived at validation.

    Raises
    ------
    CertificateError
        If no derivative bound is declared for g (e.g. the cubic family).
    """
    if problem.certificate is None:
        raise CertificateError(
            f"no sup|g'| bound is available for g = {problem.g.name!r}; "
            "the contraction certificate cannot be evaluated")
    return problem.certificate


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

    ``method`` is one of :data:`METHODS`, applied per problem by :func:`_row`;
    ``max_iter`` caps each continuation stage.  Each report carries
    the certificate its problem derived at validation.  The rows of
    one working size step together as one array (see :func:`_drive`), and
    rows whose g are of one built-in family evaluate it in one call (see
    :func:`problems._row_values`).
    Raises ProblemError ``bad_modes``, ``bad_tol`` or ``bad_max_iter``
    before any problem is looked at (see :func:`problems._check_limits`),
    and MajorantError where continuation meets a g without majorants.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    _check_limits(modes, tol, max_iter)
    rows = [_row(problem, method, modes) for problem in problems]
    return _drive(rows, tol, max_iter)


def solve_picard(problem, *, initial_guess: OddPeriodicFunction | None = None,
                 tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                 modes: int = DEFAULT_MODES) -> SolveReport:
    """Picard iteration u_{j+1} = invert_second_derivative(k - g(u_j)).

    Runs until the step's l1 norm drops below ``tol``.  In the certified
    regime convergence is guaranteed; outside it, non-convergence is a
    reportable outcome (``converged=False`` with diagnostics), not an error:
    an iterate whose g(u), step or coefficients leave the finite range ends
    the solve as ``failure="non_finite"``.  Limits out of range raise
    ProblemError as in :func:`solve_many`.

    Parameters
    ----------
    initial_guess : OddPeriodicFunction, optional
        Starting iterate; defaults to the zero function.
    tol : float
        Step l1-norm stopping threshold, which bounds the step's sup norm.
    max_iter : int
        Iteration cap; exceeding it reports ``failure="max_iter"``.
    modes : int
        Working truncation order (raised to the forcing's order if needed).
    """
    _check_limits(modes, tol, max_iter)
    row = _row(problem, "picard", modes, initial_guess)
    (report,) = _drive([row], tol, max_iter)
    return report


def solve_continuation(problem, *, tol: float = DEFAULT_TOL,
                       max_iter_per_step: int = DEFAULT_MAX_ITER,
                       modes: int = DEFAULT_MODES) -> SolveReport:
    """Homotopy in the scaling of the solution map: u = lam * map(u).

    Climbs lam from 0 (where u = 0) to 1 (the original problem) in steps of
    0.1, warm starting each stage from the previous solution and halving
    the step on stage failure.  The step aborting below 1e-4 is reported
    as ``failure="step_underflow"`` -- the existence theory guarantees a
    solution, not that this path reaches it.  ``iterations`` counts every
    map application, those of failed stages included.

    Each stage is Picard on u = lam * map(u), damped from theta = 1 to 0.5
    once the iteration oscillates (three consecutive direction reversals of
    the coefficient step).  A stage that meets a non-finite g(u), or whose
    step or iterate overflows, fails.

    When the declared majorants admit an a-priori bound, every converged
    stage solution is checked against it before it is accepted; one above
    it means numerical breakdown and ends the solve on the last accepted
    stage as ``failure="apriori_violation"``.  This is :func:`solve` with
    ``method="continuation"`` (``max_iter`` caps each stage) and raises as it does.
    """
    return solve(problem, method="continuation", tol=tol,
                 max_iter=max_iter_per_step, modes=modes)


def _row(problem, method, modes, guess=None) -> _Row:
    """``problem``'s solve by ``method`` as a row of :func:`_drive`, by the
    one solve policy: Picard where ``method`` is ``picard``, or ``auto`` and
    the certificate holds or g declares no majorant, from zeros or ``guess``;
    continuation from zeros otherwise, where MajorantError is raised if g
    declares no majorant.  The row works at max(modes, k.modes) modes."""
    holds = problem.certificate is not None and problem.certificate.holds
    N = max(int(modes), problem.k.modes)
    if method == "picard" or (method == "auto" and (holds or not problem.majorants)):
        start = np.zeros(N)
        if guess is not None:
            _check_period(problem, guess)
            start = guess.with_modes(max(N, guess.modes)).coeffs
        return _Row(problem, "certified_contraction" if holds
                    else "uncertified_picard", start)
    if not problem.majorants:
        raise MajorantError(
            "continuation requires a sublinearity declaration: g must "
            f"carry majorant pairs, but {problem.g.name!r} has none")
    return _ContinuationRow(problem, "continuation", np.zeros(N),
                            problem.apriori_bound)


class _Row:
    """The bookkeeping of one solve in :func:`_drive`.

    A solve runs in stages.  A stage is Picard iteration on u = lam * map(u)
    from the coefficients ``start`` until the step norm drops below tol or
    ``max_iter`` maps are applied; ``hist`` holds its step norms.  A Picard
    solve is one stage at lam = 1.
    """

    lam = 1.0
    continuation = False

    def __init__(self, problem, regime, start, bound=None) -> None:
        self.problem, self.regime = problem, regime
        self.start, self.bound = start, bound
        self.iterations = 0
        self.hist: list[float] = []
        self.step_norms: list[float] = []
        self.lambda_path: list[float] = []
        self.failure: str | None = None

    def end_stage(self, converged, blown, b, last_norm, tol) -> bool:
        """Close the running stage at iterate ``b``, whose 4N grid maximum
        is ``last_norm``; True if a next stage starts."""
        self.start, self.step_norms = b.copy(), self.hist
        if not converged:
            self.failure = "non_finite" if blown else "max_iter"
        return False

    def report(self) -> SolveReport:
        u = OddPeriodicFunction(self.problem.period, self.start)
        return SolveReport(
            solution=u,
            iterations=self.iterations,
            step_norms=self.step_norms,
            residual=ode_residual(self.problem, u),
            regime=self.regime,
            converged=self.failure is None,
            failure=self.failure,
            lambda_path=self.lambda_path,
            apriori_bound=self.bound,
            max_iterate_norm=self.max_norm,
            certificate=self.problem.certificate,
        )


class _ContinuationRow(_Row):
    """A continuation solve: a stage per lam, each climbing ``lam_step``
    from the last accepted lam and its solution ``start``."""

    continuation = True
    accepted = 0.0
    # the first stage climbs from lam = 0
    lam = lam_step = _LAMBDA_STEP

    def end_stage(self, converged, blown, b, last_norm, tol) -> bool:
        if converged and self.bound is not None and (
                last_norm > self.bound * (1 + 1e-9) + 10 * tol):
            self.failure = "apriori_violation"
            return False
        if converged:
            self.accepted = self.lam
            self.start, self.step_norms = b.copy(), self.hist
            self.lambda_path.append(self.lam)
            if self.lam >= 1.0:
                return False
        else:
            self.lam_step *= 0.5
            if self.lam_step < _MIN_LAMBDA_STEP:
                self.failure = "step_underflow"
                return False
        lam = self.accepted + self.lam_step
        # snap the endpoint: accumulation dust
        self.lam = 1.0 if lam >= 1.0 - 1e-12 else lam
        self.hist = []
        return True


def _drive(rows, tol, max_iter) -> list[SolveReport]:
    """Run the solves ``rows`` together and return their reports.

    The rows of one working size form a :class:`_Batch`, held as
    (rows x N) arrays.  Each tick makes one call of the kernel for N per
    batch for all its live rows, and updates them, takes their l1 step
    norms and tests them for reversals as whole arrays.  Per row, a tick
    only appends the step norm; the rest runs per row only where a row
    ends a stage or its solve.
    """
    sizes: dict[int, list] = {}
    for row in rows:
        sizes.setdefault(row.start.size, []).append(row)
    batches = [_Batch(members) for members in sizes.values()]
    while batches:
        for batch in batches:
            batch.tick(tol, max_iter)
        batches = [batch for batch in batches if batch.rows]
    return [row.report() for row in rows]


class _Batch:
    """Live rows of one size and their arrays in ``state``: the iterates
    ``b`` and the previous steps as (rows x N) arrays, and per row its
    forcing and the gains of the inverse, the stage's lam, the damping
    theta, the reversal count, the stage's application count, the grid
    maximum of |u| so far and whether it is a continuation row."""

    def __init__(self, rows) -> None:
        self.rows = rows
        b = np.array([row.start for row in rows])
        N = b.shape[1]
        self.state = {
            "b": b,
            "prev": np.zeros_like(b),
            "forcing": np.array([_forcing(row.problem, N) for row in rows]),
            "gains": np.array([_neg_gains(row.problem.period, N)
                               for row in rows]),
            "lam": np.array([row.lam for row in rows]),
            "theta": np.ones(len(rows)),
            "reversals": np.zeros(len(rows), dtype=int),
            "applied": np.zeros(len(rows), dtype=int),
            "max_norm": np.zeros(len(rows)),
            "continuation": np.array([row.continuation for row in rows]),
        }
        self.g = _row_values([row.problem.g for row in rows])

    def tick(self, tol, max_iter) -> None:
        """One map application for every live row, then the close of every
        stage that ends with it."""
        s = self.state
        M, blown, norms = _nonlinear_parts(self.g, s["b"], s["forcing"])
        s["applied"] += 1
        np.maximum(s["max_norm"], norms, out=s["max_norm"])  # iterates mapped
        # a row whose g(u), step or iterate is not finite is blown below
        with np.errstate(over="ignore", invalid="ignore"):
            M *= s["gains"]
            target = s["lam"][:, np.newaxis] * M
            step = target - s["b"]
            # the reference loop's reversal test, on each undamped row; a
            # row times a column runs np.dot's kernel, so each dot is
            # np.dot's, taken by the comparison as it comes
            tested = np.flatnonzero(s["continuation"] & (s["theta"] == 1.0)
                                    & (s["applied"] > 1))
            dots = step[tested, np.newaxis] @ s["prev"][tested, :, np.newaxis]
            s["reversals"][tested] = np.where(dots[:, 0, 0] < 0.0,
                                              s["reversals"][tested] + 1, 0)
            s["theta"][s["reversals"] >= 3] = 0.5
            b = s["b"] + s["theta"][:, np.newaxis] * step
            steps = s["theta"] * np.abs(step).sum(axis=1)  # sum|b_n| >= sup
        picard = ~s["continuation"]
        b[picard] = target[picard]
        blown |= ~(np.isfinite(step).all(axis=1) & np.isfinite(b).all(axis=1))
        if blown.any():
            # a blown row keeps its iterate; its stage ends below
            step[blown] = 0.0
            b[blown] = s["b"][blown]
        s["prev"], s["b"] = step, b
        for row, step_norm in zip(self.rows, steps.tolist()):
            row.hist.append(step_norm)
        converged = (steps < tol) & ~blown
        ended = np.flatnonzero(converged | blown | (s["applied"] >= max_iter))
        if ended.size:
            self._end_stages(ended, converged, blown, tol)

    def _end_stages(self, ended, converged, blown, tol) -> None:
        s = self.state
        with np.errstate(over="ignore", invalid="ignore"):  # last iterates, 4N
            norms = _grid_max(_half_grid(s["b"][ended], 4 * s["b"].shape[1]))
        np.maximum.at(s["max_norm"], ended, norms)
        keep = np.ones(len(self.rows), dtype=bool)
        for i, norm in zip(ended.tolist(), norms.tolist()):
            row = self.rows[i]
            if blown[i]:
                row.hist.pop()  # a blown application has no step norm
            row.iterations += int(s["applied"][i])
            if row.end_stage(bool(converged[i]), bool(blown[i]), s["b"][i],
                             norm, tol):
                s["b"][i], s["lam"][i] = row.start, row.lam
                s["theta"][i], s["reversals"][i], s["applied"][i] = 1.0, 0, 0
            else:
                row.max_norm = float(s["max_norm"][i])
                keep[i] = False
        if not keep.all():
            self.rows = [row for row, k in zip(self.rows, keep) if k]
            self.state = {name: a[keep] for name, a in s.items()}
            if self.rows:
                self.g = _row_values([row.problem.g for row in self.rows])


def apriori_bound(problem) -> float:
    """Explicit bound on sup|u| for every solution of the scaled family,
    as the problem derived it at validation.

    For each declared majorant pair (eps, M) with eps < 2/T^2, every u
    solving u = lam * map(u) for some lam in (0, 1] satisfies

        sup|u| <= (T^2/2) * (sup|k| + M) / (1 - eps * T^2/2),

    and the returned value, with sum|b_n| for sup|k|, is the least over usable pairs.

    Raises
    ------
    MajorantError
        If no pair is declared or every declared eps >= 2/T^2.
    """
    if problem.apriori_bound is None:
        raise MajorantError(
            f"no usable majorant at period {problem.period:g}: need a "
            f"declared pair with eps < {2.0 / problem.period ** 2:.6g}")
    return problem.apriori_bound


def uniqueness_probe(problem, trials: int, *, tol: float = DEFAULT_TOL,
                     seed: int = 0, modes: int = DEFAULT_MODES) -> ProbeResult:
    """Empirical uniqueness check in the certified regime.

    Runs :func:`solve_picard` from ``trials`` random initial guesses
    (coefficients uniform in [-10, 10] on modes 1..8, seeded for
    reproducibility) as one lockstep batch and measures the maximum
    pairwise sup-norm distance of the converged solutions.

    Raises
    ------
    ProblemError
        ``bad_modes`` or ``bad_tol``, as in :func:`solve_many`, first.
    ValueError
        If the certificate does not hold (the guarantee being probed would
        not apply) or trials < 2.
    RuntimeError
        If a trial does not converge (the first such trial's failure).
    """
    _check_limits(modes, tol)
    if trials < 2:
        raise ValueError("trials must be >= 2")
    cert = certify(problem)
    if not cert.holds:
        raise ValueError(
            f"uniqueness probe requires a holding certificate; lambda = "
            f"{cert.factor:.4g} >= 1")
    guesses = np.random.default_rng(seed).uniform(-10.0, 10.0, (trials, 8))
    rows = [_row(problem, "picard", modes, OddPeriodicFunction(problem.period, b))
            for b in guesses]
    reports = _drive(rows, tol, DEFAULT_MAX_ITER)
    for report in reports:
        if not report.converged:
            raise RuntimeError(
                "probe solve failed to converge in the certified regime; "
                f"failure={report.failure!r}")
    max_distance = max(sup_norm(a.solution - b.solution)
                       for i, a in enumerate(reports) for b in reports[i + 1:])
    return ProbeResult(agrees=max_distance <= 100.0 * tol,
                       max_distance=max_distance, trials=trials)
