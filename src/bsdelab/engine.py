"""Backward least-squares Monte Carlo solver and its verification harnesses.

The discrete scheme is the martingale-increment LSMC recursion (Gobet,
Lemor & Warin, 2005): terminal values anchor the last slice, then per step
the control is read from the regression of Y_{k+1} dW / dt on state
features and the value is the regressed continuation plus the driver
increment, optionally refined by inner fixed-point passes for implicitness
in y. `_backward_solve` is that loop for the primary solve, the
dynamic-consistency tail and the fluctuation system's V loop. Conditional
expectations use global polynomial least squares on standardized
monomials, with one factorization per step: the R factor of the design's
QR, whose singular values give the rank (count above
eps * max(m, p) * sigma_max) and the condition number checked against
cond_limit; a response b projects as A R^-1 R^-T A^T b. The projections
depend on the forward states alone, so each ensemble keeps one
`RegressionPlan` per basis and cond_limit: the first solve on the ensemble
factors each step, and every later solve on it projects with the stored
fits. The solution carries its ensemble and its plan, so the adjoint, the
drift decomposition, the Picard fields and the dynamic-consistency
smoothing neither simulate nor factor again.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.special import logsumexp, softmax

from .drivers import Driver, TruncatedDriver
from .errors import (
    InvalidComparisonPairError,
    InvalidDriverError,
    NoContractionError,
    OracleOverflowError,
    SimulationDivergedError,
    SingularRegressionError,
    SolverDivergedError,
)
from .nets import verify_convexity, verify_monotone
from .stochastic import (
    BrownianBundle,
    ForwardModel,
    PathEnsemble,
    TimeGrid,
    simulate_forward,
)

__all__ = [
    "RegressionBasis",
    "SolveOptions",
    "BsdeProblem",
    "BsdeSolution",
    "RegressionPlan",
    "SmoothFunction",
    "solve_bsde_lsmc",
    "solve_truncated",
    "closed_form_oracle",
    "check_comparison",
    "check_convexity_and_jensen",
    "check_dynamic_consistency",
    "effective_drift_decomposition",
    "dual_lower_bound",
    "solve_fbsde_picard",
    "export_solution_csv",
]


# ---------------------------------------------------------------------------
# regression basis and the projection layer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DesignTransform:
    """Standardization and monomial exponents of one step's design."""

    mean: np.ndarray
    scale: np.ndarray
    exponents: tuple

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The design at states x: a constant column, then one per exponent.

        u_i ** p is formed as ((u_i * u_i) * u_i) ..., and each monomial
        multiplies its factors left to right in coordinate order.
        """
        u = (np.atleast_2d(x) - self.mean) / self.scale
        powers = []   # powers[i][p - 1] = u_i ** p
        for i in range(u.shape[1]):
            col = u[:, i]
            powers.append([col])
            for _ in range(max((e[i] for e in self.exponents), default=0) - 1):
                powers[i].append(powers[i][-1] * col)
        design = np.empty((u.shape[0], len(self.exponents) + 1))
        design[:, 0] = 1.0
        for j, e in enumerate(self.exponents, start=1):
            factors = [powers[i][p - 1] for i, p in enumerate(e) if p]
            design[:, j] = factors[0]
            for f in factors[1:]:
                design[:, j] *= f
        return design


@dataclass(frozen=True)
class RegressionBasis:
    """Polynomial features of the state up to a total degree.

    Coordinates are standardized per step; monomials involving a degenerate
    (zero-spread) coordinate are dropped, so a deterministic slice reduces
    to the plain cross-path mean.
    """

    degree: int = 3

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")

    def fit_design(self, x: np.ndarray):
        x = np.atleast_2d(x)
        mean = x.mean(axis=0)
        scale = x.std(axis=0)
        live = [i for i in range(x.shape[1]) if scale[i] > 0]
        exps = tuple(
            tuple(combo.count(i) for i in range(x.shape[1]))
            for total in range(1, self.degree + 1)
            for combo in itertools.combinations_with_replacement(live, total)
        )
        tr = DesignTransform(mean=mean, scale=np.where(scale > 0, scale, 1.0), exponents=exps)
        return tr.apply(x), tr


@dataclass(frozen=True)
class Projection:
    """Least-squares projection onto one step's design A, from R^-1 of A's QR.

    The transform rebuilds A from the step's states; it is None for designs
    that are not a basis of the state alone.
    """

    r_inv: np.ndarray
    cond: float
    transform: DesignTransform | None = None

    def coef(self, design: np.ndarray, response: np.ndarray) -> np.ndarray:
        return self.r_inv @ (self.r_inv.T @ (design.T @ response))

    def project(self, design: np.ndarray, response: np.ndarray) -> np.ndarray:
        return design @ self.coef(design, response)


def fit_projection(design: np.ndarray, step: int, cond_limit: float,
                   transform: DesignTransform | None = None) -> Projection:
    """Factor a design; raises SingularRegressionError when the singular
    values of R give a rank below p or a condition number above cond_limit."""
    r = np.linalg.qr(design, mode="r")
    sv = np.linalg.svd(r, compute_uv=False)
    rank = int(np.count_nonzero(sv > np.finfo(np.float64).eps * max(design.shape) * sv[0]))
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if rank < design.shape[1] or cond > cond_limit:
        raise SingularRegressionError(step=step, cond=cond)
    return Projection(np.linalg.inv(r), cond, transform)


@dataclass(frozen=True, eq=False)
class RegressionPlan:
    """One ensemble's step projections, each factored at most once.

    The projections depend on the forward states alone, not on the driver
    or the terminal, so every solve on an ensemble shares the plan that
    `of` keeps on it per (basis, cond_limit). Steps are factored on first
    use, in the order the backward solve walks them. Designs are not stored
    (m * p * n floats); a factored step's design is rebuilt from its
    transform. The plan holds the ensemble's states, not the ensemble, so
    dropping the ensemble frees both.
    """

    states: np.ndarray
    basis: RegressionBasis
    cond_limit: float
    fits: list     # per step, the Projection once factored

    @classmethod
    def of(cls, ensemble: PathEnsemble, basis: RegressionBasis,
           cond_limit: float) -> "RegressionPlan":
        key = (basis, cond_limit)
        if key not in ensemble._plans:
            ensemble._plans[key] = cls(ensemble.states, basis, cond_limit,
                                       [None] * ensemble.grid.n_steps)
        return ensemble._plans[key]

    def step(self, k: int):
        """Step k's (design, Projection), factoring the step on first use."""
        x = self.states[:, k, :]
        fit = self.fits[k]
        if fit is None:
            design, tr = self.basis.fit_design(x)
            fit = self.fits[k] = fit_projection(design, k, self.cond_limit, tr)
            return design, fit
        return fit.transform.apply(x), fit


# ---------------------------------------------------------------------------
# problem and solution containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BsdeProblem:
    """Forward data, terminal functional and driver.

    Either a pre-simulated ensemble or (model, grid, bundle) must be given.
    The terminal functional maps the ensemble to one value per path.
    """

    driver: Driver
    terminal: Callable | None = None
    model: ForwardModel | None = None
    grid: TimeGrid | None = None
    bundle: BrownianBundle | None = None
    ensemble: PathEnsemble | None = None

    def realize(self) -> PathEnsemble:
        if self.ensemble is not None:
            return self.ensemble
        if self.model is None or self.grid is None or self.bundle is None:
            raise ValueError("need either an ensemble or (model, grid, bundle)")
        return simulate_forward(self.model, self.grid, self.bundle)


@dataclass(frozen=True)
class SolveOptions:
    inner_picard_iters: int = 2
    z_clip: float | None = 10.0   # multiple of the per-step interquartile range
    cond_limit: float = 1e12


@dataclass(frozen=True)
class BsdeSolution:
    problem: BsdeProblem
    ensemble: PathEnsemble     # the forward paths the solve ran on
    plan: RegressionPlan       # the ensemble's fits, each with its condition number
    y: np.ndarray              # (m, n_steps + 1)
    z: np.ndarray              # (m, n_steps, d)
    continuation: np.ndarray   # (m, n_steps) regressed continuation values
    y0: float
    y0_standard_error: float
    passes: int                # inner fixed-point passes per step
    z_clip_count: np.ndarray
    max_abs_y: float


def _clip_z(z: np.ndarray, mult: float):
    """Clip each column to median +- mult * IQR (none if the IQR is 0); returns (clipped, count)."""
    q1, med, q3 = np.percentile(z, [25.0, 50.0, 75.0], axis=0)
    iqr = q3 - q1
    lo = np.where(iqr > 0, med - mult * iqr, -np.inf)
    hi = np.where(iqr > 0, med + mult * iqr, np.inf)
    return np.clip(z, lo, hi), int(np.count_nonzero((z < lo) | (z > hi)))


def _backward_solve(
    terminal_values: np.ndarray,
    increments: np.ndarray,
    dt: float,
    step_design: Callable,
    step_value: Callable,
    passes: int,
    z_clip: float | None = None,
):
    """The LSMC recursion over the steps of increments, from terminal values.

    step_design(k) gives step k's (design, Projection) and step_value(k, y, z)
    the driver value there. Returns (y, z, continuation, clip counts).
    """
    m, n, d = increments.shape
    y = np.empty((m, n + 1))
    z = np.zeros((m, n, d))
    cont = np.empty((m, n))
    clips = np.zeros(n, dtype=int)

    y[:, n] = terminal_values
    if not np.all(np.isfinite(y[:, n])):
        raise SolverDivergedError("non-finite terminal values")

    for k in range(n - 1, -1, -1):
        design, fit = step_design(k)
        c_k = fit.project(design, y[:, k + 1])

        # Martingale-increment regression for Z with the continuation value
        # as control variate: E[(Y - c)dW | X] = E[Y dW | X], at far lower
        # response variance (the compounding term of the plain estimator).
        z_k = fit.project(design, (y[:, k + 1] - c_k)[:, None] * increments[:, k, :]) / dt
        if z_clip is not None and np.isfinite(z_clip):
            z_k, clips[k] = _clip_z(z_k, z_clip)

        y_k = c_k
        for _ in range(max(1, passes)):
            if not np.all(np.isfinite(y_k)):
                raise SolverDivergedError(f"non-finite values at step {k}")
            y_k = c_k + step_value(k, y_k, z_k) * dt
        if not np.all(np.isfinite(y_k)):
            raise SolverDivergedError(f"non-finite values at step {k}")

        y[:, k] = y_k
        z[:, k, :] = z_k
        cont[:, k] = c_k

    return y, z, cont, clips


def _driver_value(driver: Driver, ens: PathEnsemble) -> Callable:
    nodes = ens.grid.nodes
    return lambda k, y_k, z_k: driver.value(nodes[k], ens.states[:, k, :], y_k, z_k)


def solve_bsde_lsmc(
    problem: BsdeProblem,
    basis: RegressionBasis = RegressionBasis(),
    opts: SolveOptions = SolveOptions(),
) -> BsdeSolution:
    """Solve the backward equation by regression Monte Carlo.

    Y0 is read from the step-0 regression, which collapses to the plain
    cross-path mean for a deterministic initial state; the reported standard
    error is the Monte Carlo error of that root-step mean. The steps are
    projected with the ensemble's plan for basis and opts.cond_limit, so
    each is factored by the first solve on the ensemble only.
    """
    ens = problem.realize()
    plan = RegressionPlan.of(ens, basis, opts.cond_limit)
    xi = np.asarray(problem.terminal(ens), dtype=np.float64).reshape(ens.n_paths)
    if not np.all(np.isfinite(xi)):
        raise ValueError("terminal functional produced non-finite values")

    y, z, cont, clips = _backward_solve(
        xi, ens.bundle.increments, ens.grid.dt, plan.step,
        _driver_value(problem.driver, ens), opts.inner_picard_iters, z_clip=opts.z_clip,
    )
    m = ens.n_paths
    # Monte Carlo error of the root value, estimated from the pathwise
    # Euler-sum estimator xi + sum_k f dt (y_k - cont_k equals f dt).
    pathwise = y[:, -1] + np.sum(y[:, :-1] - cont, axis=1)
    se = float(np.std(pathwise, ddof=1) / np.sqrt(m))
    return BsdeSolution(
        problem, ens, plan,
        y=y, z=z, continuation=cont,
        y0=float(y[0, 0]),
        y0_standard_error=se,
        passes=max(1, opts.inner_picard_iters),
        z_clip_count=clips,
        max_abs_y=float(np.max(np.abs(y))),
    )


def solve_truncated(
    problem: BsdeProblem,
    k_level: float,
    basis: RegressionBasis = RegressionBasis(),
    opts: SolveOptions = SolveOptions(),
) -> BsdeSolution:
    """Solve with terminal data and the driver's y argument clamped to [-k, k]."""
    if k_level <= 0:
        raise ValueError("k_level must be positive")
    base_terminal = problem.terminal
    clamped = replace(
        problem,
        terminal=lambda ens: np.clip(base_terminal(ens), -k_level, k_level),
        driver=TruncatedDriver(problem.driver, k_level),
    )
    return solve_bsde_lsmc(clamped, basis, opts)


# ---------------------------------------------------------------------------
# closed-form oracles
# ---------------------------------------------------------------------------

def closed_form_oracle(
    kind: str,
    xi_samples: Sequence[float],
    horizon: float | None = None,
    theta: float | None = None,
    b=None,
    terminal_motion: np.ndarray | None = None,
) -> float:
    """Independent Monte Carlo references for zero, entropic and linear drivers.

    zero: plain mean. entropic: -(1/theta) log mean exp(-theta xi), evaluated
    in log space. linear: mean under the exponential reweighting built from
    the terminal Brownian motion (self-normalized), one row per sample:
    shape (m,) for d = 1, or (m, d).
    """
    xi = np.asarray(xi_samples, dtype=np.float64).ravel()
    if xi.size == 0:
        raise ValueError("xi_samples must be non-empty")
    if not np.all(np.isfinite(xi)):
        raise ValueError("xi_samples must be finite")

    if kind == "zero":
        return float(np.mean(xi))
    if kind == "entropic":
        if theta is None or theta == 0.0:
            raise ValueError("entropic oracle requires theta != 0")
        with np.errstate(over="ignore"):
            val = -(logsumexp(-theta * xi) - np.log(xi.size)) / theta
        if not np.isfinite(val):
            raise OracleOverflowError(f"entropic oracle overflowed (theta={theta})")
        return float(val)
    if kind == "linear":
        if b is None or horizon is None or terminal_motion is None:
            raise ValueError("linear oracle requires b, horizon and terminal_motion")
        bvec = np.atleast_1d(np.asarray(b, dtype=np.float64))
        w = np.asarray(terminal_motion, dtype=np.float64)
        if w.ndim == 1:
            w = w[:, None]
        if w.ndim != 2 or w.shape[0] != xi.size:
            raise ValueError(f"terminal_motion must be (m,) or (m, d) with m = {xi.size}")
        logw = w @ bvec - 0.5 * float(bvec @ bvec) * horizon
        val = float(softmax(logw) @ xi)
        if not np.isfinite(val):
            raise OracleOverflowError("linear oracle overflowed")
        return val
    raise ValueError(f"unknown oracle kind '{kind}'")


# ---------------------------------------------------------------------------
# axiom harnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothFunction:
    """A C2 scalar function with its first two derivatives."""

    f: Callable
    df: Callable
    d2f: Callable

    @staticmethod
    def square() -> "SmoothFunction":
        return SmoothFunction(f=lambda v: v * v, df=lambda v: 2.0 * v,
                              d2f=lambda v: 2.0 + 0.0 * v)

    @staticmethod
    def identity() -> "SmoothFunction":
        return SmoothFunction(f=lambda v: v, df=lambda v: 1.0 + 0.0 * v,
                              d2f=lambda v: 0.0 * v)


@dataclass(frozen=True)
class ComparisonReport:
    y0_high: float
    y0_low: float
    y0_gap: float
    per_step_min: np.ndarray
    violation_count: int
    max_violation: float
    mc_noise: float


def check_comparison(
    problem: BsdeProblem,
    terminal_high: Callable,
    terminal_low: Callable,
    basis: RegressionBasis = RegressionBasis(),
    opts: SolveOptions = SolveOptions(),
    tol: float = 0.0,
    monotone_samples: int = 2_000,
) -> ComparisonReport:
    """Solve both terminal conditions on the same noise and report ordering.

    Preconditions: terminal_high >= terminal_low on every path, and the
    driver is non-increasing in y (checked by sampling its y derivative).
    """
    ens = problem.realize()
    xi_hi = np.asarray(terminal_high(ens), dtype=np.float64).reshape(ens.n_paths)
    xi_lo = np.asarray(terminal_low(ens), dtype=np.float64).reshape(ens.n_paths)
    if np.any(xi_hi < xi_lo):
        bad = int(np.argmax(xi_hi < xi_lo))
        raise InvalidComparisonPairError(
            f"terminal ordering violated at path {bad}: {xi_hi[bad]} < {xi_lo[bad]}"
        )
    mono = verify_monotone(
        problem.driver, n_samples=monotone_samples, seed=0,
        state_dim=ens.state_dim, z_dim=ens.bundle.dim,
    )
    if not mono.passed:
        raise InvalidDriverError(f"driver is not monotone in y (max df/dy = {mono.max_dy:.3e})")

    shared = replace(problem, ensemble=ens)
    sol_hi = solve_bsde_lsmc(replace(shared, terminal=terminal_high), basis, opts)
    sol_lo = solve_bsde_lsmc(replace(shared, terminal=terminal_low), basis, opts)
    diff = sol_hi.y - sol_lo.y
    return ComparisonReport(
        y0_high=sol_hi.y0,
        y0_low=sol_lo.y0,
        y0_gap=sol_hi.y0 - sol_lo.y0,
        per_step_min=diff.min(axis=0),
        violation_count=int(np.sum(diff < -tol)),
        max_violation=float(max(0.0, -diff.min())),
        mc_noise=max(sol_hi.y0_standard_error, sol_lo.y0_standard_error),
    )


@dataclass(frozen=True)
class ConvexityJensenReport:
    delta_convexity: float
    delta_jensen: float
    y0_mix: float
    y0_1: float
    y0_2: float
    mc_noise: float
    tol: float
    passed: bool


def check_convexity_and_jensen(
    problem: BsdeProblem,
    terminal_1: Callable,
    terminal_2: Callable,
    lam: float,
    phi: SmoothFunction,
    basis: RegressionBasis = RegressionBasis(),
    opts: SolveOptions = SolveOptions(),
    tol: float = 0.0,
    convexity_samples: int = 500,
) -> ConvexityJensenReport:
    """Operator convexity gap and Jensen gap, on common noise.

    delta_convexity = lam Y0(xi1) + (1-lam) Y0(xi2) - Y0(mix) and
    delta_jensen = Y0(phi(xi1)) - phi(Y0(xi1)); both must be >= -tol.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    ens = problem.realize()
    cvx = verify_convexity(
        problem.driver, n_segments=convexity_samples, seed=0, tol=1e-9,
        state_dim=ens.state_dim, z_dim=ens.bundle.dim,
    )
    if not cvx.passed:
        raise InvalidDriverError(
            f"driver failed the convexity check (max violation {cvx.max_violation:.3e})"
        )
    xi1 = np.asarray(terminal_1(ens), dtype=np.float64).reshape(ens.n_paths)
    probe = np.linspace(xi1.min(), xi1.max(), 33)
    mid_gap = phi.f(0.5 * (probe[:-1] + probe[1:])) - 0.5 * (phi.f(probe[:-1]) + phi.f(probe[1:]))
    if np.max(mid_gap) > 1e-9:
        raise ValueError("phi failed the midpoint convexity spot check")

    shared = replace(problem, ensemble=ens)
    sol1 = solve_bsde_lsmc(replace(shared, terminal=terminal_1), basis, opts)
    sol2 = solve_bsde_lsmc(replace(shared, terminal=terminal_2), basis, opts)
    sol_mix = solve_bsde_lsmc(
        replace(shared, terminal=lambda e: lam * terminal_1(e) + (1.0 - lam) * terminal_2(e)),
        basis, opts,
    )
    sol_phi = solve_bsde_lsmc(
        replace(shared, terminal=lambda e: phi.f(terminal_1(e))), basis, opts
    )

    delta_cvx = lam * sol1.y0 + (1.0 - lam) * sol2.y0 - sol_mix.y0
    delta_jen = sol_phi.y0 - float(phi.f(sol1.y0))
    noise = max(sol1.y0_standard_error, sol2.y0_standard_error,
                sol_mix.y0_standard_error, sol_phi.y0_standard_error)
    return ConvexityJensenReport(
        delta_convexity=float(delta_cvx),
        delta_jensen=float(delta_jen),
        y0_mix=sol_mix.y0, y0_1=sol1.y0, y0_2=sol2.y0,
        mc_noise=noise, tol=tol,
        passed=(delta_cvx >= -tol) and (delta_jen >= -tol),
    )


@dataclass(frozen=True)
class DynamicConsistencyReport:
    y0_direct: float
    y0_nested: float
    gap: float
    split_step: int
    mc_noise: float


def check_dynamic_consistency(
    problem: BsdeProblem,
    split_time: float,
    basis: RegressionBasis = RegressionBasis(),
    opts: SolveOptions = SolveOptions(),
) -> DynamicConsistencyReport:
    """Direct solve versus the nested solve through a regressed mid surface.

    The tail solve on [s, T] produces time-s values; their regression on the
    time-s states is the terminal data for the head solve on [0, s].
    """
    ens = problem.realize()
    ks = ens.grid.node_index(split_time)
    direct = solve_bsde_lsmc(replace(problem, ensemble=ens), basis, opts)
    if ks == ens.grid.n_steps:
        nested_y0 = direct.y0
    else:
        design, fit = direct.plan.step(ks)
        y, _, _, _ = _backward_solve(
            fit.project(design, direct.y[:, ks]), ens.bundle.increments[:, :ks], ens.grid.dt,
            direct.plan.step, _driver_value(problem.driver, ens), opts.inner_picard_iters,
            z_clip=opts.z_clip,
        )
        nested_y0 = float(y[0, 0])
    return DynamicConsistencyReport(
        y0_direct=direct.y0,
        y0_nested=nested_y0,
        gap=abs(direct.y0 - nested_y0),
        split_step=ks,
        mc_noise=direct.y0_standard_error,
    )


@dataclass(frozen=True)
class DriftDecomposition:
    ambiguity_drift: np.ndarray        # per-step ensemble means
    convexity_correction: np.ndarray
    pathwise_ambiguity: np.ndarray | None = None
    pathwise_convexity: np.ndarray | None = None


def effective_drift_decomposition(
    solution: BsdeSolution,
    phi: SmoothFunction,
    return_pathwise: bool = False,
) -> DriftDecomposition:
    """Split the drift of phi(Y) into the driver-induced part and the Ito
    convexity correction, per step."""
    ens = solution.ensemble
    driver = solution.problem.driver
    nodes = ens.grid.nodes
    n = ens.grid.n_steps
    amb = np.zeros(n)
    conv = np.zeros(n)
    amb_path = np.zeros((ens.n_paths, n)) if return_pathwise else None
    conv_path = np.zeros((ens.n_paths, n)) if return_pathwise else None
    for k in range(n):
        y_k = solution.y[:, k]
        z_k = solution.z[:, k, :]
        f_k = driver.value(nodes[k], ens.states[:, k, :], y_k, z_k)
        a = -phi.df(y_k) * f_k
        c = 0.5 * phi.d2f(y_k) * np.sum(z_k * z_k, axis=1)
        amb[k] = a.mean()
        conv[k] = c.mean()
        if return_pathwise:
            amb_path[:, k] = a
            conv_path[:, k] = c
    return DriftDecomposition(
        ambiguity_drift=amb, convexity_correction=conv,
        pathwise_ambiguity=amb_path, pathwise_convexity=conv_path,
    )


# ---------------------------------------------------------------------------
# dual representation lower bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualBoundReport:
    controls: np.ndarray
    values: np.ndarray
    best_value: float
    best_control: np.ndarray


def _numeric_conjugate(driver: Driver, u: np.ndarray, state_dim: int) -> float:
    """sup_z (z.u - f(z)) by 1-d grid search; detects unbounded suprema."""
    if u.size != 1:
        raise InvalidDriverError("numeric Fenchel transform supports d = 1 only")
    radius = 8.0 * (1.0 + float(np.abs(u[0])))
    x0 = np.zeros((1, state_dim))
    for _ in range(5):
        zs = np.linspace(-radius, radius, 4001)
        batch_x = np.repeat(x0, zs.size, axis=0)
        fvals = driver.value(0.0, batch_x, np.zeros(zs.size), zs[:, None])
        objective = zs * u[0] - fvals
        top = float(np.max(objective))
        near = np.abs(objective - top) <= 1e-12 * max(1.0, abs(top))
        if np.any(near[1:-1]):   # supremum attained away from the grid edge
            return top
        radius *= 4.0
    raise InvalidDriverError("Fenchel supremum appears unbounded (driver not convex?)")


def dual_lower_bound(
    problem: BsdeProblem,
    control_grid: Sequence,
    fenchel: Callable | None = None,
) -> DualBoundReport:
    """Lower bound sup_u E_Qu[xi + T g(u)] for y-independent convex drivers.

    Weights are the discrete exponential martingale exp(u.W_T - |u|^2 T / 2),
    accumulated in log space and self-normalized. g(u) = -sup_z(z.u - f(z)),
    supplied analytically via `fenchel` or computed by 1-d grid maximization.
    Ties in the argmax go to the smallest control norm.
    """
    ens = problem.realize()
    d = ens.bundle.dim
    controls = np.atleast_2d(np.asarray(control_grid, dtype=np.float64))
    if controls.ndim != 2 or controls.shape[1] != d:
        raise ValueError(f"control_grid must be (k, {d}), got shape {controls.shape}")

    probe = problem.driver.linearize(
        0.0,
        np.zeros((64, ens.state_dim)),
        np.linspace(-2, 2, 64),
        np.linspace(-2, 2, 64)[:, None] * np.ones(d),
    )
    if np.max(np.abs(probe.dy)) > 1e-12:
        raise InvalidDriverError("dual bound requires a driver independent of y")
    cvx = verify_convexity(problem.driver, n_segments=400, seed=0, tol=1e-9,
                           state_dim=ens.state_dim, z_dim=d)
    if not cvx.passed:
        raise InvalidDriverError("dual bound requires a driver convex in z")

    xi = np.asarray(problem.terminal(ens), dtype=np.float64).reshape(ens.n_paths)
    w_t = ens.bundle.terminal_motion()
    horizon = ens.grid.horizon

    values = np.empty(controls.shape[0])
    for i, u in enumerate(controls):
        conj = float(fenchel(u)) if fenchel is not None else _numeric_conjugate(
            problem.driver, u, ens.state_dim
        )
        logw = w_t @ u - 0.5 * float(u @ u) * horizon
        values[i] = float(softmax(logw) @ xi) + horizon * (-conj)

    best = np.max(values)
    tied = np.flatnonzero(values == best)
    norms = np.linalg.norm(controls[tied], axis=1)
    pick = tied[int(np.argmin(norms))]
    return DualBoundReport(
        controls=controls, values=values,
        best_value=float(values[pick]), best_control=controls[pick].copy(),
    )


# ---------------------------------------------------------------------------
# coupled forward-backward system by Picard decoupling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldTable:
    """Regressed (y, z) fields, evaluable at new states per step."""

    fits: tuple
    coefs: list      # per step, the coefficients of [Y_k, Z_k] on the step's design

    def y_field(self, k: int, x: np.ndarray) -> np.ndarray:
        return self.fits[k].transform.apply(x) @ self.coefs[k][:, 0]

    def z_field(self, k: int, x: np.ndarray) -> np.ndarray:
        return self.fits[k].transform.apply(x) @ self.coefs[k][:, 1:]


def _fit_fields(sol: BsdeSolution) -> FieldTable:
    coefs = []
    for k in range(sol.ensemble.grid.n_steps):
        design, fit = sol.plan.step(k)
        coefs.append(fit.coef(design, np.column_stack([sol.y[:, k], sol.z[:, k, :]])))
    return FieldTable(fits=tuple(sol.plan.fits), coefs=coefs)


@dataclass(frozen=True)
class FbsdeResult:
    ensemble: PathEnsemble
    solution: BsdeSolution
    residuals: list
    iterations: int


def solve_fbsde_picard(
    model: ForwardModel,
    grid: TimeGrid,
    bundle: BrownianBundle,
    terminal: Callable,
    driver: Driver,
    basis: RegressionBasis = RegressionBasis(),
    opts: SolveOptions = SolveOptions(),
    max_iters: int = 25,
    tol: float = 1e-8,
) -> FbsdeResult:
    """Decouple the fully coupled system by freezing regressed (y, z) fields.

    Each iteration re-simulates the forward paths with the previous fields
    (common noise) and re-solves backward. The residual is the sup change of
    Y0 and of the y field on the new paths. Three consecutive non-decreasing
    residuals raise NoContractionError, the numerical echo of the smallness
    condition on the horizon.
    """
    if not model.coupled_in_yz:
        raise ValueError("solve_fbsde_picard expects a coupled model")
    d = bundle.dim

    zero_y = lambda k, x: np.zeros(x.shape[0])
    zero_z = lambda k, x: np.zeros((x.shape[0], d))

    ens = simulate_forward(model, grid, bundle, zero_y, zero_z)
    sol = solve_bsde_lsmc(
        BsdeProblem(driver=driver, terminal=terminal, ensemble=ens), basis, opts
    )
    fields = _fit_fields(sol)

    residuals = []
    for iteration in range(1, max_iters + 1):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                new_ens = simulate_forward(model, grid, bundle,
                                           fields.y_field, fields.z_field)
                new_sol = solve_bsde_lsmc(
                    BsdeProblem(driver=driver, terminal=terminal, ensemble=new_ens),
                    basis, opts,
                )
                new_fields = _fit_fields(new_sol)
        except (SimulationDivergedError, SolverDivergedError, SingularRegressionError) as exc:
            # A blown-up iterate is the strongest evidence of non-contraction.
            raise NoContractionError(residuals + [float("inf")]) from exc

        surface_change = 0.0
        for k in range(grid.n_steps):
            x_k = new_ens.states[:, k, :]
            delta = np.max(np.abs(new_fields.y_field(k, x_k) - fields.y_field(k, x_k)))
            surface_change = max(surface_change, float(delta))
        residual = max(abs(new_sol.y0 - sol.y0), surface_change)
        residuals.append(residual)

        ens, sol, fields = new_ens, new_sol, new_fields
        if residual < tol:
            return FbsdeResult(ensemble=ens, solution=sol, residuals=residuals,
                               iterations=iteration)
        if not np.isfinite(residual) or (len(residuals) >= 4 and all(
            residuals[-i] >= residuals[-i - 1] for i in (1, 2, 3)
        )):
            raise NoContractionError(residuals)

    raise NoContractionError(residuals)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def export_solution_csv(solution: BsdeSolution, path) -> None:
    """Per-step summary: (step, t, mean_Y, sd_Y, mean_normZ, clip_count, regression_cond)."""
    nodes = solution.ensemble.grid.nodes
    n = solution.ensemble.grid.n_steps
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "t", "mean_Y", "sd_Y", "mean_normZ",
                         "clip_count", "regression_cond"])
        for k in range(n + 1):
            row = [k, repr(float(nodes[k])),
                   repr(float(solution.y[:, k].mean())),
                   repr(float(solution.y[:, k].std(ddof=1)))]
            if k < n:
                norm_z = np.sqrt(np.sum(solution.z[:, k, :] ** 2, axis=1)).mean()
                row += [repr(float(norm_z)), int(solution.z_clip_count[k]),
                        repr(solution.plan.fits[k].cond)]
            else:
                row += ["", "", ""]
            writer.writerow(row)
