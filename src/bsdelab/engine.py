"""Backward least-squares Monte Carlo solver and its verification harnesses.

The discrete scheme is the martingale-increment LSMC recursion (Gobet,
Lemor & Warin, 2005): terminal values anchor the last slice, then per step
the control is read from the regression of Y_{k+1} dW / dt on state
features and the value is the regressed continuation plus the driver
increment, optionally refined by inner fixed-point passes for implicitness
in y. `_backward_solve` is that loop for the primary solve, the
dynamic-consistency tail, the particle clouds' valuations and the
fluctuation system's V loop. It sweeps R
terminals on one ensemble at once, as R records: per step one design, one
(R, m) projection for the continuation values, one (R d, m) projection for
the martingale increments, one clip call and one driver evaluation on the
R m stacked rows. The clip's quartiles come from three single-kth
partitions of each row and equal `np.percentile`'s linear rule.
`solve_bsde_many` returns one solution per terminal, and the loss and the
comparison and convexity checks solve their terminals in that one sweep;
`solve_bsde_lsmc` is its one-column case.

Per-path data is time-major, as in `stochastic`: the sweep keeps Y, Z and
the continuation values in record-major (R, n + 1, m), (R, n, m, d) and
(R, n, m) buffers, so each step of each record is one contiguous row of m
values, and the R rows of a step are the R m stacked rows of the driver
call. A solution's y, z and continuation are (m, n + 1), (m, n, d) and
(m, n) views of its one contiguous record, and responses are projected
as rows of m values. The design stays row-major (m, p): a column-major
design builds faster, but BLAS then sums every projection's A^T b in
another order, which moves Z by several 1e-13 of its scale at 100 000
paths.

Conditional expectations use global polynomial least squares on
standardized monomials, with one factorization per step: the R factor of
the design's QR, whose singular values give the rank (count above
eps * max(m, p) * sigma_max) and the condition number, which may not
exceed 1e12; a response row b projects as b A R^-1 R^-T A^T. LAPACK's
dgeqrf factors the design in place, in a (p, m) workspace that holds the
design's transpose, which LAPACK reads as the column-major m x p design:
no copy of the design is made beyond that one. A plan allocates its
workspace at its first factorization and drops it once every step is
factored; the fluctuation system's V loop keeps one for its whole solve.
The projections depend on the forward states alone, so each ensemble
keeps one `RegressionPlan` per basis: the first solve on the ensemble
factors each step, and every later solve on it projects with the stored
fits. A `BsdeProblem` holds the ensemble its caller simulated, so no
solve or check here simulates forward paths; only the Picard iteration of
the coupled system does, once per iterate. The solution carries its
problem and its plan, so the adjoint, the drift decomposition, the Picard
fields and the dynamic-consistency smoothing neither simulate nor factor
again.
A terminal functional gives exactly one value per path, shape (m,).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from numpy.linalg import lapack_lite
from scipy.special import logsumexp, softmax

from ._check import count, finite, per_path, real
from ._csv import write_csv
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
    "solve_bsde_many",
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
        """The design at states x (m, d): a constant column, then one per exponent.

        u_i ** p is formed as ((u_i * u_i) * u_i) ..., and each monomial
        multiplies its factors left to right in coordinate order.
        """
        u = (x - self.mean) / self.scale
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
        count("degree", self.degree, 0)

    def fit_design(self, x: np.ndarray):
        """The design at states x (m, state_dim), with its transform."""
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

    Responses are rows: an (m,) vector or a (c, m) stack of them, one value
    per path. The transform rebuilds A from the step's states; it is None
    for designs that are not a basis of the state alone.
    """

    r_inv: np.ndarray
    cond: float
    transform: DesignTransform | None = None

    def coef(self, design: np.ndarray, response: np.ndarray) -> np.ndarray:
        """The coefficients of each response row on the design's columns."""
        return response @ design @ self.r_inv @ self.r_inv.T

    def project(self, design: np.ndarray, response: np.ndarray) -> np.ndarray:
        return self.coef(design, response) @ design.T


# The largest condition number a solve's step design may have.
_COND_LIMIT = 1e12


def _workspace(work: np.ndarray | None, design: np.ndarray) -> np.ndarray:
    """work if it can hold the transpose of design, else a new buffer that can."""
    m, p = design.shape
    if work is None or work.shape[1] != m or len(work) < p:
        work = np.empty((p, m))
    return work


def fit_projection(design: np.ndarray, step: int, cond_limit: float,
                   transform: DesignTransform | None = None,
                   work: np.ndarray | None = None) -> Projection:
    """Factor a design; raises SingularRegressionError when the singular
    values of R give a rank below p or a condition number above cond_limit.

    work is a C-contiguous float64 buffer of m columns and at least p rows;
    its first p rows hold the design's transpose, which LAPACK's dgeqrf reads
    as the column-major m x p design and overwrites with its QR. Without
    such a buffer, one is allocated. R equals numpy's QR in mode "r" bit for bit:
    lapack_lite is numpy's own binding of the same LAPACK routine.
    """
    m, p = design.shape
    a = _workspace(work, design)[:p]
    np.copyto(a, design.T)
    tau = np.empty(min(m, p))
    size = np.empty(1)
    lapack_lite.dgeqrf(m, p, a, max(1, m), tau, size, -1, 0)
    lwork = max(1, p, int(size[0]))
    info = lapack_lite.dgeqrf(m, p, a, max(1, m), tau, np.empty(lwork), lwork, 0)["info"]
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeqrf returned info {info} at step {step}")
    r = np.triu(a[:, :min(m, p)].T)
    sv = np.linalg.svd(r, compute_uv=False)
    rank = int(np.count_nonzero(sv > np.finfo(np.float64).eps * max(design.shape) * sv[0]))
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if rank < p or cond > cond_limit:
        raise SingularRegressionError(step=step, cond=cond)
    return Projection(np.linalg.inv(r), cond, transform)


@dataclass(eq=False)
class RegressionPlan:
    """One ensemble's step projections, each factored at most once.

    The projections depend on the forward states alone, not on the driver
    or the terminal, so every solve on an ensemble shares the plan that
    `of` keeps on it per basis. Steps are factored on first use, in the
    order the backward solve walks them. Designs are not stored (m * p * n
    floats); a factored step's design is rebuilt from its transform. The
    plan holds the ensemble's states, not the ensemble, so dropping the
    ensemble frees both.

    Every step is factored in place in one (p, m) workspace, allocated at
    the plan's first factorization (and again only for a wider design) and
    dropped once every step is factored.
    """

    states: np.ndarray
    basis: RegressionBasis
    fits: list     # per step, the Projection once factored
    _work: np.ndarray | None = field(default=None, init=False, repr=False)

    @classmethod
    def of(cls, ensemble: PathEnsemble, basis: RegressionBasis) -> "RegressionPlan":
        if basis not in ensemble._plans:
            ensemble._plans[basis] = cls(ensemble.states, basis, [None] * ensemble.grid.n_steps)
        return ensemble._plans[basis]

    def step(self, k: int):
        """Step k's (design, Projection), factoring the step on first use."""
        x = self.states[:, k, :]
        fit = self.fits[k]
        if fit is None:
            design, tr = self.basis.fit_design(x)
            self._work = _workspace(self._work, design)
            fit = self.fits[k] = fit_projection(design, k, _COND_LIMIT, tr, self._work)
            if None not in self.fits:
                self._work = None
            return design, fit
        return fit.transform.apply(x), fit


# ---------------------------------------------------------------------------
# problem and solution containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class BsdeProblem:
    """A driver and a terminal functional on one ensemble of forward paths.

    The terminal functional maps the ensemble to one value per path; the
    checks that take their own terminals leave it None. The ensemble is
    required: the caller simulates the forward paths once, and every solve
    and check on the problem, or on a `replace` of it, runs on those paths
    and shares their regression plans.
    """

    driver: Driver
    terminal: Callable | None = None
    ensemble: PathEnsemble


@dataclass(frozen=True)
class SolveOptions:
    """Options of a backward solve.

    inner_picard_iters: fixed-point passes of the driver increment per step,
    an int >= 1. z_clip: None for no clip, or a positive finite multiple of
    the per-step interquartile range that Z is clipped to around its median.
    Other values of these two raise ValueError.
    """

    inner_picard_iters: int = 2
    z_clip: float | None = 10.0

    def __post_init__(self):
        count("inner_picard_iters", self.inner_picard_iters, 1)
        if self.z_clip is not None:
            real("z_clip", self.z_clip, above=0)


@dataclass(frozen=True)
class BsdeSolution:
    problem: BsdeProblem       # its ensemble holds the forward paths the solve ran on
    plan: RegressionPlan       # the ensemble's fits, each with its condition number
    # Views of one contiguous time-major record: y[:, k] and z[:, k, :]
    # are contiguous blocks.
    y: np.ndarray              # (m, n_steps + 1)
    z: np.ndarray              # (m, n_steps, d)
    continuation: np.ndarray   # (m, n_steps) regressed continuation values
    y0: float
    y0_standard_error: float
    passes: int                # inner fixed-point passes per step
    z_clip_count: np.ndarray
    max_abs_y: float


def _quartiles(z: np.ndarray):
    """Each row's (q1, median, q3) as (r, 1) arrays, by np.percentile's
    linear rule (Hyndman & Fan's method 7) and equal to its values.

    np.percentile partitions each row once at all six order statistics it
    reads, and numpy's multi-kth partition is slow. Here a copy of the rows
    is partitioned at the median's lower index, then its left part at q1's
    and its right part at q3's. Each quartile's upper neighbour is the
    minimum of the values after its lower one, up to and including the next
    partition point (the row's end for q3). The interpolation is numpy's
    `_lerp`, and like it reads the upper neighbour even at weight 0, so an
    infinite neighbour gives NaN. A zero quartile may differ from
    np.percentile's in sign.

    Rows of fewer than four values, where the parts are too short, and rows
    whose q3 is NaN are taken from np.percentile. Every row holding a NaN
    is among the latter: partition orders NaN last, so a NaN sits at q3's
    lower index or in the part above it, whose minimum is then NaN.
    """
    m = z.shape[1]
    if m < 4:
        return tuple(np.percentile(z, [25.0, 50.0, 75.0], axis=1, keepdims=True))
    at = [(m - 1) * q for q in (0.25, 0.5, 0.75)]
    i1, i2, i3 = (int(v) for v in at)
    p = z.copy()
    p.partition(i2, axis=1)
    p[:, :i2].partition(i1, axis=1)
    p[:, i2 + 1:].partition(i3 - i2 - 1, axis=1)
    quartiles = []
    for v, i, above in zip(at, (i1, i2, i3), (i2 + 1, i3 + 1, m)):
        a = p[:, i:i + 1]
        b = p[:, i + 1:above].min(axis=1, keepdims=True)
        t = v - i
        diff = b - a
        quartiles.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    fallback = np.isnan(quartiles[2][:, 0])
    if fallback.any():
        exact = np.percentile(z[fallback], [25.0, 50.0, 75.0], axis=1, keepdims=True)
        for q, e in zip(quartiles, exact):
            q[fallback] = e
    return tuple(quartiles)


def _clip_z(z: np.ndarray, mult: float):
    """Clip each row to median +- mult * IQR (none if the IQR is 0);
    returns (clipped, per-row clip counts). A NaN entry counts as clipped
    (NaN != NaN). No caller sees that count: the driver refuses a NaN z
    before a solution is returned, and the kernel's other callers drop
    their counts."""
    q1, med, q3 = _quartiles(z)
    iqr = q3 - q1
    lo = np.where(iqr > 0, med - mult * iqr, -np.inf)
    hi = np.where(iqr > 0, med + mult * iqr, np.inf)
    clipped = np.clip(z, lo, hi)
    return clipped, np.count_nonzero(clipped != z, axis=1)


def _state_rows(ens: PathEnsemble, n_cols: int) -> Callable:
    """k -> step k's states once per column, as the rows of a stacked driver
    call; the last step's tiling is kept for the step's further passes."""
    if n_cols == 1:
        return lambda k: ens.states[:, k, :]
    return functools.lru_cache(maxsize=1)(lambda k: np.tile(ens.states[:, k, :], (n_cols, 1)))


def _check_finite(rows: np.ndarray, n_cols: int, message: str) -> None:
    """Raise SolverDivergedError naming, as terminal_index, the first column
    whose stacked rows hold a non-finite value."""
    finite = np.isfinite(rows)
    if not finite.all():
        exc = SolverDivergedError(message)
        exc.terminal_index = int(np.argmin(finite.reshape(n_cols, -1).all(axis=1)))
        raise exc


# A blow-up is reported by SolverDivergedError alone, not by a warning.
@np.errstate(over="ignore", invalid="ignore")
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

    terminal_values is (R, m), for R terminals on the same paths. Per step
    the design is projected once for every column: the continuation values
    as R response rows and (Y - C) dW as R * d rows, row r * d + j for
    component j of column r.
    step_design(k) gives step k's (design, Projection) and
    step_value(k, y, z) the driver value on the R * m stacked rows, column
    r in rows r * m to (r + 1) * m. Returns (y, z, continuation, clip
    counts): record-major buffers (R, n + 1, m), (R, n, m, d), (R, n, m)
    and (R, n).
    """
    m, n, d = increments.shape
    n_cols = len(terminal_values)
    y = np.empty((n_cols, n + 1, m))
    z = np.empty((n_cols, n, m, d))
    cont = np.empty((n_cols, n, m))
    clips = np.zeros((n_cols, n), dtype=int)

    y[:, n] = terminal_values
    _check_finite(terminal_values, n_cols, "non-finite terminal values")

    for k in range(n - 1, -1, -1):
        design, fit = step_design(k)
        c_k = fit.project(design, y[:, k + 1])

        # Martingale-increment regression for Z with the continuation value
        # as control variate: E[(Y - c)dW | X] = E[Y dW | X], at far lower
        # response variance (the compounding term of the plain estimator).
        dw_response = (y[:, k + 1] - c_k)[:, None, :] * increments[:, k, :].T
        z_k = fit.project(design, dw_response.reshape(n_cols * d, m)) / dt
        if z_clip is not None:
            z_k, counts = _clip_z(z_k, z_clip)
            clips[:, k] = counts.reshape(n_cols, d).sum(axis=1)
        z[:, k] = np.swapaxes(z_k.reshape(n_cols, d, m), 1, 2)

        c_rows = c_k.reshape(-1)
        z_rows = z[:, k].reshape(n_cols * m, d)
        y_rows = c_rows
        for _ in range(passes):
            _check_finite(y_rows, n_cols, f"non-finite values at step {k}")
            y_rows = c_rows + step_value(k, y_rows, z_rows) * dt
        _check_finite(y_rows, n_cols, f"non-finite values at step {k}")

        y[:, k] = y_rows.reshape(n_cols, m)
        cont[:, k] = c_k

    return y, z, cont, clips


def _driver_value(driver: Driver, ens: PathEnsemble, n_cols: int = 1) -> Callable:
    nodes = ens.grid.nodes
    rows = _state_rows(ens, n_cols)
    return lambda k, y_k, z_k: driver.value(nodes[k], rows(k), y_k, z_k)


def solve_bsde_lsmc(
    problem: BsdeProblem,
    basis: RegressionBasis = RegressionBasis(),
    opts: SolveOptions = SolveOptions(),
) -> BsdeSolution:
    """Solve the backward equation by regression Monte Carlo.

    Y0 is read from the step-0 regression, which collapses to the plain
    cross-path mean for a deterministic initial state; the reported standard
    error is the Monte Carlo error of that root-step mean. The steps are
    projected with the ensemble's plan for basis, so each is factored by
    the first solve on the ensemble only.
    """
    return solve_bsde_many(problem, [problem.terminal], basis, opts)[0]


def _terminal_values(terminal: Callable, ens: PathEnsemble) -> np.ndarray:
    """The terminal functional's values on the ensemble, broadcast to one per path by the
    per-path rule; ValueError if there is none, an (m, 1) column or a non-finite value."""
    if terminal is None:
        raise ValueError("the problem has no terminal functional to solve for")
    xi = per_path("terminal", terminal(ens), (ens.n_paths,))
    return np.broadcast_to(finite("terminal", xi), (ens.n_paths,))


def _sweep(problem: BsdeProblem, terminals: Sequence[Callable],
           basis: RegressionBasis, opts: SolveOptions):
    """One backward sweep for the terminals on the problem's ensemble.

    Returns (plan, y, z, continuation, clip counts), the last four
    record-major as `_backward_solve` keeps them. An error that belongs to
    one terminal, a non-finite terminal value or a divergence, carries its
    position as `terminal_index`.
    """
    if len(terminals) == 0:
        raise ValueError("terminals must be non-empty")
    ens = problem.ensemble
    plan = RegressionPlan.of(ens, basis)
    xi = np.empty((len(terminals), ens.n_paths))
    for r, terminal in enumerate(terminals):
        try:
            xi[r] = _terminal_values(terminal, ens)
        except Exception as exc:
            exc.terminal_index = r
            raise

    return (plan,) + _backward_solve(
        xi, ens.bundle.increments, ens.grid.dt, plan.step,
        _driver_value(problem.driver, ens, len(terminals)), opts.inner_picard_iters,
        z_clip=opts.z_clip,
    )


def solve_bsde_many(
    problem: BsdeProblem,
    terminals: Sequence[Callable],
    basis: RegressionBasis = RegressionBasis(),
    opts: SolveOptions = SolveOptions(),
) -> list[BsdeSolution]:
    """Solve the problem's driver for several terminal functionals at once.

    One backward sweep on the problem's ensemble serves every terminal:
    each step projects all of them in one product per response and
    evaluates the driver once on their stacked rows. Solution r is that of
    `solve_bsde_lsmc` with terminals[r], up to roundoff (bit for bit for a
    single terminal), and its arrays are views of record r of the sweep's
    buffers. An error that belongs to one terminal, a non-finite terminal
    value or a divergence, carries its position as `terminal_index`.
    """
    plan, y, z, cont, clips = _sweep(problem, terminals, basis, opts)
    _, n, m = cont.shape
    solutions = []
    for r, terminal in enumerate(terminals):
        # Monte Carlo error of the root value, estimated from the pathwise
        # Euler-sum estimator xi + sum_k f dt (y_k - cont_k equals f dt),
        # summed step by step rather than through an (n, m) temporary.
        euler_sum = np.zeros(m)
        for k in range(n):
            euler_sum += y[r, k] - cont[r, k]
        se = float(np.std(y[r, -1] + euler_sum, ddof=1) / np.sqrt(m))
        solutions.append(BsdeSolution(
            problem if terminal is problem.terminal else replace(problem, terminal=terminal),
            plan,
            y=y[r].T, z=np.swapaxes(z[r], 0, 1), continuation=cont[r].T,
            y0=float(y[r, 0, 0]),
            y0_standard_error=se,
            passes=opts.inner_picard_iters,
            z_clip_count=clips[r],
            max_abs_y=float(max(y[r].max(), -y[r].min())),
        ))
    return solutions


def solve_truncated(
    problem: BsdeProblem,
    k_level: float,
    basis: RegressionBasis = RegressionBasis(),
    opts: SolveOptions = SolveOptions(),
) -> BsdeSolution:
    """Solve with terminal data and the driver's y argument clamped to [-k, k]."""
    driver = TruncatedDriver(problem.driver, k_level)
    base_terminal = problem.terminal
    clamped = replace(
        problem,
        terminal=lambda ens: np.clip(_terminal_values(base_terminal, ens), -k_level, k_level),
        driver=driver,
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
    xi = finite("xi_samples", xi_samples)
    xi = np.atleast_1d(per_path("xi_samples", xi, (xi.size,)))
    if xi.size == 0:
        raise ValueError("xi_samples must be non-empty")

    if kind == "zero":
        return float(np.mean(xi))
    if kind == "entropic":
        if real("theta", theta) == 0.0:
            raise ValueError("theta must be nonzero for the entropic oracle")
        with np.errstate(over="ignore"):
            val = -(logsumexp(-theta * xi) - np.log(xi.size)) / theta
        if not np.isfinite(val):
            raise OracleOverflowError(f"entropic oracle overflowed (theta={theta})")
        return float(val)
    if kind == "linear":
        if b is None or horizon is None or terminal_motion is None:
            raise ValueError("linear oracle requires b, horizon and terminal_motion")
        bvec = np.atleast_1d(finite("b", b))
        w = finite("terminal_motion", terminal_motion)
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


# Draws of the sampled precondition checks: df/dy points for comparison,
# midpoint segments for convexity.
_MONOTONE_SAMPLES = 2_000
_CONVEXITY_SEGMENTS = 500


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
) -> ComparisonReport:
    """Solve both terminal conditions on the same noise and report ordering.

    Preconditions: terminal_high >= terminal_low on every path, and the
    driver is non-increasing in y (checked by sampling its y derivative).
    """
    ens = problem.ensemble
    xi_hi = _terminal_values(terminal_high, ens)
    xi_lo = _terminal_values(terminal_low, ens)
    if np.any(xi_hi < xi_lo):
        bad = int(np.argmax(xi_hi < xi_lo))
        raise InvalidComparisonPairError(
            f"terminal ordering violated at path {bad}: {xi_hi[bad]} < {xi_lo[bad]}"
        )
    mono = verify_monotone(
        problem.driver, n_samples=_MONOTONE_SAMPLES, seed=0,
        state_dim=ens.state_dim, z_dim=ens.bundle.dim,
    )
    if not mono.passed:
        raise InvalidDriverError(f"driver is not monotone in y (max df/dy = {mono.max_dy:.3e})")

    sol_hi, sol_lo = solve_bsde_many(problem, [terminal_high, terminal_low], basis, opts)
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
) -> ConvexityJensenReport:
    """Operator convexity gap and Jensen gap, on common noise.

    delta_convexity = lam Y0(xi1) + (1-lam) Y0(xi2) - Y0(mix) and
    delta_jensen = Y0(phi(xi1)) - phi(Y0(xi1)); both must be >= -tol.
    """
    real("lam", lam, at_least=0, at_most=1)
    ens = problem.ensemble
    cvx = verify_convexity(
        problem.driver, n_segments=_CONVEXITY_SEGMENTS, seed=0, tol=1e-9,
        state_dim=ens.state_dim, z_dim=ens.bundle.dim,
    )
    if not cvx.passed:
        raise InvalidDriverError(
            f"driver failed the convexity check (max violation {cvx.max_violation:.3e})"
        )
    xi1 = _terminal_values(terminal_1, ens)
    probe = np.linspace(xi1.min(), xi1.max(), 33)
    mid_gap = phi.f(0.5 * (probe[:-1] + probe[1:])) - 0.5 * (phi.f(probe[:-1]) + phi.f(probe[1:]))
    if np.max(mid_gap) > 1e-9:
        raise ValueError("phi failed the midpoint convexity spot check")

    sol1, sol2, sol_mix, sol_phi = solve_bsde_many(problem, [
        terminal_1,
        terminal_2,
        lambda e: lam * terminal_1(e) + (1.0 - lam) * terminal_2(e),
        lambda e: phi.f(terminal_1(e)),
    ], basis, opts)

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
    ens = problem.ensemble
    ks = ens.grid.node_index(split_time)
    direct = solve_bsde_lsmc(problem, basis, opts)
    if ks == ens.grid.n_steps:
        nested_y0 = direct.y0
    else:
        design, fit = direct.plan.step(ks)
        y, _, _, _ = _backward_solve(
            fit.project(design, direct.y[:, ks])[None], ens.bundle.increments[:, :ks],
            ens.grid.dt, direct.plan.step, _driver_value(problem.driver, ens),
            opts.inner_picard_iters, z_clip=opts.z_clip,
        )
        nested_y0 = float(y[0, 0, 0])
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
    ens = solution.problem.ensemble
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
    ens = problem.ensemble
    d = ens.bundle.dim
    controls = np.atleast_2d(finite("control_grid", control_grid))
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

    xi = _terminal_values(problem.terminal, ens)
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
    coefs: list      # per step, the coefficients of [Y_k, Z_k] on the step's design, one row each

    def y_field(self, k: int, x: np.ndarray) -> np.ndarray:
        return self.fits[k].transform.apply(x) @ self.coefs[k][0]

    def z_field(self, k: int, x: np.ndarray) -> np.ndarray:
        return self.fits[k].transform.apply(x) @ self.coefs[k][1:].T


def _fit_fields(sol: BsdeSolution) -> FieldTable:
    coefs = []
    for k in range(sol.problem.ensemble.grid.n_steps):
        design, fit = sol.plan.step(k)
        coefs.append(fit.coef(design, np.vstack([sol.y[:, k], sol.z[:, k, :].T])))
    return FieldTable(fits=tuple(sol.plan.fits), coefs=coefs)


@dataclass(frozen=True)
class FbsdeResult:
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

        sol, fields = new_sol, new_fields
        if residual < tol:
            return FbsdeResult(solution=sol, residuals=residuals, iterations=iteration)
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
    grid = solution.problem.ensemble.grid
    rows = [[k, grid.nodes[k], solution.y[:, k].mean(), solution.y[:, k].std(ddof=1)]
            for k in range(grid.n_steps + 1)]
    for k, row in enumerate(rows[:-1]):
        row += [np.sqrt(np.sum(solution.z[:, k, :] ** 2, axis=1)).mean(),
                solution.z_clip_count[k], solution.plan.fits[k].cond]
    rows[-1] += ["", "", ""]
    write_csv(path, ["step", "t", "mean_Y", "sd_Y", "mean_normZ", "clip_count",
                     "regression_cond"], rows)
