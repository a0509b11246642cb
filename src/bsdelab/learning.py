"""Exact parameter gradients by the discrete adjoint, and training.

The gradient of the discrete Y0 with respect to the driver parameters
solves a linear backward scheme: the sensitivity V = dY/dtheta has drift
grad_theta f + (df/dy) V + <df/dz, Z_V>, zero terminal data, and
coefficients frozen along the primary solution's paths, with the update
mirroring the primary's inner fixed-point passes so that finite
differences of full re-solves match it closely. Solving it forward for
every coordinate carries (m, P) arrays. Because the scheme is linear and
its least-squares projections are symmetric, its transpose gives the same
gradient from one m-vector carried forward in time, with each driver
evaluation contributing through a pullback w -> sum_i w_i grad_theta f_i
(Giles & Glasserman, "Smoking adjoints: fast Monte Carlo Greeks", Risk,
2006). The cost per step is two projections onto the designs the primary
solve already factored and one reverse pass of the driver, whatever the
number of parameters.

The Z clip is not differentiated: clipped Z entries count as unclipped,
so the gradient is exact only where the primary's `z_clip_count` is all
zero. `train` defaults to `z_clip=10`; at `z_clip=2` a Free net with a
cubic terminal showed a 4.3e-3 gap to finite differences of the loss.

Gradients of the learning loss are assembled from these adjoints by the
chain rule; the descent loop is plain gradient descent on a fixed noise
bundle (common random numbers across iterations). `train` simulates the
forward paths once and solves every iteration and record on that one
ensemble, so each step's design is factored once per training run.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .drivers import Driver
from .engine import (
    BsdeProblem,
    BsdeSolution,
    RegressionBasis,
    SolveOptions,
    solve_bsde_lsmc,
)
from .errors import SimulationDivergedError, SolverDivergedError, TrainingDivergedError
from .stochastic import (
    BrownianBundle,
    ForwardModel,
    PathEnsemble,
    TimeGrid,
    brownian_model,
    sample_brownian,
    simulate_forward,
    split_seed,
)

__all__ = [
    "SensitivitySolution",
    "DatasetRecord",
    "Dataset",
    "TrainSchedule",
    "TrainState",
    "LossReport",
    "solve_sensitivity_bsde",
    "fd_gradient_check",
    "loss_and_gradient",
    "train",
    "read_dataset_csv",
    "write_training_log",
]


@dataclass(frozen=True)
class SensitivitySolution:
    """Gradient of the root value with respect to the raw driver parameters."""

    grad_y0: np.ndarray
    primary: BsdeSolution


def _adjoint_gradient(
    primary: BsdeSolution,
    root: np.ndarray,
    continuation_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Parameter gradient of root . V_0 + sum_k continuation_weights[:, k] . C_k.

    V_k is the sensitivity slice dY_k/dtheta and C_k that of the regressed
    continuation values, both of the discrete scheme along the primary
    solution. The scheme is linear in (V, C), so the gradient is read from
    its transpose: one adjoint m-vector lam_k, carried forward in time, with
    V_0's weights root and V_n = 0.

    Per step the linearized update is, pass by pass from v = C_k,
        v <- C_k + (dtheta f + dz f . Z_k + dy f v) dt,
        C_k = Pi V_{k+1},  Z_k,j = Pi((V_{k+1} - C_k) dW_j) / dt,
    with Pi the least-squares projection onto the step's design, read from
    the primary solve's plan. The transpose of the passes runs
    last pass first; Pi is symmetric, so
        lam_{k+1} = Pi a_cont + (I - Pi)(sum_j dW_j Pi b_j) / dt
    for the adjoints a_cont of C_k and b of Z_k. The z clip of the primary
    is not differentiated, as in the forward scheme.
    """
    ens = primary.problem.ensemble
    driver = primary.problem.driver
    m, n = ens.n_paths, ens.grid.n_steps
    dt = ens.grid.dt
    nodes = ens.grid.nodes
    inc = ens.bundle.increments
    passes = primary.passes

    grad = np.zeros(driver.params.size)
    lam = root
    for k in range(n):
        x_k = ens.states[:, k, :]
        z_k = primary.z[:, k, :]
        cont = primary.continuation[:, k]

        # Linearize f where the primary evaluated it: the inner-pass y
        # iterates are rebuilt from the stored continuation values.
        lins = []
        y_iter = cont
        for _ in range(passes):
            lin = driver.linearize(nodes[k], x_k, y_iter, z_k)
            lins.append(lin)
            y_iter = cont + lin.value * dt

        a = lam
        a_cont = np.zeros(m) if continuation_weights is None else continuation_weights[:, k].copy()
        b = np.zeros_like(z_k)
        for lin in reversed(lins):
            a_dt = a * dt
            grad += lin.pullback(a_dt)
            a_cont += a
            b += a_dt[:, None] * lin.dz
            a = lin.dy * a_dt
        a_cont += a

        if k + 1 == n:
            break   # V_n = 0: the terminal data do not depend on the parameters
        design, fit = primary.plan.step(k)
        mart = np.sum(fit.project(design, b) * inc[:, k, :], axis=1) / dt
        lam = fit.project(design, a_cont - mart) + mart
    return grad


def solve_sensitivity_bsde(primary: BsdeSolution) -> SensitivitySolution:
    """Exact gradient of the discrete Y0 with respect to the driver parameters.

    The discrete adjoint of the linear sensitivity system: coefficients are
    frozen at the primary's (Y, Z) data, projections are the primary's
    plan, the inner passes are the primary's, and Y0 is read from
    path 0 of the root slice, as the primary reads it. The parameters are
    those of the primary's driver.
    """
    root = np.zeros(primary.y.shape[0])
    root[0] = 1.0
    grad = _adjoint_gradient(primary, root)
    return SensitivitySolution(grad_y0=grad, primary=primary)


@dataclass(frozen=True)
class FdCheckReport:
    coords: tuple
    sensitivity: np.ndarray
    finite_difference: np.ndarray
    relative_errors: np.ndarray      # per coordinate, against the vector scale
    max_relative_error: float


def fd_gradient_check(
    problem: BsdeProblem,
    coords: Sequence[int] | None = None,
    h: float = 1e-4,
    basis: RegressionBasis = RegressionBasis(),
    opts: SolveOptions = SolveOptions(),
) -> FdCheckReport:
    """Central finite differences of full re-solves versus the sensitivity solve.

    Re-solves share the problem's ensemble (common random numbers), so the
    comparison isolates the frozen-path approximation.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    primary = solve_bsde_lsmc(problem, basis, opts)
    sens = solve_sensitivity_bsde(primary)

    theta = problem.driver.params
    coords = tuple(range(theta.size)) if coords is None else tuple(coords)
    fd = np.empty(len(coords))
    for i, j in enumerate(coords):
        bump = np.zeros_like(theta)
        bump[j] = h
        up = solve_bsde_lsmc(replace(problem, driver=problem.driver.with_params(theta + bump)),
                             basis, opts)
        dn = solve_bsde_lsmc(replace(problem, driver=problem.driver.with_params(theta - bump)),
                             basis, opts)
        fd[i] = (up.y0 - dn.y0) / (2.0 * h)

    analytic = sens.grad_y0[list(coords)]
    # Per-coordinate errors are measured against the gradient's overall
    # scale: coordinates that are structurally tiny carry only finite
    # difference roundoff and would otherwise dominate the ratio.
    vector_scale = max(np.max(np.abs(analytic)), np.max(np.abs(fd)), 1e-10)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-3 * vector_scale)
    rel = np.abs(analytic - fd) / scale
    return FdCheckReport(
        coords=coords, sensitivity=analytic, finite_difference=fd,
        relative_errors=rel, max_relative_error=float(rel.max()),
    )


# ---------------------------------------------------------------------------
# datasets and the loss
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetRecord:
    terminal: Callable
    observed: float
    label: str = ""


@dataclass(frozen=True)
class Dataset:
    """Observed values of terminal claims under a common forward setting."""

    records: tuple
    grid: TimeGrid
    model: ForwardModel | None = None
    n_paths: int = 4096

    def __post_init__(self):
        if len(self.records) == 0:
            raise ValueError("dataset must be non-empty")
        for rec in self.records:
            if not np.isfinite(rec.observed):
                raise ValueError(f"observation '{rec.label}' is not finite")
        if self.model is None:
            object.__setattr__(self, "model", brownian_model(1))


_TERMINAL_KINDS = {
    "state": lambda p: (lambda ens: ens.states[:, -1, 0]),
    "scaled_state": lambda p: (lambda ens: p * ens.states[:, -1, 0]),
    "call": lambda p: (lambda ens: np.maximum(ens.states[:, -1, 0] - p, 0.0)),
}


def read_dataset_csv(path, grid: TimeGrid, model: ForwardModel | None = None,
                     n_paths: int = 4096) -> Dataset:
    """Ingest records with columns (record_id, terminal_kind, param, observed_value)."""
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            kind = row["terminal_kind"]
            if kind not in _TERMINAL_KINDS:
                raise ValueError(f"unknown terminal_kind '{kind}'")
            param = float(row["param"]) if row.get("param") else 0.0
            records.append(DatasetRecord(
                terminal=_TERMINAL_KINDS[kind](param),
                observed=float(row["observed_value"]),
                label=row.get("record_id", ""),
            ))
    return Dataset(records=tuple(records), grid=grid, model=model, n_paths=n_paths)


@dataclass(frozen=True)
class LossReport:
    loss: float
    gradient: np.ndarray
    data_term: float
    reg_term: float
    norm_term: float
    per_record_y0: np.ndarray


def loss_and_gradient(
    dataset: Dataset,
    driver: Driver,
    lam_reg: float = 0.0,
    lam_norm: float = 0.0,
    basis: RegressionBasis = RegressionBasis(),
    opts: SolveOptions = SolveOptions(),
    bundle: BrownianBundle | None = None,
    ensemble: PathEnsemble | None = None,
) -> LossReport:
    """Mean squared calibration error plus penalties, with its exact gradient.

    loss = mean_i (Y0(xi_i) - O_i)^2 + lam_reg |theta|^2
         + lam_norm mean_i sum_k mean_paths f(t_k, X_k, Ytilde_k, 0)^2 dt;
    the last term discretizes the normalization penalty at z = 0 along the
    primary paths with regressed continuation values.

    Exactly one of ensemble and bundle gives the forward paths: the
    records are solved on the given ensemble, or on the dataset's model
    simulated once from bundle. Either way all records share one ensemble
    and so one factorization per step.
    """
    if bundle is None and ensemble is None:
        raise ValueError("pass a bundle or an ensemble")
    if ensemble is not None:
        if bundle is not None:
            raise ValueError("pass a bundle or an ensemble, not both")
        ens = ensemble
        if ens.grid != dataset.grid or ens.n_paths != dataset.n_paths:
            raise ValueError(f"the ensemble ({ens.n_paths} paths on {ens.grid}) does not "
                             f"match the dataset ({dataset.n_paths} paths on {dataset.grid})")
    else:
        if bundle.n_paths != dataset.n_paths or bundle.n_steps != dataset.grid.n_steps:
            raise ValueError(f"the bundle ({bundle.n_paths} paths of {bundle.n_steps} steps) "
                             f"does not match the dataset ({dataset.n_paths} paths of "
                             f"{dataset.grid.n_steps} steps)")
        ens = simulate_forward(dataset.model, dataset.grid, bundle)
    dt = dataset.grid.dt
    nodes = dataset.grid.nodes
    n_params = driver.params.size
    n_records = len(dataset.records)

    data_term = 0.0
    norm_term = 0.0
    grad = np.zeros(n_params)
    y0s = np.empty(n_records)

    for i, rec in enumerate(dataset.records):
        try:
            prob = BsdeProblem(driver=driver, terminal=rec.terminal, ensemble=ens)
            sol = solve_bsde_lsmc(prob, basis, opts)
            sens = solve_sensitivity_bsde(sol)
        except Exception as exc:
            try:
                wrapped = type(exc)(f"record {i} ('{rec.label}'): {exc}")
            except TypeError:
                exc.record_index = i
                raise
            raise wrapped from exc
        y0s[i] = sol.y0
        residual = sol.y0 - rec.observed
        data_term += residual * residual / n_records
        grad += (2.0 * residual / n_records) * sens.grad_y0

        if lam_norm != 0.0:
            # d/dtheta of mean f^2 at (Ytilde_k, 0): the direct term by the
            # driver's pullback, the term through Ytilde_k = C_k by one more
            # adjoint solve weighted on the continuation slices.
            m = ens.n_paths
            z0 = np.zeros_like(sol.z[:, 0, :])
            cont_weights = np.empty((m, dataset.grid.n_steps))
            scale = lam_norm * 2.0 * dt / n_records
            for k in range(dataset.grid.n_steps):
                lin = driver.linearize(nodes[k], ens.states[:, k, :], sol.continuation[:, k], z0)
                norm_term += float(np.mean(lin.value ** 2)) * dt / n_records
                grad += scale * lin.pullback(lin.value / m)
                cont_weights[:, k] = lin.value * lin.dy / m
            grad += scale * _adjoint_gradient(sol, np.zeros(m), cont_weights)

    reg_term = float(lam_reg * driver.params @ driver.params)
    grad += 2.0 * lam_reg * driver.params
    loss = data_term + reg_term + lam_norm * norm_term
    return LossReport(loss=float(loss), gradient=grad, data_term=float(data_term),
                      reg_term=reg_term, norm_term=float(norm_term), per_record_y0=y0s)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainSchedule:
    learning_rate: float | Callable
    max_iters: int
    seed: int
    loss_tol: float | None = None

    def rate(self, k: int) -> float:
        if callable(self.learning_rate):
            return float(self.learning_rate(k))
        return float(self.learning_rate)


@dataclass(frozen=True)
class TrainState:
    theta: np.ndarray
    iterations: int
    loss_history: np.ndarray
    grad_norm_history: np.ndarray
    data_terms: np.ndarray
    reg_terms: np.ndarray
    norm_terms: np.ndarray
    theta_norm_history: np.ndarray


def train(
    dataset: Dataset,
    driver: Driver,
    schedule: TrainSchedule,
    lam_reg: float = 0.0,
    lam_norm: float = 0.0,
    basis: RegressionBasis = RegressionBasis(),
    opts: SolveOptions = SolveOptions(),
    log_path=None,
):
    """Plain gradient descent on a fixed bundle; returns (state, final driver).

    The forward paths are simulated once and every step's design is
    factored once; each iteration solves on that one ensemble.
    Raw parameters are unconstrained, so architectural invariants survive
    every step by construction. Stops at max_iters or when the loss change
    drops below loss_tol.
    """
    bundle = sample_brownian(dataset.grid, dataset.n_paths, 1,
                             split_seed(schedule.seed, "train-bundle"))
    try:
        ens = simulate_forward(dataset.model, dataset.grid, bundle)
    except SimulationDivergedError as exc:
        raise TrainingDivergedError(0) from exc
    losses, grads, datas, regs, norms, tnorms = [], [], [], [], [], []
    current = driver
    iterations = 0
    for k in range(schedule.max_iters):
        try:
            report = loss_and_gradient(dataset, current, lam_reg, lam_norm,
                                       basis, opts, ensemble=ens)
        except SolverDivergedError as exc:
            raise TrainingDivergedError(k) from exc
        if not np.isfinite(report.loss) or not np.all(np.isfinite(report.gradient)):
            raise TrainingDivergedError(k)
        losses.append(report.loss)
        grads.append(float(np.linalg.norm(report.gradient)))
        datas.append(report.data_term)
        regs.append(report.reg_term)
        norms.append(report.norm_term)
        tnorms.append(float(np.linalg.norm(current.params)))
        iterations = k + 1
        if (schedule.loss_tol is not None and k > 0
                and abs(losses[-1] - losses[-2]) < schedule.loss_tol):
            break
        new_theta = current.params - schedule.rate(k) * report.gradient
        if not np.all(np.isfinite(new_theta)):
            raise TrainingDivergedError(k)
        current = current.with_params(new_theta)

    state = TrainState(
        theta=current.params.copy(),
        iterations=iterations,
        loss_history=np.array(losses),
        grad_norm_history=np.array(grads),
        data_terms=np.array(datas),
        reg_terms=np.array(regs),
        norm_terms=np.array(norms),
        theta_norm_history=np.array(tnorms),
    )
    if log_path is not None:
        write_training_log(state, log_path)
    return state, current


def write_training_log(state: TrainState, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "loss", "grad_norm", "theta_norm",
                         "data_term", "reg_term", "norm_term"])
        for k in range(state.iterations):
            writer.writerow([
                k,
                repr(float(state.loss_history[k])),
                repr(float(state.grad_norm_history[k])),
                repr(float(state.theta_norm_history[k])),
                repr(float(state.data_terms[k])),
                repr(float(state.reg_terms[k])),
                repr(float(state.norm_terms[k])),
            ])
