"""Interacting particle systems with backward valuations and their limits.

Scalar state throughout (the experiment oracles are one-dimensional).
Measure dependence enters coefficients only through declared empirical
features (mean, second moment; see `_FEATURES`). The mean-field limit is
the fixed point of the map that runs a large cloud on common noise with a
frozen feature flow and reads off its features. The Euler step to node
k + 1 reads only node k's features, so that fixed point is the interacting
cloud itself, computed in one live pass. The propagation-of-chaos
experiment couples each particle to a limit copy on the same Brownian rows.

Both backward solves here, the cloud's valuation with its frozen feature
flow and the fluctuation system's V loop, call the engine's backward
kernel `_backward_solve` directly, with their own step designs and a
driver callback indexed by step. Every per-particle value (coefficient,
claim, driver value, state derivative, initial sample) obeys the library's
per-path rule (`_check.per_path`): it broadcasts to (N,), so a scalar, (1,)
or (N,). Initial samples and claims obey the finite rule too.

The fluctuation solver integrates the linear limit system with derivative
callbacks supplied by the caller: the measure derivatives are partials
with respect to the features, so every Lions-derivative term is an O(M F)
reduction over the cloud (Carmona & Delarue, Probabilistic Theory of Mean
Field Games I, Sec. 5.2). By default it is the homogeneous system (exactly
linear in the initial fluctuations). Measure-coupled coefficients also
inject a Gaussian forcing from the empirical sampling fluctuation of
i.i.d. copies, derived from the same partials; it is reproduced on request
through per-world ghost copies (`include_sampling_noise`), with world
members sharing one forcing realization so that the mean-field coupling
term keeps its conditional meaning.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from ._check import count, finite, per_path
from ._csv import write_csv
from .engine import (_COND_LIMIT, RegressionBasis, RegressionPlan, SolveOptions,
                     _backward_solve, _workspace, fit_projection)
# Nothing here calls solve_bsde_lsmc. perfbench's tracer wraps the name
# `meanfield.solve_bsde_lsmc` and fails without it; the import can go when
# the library owns its timing spans (ROADMAP item 1).
from .engine import solve_bsde_lsmc  # noqa: F401
from .errors import IncompleteCoefficientsError
from .stochastic import TimeGrid, _check_state, sample_brownian, split_seed

__all__ = [
    "EmpiricalFeatures",
    "MeanFieldModel",
    "ParticleRun",
    "McKeanVlasovResult",
    "FluctuationCoefficients",
    "FluctuationResult",
    "compute_features",
    "simulate_particles",
    "solve_mckean_vlasov",
    "lln_experiment",
    "clt_experiment",
    "solve_fluctuation_system",
    "independent_model",
    "mean_reversion_to_crowd_model",
    "linear_gaussian_model",
    "linear_gaussian_fluctuation_coefficients",
    "MODEL_REGISTRY",
    "LlnResult",
    "CltResult",
    "export_lln_csv",
    "export_clt_csv",
]


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

# Feature name -> (psi, psi'): the feature is the cloud average of psi.
_FEATURES = {
    "mean": (lambda x: x, np.ones_like),
    "second_moment": (lambda x: x * x, lambda x: 2.0 * x),
}


@dataclass(frozen=True)
class EmpiricalFeatures:
    mean: float = 0.0
    second_moment: float = 0.0


def compute_features(x: np.ndarray, names: tuple) -> EmpiricalFeatures:
    # Reductions run in sorted order so every statistic is bitwise invariant
    # under particle permutations (the exchangeability contract).
    if not set(names) <= _FEATURES.keys():
        raise ValueError(f"unknown features {sorted(set(names) - _FEATURES.keys())}")
    x = np.asarray(x, dtype=np.float64)
    x = np.atleast_1d(per_path("cloud", x, (x.size,)))
    return EmpiricalFeatures(**{name: float(np.mean(np.sort(_FEATURES[name][0](x))))
                                for name in names})


# ---------------------------------------------------------------------------
# model and runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanFieldModel:
    """Scalar interacting-particle model.

    drift(t, x, feats) and diffusion(t, x, feats) map a cross-section
    x (N,) to per-particle values; terminal(x, feats) gives the claim;
    driver(t, x, y, z, feats) is the backward non-linearity (None = 0);
    initial_sampler(n, seed) draws from the initial law. Each value
    broadcasts to (N,) by the per-path rule: a scalar, (1,) or (N,).
    """

    drift: Callable
    diffusion: Callable
    terminal: Callable
    initial_sampler: Callable
    driver: Callable | None = None
    feature_names: tuple = ("mean", "second_moment")


@dataclass(frozen=True)
class ParticleRun:
    states: np.ndarray            # (N, n_steps + 1), views of time-major buffers
    y: np.ndarray                 # (N, n_steps + 1)
    z: np.ndarray                 # (N, n_steps)
    features: list                # per node, length n_steps + 1


def _terminal(model: MeanFieldModel, x: np.ndarray, feats) -> np.ndarray:
    """The claim on each particle of the cloud x, broadcast to x's (N,)."""
    y = per_path("terminal", model.terminal(x, feats), x.shape)
    return np.broadcast_to(finite("terminal", y), x.shape)


# A blow-up is reported by SimulationDivergedError alone, not by a warning.
@np.errstate(over="ignore", invalid="ignore")
def _simulate_cloud(model: MeanFieldModel, grid: TimeGrid, increments: np.ndarray,
                    x0: np.ndarray, flow: list | None = None):
    """Euler stepping of the cloud; live features when flow is None.

    Returns the (N, n_steps + 1) states, a view of a time-major buffer, and
    the feature flow. Raises SimulationDivergedError at the first
    non-finite state."""
    n_particles = x0.size
    n = grid.n_steps
    dt = grid.dt
    nodes = grid.nodes
    states = np.empty((n + 1, n_particles))
    states[0] = x0
    flow_out = []
    for k in range(n):
        feats = compute_features(states[k], model.feature_names) if flow is None else flow[k]
        flow_out.append(feats)
        b = per_path("drift", model.drift(nodes[k], states[k], feats), (n_particles,))
        s = per_path("diffusion", model.diffusion(nodes[k], states[k], feats), (n_particles,))
        states[k + 1] = states[k] + b * dt + s * increments[:, k, 0]
    # The Euler update keeps a non-finite state non-finite, so the last
    # slice shows a blow-up at any step; only then are the steps searched.
    if not np.isfinite(states[n]).all():
        for k in range(n + 1):
            _check_state(states[k], k)
    feats_T = compute_features(states[n], model.feature_names) if flow is None else flow[n]
    flow_out.append(feats_T)
    return states.T, flow_out


def _solve_cloud_backward(model: MeanFieldModel, grid: TimeGrid, states: np.ndarray,
                          increments: np.ndarray, flow: list,
                          basis: RegressionBasis, opts: SolveOptions) -> ParticleRun:
    """The cloud's backward valuation with the frozen feature flow, on the
    engine's backward kernel: step k's driver reads states[:, k] and flow[k]."""
    n_particles = states.shape[0]
    plan = RegressionPlan(states[:, :, None], basis, [None] * grid.n_steps)
    nodes = grid.nodes

    def step_value(k, y_k, z_k):
        if model.driver is None:
            return 0.0
        return per_path("driver", model.driver(nodes[k], states[:, k], y_k, z_k[:, 0], flow[k]),
                        (n_particles,))

    y, z, _, _ = _backward_solve(_terminal(model, states[:, -1], flow[-1])[None], increments,
                                 grid.dt, plan.step, step_value, opts.inner_picard_iters,
                                 opts.z_clip)
    return ParticleRun(states=states, y=y[0].T, z=z[0, :, :, 0].T, features=flow)


def _initial_cloud(x, n: int) -> np.ndarray:
    """An initial sample x of n particles, checked and broadcast to (n,)."""
    x = finite("initial_states", per_path("initial_sampler", x, (n,)))
    return np.broadcast_to(x, (n,))


def _live_cloud(model: MeanFieldModel, n_particles: int, grid: TimeGrid, seed: int,
                labels: tuple, basis: RegressionBasis, opts: SolveOptions,
                solve_backward: bool, increments: np.ndarray | None = None,
                initial_states: np.ndarray | None = None):
    """(flow, run) of a cloud with live features: the draws seeded by the
    noise and initial labels unless overridden, the forward pass and, if
    solve_backward, the backward valuation (run is None otherwise)."""
    noise_label, initial_label = labels
    if increments is None:
        increments = sample_brownian(grid, n_particles, 1,
                                     split_seed(seed, noise_label)).increments
    if initial_states is None:
        initial_states = model.initial_sampler(n_particles, split_seed(seed, initial_label))
    states, flow = _simulate_cloud(model, grid, increments,
                                   _initial_cloud(initial_states, n_particles), flow=None)
    run = (_solve_cloud_backward(model, grid, states, increments, flow, basis, opts)
           if solve_backward else None)
    return flow, run


def simulate_particles(
    model: MeanFieldModel,
    n_particles: int,
    grid: TimeGrid,
    seed: int,
    basis: RegressionBasis = RegressionBasis(),
    opts: SolveOptions = SolveOptions(),
    increments: np.ndarray | None = None,
    initial_states: np.ndarray | None = None,
) -> ParticleRun:
    """Joint forward pass with per-step empirical features, then pooled
    backward valuation with the frozen feature flow.

    increments and initial_states override the seeded draws; couplings and
    exchangeability experiments rely on passing permuted or shared rows.
    """
    count("n_particles", n_particles, 2)
    if increments is not None:
        shape = (n_particles, grid.n_steps, 1)
        increments = np.broadcast_to(
            finite("increments", per_path("increments", increments, shape)), shape)
    return _live_cloud(model, n_particles, grid, seed, ("particles", "initial"), basis, opts,
                       True, increments, initial_states)[1]


# ---------------------------------------------------------------------------
# mean-field fixed point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McKeanVlasovResult:
    flow: list
    run: ParticleRun | None
    # Always 1: the fixed point takes one pass. perfbench's tracer still
    # reads it; it goes when the library owns its timing spans (ROADMAP item 1).
    iterations: int
    model: MeanFieldModel
    grid: TimeGrid


# The least cloud with a usable feature flow.
MIN_CLOUD = 100


def solve_mckean_vlasov(
    model: MeanFieldModel,
    n_cloud: int,
    grid: TimeGrid,
    seed: int,
    basis: RegressionBasis = RegressionBasis(),
    opts: SolveOptions = SolveOptions(),
    solve_backward: bool = True,
) -> McKeanVlasovResult:
    """Fixed point of the measure-feature flow on a cloud of n_cloud particles.

    The flow map runs the cloud on common noise with a frozen flow. Its
    step to node k + 1 reads only flow[k], so the fixed point is the
    interacting cloud's own flow, exact from one pass with live features;
    Picard iteration reaches it bit for bit, one node per pass.
    """
    count("n_cloud", n_cloud, MIN_CLOUD)
    flow, run = _live_cloud(model, n_cloud, grid, seed, ("mkv-cloud", "mkv-initial"), basis,
                            opts, solve_backward)
    return McKeanVlasovResult(flow=flow, run=run, iterations=1, model=model, grid=grid)


# ---------------------------------------------------------------------------
# law of large numbers experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LlnResult:
    n_values: np.ndarray
    err_x: np.ndarray            # mean over trials and particles, per N
    err_y: np.ndarray
    err_z: np.ndarray
    slope: float
    per_trial_x: np.ndarray      # (n_trials, len(n_values))
    per_trial_y: np.ndarray
    per_trial_z: np.ndarray


def _coupled_clouds(model, grid, inc, x0_particles, x0_copies, ref_flow):
    """Particle system (live features) and limit copies (reference flow),
    forward on the same Brownian rows; returns (states_p, flow_p, states_c)."""
    states_p, flow_p = _simulate_cloud(model, grid, inc, x0_particles, None)
    states_c, _ = _simulate_cloud(model, grid, inc, x0_copies, flow=ref_flow)
    return states_p, flow_p, states_c


def _coupled_errors(model, grid, inc, x0, ref_flow, basis, opts):
    """Mean-square sup errors in X and Y and the L2 error in Z between the
    particle system and its limit copies, both started at x0."""
    states_p, flow_p, states_c = _coupled_clouds(model, grid, inc, x0, x0, ref_flow)
    run_p = _solve_cloud_backward(model, grid, states_p, inc, flow_p, basis, opts)
    run_c = _solve_cloud_backward(model, grid, states_c, inc, ref_flow, basis, opts)

    dx = states_p - states_c
    dy = run_p.y - run_c.y
    dz = run_p.z - run_c.z
    err_x = float(np.mean(np.max(dx * dx, axis=1)))
    err_y = float(np.mean(np.max(dy * dy, axis=1)))
    err_z = float(np.mean(np.sum(dz * dz, axis=1) * grid.dt))
    return err_x, err_y, err_z


def lln_experiment(
    model: MeanFieldModel,
    n_list: list,
    grid: TimeGrid,
    n_trials: int,
    seed: int,
    basis: RegressionBasis = RegressionBasis(),
    opts: SolveOptions = SolveOptions(),
    n_reference: int = 65536,
) -> LlnResult:
    """Mean-square sup errors between the N-particle system and i.i.d. limit
    copies driven by the same per-particle Brownian rows, per N.

    The reference feature flow comes from a large-cloud fixed point computed
    once; prefixes of a common bundle give common random numbers across N.
    """
    n_values = sorted(count("n_list", n, 1) for n in n_list)
    if len(n_values) < 2:
        raise ValueError("n_list needs at least two entries")
    count("n_trials", n_trials, 1)
    ref = solve_mckean_vlasov(model, n_reference, grid, split_seed(seed, "lln-reference"),
                              solve_backward=False)
    n_max = n_values[-1]

    per_x = np.empty((n_trials, len(n_values)))
    per_y = np.empty((n_trials, len(n_values)))
    per_z = np.empty((n_trials, len(n_values)))
    for trial in range(n_trials):
        inc_full = sample_brownian(grid, n_max, 1,
                                   split_seed(seed, "lln-noise", trial)).increments
        x0_full = _initial_cloud(model.initial_sampler(n_max, split_seed(seed, "lln-x0", trial)),
                                 n_max)
        for j, n_particles in enumerate(n_values):
            inc = inc_full[:n_particles]
            x0 = x0_full[:n_particles]
            per_x[trial, j], per_y[trial, j], per_z[trial, j] = _coupled_errors(
                model, grid, inc, x0, ref.flow, basis, opts)

    err_x = per_x.mean(axis=0)
    err_y = per_y.mean(axis=0)
    err_z = per_z.mean(axis=0)
    total = err_x + err_y + err_z
    if np.all(total > 0):
        slope = float(np.polyfit(np.log(n_values), np.log(total), 1)[0])
    else:
        slope = 0.0
    return LlnResult(n_values=np.array(n_values), err_x=err_x, err_y=err_y, err_z=err_z,
                     slope=slope, per_trial_x=per_x, per_trial_y=per_y, per_trial_z=per_z)


def export_lln_csv(result: LlnResult, path) -> None:
    write_csv(path, ["N", "trial", "error_X", "error_Y", "error_Z", "slope"],
              ([n, trial, result.per_trial_x[trial, j], result.per_trial_y[trial, j],
                result.per_trial_z[trial, j], result.slope]
               for trial in range(result.per_trial_x.shape[0])
               for j, n in enumerate(result.n_values)))


# ---------------------------------------------------------------------------
# central limit theorem experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CltResult:
    """Fluctuation variances of the particle system around its limit copies.

    var_v is the fluctuation of the terminal functional at T, Y_T =
    terminal(X_T, features at T): it is read off the forward clouds, so no
    backward solve enters it.
    """

    n_values: np.ndarray
    var_u: np.ndarray            # pooled variance of sqrt(N)(X - Xbar) at T
    var_v: np.ndarray            # pooled variance of sqrt(N)(Y - Ybar) at T
    var_u_se: np.ndarray         # jackknife (over trials) standard errors
    var_v_se: np.ndarray
    u0_std: float
    n_trials: int

    def stabilized(self) -> bool:
        """Cauchy check with a Monte Carlo floor: successive variance gaps
        shrink, or the last gap is within three jackknife standard errors
        of the two variances it separates. ValueError below the three counts
        that two gaps need."""
        if self.n_values.size < 3:
            raise ValueError(f"stabilized() needs at least three particle counts, "
                             f"got {self.n_values.size}")
        gaps = np.abs(np.diff(self.var_u))
        floor = 3.0 * np.sqrt(self.var_u_se[1:] ** 2 + self.var_u_se[:-1] ** 2)
        return bool(np.all((np.diff(gaps) <= 0) | (gaps[1:] <= floor[1:])))


def clt_experiment(
    model: MeanFieldModel,
    n_list: list,
    grid: TimeGrid,
    n_trials: int,
    seed: int,
    basis: RegressionBasis = RegressionBasis(),
    n_reference: int = 65536,
    u0_std: float = 0.0,
) -> CltResult:
    """Variance of the sqrt(N)-scaled terminal fluctuations per N.

    u0_std injects i.i.d. initial fluctuations: the particle system starts
    at the copy positions perturbed by u0_std * zeta / sqrt(N). With
    u0_std = 0 the coupling has exactly equal initial data and a
    non-interacting model fluctuates by exactly zero.

    Both fluctuations are read at T from the forward clouds: U from the
    states, V from the terminal functional, evaluated with the particles'
    live features and with the reference flow for the copies. No backward
    solve runs. basis is unused; it is kept only until the benchmark's
    meanfield_clt workload stops passing it, and goes then.
    """
    n_values = sorted(count("n_list", n, 1) for n in n_list)
    count("n_trials", n_trials, 1)
    ref = solve_mckean_vlasov(model, n_reference, grid, split_seed(seed, "clt-reference"),
                              solve_backward=False)
    n_max = n_values[-1]

    var_u = np.empty(len(n_values))
    var_v = np.empty(len(n_values))
    samples_u = {n: [] for n in n_values}
    samples_v = {n: [] for n in n_values}
    for trial in range(n_trials):
        inc_full = sample_brownian(grid, n_max, 1,
                                   split_seed(seed, "clt-noise", trial)).increments
        x0_full = _initial_cloud(model.initial_sampler(n_max, split_seed(seed, "clt-x0", trial)),
                                 n_max)
        zeta_full = sample_brownian(TimeGrid(1.0, 1), n_max, 1,
                                    split_seed(seed, "clt-zeta", trial)).increments[:, 0, 0]
        for n_particles in n_values:
            inc = inc_full[:n_particles]
            x0_c = x0_full[:n_particles]
            x0_p = x0_c + u0_std * zeta_full[:n_particles] / np.sqrt(n_particles)
            states_p, flow_p, states_c = _coupled_clouds(model, grid, inc, x0_p, x0_c,
                                                         ref.flow)
            x_p, x_c = states_p[:, -1], states_c[:, -1]
            y_p = _terminal(model, x_p, flow_p[-1])
            y_c = _terminal(model, x_c, ref.flow[-1])
            root_n = np.sqrt(n_particles)
            samples_u[n_particles].append(root_n * (x_p - x_c))
            samples_v[n_particles].append(root_n * (y_p - y_c))

    var_u_se = np.empty(len(n_values))
    var_v_se = np.empty(len(n_values))
    for j, n_particles in enumerate(n_values):
        pooled_u = np.concatenate(samples_u[n_particles])
        pooled_v = np.concatenate(samples_v[n_particles])
        var_u[j] = float(np.var(pooled_u, ddof=1))
        var_v[j] = float(np.var(pooled_v, ddof=1))
        var_u_se[j] = _jackknife_var_se(samples_u[n_particles])
        var_v_se[j] = _jackknife_var_se(samples_v[n_particles])
    return CltResult(n_values=np.array(n_values), var_u=var_u, var_v=var_v,
                     var_u_se=var_u_se, var_v_se=var_v_se,
                     u0_std=u0_std, n_trials=n_trials)


def _jackknife_var_se(per_trial: list) -> float:
    """Leave-one-trial-out standard error of the pooled variance."""
    k = len(per_trial)
    if k < 2:
        return float("nan")
    leave_out = np.empty(k)
    for i in range(k):
        pooled = np.concatenate([s for j, s in enumerate(per_trial) if j != i])
        leave_out[i] = np.var(pooled, ddof=1)
    return float(np.sqrt((k - 1) / k * np.sum((leave_out - leave_out.mean()) ** 2)))


def export_clt_csv(result: CltResult, path) -> None:
    write_csv(path, ["N", "var_U_T", "var_V_T", "u0_std", "n_trials"],
              ([n, result.var_u[j], result.var_v[j], result.u0_std, result.n_trials]
               for j, n in enumerate(result.n_values)))


# ---------------------------------------------------------------------------
# fluctuation system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FluctuationCoefficients:
    """Derivative callbacks of the mean-field coefficients.

    State derivatives map (t, x, feats) -> (M,). Measure derivatives map
    (t, x, feats) to the partials with respect to the model's features,
    broadcastable to (M, F) with columns in `model.feature_names` order. They
    give both the Lions term E'[dmu U'] = sum_f partial_f E'[psi_f'(X') U']
    and the sampling forcing sum_f partial_f (psi_f(ghost) - E'[psi_f(X')]).
    Terminal derivatives drop the time argument: dx_g(x, feats), dmu_g(x, feats).
    """

    dx_b: Callable = None
    dmu_b: Callable = None
    dx_sigma: Callable = None
    dmu_sigma: Callable = None
    dx_f: Callable = None
    dy_f: Callable = None
    dz_f: Callable = None
    dmu_f: Callable = None
    dx_g: Callable = None
    dmu_g: Callable = None

    def validate(self):
        missing = [f.name for f in fields(self) if getattr(self, f.name) is None]
        if missing:
            raise IncompleteCoefficientsError(f"missing derivative callbacks: {missing}")


@dataclass(frozen=True)
class FluctuationResult:
    u: np.ndarray                # (n_paths, n_steps + 1)
    v: np.ndarray                # (n_paths, n_steps + 1)
    z: np.ndarray                # (n_paths, n_steps)

    @property
    def v0_mean(self) -> float:
        """Cross-path mean of the backward fluctuation at time zero.

        V conditions on the initial fluctuation pathwise; the ensemble mean
        is the unconditional value (equal to mean V_T by the regression's
        mean preservation)."""
        return float(np.mean(self.v[:, 0]))


def _measure_term(partials, names: tuple, x_tilde: np.ndarray, u_tilde: np.ndarray,
                  ghost: float | None = None, source: str = "partials") -> np.ndarray:
    """Lions term on the cloud x~, plus the centered sampling forcing given a ghost:
    sum_f partials[:, f] (mean(psi_f'(x~) u~) + [ghost] (psi_f(ghost) - mean psi_f(x~))).
    source names the callback that gave the partials."""
    weights = np.empty(len(names))
    for f, name in enumerate(names):
        psi, dpsi = _FEATURES[name]
        weights[f] = np.mean(dpsi(x_tilde) * u_tilde)
        if ghost is not None:
            weights[f] += psi(ghost) - np.mean(psi(x_tilde))
    shape = (x_tilde.size, len(names))
    return np.broadcast_to(per_path(source, partials, shape), shape) @ weights


def _augmented_design(basis: RegressionBasis, x: np.ndarray, u: np.ndarray):
    """State features plus u-interaction columns, with u standardized so the
    design is invariant under rescaling of the fluctuations."""
    a, _ = basis.fit_design(x[:, None])
    u_std = u.std()
    if u_std > 0:
        us = (u - u.mean()) / u_std
        return np.concatenate([a, a * us[:, None]], axis=1)
    return a


def solve_fluctuation_system(
    coeffs: FluctuationCoefficients,
    mean_field: McKeanVlasovResult,
    u0_sampler: Callable,
    n_paths: int,
    seed: int,
    basis: RegressionBasis = RegressionBasis(),
    opts: SolveOptions = SolveOptions(),
    n_worlds: int = 1,
    include_sampling_noise: bool = False,
) -> FluctuationResult:
    """Integrate the linear fluctuation system along fresh mean-field copies.

    Forward: dU = (dx_b U + E'[dmu_b U'] + G_b) dt + (dx_sigma U +
    E'[dmu_sigma U'] + G_sigma) dW, with E' approximated by the within-world
    cloud average and G the optional sampling forcing (one ghost realization
    per world, shared by its members), both built from the feature partials
    in O(M F) per term. Backward: the linear BSDE for (V, Z)
    with terminal dx_g U_T + E'[dmu_g U'_T] + G_g, solved on the engine's
    backward kernel, without Z clipping, by regression on state features
    augmented with standardized-U columns.
    """
    count("n_worlds", n_worlds, 2 if include_sampling_noise else 1)  # noise variances need 2
    coeffs.validate()
    model = mean_field.model
    names = model.feature_names
    grid = mean_field.grid
    flow = mean_field.flow
    dt = grid.dt
    nodes = grid.nodes
    n = grid.n_steps
    per_world = n_paths // n_worlds
    if per_world < 8:
        raise ValueError("too few paths per world")

    all_u = []
    all_v = []
    all_z = []
    work = None   # one factorization workspace for every step of every world
    for w in range(n_worlds):
        inc = sample_brownian(grid, per_world, 1,
                              split_seed(seed, "fluct-noise", w)).increments
        x0 = _initial_cloud(model.initial_sampler(per_world, split_seed(seed, "fluct-x0", w)),
                            per_world)
        states, _ = _simulate_cloud(model, grid, inc, x0, flow=flow)

        ghost = None
        if include_sampling_noise:
            g_inc = sample_brownian(grid, 1, 1, split_seed(seed, "fluct-ghost", w)).increments
            g_x0 = _initial_cloud(
                model.initial_sampler(1, split_seed(seed, "fluct-ghost-x0", w)), 1)
            ghost, _ = _simulate_cloud(model, grid, g_inc, g_x0, flow=flow)

        def linear_term(c, k, *time):
            """dx_c U + E'[dmu_c U'], plus the centered sampling forcing, at
            node k; time is (t_k,), or () for the terminal derivatives."""
            x_k, f_k, u_k = states[:, k], flow[k], u[k]
            dx, dmu = f"dx_{c}", f"dmu_{c}"
            return (per_path(dx, getattr(coeffs, dx)(*time, x_k, f_k), (per_world,)) * u_k
                    + _measure_term(getattr(coeffs, dmu)(*time, x_k, f_k), names, x_k, u_k,
                                    None if ghost is None else ghost[0, k], dmu))

        # The backward forcing from U depends on forward data only, so it is
        # collected in the forward pass, time-major like the states.
        u = np.empty((n + 1, per_world))
        forcing = np.empty((n, per_world))
        dy_f = np.empty((n, per_world))
        dz_f = np.empty((n, per_world))
        u0 = u0_sampler(per_world, split_seed(seed, "fluct-u0", w))
        u[0] = finite("u0", per_path("u0_sampler", u0, (per_world,)))
        for k in range(n):
            drift = linear_term("b", k, nodes[k])
            diff = linear_term("sigma", k, nodes[k])
            forcing[k] = linear_term("f", k, nodes[k])
            dy_f[k] = per_path("dy_f", coeffs.dy_f(nodes[k], states[:, k], flow[k]), (per_world,))
            dz_f[k] = per_path("dz_f", coeffs.dz_f(nodes[k], states[:, k], flow[k]), (per_world,))
            u[k + 1] = u[k] + drift * dt + diff * inc[:, k, 0]
        v_t = linear_term("g", n)

        def step_design(k):
            nonlocal work
            design = _augmented_design(basis, states[:, k], u[k])
            work = _workspace(work, design)
            return design, fit_projection(design, k, _COND_LIMIT, work=work)

        def step_value(k, v_k, z_k):
            return forcing[k] + dz_f[k] * z_k[:, 0] + dy_f[k] * v_k

        v, zv, _, _ = _backward_solve(v_t[None], inc, dt, step_design, step_value,
                                      opts.inner_picard_iters)

        all_u.append(u.T)
        all_v.append(v[0].T)
        all_z.append(zv[0, :, :, 0].T)

    return FluctuationResult(u=np.concatenate(all_u), v=np.concatenate(all_v),
                             z=np.concatenate(all_z))


# ---------------------------------------------------------------------------
# built-in test models
# ---------------------------------------------------------------------------

def independent_model(rate: float = 0.5, sigma: float = 0.5,
                      m0: float = 0.0, s0: float = 1.0) -> MeanFieldModel:
    """No measure dependence: particles are independent copies."""
    return MeanFieldModel(
        drift=lambda t, x, feats: -rate * x,
        diffusion=lambda t, x, feats: sigma,
        terminal=lambda x, feats: x,
        initial_sampler=_gaussian_sampler(m0, s0),
        feature_names=("mean", "second_moment"),
    )


def mean_reversion_to_crowd_model(sigma: float = 0.1, m0: float = 0.0,
                                  s0: float = 1.0) -> MeanFieldModel:
    """Drift toward the empirical mean; the crowd mean itself is driftless."""
    return MeanFieldModel(
        drift=lambda t, x, feats: feats.mean - x,
        diffusion=lambda t, x, feats: sigma,
        terminal=lambda x, feats: x,
        initial_sampler=_gaussian_sampler(m0, s0),
        feature_names=("mean",),
    )


def linear_gaussian_model(a: float = 0.4, c: float = -0.5, sigma: float = 0.4,
                          m0: float = 0.3, s0: float = 0.3) -> MeanFieldModel:
    """b = a mean + c x with constant diffusion; fully solvable oracle model."""
    return MeanFieldModel(
        drift=lambda t, x, feats: a * feats.mean + c * x,
        diffusion=lambda t, x, feats: sigma,
        terminal=lambda x, feats: x,
        initial_sampler=_gaussian_sampler(m0, s0),
        feature_names=("mean",),
    )


def linear_gaussian_fluctuation_coefficients(a: float = 0.4, c: float = -0.5):
    """Derivative callbacks of the linear-Gaussian model in the solver's
    conventions: the drift a mean + c x has the mean-partial a."""
    zero_state = lambda t, x, feats: np.zeros_like(x)
    zero_partial = lambda t, x, feats: 0.0
    return FluctuationCoefficients(
        dx_b=lambda t, x, feats: np.full_like(x, c),
        dmu_b=lambda t, x, feats: a,
        dx_sigma=zero_state,
        dmu_sigma=zero_partial,
        dx_f=zero_state,
        dy_f=zero_state,
        dz_f=zero_state,
        dmu_f=zero_partial,
        dx_g=lambda x, feats: np.ones_like(x),
        dmu_g=lambda x, feats: 0.0,
    )


def _gaussian_sampler(mean: float, std: float) -> Callable:
    def sampler(n: int, seed: int) -> np.ndarray:
        draw = sample_brownian(TimeGrid(1.0, 1), n, 1, split_seed(seed, "initial-law"))
        return mean + std * draw.increments[:, 0, 0]
    return sampler


MODEL_REGISTRY = {
    "independent": independent_model,
    "mean-reversion-to-crowd": mean_reversion_to_crowd_model,
    "linear-gaussian-clt": linear_gaussian_model,
}
