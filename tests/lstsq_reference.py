"""Least-squares references for the library's regression layer.

The library projects onto each step's design through the R factor of its
QR. These references keep the scheme as it was written with one
`np.linalg.lstsq` call per regression and monomials built by `u ** p`, so
the tests can hold the library to them at a stated tolerance: the backward
solve, the fluctuation system's V loop and the Picard decoupling. The
fluctuation system's measure terms are also kept in their dense form, as
(M, M') Lions-derivative matrices, to check the factored term against, and
`DesignTransform.apply` is kept in its cumprod form, to check the direct
build against bit for bit. The CLT experiment is kept as it was written
with two backward solves per trial and per N, reading the terminal slice
of each solution, to check the forward-only experiment against bit for bit.
The learning loss, the comparison check and the convexity check are kept
as they were written with one solve per terminal and, for the loss, one
single-column adjoint per record, to check the batched sweep against; the
cloud's Euler update is kept with every coefficient broadcast to (N,). The
engine's row-wise Z clip is kept with its quartiles from `np.percentile`,
to check the partitioned quartiles against bit for bit. The particle
cloud's backward valuation is kept as it was written, through a `Driver`
adapter that finds the step from the float time and `solve_bsde_lsmc` on a
`PathEnsemble`, to check the direct call of the backward kernel against
bit for bit. The mean-field fixed point is kept as it was written, Picard
iteration of the frozen-flow map on the seeded cloud until the flow moves
by less than tol, to check the one live pass against bit for bit. The HJB
march is kept as it was written, with the three sign checks on each
slice's interior as the slice is computed, to check the march that checks
its sign table once at the end against bit for bit, and against its error
node and message.
"""

import itertools
import math
from dataclasses import replace

import numpy as np

from bsdelab._check import real
from bsdelab.engine import (
    _COND_LIMIT,
    BsdeProblem,
    ComparisonReport,
    ConvexityJensenReport,
    RegressionBasis,
    SolveOptions,
    solve_bsde_lsmc,
)
from bsdelab.errors import (NoContractionError, SingularRegressionError,
                            SolverInconsistentError, UnstableGridError)
from bsdelab.meanfield import (
    CltResult,
    _jackknife_var_se,
    _measure_term,
    _simulate_cloud,
    _solve_cloud_backward,
    compute_features,
    solve_mckean_vlasov,
)
from bsdelab.merton import HjbGrid, HjbGridSpec, MarketParams, _interior, classical_merton
from bsdelab.stochastic import (
    BrownianBundle,
    PathEnsemble,
    TimeGrid,
    sample_brownian,
    simulate_forward,
    split_seed,
)


def _broadcast(vals, n):
    return np.broadcast_to(np.asarray(vals, dtype=np.float64), (n,))


def cumprod_apply(self, x: np.ndarray) -> np.ndarray:
    """The design at states x: a constant column, then one per exponent."""
    u = (np.atleast_2d(x) - self.mean) / self.scale
    top = max((max(e) for e in self.exponents), default=0)
    powers = np.cumprod(np.repeat(u[:, :, None], top, axis=2), axis=2)   # u_i ** (p + 1)
    cols = [np.prod([powers[:, i, p - 1] for i, p in enumerate(e) if p], axis=0)
            for e in self.exponents]
    return np.column_stack([np.ones(u.shape[0])] + cols)


def regress(design, response, step, cond_limit):
    coef, _, rank, sv = np.linalg.lstsq(design, response, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if rank < design.shape[1] or cond > cond_limit:
        raise SingularRegressionError(step=step, cond=cond)
    return coef, cond


def fit_design(x, degree=3):
    """Standardized monomials up to total degree; returns (design, transform)."""
    x = np.atleast_2d(x)
    n = x.shape[1]
    mean, scale = x.mean(axis=0), x.std(axis=0)
    ok = scale > 0
    exps = []
    for total in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(n), total):
            e = [0] * n
            for i in combo:
                e[i] += 1
            if all(ok[i] for i in range(n) if e[i] > 0):
                exps.append(tuple(e))
    tr = (mean, np.where(ok, scale, 1.0), exps)
    return apply_design(x, tr), tr


def apply_design(x, tr):
    mean, scale, exps = tr
    x = np.atleast_2d(x)
    u = (x - mean) / scale
    cols = [np.ones(x.shape[0])]
    for e in exps:
        col = np.ones(x.shape[0])
        for i, p in enumerate(e):
            if p:
                col = col * u[:, i] ** p
        cols.append(col)
    return np.column_stack(cols)


def percentile_clip_z(z, mult):
    """Clip each row to median +- mult * IQR (none if the IQR is 0);
    returns (clipped, per-row clip counts)."""
    q1, med, q3 = np.percentile(z, [25.0, 50.0, 75.0], axis=1, keepdims=True)
    iqr = q3 - q1
    lo = np.where(iqr > 0, med - mult * iqr, -np.inf)
    hi = np.where(iqr > 0, med + mult * iqr, np.inf)
    return np.clip(z, lo, hi), np.count_nonzero((z < lo) | (z > hi), axis=1)


def _clip_z(z, mult):
    out = z.copy()
    for j in range(z.shape[1]):
        q1, med, q3 = np.percentile(z[:, j], [25.0, 50.0, 75.0])
        if q3 - q1 > 0:
            out[:, j] = np.clip(z[:, j], med - mult * (q3 - q1), med + mult * (q3 - q1))
    return out


def backward_solve(ens, terminal_values, driver, opts, degree=3):
    """The martingale-increment LSMC recursion; returns (y, z)."""
    m, n = ens.n_paths, ens.grid.n_steps
    dt, nodes, inc = ens.grid.dt, ens.grid.nodes, ens.bundle.increments
    y = np.empty((m, n + 1))
    z = np.zeros((m, n, ens.bundle.dim))
    y[:, n] = terminal_values
    for k in range(n - 1, -1, -1):
        x_k = ens.states[:, k, :]
        design, _ = fit_design(x_k, degree)
        coef_y, _ = regress(design, y[:, k + 1], k, _COND_LIMIT)
        c_k = design @ coef_y
        coef_z, _ = regress(design, (y[:, k + 1] - c_k)[:, None] * inc[:, k, :], k,
                            _COND_LIMIT)
        z_k = design @ coef_z / dt
        if opts.z_clip is not None:
            z_k = _clip_z(z_k, opts.z_clip)
        y_k = c_k
        for _ in range(max(1, opts.inner_picard_iters)):
            y_k = c_k + driver.value(nodes[k], x_k, y_k, z_k) * dt
        y[:, k] = y_k
        z[:, k, :] = z_k
    return y, z


def picard_y0(model, grid, bundle, terminal, driver, opts, max_iters=25, tol=1e-8):
    """Root value of the Picard decoupling, with fields fitted by lstsq."""
    def solve_and_fit(y_field, z_field):
        ens = simulate_forward(model, grid, bundle, y_field, z_field)
        y, z = backward_solve(ens, terminal(ens), driver, opts)
        fields = []
        for k in range(grid.n_steps):
            design, tr = fit_design(ens.states[:, k, :])
            cy, _ = regress(design, y[:, k], k, _COND_LIMIT)
            cz, _ = regress(design, z[:, k, :], k, _COND_LIMIT)
            fields.append((tr, cy, cz))
        y_at = lambda k, x: apply_design(x, fields[k][0]) @ fields[k][1]
        z_at = lambda k, x: apply_design(x, fields[k][0]) @ fields[k][2]
        return ens, y[0, 0], y_at, z_at

    d = bundle.dim
    ens, y0, y_at, z_at = solve_and_fit(lambda k, x: np.zeros(x.shape[0]),
                                        lambda k, x: np.zeros((x.shape[0], d)))
    for _ in range(max_iters):
        new_ens, new_y0, new_y_at, new_z_at = solve_and_fit(y_at, z_at)
        change = max(float(np.max(np.abs(new_y_at(k, new_ens.states[:, k, :])
                                          - y_at(k, new_ens.states[:, k, :]))))
                     for k in range(grid.n_steps))
        residual = max(abs(new_y0 - y0), change)
        ens, y0, y_at, z_at = new_ens, new_y0, new_y_at, new_z_at
        if residual < tol:
            return y0
    raise NoContractionError([])


def _pair_term(callback, t, x, feats, x_tilde, u_tilde):
    """mean_j callback(t, x_i, x_tilde_j) * u_tilde_j, vectorized."""
    mat = np.asarray(callback(t, x, feats, x_tilde), dtype=np.float64)
    mat = np.broadcast_to(mat, (x.size, x_tilde.size))
    return mat @ u_tilde / x_tilde.size


def _centered_forcing(callback, t, x, feats, ghost, cloud):
    """Functional derivative at the ghost copy, centered by the cloud mean."""
    at_ghost = np.asarray(callback(t, x, feats, np.atleast_1d(ghost)), dtype=np.float64)
    at_ghost = np.broadcast_to(at_ghost, (x.size, 1))[:, 0]
    at_cloud = np.asarray(callback(t, x, feats, cloud), dtype=np.float64)
    at_cloud = np.broadcast_to(at_cloud, (x.size, cloud.size))
    return at_ghost - at_cloud.mean(axis=1)


# Feature name -> (psi, psi'), written out apart from the library's table.
FEATURES = {
    "mean": (lambda x: x, lambda x: np.ones(np.size(x))),
    "second_moment": (lambda x: x ** 2, lambda x: 2 * x),
}


def dense_measure_term(partials, names, x, u, ghost=None):
    """The measure term on the cloud x through the dense matrices B psi'(x~)^T
    (Lions derivative) and B psi(x~)^T (linear functional derivative), for
    partials B (M, F) with respect to the features names."""
    psis = [FEATURES[name] for name in names]
    b = np.broadcast_to(np.asarray(partials, dtype=np.float64), (x.size, len(psis)))
    lions = lambda t, x_, feats, xt: b @ np.stack([dpsi(xt) for _, dpsi in psis])
    functional = lambda t, x_, feats, xt: b @ np.stack([psi(xt) for psi, _ in psis])
    out = _pair_term(lions, 0.0, x, None, x, u)
    if ghost is not None:
        out = out + _centered_forcing(functional, 0.0, x, None, ghost, x)
    return out


def broadcast_simulate_cloud(model, grid, increments, x0, flow=None):
    """Euler stepping of the cloud with every drift and diffusion value
    broadcast to (N,) before the update."""
    n_particles = x0.size
    n, dt, nodes = grid.n_steps, grid.dt, grid.nodes
    states = np.empty((n_particles, n + 1))
    states[:, 0] = x0
    for k in range(n):
        feats = (compute_features(states[:, k], model.feature_names) if flow is None
                 else flow[k])
        b = _broadcast(model.drift(nodes[k], states[:, k], feats), n_particles)
        s = _broadcast(model.diffusion(nodes[k], states[:, k], feats), n_particles)
        states[:, k + 1] = states[:, k] + b * dt + s * increments[:, k, 0]
    return states


def _flow_distance(a: list, b: list) -> float:
    gap = 0.0
    for fa, fb in zip(a, b):
        gap = max(gap, abs(fa.mean - fb.mean), abs(fa.second_moment - fb.second_moment))
    return gap


def picard_mckean_vlasov(model, n_cloud, grid, seed, max_iters=40, tol=1e-6):
    """The fixed point by Picard iteration: the flow is initialized from the
    run with features frozen at their initial values; each iteration
    re-simulates the same noise with the previous flow and recomputes
    features until the sup-over-time change drops below tol. Returns
    (flow, states, residuals)."""
    increments = sample_brownian(grid, n_cloud, 1, split_seed(seed, "mkv-cloud")).increments
    x0 = np.asarray(model.initial_sampler(n_cloud, split_seed(seed, "mkv-initial")))

    feats0 = compute_features(x0, model.feature_names)
    states, _ = _simulate_cloud(model, grid, increments, x0,
                                flow=[feats0] * (grid.n_steps + 1))
    flow = [compute_features(states[:, k], model.feature_names)
            for k in range(grid.n_steps + 1)]

    residuals = []
    for _ in range(max_iters):
        states, _ = _simulate_cloud(model, grid, increments, x0, flow=flow)
        new_flow = [compute_features(states[:, k], model.feature_names)
                    for k in range(grid.n_steps + 1)]
        residual = _flow_distance(new_flow, flow)
        residuals.append(residual)
        flow = new_flow
        if residual < tol:
            return flow, states, residuals
    raise AssertionError(f"no fixed point after {max_iters} iterations: {residuals[-1]:.3e}")


class _FlowDriver:
    """Adapts a feature-dependent driver to the engine's (t, x, y, z) call."""

    params = np.zeros(0)

    def __init__(self, model, flow, grid):
        self._model = model
        self._flow = flow
        self._grid = grid

    def value(self, t, x, y, z):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        m = x.shape[0]
        if self._model.driver is None:
            return np.zeros(m)
        t = float(np.min(t))
        z = np.asarray(z, dtype=np.float64).reshape(m, -1)
        y = _broadcast(y, m)
        out = self._model.driver(t, x[:, 0], y, z[:, 0], self._flow[self._grid.node_index(t)])
        return _broadcast(out, m).copy()


def flow_driver_cloud_solve(model, grid, states, increments, flow, basis, opts):
    """The cloud's backward valuation through `solve_bsde_lsmc`: the flow
    driver adapter on an ensemble around the cloud; returns the BsdeSolution."""
    ens = PathEnsemble(
        states=states[:, :, None],
        grid=grid,
        bundle=BrownianBundle(increments=increments, dt=grid.dt, seed=0),
    )
    problem = BsdeProblem(
        driver=_FlowDriver(model, flow, grid),
        terminal=lambda e: _broadcast(model.terminal(e.states[:, -1, 0], flow[-1]),
                                      e.n_paths).copy(),
        ensemble=ens,
    )
    return solve_bsde_lsmc(problem, basis, opts)


def fluctuation_system(coeffs, mean_field, u0_sampler, n_paths, seed, opts, n_worlds=1,
                       include_sampling_noise=False, degree=3):
    """The fluctuation solve with its V loop regressing by lstsq; returns (u, v, z)."""
    model, grid, flow = mean_field.model, mean_field.grid, mean_field.flow
    names = model.feature_names
    dt, nodes, n = grid.dt, grid.nodes, grid.n_steps
    per_world = n_paths // n_worlds
    all_u, all_v, all_z = [], [], []
    for w in range(n_worlds):
        inc = sample_brownian(grid, per_world, 1, split_seed(seed, "fluct-noise", w)).increments
        x0 = np.asarray(model.initial_sampler(per_world, split_seed(seed, "fluct-x0", w)))
        states, _ = _simulate_cloud(model, grid, inc, x0, flow=flow)
        ghost = None
        if include_sampling_noise:
            g_inc = sample_brownian(grid, 1, 1, split_seed(seed, "fluct-ghost", w)).increments
            g_x0 = np.asarray(model.initial_sampler(1, split_seed(seed, "fluct-ghost-x0", w)))
            ghost, _ = _simulate_cloud(model, grid, g_inc, g_x0, flow=flow)
        ghost_at = lambda k: None if ghost is None else ghost[0, k]

        u = np.empty((per_world, n + 1))
        u[:, 0] = u0_sampler(per_world, split_seed(seed, "fluct-u0", w))
        for k in range(n):
            x_k, f_k, u_k = states[:, k], flow[k], u[:, k]
            drift = (_broadcast(coeffs.dx_b(nodes[k], x_k, f_k), per_world) * u_k
                     + _measure_term(coeffs.dmu_b(nodes[k], x_k, f_k), names, x_k, u_k,
                                     ghost_at(k)))
            diff = (_broadcast(coeffs.dx_sigma(nodes[k], x_k, f_k), per_world) * u_k
                    + _measure_term(coeffs.dmu_sigma(nodes[k], x_k, f_k), names, x_k, u_k,
                                    ghost_at(k)))
            u[:, k + 1] = u_k + drift * dt + diff * inc[:, k, 0]

        v = np.empty((per_world, n + 1))
        zv = np.zeros((per_world, n))
        x_t = states[:, n]
        v[:, n] = (_broadcast(coeffs.dx_g(x_t, flow[n]), per_world) * u[:, n]
                   + _measure_term(coeffs.dmu_g(x_t, flow[n]), names, x_t, u[:, n],
                                   ghost_at(n)))
        for k in range(n - 1, -1, -1):
            x_k, f_k = states[:, k], flow[k]
            design, _ = fit_design(x_k[:, None], degree)
            u_k = u[:, k]
            if u_k.std() > 0:
                us = (u_k - u_k.mean()) / u_k.std()
                design = np.concatenate([design, design * us[:, None]], axis=1)
            coef_c, _ = regress(design, v[:, k + 1], k, _COND_LIMIT)
            cont = design @ coef_c
            coef_z, _ = regress(design, (v[:, k + 1] - cont) * inc[:, k, 0], k, _COND_LIMIT)
            z_k = design @ coef_z / dt
            source = (_broadcast(coeffs.dx_f(nodes[k], x_k, f_k), per_world) * u_k
                      + _broadcast(coeffs.dz_f(nodes[k], x_k, f_k), per_world) * z_k
                      + _measure_term(coeffs.dmu_f(nodes[k], x_k, f_k), names, x_k, u_k,
                                      ghost_at(k)))
            dy = _broadcast(coeffs.dy_f(nodes[k], x_k, f_k), per_world)
            v_k = cont
            for _ in range(max(1, opts.inner_picard_iters)):
                v_k = cont + (source + dy * v_k) * dt
            v[:, k] = v_k
            zv[:, k] = z_k
        all_u.append(u)
        all_v.append(v)
        all_z.append(zv)
    return np.concatenate(all_u), np.concatenate(all_v), np.concatenate(all_z)


def clt_reference(model, n_list, grid, n_trials, seed, basis=RegressionBasis(),
                  opts=SolveOptions(), n_reference=65536, u0_std=0.0):
    """The CLT experiment with a backward solve on the particle cloud and on
    the limit copies, per trial and per N; V is read from run.y[:, -1]."""
    n_values = sorted(int(n) for n in n_list)
    ref = solve_mckean_vlasov(model, n_reference, grid, split_seed(seed, "clt-reference"),
                              solve_backward=False)
    n_max = n_values[-1]
    samples_u = {n: [] for n in n_values}
    samples_v = {n: [] for n in n_values}
    for trial in range(n_trials):
        inc_full = sample_brownian(grid, n_max, 1,
                                   split_seed(seed, "clt-noise", trial)).increments
        x0_full = np.asarray(model.initial_sampler(n_max, split_seed(seed, "clt-x0", trial)))
        zeta_full = sample_brownian(TimeGrid(1.0, 1), n_max, 1,
                                    split_seed(seed, "clt-zeta", trial)).increments[:, 0, 0]
        for n_particles in n_values:
            inc = inc_full[:n_particles]
            x0_c = x0_full[:n_particles]
            x0_p = x0_c + u0_std * zeta_full[:n_particles] / np.sqrt(n_particles)
            states_p, flow_p = _simulate_cloud(model, grid, inc, x0_p, None)
            run_p = _solve_cloud_backward(model, grid, states_p, inc, flow_p, basis, opts)
            states_c, _ = _simulate_cloud(model, grid, inc, x0_c, flow=ref.flow)
            run_c = _solve_cloud_backward(model, grid, states_c, inc, ref.flow, basis, opts)
            root_n = np.sqrt(n_particles)
            samples_u[n_particles].append(root_n * (states_p[:, -1] - states_c[:, -1]))
            samples_v[n_particles].append(root_n * (run_p.y[:, -1] - run_c.y[:, -1]))

    pooled = lambda samples: [float(np.var(np.concatenate(samples[n]), ddof=1))
                              for n in n_values]
    jackknife = lambda samples: [_jackknife_var_se(samples[n]) for n in n_values]
    return CltResult(n_values=np.array(n_values),
                     var_u=np.array(pooled(samples_u)), var_v=np.array(pooled(samples_v)),
                     var_u_se=np.array(jackknife(samples_u)),
                     var_v_se=np.array(jackknife(samples_v)),
                     u0_std=u0_std, n_trials=n_trials)


def single_adjoint_gradient(primary, root, continuation_weights=None):
    """Parameter gradient of root . V_0 + sum_k continuation_weights[:, k] . C_k
    for one primary, with an m-vector adjoint carried forward in time."""
    ens = primary.problem.ensemble
    driver = primary.problem.driver
    m, n = ens.n_paths, ens.grid.n_steps
    dt, nodes, inc = ens.grid.dt, ens.grid.nodes, ens.bundle.increments
    grad = np.zeros(driver.params.size)
    lam = root
    for k in range(n):
        x_k = ens.states[:, k, :]
        z_k = primary.z[:, k, :]
        cont = primary.continuation[:, k]
        lins = []
        y_iter = cont
        for _ in range(primary.passes):
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
            break
        design, fit = primary.plan.step(k)
        mart = np.sum(fit.project(design, b.T).T * inc[:, k, :], axis=1) / dt
        lam = fit.project(design, a_cont - mart) + mart
    return grad


def per_record_loss(dataset, driver, ensemble, lam_reg=0.0, lam_norm=0.0,
                    basis=RegressionBasis(), opts=SolveOptions()):
    """(loss, gradient, per-record Y0, per-record solutions): one solve and
    one or two adjoints per record."""
    ens = ensemble
    dt, nodes = dataset.grid.dt, dataset.grid.nodes
    n_records = len(dataset.records)
    data_term = norm_term = 0.0
    grad = np.zeros(driver.params.size)
    y0s = np.empty(n_records)
    sols = []
    for i, rec in enumerate(dataset.records):
        try:
            sol = solve_bsde_lsmc(BsdeProblem(driver=driver, terminal=rec.terminal, ensemble=ens),
                                  basis, opts)
        except Exception as exc:
            raise type(exc)(f"record {i} ('{rec.label}'): {exc}") from exc
        root = np.zeros(ens.n_paths)
        root[0] = 1.0
        sols.append(sol)
        y0s[i] = sol.y0
        residual = sol.y0 - rec.observed
        data_term += residual * residual / n_records
        grad += (2.0 * residual / n_records) * single_adjoint_gradient(sol, root)
        if lam_norm != 0.0:
            m = ens.n_paths
            z0 = np.zeros_like(sol.z[:, 0, :])
            cont_weights = np.empty((m, dataset.grid.n_steps))
            scale = lam_norm * 2.0 * dt / n_records
            for k in range(dataset.grid.n_steps):
                lin = driver.linearize(nodes[k], ens.states[:, k, :], sol.continuation[:, k], z0)
                norm_term += float(np.mean(lin.value ** 2)) * dt / n_records
                grad += scale * lin.pullback(lin.value / m)
                cont_weights[:, k] = lin.value * lin.dy / m
            grad += scale * single_adjoint_gradient(sol, np.zeros(m), cont_weights)
    grad += 2.0 * lam_reg * driver.params
    loss = data_term + float(lam_reg * driver.params @ driver.params) + lam_norm * norm_term
    return loss, grad, y0s, sols


def per_terminal_comparison(problem, terminal_high, terminal_low, basis=RegressionBasis(),
                            opts=SolveOptions(), tol=0.0):
    """The comparison report from one solve per terminal (no preconditions)."""
    sol_hi = solve_bsde_lsmc(replace(problem, terminal=terminal_high), basis, opts)
    sol_lo = solve_bsde_lsmc(replace(problem, terminal=terminal_low), basis, opts)
    diff = sol_hi.y - sol_lo.y
    return ComparisonReport(
        y0_high=sol_hi.y0, y0_low=sol_lo.y0, y0_gap=sol_hi.y0 - sol_lo.y0,
        per_step_min=diff.min(axis=0), violation_count=int(np.sum(diff < -tol)),
        max_violation=float(max(0.0, -diff.min())),
        mc_noise=max(sol_hi.y0_standard_error, sol_lo.y0_standard_error),
    )


def per_terminal_convexity(problem, terminal_1, terminal_2, lam, phi, basis=RegressionBasis(),
                           opts=SolveOptions(), tol=0.0):
    """The convexity and Jensen report from one solve per terminal (no preconditions)."""
    solve = lambda terminal: solve_bsde_lsmc(replace(problem, terminal=terminal), basis, opts)
    sol1, sol2 = solve(terminal_1), solve(terminal_2)
    sol_mix = solve(lambda e: lam * terminal_1(e) + (1.0 - lam) * terminal_2(e))
    sol_phi = solve(lambda e: phi.f(terminal_1(e)))
    delta_cvx = lam * sol1.y0 + (1.0 - lam) * sol2.y0 - sol_mix.y0
    delta_jen = sol_phi.y0 - float(phi.f(sol1.y0))
    return ConvexityJensenReport(
        delta_convexity=float(delta_cvx), delta_jensen=float(delta_jen),
        y0_mix=sol_mix.y0, y0_1=sol1.y0, y0_2=sol2.y0,
        mc_noise=max(sol1.y0_standard_error, sol2.y0_standard_error,
                     sol_mix.y0_standard_error, sol_phi.y0_standard_error),
        tol=tol, passed=(delta_cvx >= -tol) and (delta_jen >= -tol),
    )


def _derivatives(u: np.ndarray, h: float):
    """Central differences inside, second-order one-sided at the ends."""
    ul = np.empty_like(u)
    ull = np.empty_like(u)
    ul[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
    ull[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
    ul[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
    ul[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
    ull[0] = (2.0 * u[0] - 5.0 * u[1] + 4.0 * u[2] - u[3]) / (h * h)
    ull[-1] = (2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]) / (h * h)
    return ul, ull


def _policy_from_derivatives(params: MarketParams, theta: float,
                             ul: np.ndarray, ull: np.ndarray,
                             interior: slice):
    bracket = ull - ul - theta * ul * ul
    inner_l = ul[interior]
    inner_b = bracket[interior]
    if np.any(inner_l <= 0):
        node = interior.start + int(np.argmax(inner_l <= 0))
        raise SolverInconsistentError(node, "V_x lost positivity")
    if np.any((ull - ul)[interior] >= 0):
        node = interior.start + int(np.argmax((ull - ul)[interior] >= 0))
        raise SolverInconsistentError(node, "V_xx lost concavity")
    if np.any(inner_b >= 0):
        node = interior.start + int(np.argmax(inner_b >= 0))
        raise SolverInconsistentError(node, "second-order condition violated")
    return -(params.mu - params.r) * ul / (params.sigma ** 2 * bracket)


def per_slice_solve_hjb(
    params: MarketParams,
    theta: float,
    spec: HjbGridSpec | None = None,
    fixed_pi: float | None = None,
) -> HjbGrid:
    """The HJB march with its sign conditions checked on each slice as it is
    computed: the first failing slice raises before the next is marched."""
    real("theta", theta, at_least=0)
    spec = HjbGridSpec.default(params) if spec is None else spec
    g = params.gamma
    excess = params.mu - params.r
    sig2 = params.sigma ** 2

    j_nodes = spec.n_space + 1
    ell = np.linspace(spec.ell_lo, spec.ell_hi, j_nodes)
    h = ell[1] - ell[0]

    pi_bound = abs(fixed_pi) if fixed_pi is not None else abs(classical_merton(params).pi)
    b_max = 0.5 * sig2 * pi_bound ** 2
    a_max = abs(params.r) + pi_bound * abs(excess) + 0.5 * sig2 * pi_bound ** 2
    dt_max = 0.9 / (2.0 * b_max / h ** 2 + a_max / h)
    required = int(math.ceil(params.horizon / dt_max))
    n_time = required if spec.n_time is None else spec.n_time
    if n_time < required:
        raise UnstableGridError(n_time, required)
    dt = params.horizon / n_time

    times = np.linspace(0.0, params.horizon, n_time + 1)
    value = np.empty((n_time + 1, j_nodes))
    policy = np.empty((n_time + 1, j_nodes))
    value[n_time] = np.exp(g * ell) / g

    interior = _interior(j_nodes, spec.interior_margin)

    def policy_at(u):
        """Derivatives of the slice u and the allocation they give."""
        ul, ull = _derivatives(u, h)
        pi = (np.full(j_nodes, fixed_pi) if fixed_pi is not None
              else _policy_from_derivatives(params, theta, ul, ull, interior))
        return ul, ull, pi

    # Each slice's derivatives and policy are computed once, when the slice
    # is, and carried into the step that reads them.
    ul, ull, policy[n_time] = policy_at(value[n_time])
    for m in range(n_time - 1, -1, -1):
        u = value[m + 1]
        pi = policy[m + 1]

        advection = params.r + pi * excess - 0.5 * sig2 * pi * pi
        diffusion = 0.5 * sig2 * pi * pi
        penalty = -0.5 * theta * sig2 * pi * pi * ul * ul

        fwd = np.empty_like(u)
        bwd = np.empty_like(u)
        fwd[:-1] = (u[1:] - u[:-1]) / h
        fwd[-1] = (u[-1] - u[-2]) / h
        bwd[1:] = (u[1:] - u[:-1]) / h
        bwd[0] = (u[1] - u[0]) / h
        ul_upwind = np.where(advection >= 0, fwd, bwd)

        value[m] = u + dt * (advection * ul_upwind + diffusion * ull + penalty)
        ul, ull, policy[m] = policy_at(value[m])

    return HjbGrid(ell=ell, times=times, value=value, policy=policy, theta=theta,
                   params=params, interior_margin=spec.interior_margin)
