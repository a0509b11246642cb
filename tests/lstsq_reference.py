"""Least-squares references for the library's regression layer.

The library projects onto each step's design through the R factor of its
QR. These references keep the scheme as it was written with one
`np.linalg.lstsq` call per regression and monomials built by `u ** p`, so
the tests can hold the library to them at a stated tolerance: the backward
solve, the fluctuation system's V loop and the Picard decoupling. The
fluctuation system's measure terms are also kept in their dense form, as
(M, M') Lions-derivative matrices, to check the factored term against, and
`DesignTransform.apply` is kept in its cumprod form, to check the direct
build against bit for bit.
"""

import itertools

import numpy as np

from bsdelab.errors import NoContractionError, SingularRegressionError
from bsdelab.meanfield import _broadcast, _measure_term, _simulate_cloud
from bsdelab.stochastic import sample_brownian, simulate_forward, split_seed


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
        coef_y, _ = regress(design, y[:, k + 1], k, opts.cond_limit)
        c_k = design @ coef_y
        coef_z, _ = regress(design, (y[:, k + 1] - c_k)[:, None] * inc[:, k, :], k,
                            opts.cond_limit)
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
            cy, _ = regress(design, y[:, k], k, opts.cond_limit)
            cz, _ = regress(design, z[:, k, :], k, opts.cond_limit)
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
            coef_c, _ = regress(design, v[:, k + 1], k, opts.cond_limit)
            cont = design @ coef_c
            coef_z, _ = regress(design, (v[:, k + 1] - cont) * inc[:, k, 0], k, opts.cond_limit)
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
