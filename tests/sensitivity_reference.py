"""Forward-mode sensitivity solve: the reference for the library's adjoint.

Solves, for every parameter coordinate at once, the linear backward
equation whose drift is grad_theta f + (df/dy) V + <df/dz, Z_V> with zero
terminal data, coefficients frozen along the primary solution's paths, and
the update mirroring the primary's inner passes. It carries (m, P)
sensitivities and builds the (m, P) per-sample driver gradients, so it is
kept for tests only.
"""

import numpy as np

from bsdelab.engine import RegressionBasis, SolveOptions, _regress


def forward_sensitivity(primary, driver=None, basis=RegressionBasis(), opts=SolveOptions(),
                        store_paths=False):
    """Returns (grad_y0 (P,), grad_y (m, n_steps + 1, P) or None)."""
    driver = primary.problem.driver if driver is None else driver
    ens = primary.problem.realize()
    grid = primary.grid
    m, n = ens.n_paths, grid.n_steps
    dt = grid.dt
    nodes = grid.nodes
    inc = ens.bundle.increments
    n_params = driver.params.size

    v_next = np.zeros((m, n_params))
    stored = np.zeros((m, n + 1, n_params)) if store_paths else None
    passes = max(1, opts.inner_picard_iters)

    for k in range(n - 1, -1, -1):
        x_k = ens.states[:, k, :]
        design, _ = basis.fit_design(x_k)

        coef_c, _ = _regress(design, v_next, k, opts.cond_limit)
        cont = design @ coef_c

        resid = v_next - cont
        d = inc.shape[2]
        z_theta = np.empty((m, n_params, d))
        for j in range(d):
            coef_z, _ = _regress(design, resid * inc[:, k, j:j + 1], k, opts.cond_limit)
            z_theta[:, :, j] = design @ coef_z / dt

        z_k = primary.z[:, k, :]
        y_iter = primary.continuation[:, k]
        v = cont
        for _ in range(passes):
            g = driver.full_gradients(nodes[k], x_k, y_iter, z_k)
            source = g.dtheta + np.einsum("md,mpd->mp", g.dz, z_theta)
            v = cont + (source + g.dy[:, None] * v) * dt
            y_iter = primary.continuation[:, k] + g.value * dt
        v_next = v
        if stored is not None:
            stored[:, k, :] = v

    return v_next[0].copy(), stored
