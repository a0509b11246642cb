"""Per-sample driver gradients and the forward-mode sensitivity solve: the
references for the library's pullbacks and adjoint.

`per_sample_gradients` forms the (m, P) per-sample Jacobian that the library
never builds: for networks from the reverse-pass tapes, block by block, not
from pullbacks, so it checks them independently. `forward_sensitivity`
solves, for every parameter coordinate at once, the linear backward
equation whose drift is grad_theta f + (df/dy) V + <df/dz, Z_V> with zero
terminal data, coefficients frozen along the primary solution's paths, and
the update mirroring the primary's inner passes. Both carry (m, P) arrays,
so they are kept for tests only. The solve's regressions are least squares
by lstsq on degree-3 designs, independent of the library's projection layer.
"""

import numpy as np

from bsdelab.drivers import (
    AnalyticDriver,
    DriverGradients,
    TruncatedDriver,
    _normalize_inputs,
)
from bsdelab.engine import _COND_LIMIT, SolveOptions
from bsdelab.nets import DriverNet
from lstsq_reference import continuation, fit_design, regress


def _stack_param_gradients(stack, tape, dtheta):
    """Writes one block stack's per-sample parameter gradients into dtheta (m, P)."""
    for layer, (delta, inputs, t_derivs) in zip(reversed(stack.layers), tape):
        dtheta[:, layer.b_slice] += delta
        for block, a_in, t_deriv in zip(layer.blocks, inputs, t_derivs):
            dw = delta[:, :, None] * a_in[:, None, :] * t_deriv[None, :, :]
            dtheta[:, block.w_slice] += dw.reshape(dw.shape[0], -1)


def per_sample_gradients(driver, t, x, y, z):
    """Value, dy (m,), dz (m, d) and the per-sample dtheta (m, P) of a library driver."""
    if isinstance(driver, TruncatedDriver):
        y = np.asarray(y, dtype=np.float64)
        g = per_sample_gradients(driver.base, t, x, np.clip(y, -driver.k_level, driver.k_level), z)
        inside = (np.abs(np.broadcast_to(y, g.dy.shape)) <= driver.k_level).astype(np.float64)
        return DriverGradients(value=g.value, dy=g.dy * inside, dz=g.dz, dtheta=g.dtheta)
    if isinstance(driver, AnalyticDriver):
        t, x, y, z = _normalize_inputs(t, x, y, z)
        m, d = z.shape
        value = driver.value_fn(driver.params, t, x, y, z)
        dy, dz, dtheta = driver.grad_fn(driver.params, t, x, y, z)
        return DriverGradients(
            value=np.broadcast_to(np.asarray(value, dtype=np.float64), (m,)).copy(),
            dy=np.broadcast_to(np.asarray(dy, dtype=np.float64), (m,)).copy(),
            dz=np.broadcast_to(np.asarray(dz, dtype=np.float64), (m, d)).copy(),
            dtheta=np.broadcast_to(np.asarray(dtheta, dtype=np.float64),
                                   (m, driver.params.size)).copy(),
        )
    if isinstance(driver, DriverNet):
        out, dy, dz, tapes = driver._reverse(t, x, y, z)
        dtheta = np.zeros((out.shape[0], driver.n_params))
        for name, tape in tapes.items():
            _stack_param_gradients(driver._stacks[name], tape, dtheta)
        return DriverGradients(value=out, dy=dy, dz=dz, dtheta=dtheta)
    raise TypeError(f"no per-sample reference for {type(driver).__name__}")


def forward_sensitivity(primary, driver=None, opts=SolveOptions(), store_paths=False):
    """Returns (grad_y0 (P,), grad_y (m, n_steps + 1, P) or None)."""
    driver = primary.problem.driver if driver is None else driver
    ens = primary.problem.ensemble
    m, n = ens.n_paths, ens.grid.n_steps
    dt = ens.grid.dt
    nodes = ens.grid.nodes
    inc = ens.bundle.increments
    n_params = driver.params.size

    v_next = np.zeros((m, n_params))
    stored = np.zeros((m, n + 1, n_params)) if store_paths else None
    passes = max(1, opts.inner_picard_iters)

    for k in range(n - 1, -1, -1):
        x_k = ens.states[:, k, :]
        design, _ = fit_design(x_k)

        coef_c, _ = regress(design, v_next, k, _COND_LIMIT)
        cont = design @ coef_c

        resid = v_next - cont
        d = inc.shape[2]
        z_theta = np.empty((m, n_params, d))
        for j in range(d):
            coef_z, _ = regress(design, resid * inc[:, k, j:j + 1], k, _COND_LIMIT)
            z_theta[:, :, j] = design @ coef_z / dt

        z_k = primary.z[:, k, :]
        c_k = continuation(primary, k)
        y_iter = c_k
        v = cont
        for _ in range(passes):
            g = per_sample_gradients(driver, nodes[k], x_k, y_iter, z_k)
            source = g.dtheta + np.einsum("md,mpd->mp", g.dz, z_theta)
            v = cont + (source + g.dy[:, None] * v) * dt
            y_iter = c_k + g.value * dt
        v_next = v
        if stored is not None:
            stored[:, k, :] = v

    return v_next[0].copy(), stored
