"""The operator axioms, measured on common random numbers.

Monotone drivers order solutions when terminal claims are ordered; convex
drivers make the operator convex; the entropic operator is exactly time
consistent; and a convex z-driver admits a change-of-measure lower bound
that is tight at the optimal tilt.
"""

import numpy as np

from bsdelab.drivers import entropic_driver, quadratic_z_driver
from bsdelab.engine import (
    BsdeProblem,
    SmoothFunction,
    check_comparison,
    check_convexity_and_jensen,
    check_dynamic_consistency,
    dual_lower_bound,
    effective_drift_decomposition,
    solve_bsde_lsmc,
)
from bsdelab.nets import NetLayout, build_driver, build_homogeneous_icnn
from bsdelab.stochastic import brownian_model, make_time_grid, sample_brownian, simulate_forward

# One simulation: every check below runs on these paths, so each step's
# regression design is factored once.
grid = make_time_grid(1.0, 40)
ens = simulate_forward(brownian_model(1), grid, sample_brownian(grid, 40_000, 1, seed=3))
w_t = lambda ens: ens.states[:, -1, 0]

mono = build_driver("MonotoneY", NetLayout(hidden=(8, 8)), init_seed=7)
rep = check_comparison(
    BsdeProblem(driver=mono, ensemble=ens),
    terminal_high=lambda e: np.abs(w_t(e)),
    terminal_low=lambda e: np.zeros(e.n_paths),
)
print(f"comparison: Y0(|W_T|) - Y0(0) = {rep.y0_gap:+.4f} "
      f"(monotone driver, noise {rep.mc_noise:.1e})")

icnn = build_driver("IcnnYZ", NetLayout(hidden=(8, 8), activation="softplus"),
                    init_seed=7)
rep = check_convexity_and_jensen(
    BsdeProblem(driver=icnn, ensemble=ens),
    terminal_1=w_t, terminal_2=lambda e: -w_t(e), lam=0.5,
    phi=SmoothFunction.square(),
)
print(f"operator convexity gap (input-convex driver): {rep.delta_convexity:+.4f}")

hom = build_homogeneous_icnn(init_seed=9)
rep = check_convexity_and_jensen(
    BsdeProblem(driver=hom, ensemble=ens),
    terminal_1=w_t, terminal_2=lambda e: -w_t(e), lam=0.5,
    phi=SmoothFunction.square(),
)
print(f"Jensen gap (homogeneous convex driver): {rep.delta_jensen:+.4f}")

dyn = check_dynamic_consistency(
    BsdeProblem(driver=entropic_driver(1.0), terminal=w_t, ensemble=ens),
    split_time=0.5,
)
print(f"dynamic consistency: |direct - nested| = {dyn.gap:.2e} "
      f"of Y0 = {dyn.y0_direct:+.4f}")

quad = BsdeProblem(driver=quadratic_z_driver(1.0), terminal=w_t, ensemble=ens)
sol = solve_bsde_lsmc(quad)
dual = dual_lower_bound(quad, [[0.0], [0.5], [1.0], [1.5]],
                        fenchel=lambda u: float(u @ u) / 2.0)
print("dual lower bounds per control:",
      ", ".join(f"u={u[0]:.1f}: {v:+.4f}" for u, v in zip(dual.controls, dual.values)))
print(f"  best {dual.best_value:+.4f} at u = {dual.best_control[0]} "
      f"vs solver Y0 = {sol.y0:+.4f}")

ent = BsdeProblem(driver=entropic_driver(1.0), terminal=w_t, ensemble=ens)
dec = effective_drift_decomposition(solve_bsde_lsmc(ent), SmoothFunction.square())
print(f"drift decomposition of Y^2 under the entropic driver: mean ambiguity "
      f"drift {dec.ambiguity_drift.mean():+.4f}, mean convexity correction "
      f"{dec.convexity_correction.mean():+.4f} per unit time")
