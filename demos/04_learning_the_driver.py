"""Learn a driver parameter from observed values of terminal claims.

The gradient of each fitted value comes from the linear sensitivity system
solved along the primary solution's paths, not from differentiating through
the regression code. Here the data are entropic certainty equivalents of
scaled claims c W_T generated at theta = 1.5, and plain gradient descent
recovers the parameter from a far-off start.
"""

import numpy as np

from bsdelab.drivers import entropic_driver
from bsdelab.engine import BsdeProblem, closed_form_oracle
from bsdelab.learning import (
    Dataset,
    DatasetRecord,
    TrainSchedule,
    fd_gradient_check,
    train,
)
from bsdelab.stochastic import brownian_model, make_time_grid, sample_brownian, simulate_forward

grid = make_time_grid(1.0, 25)
theta_true, theta_init = 1.5, 0.3

oracle_draw = sample_brownian(grid, 400_000, 1, seed=42)
w = oracle_draw.terminal_motion()[:, 0]
scales = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0]
records = tuple(
    DatasetRecord(
        terminal=(lambda cc: (lambda ens: cc * ens.states[:, -1, 0]))(c),
        observed=closed_form_oracle("entropic", c * w, theta=theta_true),
        label=f"scale-{c}",
    )
    for c in scales
)
dataset = Dataset(records=records, grid=grid, n_paths=8_000)

# sanity: the sensitivity gradient matches finite differences of re-solves
ens = simulate_forward(brownian_model(1), grid, sample_brownian(grid, 20_000, 1, seed=1))
problem = BsdeProblem(driver=entropic_driver(1.0),
                      terminal=lambda e: e.states[:, -1, 0], ensemble=ens)
check = fd_gradient_check(problem, coords=[0], h=1e-4)
print(f"gradient check: sensitivity {check.sensitivity[0]:+.5f} vs finite "
      f"difference {check.finite_difference[0]:+.5f} "
      f"(analytic dY0/dtheta = -T/2 = -0.5)")

schedule = TrainSchedule(learning_rate=0.4, max_iters=40, seed=42)
state, final = train(dataset, entropic_driver(theta_init), schedule)
print(f"training: theta {theta_init} -> {final.params[0]:.4f} "
      f"(target {theta_true}) in {state.iterations} iterations")
print("loss trajectory:",
      " ".join(f"{v:.2e}" for v in state.loss_history[:: max(1, state.iterations // 8)]))
