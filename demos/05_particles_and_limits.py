"""Interacting particles, their mean-field limit, and the fluctuation law.

Each particle drifts toward a blend of its own state and the crowd mean.
As the crowd grows, every particle converges to an independent copy of the
mean-field limit (propagation of chaos, rate 1/N in mean square), and the
sqrt(N)-scaled deviations settle to a Gaussian whose variance the limit
fluctuation system reproduces.
"""

import numpy as np
from scipy.integrate import solve_ivp

from bsdelab import meanfield as mf
from bsdelab.stochastic import TimeGrid, make_time_grid, sample_brownian, split_seed

grid = make_time_grid(1.0, 50)
a, c, sigma, m0, s0, u0_std = 0.4, -0.5, 0.4, 0.3, 0.3, 0.5
model = mf.linear_gaussian_model(a=a, c=c, sigma=sigma, m0=m0, s0=s0)

# The limit's feature flow is the fixed point of "run a large cloud with a
# frozen flow, read off its features". Each Euler step reads only the
# current node's features, so the interacting cloud is that fixed point:
# one pass with live features computes it exactly.
mkv = mf.solve_mckean_vlasov(model, 16384, grid, seed=4, solve_backward=False)
print(f"mean-field fixed point from one live pass of 16384 particles: "
      f"terminal mean {mkv.flow[-1].mean:+.4f} "
      f"(moment ODE gives {m0 * np.exp(a + c):+.4f})")

lln = mf.lln_experiment(model, [16, 64, 256, 1024], grid, n_trials=10, seed=7,
                        n_reference=16384)
total = lln.err_x + lln.err_y + lln.err_z
print("propagation of chaos, mean-square sup errors per N:")
for n, e in zip(lln.n_values, total):
    print(f"  N = {n:5d}: {e:.3e}")
print(f"log-log slope {lln.slope:+.3f} (mean-square rate ~ 1/N)")

clt = mf.clt_experiment(model, [256, 1024], grid, n_trials=40, seed=21,
                        n_reference=16384, u0_std=u0_std)

# analytic limit variance from the 3-state covariance ODE
drift = np.array([[c, 0, 0], [a, a + c, 0], [a, a, c]])
noise = np.array([sigma, 0.0, 0.0])
rhs = lambda t, p: (drift @ p.reshape(3, 3) + p.reshape(3, 3) @ drift.T
                    + np.outer(noise, noise)).ravel()
p0 = np.zeros((3, 3)); p0[0, 0] = s0 ** 2
ode = solve_ivp(rhs, (0, 1.0), p0.ravel(), rtol=1e-10, atol=1e-12)
v_star = np.exp(2 * c) * u0_std ** 2 + ode.y[:, -1].reshape(3, 3)[2, 2]
print(f"fluctuation variance at N = 1024: {clt.var_u[-1]:.4f} "
      f"(analytic limit {v_star:.4f})")


def u0(n, seed):
    draw = sample_brownian(TimeGrid(1.0, 1), n, 1, split_seed(seed, "u0"))
    return u0_std * draw.increments[:, 0, 0]


fl = mf.solve_fluctuation_system(
    mf.linear_gaussian_fluctuation_coefficients(a=a, c=c), mkv, u0,
    n_paths=16384, seed=77, n_worlds=64, include_sampling_noise=True,
)
print(f"limit fluctuation system variance: {np.var(fl.v[:, -1], ddof=1):.4f} "
      f"(two independent routes to the same Gaussian)")
