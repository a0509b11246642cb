"""The numeric parameter rule, once per parameter that goes through it:
a count is an integer, a real is finite, and a bool is neither."""

import re

import numpy as np
import pytest

from bsdelab import _check
from bsdelab.drivers import TruncatedDriver, zero_driver
from bsdelab.engine import (BsdeProblem, RegressionBasis, SmoothFunction, SolveOptions,
                            check_convexity_and_jensen, closed_form_oracle)
from bsdelab.errors import InvalidArchitectureError
from bsdelab.learning import Dataset, DatasetRecord, fd_gradient_check
from bsdelab.meanfield import (clt_experiment, linear_gaussian_fluctuation_coefficients,
                               linear_gaussian_model, lln_experiment, simulate_particles,
                               solve_fluctuation_system, solve_mckean_vlasov)
from bsdelab.merton import (AllocationObservation, MarketParams, calibrate_theta, solve_hjb,
                            verify_ambiguity_properties)
from bsdelab.nets import NetLayout, estimate_growth_and_lipschitz
from bsdelab.stochastic import (TimeGrid, brownian_model, make_time_grid, sample_brownian,
                                simulate_forward)

GRID = make_time_grid(1.0, 2)
MARKET = dict(mu=0.08, r=0.02, sigma=0.2, gamma=0.5, horizon=1.0)
PARAMS = MarketParams(**MARKET)
OBS = [AllocationObservation(0.0, 1.0, 0.5)]
MODEL = linear_gaussian_model()


def _problem():
    ens = simulate_forward(brownian_model(1), GRID, sample_brownian(GRID, 16, 1, 0))
    return BsdeProblem(driver=zero_driver(), terminal=lambda e: e.states[:, -1, 0],
                       ensemble=ens)


def _final(ens):
    return ens.states[:, -1, 0]


# (name in the error, call with the value, a value out of its range or None)
COUNTS = [
    ("degree", lambda v: RegressionBasis(degree=v), -1),
    ("inner_picard_iters", lambda v: SolveOptions(inner_picard_iters=v), 0),
    ("state_dim", lambda v: NetLayout(state_dim=v), 0),
    ("z_dim", lambda v: NetLayout(z_dim=v), 0),
    ("hidden widths", lambda v: NetLayout(hidden=(8, v)), 0),
    ("n2_hidden widths", lambda v: NetLayout(n2_hidden=(v,)), 0),
    ("n_steps", lambda v: TimeGrid(1.0, v), 0),
    ("n_steps", lambda v: make_time_grid(1.0, v), 0),
    ("n_paths", lambda v: sample_brownian(GRID, v, 1, 0), 0),
    ("dim", lambda v: sample_brownian(GRID, 8, v, 0), 0),
    ("n_paths", lambda v: Dataset(records=(DatasetRecord(_final, 0.0),), grid=GRID,
                                  n_paths=v), 0),
    ("n_particles", lambda v: simulate_particles(MODEL, v, GRID, 0), 1),
    ("n_cloud", lambda v: solve_mckean_vlasov(MODEL, v, GRID, 0), 99),
    ("n_list", lambda v: lln_experiment(MODEL, [16, v], GRID, 1, 0), 0),
    ("n_list", lambda v: clt_experiment(MODEL, [v, 16], GRID, 1, 0), 0),
    ("n_worlds", lambda v: solve_fluctuation_system(
        linear_gaussian_fluctuation_coefficients(), solve_mckean_vlasov(MODEL, 100, GRID, 0),
        lambda n, seed: np.zeros(n), 64, 0, n_worlds=v), 0),
]
REALS = [
    ("z_clip", lambda v: SolveOptions(z_clip=v), 0.0),
    ("k_level", lambda v: TruncatedDriver(zero_driver(), v), 0.0),
    ("interaction_bound", lambda v: NetLayout(interaction_bound=v), 0.0),
    ("radius", lambda v: estimate_growth_and_lipschitz(zero_driver(), radius=v,
                                                       state_dim=1, z_dim=1), 0.0),
    ("horizon", lambda v: TimeGrid(v, 2), 0.0),
    ("horizon", lambda v: make_time_grid(v, 2), -1.0),
    ("h", lambda v: fd_gradient_check(_problem(), h=v), 0.0),
    ("lam", lambda v: check_convexity_and_jensen(_problem(), _final, _final, v,
                                                 SmoothFunction.square()), 1.5),
    ("theta", lambda v: closed_form_oracle("entropic", [1.0], theta=v), 0.0),
    ("observation 'a'", lambda v: Dataset(records=(DatasetRecord(_final, v, "a"),), grid=GRID),
     None),
    ("mu", lambda v: MarketParams(**dict(MARKET, mu=v)), 0.02),
    ("r", lambda v: MarketParams(**dict(MARKET, r=v)), None),
    ("sigma", lambda v: MarketParams(**dict(MARKET, sigma=v)), 0.0),
    ("gamma", lambda v: MarketParams(**dict(MARKET, gamma=v)), 1.0),
    ("gamma", lambda v: MarketParams(**dict(MARKET, gamma=v)), 0.0),
    ("horizon", lambda v: MarketParams(**dict(MARKET, horizon=v)), 0.0),
    ("theta", lambda v: solve_hjb(PARAMS, v), -0.1),
    ("theta_list", lambda v: verify_ambiguity_properties(PARAMS, [0.0, v]), -1.0),
    ("wealth", lambda v: AllocationObservation(0.0, v, 1.0), 0.0),
    ("theta_lo", lambda v: calibrate_theta(PARAMS, OBS, theta_lo=v), None),
    ("theta_hi", lambda v: calibrate_theta(PARAMS, OBS, theta_hi=v), 0.0),
    ("tol", lambda v: calibrate_theta(PARAMS, OBS, tol=v), 0.0),
]
LAYOUT = {"state_dim", "z_dim", "hidden widths", "n2_hidden widths", "interaction_bound"}
CASES = [pytest.param(name, call, value, id=f"{name}-{label}")
         for name, call, out_of_range in COUNTS + REALS
         for label, value in [("bool", True), ("nan", np.nan), ("inf", np.inf),
                              ("-inf", -np.inf), ("str", "1"), ("range", out_of_range)]
         if value is not None]


@pytest.mark.parametrize("name, call, value", CASES)
def test_a_value_outside_the_rule_is_rejected_by_name(name, call, value):
    error = InvalidArchitectureError if name in LAYOUT else ValueError
    with pytest.raises(error, match=f"^{re.escape(name)} "):
        call(value)


def test_numpy_scalars_pass_as_python_numbers():
    assert _check.count("n", np.int64(3), 1) == 3
    assert type(_check.count("n", np.int64(3), 1)) is int
    assert _check.real("x", np.float32(0.5), above=0) == 0.5
    assert type(_check.real("x", np.float32(0.5))) is float


def test_the_error_names_the_rule_and_the_value():
    with pytest.raises(ValueError, match=re.escape("n must be integers >= 1, got 2.5")):
        _check.count("n", 2.5, 1)
    with pytest.raises(ValueError, match=re.escape("lam must be finite reals in [0, 1], got nan")):
        _check.real("lam", float("nan"), at_least=0, at_most=1)
    with pytest.raises(ValueError, match=re.escape("h must be finite reals in (0, inf), got 0")):
        _check.real("h", 0, above=0)
    with pytest.raises(ValueError, match="x must be finite reals"):
        _check.real("x", 10 ** 400)   # an int too large for a float
