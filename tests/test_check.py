"""The numeric parameter rule, once per parameter that goes through it:
a count is an integer, a real is finite, and a bool is neither. The
per-path shape rule, once per site that applies it: a per-path value
broadcasts to its shape, and is never reshaped. And the finite rule, once
per array a caller hands the library: a non-finite entry is rejected with
the array's name and the entry's index."""

import re
from dataclasses import replace

import numpy as np
import pytest

from bsdelab import _check
from bsdelab.drivers import (AnalyticDriver, TruncatedDriver, entropic_driver, linear_z_driver,
                             quadratic_z_driver, zero_driver)
from bsdelab.engine import (BsdeProblem, RegressionBasis, SmoothFunction, SolveOptions,
                            check_comparison, check_convexity_and_jensen, closed_form_oracle,
                            dual_lower_bound, solve_bsde_lsmc, solve_truncated)
from bsdelab.errors import InvalidArchitectureError
from bsdelab.learning import Dataset, DatasetRecord, fd_gradient_check
from bsdelab.meanfield import (clt_experiment, compute_features,
                               linear_gaussian_fluctuation_coefficients,
                               linear_gaussian_model, lln_experiment, simulate_particles,
                               solve_fluctuation_system, solve_mckean_vlasov)
from bsdelab.merton import (AllocationObservation, MarketParams, calibrate_theta, solve_hjb,
                            verify_ambiguity_properties)
from bsdelab.nets import NetLayout, build_driver, estimate_growth_and_lipschitz
from bsdelab.stochastic import (ForwardModel, TimeGrid, brownian_model, make_time_grid,
                                sample_brownian, simulate_forward, wasserstein2_1d)

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
    ("n_trials", lambda v: lln_experiment(MODEL, [16, 32], GRID, v, 0), 0),
    ("n_trials", lambda v: clt_experiment(MODEL, [16, 32], GRID, v, 0), 0),
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
    ("fixed_pi", lambda v: solve_hjb(PARAMS, 0.0, fixed_pi=v), None),
    ("theta_list", lambda v: verify_ambiguity_properties(PARAMS, [0.0, v]), -1.0),
    ("time t", lambda v: AllocationObservation(v, 1.0, 1.0), None),
    ("wealth", lambda v: AllocationObservation(0.0, v, 1.0), 0.0),
    ("allocation", lambda v: AllocationObservation(0.0, 1.0, v), None),
    ("theta_lo", lambda v: calibrate_theta(PARAMS, OBS, theta_lo=v), -1.0),
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


# ---------------------------------------------------------------------------
# the per-path shape rule
# ---------------------------------------------------------------------------

M = 16   # paths, particles or fluctuation paths at every site below


def _forward(which, noise_dim=1):
    """Simulate a one-dimensional state whose drift or diffusion is `which`."""
    def run(values):
        parts = {"drift": lambda t, x: 0.0, "diffusion": lambda t, x: 1.0}
        parts[which] = lambda t, x: values
        model = ForwardModel(**parts, x0=np.zeros(1), state_dim=1)
        simulate_forward(model, GRID, sample_brownian(GRID, M, noise_dim, 0))
    return run


def _particles(which):
    def run(values):
        simulate_particles(replace(MODEL, **{which: lambda *args: values}), M, GRID, 0)
    return run


def _fluctuation(which):
    def run(values):
        coeffs = replace(linear_gaussian_fluctuation_coefficients(), **{which: lambda *a: values})
        solve_fluctuation_system(coeffs, solve_mckean_vlasov(MODEL, 100, GRID, 0),
                                 lambda n, seed: np.zeros(n), M, 0)
    return run


def _u0(values):
    solve_fluctuation_system(linear_gaussian_fluctuation_coefficients(),
                             solve_mckean_vlasov(MODEL, 100, GRID, 0), lambda n, seed: values,
                             M, 0)


def _increments(values):
    simulate_particles(MODEL, M, GRID, 0, increments=values)


def _initial(n_sampled, run_model):
    """run_model(model) for a model whose initial sampler gives the values
    when it draws n_sampled particles, and its own draws otherwise."""
    def run(values):
        sampler = lambda n, seed: values if n == n_sampled else MODEL.initial_sampler(n, seed)
        run_model(replace(MODEL, initial_sampler=sampler))
    return run


def _fluctuation_worlds(model):
    """Two worlds of M paths with their one-particle ghosts."""
    mean_field = replace(solve_mckean_vlasov(MODEL, 100, GRID, 0), model=model)
    solve_fluctuation_system(linear_gaussian_fluctuation_coefficients(), mean_field,
                             lambda n, seed: np.zeros(n), 2 * M, 0, n_worlds=2,
                             include_sampling_noise=True)


# (site, n_sampled, run_model): every initial sample of a cloud
INITIAL = [
    ("particle", M, lambda model: simulate_particles(model, M, GRID, 0)),
    ("fixed point", 100, lambda model: solve_mckean_vlasov(model, 100, GRID, 0)),
    ("lln trial", 2 * M, lambda model: lln_experiment(model, [M, 2 * M], GRID, 1, 0,
                                                      n_reference=128)),
    ("clt trial", 2 * M, lambda model: clt_experiment(model, [M, 2 * M], GRID, 1, 0,
                                                      n_reference=128)),
    ("fluctuation world", M, _fluctuation_worlds),
    ("fluctuation ghost", 1, _fluctuation_worlds),
]


def _analytic(which):
    """value and linearize of an analytic driver with one parameter, at M points."""
    def run(values):
        outputs = {"value": 0.0, "dy": 0.0, "dz": 0.0, "dtheta": 0.0, which: values}
        driver = AnalyticDriver(
            value_fn=lambda p, t, x, y, z: outputs["value"],
            grad_fn=lambda p, t, x, y, z: (outputs["dy"], outputs["dz"], outputs["dtheta"]),
            params=[0.0])
        driver.value(0.0, np.zeros((M, 1)), np.zeros(M), np.zeros((M, 1)))
        driver.linearize(0.0, np.zeros((M, 1)), np.zeros(M), np.zeros((M, 1)))
    return run


def _driver_input(which):
    def run(values):
        inputs = {"t": 0.0, "x": np.zeros((M, 1)), "y": 0.0, "z": 0.0, which: values}
        zero_driver().value(**inputs)
        zero_driver().linearize(**inputs)
    return run


def _terminal(values):
    ens = simulate_forward(brownian_model(1), GRID, sample_brownian(GRID, M, 1, 0))
    solve_bsde_lsmc(BsdeProblem(driver=zero_driver(), terminal=lambda e: values, ensemble=ens))


# (site, run(values), the name in the error, the shape the values broadcast
# to, an accepted shape, a rejected shape)
PER_PATH = [
    ("forward drift", _forward("drift"), "drift", (M, 1), (M, 1), (M,)),
    ("forward diffusion", _forward("diffusion"), "diffusion", (M, 1, 1), (1, 1), (M,)),
    ("forward diffusion over 2-d noise", _forward("diffusion", 2), "diffusion", (M, 1, 2),
     (1, 2), (M, 2)),
    ("particle drift", _particles("drift"), "drift", (M,), (1,), (M, 1)),
    ("particle diffusion", _particles("diffusion"), "diffusion", (M,), (), (M, 1)),
    ("particle terminal", _particles("terminal"), "terminal", (M,), (), (M, 1)),
    ("particle driver", _particles("driver"), "driver", (M,), (1,), (M, 1)),
    ("particle initial_states", lambda v: simulate_particles(MODEL, M, GRID, 0,
                                                             initial_states=v),
     "initial_sampler", (M,), (), (M, 1)),
    *[(f"{site} initial_sampler", _initial(n, run), "initial_sampler", (n,), (1,), (n, 1))
      for site, n, run in INITIAL],
    ("particle increments", _increments, "increments", (M, 2, 1), (1, 2, 1), (M, 2)),
    ("particle increments rows", _increments, "increments", (M, 2, 1), (M, 2, 1),
     (M // 2, 2, 1)),
    ("fluctuation u0_sampler", _u0, "u0_sampler", (M,), (1,), (M, 1)),
    *[(f"fluctuation {name}", _fluctuation(name), name, (M,), (1,), (M, 1))
      for name in ("dx_b", "dx_sigma", "dx_f", "dx_g", "dy_f", "dz_f")],
    *[(f"fluctuation {name}", _fluctuation(name), name, (M, 1), (M, 1), (M,))
      for name in ("dmu_b", "dmu_sigma", "dmu_f", "dmu_g")],
    ("analytic value", _analytic("value"), "value_fn", (M,), (1,), (M, 1)),
    ("analytic dy", _analytic("dy"), "grad_fn dy", (M,), (), (M, 1)),
    ("analytic dz", _analytic("dz"), "grad_fn dz", (M, 1), (1,), (M,)),
    ("analytic dtheta", _analytic("dtheta"), "grad_fn dtheta", (M, 1), (M, 1), (M,)),
    ("driver t", _driver_input("t"), "driver t", (M,), (1,), (M, 1)),
    ("driver y", _driver_input("y"), "driver y", (M,), (M,), (M, 1)),
    ("driver z", _driver_input("z"), "driver z", (M, 1), (1, 1), (M + 1, 1)),
    ("driver x", _driver_input("x"), "driver x", (M, 1), (1,), (M,)),
    ("engine terminal", _terminal, "terminal", (M,), (), (M, 1)),
    ("cloud features", lambda v: compute_features(v, ("mean",)), "cloud", (M,), (), (M, 1)),
    ("oracle samples", lambda v: closed_form_oracle("zero", v), "xi_samples", (M,), (M,),
     (M, 1)),
    ("wasserstein samples", lambda v: wasserstein2_1d(v, np.zeros(M)), "samples_a", (M,),
     (M,), (M, 1)),
]


@pytest.mark.parametrize("run, name, shape, accepted, rejected",
                         [pytest.param(*row[1:], id=row[0]) for row in PER_PATH])
def test_a_per_path_value_broadcasts_or_is_rejected_with_both_shapes(run, name, shape,
                                                                       accepted, rejected):
    run(np.full(accepted, 0.5))
    message = f"{name} got shape {rejected}: per-path values broadcast to shape {shape}, not"
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        run(np.full(rejected, 0.5))


def test_the_shape_rule_never_reshapes():
    column = np.arange(3.0)[:, None]
    assert _check.per_path("v", column, (3, 2)) is column
    assert _check.per_path("v", 2, (3,)).shape == ()
    assert _check.per_path("v", [1, 2], (2,)).dtype == np.float64
    for bad in [(3,), (1, 3, 1), (2, 1)]:
        with pytest.raises(ValueError, match=re.escape(f"v got shape {bad}")):
            _check.per_path("v", np.zeros(bad), (3, 1))


def test_a_constant_terminal_solves_as_that_constant_on_every_path():
    ens = simulate_forward(brownian_model(1), GRID, sample_brownian(GRID, 64, 1, 0))
    solve = lambda terminal: solve_bsde_lsmc(
        BsdeProblem(driver=zero_driver(), terminal=terminal, ensemble=ens))
    const, per_path = solve(lambda e: 0.7), solve(lambda e: np.full(e.n_paths, 0.7))
    assert np.all(const.y[:, -1] == 0.7)
    assert const.y0 == per_path.y0
    np.testing.assert_array_equal(const.y, per_path.y)
    # The regression projects the constant with roundoff only.
    assert const.y0 == pytest.approx(0.7, abs=1e-14)


# ---------------------------------------------------------------------------
# the finite rule
# ---------------------------------------------------------------------------

NET = build_driver("Free", NetLayout(hidden=(4,)))


def _driver_call(driver, which):
    """value and linearize of driver at M points, with input `which` given."""
    def run(values):
        inputs = {"t": np.zeros(M), "x": np.zeros((M, 1)), "y": np.zeros(M),
                  "z": np.zeros((M, 1)), which: values}
        driver.value(**inputs)
        driver.linearize(**inputs)
    return run


def _claim(solve):
    """solve(problem, terminal) on M paths of a convex, y-free driver."""
    ens = simulate_forward(brownian_model(1), GRID, sample_brownian(GRID, M, 1, 0))
    problem = BsdeProblem(driver=quadratic_z_driver(0.5), terminal=None, ensemble=ens)
    return lambda values: solve(problem, lambda e: values)


def _constant_params(values):
    return AnalyticDriver(value_fn=lambda p, t, x, y, z: 0.0,
                          grad_fn=lambda p, t, x, y, z: (0.0, 0.0, 0.0), params=values)


# (site, run(values), the name in the error, finite values of an accepted shape)
FINITE = [
    *[(f"{kind} driver {name}", _driver_call(driver, name), f"driver {name}", shape)
      for kind, driver in [("analytic", entropic_driver(0.5)), ("net", NET)]
      for name, shape in [("t", (M,)), ("x", (M, 1)), ("y", (M,)), ("z", (M, 1))]],
    ("net theta", NET.with_params, "theta", (NET.n_params,)),
    ("analytic params", _constant_params, "params", (3,)),
    ("analytic with_params", entropic_driver(0.5).with_params, "params", (3,)),
    ("linear_z_driver b", linear_z_driver, "b", (3,)),
    ("forward x0", lambda v: ForwardModel(lambda t, x: 0.0, lambda t, x: 1.0, v, 3), "x0",
     (3,)),
    ("engine claim: solve_bsde_lsmc",
     _claim(lambda p, xi: solve_bsde_lsmc(replace(p, terminal=xi))), "terminal", (M,)),
    ("engine claim: check_comparison",
     _claim(lambda p, xi: check_comparison(p, xi, lambda e: -1.0)), "terminal", (M,)),
    ("engine claim: check_convexity_and_jensen",
     _claim(lambda p, xi: check_convexity_and_jensen(p, xi, _final, 0.5,
                                                     SmoothFunction.square())),
     "terminal", (M,)),
    ("engine claim: solve_truncated",
     _claim(lambda p, xi: solve_truncated(replace(p, terminal=xi), 2.0)), "terminal", (M,)),
    ("engine claim: dual_lower_bound",
     _claim(lambda p, xi: dual_lower_bound(replace(p, terminal=xi), [[0.0], [0.5]])),
     "terminal", (M,)),
    ("particle initial_states", lambda v: simulate_particles(MODEL, M, GRID, 0, initial_states=v),
     "initial_states", (M,)),
    *[(f"{site} initial_sampler", _initial(n, run), "initial_states", (n,))
      for site, n, run in INITIAL if n > 1],
    ("particle increments", _increments, "increments", (M, 2, 1)),
    ("fluctuation u0_sampler", _u0, "u0", (M,)),
    ("particle claim: clt_experiment",
     lambda v: clt_experiment(replace(MODEL, terminal=lambda x, feats: v[:x.size]), [M, 2 * M],
                              GRID, 1, 0, n_reference=128), "terminal", (128,)),
    ("oracle xi_samples", lambda v: closed_form_oracle("zero", v), "xi_samples", (M,)),
    ("oracle b", lambda v: closed_form_oracle("linear", np.zeros(M), 1.0, b=v,
                                              terminal_motion=np.zeros((M, 3))), "b", (3,)),
    ("oracle terminal_motion", lambda v: closed_form_oracle("linear", np.zeros(M), 1.0, b=0.5,
                                                            terminal_motion=v),
     "terminal_motion", (M, 1)),
    ("dual control_grid", lambda v: _claim(lambda p, xi: dual_lower_bound(p, v))(0.0),
     "control_grid", (3, 1)),
    ("wasserstein samples_a", lambda v: wasserstein2_1d(v, np.zeros(M)), "samples_a", (M,)),
    ("wasserstein samples_b", lambda v: wasserstein2_1d(np.zeros(M), v), "samples_b", (M,)),
]


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("run, name, shape", [pytest.param(*row[1:], id=row[0])
                                              for row in FINITE])
def test_a_non_finite_entry_is_rejected_with_the_name_and_its_index(run, name, shape, bad):
    values = np.zeros(shape)
    values.flat[1] = bad
    values.flat[-1] = -np.inf   # a later bad entry: the first in C order is named
    index = tuple(int(i) for i in np.unravel_index(1, shape))
    message = f"{name} holds non-finite values: {bad!r} at index {index}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        run(values)


def test_a_ghost_names_its_non_finite_initial_sample():
    with pytest.raises(ValueError, match=re.escape(
            "initial_states holds non-finite values: nan at index (0,)")):
        _initial(1, _fluctuation_worlds)(np.full(1, np.nan))


def test_the_dual_bound_names_a_nan_terminal():
    ens = simulate_forward(brownian_model(1), GRID, sample_brownian(GRID, 64, 1, 0))
    xi = np.zeros(64)
    xi[5] = np.nan
    problem = BsdeProblem(driver=quadratic_z_driver(1.0), terminal=lambda e: xi, ensemble=ens)
    with pytest.raises(ValueError, match=r"terminal holds non-finite values: nan at index \(5,\)"):
        dual_lower_bound(problem, np.linspace(-1.0, 1.0, 5)[:, None])


def test_the_finite_rule_returns_float64_and_names_a_scalar():
    assert _check.finite("v", [1, 2]).dtype == np.float64
    row = np.arange(3.0)
    assert _check.finite("v", row) is row
    with pytest.raises(ValueError, match=re.escape("v holds non-finite values: -inf at index ()")):
        _check.finite("v", -np.inf)
