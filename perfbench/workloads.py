"""The five benchmark workloads.

Each workload has three parts:

* ``setup(seed, smoke)`` builds every input that is not part of the timed
  calls (reference observations, nets, market data) from the workload seed;
* ``measured(inputs, hooks)`` makes the library calls that are timed, one
  after another, and returns their outputs. ``hooks`` wraps the objects the
  benchmark passes in, so a traced run can see into them;
* ``checks(inputs, out)`` compares the outputs with the acceptance
  tolerances and returns ``(name, passed, detail)`` triples, and
  ``key_outputs(out)`` lists the arrays whose digest a rerun must match.

Library calls go through module attributes (``engine.solve_bsde_lsmc``)
so that the tracer can intercept them. ``smoke=True`` shrinks every size
so the benchmark's own tests run in seconds; the tolerances are meant for
the full sizes only.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from bsdelab import drivers, engine, learning, meanfield, merton, nets, stochastic


def derive_seed(seed: int, label: str) -> int:
    """A 63-bit library seed derived from the workload seed and a label."""
    digest = hashlib.blake2b(f"perfbench:{seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def terminal_w(ens):
    return ens.states[:, -1, 0]


def scaled_terminal(c: float):
    return lambda ens: c * ens.states[:, -1, 0]


def _check(name: str, passed, detail: str):
    return name, bool(passed), detail


# ---------------------------------------------------------------------------
# oracle_solve: criterion 1 on one shared 100k x 50 ensemble
# ---------------------------------------------------------------------------

def oracle_setup(seed: int, smoke: bool) -> dict:
    return {
        "grid": stochastic.make_time_grid(1.0, 10 if smoke else 50),
        "n_paths": 2_000 if smoke else 100_000,
        "bundle_seed": derive_seed(seed, "oracle-bundle"),
    }


def oracle_measured(inp: dict, hooks) -> dict:
    grid = inp["grid"]
    basis = hooks.basis(engine.RegressionBasis())
    bundle = stochastic.sample_brownian(grid, inp["n_paths"], 1, inp["bundle_seed"])
    ens = stochastic.simulate_forward(stochastic.brownian_model(1), grid, bundle)
    solutions = {}
    for name, driver in (("zero", drivers.zero_driver()),
                         ("linear", drivers.linear_z_driver(0.3)),
                         ("entropic", drivers.entropic_driver(1.0))):
        problem = engine.BsdeProblem(driver=hooks.driver(driver), terminal=terminal_w,
                                     ensemble=ens)
        solutions[name] = _y0_and_error(engine.solve_bsde_lsmc(problem, basis))
    return {"y0": solutions, "w_t": ens.states[:, -1, 0]}


def _y0_and_error(solution):
    # Keeps no reference to the solution's path arrays, so one solve's
    # arrays are freed before the next solve allocates its own.
    return solution.y0, solution.y0_standard_error


def _near(name: str, value: float, se: float, target: float, tol: float):
    # Criterion 1 fixes one seed; the benchmark takes any, so a tolerance
    # against an exact target is at least four Monte Carlo standard errors.
    tol = max(tol, 4.0 * se)
    return _check(name, abs(value - target) <= tol, f"{value:+.5f} ({target:+.3f} +- {tol:.4f})")


def oracle_checks(inp: dict, out: dict) -> list:
    (zero, zero_se), (lin, lin_se), (ent, ent_se) = (
        out["y0"][k] for k in ("zero", "linear", "entropic"))
    w = out["w_t"]
    mc_ent = engine.closed_form_oracle("entropic", w, theta=1.0)
    mc_lin = engine.closed_form_oracle("linear", w, horizon=1.0, b=0.3, terminal_motion=w)
    return [
        _near("zero_y0", zero, zero_se, 0.0, 0.02),
        _near("linear_y0", lin, lin_se, 0.3, 0.02 * 0.3),
        _near("entropic_y0", ent, ent_se, -0.5, 0.02 * 0.5),
        # Oracles on the same paths share the noise, so these keep the
        # criterion's tolerance on every seed.
        _check("linear_vs_mc", abs(lin - mc_lin) <= 0.02 * 0.3,
               f"{lin:+.5f} vs mc oracle {mc_lin:+.5f} (+- 0.006)"),
        _check("entropic_vs_mc", abs(ent - mc_ent) <= 0.02 * 0.5,
               f"{ent:+.5f} vs mc oracle {mc_ent:+.5f} (+- 0.01)"),
    ]


def oracle_key_outputs(out: dict) -> list:
    return [np.array([out["y0"][k] for k in ("zero", "linear", "entropic")])]


# ---------------------------------------------------------------------------
# train_entropic: the criterion-10 training run, ten iterations
# ---------------------------------------------------------------------------

THETA_TRUE = 1.5
SCALES = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0)


def train_setup(seed: int, smoke: bool) -> dict:
    grid = stochastic.make_time_grid(1.0, 5 if smoke else 25)
    draw = stochastic.sample_brownian(grid, 20_000 if smoke else 400_000, 1,
                                      derive_seed(seed, "train-oracle"))
    w = draw.terminal_motion()[:, 0]
    records = tuple(
        learning.DatasetRecord(
            terminal=scaled_terminal(c),
            observed=engine.closed_form_oracle("entropic", c * w, theta=THETA_TRUE),
            label=f"scale-{c}",
        )
        for c in SCALES[:2 if smoke else None]
    )
    dataset = learning.Dataset(records=records, grid=grid, n_paths=500 if smoke else 4_000)
    schedule = learning.TrainSchedule(learning_rate=0.4, max_iters=2 if smoke else 10,
                                      seed=derive_seed(seed, "train-schedule"))
    return {"dataset": dataset, "schedule": schedule}


def train_measured(inp: dict, hooks) -> dict:
    state, final = learning.train(inp["dataset"], hooks.driver(drivers.entropic_driver(0.3)),
                                  inp["schedule"], basis=hooks.basis(engine.RegressionBasis()))
    return {"theta": float(final.params[0]), "loss_history": state.loss_history}


def _train_loss(inp: dict, theta: float) -> float:
    dataset, schedule = inp["dataset"], inp["schedule"]
    # The bundle learning.train draws for this schedule.
    bundle = stochastic.sample_brownian(dataset.grid, dataset.n_paths, 1,
                                        stochastic.split_seed(schedule.seed, "train-bundle"))
    ens = stochastic.simulate_forward(dataset.model, dataset.grid, bundle)
    driver = drivers.entropic_driver(theta)
    residuals = [engine.solve_bsde_lsmc(engine.BsdeProblem(driver=driver, terminal=rec.terminal,
                                                           ensemble=ens)).y0 - rec.observed
                 for rec in dataset.records]
    return float(np.mean(np.square(residuals)))


def train_checks(inp: dict, out: dict) -> list:
    theta = out["theta"]
    h = 1e-3
    lo, mid, hi = (_train_loss(inp, theta + d) for d in (-h, 0.0, h))
    newton = -((hi - lo) / (2.0 * h)) / ((hi - 2.0 * mid + lo) / (h * h))
    # Criterion 10's 5 % recovery holds on its own seed only: with 4 000
    # paths the fitted theta ranged over 1.37-1.81 on 28 other seeds. So the
    # seed-independent check is that training stopped at the minimiser of
    # the loss on its own paths, located by a Newton step from finite
    # differences of full re-solves; the distance to the truth only guards
    # against gross failure.
    return [
        _check("theta_at_loss_minimum", abs(newton) <= 0.01 * abs(theta),
               f"Newton step to the minimiser {newton:+.2e} (|.| <= 1% of theta)"),
        _check("theta_near_truth", abs(theta - THETA_TRUE) <= 0.5 * THETA_TRUE,
               f"theta {theta:.5f} (1.5 +- 50%; within 5%: "
               f"{abs(theta - THETA_TRUE) <= 0.05 * THETA_TRUE})"),
    ]


def train_key_outputs(out: dict) -> list:
    return [np.array([out["theta"]]), out["loss_history"]]


# ---------------------------------------------------------------------------
# net_gradient: one exact gradient for a Free 8x8 net (P = 121)
# ---------------------------------------------------------------------------

NET_COORD = 3          # first-layer weight from the z input into hidden unit 0
NET_H = 1e-4           # criterion-3 finite-difference step
NET_OPTS = engine.SolveOptions(z_clip=None)


def net_setup(seed: int, smoke: bool) -> dict:
    grid = stochastic.make_time_grid(1.0, 5 if smoke else 25)
    net = nets.build_driver("Free", nets.NetLayout(hidden=(8, 8)),
                            init_seed=derive_seed(seed, "net-init"))
    obs = np.random.Generator(np.random.Philox(key=derive_seed(seed, "net-obs")))
    records = tuple(
        learning.DatasetRecord(terminal=scaled_terminal(c), observed=float(obs.uniform(-0.5, 0.5)),
                               label=f"scale-{c}")
        for c in (0.5, 1.0)
    )
    n_paths = 1_000 if smoke else 10_000
    dataset = learning.Dataset(records=records, grid=grid, n_paths=n_paths)
    bundle = stochastic.sample_brownian(grid, n_paths, 1, derive_seed(seed, "net-bundle"))
    return {"dataset": dataset, "net": net, "bundle": bundle}


def net_measured(inp: dict, hooks) -> dict:
    report = learning.loss_and_gradient(inp["dataset"], hooks.driver(inp["net"]),
                                        basis=hooks.basis(engine.RegressionBasis()),
                                        opts=NET_OPTS, bundle=inp["bundle"])
    return {"loss": report.loss, "gradient": report.gradient, "y0": report.per_record_y0}


def _net_loss(inp: dict, net) -> float:
    dataset = inp["dataset"]
    ens = stochastic.simulate_forward(dataset.model, dataset.grid, inp["bundle"])
    residuals = [
        engine.solve_bsde_lsmc(engine.BsdeProblem(driver=net, terminal=rec.terminal,
                                                  ensemble=ens), opts=NET_OPTS).y0 - rec.observed
        for rec in dataset.records
    ]
    return float(np.mean(np.square(residuals)))


def net_checks(inp: dict, out: dict) -> list:
    net = inp["net"]
    bump = np.zeros(net.n_params)
    bump[NET_COORD] = NET_H
    fd = (_net_loss(inp, net.with_params(net.params + bump))
          - _net_loss(inp, net.with_params(net.params - bump))) / (2.0 * NET_H)
    grad = out["gradient"]
    exact = grad[NET_COORD]
    # Criterion-3 rule: error relative to the larger of the two values, with
    # a floor at 1e-3 of the gradient's overall scale.
    scale = max(abs(exact), abs(fd), 1e-3 * max(np.max(np.abs(grad)), abs(fd), 1e-10))
    rel = abs(exact - fd) / scale
    return [_check("fd_gradient", rel <= 1e-3,
                   f"coord {NET_COORD}: exact {exact:+.6e} fd {fd:+.6e} rel {rel:.2e} (<= 1e-3)")]


def net_key_outputs(out: dict) -> list:
    return [np.array([out["loss"]]), out["gradient"], out["y0"]]


# ---------------------------------------------------------------------------
# meanfield_clt: criterion 8 plus one single-world fluctuation solve
# ---------------------------------------------------------------------------

CLT = dict(a=0.4, c=-0.5, sigma=0.4, m0=0.3, s0=0.3, u0_std=0.5)


def _clt_variance() -> float:
    """Terminal variance of the fluctuation U from the covariance ODE."""
    from scipy.integrate import solve_ivp

    a, c, sigma, s0 = CLT["a"], CLT["c"], CLT["sigma"], CLT["s0"]
    drift = np.array([[c, 0, 0], [a, a + c, 0], [a, a, c]])
    noise = np.array([sigma, 0.0, 0.0])

    def rhs(t, p):
        cov = p.reshape(3, 3)
        return (drift @ cov + cov @ drift.T + np.outer(noise, noise)).ravel()

    p0 = np.zeros((3, 3))
    p0[0, 0] = s0 ** 2
    ode = solve_ivp(rhs, (0.0, 1.0), p0.ravel(), rtol=1e-10, atol=1e-12)
    return float(np.exp(2 * c) * CLT["u0_std"] ** 2 + ode.y[:, -1].reshape(3, 3)[2, 2])


def u0_sampler(std: float) -> Callable:
    def sampler(n, seed):
        draw = stochastic.sample_brownian(stochastic.TimeGrid(1.0, 1), n, 1, seed)
        return std * draw.increments[:, 0, 0]
    return sampler


def clt_setup(seed: int, smoke: bool) -> dict:
    return {
        "grid": stochastic.make_time_grid(1.0, 10 if smoke else 50),
        "model": meanfield.linear_gaussian_model(a=CLT["a"], c=CLT["c"], sigma=CLT["sigma"],
                                                 m0=CLT["m0"], s0=CLT["s0"]),
        "coeffs": meanfield.linear_gaussian_fluctuation_coefficients(a=CLT["a"], c=CLT["c"]),
        "n_list": [64, 128] if smoke else [256, 1024],
        "n_trials": 4 if smoke else 40,
        "n_reference": 1_024 if smoke else 32_768,
        "n_cloud": 1_024 if smoke else 16_384,
        "n_fluct": 256 if smoke else 4_096,
        "seeds": {k: derive_seed(seed, k) for k in ("clt", "mkv", "fluct")},
    }


def clt_measured(inp: dict, hooks) -> dict:
    basis = hooks.basis(engine.RegressionBasis())
    grid, model, seeds = inp["grid"], inp["model"], inp["seeds"]
    clt = meanfield.clt_experiment(model, inp["n_list"], grid, n_trials=inp["n_trials"],
                                   seed=seeds["clt"], basis=basis,
                                   n_reference=inp["n_reference"], u0_std=CLT["u0_std"])
    mkv = meanfield.solve_mckean_vlasov(model, inp["n_cloud"], grid, seed=seeds["mkv"],
                                        basis=basis, solve_backward=False)
    fluct = meanfield.solve_fluctuation_system(hooks.coefficients(inp["coeffs"]), mkv,
                                               u0_sampler(CLT["u0_std"]), n_paths=inp["n_fluct"],
                                               seed=seeds["fluct"], basis=basis)
    return {"clt": clt, "mkv": mkv, "fluct": fluct}


def clt_checks(inp: dict, out: dict) -> list:
    v_star = _clt_variance()
    var_u = float(out["clt"].var_u[-1])
    base = out["fluct"]
    doubled = meanfield.solve_fluctuation_system(inp["coeffs"], out["mkv"],
                                                 u0_sampler(2 * CLT["u0_std"]),
                                                 n_paths=inp["n_fluct"], seed=inp["seeds"]["fluct"])
    linear = (np.array_equal(doubled.u, 2.0 * base.u) and np.array_equal(doubled.v, 2.0 * base.v)
              and np.array_equal(doubled.z, 2.0 * base.z))
    return [
        _check("clt_variance", abs(var_u - v_star) <= 0.10 * v_star,
               f"var_u {var_u:.5f} vs ODE {v_star:.5f} (+- 10%)"),
        _check("fluctuation_linearity", linear, "doubling U0 doubles (U, V, Z) exactly"),
    ]


def clt_key_outputs(out: dict) -> list:
    clt, mkv, fluct = out["clt"], out["mkv"], out["fluct"]
    return [clt.var_u, clt.var_v, np.array([f.mean for f in mkv.flow]), fluct.u, fluct.v, fluct.z]


# ---------------------------------------------------------------------------
# merton_calibrate: criterion 9
# ---------------------------------------------------------------------------

MARKET = merton.MarketParams(mu=0.08, r=0.02, sigma=0.2, gamma=0.5, horizon=1.0)
OBS_POINTS = tuple((t, x) for t in (0.0, 0.25, 0.5) for x in (0.6, 0.9, 1.0, 1.3))


def merton_setup(seed: int, smoke: bool) -> dict:
    spec = merton.HjbGridSpec.default(MARKET, n_space=40 if smoke else 160)
    cal_spec = merton.HjbGridSpec.default(MARKET, n_space=30 if smoke else 120)
    # One true theta from each third of [0.1, 0.9], so the three calibrations
    # cover weak, moderate and strong ambiguity on every seed.
    gen = np.random.Generator(np.random.Philox(key=derive_seed(seed, "merton-theta")))
    thetas = [float(lo + gen.uniform(0.0, 0.8 / 3)) for lo in (0.1, 0.1 + 0.8 / 3, 0.1 + 1.6 / 3)]
    observations = []
    for theta in thetas:
        surface = merton.extract_policy(merton.solve_hjb(MARKET, theta, cal_spec))
        observations.append([merton.AllocationObservation(t, x, surface(t, x) * x)
                             for t, x in OBS_POINTS])
    return {"spec": spec, "cal_spec": cal_spec, "thetas": thetas, "observations": observations}


def merton_measured(inp: dict, hooks) -> dict:
    grid0 = merton.solve_hjb(MARKET, 0.0, inp["spec"])
    props = merton.verify_ambiguity_properties(MARKET, [0.0, 0.25, 0.5, 1.0], inp["spec"])
    recovered = [merton.calibrate_theta(MARKET, obs, inp["cal_spec"], 0.0, 1.0, tol=1e-3).theta_star
                 for obs in inp["observations"]]
    return {"grid0": grid0, "props": props, "recovered": recovered}


def merton_checks(inp: dict, out: dict) -> list:
    grid0 = out["grid0"]
    cls = merton.classical_merton(MARKET)
    inner = grid0.interior
    ref = cls.value(grid0.times[:, None], grid0.wealth[None, :])
    val_err = float(np.max(np.abs(grid0.value[:, inner] - ref[:, inner]) / np.abs(ref[:, inner])))
    pol_err = float(np.max(np.abs(grid0.policy[:, inner] - cls.pi) / abs(cls.pi)))
    props = out["props"]
    checks = [
        _check("value_error", val_err <= 0.005, f"{val_err:.5f} (<= 0.005)"),
        _check("policy_error", pol_err <= 0.02, f"{pol_err:.5f} (<= 0.02)"),
        _check("ambiguity_properties", props.caution_passed and props.monotone_passed,
               f"caution {props.caution_passed}, monotone {props.monotone_passed}"),
    ]
    for truth, got in zip(inp["thetas"], out["recovered"]):
        checks.append(_check(f"theta_recovery_{truth:.3f}", abs(got - truth) <= 0.03 * truth,
                             f"recovered {got:.5f} for {truth:.5f} (+- 3%)"))
    return checks


def merton_key_outputs(out: dict) -> list:
    grid0 = out["grid0"]
    return [grid0.value, grid0.policy, np.array(out["props"].max_interior_pi),
            np.array(out["recovered"])]


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    setup: Callable
    measured: Callable
    checks: Callable
    key_outputs: Callable


WORKLOADS = {
    "oracle_solve": Workload(oracle_setup, oracle_measured, oracle_checks, oracle_key_outputs),
    "train_entropic": Workload(train_setup, train_measured, train_checks, train_key_outputs),
    "net_gradient": Workload(net_setup, net_measured, net_checks, net_key_outputs),
    "meanfield_clt": Workload(clt_setup, clt_measured, clt_checks, clt_key_outputs),
    "merton_calibrate": Workload(merton_setup, merton_measured, merton_checks, merton_key_outputs),
}


def digest(arrays) -> str:
    """Hex digest of the exact bytes of the key outputs."""
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.data)
    return h.hexdigest()
