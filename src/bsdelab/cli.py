"""Configuration-driven experiment runner.

One JSON document describes one run; every stochastic quantity derives from
the single config seed through deterministic splitting, so a config file
reproduces its report bit for bit (timings aside). Reports carry the full
config echo, a hash of it, one row per check with the measured value and
tolerance, and the paths of the CSV artifacts written.

`_KINDS` is the config format: the keys each kind reads, with their
defaults. A config is resolved against it before a run starts, and a key it
does not list for the kind is a config error at the key's dotted path.

Exit codes: 0 all checks passed, 1 a check failed, 2 malformed config,
3 numerical failure (divergence or singular regression).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import hashlib
import inspect
import json
import math
import os
import shutil
import sys
import time
from collections import namedtuple
from dataclasses import asdict, dataclass

import numpy as np

from . import drivers, engine, learning, meanfield, merton, nets, stochastic
from ._check import count, real
from ._csv import write_csv
from .errors import BsdelabError, ConfigError
from .stochastic import (ForwardModel, brownian_model, geometric_brownian_model,
                         make_time_grid, sample_brownian, split_seed)

__all__ = ["ExperimentConfig", "CheckResult", "RunReport", "run_experiment",
           "emit_report", "parse_report", "main"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    tolerance: float
    detail: str = ""

    def __post_init__(self):
        # A value that is not finite measured nothing, so its check cannot pass.
        if self.passed and not math.isfinite(self.value):
            object.__setattr__(self, "passed", False)


@dataclass(frozen=True)
class RunReport:
    config: dict
    config_hash: str
    checks: tuple
    artifacts: tuple
    timings: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def emit_report(report: RunReport, fmt: str = "text") -> str:
    """Render a report; json round-trips through parse_report."""
    if fmt == "json":
        doc = {
            "config": report.config,
            "config_hash": report.config_hash,
            "checks": [asdict(c) for c in report.checks],
            "artifacts": list(report.artifacts),
            "timings": report.timings,
        }
        return json.dumps(doc, sort_keys=True, indent=2)
    if fmt == "text":
        lines = [
            "bsdelab run report",
            f"kind: {report.config.get('kind')}",
            f"seed: {report.config.get('seed')}",
            f"config sha256: {report.config_hash}",
            f"checks: {len(report.checks)}",
        ]
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"  [{status}] {c.name}: value={c.value:.6g} tol={c.tolerance:.6g}"
                + (f" ({c.detail})" if c.detail else "")
            )
        for a in report.artifacts:
            lines.append(f"  artifact: {a}")
        if not report.passed:
            lines.append("result: FAILED (exit nonzero recommended)")
        else:
            lines.append("result: all checks passed")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format '{fmt}'")


def parse_report(text: str) -> RunReport:
    """The report that emit_report(report, "json") wrote; ValueError if text is not one."""
    doc = json.loads(text)
    keys = {f.name for f in dataclasses.fields(RunReport)}
    if not isinstance(doc, dict) or set(doc) != keys:
        raise ValueError(f"a report is a JSON object with the keys {', '.join(sorted(keys))}")
    try:
        report = RunReport(**dict(doc, checks=tuple(CheckResult(**c) for c in doc["checks"]),
                                  artifacts=tuple(doc["artifacts"])))
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed report: {exc}") from exc
    for c in report.checks:
        numbers = (c.value, c.tolerance)
        if not (isinstance(c.name, str) and isinstance(c.detail, str)
                and isinstance(c.passed, bool)
                and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in numbers)):
            raise ValueError(f"malformed check {c.name!r}: name and detail are strings, "
                             "passed is a bool, value and tolerance are numbers")
    return report


# ---------------------------------------------------------------------------
# experiment kinds
# ---------------------------------------------------------------------------

def _from_config(key: str, fn, *args, **kwargs):
    """fn(*args, **kwargs) on values read at key, reporting a missing or
    malformed file or a rejected value as a config error at key."""
    try:
        return fn(*args, **kwargs)
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(key, str(exc)) from exc


def _final_state(ens):
    return ens.states[:, -1, 0]


def _scaled_state(scale):
    return lambda ens: scale * ens.states[:, -1, 0]


def _grid(opt: dict):
    return _from_config("grid", make_time_grid, opt["grid"]["T"], opt["grid"]["n_steps"])


def _paths(config, label: str, dim: int = 1):
    """The config's time grid and its Brownian draws, seeded under label."""
    grid = _grid(config.options)
    return grid, _from_config("n_paths", sample_brownian, grid, config.options["n_paths"], dim,
                              split_seed(config.seed, label))


def _ensemble(config, label: str, model: ForwardModel | None = None):
    """Forward paths of model (one-dimensional Brownian motion by default)."""
    model = model or brownian_model(1)
    return stochastic.simulate_forward(model, *_paths(config, label, model.state_dim))


def _basis(opt: dict) -> engine.RegressionBasis:
    return engine.RegressionBasis(degree=opt["basis_degree"])


def _market(opt: dict):
    p = opt["params"]
    params = _from_config("params", merton.MarketParams, mu=p["mu"], r=p["r"],
                          sigma=p["sigma"], gamma=p["gamma"], horizon=p["T"])
    return params, _from_config("n_space", merton.HjbGridSpec.default, params,
                                n_space=opt["n_space"])


def _run_solve(config, out_dir):
    opt = config.options
    driver, model = _DRIVER.build(opt["driver"]), _FORWARD.build(opt["forward"])
    # A net's layout must fit the state and the noise, one dimension each (_ensemble).
    for key in ("state_dim", "z_dim"):
        if isinstance(driver, nets.DriverNet) and getattr(driver.layout, key) != model.state_dim:
            raise ConfigError("driver.path" if opt["driver"]["path"] else f"driver.{key}",
                              f"the net has {key} {getattr(driver.layout, key)}, the forward "
                              f"model's state and noise have dimension {model.state_dim}")
    problem = engine.BsdeProblem(driver=driver, terminal=_TERMINAL.build(opt["terminal"]),
                                 ensemble=_ensemble(config, "cli-paths", model))
    sol = engine.solve_bsde_lsmc(problem, _basis(opt))
    path = os.path.join(out_dir, "solution.csv")
    engine.export_solution_csv(sol, path)
    xi = problem.terminal(problem.ensemble)
    checks = [
        CheckResult("y0_finite", bool(np.isfinite(sol.y0)), sol.y0, float("inf")),
        CheckResult("terminal_anchoring", bool(np.array_equal(sol.y[:, -1], xi)),
                    0.0, 0.0, "Y_T equals the terminal functional exactly"),
    ]
    return checks, [path]


def _run_oracle_suite(config, out_dir):
    opt = config.options
    ens = _ensemble(config, "oracle-paths")
    horizon = ens.grid.horizon
    w_t = ens.bundle.terminal_motion()[:, 0]
    basis = _basis(opt)
    solve = lambda driver: engine.solve_bsde_lsmc(
        engine.BsdeProblem(driver=driver, terminal=_final_state, ensemble=ens), basis)

    # Stated tolerances assume the acceptance path count; smaller runs fall
    # back to a 3 sigma Monte Carlo floor.
    checks = []
    sol = solve(drivers.zero_driver())
    tol = max(0.02, 3.0 * sol.y0_standard_error)
    checks.append(CheckResult("oracle_zero", abs(sol.y0) <= tol, sol.y0, tol,
                              "martingale case, Y0 = 0"))

    b = opt["linear_b"]
    sol = solve(drivers.linear_z_driver(b))
    target = b * horizon
    tol = max(0.02 * abs(target), 3.0 * sol.y0_standard_error)
    checks.append(CheckResult("oracle_linear", abs(sol.y0 - target) <= tol,
                              sol.y0, tol, f"target {target}"))

    theta = opt["entropic_theta"]
    sol = solve(drivers.entropic_driver(theta))
    target = -theta * horizon / 2.0
    mc = engine.closed_form_oracle("entropic", w_t, theta=theta)
    tol = max(0.02 * abs(target), 3.0 * sol.y0_standard_error)
    ok = abs(sol.y0 - target) <= tol and abs(sol.y0 - mc) <= tol
    checks.append(CheckResult("oracle_entropic", ok, sol.y0, tol,
                              f"closed form {target}, mc oracle {mc:.5f}"))
    return checks, []


def _run_verify_axioms(config, out_dir):
    # Every check runs on one simulation, and so on one factorization per step.
    ens = _ensemble(config, "axiom-paths")
    basis = _basis(config.options)
    checks = []

    mono_net = nets.build_driver(
        "MonotoneY", nets.NetLayout(hidden=(8, 8)), init_seed=split_seed(config.seed, "mono"))
    rep = engine.check_comparison(
        engine.BsdeProblem(driver=mono_net, ensemble=ens),
        terminal_high=lambda e: np.abs(_final_state(e)),
        terminal_low=lambda e: np.zeros(e.n_paths), basis=basis)
    tol = 3.0 * rep.mc_noise
    checks.append(CheckResult("comparison_y0_order", rep.y0_gap >= -tol, rep.y0_gap, tol))

    # Operator convexity needs only a convex driver; the Jensen inequality
    # additionally needs f(., 0) = 0 and positive homogeneity in z, so it
    # runs on the homogeneous input-convex construction.
    icnn = nets.build_driver(
        "IcnnYZ", nets.NetLayout(hidden=(8, 8), activation="softplus"),
        init_seed=split_seed(config.seed, "icnn"))
    hom = nets.build_homogeneous_icnn(init_seed=split_seed(config.seed, "icnn-hom"))
    for name, gap, driver in (("operator_convexity", "delta_convexity", icnn),
                              ("jensen_gap", "delta_jensen", hom)):
        rep = engine.check_convexity_and_jensen(
            engine.BsdeProblem(driver=driver, ensemble=ens), terminal_1=_final_state,
            terminal_2=lambda e: -_final_state(e), lam=0.5,
            phi=engine.SmoothFunction.square(), basis=basis)
        tol = 3.0 * max(rep.mc_noise, 1e-4)
        checks.append(CheckResult(name, getattr(rep, gap) >= -tol, getattr(rep, gap), tol))

    ent = engine.BsdeProblem(driver=drivers.entropic_driver(1.0), terminal=_final_state,
                             ensemble=ens)
    rep = engine.check_dynamic_consistency(ent, ens.grid.nodes[ens.grid.n_steps // 2], basis)
    tol = 0.02 * abs(rep.y0_direct)
    checks.append(CheckResult("dynamic_consistency", rep.gap <= tol, rep.gap, tol))

    quad = engine.BsdeProblem(driver=drivers.quadratic_z_driver(1.0), terminal=_final_state,
                              ensemble=ens)
    sol = engine.solve_bsde_lsmc(quad, basis)
    dual = engine.dual_lower_bound(quad, [[0.0], [0.5], [1.0], [1.5]],
                                   fenchel=lambda u: float(u @ u) / 2.0)
    tol = max(3.0 * sol.y0_standard_error, 0.02 * abs(sol.y0))
    bound_ok = bool(np.all(dual.values <= sol.y0 + tol))
    near = abs(dual.best_value - sol.y0) <= 0.02 * abs(sol.y0) + 3.0 * sol.y0_standard_error
    checks.append(CheckResult("dual_lower_bound", bound_ok and near, dual.best_value, tol,
                              f"solver y0 {sol.y0:.5f}"))
    return checks, []


def _run_train(config, out_dir):
    opt = config.options
    grid = _grid(opt)
    theta_true = opt["theta_true"]

    if opt["dataset_csv"] is not None:
        dataset = _from_config("dataset_csv", learning.read_dataset_csv, opt["dataset_csv"], grid)
    else:
        oracle_draw = sample_brownian(grid, 200_000, 1,
                                      split_seed(config.seed, "train-oracle"))
        w_t = oracle_draw.terminal_motion()[:, 0]
        records = tuple(learning.DatasetRecord(
            terminal=_scaled_state(c), label=f"scale-{c}",
            observed=engine.closed_form_oracle("entropic", c * w_t, theta=theta_true))
            for c in opt["scales"])
        dataset = learning.Dataset(records=records, grid=grid)
    dataset = _from_config("n_paths", dataclasses.replace, dataset, n_paths=opt["n_paths"])

    schedule = learning.TrainSchedule(learning_rate=opt["learning_rate"],
                                      max_iters=opt["max_iters"], loss_tol=opt["loss_tol"],
                                      seed=split_seed(config.seed, "train"))
    log_path = os.path.join(out_dir, "training_log.csv")
    state, final = learning.train(dataset, drivers.entropic_driver(opt["theta_init"]),
                                  schedule, log_path=log_path)
    recovered = float(final.params[0])
    rel = abs(recovered - theta_true) / abs(theta_true)
    checks = [CheckResult("entropic_recovery", rel <= 0.05, recovered, 0.05,
                          f"target {theta_true}, rel err {rel:.4f}")]
    return checks, [log_path]


def _particle_counts(values: list, least: int) -> list:
    """values as counts >= 1, at least `least` of them."""
    if len(values) < least:
        raise ValueError(f"N_list needs at least {least} entries, got {values!r}")
    return [count("N_list", n, 1) for n in values]


def _increasing_thetas(values: list) -> list:
    """values as positive finite reals, strictly increasing, at least one."""
    thetas = [real("theta_list", t, above=0) for t in values]
    if not thetas or any(b <= a for a, b in zip(thetas, thetas[1:])):
        raise ValueError(f"theta_list must be a non-empty, strictly increasing list, "
                         f"got {values!r}")
    return thetas


def _run_meanfield(config, out_dir):
    opt = config.options
    grid = _grid(opt)
    model = meanfield.MODEL_REGISTRY[opt["model"]](**opt["model_params"])
    lln = config.kind == "meanfield-lln"
    n_list = _from_config("N_list", _particle_counts, opt["N_list"], 2 if lln else 3)
    n_trials = _from_config("n_trials", count, "n_trials", opt["n_trials"], 1)
    n_reference = _from_config("n_reference", count, "n_reference", opt["n_reference"],
                               meanfield.MIN_CLOUD)

    if lln:
        res = meanfield.lln_experiment(model, n_list, grid, n_trials,
                                       split_seed(config.seed, "lln"), _basis(opt),
                                       n_reference=n_reference)
        path = os.path.join(out_dir, "lln.csv")
        meanfield.export_lln_csv(res, path)
        total = res.err_x + res.err_y + res.err_z
        decreasing = bool(np.all(np.diff(total) < 0))
        checks = [
            CheckResult("lln_errors_decreasing", decreasing, float(total[-1]), 0.0,
                        f"errors {total.tolist()}"),
            CheckResult("lln_slope", abs(res.slope + 1.0) <= 0.3, res.slope, 0.3,
                        "target -1"),
        ]
        return checks, [path]

    res = meanfield.clt_experiment(model, n_list, grid, n_trials,
                                   split_seed(config.seed, "clt"),
                                   n_reference=n_reference, u0_std=opt["u0_std"])
    path = os.path.join(out_dir, "clt.csv")
    meanfield.export_clt_csv(res, path)
    checks = [CheckResult("clt_variance_stabilizes", res.stabilized(),
                          float(res.var_u[-1]), 0.0,
                          f"variances {res.var_u.tolist()}, se {res.var_u_se.tolist()}")]
    return checks, [path]


def _run_fbsde(config, out_dir):
    opt = config.options
    eps = opt["epsilon"]
    grid, bundle = _paths(config, "fbsde")
    model = ForwardModel(
        drift=lambda t, x, y, z: eps * y[:, None],
        diffusion=lambda t, x, y, z: 1.0,
        x0=np.array([0.5]),
        state_dim=1,
        coupled_in_yz=True,
    )
    res = engine.solve_fbsde_picard(model, grid, bundle, terminal=_final_state,
                                    driver=drivers.zero_driver(), basis=_basis(opt))
    ratios = [b / a for a, b in zip(res.residuals, res.residuals[1:]) if a > 1e-12]
    geometric = all(r <= 0.5 for r in ratios) if ratios else True
    checks = [
        CheckResult("fbsde_converged", True, float(res.residuals[-1]), 0.0,
                    f"{res.iterations} iterations"),
        CheckResult("fbsde_geometric_decay", geometric,
                    max(ratios) if ratios else 0.0, 0.5),
    ]
    return checks, []


def _run_merton(config, out_dir):
    params, spec = _market(config.options)
    thetas = _from_config("theta_list", _increasing_thetas, config.options["theta_list"])
    cls = merton.classical_merton(params)

    grid0 = merton.solve_hjb(params, 0.0, spec)
    inner = grid0.interior
    ref = cls.value(grid0.times[:, None], grid0.wealth[None, :])
    val_err = float(np.max(np.abs(grid0.value[:, inner] - ref[:, inner])
                           / np.abs(ref[:, inner])))
    pol_err = float(np.max(np.abs(grid0.policy[:, inner] - cls.pi) / abs(cls.pi)))
    checks = [
        CheckResult("classical_value_recovery", val_err <= 0.005, val_err, 0.005),
        CheckResult("classical_policy_recovery", pol_err <= 0.02, pol_err, 0.02,
                    f"pi_classical {cls.pi}"),
    ]

    rep = merton.verify_ambiguity_properties(params, [0.0, *thetas], spec)
    checks.append(CheckResult("ambiguity_caution", rep.caution_passed,
                              rep.max_interior_pi[-1], cls.pi))
    checks.append(CheckResult("ambiguity_monotone", rep.monotone_passed, 0.0, 0.0,
                              f"wealth slope {rep.wealth_slope_sign} "
                              f"(expected {rep.wealth_slope_expected}, reported only)"))

    path = os.path.join(out_dir, "policy_theta0.csv")
    merton.export_policy_csv(grid0, path)
    return checks, [path]


def _run_calibrate(config, out_dir):
    opt = config.options
    params, spec = _market(opt)
    if opt["observations_csv"] is not None:
        obs = _from_config("observations_csv", merton.read_observations_csv,
                           opt["observations_csv"])
        theta_true = None
    else:
        theta_true = opt["theta_true"]
        surface = merton.extract_policy(
            _from_config("theta_true", merton.solve_hjb, params, theta_true, spec))
        xs = [0.6, 0.8, 1.0, 1.25, 1.6]
        ts = [0.0, 0.25, 0.5]
        obs = [merton.AllocationObservation(t, x, surface(t, x) * x)
               for t in ts for x in xs]
    result = _from_config("search", merton.calibrate_theta, params, obs, spec, **opt["search"])
    path = os.path.join(out_dir, "calibration_curve.csv")
    write_csv(path, ["theta", "loss"], result.curve)
    if theta_true is not None:
        rel = abs(result.theta_star - theta_true) / max(abs(theta_true), 1e-12)
        checks = [CheckResult("calibration_recovery", rel <= 0.03, result.theta_star,
                              0.03, f"target {theta_true}, rel err {rel:.4f}")]
    else:
        checks = [CheckResult("calibration_finished", True, result.theta_star, 0.0)]
    return checks, [path]


# ---------------------------------------------------------------------------
# the config format
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Choice:
    """A block whose keys depend on its `name`: each name maps to a factory
    and the keys it takes, with their defaults."""

    default: str
    names: dict

    def __call__(self, block: dict, resolved: dict, path: str) -> dict:
        name = block["name"] if "name" in block else self.default
        if not isinstance(name, str) or name not in self.names:
            raise ConfigError(f"{path}.name", f"unknown {path} '{name}' "
                                              f"(known: {', '.join(self.names)})")
        return {"name": name, **self.names[name][1]}

    def build(self, spec: dict):
        factory = self.names[spec["name"]][0]
        return factory(**{k: v for k, v in spec.items() if k != "name"})


_NET_LAYOUT = {f.name: f.default for f in dataclasses.fields(nets.NetLayout)}


def _net_driver(path, architecture, init_seed, **layout):
    if path is not None:
        return _from_config("driver.path", nets.load_driver_net, path)
    return _from_config("driver", lambda: nets.build_driver(
        architecture, nets.NetLayout(**layout), init_seed=init_seed))


def _model_params(block: dict, resolved: dict, path: str) -> dict:
    """model_params takes the keyword arguments of the model's factory."""
    if resolved["model"] not in meanfield.MODEL_REGISTRY:
        raise ConfigError("model", f"unknown mean-field model '{resolved['model']}'")
    factory = meanfield.MODEL_REGISTRY[resolved["model"]]
    return {p.name: p.default for p in inspect.signature(factory).parameters.values()}


_DRIVER = _Choice("zero", {
    "zero": (drivers.zero_driver, {}),
    "linear": (drivers.linear_z_driver, {"b": 0.3}),
    "entropic": (drivers.entropic_driver, {"theta": 1.0}),
    "quadratic": (drivers.quadratic_z_driver, {"theta": 1.0}),
    "net": (_net_driver, {"path": None, "architecture": "Free", "init_seed": 0,
                          **_NET_LAYOUT}),
})
_FORWARD = _Choice("brownian", {
    "brownian": (brownian_model, {"dim": 1}),
    "gbm": (geometric_brownian_model, {"mu": 0.08, "sigma": 0.2, "x0": 1.0}),
})
_TERMINAL = _Choice("state", {
    "state": (lambda: _final_state, {}),
    "scaled_state": (_scaled_state, {"scale": 1.0}),
    "call": (lambda strike: lambda ens: np.maximum(ens.states[:, -1, 0] - strike, 0.0),
             {"strike": 1.0}),
})

_GRID = {"T": 1.0, "n_steps": 50}
_PATHS = {"grid": _GRID, "n_paths": 20_000, "basis_degree": 3}
_MEANFIELD = {"grid": _GRID, "model": "linear-gaussian-clt", "model_params": _model_params,
              "N_list": [16, 64, 256, 1024], "n_trials": 20, "n_reference": 65536}
_MARKET = {"mu": 0.08, "r": 0.02, "sigma": 0.2, "gamma": 0.5, "T": 1.0}


# Each kind's subcommand, its runner, and the keys it reads next to their
# defaults. A dict value is a nested block with its own keys; a callable
# value gives the keys of a block that depend on the block's name or on a
# key listed before it.
_Kind = namedtuple("_Kind", "subcommand run options")
_KINDS = {
    "solve": _Kind("solve", _run_solve,
                   dict(_PATHS, driver=_DRIVER, forward=_FORWARD, terminal=_TERMINAL)),
    "verify-axioms": _Kind("verify", _run_verify_axioms, _PATHS),
    "oracle-suite": _Kind("verify", _run_oracle_suite,
                          dict(_PATHS, n_paths=100_000, linear_b=0.3, entropic_theta=1.0)),
    "train": _Kind("train", _run_train, {
        "grid": _GRID, "n_paths": 4000, "theta_true": 1.5, "theta_init": 0.3,
        "scales": [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0], "dataset_csv": None,
        "learning_rate": 0.4, "max_iters": 40, "loss_tol": None}),
    "meanfield-lln": _Kind("meanfield", _run_meanfield, dict(_MEANFIELD, basis_degree=3)),
    "meanfield-clt": _Kind("meanfield", _run_meanfield, dict(_MEANFIELD, u0_std=0.5)),
    "fbsde": _Kind("fbsde", _run_fbsde,
                   dict(_PATHS, grid={"T": 0.2, "n_steps": 20}, epsilon=0.1)),
    "merton": _Kind("merton", _run_merton,
                    {"params": _MARKET, "n_space": 160, "theta_list": [0.25, 0.5, 1.0]}),
    "calibrate": _Kind("calibrate", _run_calibrate, {
        "params": _MARKET, "n_space": 120, "observations_csv": None, "theta_true": 0.4,
        "search": {"theta_lo": 0.0, "theta_hi": 1.0, "tol": 1e-3}}),
}

# Two spellings of one input: the keys of the second are not read when the
# first is given.
_EXCLUSIVE = {
    "path": ("architecture", "init_seed", *_NET_LAYOUT),
    "dataset_csv": ("scales",),
    "observations_csv": ("theta_true",),
}


def _fits(value, default) -> bool:
    """Whether value may stand where default does: a value of its type, an
    int for a float, a list for a tuple, anything for None. A bool is never
    a number."""
    if default is None:
        return True
    if isinstance(value, bool) or isinstance(default, bool):
        return isinstance(value, bool) and isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple))
    return isinstance(value, type(default))


def _check_fits(value, default, path: str) -> None:
    """ConfigError at path, or at path.i for the i-th element of a list,
    unless value fits default and each element fits the default's first."""
    if not _fits(value, default):
        raise ConfigError(path, f"expected a value like the default {default!r}, got {value!r}")
    if isinstance(default, (list, tuple)) and default:
        for i, element in enumerate(value):
            _check_fits(element, default[0], f"{path}.{i}")


def _check_finite(doc, path: str = "") -> None:
    """ConfigError at the dotted path of the first NaN or infinity in doc,
    which json reads from NaN, Infinity and out-of-range literals."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{path}{key}", f"must be finite, got {value!r}")
        _check_finite(value, f"{path}{key}.")


def _resolve(doc: dict, table: dict, path: str = "") -> dict:
    """doc with every key of table, defaults filled in and nested blocks
    resolved in turn. A key the table does not list, one given together
    with a key that excludes it, or a value that does not fit its default
    raises ConfigError at its dotted path."""
    for key in doc:
        if key not in table:
            raise ConfigError(path + key, f"unknown key (known: {', '.join(table)})")
    for key, excluded in _EXCLUSIVE.items():
        for other in excluded:
            if key in doc and other in doc:
                raise ConfigError(path + other, f"not read together with '{path}{key}'")
    resolved = {}
    for key, default in table.items():
        if not (isinstance(default, dict) or callable(default)):
            if key in doc:
                _check_fits(doc[key], default, path + key)
            resolved[key] = doc[key] if key in doc else default
            continue
        block = doc[key] if key in doc else {}
        if not isinstance(block, dict):
            raise ConfigError(path + key, "must be an object")
        keys = default(block, resolved, path + key) if callable(default) else default
        resolved[key] = _resolve(block, keys, f"{path}{key}.")
    return resolved


@dataclass(frozen=True)
class ExperimentConfig:
    """A run's config: the document as given, and its options resolved
    against the kind's keys."""

    kind: str
    seed: int
    out_dir: str
    document: dict
    options: dict

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config", "must be a JSON object")
        if "kind" not in raw:
            raise ConfigError("kind", "missing")
        if not isinstance(raw["kind"], str) or raw["kind"] not in _KINDS:
            raise ConfigError("kind", f"unknown kind '{raw['kind']}'")
        if "seed" not in raw:
            raise ConfigError("seed", "missing (runs must be seeded)")
        if isinstance(raw["seed"], bool) or not isinstance(raw["seed"], int):
            raise ConfigError("seed", "must be an integer")
        _check_finite(raw)
        options = _resolve(raw, {"kind": None, "seed": None, "out": "runs",
                                 **_KINDS[raw["kind"]].options})
        return ExperimentConfig(kind=raw["kind"], seed=raw["seed"], out_dir=options["out"],
                                document=dict(raw), options=options)

    def to_dict(self) -> dict:
        return dict(self.document, out=self.out_dir)


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Dispatch to the owning module and assemble the report. A ConfigError
    from the run removes the output directories this call made."""
    made, parent = None, os.path.abspath(config.out_dir)
    while not os.path.exists(parent):
        made, parent = parent, os.path.dirname(parent)
    os.makedirs(config.out_dir, exist_ok=True)
    started = time.time()
    try:
        checks, artifacts = _KINDS[config.kind].run(config, config.out_dir)
    except ConfigError:
        if made is not None:
            shutil.rmtree(made)
        raise
    doc = config.to_dict()
    return RunReport(
        config=doc,
        config_hash=hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest(),
        checks=tuple(checks),
        artifacts=tuple(artifacts),
        timings={"wall_seconds": time.time() - started},
    )


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _load_config(path: str, seed_override, out_override) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid json: {exc}")
    if seed_override is not None:
        raw["seed"] = seed_override
    if out_override is not None:
        raw["out"] = out_override
    return ExperimentConfig.from_dict(raw)


def _openblas_function(*names):
    """The first of names exported by the OpenBLAS numpy loaded, or None."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                return fn
    return None


def _set_blas_threads(n: int) -> None:
    """Set the BLAS thread count. OpenBLAS reads its environment variables
    only when numpy loads it, so the count is set through its C API."""
    if n < 1:
        raise ConfigError("threads", f"must be >= 1, got {n}")
    fn = _openblas_function("scipy_openblas_set_num_threads64_", "openblas_set_num_threads")
    if fn is None:
        raise ConfigError("threads", "no OpenBLAS library found to set the thread count of")
    fn.argtypes = [ctypes.c_int]
    fn.restype = None
    fn(n)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bsdelab",
                                     description="config-driven experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in dict.fromkeys(kind.subcommand for kind in _KINDS.values()):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--out", default=None)
        cmd.add_argument("--threads", type=int, default=None)
        cmd.add_argument("--format", choices=("text", "json"), default="text")
    rep = sub.add_parser("report")
    rep.add_argument("--config", required=True, help="path of a saved json report")
    rep.add_argument("--format", choices=("text", "json"), default="text")

    args = parser.parse_args(argv)

    if args.command == "report":
        try:
            with open(args.config) as fh:
                report = parse_report(fh.read())
        except (OSError, ValueError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        print(emit_report(report, args.format), end="")
        return 0 if report.passed else 1

    try:
        if args.threads is not None:
            _set_blas_threads(args.threads)
        config = _load_config(args.config, args.seed, args.out)
        if _KINDS[config.kind].subcommand != args.command:
            raise ConfigError("kind", f"kind '{config.kind}' does not belong to "
                                      f"subcommand '{args.command}'")
        report = run_experiment(config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except BsdelabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    report_path = os.path.join(config.out_dir, "report.json")
    with open(report_path, "w") as fh:
        fh.write(emit_report(report, "json"))
    print(emit_report(report, args.format), end="")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
