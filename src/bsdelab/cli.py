"""Configuration-driven experiment runner.

One JSON document describes one run; every stochastic quantity derives from
the single config seed through deterministic splitting, so a config file
reproduces its report bit for bit (timings aside). Reports carry the full
config echo, a hash of it, one row per check with the measured value and
tolerance, and the paths of the CSV artifacts written.

Exit codes: 0 all checks passed, 1 a check failed, 2 malformed config,
3 numerical failure (divergence or singular regression).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import drivers, engine, learning, meanfield, merton, nets
from .errors import BsdelabError, ConfigError
from .stochastic import make_time_grid, sample_brownian, split_seed

__all__ = ["ExperimentConfig", "CheckResult", "RunReport", "run_experiment",
           "emit_report", "parse_report", "main"]

_KINDS = ("solve", "verify-axioms", "oracle-suite", "train", "meanfield-lln",
          "meanfield-clt", "fbsde", "merton", "calibrate")

_SUBCOMMAND_KINDS = {
    "solve": ("solve",),
    "verify": ("verify-axioms", "oracle-suite"),
    "train": ("train",),
    "meanfield": ("meanfield-lln", "meanfield-clt"),
    "fbsde": ("fbsde",),
    "merton": ("merton",),
    "calibrate": ("calibrate",),
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int
    out_dir: str
    options: dict

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        if "kind" not in raw:
            raise ConfigError("kind", "missing")
        if raw["kind"] not in _KINDS:
            raise ConfigError("kind", f"unknown kind '{raw['kind']}'")
        if "seed" not in raw:
            raise ConfigError("seed", "missing (runs must be seeded)")
        if isinstance(raw["seed"], bool) or not isinstance(raw["seed"], int):
            raise ConfigError("seed", "must be an integer")
        options = {k: v for k, v in raw.items() if k not in ("kind", "seed", "out")}
        return ExperimentConfig(kind=raw["kind"], seed=raw["seed"],
                                out_dir=raw.get("out", "runs"), options=options)

    def to_dict(self) -> dict:
        doc = {"kind": self.kind, "seed": self.seed, "out": self.out_dir}
        doc.update(self.options)
        return doc


def _config_hash(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    tolerance: float
    detail: str = ""


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
    doc = json.loads(text)
    return RunReport(
        config=doc["config"],
        config_hash=doc["config_hash"],
        checks=tuple(CheckResult(**c) for c in doc["checks"]),
        artifacts=tuple(doc["artifacts"]),
        timings=doc["timings"],
    )


# ---------------------------------------------------------------------------
# problem construction from config fragments
# ---------------------------------------------------------------------------

def _read_file(key: str, reader, path, *args, **kwargs):
    """reader(path, ...), reporting a missing or malformed file as a config error at key."""
    try:
        return reader(path, *args, **kwargs)
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(key, str(exc)) from exc


def _build_grid(options: dict):
    grid_spec = options.get("grid", {})
    return make_time_grid(grid_spec.get("T", 1.0), grid_spec.get("n_steps", 50))


def _build_driver(spec: dict):
    name = spec.get("name")
    if name == "zero":
        return drivers.zero_driver()
    if name == "linear":
        return drivers.linear_z_driver(spec.get("b", 0.3))
    if name == "entropic":
        return drivers.entropic_driver(spec.get("theta", 1.0))
    if name == "quadratic":
        return drivers.quadratic_z_driver(spec.get("theta", 1.0))
    if name == "net":
        if "path" in spec:
            return _read_file("driver.path", nets.load_driver_net, spec["path"])
        layout = nets.NetLayout(
            state_dim=spec.get("state_dim", 1),
            z_dim=spec.get("z_dim", 1),
            hidden=tuple(spec.get("hidden", (8, 8))),
            activation=spec.get("activation", "tanh"),
            n2_hidden=tuple(spec.get("n2_hidden", (8,))),
            n2_monotone=spec.get("n2_monotone", False),
            interaction_bound=spec.get("interaction_bound", 1.0),
        )
        return nets.build_driver(spec.get("architecture", "Free"), layout,
                                 init_seed=spec.get("init_seed", 0))
    raise ConfigError("driver.name", f"unknown driver '{name}'")


def _build_forward(spec: dict):
    from .stochastic import brownian_model, geometric_brownian_model
    name = spec.get("name", "brownian")
    if name == "brownian":
        return brownian_model(spec.get("dim", 1))
    if name == "gbm":
        return geometric_brownian_model(spec.get("mu", 0.08), spec.get("sigma", 0.2),
                                        spec.get("x0", 1.0))
    raise ConfigError("forward.name", f"unknown forward model '{name}'")


def _build_terminal(spec: dict):
    name = spec.get("name", "state")
    if name == "state":
        return lambda ens: ens.states[:, -1, 0]
    if name == "scaled_state":
        c = spec.get("scale", 1.0)
        return lambda ens: c * ens.states[:, -1, 0]
    if name == "call":
        k = spec.get("strike", 1.0)
        return lambda ens: np.maximum(ens.states[:, -1, 0] - k, 0.0)
    raise ConfigError("terminal.name", f"unknown terminal '{name}'")


def _build_problem(config: ExperimentConfig):
    from .stochastic import simulate_forward
    opt = config.options
    grid = _build_grid(opt)
    n_paths = opt.get("n_paths", 20_000)
    bundle = sample_brownian(grid, n_paths, opt.get("forward", {}).get("dim", 1),
                             split_seed(config.seed, "cli-paths"))
    driver = _build_driver(opt.get("driver", {"name": "zero"}))
    terminal = _build_terminal(opt.get("terminal", {}))
    ens = simulate_forward(_build_forward(opt.get("forward", {})), grid, bundle)
    return engine.BsdeProblem(driver=driver, terminal=terminal, ensemble=ens)


def _basis(options: dict) -> engine.RegressionBasis:
    return engine.RegressionBasis(degree=options.get("basis_degree", 3))


# ---------------------------------------------------------------------------
# experiment kinds
# ---------------------------------------------------------------------------

def _run_solve(config, out_dir):
    problem = _build_problem(config)
    sol = engine.solve_bsde_lsmc(problem, _basis(config.options))
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
    grid = _build_grid(opt)
    n_paths = opt.get("n_paths", 100_000)
    bundle = sample_brownian(grid, n_paths, 1, split_seed(config.seed, "oracle-paths"))
    from .stochastic import brownian_model, simulate_forward
    ens = simulate_forward(brownian_model(1), grid, bundle)
    term = lambda ens: ens.states[:, -1, 0]
    basis = _basis(opt)
    opts = engine.SolveOptions()
    w_t = bundle.terminal_motion()[:, 0]

    # Stated tolerances assume the acceptance path count; smaller runs fall
    # back to a 3 sigma Monte Carlo floor.
    checks = []
    sol = engine.solve_bsde_lsmc(engine.BsdeProblem(
        driver=drivers.zero_driver(), terminal=term, ensemble=ens), basis, opts)
    tol = max(0.02, 3.0 * sol.y0_standard_error)
    checks.append(CheckResult("oracle_zero", abs(sol.y0) <= tol, sol.y0, tol,
                              "martingale case, Y0 = 0"))

    b = opt.get("linear_b", 0.3)
    sol = engine.solve_bsde_lsmc(engine.BsdeProblem(
        driver=drivers.linear_z_driver(b), terminal=term, ensemble=ens), basis, opts)
    target = b * grid.horizon
    tol = max(0.02 * abs(target), 3.0 * sol.y0_standard_error)
    checks.append(CheckResult("oracle_linear", abs(sol.y0 - target) <= tol,
                              sol.y0, tol, f"target {target}"))

    theta = opt.get("entropic_theta", 1.0)
    sol = engine.solve_bsde_lsmc(engine.BsdeProblem(
        driver=drivers.entropic_driver(theta), terminal=term, ensemble=ens), basis, opts)
    target = -theta * grid.horizon / 2.0
    mc = engine.closed_form_oracle("entropic", w_t, theta=theta)
    tol = max(0.02 * abs(target), 3.0 * sol.y0_standard_error)
    ok = abs(sol.y0 - target) <= tol and abs(sol.y0 - mc) <= tol
    checks.append(CheckResult("oracle_entropic", ok, sol.y0, tol,
                              f"closed form {target}, mc oracle {mc:.5f}"))
    return checks, []


def _run_verify_axioms(config, out_dir):
    opt = config.options
    grid = _build_grid(opt)
    n_paths = opt.get("n_paths", 20_000)
    bundle = sample_brownian(grid, n_paths, 1, split_seed(config.seed, "axiom-paths"))
    from .stochastic import brownian_model, simulate_forward
    # Every check runs on one simulation, and so on one factorization per step.
    ens = simulate_forward(brownian_model(1), grid, bundle)
    basis = _basis(opt)
    checks = []

    mono_net = nets.build_driver(
        "MonotoneY", nets.NetLayout(hidden=(8, 8)), init_seed=split_seed(config.seed, "mono"))
    base = engine.BsdeProblem(driver=mono_net, ensemble=ens)
    rep = engine.check_comparison(
        base,
        terminal_high=lambda e: np.abs(e.states[:, -1, 0]),
        terminal_low=lambda e: np.zeros(e.n_paths),
        basis=basis,
    )
    tol = 3.0 * rep.mc_noise
    checks.append(CheckResult("comparison_y0_order", rep.y0_gap >= -tol, rep.y0_gap, tol))

    # Operator convexity needs only a convex driver; the Jensen inequality
    # additionally needs f(., 0) = 0 and positive homogeneity in z, so it
    # runs on the homogeneous input-convex construction.
    icnn = nets.build_driver(
        "IcnnYZ", nets.NetLayout(hidden=(8, 8), activation="softplus"),
        init_seed=split_seed(config.seed, "icnn"))
    base = engine.BsdeProblem(driver=icnn, ensemble=ens)
    rep = engine.check_convexity_and_jensen(
        base,
        terminal_1=lambda e: e.states[:, -1, 0],
        terminal_2=lambda e: -e.states[:, -1, 0],
        lam=0.5,
        phi=engine.SmoothFunction.square(),
        basis=basis,
    )
    tol = 3.0 * max(rep.mc_noise, 1e-4)
    checks.append(CheckResult("operator_convexity", rep.delta_convexity >= -tol,
                              rep.delta_convexity, tol))

    hom = nets.build_homogeneous_icnn(init_seed=split_seed(config.seed, "icnn-hom"))
    base = engine.BsdeProblem(driver=hom, ensemble=ens)
    rep = engine.check_convexity_and_jensen(
        base,
        terminal_1=lambda e: e.states[:, -1, 0],
        terminal_2=lambda e: -e.states[:, -1, 0],
        lam=0.5,
        phi=engine.SmoothFunction.square(),
        basis=basis,
    )
    tol = 3.0 * max(rep.mc_noise, 1e-4)
    checks.append(CheckResult("jensen_gap", rep.delta_jensen >= -tol,
                              rep.delta_jensen, tol))

    ent = engine.BsdeProblem(
        driver=drivers.entropic_driver(1.0),
        terminal=lambda e: e.states[:, -1, 0],
        ensemble=ens,
    )
    rep = engine.check_dynamic_consistency(ent, grid.horizon / 2.0, basis)
    tol = 0.02 * abs(rep.y0_direct)
    checks.append(CheckResult("dynamic_consistency", rep.gap <= tol, rep.gap, tol))

    quad = engine.BsdeProblem(
        driver=drivers.quadratic_z_driver(1.0),
        terminal=lambda e: e.states[:, -1, 0],
        ensemble=ens,
    )
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
    grid = _build_grid(opt)
    theta_true = opt.get("theta_true", 1.5)
    theta_init = opt.get("theta_init", 0.3)
    n_paths = opt.get("n_paths", 4000)
    scales = opt.get("scales", [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0])

    if "dataset_csv" in opt:
        dataset = _read_file("dataset_csv", learning.read_dataset_csv, opt["dataset_csv"],
                             grid, n_paths=n_paths)
    else:
        oracle_draw = sample_brownian(grid, 200_000, 1,
                                      split_seed(config.seed, "train-oracle"))
        w_t = oracle_draw.terminal_motion()[:, 0]
        records = []
        for c in scales:
            obs = engine.closed_form_oracle("entropic", c * w_t, theta=theta_true)
            records.append(learning.DatasetRecord(
                terminal=(lambda cc: (lambda ens: cc * ens.states[:, -1, 0]))(c),
                observed=obs, label=f"scale-{c}"))
        dataset = learning.Dataset(records=tuple(records), grid=grid, n_paths=n_paths)

    schedule = learning.TrainSchedule(
        learning_rate=opt.get("learning_rate", 0.4),
        max_iters=opt.get("max_iters", 40),
        seed=split_seed(config.seed, "train"),
        loss_tol=opt.get("loss_tol"),
    )
    log_path = os.path.join(out_dir, "training_log.csv")
    state, final = learning.train(dataset, drivers.entropic_driver(theta_init), schedule,
                                  log_path=log_path)
    recovered = float(final.params[0])
    rel = abs(recovered - theta_true) / abs(theta_true)
    checks = [CheckResult("entropic_recovery", rel <= 0.05, recovered, 0.05,
                          f"target {theta_true}, rel err {rel:.4f}")]
    return checks, [log_path]


def _run_meanfield(config, out_dir, which):
    opt = config.options
    grid = _build_grid({"grid": opt.get("grid", {"T": 1.0, "n_steps": 50})})
    model_name = opt.get("model", "linear-gaussian-clt")
    if model_name not in meanfield.MODEL_REGISTRY:
        raise ConfigError("model", f"unknown mean-field model '{model_name}'")
    model = meanfield.MODEL_REGISTRY[model_name](**opt.get("model_params", {}))
    n_list = opt.get("N_list", [16, 64, 256, 1024])
    n_trials = opt.get("n_trials", 20)
    n_ref = opt.get("n_reference", 65536)

    if which == "meanfield-lln":
        res = meanfield.lln_experiment(model, n_list, grid, n_trials,
                                       split_seed(config.seed, "lln"), _basis(opt),
                                       n_reference=n_ref)
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
                                   split_seed(config.seed, "clt"), n_reference=n_ref,
                                   u0_std=opt.get("u0_std", 0.5))
    path = os.path.join(out_dir, "clt.csv")
    meanfield.export_clt_csv(res, path)
    checks = [CheckResult("clt_variance_stabilizes", res.stabilized(),
                          float(res.var_u[-1]), 0.0,
                          f"variances {res.var_u.tolist()}, se {res.var_u_se.tolist()}")]
    return checks, [path]


def _run_fbsde(config, out_dir):
    opt = config.options
    eps = opt.get("epsilon", 0.1)
    horizon = opt.get("grid", {}).get("T", 0.2)
    n_steps = opt.get("grid", {}).get("n_steps", 20)
    grid = make_time_grid(horizon, n_steps)
    n_paths = opt.get("n_paths", 20_000)
    bundle = sample_brownian(grid, n_paths, 1, split_seed(config.seed, "fbsde"))

    from .stochastic import ForwardModel
    model = ForwardModel(
        drift=lambda t, x, y, z: eps * y[:, None],
        diffusion=lambda t, x, y, z: 1.0,
        x0=np.array([0.5]),
        state_dim=1,
        coupled_in_yz=True,
    )
    res = engine.solve_fbsde_picard(
        model, grid, bundle,
        terminal=lambda ens: ens.states[:, -1, 0],
        driver=drivers.zero_driver(),
        basis=_basis(opt),
    )
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
    opt = config.options
    p = opt.get("params", {})
    params = merton.MarketParams(
        mu=p.get("mu", 0.08), r=p.get("r", 0.02), sigma=p.get("sigma", 0.2),
        gamma=p.get("gamma", 0.5), horizon=p.get("T", 1.0),
    )
    spec = merton.HjbGridSpec.default(params, n_space=opt.get("n_space", 160))
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

    thetas = opt.get("theta_list", [0.25, 0.5, 1.0])
    rep = merton.verify_ambiguity_properties(params, [0.0] + list(thetas), spec)
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
    p = opt.get("params", {})
    params = merton.MarketParams(
        mu=p.get("mu", 0.08), r=p.get("r", 0.02), sigma=p.get("sigma", 0.2),
        gamma=p.get("gamma", 0.5), horizon=p.get("T", 1.0),
    )
    spec = merton.HjbGridSpec.default(params, n_space=opt.get("n_space", 120))
    if "observations_csv" in opt:
        obs = _read_file("observations_csv", merton.read_observations_csv,
                         opt["observations_csv"])
        theta_true = None
    else:
        theta_true = opt.get("theta_true", 0.4)
        surface = merton.extract_policy(merton.solve_hjb(params, theta_true, spec))
        xs = [0.6, 0.8, 1.0, 1.25, 1.6]
        ts = [0.0, 0.25, 0.5]
        obs = [merton.AllocationObservation(t, x, surface(t, x) * x)
               for t in ts for x in xs]
    search = opt.get("search", {})
    result = merton.calibrate_theta(params, obs, spec,
                                    theta_lo=search.get("theta_lo", 0.0),
                                    theta_hi=search.get("theta_hi", 1.0),
                                    tol=search.get("tol", 1e-3))
    path = os.path.join(out_dir, "calibration_curve.csv")
    with open(path, "w", newline="") as fh:
        fh.write("theta,loss\n")
        for th, ls in result.curve:
            fh.write(f"{th!r},{ls!r}\n")
    if theta_true is not None:
        rel = abs(result.theta_star - theta_true) / max(abs(theta_true), 1e-12)
        checks = [CheckResult("calibration_recovery", rel <= 0.03, result.theta_star,
                              0.03, f"target {theta_true}, rel err {rel:.4f}")]
    else:
        checks = [CheckResult("calibration_finished", True, result.theta_star, 0.0)]
    return checks, [path]


_RUNNERS = {
    "solve": _run_solve,
    "oracle-suite": _run_oracle_suite,
    "verify-axioms": _run_verify_axioms,
    "train": _run_train,
    "meanfield-lln": lambda c, o: _run_meanfield(c, o, "meanfield-lln"),
    "meanfield-clt": lambda c, o: _run_meanfield(c, o, "meanfield-clt"),
    "fbsde": _run_fbsde,
    "merton": _run_merton,
    "calibrate": _run_calibrate,
}


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Dispatch to the owning module and assemble the report."""
    os.makedirs(config.out_dir, exist_ok=True)
    started = time.time()
    checks, artifacts = _RUNNERS[config.kind](config, config.out_dir)
    doc = config.to_dict()
    return RunReport(
        config=doc,
        config_hash=_config_hash(doc),
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
    for name in ("solve", "verify", "train", "meanfield", "fbsde", "merton", "calibrate"):
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
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        print(emit_report(report, args.format), end="")
        return 0 if report.passed else 1

    try:
        if args.threads is not None:
            _set_blas_threads(args.threads)
        config = _load_config(args.config, args.seed, args.out)
        if config.kind not in _SUBCOMMAND_KINDS[args.command]:
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
