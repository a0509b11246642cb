"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Each test pins the configuration and tolerance stated in the criterion; all
expected values come from closed forms, independent Monte Carlo oracles, or
ODE references computed in place.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bsdelab import meanfield as mf
from bsdelab import merton as mt
from bsdelab.drivers import (
    entropic_driver,
    linear_z_driver,
    quadratic_z_driver,
    scaled_constant_driver,
    zero_driver,
)
from bsdelab.engine import (
    BsdeProblem,
    RegressionBasis,
    SmoothFunction,
    SolveOptions,
    check_comparison,
    check_convexity_and_jensen,
    check_dynamic_consistency,
    closed_form_oracle,
    dual_lower_bound,
    solve_bsde_lsmc,
    solve_fbsde_picard,
    solve_truncated,
)
from bsdelab.errors import NoContractionError
from bsdelab.learning import (
    Dataset,
    DatasetRecord,
    TrainSchedule,
    fd_gradient_check,
    loss_and_gradient,
    train,
)
from bsdelab.nets import (
    NetLayout,
    build_driver,
    build_homogeneous_icnn,
    driver_gradients,
    eval_driver,
    verify_convexity,
    verify_monotone,
)
from bsdelab.stochastic import (
    ForwardModel,
    TimeGrid,
    brownian_model,
    make_time_grid,
    sample_brownian,
    simulate_forward,
    split_seed,
)

W_T = lambda ens: ens.states[:, -1, 0]


def report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number} ({name}): {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def brownian_problem(driver, n_paths, n_steps, seed, horizon=1.0):
    grid = make_time_grid(horizon, n_steps)
    ens = simulate_forward(brownian_model(1), grid, sample_brownian(grid, n_paths, 1, seed=seed))
    return BsdeProblem(driver=driver, terminal=W_T, ensemble=ens)


def test_criterion_1_oracle_equivalence():
    grid = make_time_grid(1.0, 50)
    bundle = sample_brownian(grid, 100_000, 1, seed=101)
    ens = simulate_forward(brownian_model(1), grid, bundle)
    w = bundle.terminal_motion()[:, 0]

    def solve(driver):
        return solve_bsde_lsmc(BsdeProblem(driver=driver, terminal=W_T, ensemble=ens)).y0

    y_zero = solve(zero_driver())
    ok_zero = abs(y_zero) <= 0.02

    y_lin = solve(linear_z_driver(0.3))
    ok_lin = abs(y_lin - 0.3) <= 0.02 * 0.3

    y_ent = solve(entropic_driver(1.0))
    mc_oracle = closed_form_oracle("entropic", w, theta=1.0)
    ok_ent = (abs(y_ent + 0.5) <= 0.02 * 0.5) and (abs(y_ent - mc_oracle) <= 0.02 * 0.5)

    report(1, "oracle equivalence", ok_zero and ok_lin and ok_ent,
           f"zero {y_zero:+.4f} (tol 0.02), linear {y_lin:+.4f} (target 0.3), "
           f"entropic {y_ent:+.4f} (target -0.5, mc oracle {mc_oracle:+.4f})")


def test_criterion_2_architectural_exactness():
    mono_violations = 0
    for seed in range(100):
        net = build_driver("MonotoneY", NetLayout(hidden=(8, 8)), init_seed=seed)
        rep = verify_monotone(net, n_samples=10_000, seed=seed)
        if not rep.passed:
            mono_violations += 1

    icnn_violations = 0
    for seed in range(100):
        net = build_driver("IcnnYZ", NetLayout(hidden=(8, 8), activation="softplus"),
                           init_seed=seed)
        rep = verify_convexity(net, n_segments=1_000, seed=seed, tol=0.0)
        if not rep.passed:
            icnn_violations += 1

    report(2, "architectural exactness",
           mono_violations == 0 and icnn_violations == 0,
           f"monotone violations {mono_violations}/100 nets x 1e4 points, "
           f"icnn midpoint violations {icnn_violations}/100 nets x 1e3 segments")


def test_criterion_3_gradient_correctness():
    # Part (a): analytic network gradients against central finite differences.
    rng = np.random.default_rng(5)
    h = 1e-5
    kinds = ["Free", "Separable", "BoundedInteraction", "MonotoneY", "IcnnYZ"]
    worst_net = 0.0
    for i in range(100):
        kind = kinds[i % 5]
        lay = NetLayout(state_dim=1 + i % 2, z_dim=1 + (i // 5) % 2, hidden=(5, 4),
                        n2_hidden=(3,),
                        activation="softplus" if kind == "IcnnYZ" else "tanh")
        net = build_driver(kind, lay, init_seed=i)
        t = rng.uniform(0, 1)
        x = rng.normal(size=lay.state_dim)
        y = rng.normal()
        z = rng.normal(size=lay.z_dim)
        g = driver_gradients(net, t, x, y, z)
        fd_y = (eval_driver(net, t, x, y + h, z) - eval_driver(net, t, x, y - h, z)) / (2 * h)
        worst_net = max(worst_net, abs(g.dy[0] - fd_y) / max(abs(fd_y), abs(g.dy[0]), 1e-8))
        for k in rng.choice(net.n_params, size=2, replace=False):
            bump = np.zeros(net.n_params)
            bump[k] = h
            fd = (eval_driver(net.with_params(net.theta + bump), t, x, y, z)
                  - eval_driver(net.with_params(net.theta - bump), t, x, y, z)) / (2 * h)
            worst_net = max(worst_net, abs(g.dtheta[0, k] - fd)
                            / max(abs(fd), abs(g.dtheta[0, k]), 1e-8))
    ok_net = worst_net <= 1e-6

    # Part (b): sensitivity system against finite differences of re-solves,
    # with the non-differentiable clip guardrail off.
    opts = SolveOptions(z_clip=None)
    worst_sens = 0.0
    cases = 0

    problem = brownian_problem(entropic_driver(1.0), 100_000, 25, seed=2)
    rep = fd_gradient_check(problem, coords=[0], h=1e-4, opts=opts)
    worst_sens = max(worst_sens, rep.max_relative_error)
    cases += 1
    ok_entropic = (abs(rep.sensitivity[0] + 0.5) <= 0.01 * 0.5
                   and abs(rep.finite_difference[0] + 0.5) <= 0.01 * 0.5)

    for driver, n_coords in ((linear_z_driver(0.3), 1),
                             (scaled_constant_driver(0.7, 2.5), 1)):
        rep = fd_gradient_check(brownian_problem(driver, 20_000, 20, seed=3),
                                coords=list(range(n_coords)), h=1e-4, opts=opts)
        worst_sens = max(worst_sens, rep.max_relative_error)
        cases += n_coords

    specs = [("Separable", NetLayout(hidden=(6,), n2_hidden=(4,)), 5),
             ("MonotoneY", NetLayout(hidden=(6,)), 5),
             ("Free", NetLayout(hidden=(6,)), 5),
             ("IcnnYZ", NetLayout(hidden=(5,), activation="softplus"), 2)]
    rng = np.random.default_rng(1)
    for kind, lay, n_coords in specs:
        net = build_driver(kind, lay, init_seed=4)
        coords = rng.choice(net.n_params, size=n_coords, replace=False)
        rep = fd_gradient_check(brownian_problem(net, 20_000, 20, seed=6),
                                coords=coords, h=1e-4, opts=opts)
        worst_sens = max(worst_sens, rep.max_relative_error)
        cases += n_coords
    ok_sens = worst_sens <= 1e-3 and cases >= 20

    report(3, "gradient correctness", ok_net and ok_sens and ok_entropic,
           f"net FD worst {worst_net:.2e} (tol 1e-6); sensitivity worst "
           f"{worst_sens:.2e} over {cases} cases (tol 1e-3); entropic dY0/dtheta "
           f"= -T/2 within 1%: {ok_entropic}")


def test_criterion_4_axiom_suite():
    grid = make_time_grid(1.0, 40)
    ens = simulate_forward(brownian_model(1), grid, sample_brownian(grid, 40_000, 1, seed=44))

    mono = build_driver("MonotoneY", NetLayout(hidden=(8, 8)), init_seed=7)
    comparison = check_comparison(
        BsdeProblem(driver=mono, ensemble=ens),
        terminal_high=lambda e: np.abs(W_T(e)),
        terminal_low=lambda e: np.zeros(e.n_paths),
    )
    ok_comp = comparison.y0_gap >= -3.0 * comparison.mc_noise

    icnn = build_driver("IcnnYZ", NetLayout(hidden=(8, 8), activation="softplus"),
                        init_seed=7)
    cvx = check_convexity_and_jensen(
        BsdeProblem(driver=icnn, ensemble=ens),
        terminal_1=W_T, terminal_2=lambda e: -W_T(e), lam=0.5,
        phi=SmoothFunction.square(),
    )
    ok_cvx = cvx.delta_convexity >= -3.0 * cvx.mc_noise

    hom = build_homogeneous_icnn(init_seed=9)
    jen = check_convexity_and_jensen(
        BsdeProblem(driver=hom, ensemble=ens),
        terminal_1=W_T, terminal_2=lambda e: -W_T(e), lam=0.5,
        phi=SmoothFunction.square(),
    )
    ok_jen = jen.delta_jensen >= -3.0 * jen.mc_noise

    dyn = check_dynamic_consistency(
        BsdeProblem(driver=entropic_driver(1.0), terminal=W_T, ensemble=ens),
        split_time=0.5,
    )
    ok_dyn = dyn.gap <= 0.02 * abs(dyn.y0_direct)

    quad_problem = BsdeProblem(driver=quadratic_z_driver(1.0), terminal=W_T, ensemble=ens)
    sol = solve_bsde_lsmc(quad_problem)
    dual = dual_lower_bound(quad_problem, [[0.0], [0.5], [1.0], [1.5]],
                            fenchel=lambda u: float(u @ u) / 2.0)
    tol = max(3.0 * sol.y0_standard_error, 0.02 * abs(sol.y0))
    ok_dual = (np.all(dual.values <= sol.y0 + tol)
               and dual.best_control[0] == 1.0
               and abs(dual.best_value - sol.y0) <= 0.02 * abs(sol.y0) + 3.0 * sol.y0_standard_error)

    report(4, "axiom suite", ok_comp and ok_cvx and ok_jen and ok_dyn and ok_dual,
           f"comparison gap {comparison.y0_gap:+.4f}, convexity {cvx.delta_convexity:+.4f}, "
           f"jensen {jen.delta_jensen:+.4f}, consistency gap {dyn.gap:.2e} "
           f"(<= 2% of {dyn.y0_direct:+.4f}), dual best {dual.best_value:+.4f} "
           f"vs y0 {sol.y0:+.4f} at u = {dual.best_control[0]}")


def test_criterion_5_truncation_scheme():
    problem = brownian_problem(zero_driver(), 50_000, 20, seed=55)
    full = solve_bsde_lsmc(problem)
    levels = [0.5, 1.0, 2.0, 4.0, 8.0]
    gaps = []
    exact_at_inactive = True
    for k in levels:
        trunc = solve_truncated(problem, k)
        gaps.append(abs(trunc.y0 - full.y0))
        if k > full.max_abs_y and trunc.y0 != full.y0:
            exact_at_inactive = False
    non_increasing = all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
    inactive_seen = levels[-1] > full.max_abs_y
    report(5, "truncation scheme",
           non_increasing and exact_at_inactive and inactive_seen and gaps[-1] == 0.0,
           f"gaps {['%.2e' % g for g in gaps]} for k in {levels}, "
           f"max|Y| {full.max_abs_y:.3f}, exact equality once inactive: "
           f"{exact_at_inactive}")


def test_criterion_6_fbsde_picard():
    def coupled(eps):
        return ForwardModel(drift=lambda t, x, y, z: eps * y[:, None],
                            diffusion=lambda t, x, y, z: 1.0,
                            x0=np.array([0.5]), state_dim=1, coupled_in_yz=True)

    grid = make_time_grid(0.2, 10)
    bundle = sample_brownian(grid, 20_000, 1, seed=66)
    zero_coupling = solve_fbsde_picard(coupled(0.0), grid, bundle, W_T, zero_driver())
    uncoupled = ForwardModel(drift=lambda t, x: 0.0, diffusion=lambda t, x: 1.0,
                             x0=np.array([0.5]), state_dim=1)
    decoupled = solve_bsde_lsmc(BsdeProblem(
        driver=zero_driver(), terminal=W_T, ensemble=simulate_forward(uncoupled, grid, bundle)))
    ok_zero = (zero_coupling.iterations == 1
               and zero_coupling.solution.y0 == decoupled.y0)

    contracting = solve_fbsde_picard(coupled(0.1), grid, bundle, W_T, zero_driver(),
                                     tol=1e-10)
    ratios = [b / a for a, b in zip(contracting.residuals, contracting.residuals[1:])
              if a > 1e-13]
    ok_geo = bool(ratios) and max(ratios) <= 0.5

    big_grid = make_time_grid(50.0, 50)
    big_bundle = sample_brownian(big_grid, 2_000, 1, seed=67)
    try:
        solve_fbsde_picard(coupled(0.1), big_grid, big_bundle, W_T, zero_driver())
        ok_large = False
    except NoContractionError:
        ok_large = True

    report(6, "fbsde picard", ok_zero and ok_geo and ok_large,
           f"zero coupling: 1 iteration exact; contraction ratios "
           f"{['%.3f' % r for r in ratios]} (<= 0.5); large horizon raises "
           f"no-contraction: {ok_large}")


def test_criterion_7_meanfield_lln():
    grid = make_time_grid(1.0, 50)
    model = mf.linear_gaussian_model()
    res = mf.lln_experiment(model, [16, 64, 256, 1024], grid, n_trials=20, seed=77,
                            n_reference=65536)
    total = res.err_x + res.err_y + res.err_z
    ok_decreasing = bool(np.all(np.diff(total) < 0))
    ok_slope = abs(res.slope + 1.0) <= 0.3

    control = mf.lln_experiment(mf.independent_model(), [16, 64], grid, n_trials=2,
                                seed=78, n_reference=1024)
    ok_control = bool(np.all(control.err_x == 0.0) and np.all(control.err_y == 0.0))

    report(7, "mean-field LLN", ok_decreasing and ok_slope and ok_control,
           f"errors {['%.2e' % e for e in total]} strictly decreasing: {ok_decreasing}; "
           f"slope {res.slope:+.3f} (target -1 +- 0.3); no-interaction error exactly 0: "
           f"{ok_control}")


def _clt_setup():
    a, c, sigma, m0, s0, u0_std = 0.4, -0.5, 0.4, 0.3, 0.3, 0.5
    model = mf.linear_gaussian_model(a=a, c=c, sigma=sigma, m0=m0, s0=s0)

    drift = np.array([[c, 0, 0], [a, a + c, 0], [a, a, c]])
    noise = np.array([sigma, 0.0, 0.0])

    def rhs(t, p):
        cov = p.reshape(3, 3)
        return (drift @ cov + cov @ drift.T + np.outer(noise, noise)).ravel()

    p0 = np.zeros((3, 3))
    p0[0, 0] = s0 ** 2
    ode = solve_ivp(rhs, (0.0, 1.0), p0.ravel(), rtol=1e-10, atol=1e-12)
    v_star = float(np.exp(2 * c) * u0_std ** 2 + ode.y[:, -1].reshape(3, 3)[2, 2])
    return model, a, c, u0_std, v_star


def test_criterion_8_meanfield_clt():
    grid = make_time_grid(1.0, 50)
    model, a, c, u0_std, v_star = _clt_setup()

    res = mf.clt_experiment(model, [256, 1024], grid, n_trials=40, seed=21,
                            n_reference=32768, u0_std=u0_std)
    ok_var = abs(res.var_u[-1] - v_star) <= 0.10 * v_star

    def u0(std):
        def sampler(n, seed):
            draw = sample_brownian(TimeGrid(1.0, 1), n, 1, split_seed(seed, "u0"))
            return std * draw.increments[:, 0, 0]
        return sampler

    mkv = mf.solve_mckean_vlasov(model, 16384, grid, seed=4, solve_backward=False)
    coeffs = mf.linear_gaussian_fluctuation_coefficients(a=a, c=c)

    base = mf.solve_fluctuation_system(coeffs, mkv, u0(u0_std), n_paths=1024, seed=5)
    doubled = mf.solve_fluctuation_system(coeffs, mkv, u0(2 * u0_std), n_paths=1024,
                                          seed=5)
    ok_linear = (np.array_equal(doubled.u, 2.0 * base.u)
                 and np.array_equal(doubled.v, 2.0 * base.v)
                 and np.array_equal(doubled.z, 2.0 * base.z))

    fl = mf.solve_fluctuation_system(coeffs, mkv, u0(u0_std), n_paths=16384, seed=77,
                                     n_worlds=64, include_sampling_noise=True)
    var_v = float(np.var(fl.v[:, -1], ddof=1))
    ok_cross = abs(var_v - res.var_v[-1]) <= 0.15 * res.var_v[-1]

    report(8, "mean-field CLT", ok_var and ok_linear and ok_cross,
           f"empirical var {res.var_u[-1]:.4f} vs analytic {v_star:.4f} "
           f"(within 10%: {ok_var}); linearity exact: {ok_linear}; "
           f"fluctuation-system var {var_v:.4f} vs empirical {res.var_v[-1]:.4f} "
           f"(within 15%: {ok_cross})")


def test_criterion_9_merton():
    params = mt.MarketParams(mu=0.08, r=0.02, sigma=0.2, gamma=0.5, horizon=1.0)
    cls = mt.classical_merton(params)
    ok_formula = abs(cls.pi - 3.0) <= 1e-12

    spec = mt.HjbGridSpec.default(params, n_space=160)
    grid0 = mt.solve_hjb(params, 0.0, spec)
    inner = grid0.interior
    ref = cls.value(grid0.times[:, None], grid0.wealth[None, :])
    val_err = float(np.max(np.abs(grid0.value[:, inner] - ref[:, inner])
                           / np.abs(ref[:, inner])))
    pol_err = float(np.max(np.abs(grid0.policy[:, inner] - cls.pi) / abs(cls.pi)))
    ok_oracle = val_err <= 0.005 and pol_err <= 0.02

    rep = mt.verify_ambiguity_properties(params, [0.0, 0.25, 0.5, 1.0], spec)
    ok_props = rep.caution_passed and rep.monotone_passed

    cal_spec = mt.HjbGridSpec.default(params, n_space=120)
    ok_cal = True
    recovered = []
    for theta_true in (0.1, 0.4, 0.8):
        surface = mt.extract_policy(mt.solve_hjb(params, theta_true, cal_spec))
        obs = [mt.AllocationObservation(t, x, surface(t, x) * x)
               for t in (0.0, 0.25, 0.5) for x in (0.6, 0.9, 1.0, 1.3)]
        res = mt.calibrate_theta(params, obs, cal_spec, 0.0, 1.0, tol=1e-3)
        recovered.append(res.theta_star)
        if abs(res.theta_star - theta_true) > 0.03 * theta_true:
            ok_cal = False

    report(9, "merton", ok_formula and ok_oracle and ok_props and ok_cal,
           f"pi_classical 3.0 exact: {ok_formula}; value err {val_err:.4f} "
           f"(tol 0.005), policy err {pol_err:.4f} (tol 0.02); caution and "
           f"theta-monotonicity: {ok_props}; calibration recovered "
           f"{['%.4f' % r for r in recovered]} for (0.1, 0.4, 0.8)")


def test_criterion_10_training_loop():
    grid = make_time_grid(1.0, 25)
    theta_true, theta_init = 1.5, 0.3
    oracle_draw = sample_brownian(grid, 400_000, 1, split_seed(110, "train-oracle"))
    w = oracle_draw.terminal_motion()[:, 0]
    scales = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0]
    records = tuple(
        DatasetRecord(
            terminal=(lambda cc: (lambda ens: cc * W_T(ens)))(c),
            observed=closed_form_oracle("entropic", c * w, theta=theta_true),
            label=f"scale-{c}",
        )
        for c in scales
    )
    dataset = Dataset(records=records, grid=grid, n_paths=4_000)
    schedule = TrainSchedule(learning_rate=0.4, max_iters=40, seed=110)
    state, final = train(dataset, entropic_driver(theta_init), schedule)
    recovered = float(final.params[0])
    ok_recovery = abs(recovered - theta_true) <= 0.05 * theta_true

    state2, final2 = train(dataset, entropic_driver(theta_init), schedule)
    ok_repro = (np.array_equal(state.loss_history, state2.loss_history)
                and np.array_equal(final.params, final2.params))

    # Constraints after every step of a short run, for both constrained kinds.
    short = Dataset(records=records[:2], grid=make_time_grid(1.0, 10), n_paths=1_000)
    bundle = sample_brownian(short.grid, short.n_paths, 1, split_seed(111, "steps"))
    ok_constraints = True
    for kind, lay, check in (
        ("MonotoneY", NetLayout(hidden=(5,)),
         lambda d: verify_monotone(d, n_samples=1_000, seed=0).passed),
        ("IcnnYZ", NetLayout(hidden=(5,), activation="softplus"),
         lambda d: verify_convexity(d, n_segments=400, seed=0, tol=0.0).passed),
    ):
        driver = build_driver(kind, lay, init_seed=2)
        for step in range(5):
            grad = loss_and_gradient(short, driver, bundle=bundle).gradient
            driver = driver.with_params(driver.params - 0.05 * grad)
            if not check(driver):
                ok_constraints = False

    report(10, "training loop", ok_recovery and ok_repro and ok_constraints,
           f"recovered theta {recovered:.4f} (target 1.5, tol 5%); bitwise "
           f"reproducible: {ok_repro}; constraints after every step: {ok_constraints}")
