import gc
import itertools
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from bsdelab import engine, stochastic
from bsdelab.drivers import (
    AnalyticDriver,
    TruncatedDriver,
    entropic_driver,
    linear_z_driver,
    quadratic_z_driver,
    scaled_constant_driver,
    zero_driver,
)
from bsdelab.engine import (
    BsdeProblem,
    RegressionBasis,
    RegressionPlan,
    SmoothFunction,
    SolveOptions,
    check_comparison,
    check_convexity_and_jensen,
    check_dynamic_consistency,
    closed_form_oracle,
    dual_lower_bound,
    effective_drift_decomposition,
    export_solution_csv,
    solve_bsde_lsmc,
    solve_bsde_many,
    solve_fbsde_picard,
    solve_truncated,
)
from bsdelab.errors import (
    InvalidComparisonPairError,
    InvalidDriverError,
    NoContractionError,
    OracleOverflowError,
    SingularRegressionError,
    SolverDivergedError,
)
from bsdelab.learning import Dataset, DatasetRecord, loss_and_gradient, solve_sensitivity_bsde
from bsdelab.nets import NetLayout, build_driver, build_homogeneous_icnn
from bsdelab.stochastic import (
    BrownianBundle,
    ForwardModel,
    PathEnsemble,
    brownian_model,
    make_time_grid,
    sample_brownian,
    simulate_forward,
)

import lstsq_reference

W_T = lambda ens: ens.states[:, -1, 0]


def brownian_problem(driver, n_paths=20_000, n_steps=25, horizon=1.0, seed=11,
                     terminal=W_T):
    grid = make_time_grid(horizon, n_steps)
    ens = simulate_forward(brownian_model(1), grid, sample_brownian(grid, n_paths, 1, seed=seed))
    return BsdeProblem(driver=driver, terminal=terminal, ensemble=ens)


class TestClosedFormOracle:
    def test_zero_kind_is_mean(self):
        assert closed_form_oracle("zero", [1.0, 2.0, 3.0]) == 2.0

    def test_entropic_small_theta_limit(self):
        rng = np.random.default_rng(0)
        xi = rng.normal(size=50_000)
        near = closed_form_oracle("entropic", xi, theta=1e-4)
        assert abs(near - xi.mean()) <= 1e-3

    def test_entropic_gaussian_mgf(self):
        grid = make_time_grid(1.0, 1)
        xi = sample_brownian(grid, 1_000_000, 1, seed=3).terminal_motion()[:, 0]
        val = closed_form_oracle("entropic", xi, theta=1.0)
        assert val == pytest.approx(-0.5, rel=0.005)

    def test_linear_reweighting(self):
        grid = make_time_grid(1.0, 1)
        w = sample_brownian(grid, 500_000, 1, seed=5).terminal_motion()
        val = closed_form_oracle("linear", w[:, 0], horizon=1.0, b=0.3,
                                 terminal_motion=w)
        assert val == pytest.approx(0.3, abs=0.01)

    def test_overflow_raises(self):
        with pytest.raises(OracleOverflowError):
            closed_form_oracle("entropic", [1e308, -1e308], theta=10.0)

    def test_linear_motion_shapes(self):
        grid = make_time_grid(1.0, 1)
        w = sample_brownian(grid, 1_000, 2, seed=5).terminal_motion()
        xi = w[:, 0]
        flat = closed_form_oracle("linear", xi, horizon=1.0, b=0.3, terminal_motion=w[:, 0])
        column = closed_form_oracle("linear", xi, horizon=1.0, b=0.3,
                                    terminal_motion=w[:, :1])
        assert flat == column
        closed_form_oracle("linear", xi, horizon=1.0, b=[0.3, 0.1], terminal_motion=w)
        # A (d, m) array used to be transposed silently.
        with pytest.raises(ValueError):
            closed_form_oracle("linear", xi, horizon=1.0, b=[0.3, 0.1], terminal_motion=w.T)
        with pytest.raises(ValueError):
            closed_form_oracle("linear", xi, horizon=1.0, b=0.3, terminal_motion=w[:500, 0])

    def test_validation(self):
        with pytest.raises(ValueError):
            closed_form_oracle("zero", [])
        with pytest.raises(ValueError):
            closed_form_oracle("entropic", [1.0], theta=0.0)
        with pytest.raises(ValueError):
            closed_form_oracle("nope", [1.0])

    @given(hst.lists(hst.floats(-20, 20), min_size=2, max_size=32),
           hst.floats(0.05, 2.0), hst.floats(0.05, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_entropic_monotone_in_aversion(self, xs, t1, dt):
        # The certainty equivalent decreases as aversion grows.
        lo = closed_form_oracle("entropic", xs, theta=t1)
        hi = closed_form_oracle("entropic", xs, theta=t1 + dt)
        assert hi <= lo + 1e-9
        assert hi <= float(np.mean(xs)) + 1e-9


class TestSolver:
    def test_terminal_anchoring_exact(self):
        problem = brownian_problem(entropic_driver(0.5), n_paths=2_000, n_steps=10)
        sol = solve_bsde_lsmc(problem)
        xi = problem.terminal(problem.ensemble)
        np.testing.assert_array_equal(sol.y[:, -1], xi)

    def test_zero_driver_y0_is_mean(self):
        problem = brownian_problem(zero_driver(), n_paths=5_000, n_steps=15)
        sol = solve_bsde_lsmc(problem)
        xi = problem.terminal(problem.ensemble)
        assert sol.y0 == pytest.approx(xi.mean(), abs=1e-12)

    @pytest.mark.parametrize("n_paths", [1_000, 10_000, 100_000])
    def test_oracle_equivalence_within_mc_error(self, n_paths):
        grid = make_time_grid(1.0, 20)
        bundle = sample_brownian(grid, n_paths, 1, seed=29)
        ens = simulate_forward(brownian_model(1), grid, bundle)
        w = bundle.terminal_motion()
        cases = [
            (zero_driver(), closed_form_oracle("zero", w[:, 0])),
            (linear_z_driver(0.3),
             closed_form_oracle("linear", w[:, 0], horizon=1.0, b=0.3,
                                terminal_motion=w)),
            (entropic_driver(1.0), closed_form_oracle("entropic", w[:, 0], theta=1.0)),
        ]
        for driver, oracle in cases:
            sol = solve_bsde_lsmc(BsdeProblem(driver=driver, terminal=W_T, ensemble=ens))
            assert abs(sol.y0 - oracle) <= 3.0 * sol.y0_standard_error

    def test_grid_refinement_improves(self):
        errors = []
        for n_steps in (10, 20, 40):
            problem = brownian_problem(entropic_driver(1.0), n_paths=200_000,
                                       n_steps=n_steps, seed=17)
            errors.append(abs(solve_bsde_lsmc(problem).y0 + 0.5))
        assert errors[2] < errors[0]

    def test_three_level_refinement_differences_shrink(self):
        # |Y0(n) - Y0(2n)| decreases when n doubles, on a smooth example with
        # a genuine first-order time bias (drift-dominated forward, where the
        # Euler mean is x0 (1 + mu dt)^n). Coarser bundles aggregate the fine
        # increments, so the comparison is noise-coupled.
        from bsdelab.stochastic import geometric_brownian_model
        m = 50_000
        fine = sample_brownian(make_time_grid(1.0, 40), m, 1, seed=53)
        model = geometric_brownian_model(1.0, 0.05, 1.0)

        def solve_at(n_steps):
            grid = make_time_grid(1.0, n_steps)
            ratio = 40 // n_steps
            inc = fine.increments.reshape(m, n_steps, ratio, 1).sum(axis=2)
            bundle = BrownianBundle(increments=inc, dt=grid.dt, seed=53)
            problem = BsdeProblem(driver=zero_driver(), terminal=W_T,
                                  ensemble=simulate_forward(model, grid, bundle))
            return solve_bsde_lsmc(problem).y0

        y10, y20, y40 = solve_at(10), solve_at(20), solve_at(40)
        assert abs(y20 - y40) < abs(y10 - y20)
        # the gap tracks the analytic Euler-mean difference
        assert abs(y10 - y20) == pytest.approx(abs(1.1 ** 10 - 1.05 ** 20), rel=0.05)

    def test_standard_error_matches_the_forward_euler_sum(self):
        # The sweep sums Y_k - C_k from the last step back; summed forward,
        # with C_k projected again from the plan, the standard error moves
        # by at most 4 ulps.
        problem = brownian_problem(entropic_driver(1.0), n_paths=5_000, n_steps=20)
        terminals = [W_T, lambda e: np.cos(W_T(e)), lambda e: W_T(e) ** 2]
        for sols in ([solve_bsde_lsmc(problem)], solve_bsde_many(problem, terminals)):
            y = np.stack([sol.y.T for sol in sols])
            euler = np.zeros((len(sols), y.shape[2]))
            for k in range(y.shape[1] - 1):
                design, fit = sols[0].plan.step(k)
                euler += y[:, k] - fit.project(design, y[:, k + 1])
            for sol, xi, path_sum in zip(sols, y[:, -1], euler):
                se = np.std(xi + path_sum, ddof=1) / np.sqrt(len(xi))
                assert abs(sol.y0_standard_error - se) <= 4 * np.spacing(se)

    def test_a_solve_keeps_only_its_y_and_z_paths(self):
        # Per-step work allocates a few (m,) rows whatever the step count,
        # so a third (n, m) buffer would exceed the bound by n - 32 rows.
        m, n = 10_000, 100
        problem = brownian_problem(entropic_driver(1.0), n_paths=m, n_steps=n)
        tracemalloc.start()
        try:
            sol = solve_bsde_lsmc(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sol.y.nbytes + sol.z.nbytes + 32 * 8 * m

    def test_singular_regression_detected(self):
        grid = make_time_grid(1.0, 2)
        bundle = sample_brownian(grid, 64, 1, seed=1)
        states = np.zeros((64, 3, 1))
        states[:, 1, 0] = np.repeat([0.0, 1.0], 32)   # rank-2 cubic design
        states[:, 2, 0] = np.linspace(-1, 1, 64)
        ens = PathEnsemble(states=states, grid=grid, bundle=bundle)
        problem = BsdeProblem(driver=zero_driver(), terminal=W_T, ensemble=ens)
        with pytest.raises(SingularRegressionError) as info:
            solve_bsde_lsmc(problem)
        assert info.value.step == 1

    def test_export_csv(self, tmp_path):
        problem = brownian_problem(entropic_driver(1.0), n_paths=2_000, n_steps=8)
        sol = solve_bsde_lsmc(problem)
        path = tmp_path / "solution.csv"
        export_solution_csv(sol, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "step,t,mean_Y,sd_Y,mean_normZ,clip_count,regression_cond"
        assert len(rows) == 1 + 8 + 1


def reference_problem(name, d):
    grid = make_time_grid(1.0, 8)
    ens = simulate_forward(brownian_model(d), grid, sample_brownian(grid, 3_000, d, seed=21))
    terminal = lambda e: np.sin(e.states[:, -1, 0]) + 0.3 * e.states[:, -1, -1] ** 2
    return BsdeProblem(driver=reference_driver(name, d), terminal=terminal, ensemble=ens)


def reference_driver(name, d):
    net = build_driver("Free", NetLayout(state_dim=d, z_dim=d, hidden=(5, 4)), init_seed=3 + d)
    return {
        "zero": zero_driver(),
        "linear": linear_z_driver([0.3, -0.2][:d]),
        "entropic": entropic_driver(1.0),
        "free-net": net,
        "truncated": TruncatedDriver(net, 0.4),
    }[name]


class TestSolveOptions:
    @pytest.mark.parametrize("field, value", [
        ("inner_picard_iters", 0), ("inner_picard_iters", 1.5), ("inner_picard_iters", True),
        ("z_clip", 0.0), ("z_clip", -1.0), ("z_clip", np.inf), ("z_clip", np.nan),
        ("z_clip", "10"),
    ])
    def test_out_of_range_values_raise(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolveOptions(**{field: value})

    def test_valid_values(self):
        opts = SolveOptions(inner_picard_iters=np.int64(1), z_clip=3)
        assert opts.inner_picard_iters == 1 and opts.z_clip == 3
        assert SolveOptions(z_clip=None).z_clip is None


class TestRegressionBasis:
    @pytest.mark.parametrize("degree", [-1, True, 1.5, np.nan, "3"])
    def test_bad_degree_raises(self, degree):
        with pytest.raises(ValueError, match="degree"):
            RegressionBasis(degree=degree)

    def test_numpy_integer_degree(self):
        x = np.linspace(-1.0, 1.0, 50)[:, None]
        design, _ = RegressionBasis(degree=np.int64(2)).fit_design(x)
        assert design.shape == (50, 3)


def z_clip_cases():
    """Named (r, m) inputs for the clip: outliers, ties, infinities, NaNs
    and signed zeros, each with some rows unlike the others."""
    rng = np.random.default_rng(17)
    random = rng.standard_normal((6, 41))
    random[:, ::7] *= 50.0
    ties = rng.integers(-3, 4, size=(6, 40)).astype(np.float64)
    ties[0] = 1.0
    infinite = rng.standard_normal((6, 23))
    infinite[rng.random(infinite.shape) < 0.2] = np.inf
    infinite[rng.random(infinite.shape) < 0.2] = -np.inf
    infinite[4, :12] = np.inf
    infinite[5, 11:] = -np.inf
    nan = rng.standard_normal((6, 19))
    nan[1, 3] = nan[3, :4] = nan[4] = np.nan
    zeros = rng.integers(-1, 2, size=(8, 30)).astype(np.float64)
    zeros[rng.random(zeros.shape) < 0.5] = 0.0
    zeros[rng.random(zeros.shape) < 0.5] = -0.0
    cases = {"random": random, "ties": ties, "inf": infinite, "nan": nan, "signed-zeros": zeros}
    for m in range(1, 13):
        cases[f"m={m}"] = np.round(2.0 * rng.standard_normal((5, m))) + rng.random((5, m)) * (m % 2)
    for shape in ((1, 100_000), (10, 4_000)):
        cases[f"{shape}"] = rng.standard_t(3, size=shape)
    return cases


Z_CLIP_CASES = z_clip_cases()


class TestZClip:
    """The partitioned quartiles against np.percentile, and the clip against
    its vectorised np.percentile form in lstsq_reference.

    Quartiles are compared by value, not by bits: on rows mixing -0.0 and
    +0.0 a zero quartile may come out with the other sign. The clip is
    compared by bits all the same. A zero median's sign cannot reach
    med +- mult * IQR when the IQR is above 0, and with an IQR of 0 (or
    NaN) no value is clipped.
    """

    @staticmethod
    def _errstate(z):
        # inf - inf in the interpolation warns in np.percentile as here.
        return np.errstate(invalid="ignore" if not np.isfinite(z).all() else "raise")

    @pytest.mark.parametrize("name", list(Z_CLIP_CASES))
    def test_quartiles_equal_percentile(self, name):
        z = Z_CLIP_CASES[name]
        before = z.copy()
        with self._errstate(z):
            got = engine._quartiles(z)
            want = np.percentile(z, [25.0, 50.0, 75.0], axis=1, keepdims=True)
        for g, w in zip(got, want, strict=True):
            assert g.shape == (z.shape[0], 1)
            np.testing.assert_array_equal(g, w)
        np.testing.assert_array_equal(z.view(np.int64), before.view(np.int64))

    @pytest.mark.parametrize("mult", [0.5, 2.0, 10.0])
    @pytest.mark.parametrize("name", list(Z_CLIP_CASES))
    def test_clip_matches_percentile_oracle(self, name, mult):
        z = Z_CLIP_CASES[name]
        before = z.copy()
        with self._errstate(z):
            clipped, counts = engine._clip_z(z, mult)
            ref, ref_counts = lstsq_reference.percentile_clip_z(z, mult)
        np.testing.assert_array_equal(clipped.view(np.int64), ref.view(np.int64))
        # A NaN entry counts as clipped: the count is of entries the clip changed.
        np.testing.assert_array_equal(counts, ref_counts + np.count_nonzero(np.isnan(z), axis=1))
        np.testing.assert_array_equal(z.view(np.int64), before.view(np.int64))

    def test_clip_cases_clip(self):
        for name in ("random", "(1, 100000)", "(10, 4000)"):
            assert engine._clip_z(Z_CLIP_CASES[name], 2.0)[1].sum() > 0

    def test_finite_rows_skip_percentile(self, monkeypatch):
        def no_percentile(*args, **kwargs):
            raise AssertionError("np.percentile called on finite rows of m >= 4")
        monkeypatch.setattr(np, "percentile", no_percentile)
        for name, z in Z_CLIP_CASES.items():
            if z.shape[1] >= 4 and np.isfinite(z).all():
                engine._clip_z(z, 2.0)


class TestProjectionLayer:
    """The R-factor projection against the lstsq solve it replaced."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("name", ["zero", "linear", "entropic", "free-net", "truncated"])
    def test_backward_solve_matches_lstsq(self, name, d):
        problem = reference_problem(name, d)
        ens, terminal = problem.ensemble, problem.terminal
        for z_clip in (None, 0.5):
            opts = SolveOptions(z_clip=z_clip)
            sol = solve_bsde_lsmc(problem, opts=opts)
            if z_clip is not None:
                assert sol.z_clip_count.sum() > 0
            y, z = lstsq_reference.backward_solve(ens, terminal(ens), problem.driver, opts)
            assert abs(sol.y0 - y[0, 0]) <= 1e-12
            assert np.max(np.abs(sol.y - y)) <= 1e-11 * np.max(np.abs(y))
            assert np.max(np.abs(sol.z - z)) <= 1e-11 * np.max(np.abs(z))

    def test_picard_matches_lstsq(self):
        grid = make_time_grid(0.2, 10)
        bundle = sample_brownian(grid, 20_000, 1, seed=7)
        model = coupled_drift_model(0.1)
        res = solve_fbsde_picard(model, grid, bundle, W_T, zero_driver(), tol=1e-10)
        y0 = lstsq_reference.picard_y0(model, grid, bundle, W_T, zero_driver(), SolveOptions(),
                                       tol=1e-10)
        assert abs(res.solution.y0 - y0) <= 1e-10

    def test_stored_fits_are_reused(self, monkeypatch):
        # The adjoint and the Picard fields project with the primary's fits.
        problem = brownian_problem(entropic_driver(1.0), n_paths=2_000, n_steps=6)
        sol = solve_bsde_lsmc(problem)
        assert len(sol.plan.fits) == 6

        def no_factorization(*args, **kwargs):
            raise AssertionError("a design was factored again")

        monkeypatch.setattr(engine.lapack_lite, "dgeqrf", no_factorization)
        monkeypatch.setattr(np.linalg, "svd", no_factorization)
        solve_sensitivity_bsde(sol)
        engine._fit_fields(sol)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_design_matches_cumprod_build(self, d):
        # The direct build multiplies in the order the cumprod build did, so
        # the designs are equal bit for bit, degenerate coordinates included.
        rng = np.random.default_rng(d)
        for degree in range(5):
            for dead in itertools.product([False, True], repeat=d):
                x = 1.0 + 3.0 * rng.standard_normal((400, d))
                x[:, list(dead)] = 0.7
                design, tr = RegressionBasis(degree).fit_design(x)
                _, (_, _, exponents) = lstsq_reference.fit_design(x, degree)
                assert tr.exponents == tuple(exponents)
                np.testing.assert_array_equal(design, lstsq_reference.cumprod_apply(tr, x))
                y = 2.0 * rng.standard_normal((50, d))
                np.testing.assert_array_equal(tr.apply(y), lstsq_reference.cumprod_apply(tr, y))

    def test_rank_rule(self):
        design = np.column_stack([np.ones(10), np.arange(10.0), 2.0 * np.arange(10.0)])
        with pytest.raises(SingularRegressionError) as info:
            engine.fit_projection(design, step=4, cond_limit=1e12)
        assert info.value.step == 4
        x = np.linspace(-1.0, 1.0, 50)
        design = np.column_stack([np.ones(50), x, x ** 2])
        fit = engine.fit_projection(design, step=0, cond_limit=1e12)
        s = np.linalg.svd(design, compute_uv=False)
        assert fit.cond == pytest.approx(s[0] / s[-1], rel=1e-12)
        with pytest.raises(SingularRegressionError):
            engine.fit_projection(design, step=0, cond_limit=0.5 * fit.cond)

    @staticmethod
    def factored_r(monkeypatch, design, **kwargs):
        """The R that fit_projection hands to its singular value decomposition."""
        seen = []
        svd = np.linalg.svd

        def spy(r, *args, **kw):
            seen.append(r.copy())
            return svd(r, *args, **kw)

        monkeypatch.setattr(np.linalg, "svd", spy)
        try:
            engine.fit_projection(design, step=0, cond_limit=np.inf, **kwargs)
        except SingularRegressionError:
            pass
        return seen[0]

    @pytest.mark.parametrize("shape, dead", [((2_000, 4), None), ((6, 6), None), ((3, 5), None),
                                             ((300, 1), None), ((500, 4), 2)],
                             ids=["tall", "square", "wide", "one-column", "dead-column"])
    def test_r_has_the_bits_of_numpy_qr(self, monkeypatch, shape, dead):
        # Factored in place, in a fresh buffer or in a reused wider workspace,
        # R is the bits of numpy's QR of the same design.
        design = np.random.default_rng(sum(shape)).standard_normal(shape)
        if dead is not None:
            design[:, dead] = 0.0
        expected = np.linalg.qr(design, mode="r")
        workspace = np.full((shape[1] + 2, shape[0]), np.nan)
        for kwargs in ({}, {"work": workspace}, {"work": workspace}):
            np.testing.assert_array_equal(self.factored_r(monkeypatch, design, **kwargs),
                                          expected)

    def test_wide_design_is_singular_with_the_qr_condition_number(self):
        design = np.random.default_rng(5).standard_normal((3, 5))
        sv = np.linalg.svd(np.linalg.qr(design, mode="r"), compute_uv=False)
        with pytest.raises(SingularRegressionError) as info:
            engine.fit_projection(design, step=6, cond_limit=1e12)
        assert info.value.step == 6
        assert info.value.cond == float(sv[0] / sv[-1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_design_raises_linalg_error(self, bad):
        design = np.random.default_rng(6).standard_normal((40, 3))
        design[7, 1] = bad
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            engine.fit_projection(design, step=0, cond_limit=1e12)

    def test_factoring_in_a_workspace_copies_no_column(self):
        m = 20_000
        design = np.random.default_rng(7).standard_normal((m, 4))
        work = np.empty((4, m))
        tracemalloc.start()
        try:
            engine.fit_projection(design, step=0, cond_limit=1e12, work=work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * m   # less than one column of the design


class TestRegressionPlan:
    """The per-ensemble plan: later solves reuse the first solve's fits."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("name", ["zero", "entropic", "free-net", "truncated"])
    def test_plan_solve_is_bit_identical(self, name, d):
        # First solve (factors), second solve (reuses), and a solve on an
        # equal copy of the ensemble (factors its own plan) agree bit for bit.
        problem = reference_problem(name, d)
        ens = problem.ensemble
        basis, opts = RegressionBasis(), SolveOptions(z_clip=0.5)
        first = solve_bsde_lsmc(problem, basis, opts)
        second = solve_bsde_lsmc(problem, basis, opts)
        equal_copy = PathEnsemble(states=ens.states.copy(), grid=ens.grid, bundle=ens.bundle)
        fresh = solve_bsde_lsmc(replace(problem, ensemble=equal_copy), basis, opts)
        assert first.z_clip_count.sum() > 0
        assert second.plan is first.plan and fresh.plan is not first.plan
        for other in (second, fresh):
            assert other.y0 == first.y0
            np.testing.assert_array_equal(other.y, first.y)
            np.testing.assert_array_equal(other.z, first.z)
            np.testing.assert_array_equal(other.z_clip_count, first.z_clip_count)
            np.testing.assert_array_equal(solve_sensitivity_bsde(other).grad_y0,
                                          solve_sensitivity_bsde(first).grad_y0)

    def test_build_names_the_solves_singular_step(self):
        # Steps 1 and 2 are both rank deficient; the backward walk meets step 2
        # first, and a second solve on the partly filled plan meets it again.
        grid = make_time_grid(1.0, 3)
        bundle = sample_brownian(grid, 60, 1, seed=1)
        states = np.zeros((60, 4, 1))
        states[:, 1, 0] = np.repeat([0.0, 1.0], 30)
        states[:, 2, 0] = np.repeat([0.0, 1.0, 3.0], 20)
        states[:, 3, 0] = np.linspace(-1, 1, 60)
        ens = PathEnsemble(states=states, grid=grid, bundle=bundle)
        problem = BsdeProblem(driver=zero_driver(), terminal=W_T, ensemble=ens)
        with pytest.raises(SingularRegressionError) as first:
            solve_bsde_lsmc(problem)
        with pytest.raises(SingularRegressionError) as second:
            solve_bsde_lsmc(problem)
        assert first.value.step == second.value.step == 2
        assert first.value.cond == second.value.cond

    def test_solves_on_one_ensemble_factor_each_step_once(self, factorizations):
        problem = reference_problem("entropic", 1)
        n = problem.ensemble.grid.n_steps
        solve_bsde_lsmc(problem)
        solve_bsde_lsmc(replace(problem, driver=zero_driver()))
        solve_truncated(problem, 0.5)
        assert sorted(factorizations) == list(range(n))

    def test_check_comparison_factors_each_step_once(self, factorizations):
        problem = brownian_problem(zero_driver(), n_paths=2_000, n_steps=8)
        check_comparison(problem, lambda e: W_T(e) + 1.0, W_T)
        assert sorted(factorizations) == list(range(8))

    def test_a_problem_is_simulated_and_factored_once(self, factorizations, simulations):
        # Built by the caller, the problem's ensemble serves every solve and
        # check on it: the library simulates nothing and factors each step once.
        problem = brownian_problem(entropic_driver(1.0), n_paths=2_000, n_steps=8)
        for driver in (zero_driver(), linear_z_driver(0.3), entropic_driver(1.0)):
            solve_bsde_lsmc(replace(problem, driver=driver))
        check_dynamic_consistency(problem, 0.5)
        dual_lower_bound(replace(problem, driver=quadratic_z_driver(1.0)), [[0.0], [1.0]],
                         fenchel=lambda u: float(u @ u) / 2.0)
        assert simulations == []
        assert sorted(factorizations) == list(range(8))

    def test_a_problem_needs_its_ensemble(self):
        with pytest.raises(TypeError):
            BsdeProblem(driver=zero_driver(), terminal=W_T)
        dataset = Dataset(records=(DatasetRecord(terminal=W_T, observed=0.0),),
                          grid=make_time_grid(1.0, 4), n_paths=100)
        with pytest.raises(ValueError, match="bundle or an ensemble"):
            loss_and_gradient(dataset, zero_driver())

    def test_workspace_lives_until_every_step_is_factored(self):
        problem = reference_problem("entropic", 1)
        plan = RegressionPlan.of(problem.ensemble, RegressionBasis())
        n = len(plan.fits)
        plan.step(n - 1)
        work = plan._work
        assert work.shape == (4, 3_000)
        for k in reversed(range(n - 1)):
            assert plan._work is work
            plan.step(k)
        assert plan._work is None
        plan.step(n - 1)
        assert plan._work is None
        assert solve_bsde_lsmc(problem).plan is plan

    def test_plan_is_keyed_by_ensemble_and_basis(self, factorizations):
        problem = reference_problem("entropic", 1)
        ens = problem.ensemble
        n = ens.grid.n_steps
        basis, opts = RegressionBasis(), SolveOptions()
        plan = solve_bsde_lsmc(problem, basis, opts).plan
        assert RegressionPlan.of(ens, RegressionBasis()) is plan
        equal_copy = PathEnsemble(states=ens.states, grid=ens.grid, bundle=ens.bundle)
        others = [
            solve_bsde_lsmc(replace(problem, ensemble=equal_copy), basis, opts).plan,
            solve_bsde_lsmc(problem, RegressionBasis(degree=2), opts).plan,
        ]
        assert len({id(p) for p in [plan] + others}) == 3
        assert len(factorizations) == 3 * n

    def test_dropped_ensemble_is_freed_without_the_cycle_collector(self):
        problem = reference_problem("entropic", 1)
        sol = solve_bsde_lsmc(problem)
        ref = weakref.ref(sol.problem.ensemble)
        gc.disable()
        try:
            del problem, sol
            assert ref() is None
        finally:
            gc.enable()


def assert_close(batched, reference, rel=1e-12):
    reference = np.asarray(reference, dtype=np.float64)
    scale = max(float(np.max(np.abs(reference))), 1e-300)
    assert float(np.max(np.abs(np.asarray(batched) - reference))) <= rel * scale


class TestBatchedSweep:
    """One backward sweep for several terminals against one solve per terminal."""

    OPTS = (SolveOptions(), SolveOptions(z_clip=0.5, inner_picard_iters=3))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("name", ["entropic", "free-net", "truncated"])
    def test_single_terminal_is_bit_identical(self, name, d):
        problem = reference_problem(name, d)
        basis, opts = RegressionBasis(), SolveOptions(z_clip=0.5)
        (many,) = solve_bsde_many(problem, [problem.terminal], basis, opts)
        solo = solve_bsde_lsmc(problem, basis, opts)
        assert solo.z_clip_count.sum() > 0
        assert many.problem is problem and many.plan is solo.plan
        for field in ("y", "z", "z_clip_count"):
            np.testing.assert_array_equal(getattr(many, field), getattr(solo, field))
        for field in ("y0", "y0_standard_error", "passes", "max_abs_y"):
            assert getattr(many, field) == getattr(solo, field)
        np.testing.assert_array_equal(solve_sensitivity_bsde(many).grad_y0,
                                      solve_sensitivity_bsde(solo).grad_y0)

    @pytest.mark.parametrize("opts", OPTS, ids=["default", "clip-0.5-passes-3"])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("name", ["zero", "linear", "entropic", "free-net", "truncated"])
    def test_matches_one_solve_per_terminal(self, name, d, opts):
        problem = reference_problem(name, d)
        terminals = [problem.terminal,
                     lambda e: 2.0 * e.states[:, -1, -1],
                     lambda e: np.cos(3.0 * e.states[:, -1, 0]) - 0.5]
        batched = solve_bsde_many(problem, terminals, opts=opts)
        assert len(batched) == 3
        for terminal, sol in zip(terminals, batched):
            ref = solve_bsde_lsmc(replace(problem, terminal=terminal), opts=opts)
            assert sol.problem.terminal is terminal
            for field in ("y", "z"):
                assert_close(getattr(sol, field), getattr(ref, field))
            assert abs(sol.y0 - ref.y0) <= 1e-12 * max(np.max(np.abs(ref.y)), 1e-300)
            assert sol.y0_standard_error == pytest.approx(ref.y0_standard_error, rel=1e-10)
            assert sol.max_abs_y == pytest.approx(ref.max_abs_y, rel=1e-12)
            np.testing.assert_array_equal(sol.z_clip_count, ref.z_clip_count)
        if opts.z_clip == 0.5:
            assert all(sol.z_clip_count.sum() > 0 for sol in batched)

    def test_comparison_matches_one_solve_per_terminal(self):
        net = build_driver("MonotoneY", NetLayout(hidden=(5,)), init_seed=2)
        problem = brownian_problem(net, n_paths=3_000, n_steps=10, seed=8)
        high, low = (lambda e: np.abs(W_T(e)) + 0.1), (lambda e: np.zeros(e.n_paths))
        rep = check_comparison(problem, high, low, tol=1e-3)
        ref = lstsq_reference.per_terminal_comparison(problem, high, low, tol=1e-3)
        scale = max(abs(ref.y0_high), abs(ref.y0_low))
        for field in ("y0_high", "y0_low", "y0_gap", "max_violation"):
            assert abs(getattr(rep, field) - getattr(ref, field)) <= 1e-12 * scale
        assert_close(rep.per_step_min, ref.per_step_min)
        assert rep.violation_count == ref.violation_count
        assert rep.mc_noise == pytest.approx(ref.mc_noise, rel=1e-10)

    @pytest.mark.parametrize("d", [1, 2])
    def test_records_are_time_major(self, d):
        # Every per-step slice the recursion and the adjoint read is one
        # contiguous block, and each record's Y is one contiguous block.
        problem = reference_problem("free-net", d)
        ens = problem.ensemble
        terminals = [problem.terminal, lambda e: 2.0 * e.states[:, -1, -1],
                     lambda e: np.cos(3.0 * e.states[:, -1, 0])]
        sols = solve_bsde_many(problem, terminals, opts=SolveOptions(z_clip=0.5))
        n = ens.grid.n_steps
        for k in range(n + 1):
            assert ens.states[:, k, :].flags.c_contiguous
        for k in range(n):
            assert ens.bundle.increments[:, k, :].flags.c_contiguous
        for sol in sols:
            assert sol.y.T.flags.c_contiguous
            for k in range(n + 1):
                assert sol.y[:, k].flags.c_contiguous
            for k in range(n):
                assert sol.z[:, k, :].flags.c_contiguous
        path_major = np.ascontiguousarray(ens.states)
        assert not path_major[:, 0, :].flags.c_contiguous
        copy = PathEnsemble(states=path_major, grid=ens.grid, bundle=ens.bundle)
        assert np.swapaxes(copy.states, 0, 1).flags.c_contiguous
        np.testing.assert_array_equal(copy.states, ens.states)

    def test_convexity_matches_one_solve_per_terminal(self):
        problem = brownian_problem(quadratic_z_driver(0.5), n_paths=3_000, n_steps=10, seed=8)
        second = lambda e: np.maximum(W_T(e), 0.0)
        rep = check_convexity_and_jensen(problem, W_T, second, 0.3, SmoothFunction.square())
        ref = lstsq_reference.per_terminal_convexity(problem, W_T, second, 0.3,
                                                     SmoothFunction.square())
        scale = max(abs(ref.y0_1), abs(ref.y0_2), abs(ref.y0_mix))
        for field in ("y0_1", "y0_2", "y0_mix", "delta_convexity", "delta_jensen"):
            assert abs(getattr(rep, field) - getattr(ref, field)) <= 1e-12 * scale
        assert rep.mc_noise == pytest.approx(ref.mc_noise, rel=1e-10)
        assert rep.passed == ref.passed

    def test_errors_name_the_first_bad_terminal(self):
        problem = reference_problem("zero", 1)
        nan = lambda e: np.full(e.n_paths, np.nan)
        with pytest.raises(ValueError, match="non-finite") as info:
            solve_bsde_many(problem, [W_T, nan, nan])
        assert info.value.terminal_index == 1

        # The driver blows up below t = 0.5 where |y| > 10: terminals 1 and 2
        # diverge at step 3 of 8, terminal 0 never does.
        driver = AnalyticDriver(
            value_fn=lambda p, t, x, y, z: np.where((t < 0.5) & (np.abs(y) > 10.0), np.inf, 0.0),
            grad_fn=lambda p, t, x, y, z: (0.0, np.zeros_like(z), np.zeros((x.shape[0], 1))),
            params=[0.0],
        )
        big = lambda e: 100.0 + W_T(e)
        with pytest.raises(SolverDivergedError, match="at step 3") as info:
            solve_bsde_many(replace(problem, driver=driver), [W_T, big, big])
        assert info.value.terminal_index == 1

    def test_no_terminals_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            solve_bsde_many(reference_problem("zero", 1), [])

    def test_a_column_terminal_is_rejected_with_its_shape(self):
        problem = brownian_problem(zero_driver(), n_paths=500, n_steps=4)
        column = lambda e: e.states[:, -1]
        shapes = r"shape \(500,\), not \(500, 1\)"
        with pytest.raises(ValueError, match=shapes) as info:
            solve_bsde_lsmc(replace(problem, terminal=column))
        assert info.value.terminal_index == 0
        with pytest.raises(ValueError, match=shapes):
            check_comparison(problem, column, lambda e: np.zeros(e.n_paths))
        with pytest.raises(ValueError, match=shapes):
            check_comparison(problem, W_T, lambda e: np.zeros((e.n_paths, 1)))

    def test_a_missing_terminal_is_named(self):
        problem = replace(brownian_problem(zero_driver(), n_paths=200, n_steps=4), terminal=None)
        for solve in (solve_bsde_lsmc, lambda p: solve_bsde_many(p, [p.terminal]),
                      lambda p: solve_truncated(p, 1.0),
                      lambda p: dual_lower_bound(p, [[0.0]], fenchel=lambda u: 0.0)):
            with pytest.raises(ValueError, match="no terminal functional"):
                solve(problem)


class TestTruncation:
    def test_inactive_truncation_is_bitwise_identical(self):
        problem = brownian_problem(entropic_driver(1.0), n_paths=5_000, n_steps=12)
        sol = solve_bsde_lsmc(problem)
        k = sol.max_abs_y * 1.5
        trunc = solve_truncated(problem, k)
        assert trunc.y0 == sol.y0
        np.testing.assert_array_equal(trunc.y, sol.y)

    def test_tight_clamp_dominates(self):
        problem = brownian_problem(zero_driver(), n_paths=5_000, n_steps=12)
        trunc = solve_truncated(problem, 0.01)
        assert abs(trunc.y0) <= 0.01

    def test_monotone_approach(self):
        problem = brownian_problem(zero_driver(), n_paths=20_000, n_steps=12)
        full = solve_bsde_lsmc(problem).y0
        gaps = [abs(solve_truncated(problem, k).y0 - full)
                for k in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_invalid_level(self):
        problem = brownian_problem(zero_driver(), n_paths=512, n_steps=4)
        for k_level in (np.nan, np.inf, 0.0, -1.0, True, "1"):
            with pytest.raises(ValueError, match="k_level"):
                solve_truncated(problem, k_level)
            with pytest.raises(ValueError, match="k_level"):
                TruncatedDriver(zero_driver(), k_level)

    def test_integer_levels(self):
        for k in (2, np.int64(2), np.float32(2.0)):
            assert TruncatedDriver(zero_driver(), k).k_level == k


class TestComparison:
    def test_identical_terminals_identical_solutions(self):
        problem = brownian_problem(zero_driver(), n_paths=4_000, n_steps=10)
        rep = check_comparison(problem, W_T, W_T)
        assert rep.y0_gap == 0.0
        assert rep.max_violation == 0.0

    def test_additive_shift_is_exact(self):
        problem = brownian_problem(zero_driver(), n_paths=4_000, n_steps=10)
        rep = check_comparison(problem, lambda e: W_T(e) + 1.0, W_T)
        assert rep.y0_gap == pytest.approx(1.0, abs=1e-9)

    def test_monotone_net_driver_order(self):
        net = build_driver("MonotoneY", NetLayout(hidden=(6, 6)), init_seed=2)
        problem = brownian_problem(net, n_paths=20_000, n_steps=20, seed=8)
        rep = check_comparison(problem, lambda e: np.abs(W_T(e)),
                               lambda e: np.zeros(e.n_paths))
        assert rep.y0_gap >= -3.0 * rep.mc_noise

    def test_ordering_precondition_enforced(self):
        problem = brownian_problem(zero_driver(), n_paths=1_000, n_steps=5)
        with pytest.raises(InvalidComparisonPairError):
            check_comparison(problem, W_T, lambda e: W_T(e) + 0.1)

    def test_non_monotone_driver_rejected(self):
        lay = NetLayout(hidden=(1,), activation="tanh")
        net = build_driver("Free", lay)
        theta = np.zeros(net.n_params)
        stack = net._stacks["main"]
        w1 = np.zeros((1, 4))
        w1[0, 2] = 1.0       # increasing in y
        theta[stack.layers[0].blocks[0].w_slice] = w1.ravel()
        theta[stack.layers[1].blocks[0].w_slice] = 1.0
        problem = brownian_problem(net.with_params(theta), n_paths=1_000, n_steps=5)
        with pytest.raises(InvalidDriverError):
            check_comparison(problem, lambda e: W_T(e) + 1.0, W_T)


class TestConvexityJensen:
    def test_endpoint_lambdas_exact(self):
        problem = brownian_problem(zero_driver(), n_paths=4_000, n_steps=10)
        for lam in (0.0, 1.0):
            rep = check_convexity_and_jensen(problem, W_T, lambda e: -W_T(e), lam,
                                             SmoothFunction.square())
            assert rep.delta_convexity == 0.0

    def test_jensen_square_of_brownian(self):
        problem = brownian_problem(zero_driver(), n_paths=50_000, n_steps=20, seed=13)
        rep = check_convexity_and_jensen(problem, W_T, lambda e: -W_T(e), 0.5,
                                         SmoothFunction.square())
        # E[W_T^2] - (E W_T)^2 = 1 up to Monte Carlo error.
        assert rep.delta_jensen == pytest.approx(1.0, abs=0.03)

    def test_icnn_driver_convexity_gap(self):
        net = build_driver("IcnnYZ", NetLayout(hidden=(6, 6), activation="softplus"),
                           init_seed=3)
        problem = brownian_problem(net, n_paths=20_000, n_steps=20, seed=19)
        rep = check_convexity_and_jensen(problem, W_T, lambda e: -W_T(e), 0.5,
                                         SmoothFunction.square())
        assert rep.delta_convexity >= -3.0 * rep.mc_noise

    def test_homogeneous_icnn_jensen(self):
        net = build_homogeneous_icnn(init_seed=6)
        problem = brownian_problem(net, n_paths=20_000, n_steps=20, seed=23)
        rep = check_convexity_and_jensen(problem, W_T, lambda e: -W_T(e), 0.5,
                                         SmoothFunction.square())
        assert rep.delta_jensen >= -3.0 * rep.mc_noise

    def test_concave_driver_rejected(self):
        problem = brownian_problem(entropic_driver(1.0), n_paths=1_000, n_steps=5)
        with pytest.raises(InvalidDriverError):
            check_convexity_and_jensen(problem, W_T, W_T, 0.5, SmoothFunction.square())

    def test_non_convex_phi_rejected(self):
        problem = brownian_problem(zero_driver(), n_paths=1_000, n_steps=5)
        concave = SmoothFunction(f=lambda v: -v * v, df=lambda v: -2 * v,
                                 d2f=lambda v: -2.0 + 0 * v)
        with pytest.raises(ValueError):
            check_convexity_and_jensen(problem, W_T, W_T, 0.5, concave)


class TestDynamicConsistency:
    def test_zero_driver_tower_property(self):
        problem = brownian_problem(zero_driver(), n_paths=20_000, n_steps=20, seed=31)
        rep = check_dynamic_consistency(problem, 0.5)
        assert rep.gap <= 3.0 * rep.mc_noise

    def test_degenerate_split(self):
        problem = brownian_problem(zero_driver(), n_paths=2_000, n_steps=10)
        rep = check_dynamic_consistency(problem, 1.0)
        assert rep.gap == 0.0

    def test_entropic_time_consistency(self):
        problem = brownian_problem(entropic_driver(1.0), n_paths=50_000, n_steps=20,
                                   seed=37)
        rep = check_dynamic_consistency(problem, 0.5)
        assert rep.gap <= 0.02 * abs(rep.y0_direct)

    def test_off_grid_split_rejected(self):
        problem = brownian_problem(zero_driver(), n_paths=500, n_steps=10)
        with pytest.raises(ValueError):
            check_dynamic_consistency(problem, 0.33)


class TestDriftDecomposition:
    def test_zero_driver_no_ambiguity_drift(self):
        problem = brownian_problem(zero_driver(), n_paths=2_000, n_steps=10)
        sol = solve_bsde_lsmc(problem)
        dec = effective_drift_decomposition(sol, SmoothFunction.square())
        np.testing.assert_array_equal(dec.ambiguity_drift, 0.0)

    def test_linear_phi_no_convexity_correction(self):
        problem = brownian_problem(entropic_driver(1.0), n_paths=2_000, n_steps=10)
        sol = solve_bsde_lsmc(problem)
        dec = effective_drift_decomposition(sol, SmoothFunction.identity())
        np.testing.assert_array_equal(dec.convexity_correction, 0.0)

    def test_solution_readers_reuse_its_ensemble(self, simulations):
        # The caller simulates once; the solve and the readers of its
        # solution run on those paths and simulate nothing more.
        grid = make_time_grid(1.0, 10)
        ens = stochastic.simulate_forward(brownian_model(1), grid,
                                          sample_brownian(grid, 2_000, 1, seed=11))
        assert simulations == [grid]
        sol = solve_bsde_lsmc(BsdeProblem(driver=entropic_driver(1.0), terminal=W_T,
                                          ensemble=ens))
        solve_sensitivity_bsde(sol)
        effective_drift_decomposition(sol, SmoothFunction.square())
        assert simulations == [grid]

    def test_discrete_ito_reconstruction(self):
        def mean_residual(n_steps):
            problem = brownian_problem(entropic_driver(1.0), n_paths=50_000,
                                       n_steps=n_steps, seed=41)
            sol = solve_bsde_lsmc(problem)
            ens = sol.problem.ensemble
            phi = SmoothFunction.square()
            dec = effective_drift_decomposition(sol, phi, return_pathwise=True)
            dt = ens.grid.dt
            drift = (dec.pathwise_ambiguity + dec.pathwise_convexity).sum(axis=1) * dt
            mart = np.sum(phi.df(sol.y[:, :-1]) * sol.z[:, :, 0]
                          * ens.bundle.increments[:, :, 0], axis=1)
            target = phi.f(sol.y[:, -1]) - phi.f(sol.y[:, 0])
            return abs(np.mean(target - drift - mart))

        coarse, fine = mean_residual(10), mean_residual(20)
        assert coarse <= 5.0 * (1.0 / 10)     # O(dt) scale
        assert fine <= coarse + 0.02


class TestDualBound:
    def test_quadratic_driver_matches_closed_form(self):
        problem = brownian_problem(quadratic_z_driver(1.0), n_paths=100_000,
                                   n_steps=20, seed=43)
        sol = solve_bsde_lsmc(problem)
        rep = dual_lower_bound(problem, [[0.0], [0.5], [1.0], [1.5]],
                               fenchel=lambda u: float(u @ u) / 2.0)
        expected = [0.0, 0.375, 0.5, 0.375]    # u - u^2/2
        np.testing.assert_allclose(rep.values, expected, atol=0.02)
        np.testing.assert_array_equal(rep.best_control, [1.0])
        tol = max(3.0 * sol.y0_standard_error, 0.02 * abs(sol.y0))
        assert np.all(rep.values <= sol.y0 + tol)
        assert rep.best_value == pytest.approx(sol.y0, abs=tol)

    def test_numeric_fenchel_agrees_with_analytic(self):
        problem = brownian_problem(quadratic_z_driver(1.0), n_paths=5_000,
                                   n_steps=10, seed=43)
        analytic = dual_lower_bound(problem, [[0.5], [1.0]],
                                    fenchel=lambda u: float(u @ u) / 2.0)
        numeric = dual_lower_bound(problem, [[0.5], [1.0]])
        np.testing.assert_allclose(numeric.values, analytic.values, atol=1e-4)

    def test_zero_control_bounds_mean(self):
        problem = brownian_problem(quadratic_z_driver(1.0), n_paths=20_000,
                                   n_steps=15, seed=47)
        sol = solve_bsde_lsmc(problem)
        rep = dual_lower_bound(problem, [[0.0]], fenchel=lambda u: float(u @ u) / 2.0)
        xi = problem.terminal(problem.ensemble)
        assert rep.best_value == pytest.approx(xi.mean(), abs=1e-12)
        assert rep.best_value <= sol.y0 + 3.0 * sol.y0_standard_error

    def test_zero_driver_singleton_grid_equality(self):
        problem = brownian_problem(zero_driver(), n_paths=5_000, n_steps=10)
        sol = solve_bsde_lsmc(problem)
        rep = dual_lower_bound(problem, [[0.0]])
        assert rep.best_value == pytest.approx(sol.y0, abs=1e-12)

    def test_concave_driver_rejected(self):
        problem = brownian_problem(entropic_driver(1.0), n_paths=1_000, n_steps=5)
        with pytest.raises(InvalidDriverError):
            dual_lower_bound(problem, [[0.0]])

    def test_control_width_mismatch_rejected(self):
        problem = brownian_problem(quadratic_z_driver(1.0), n_paths=1_000, n_steps=5)
        for controls in ([0.0, 0.5, 1.0], [[0.0, 0.5]], [[[0.0]]]):
            with pytest.raises(ValueError, match="control_grid"):
                dual_lower_bound(problem, controls)

    def test_y_dependent_driver_rejected(self):
        net = build_driver("MonotoneY", NetLayout(hidden=(4,)), init_seed=1)
        problem = brownian_problem(net, n_paths=1_000, n_steps=5)
        with pytest.raises(InvalidDriverError):
            dual_lower_bound(problem, [[0.0]])


def coupled_drift_model(eps):
    return ForwardModel(
        drift=lambda t, x, y, z: eps * y[:, None],
        diffusion=lambda t, x, y, z: 1.0,
        x0=np.array([0.5]),
        state_dim=1,
        coupled_in_yz=True,
    )


class TestFbsdePicard:
    def test_zero_coupling_converges_in_one_iteration(self):
        grid = make_time_grid(0.5, 10)
        bundle = sample_brownian(grid, 5_000, 1, seed=3)
        model = coupled_drift_model(0.0)
        res = solve_fbsde_picard(model, grid, bundle, W_T, zero_driver())
        assert res.iterations == 1
        assert res.residuals[0] == 0.0
        # matches the decoupled solve exactly
        uncoupled = ForwardModel(drift=lambda t, x: 0.0, diffusion=lambda t, x: 1.0,
                                 x0=np.array([0.5]), state_dim=1)
        decoupled = BsdeProblem(driver=zero_driver(), terminal=W_T,
                                ensemble=simulate_forward(uncoupled, grid, bundle))
        np.testing.assert_array_equal(res.solution.y, solve_bsde_lsmc(decoupled).y)

    def test_small_horizon_contracts_geometrically(self):
        grid = make_time_grid(0.2, 10)
        bundle = sample_brownian(grid, 20_000, 1, seed=7)
        res = solve_fbsde_picard(coupled_drift_model(0.1), grid, bundle, W_T,
                                 zero_driver(), tol=1e-10)
        ratios = [b / a for a, b in zip(res.residuals, res.residuals[1:]) if a > 1e-13]
        assert ratios and max(ratios) <= 0.5

    def test_large_horizon_raises_no_contraction(self):
        grid = make_time_grid(50.0, 50)
        bundle = sample_brownian(grid, 2_000, 1, seed=9)
        with pytest.raises(NoContractionError):
            solve_fbsde_picard(coupled_drift_model(0.1), grid, bundle, W_T,
                               zero_driver())

    def test_requires_coupled_model(self):
        grid = make_time_grid(0.5, 5)
        bundle = sample_brownian(grid, 500, 1, seed=1)
        with pytest.raises(ValueError):
            solve_fbsde_picard(brownian_model(1), grid, bundle, W_T, zero_driver())
