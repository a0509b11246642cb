import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bsdelab.drivers import (
    AnalyticDriver,
    TruncatedDriver,
    entropic_driver,
    linear_z_driver,
    quadratic_z_driver,
    scaled_constant_driver,
)
from bsdelab.engine import (
    BsdeProblem,
    RegressionBasis,
    SolveOptions,
    solve_bsde_lsmc,
    solve_bsde_many,
)
from bsdelab.errors import SimulationDivergedError, SolverDivergedError, TrainingDivergedError
from bsdelab.learning import (
    Dataset,
    DatasetRecord,
    TrainSchedule,
    fd_gradient_check,
    loss_and_gradient,
    read_dataset_csv,
    solve_sensitivity_bsde,
    train,
)
from bsdelab.nets import NetLayout, build_driver, verify_convexity, verify_monotone
from bsdelab.stochastic import (
    brownian_model,
    make_time_grid,
    sample_brownian,
    simulate_forward,
    split_seed,
)
import lstsq_reference
from sensitivity_reference import forward_sensitivity

W_T = lambda ens: ens.states[:, -1, 0]


def brownian_problem(driver, n_paths=20_000, n_steps=25, seed=11):
    grid = make_time_grid(1.0, n_steps)
    ens = simulate_forward(brownian_model(1), grid, sample_brownian(grid, n_paths, 1, seed=seed))
    return BsdeProblem(driver=driver, terminal=W_T, ensemble=ens)


def dead_coordinate_driver(theta0, c):
    """Two parameters; the second never enters the driver."""
    return AnalyticDriver(
        value_fn=lambda p, t, x, y, z: np.full(x.shape[0], p[0] * c),
        grad_fn=lambda p, t, x, y, z: (
            0.0, np.zeros_like(z),
            np.column_stack([np.full(x.shape[0], c), np.zeros(x.shape[0])]),
        ),
        params=np.array([theta0, 5.0]),
        name="dead-coordinate",
    )


class TestSensitivitySolve:
    def test_structurally_dead_coordinate_is_exactly_zero(self):
        problem = brownian_problem(dead_coordinate_driver(0.7, 2.0), n_paths=2_000,
                                   n_steps=10)
        sens = solve_sensitivity_bsde(solve_bsde_lsmc(problem))
        assert sens.grad_y0[1] == 0.0

    def test_constant_source_integrates_to_cT(self):
        problem = brownian_problem(scaled_constant_driver(0.7, 2.5), n_paths=2_000,
                                   n_steps=10)
        sens = solve_sensitivity_bsde(solve_bsde_lsmc(problem))
        assert sens.grad_y0[0] == pytest.approx(2.5, abs=1e-12)

    def test_source_linearity_is_exact(self):
        single = solve_sensitivity_bsde(solve_bsde_lsmc(
            brownian_problem(scaled_constant_driver(0.7, 1.3), n_paths=1_000, n_steps=8)))
        double = solve_sensitivity_bsde(solve_bsde_lsmc(
            brownian_problem(scaled_constant_driver(0.7, 2.6), n_paths=1_000, n_steps=8)))
        assert double.grad_y0[0] == 2.0 * single.grad_y0[0]

    def test_terminal_slice_is_zero(self):
        # Checked on the forward-mode reference, the only solve that keeps
        # per-path sensitivities; the adjoint never forms them.
        problem = brownian_problem(entropic_driver(1.0), n_paths=1_000, n_steps=8)
        _, grad_y = forward_sensitivity(solve_bsde_lsmc(problem), store_paths=True)
        np.testing.assert_array_equal(grad_y[:, -1, :], 0.0)

    def test_entropic_analytic_derivative(self):
        # dY0/dtheta = -T/2 for the entropic family; both routes within 1%.
        problem = brownian_problem(entropic_driver(1.0), n_paths=100_000, n_steps=25,
                                   seed=2)
        report = fd_gradient_check(problem, coords=[0], h=1e-4)
        assert report.max_relative_error <= 1e-3
        assert report.sensitivity[0] == pytest.approx(-0.5, rel=0.01)
        assert report.finite_difference[0] == pytest.approx(-0.5, rel=0.01)

    def test_zero_driver_both_routes_zero(self):
        problem = brownian_problem(scaled_constant_driver(0.0, 0.0), n_paths=2_000,
                                   n_steps=8)
        report = fd_gradient_check(problem, coords=[0], h=1e-4)
        assert report.sensitivity[0] == 0.0
        assert abs(report.finite_difference[0]) <= 1e-12

    def test_separable_net_fd_agreement(self):
        # The clip guardrail is non-differentiable, so exact-derivative
        # verification runs with it disabled; the sensitivity then matches
        # finite differences to roundoff.
        lay = NetLayout(state_dim=1, z_dim=1, hidden=(6,), n2_hidden=(4,))
        net = build_driver("Separable", lay, init_seed=7)
        problem = brownian_problem(net, n_paths=20_000, n_steps=20, seed=5)
        rng = np.random.default_rng(0)
        coords = rng.choice(net.n_params, size=5, replace=False)
        report = fd_gradient_check(problem, coords=coords, h=1e-4,
                                   opts=SolveOptions(z_clip=None))
        assert report.max_relative_error <= 1e-3

    def test_invalid_step(self):
        problem = brownian_problem(entropic_driver(1.0), n_paths=500, n_steps=4)
        with pytest.raises(ValueError):
            fd_gradient_check(problem, coords=[0], h=0.0)


KINDS = ("Free", "Separable", "BoundedInteraction", "MonotoneY", "IcnnYZ")


def assert_matches_reference(primary, opts):
    adjoint = solve_sensitivity_bsde(primary).grad_y0
    reference, _ = forward_sensitivity(primary, opts=opts)
    scale = max(np.max(np.abs(reference)), 1e-300)
    assert np.max(np.abs(adjoint - reference)) <= 1e-10 * scale


class TestAdjointAgainstForwardMode:
    """The adjoint is the transpose of the forward-mode scheme, so the two
    agree to roundoff whatever the driver, dimension, passes and clipping."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d", [1, 2])
    def test_networks(self, kind, d):
        lay = NetLayout(state_dim=d, z_dim=d, hidden=(5, 4), n2_hidden=(3,),
                        activation="softplus" if kind == "IcnnYZ" else "tanh")
        net = build_driver(kind, lay, init_seed=3 + d)
        grid = make_time_grid(1.0, 6)
        bundle = sample_brownian(grid, 800, d, seed=5)
        terminal = lambda ens: np.sin(ens.states[:, -1, 0]) + 0.3 * ens.states[:, -1, -1] ** 2
        problem = BsdeProblem(driver=net, terminal=terminal,
                              ensemble=simulate_forward(brownian_model(d), grid, bundle))
        for passes in (1, 2, 3):
            for z_clip in (None, 0.5):
                opts = SolveOptions(inner_picard_iters=passes, z_clip=z_clip)
                primary = solve_bsde_lsmc(problem, opts=opts)
                if z_clip is not None:
                    assert primary.z_clip_count.sum() > 0
                assert_matches_reference(primary, opts)

    @pytest.mark.parametrize("driver", [
        entropic_driver(1.0), linear_z_driver(0.3), scaled_constant_driver(0.7, 2.5),
        quadratic_z_driver(0.5), dead_coordinate_driver(0.7, 2.0),
    ], ids=lambda drv: drv.name)
    def test_analytic_drivers(self, driver):
        problem = brownian_problem(driver, n_paths=2_000, n_steps=10, seed=3)
        for opts in (SolveOptions(z_clip=None), SolveOptions(inner_picard_iters=3)):
            assert_matches_reference(solve_bsde_lsmc(problem, opts=opts), opts)

    def test_truncated_driver(self):
        net = build_driver("MonotoneY", NetLayout(hidden=(5,)), init_seed=2)
        truncated = TruncatedDriver(net, 0.4)
        problem = brownian_problem(truncated, n_paths=1_000, n_steps=8, seed=9)
        opts = SolveOptions(z_clip=None)
        primary = solve_bsde_lsmc(problem, opts=opts)
        assert np.any(np.abs(primary.y) > 0.4)
        assert_matches_reference(primary, opts)

    def test_inner_passes_come_from_the_primary(self):
        # The gradient takes no options of its own: a primary solved with one
        # inner pass is differentiated with one pass.
        net = build_driver("MonotoneY", NetLayout(hidden=(5,)), init_seed=2)
        problem = brownian_problem(net, n_paths=2_000, n_steps=10, seed=4)
        opts = SolveOptions(inner_picard_iters=1)
        primary = solve_bsde_lsmc(problem, opts=opts)
        assert primary.passes == 1
        assert_matches_reference(primary, opts)

    def test_peak_memory_does_not_scale_with_parameters(self):
        # One (m, P) float array here would be 10 000 x 1 249 x 8 B = 100 MB.
        net = build_driver("Free", NetLayout(hidden=(32, 32)), init_seed=1)
        assert net.n_params == 1_249
        grid = make_time_grid(1.0, 25)
        ens = simulate_forward(brownian_model(1), grid, sample_brownian(grid, 10_000, 1, seed=3))
        opts = SolveOptions(z_clip=None)
        primary = solve_bsde_lsmc(BsdeProblem(driver=net, terminal=W_T, ensemble=ens), opts=opts)
        tracemalloc.start()
        try:
            solve_sensitivity_bsde(primary)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6


def small_dataset(theta_true=1.0, n_paths=2_000, n_steps=10, scales=(0.5, 1.0)):
    grid = make_time_grid(1.0, n_steps)
    records = []
    for c in scales:
        records.append(DatasetRecord(
            terminal=(lambda cc: (lambda ens: cc * W_T(ens)))(c),
            observed=-theta_true * c * c / 2.0,
            label=f"c={c}",
        ))
    return Dataset(records=tuple(records), grid=grid, n_paths=n_paths)


class TestLoss:
    def test_self_consistent_data_has_zero_loss(self):
        dataset = small_dataset()
        driver = entropic_driver(0.8)
        bundle = sample_brownian(dataset.grid, dataset.n_paths, 1, seed=4)
        first = loss_and_gradient(dataset, driver, bundle=bundle)
        records = tuple(
            DatasetRecord(terminal=rec.terminal, observed=y0, label=rec.label)
            for rec, y0 in zip(dataset.records, first.per_record_y0)
        )
        exact = Dataset(records=records, grid=dataset.grid, n_paths=dataset.n_paths)
        report = loss_and_gradient(exact, driver, bundle=bundle)
        assert report.loss == 0.0
        np.testing.assert_array_equal(report.gradient, 0.0)

    def test_chain_rule_against_fd(self):
        dataset = small_dataset(n_paths=20_000, n_steps=15)
        driver = entropic_driver(0.8)
        bundle = sample_brownian(dataset.grid, dataset.n_paths, 1, seed=4)
        report = loss_and_gradient(dataset, driver, bundle=bundle)
        h = 1e-4
        up = loss_and_gradient(dataset, driver.with_params([0.8 + h]), bundle=bundle)
        dn = loss_and_gradient(dataset, driver.with_params([0.8 - h]), bundle=bundle)
        fd = (up.loss - dn.loss) / (2 * h)
        assert report.gradient[0] == pytest.approx(fd, rel=1e-3)

    def test_normalization_term_structural_zero(self):
        dataset = small_dataset()
        bundle = sample_brownian(dataset.grid, dataset.n_paths, 1, seed=2)
        report = loss_and_gradient(dataset, linear_z_driver(0.4), lam_norm=1.0, bundle=bundle)
        assert report.norm_term == 0.0

    def test_normalization_term_positive_for_constant_driver(self):
        dataset = small_dataset()
        bundle = sample_brownian(dataset.grid, dataset.n_paths, 1, seed=2)
        report = loss_and_gradient(dataset, scaled_constant_driver(1.0, 1.0),
                                   lam_norm=1.0, bundle=bundle)
        assert report.norm_term == pytest.approx(1.0, rel=1e-9)

    def test_normalization_gradient_against_fd(self):
        # The penalty depends on theta directly and through the regressed
        # continuation values; both routes must be in the gradient.
        dataset = small_dataset(n_paths=2_000, n_steps=10)
        net = build_driver("Free", NetLayout(hidden=(5,)), init_seed=3)
        bundle = sample_brownian(dataset.grid, dataset.n_paths, 1, seed=4)
        opts = SolveOptions(z_clip=None)
        loss = lambda drv: loss_and_gradient(dataset, drv, lam_norm=1.0, opts=opts,
                                             bundle=bundle)
        report = loss(net)
        assert report.norm_term > 0.0
        grad = report.gradient
        h = 1e-4
        coords = np.random.default_rng(2).choice(net.n_params, size=6, replace=False)
        for j in coords:
            bump = np.zeros(net.n_params)
            bump[j] = h
            fd = (loss(net.with_params(net.params + bump)).loss
                  - loss(net.with_params(net.params - bump)).loss) / (2 * h)
            # Criterion-3 rule: relative to the larger value, floored at 1e-3
            # of the gradient's overall scale.
            scale = max(abs(grad[j]), abs(fd), 1e-3 * np.max(np.abs(grad)))
            assert abs(grad[j] - fd) <= 1e-3 * scale

    def test_regularizer_terms(self):
        dataset = small_dataset()
        driver = entropic_driver(2.0)
        bundle = sample_brownian(dataset.grid, dataset.n_paths, 1, seed=3)
        plain = loss_and_gradient(dataset, driver, bundle=bundle)
        reg = loss_and_gradient(dataset, driver, lam_reg=0.5, bundle=bundle)
        assert reg.reg_term == pytest.approx(0.5 * 4.0)
        assert reg.gradient[0] == pytest.approx(plain.gradient[0] + 2 * 0.5 * 2.0)

    def test_plan_mismatches_rejected(self):
        dataset = small_dataset(n_paths=1_000, n_steps=8)
        bundle = sample_brownian(dataset.grid, dataset.n_paths, 1, seed=4)
        ens = simulate_forward(dataset.model, dataset.grid, bundle)
        driver = entropic_driver(0.5)
        with pytest.raises(ValueError, match="not both"):
            loss_and_gradient(dataset, driver, bundle=bundle, ensemble=ens)
        with pytest.raises(ValueError, match="does not match the dataset"):
            loss_and_gradient(replace(dataset, n_paths=500), driver, ensemble=ens)
        with pytest.raises(ValueError, match="does not match the dataset"):
            loss_and_gradient(small_dataset(n_paths=1_000, n_steps=6), driver, ensemble=ens)

    def test_bundle_mismatches_rejected(self):
        dataset = small_dataset(n_paths=1_000, n_steps=8)
        driver = entropic_driver(0.5)
        for bundle in (sample_brownian(dataset.grid, 300, 1, seed=4),
                       sample_brownian(make_time_grid(1.0, 6), 1_000, 1, seed=4)):
            with pytest.raises(ValueError, match="does not match the dataset"):
                loss_and_gradient(dataset, driver, bundle=bundle)

    def test_records_share_one_factorization(self, factorizations):
        dataset = small_dataset(n_paths=1_000, n_steps=8)
        assert len(dataset.records) == 2
        bundle = sample_brownian(dataset.grid, dataset.n_paths, 1, seed=4)
        loss_and_gradient(dataset, entropic_driver(0.5), lam_norm=0.5, bundle=bundle)
        assert sorted(factorizations) == list(range(8))

    def test_record_failures_carry_index(self):
        grid = make_time_grid(1.0, 5)
        bad = DatasetRecord(terminal=lambda ens: np.full(ens.n_paths, np.nan),
                            observed=0.0, label="broken")
        dataset = Dataset(records=(bad,), grid=grid, n_paths=256)
        bundle = sample_brownian(grid, 256, 1, seed=0)
        with pytest.raises(ValueError, match="record 0"):
            loss_and_gradient(dataset, entropic_driver(1.0), bundle=bundle)


def scaled_records(scales, terminal=W_T, theta=1.5):
    return tuple(
        DatasetRecord(terminal=(lambda cc: (lambda ens: cc * terminal(ens)))(c),
                      observed=-theta * c * c / 2.0, label=f"scale-{c}")
        for c in scales
    )


def dataset_ensemble(dataset, seed=4):
    d = dataset.model.state_dim   # Brownian models: one noise per state coordinate
    bundle = sample_brownian(dataset.grid, dataset.n_paths, d, seed=seed)
    return simulate_forward(dataset.model, dataset.grid, bundle)


class TestBatchedLoss:
    """The loss from one sweep and one adjoint against one solve and one or
    two adjoints per record."""

    @staticmethod
    def assert_matches_per_record(dataset, driver, ens, lam_reg=0.0, lam_norm=0.0,
                                  opts=SolveOptions()):
        report = loss_and_gradient(dataset, driver, lam_reg, lam_norm, opts=opts, ensemble=ens)
        loss, grad, y0s, ref_sols = lstsq_reference.per_record_loss(
            dataset, driver, ens, lam_reg, lam_norm, opts=opts)
        assert report.loss == pytest.approx(loss, rel=1e-12)
        np.testing.assert_allclose(report.per_record_y0, y0s, rtol=1e-12, atol=0.0)
        assert np.max(np.abs(report.gradient - grad)) <= 1e-12 * np.max(np.abs(grad))
        sols = solve_bsde_many(BsdeProblem(driver=driver, ensemble=ens),
                               [rec.terminal for rec in dataset.records], opts=opts)
        for sol, ref in zip(sols, ref_sols):
            for field in ("y", "z"):
                batched, single = getattr(sol, field), getattr(ref, field)
                assert np.max(np.abs(batched - single)) <= 1e-12 * np.max(np.abs(single))
            np.testing.assert_array_equal(sol.z_clip_count, ref.z_clip_count)
        return sols

    def test_entropic_with_the_clip_binding(self):
        # train_entropic's setup: 10 records, 4 000 paths, 25 steps, z_clip 10.
        grid = make_time_grid(1.0, 25)
        dataset = Dataset(records=scaled_records([0.2 * i for i in range(1, 11)]), grid=grid,
                          n_paths=4_000)
        ens = dataset_ensemble(dataset, seed=split_seed(11, "train-bundle"))
        sols = self.assert_matches_per_record(dataset, entropic_driver(0.3), ens,
                                              opts=SolveOptions(z_clip=10.0))
        assert sum(int(sol.z_clip_count.sum()) for sol in sols) > 0

    def test_free_net_with_the_normalization_penalty(self):
        dataset = small_dataset(n_paths=2_000, n_steps=10, scales=(0.5, 1.0, 1.5))
        net = build_driver("Free", NetLayout(hidden=(5,)), init_seed=3)
        self.assert_matches_per_record(dataset, net, dataset_ensemble(dataset), lam_reg=0.01,
                                       lam_norm=0.5, opts=SolveOptions(inner_picard_iters=2))

    def test_truncated_driver(self):
        dataset = small_dataset(n_paths=2_000, n_steps=10, scales=(0.5, 2.0, 3.0))
        net = build_driver("MonotoneY", NetLayout(hidden=(5,)), init_seed=2)
        truncated = TruncatedDriver(net, 0.4)
        sols = self.assert_matches_per_record(dataset, truncated, dataset_ensemble(dataset),
                                              lam_norm=0.3, opts=SolveOptions(z_clip=None))
        assert any(np.any(np.abs(sol.y) > 0.4) for sol in sols)

    def test_two_dimensional_paths(self):
        grid = make_time_grid(1.0, 8)
        second = lambda ens: ens.states[:, -1, 0] * ens.states[:, -1, 1]
        dataset = Dataset(records=scaled_records([0.5, 1.0]) + scaled_records([0.7], second),
                          grid=grid, model=brownian_model(2), n_paths=2_000)
        net = build_driver("Free", NetLayout(state_dim=2, z_dim=2, hidden=(4,)), init_seed=6)
        self.assert_matches_per_record(dataset, net, dataset_ensemble(dataset), lam_norm=0.2,
                                       opts=SolveOptions(z_clip=0.5, inner_picard_iters=3))

    def test_one_record_is_bit_identical_to_its_own_solve(self):
        dataset = small_dataset(n_paths=1_000, n_steps=8, scales=(1.0,))
        net = build_driver("Free", NetLayout(hidden=(4,)), init_seed=5)
        ens = dataset_ensemble(dataset)
        report = loss_and_gradient(dataset, net, ensemble=ens)
        sol = solve_bsde_lsmc(BsdeProblem(driver=net, terminal=dataset.records[0].terminal,
                                          ensemble=ens))
        residual = sol.y0 - dataset.records[0].observed
        assert report.per_record_y0[0] == sol.y0
        root = np.zeros(ens.n_paths)
        root[0] = 2.0 * residual
        np.testing.assert_array_equal(solve_sensitivity_bsde(sol).grad_y0,
                                      lstsq_reference.single_adjoint_gradient(sol, root / root[0]))
        np.testing.assert_array_equal(report.gradient,
                                      lstsq_reference.single_adjoint_gradient(sol, root))

    def test_a_non_finite_terminal_names_its_record(self):
        grid = make_time_grid(1.0, 5)
        bad = DatasetRecord(terminal=lambda ens: np.full(ens.n_paths, np.nan),
                            observed=0.0, label="broken")
        records = scaled_records([0.5]) + (bad,) + scaled_records([1.0])
        dataset = Dataset(records=records, grid=grid, n_paths=256)
        ens = dataset_ensemble(dataset, seed=0)
        with pytest.raises(ValueError) as ref:
            lstsq_reference.per_record_loss(dataset, entropic_driver(1.0), ens)
        with pytest.raises(ValueError, match=r"record 1 \('broken'\)") as info:
            loss_and_gradient(dataset, entropic_driver(1.0), ensemble=ens)
        assert str(info.value) == str(ref.value)

    @pytest.mark.parametrize("bad_records", [(1,), (1, 2)])
    def test_a_divergence_names_its_record_and_step(self, bad_records):
        # The driver blows up below t = 0.5 where |y| > 10, so the records
        # with a large terminal diverge partway through the sweep, at step 4
        # of 10; the first of them is named.
        grid = make_time_grid(1.0, 10)
        records = tuple(
            DatasetRecord(terminal=(lambda c: lambda ens: c + W_T(ens))(100.0 if i in bad_records
                                                                        else 0.0),
                          observed=0.0, label=f"rec-{i}")
            for i in range(3)
        )
        dataset = Dataset(records=records, grid=grid, n_paths=500)
        driver = AnalyticDriver(
            value_fn=lambda p, t, x, y, z: np.where((t < 0.5) & (np.abs(y) > 10.0), np.inf, 0.0),
            grad_fn=lambda p, t, x, y, z: (0.0, np.zeros_like(z), np.zeros((x.shape[0], 1))),
            params=[0.0],
        )
        ens = dataset_ensemble(dataset, seed=0)
        with pytest.raises(SolverDivergedError) as ref:
            lstsq_reference.per_record_loss(dataset, driver, ens)
        with pytest.raises(SolverDivergedError, match=r"record 1 \('rec-1'\).*at step 4") as info:
            loss_and_gradient(dataset, driver, ensemble=ens)
        assert str(info.value) == str(ref.value)

    def test_an_error_without_a_message_constructor_keeps_its_type(self):
        # SimulationDivergedError takes (path, step), so the loss cannot
        # rebuild it around a message: it raises the record's own error,
        # tagged with record_index.
        def diverged(ens):
            raise SimulationDivergedError(path=3, step=2)

        records = scaled_records([0.5]) + (DatasetRecord(terminal=diverged, observed=0.0),)
        dataset = Dataset(records=records, grid=make_time_grid(1.0, 5), n_paths=256)
        with pytest.raises(SimulationDivergedError, match="path=3, step=2") as info:
            loss_and_gradient(dataset, entropic_driver(1.0),
                              ensemble=dataset_ensemble(dataset, seed=0))
        assert info.value.record_index == 1

    def test_a_column_terminal_is_rejected_with_its_shape(self):
        column = DatasetRecord(terminal=lambda ens: ens.states[:, -1], observed=0.0,
                               label="col")
        dataset = Dataset(records=(column,), grid=make_time_grid(1.0, 5), n_paths=64)
        with pytest.raises(ValueError, match=r"record 0 \('col'\): .*shape \(64,\), "
                                             r"not \(64, 1\)"):
            loss_and_gradient(dataset, entropic_driver(1.0),
                              ensemble=dataset_ensemble(dataset, seed=0))


class TestTraining:
    def test_zero_learning_rate_freezes(self):
        dataset = small_dataset()
        schedule = TrainSchedule(learning_rate=0.0, max_iters=4, seed=9)
        state, final = train(dataset, entropic_driver(0.5), schedule)
        assert final.params[0] == 0.5
        assert np.all(state.loss_history == state.loss_history[0])

    def test_descent_on_convex_problem(self):
        dataset = small_dataset(theta_true=1.2, n_paths=4_000, n_steps=10)
        schedule = TrainSchedule(learning_rate=0.2, max_iters=12, seed=9)
        state, _ = train(dataset, entropic_driver(0.4), schedule)
        assert np.all(np.diff(state.loss_history) <= 1e-12)

    def test_bitwise_reproducibility(self):
        dataset = small_dataset(n_paths=1_000, n_steps=8)
        schedule = TrainSchedule(learning_rate=0.3, max_iters=5, seed=21)
        s1, d1 = train(dataset, entropic_driver(0.4), schedule)
        s2, d2 = train(dataset, entropic_driver(0.4), schedule)
        np.testing.assert_array_equal(s1.loss_history, s2.loss_history)
        np.testing.assert_array_equal(d1.params, d2.params)

    def test_plan_matches_the_per_iteration_loop(self):
        # train shares one ensemble; the loop below simulates the paths and
        # factors every step again on every iteration.
        dataset = small_dataset(n_paths=1_000, n_steps=8)
        schedule = TrainSchedule(learning_rate=0.3, max_iters=4, seed=21)
        net = build_driver("Free", NetLayout(hidden=(4,)), init_seed=5)
        state, final = train(dataset, net, schedule, lam_reg=0.01, lam_norm=0.5)
        bundle = sample_brownian(dataset.grid, dataset.n_paths, 1,
                                 split_seed(schedule.seed, "train-bundle"))
        losses, current = [], net
        for _ in range(schedule.max_iters):
            report = loss_and_gradient(dataset, current, 0.01, 0.5, bundle=bundle)
            losses.append(report.loss)
            current = current.with_params(current.params - 0.3 * report.gradient)
        np.testing.assert_array_equal(state.loss_history, losses)
        np.testing.assert_array_equal(final.params, current.params)

    def test_each_step_is_factored_once_per_run(self):
        calls = []

        class CountingBasis(RegressionBasis):
            def fit_design(self, x):
                calls.append(x.shape)
                return super().fit_design(x)

        dataset = small_dataset(n_paths=1_000, n_steps=8)
        schedule = TrainSchedule(learning_rate=0.3, max_iters=3, seed=21)
        state, _ = train(dataset, entropic_driver(0.4), schedule, basis=CountingBasis())
        assert state.iterations == 3 and len(dataset.records) == 2
        assert len(calls) == dataset.grid.n_steps

    def test_divergence_reports_iteration(self):
        dataset = small_dataset(n_paths=512, n_steps=5)
        schedule = TrainSchedule(learning_rate=1e160, max_iters=10, seed=1)
        with pytest.raises(TrainingDivergedError):
            with np.errstate(over="ignore", invalid="ignore"):
                train(dataset, entropic_driver(0.5), schedule)

    def test_loss_tol_stops_early(self):
        dataset = small_dataset(n_paths=1_000, n_steps=8)
        schedule = TrainSchedule(learning_rate=0.0, max_iters=50, seed=2, loss_tol=1e-9)
        state, _ = train(dataset, entropic_driver(0.5), schedule)
        assert state.iterations == 2

    def test_constraints_survive_training(self):
        grid = make_time_grid(1.0, 8)
        records = (DatasetRecord(terminal=W_T, observed=0.1, label="w"),)
        dataset = Dataset(records=records, grid=grid, n_paths=1_500)
        schedule = TrainSchedule(learning_rate=0.1, max_iters=3, seed=3)

        mono = build_driver("MonotoneY", NetLayout(hidden=(5,)), init_seed=1)
        _, mono_final = train(dataset, mono, schedule)
        assert verify_monotone(mono_final, n_samples=1_000, seed=0).passed

        icnn = build_driver("IcnnYZ", NetLayout(hidden=(5,), activation="softplus"),
                            init_seed=1)
        _, icnn_final = train(dataset, icnn, schedule)
        assert verify_convexity(icnn_final, n_segments=400, seed=0, tol=0.0).passed

    def test_training_log_written(self, tmp_path):
        dataset = small_dataset(n_paths=512, n_steps=5)
        schedule = TrainSchedule(learning_rate=0.1, max_iters=3, seed=2)
        log = tmp_path / "log.csv"
        state, _ = train(dataset, entropic_driver(0.5), schedule, log_path=log)
        rows = log.read_text().strip().splitlines()
        assert rows[0] == "iter,loss,grad_norm,theta_norm,data_term,reg_term,norm_term"
        assert len(rows) == 1 + state.iterations


class TestDatasetCsv:
    def test_ingestion(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "record_id,terminal_kind,param,observed_value\n"
            "a,state,,0.25\n"
            "b,scaled_state,2.0,-1.5\n"
            "c,call,1.0,0.08\n"
        )
        grid = make_time_grid(1.0, 4)
        dataset = read_dataset_csv(path, grid, n_paths=128)
        assert len(dataset.records) == 3
        assert dataset.records[1].observed == -1.5
        bundle = sample_brownian(grid, 16, 1, seed=0)
        from bsdelab.stochastic import simulate_forward
        ens = simulate_forward(brownian_model(1), grid, bundle)
        np.testing.assert_array_equal(dataset.records[1].terminal(ens), 2.0 * W_T(ens))

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("record_id,terminal_kind,param,observed_value\na,nope,,1.0\n")
        with pytest.raises(ValueError):
            read_dataset_csv(path, make_time_grid(1.0, 2))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            Dataset(records=(), grid=make_time_grid(1.0, 2))
