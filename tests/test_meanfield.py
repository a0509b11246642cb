import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bsdelab import meanfield
from bsdelab.errors import IncompleteCoefficientsError, NoFixedPointError, SimulationDivergedError
from bsdelab.meanfield import (
    _measure_term,
    CltResult,
    FluctuationCoefficients,
    MeanFieldModel,
    clt_experiment,
    compute_features,
    export_clt_csv,
    export_lln_csv,
    independent_model,
    linear_gaussian_fluctuation_coefficients,
    linear_gaussian_model,
    lln_experiment,
    mean_reversion_to_crowd_model,
    simulate_particles,
    solve_fluctuation_system,
    solve_mckean_vlasov,
)
from bsdelab.engine import SolveOptions
from bsdelab.stochastic import TimeGrid, make_time_grid, sample_brownian, split_seed

import lstsq_reference


def gaussian_u0(std):
    def sampler(n, seed):
        draw = sample_brownian(TimeGrid(1.0, 1), n, 1, split_seed(seed, "u0-test"))
        return std * draw.increments[:, 0, 0]
    return sampler


ZERO_PARTIAL = lambda t, x, feats: 0.0
ZERO_STATE = lambda t, x, feats: np.zeros_like(x)


def diagonal_coefficients(a_state):
    return FluctuationCoefficients(
        dx_b=lambda t, x, feats: np.full_like(x, a_state),
        dmu_b=ZERO_PARTIAL,
        dx_sigma=ZERO_STATE,
        dmu_sigma=ZERO_PARTIAL,
        dx_f=ZERO_STATE,
        dy_f=ZERO_STATE,
        dz_f=ZERO_STATE,
        dmu_f=ZERO_PARTIAL,
        dx_g=lambda x, feats: np.ones_like(x),
        dmu_g=lambda x, feats: 0.0,
    )


class TestParticles:
    def test_determinism(self):
        grid = make_time_grid(1.0, 10)
        model = mean_reversion_to_crowd_model()
        a = simulate_particles(model, 64, grid, seed=5)
        b = simulate_particles(model, 64, grid, seed=5)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.y, b.y)

    def test_no_interaction_gives_independent_copies(self):
        grid = make_time_grid(0.5, 10)
        model = independent_model()
        x1, x2 = [], []
        for trial in range(200):
            run = simulate_particles(model, 8, grid, seed=1000 + trial)
            x1.append(run.states[0, -1])
            x2.append(run.states[1, -1])
        x1, x2 = np.array(x1), np.array(x2)
        corr = np.corrcoef(x1, x2)[0, 1]
        assert abs(corr) <= 3.0 / np.sqrt(200)

    def test_crowd_mean_is_driftless(self):
        grid = make_time_grid(1.0, 40)
        model = mean_reversion_to_crowd_model(sigma=0.1, m0=0.0, s0=1.0)
        n = 512
        run = simulate_particles(model, n, grid, seed=3)
        means = run.states.mean(axis=0)
        bound = 3.0 * np.sqrt((1.0 + 0.1 ** 2 * 1.0) / n)
        assert np.max(np.abs(means - means[0])) <= bound

    def test_exchangeability(self):
        grid = make_time_grid(0.5, 8)
        model = mean_reversion_to_crowd_model()
        n = 32
        inc = sample_brownian(grid, n, 1, seed=9).increments
        x0 = model.initial_sampler(n, 7)
        base = simulate_particles(model, n, grid, seed=0, increments=inc,
                                  initial_states=x0)
        perm = np.random.default_rng(0).permutation(n)
        permuted = simulate_particles(model, n, grid, seed=0, increments=inc[perm],
                                      initial_states=x0[perm])
        np.testing.assert_array_equal(permuted.states, base.states[perm])
        for fa, fb in zip(base.features, permuted.features):
            assert fa.mean == fb.mean and fa.second_moment == fb.second_moment
        np.testing.assert_allclose(permuted.y, base.y[perm], atol=1e-9)

    def test_feature_consistency(self):
        grid = make_time_grid(0.5, 8)
        model = linear_gaussian_model()
        run = simulate_particles(model, 128, grid, seed=2)
        for k, feats in enumerate(run.features):
            again = compute_features(run.states[:, k], model.feature_names)
            assert again.mean == feats.mean
            assert again.second_moment == feats.second_moment

    def test_features_are_sorted_means_of_psi(self):
        x = np.random.default_rng(1).normal(0.2, 1.3, 301)
        feats = compute_features(x, ("mean", "second_moment"))
        assert feats.mean == float(np.mean(np.sort(x)))
        assert feats.second_moment == float(np.mean(np.sort(x * x)))
        assert compute_features(x, ("mean",)).second_moment == 0.0

    def test_unknown_feature_rejected(self):
        with pytest.raises(ValueError, match="sorted_sample"):
            compute_features(np.arange(4.0), ("mean", "sorted_sample"))

    @pytest.mark.parametrize("shape", ["scalar", "one", "per-particle"])
    def test_cloud_matches_the_broadcast_update(self, shape):
        # The Euler update broadcasts scalar, (1,) and (N,) coefficients
        # itself; the states equal those of the update that broadcast each
        # value to (N,) first, bit for bit.
        grid = make_time_grid(1.0, 12)
        n = 64
        wrap = {"scalar": float, "one": lambda v: np.full(1, v),
                "per-particle": lambda v: np.full(n, v)}[shape]
        model = replace(mean_reversion_to_crowd_model(sigma=0.3),
                        diffusion=lambda t, x, feats: wrap(0.3 + 0.1 * t))
        inc = sample_brownian(grid, n, 1, seed=4).increments
        x0 = model.initial_sampler(n, 2)
        states, _ = meanfield._simulate_cloud(model, grid, inc, x0)
        np.testing.assert_array_equal(
            states, lstsq_reference.broadcast_simulate_cloud(model, grid, inc, x0))

    @pytest.mark.parametrize("where, bad", [
        ("drift", (64, 1)), ("drift", (63,)), ("drift", (1, 64)),
        ("terminal", (64, 1)), ("driver", (64, 1)), ("dy_f", (64, 1)),
    ])
    def test_cloud_rejects_coefficients_that_do_not_broadcast_to_the_cloud(self, where, bad):
        # A (N, 1) drift would otherwise broadcast against the (N,) states
        # into an (N, N) update; claims, driver values and state derivatives
        # obey the same rule.
        grid = make_time_grid(1.0, 4)
        bad_values = lambda *args: np.zeros(bad)
        base = mean_reversion_to_crowd_model()
        with pytest.raises(ValueError, match=re.escape(f"got shape {bad}")):
            if where == "drift":
                inc = sample_brownian(grid, 64, 1, seed=4).increments
                meanfield._simulate_cloud(replace(base, drift=bad_values), grid, inc,
                                          np.zeros(64))
            elif where in ("terminal", "driver"):
                simulate_particles(replace(base, **{where: bad_values}), 64, grid, seed=4)
            else:
                mkv = solve_mckean_vlasov(base, 128, grid, seed=4, solve_backward=False)
                coeffs = replace(linear_gaussian_fluctuation_coefficients(), dy_f=bad_values)
                solve_fluctuation_system(coeffs, mkv, gaussian_u0(0.5), n_paths=64, seed=4)

    @pytest.mark.parametrize("passes", [1, 2])
    @pytest.mark.parametrize("z_clip", [0.5, None], ids=["clip", "no-clip"])
    def test_backward_solves_match_the_flow_driver_route(self, z_clip, passes, monkeypatch):
        # The clouds solve on the backward kernel with a driver indexed by
        # step. The route through a Driver adapter that finds the step from
        # the float time, and solve_bsde_lsmc, gives the same arrays bit for
        # bit: the driver reads flow[k] at step k. The crowd mean grows
        # over time, so a driver reading another node's features differs.
        model = replace(linear_gaussian_model(a=0.5, c=0.5, sigma=0.3, m0=1.0, s0=0.3),
                        terminal=lambda x, feats: x * x - feats.mean,
                        driver=lambda t, x, y, z, feats: feats.mean - 0.5 * y + 0.1 * z * z)
        grid = make_time_grid(0.5, 8)
        opts = SolveOptions(inner_picard_iters=passes, z_clip=z_clip)

        def outputs():
            run = simulate_particles(model, 64, grid, seed=3, opts=opts)
            fixed_point = solve_mckean_vlasov(model, 128, grid, seed=4, opts=opts).run
            lln = lln_experiment(model, [16, 32], grid, n_trials=2, seed=5, opts=opts,
                                 n_reference=256)
            return (run.states, run.y, run.z, fixed_point.states, fixed_point.y,
                    fixed_point.z, lln.per_trial_x, lln.per_trial_y, lln.per_trial_z)

        got = outputs()
        clips = []

        def flow_driver_route(model, grid, states, increments, flow, basis, opts):
            sol = lstsq_reference.flow_driver_cloud_solve(model, grid, states, increments, flow,
                                                          basis, opts)
            clips.append(int(sol.z_clip_count.sum()))
            return meanfield.ParticleRun(states=states, y=sol.y, z=sol.z[:, :, 0],
                                         features=flow)

        monkeypatch.setattr(meanfield, "_solve_cloud_backward", flow_driver_route)
        want = outputs()
        assert len(clips) == 1 + 1 + 2 * 2 * 2
        assert (sum(clips) > 0) == (z_clip is not None)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_requires_two_particles(self):
        with pytest.raises(ValueError):
            simulate_particles(linear_gaussian_model(), 1, make_time_grid(1.0, 4), 0)

    def test_a_blow_up_names_its_first_particle_and_step(self):
        # Particle 5 overflows in the step from t_2 and particle 2 in the
        # step from t_4: the first non-finite state is particle 5 at step 3.
        grid = make_time_grid(1.0, 8)
        def drift(t, x, feats):
            out = np.zeros_like(x)
            out[5] = 1e308 if t >= 0.25 else 0.0
            out[2] = 1e308 if t >= 0.5 else 0.0
            return out * 1e10
        model = replace(independent_model(), drift=drift)
        with pytest.raises(SimulationDivergedError) as info:
            simulate_particles(model, 8, grid, seed=1)
        assert (info.value.path, info.value.step) == (5, 3)


class TestMcKeanVlasov:
    def test_no_measure_dependence_one_iteration(self):
        res = solve_mckean_vlasov(independent_model(), 256, make_time_grid(1.0, 20),
                                  seed=3, solve_backward=False)
        assert res.iterations == 1
        assert res.residuals == [0.0]

    def test_linear_mean_flow_matches_moment_ode(self):
        # b = 0.5 mean + 0.5 x: the mean solves m' = m, so m(1) = e.
        grid = make_time_grid(1.0, 100)
        model = linear_gaussian_model(a=0.5, c=0.5, sigma=0.1, m0=1.0, s0=0.2)
        res = solve_mckean_vlasov(model, 16384, grid, seed=3, solve_backward=False)
        assert res.flow[-1].mean == pytest.approx(np.e, rel=0.01)

    def test_residuals_contract(self):
        grid = make_time_grid(1.0, 50)
        model = linear_gaussian_model(a=0.5, c=0.5, sigma=0.1, m0=1.0, s0=0.2)
        res = solve_mckean_vlasov(model, 4096, grid, seed=3, solve_backward=False)
        ratios = [b / a for a, b in zip(res.residuals, res.residuals[1:]) if a > 1e-12]
        assert ratios and max(ratios) <= 0.9

    def test_divergent_coupling_raises(self):
        grid = make_time_grid(2.0, 20)
        model = MeanFieldModel(
            drift=lambda t, x, feats: 5.0 * feats.mean,
            diffusion=lambda t, x, feats: 0.1,
            terminal=lambda x, feats: x,
            initial_sampler=linear_gaussian_model(m0=1.0).initial_sampler,
            feature_names=("mean",),
        )
        with pytest.raises(NoFixedPointError):
            solve_mckean_vlasov(model, 256, grid, seed=1, max_iters=8,
                                solve_backward=False)

    def test_cloud_size_validated(self):
        with pytest.raises(ValueError):
            solve_mckean_vlasov(independent_model(), 50, make_time_grid(1.0, 4), 0)


class TestLln:
    def test_no_interaction_error_exactly_zero(self):
        grid = make_time_grid(0.5, 10)
        res = lln_experiment(independent_model(), [8, 16], grid, n_trials=2, seed=5,
                             n_reference=256)
        np.testing.assert_array_equal(res.err_x, 0.0)
        np.testing.assert_array_equal(res.err_y, 0.0)
        np.testing.assert_array_equal(res.err_z, 0.0)

    def test_linear_model_errors_decrease_with_slope(self):
        grid = make_time_grid(1.0, 25)
        res = lln_experiment(linear_gaussian_model(), [16, 64, 256], grid,
                             n_trials=10, seed=7, n_reference=16384)
        total = res.err_x + res.err_y + res.err_z
        assert np.all(np.diff(total) < 0)
        assert res.slope == pytest.approx(-1.0, abs=0.3)

    def test_crowd_model_errors_decrease(self):
        # The decrease holds on every shipped interacting model.
        grid = make_time_grid(1.0, 25)
        res = lln_experiment(mean_reversion_to_crowd_model(), [16, 64, 256], grid,
                             n_trials=10, seed=7, n_reference=16384)
        total = res.err_x + res.err_y + res.err_z
        assert np.all(np.diff(total) < 0)

    def test_csv_export(self, tmp_path):
        grid = make_time_grid(0.5, 8)
        res = lln_experiment(linear_gaussian_model(), [8, 16], grid, n_trials=2,
                             seed=5, n_reference=512)
        path = tmp_path / "lln.csv"
        export_lln_csv(res, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "N,trial,error_X,error_Y,error_Z,slope"
        assert len(rows) == 1 + 2 * 2

    def test_needs_two_sizes(self):
        with pytest.raises(ValueError):
            lln_experiment(linear_gaussian_model(), [16], make_time_grid(0.5, 4), 1, 0)


class TestClt:
    def test_no_interaction_no_perturbation_is_zero(self):
        grid = make_time_grid(0.5, 10)
        res = clt_experiment(independent_model(), [8, 16], grid, n_trials=2, seed=5,
                             n_reference=256, u0_std=0.0)
        np.testing.assert_array_equal(res.var_u, 0.0)
        np.testing.assert_array_equal(res.var_v, 0.0)

    def test_linear_gaussian_limit_variance(self):
        a, c, sigma, m0, s0 = 0.4, -0.5, 0.4, 0.3, 0.3
        u0_std = 0.5
        grid = make_time_grid(1.0, 50)
        model = linear_gaussian_model(a=a, c=c, sigma=sigma, m0=m0, s0=s0)
        res = clt_experiment(model, [256, 1024], grid, n_trials=40, seed=21,
                             n_reference=32768, u0_std=u0_std)
        v_star = limit_variance_oracle(a, c, sigma, s0, u0_std, 1.0)
        assert res.var_u[-1] == pytest.approx(v_star, rel=0.10)
        # Two counts give one variance gap, nothing to compare it with.
        with pytest.raises(ValueError, match="at least three particle counts, got 2"):
            res.stabilized()

    def test_stabilized_compares_successive_gaps(self):
        res = clt_experiment(linear_gaussian_model(), [16, 64, 256], make_time_grid(1.0, 10),
                             n_trials=8, seed=21, n_reference=1024, u0_std=0.5)
        assert res.stabilized()
        # Gaps that grow by more than their Monte Carlo floor fail the check.
        growing = replace(res, var_u=np.array([0.1, 0.2, 0.4]), var_u_se=np.full(3, 1e-3))
        assert not growing.stabilized()

    def test_matches_the_backward_solving_reference(self):
        # With a driver and a feature-dependent terminal, V at T is still the
        # terminal functional: the backward solves of the reference do not
        # move it.
        model = replace(mean_reversion_to_crowd_model(sigma=0.3),
                        terminal=lambda x, feats: x * x - feats.mean,
                        driver=lambda t, x, y, z, feats: feats.mean - 0.5 * y + 0.1 * z * z)
        args = (model, [16, 64], make_time_grid(0.5, 8), 3, 13)
        res = clt_experiment(*args, n_reference=1024, u0_std=0.4)
        ref = lstsq_reference.clt_reference(*args, n_reference=1024, u0_std=0.4)
        assert np.all(res.var_v > 0)
        for name in ("var_u", "var_v", "var_u_se", "var_v_se"):
            np.testing.assert_array_equal(getattr(res, name), getattr(ref, name))

    def test_non_finite_terminal_raises(self):
        model = replace(independent_model(), terminal=lambda x, feats: np.full_like(x, np.nan))
        with pytest.raises(ValueError, match="non-finite"):
            clt_experiment(model, [8, 16], make_time_grid(0.5, 4), n_trials=1, seed=5,
                           n_reference=256)

    def test_runs_no_backward_solve(self, factorizations, monkeypatch):
        solves = []
        original = meanfield._backward_solve

        def counting(*args, **kwargs):
            solves.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(meanfield, "_backward_solve", counting)
        grid = make_time_grid(0.5, 6)
        clt_experiment(linear_gaussian_model(), [8, 16], grid, n_trials=2, seed=5,
                       n_reference=256, u0_std=0.3)
        assert solves == [] and factorizations == []
        # The LLN experiment still solves the cloud and the copies, per trial
        # and per N, each on its own ensemble.
        lln_experiment(linear_gaussian_model(), [8, 16], grid, n_trials=2, seed=5,
                       n_reference=256)
        assert len(solves) == 2 * 2 * 2
        assert len(factorizations) == 2 * 2 * 2 * grid.n_steps

    def test_csv_export(self, tmp_path):
        grid = make_time_grid(0.5, 8)
        res = clt_experiment(linear_gaussian_model(), [8, 16], grid, n_trials=3,
                             seed=5, n_reference=512, u0_std=0.3)
        path = tmp_path / "clt.csv"
        export_clt_csv(res, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "N,var_U_T,var_V_T,u0_std,n_trials"
        assert len(rows) == 1 + 2


def limit_variance_oracle(a, c, sigma, s0, u0_std, horizon):
    """Lyapunov ODE for the limit system (S, A, Q):
    dS = c S dt + sigma dW', dA = ((a+c) A + a S) dt, dQ = (c Q + a A + a S) dt;
    Var(U_T) = exp(2cT) u0^2 + Var(Q_T)."""
    drift = np.array([[c, 0, 0], [a, a + c, 0], [a, a, c]])
    noise = np.array([sigma, 0.0, 0.0])

    def rhs(t, p):
        cov = p.reshape(3, 3)
        return (drift @ cov + cov @ drift.T + np.outer(noise, noise)).ravel()

    p0 = np.zeros((3, 3))
    p0[0, 0] = s0 ** 2
    sol = solve_ivp(rhs, (0.0, horizon), p0.ravel(), rtol=1e-10, atol=1e-12)
    return float(np.exp(2 * c * horizon) * u0_std ** 2 + sol.y[:, -1].reshape(3, 3)[2, 2])


class TestFluctuationSystem:
    def test_missing_callbacks_rejected(self):
        coeffs = FluctuationCoefficients(dx_b=ZERO_STATE)
        with pytest.raises(IncompleteCoefficientsError):
            coeffs.validate()

    def test_state_only_propagation_exact(self):
        grid = make_time_grid(1.0, 40)
        model = independent_model(rate=-0.3, sigma=0.2)   # drift +0.3 x
        mkv = solve_mckean_vlasov(model, 1024, grid, seed=1, solve_backward=False)
        fl = solve_fluctuation_system(diagonal_coefficients(0.3), mkv,
                                      gaussian_u0(0.7), n_paths=512, seed=5)
        expected = fl.u[:, 0] * (1.0 + 0.3 * grid.dt) ** grid.n_steps
        np.testing.assert_allclose(fl.u[:, -1], expected, rtol=1e-12)

    def test_zero_coefficients_martingale_mean(self):
        grid = make_time_grid(1.0, 20)
        model = independent_model()
        mkv = solve_mckean_vlasov(model, 1024, grid, seed=1, solve_backward=False)
        fl = solve_fluctuation_system(diagonal_coefficients(0.0), mkv,
                                      gaussian_u0(0.7), n_paths=512, seed=5)
        np.testing.assert_array_equal(fl.u[:, -1], fl.u[:, 0])
        assert fl.v0_mean == pytest.approx(float(fl.u[:, 0].mean()), abs=1e-10)

    def test_linearity_in_initial_fluctuations_exact(self):
        grid = make_time_grid(1.0, 20)
        model = independent_model(rate=-0.3, sigma=0.2)
        mkv = solve_mckean_vlasov(model, 1024, grid, seed=1, solve_backward=False)
        base = solve_fluctuation_system(diagonal_coefficients(0.3), mkv,
                                        gaussian_u0(0.7), n_paths=512, seed=5)
        doubled = solve_fluctuation_system(diagonal_coefficients(0.3), mkv,
                                           gaussian_u0(1.4), n_paths=512, seed=5)
        np.testing.assert_array_equal(doubled.u, 2.0 * base.u)
        np.testing.assert_array_equal(doubled.v, 2.0 * base.v)
        np.testing.assert_array_equal(doubled.z, 2.0 * base.z)

    def test_cross_validation_with_empirical_route(self):
        a, c, sigma, m0, s0 = 0.4, -0.5, 0.4, 0.3, 0.3
        u0_std = 0.5
        grid = make_time_grid(1.0, 50)
        model = linear_gaussian_model(a=a, c=c, sigma=sigma, m0=m0, s0=s0)
        mkv = solve_mckean_vlasov(model, 16384, grid, seed=4, solve_backward=False)
        coeffs = linear_gaussian_fluctuation_coefficients(a=a, c=c)
        fl = solve_fluctuation_system(coeffs, mkv, gaussian_u0(u0_std),
                                      n_paths=16384, seed=77, n_worlds=64,
                                      include_sampling_noise=True)
        v_star = limit_variance_oracle(a, c, sigma, s0, u0_std, 1.0)
        var_v = float(np.var(fl.v[:, -1], ddof=1))
        assert var_v == pytest.approx(v_star, rel=0.15)

    @pytest.mark.parametrize("sampling", [False, True])
    def test_matches_lstsq_reference(self, sampling):
        grid = make_time_grid(1.0, 12)
        model = linear_gaussian_model()
        mkv = solve_mckean_vlasov(model, 1024, grid, seed=4, solve_backward=False)
        base = linear_gaussian_fluctuation_coefficients()
        # Nonzero backward coefficients, so every term of the V drift counts.
        coeffs = FluctuationCoefficients(**{
            **{name: getattr(base, name) for name in base.__dataclass_fields__},
            "dx_f": lambda t, x, feats: 0.3 * x,
            "dy_f": lambda t, x, feats: np.full_like(x, -0.4),
            "dz_f": lambda t, x, feats: 0.5 + 0.0 * x,
            "dmu_f": lambda t, x, feats: 0.2,
            "dmu_g": lambda x, feats: -0.1,
        })
        opts = SolveOptions(inner_picard_iters=3)
        kwargs = dict(n_paths=1024, seed=9, n_worlds=4, include_sampling_noise=sampling)
        fl = solve_fluctuation_system(coeffs, mkv, gaussian_u0(0.5), opts=opts, **kwargs)
        u, v, z = lstsq_reference.fluctuation_system(coeffs, mkv, gaussian_u0(0.5), opts=opts,
                                                     **kwargs)
        np.testing.assert_array_equal(fl.u, u)
        assert np.max(np.abs(fl.v - v)) <= 1e-10 * np.max(np.abs(v))
        assert np.max(np.abs(fl.z - z)) <= 1e-10 * np.max(np.abs(z))

    @pytest.mark.parametrize("names", [("mean",), ("mean", "second_moment")])
    @pytest.mark.parametrize("varying", [False, True], ids=["constant", "per-row"])
    @pytest.mark.parametrize("ghost", [None, 0.37], ids=["no-ghost", "ghost"])
    def test_measure_term_matches_dense_lions(self, names, varying, ghost):
        rng = np.random.default_rng(3)
        x = rng.normal(0.3, 0.5, 257)
        u = rng.normal(0.0, 0.7, 257)
        if varying:
            partials = rng.normal(size=(257, len(names)))
        else:
            partials = np.array([0.4, -0.3])[:len(names)]
        got = _measure_term(partials, names, x, u, ghost)
        want = lstsq_reference.dense_measure_term(partials, names, x, u, ghost)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_peak_memory_is_linear_in_paths(self):
        # One (M, M) float array at 32 768 paths would be 8.6 GB.
        grid = make_time_grid(1.0, 20)
        model = linear_gaussian_model()
        mkv = solve_mckean_vlasov(model, 1024, grid, seed=4, solve_backward=False)
        tracemalloc.start()
        try:
            solve_fluctuation_system(linear_gaussian_fluctuation_coefficients(), mkv,
                                     gaussian_u0(0.5), n_paths=32_768, seed=9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 96e6

    def test_sampling_noise_needs_worlds(self):
        grid = make_time_grid(0.5, 5)
        mkv = solve_mckean_vlasov(independent_model(), 256, grid, seed=1,
                                  solve_backward=False)
        with pytest.raises(ValueError):
            solve_fluctuation_system(linear_gaussian_fluctuation_coefficients(),
                                     mkv, gaussian_u0(1.0), n_paths=256, seed=0,
                                     include_sampling_noise=True)
