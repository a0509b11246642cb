import itertools
import re
import warnings

import numpy as np
import pytest

import lstsq_reference
from bsdelab import merton
from bsdelab.errors import (ExtrapolationWarning, SolverDivergedError, SolverInconsistentError,
                            UnstableGridError)
from bsdelab.merton import (
    AllocationObservation,
    HjbGridSpec,
    MarketParams,
    calibrate_theta,
    classical_merton,
    crosscheck_entropic_value,
    export_policy_csv,
    extract_policy,
    read_observations_csv,
    solve_hjb,
    verify_ambiguity_properties,
    write_observations_csv,
)

PARAMS = MarketParams(mu=0.08, r=0.02, sigma=0.2, gamma=0.5, horizon=1.0)


class TestClassical:
    def test_table_formula(self):
        cls = classical_merton(PARAMS)
        # (mu - r) / (sigma^2 (1 - gamma)) = 0.06 / (0.04 * 0.5) = 3
        assert cls.pi == pytest.approx(3.0, abs=1e-12)

    def test_terminal_value_exact(self):
        cls = classical_merton(PARAMS)
        x = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(cls.value(1.0, x), x ** 0.5 / 0.5, rtol=1e-14)

    def test_invalid_markets(self):
        with pytest.raises(ValueError):
            MarketParams(mu=0.02, r=0.02, sigma=0.2, gamma=0.5)
        with pytest.raises(ValueError):
            MarketParams(mu=0.08, r=0.02, sigma=0.0, gamma=0.5)
        with pytest.raises(ValueError):
            MarketParams(mu=0.08, r=0.02, sigma=0.2, gamma=0.0)
        with pytest.raises(ValueError):
            MarketParams(mu=0.08, r=0.02, sigma=0.2, gamma=1.5)

    def test_closed_form_solves_pde(self):
        # At theta = 0 the closed form satisfies the scheme's own PDE
        # residual to discretization accuracy (checked via the solver below).
        cls = classical_merton(PARAMS)
        assert cls.rho == pytest.approx(
            PARAMS.gamma * (PARAMS.r + 0.06 ** 2 / (2 * 0.04 * 0.5)), rel=1e-14)


class TestHjbSolver:
    def test_space_grid_must_leave_interior_nodes(self):
        for n_space in (-3, 0, 2, 3):
            with pytest.raises(ValueError, match="no interior nodes"):
                HjbGridSpec.default(PARAMS, n_space=n_space)
        with pytest.raises(ValueError, match="no interior nodes"):
            HjbGridSpec(ell_lo=-1.0, ell_hi=1.0, n_space=40, interior_margin=0.6)
        grid = solve_hjb(PARAMS, 0.5, HjbGridSpec.default(PARAMS, n_space=4))
        assert grid.value[:, grid.interior].shape == (grid.times.size, 1)

    def test_terminal_slice_exact(self):
        grid = solve_hjb(PARAMS, 0.5, HjbGridSpec.default(PARAMS, n_space=80))
        np.testing.assert_array_equal(
            grid.value[-1], np.exp(PARAMS.gamma * grid.ell) / PARAMS.gamma)

    def test_classical_recovery(self):
        spec = HjbGridSpec.default(PARAMS, n_space=160)
        grid = solve_hjb(PARAMS, 0.0, spec)
        cls = classical_merton(PARAMS)
        inner = grid.interior
        ref = cls.value(grid.times[:, None], grid.wealth[None, :])
        val_err = np.max(np.abs(grid.value[:, inner] - ref[:, inner])
                         / np.abs(ref[:, inner]))
        pol_err = np.max(np.abs(grid.policy[:, inner] - cls.pi) / abs(cls.pi))
        assert val_err <= 0.005
        assert pol_err <= 0.02

    def test_refinement_halves_value_error(self):
        cls = classical_merton(PARAMS)

        def run(n_space, n_time):
            spec = HjbGridSpec.default(PARAMS, n_space=n_space, n_time=n_time)
            grid = solve_hjb(PARAMS, 0.0, spec)
            inner = grid.interior
            ref = cls.value(grid.times[:, None], grid.wealth[None, :])
            return np.max(np.abs(grid.value[:, inner] - ref[:, inner])
                          / np.abs(ref[:, inner]))

        # Stable for the finer grid as well; doubling both resolutions.
        base_time = 4 * 1200
        coarse = run(120, base_time)
        fine = run(240, 2 * base_time)
        assert 0.375 <= fine / coarse <= 0.625

    def test_unstable_grid_rejected(self):
        spec = HjbGridSpec.default(PARAMS, n_space=160, n_time=10)
        with pytest.raises(UnstableGridError) as info:
            solve_hjb(PARAMS, 0.0, spec)
        assert info.value.required > 10

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            solve_hjb(PARAMS, -0.1, HjbGridSpec.default(PARAMS))

    def test_policy_finite_and_second_order_condition(self):
        grid = solve_hjb(PARAMS, 0.5, HjbGridSpec.default(PARAMS, n_space=120))
        inner = grid.interior
        assert np.all(np.isfinite(grid.policy[:, inner]))
        # terminal-adjacent slice respects the sign condition by construction
        assert np.all(grid.policy[-2, inner] > 0)

    def test_caution_strict(self):
        spec = HjbGridSpec.default(PARAMS, n_space=120)
        cls = classical_merton(PARAMS)
        grid = solve_hjb(PARAMS, 0.5, spec)
        inner = grid.interior
        assert np.max(grid.policy[:, inner]) < cls.pi

    def test_gamma_negative_regime(self):
        params = MarketParams(mu=0.08, r=0.02, sigma=0.2, gamma=-1.0, horizon=1.0)
        spec = HjbGridSpec.default(params, n_space=120)
        grid = solve_hjb(params, 0.5, spec)
        cls = classical_merton(params)
        inner = grid.interior
        assert np.max(grid.policy[:, inner]) < cls.pi


# A market, theta = 0 and a grid on which V_x fails naturally mid-march, at
# slice 416 of 5000 (call 4584 of the per-slice route's derivatives).
MID_MARCH = (MarketParams(mu=0.08, r=0.02, sigma=0.2, gamma=-2.0),
             HjbGridSpec(ell_lo=-0.5, ell_hi=3.0, n_space=40, interior_margin=0.0,
                         n_time=5000))
INJECT_SPEC = HjbGridSpec.default(PARAMS, n_space=40, n_time=40)


def _break(ul, ull, node, condition):
    """Make condition fail at node (the second-order one only for theta < 0)."""
    if condition == "positivity":
        ul[node], ull[node] = -1.0, -2.0
    elif condition == "concavity":
        ull[node] = ul[node] + 1.0
    else:   # concave = -1, bracket = -1 - theta 1e8
        ul[node], ull[node] = 1e4, 1e4 - 1.0


def _inject(monkeypatch, module, n_time, breaks):
    """module's derivatives with _break applied at each (slice, node, condition)
    of breaks, right after that slice's derivatives are taken; both routes
    take them once per slice, slice n_time first."""
    derive = module._derivatives
    calls = itertools.count()

    def injected(u, h, *buffers):
        out = derive(u, h, *buffers)
        m = n_time - next(calls)
        ul, ull = buffers[:2] or out
        for at, node, condition in breaks:
            if at == m:
                _break(ul, ull, node, condition)
        return out

    monkeypatch.setattr(module, "_derivatives", injected)


class TestSignTable:
    """solve_hjb marches every slice and then checks the sign table once; the
    per-slice route of lstsq_reference checks each slice as it is computed."""

    @pytest.mark.parametrize("gamma", [0.5, -2.0])
    @pytest.mark.parametrize("theta", [0.0, 0.25, 1.0])
    def test_grids_are_the_per_slice_grids_bit_for_bit(self, gamma, theta):
        params = MarketParams(mu=0.08, r=0.02, sigma=0.2, gamma=gamma)
        new = solve_hjb(params, theta)
        old = lstsq_reference.per_slice_solve_hjb(params, theta)
        np.testing.assert_array_equal(new.value, old.value)
        np.testing.assert_array_equal(new.policy, old.policy)
        np.testing.assert_array_equal(new.times, old.times)

    @pytest.mark.parametrize("gamma, theta, fixed_pi", [(0.5, 0.5, 1.5), (0.5, 1.0, 3.0),
                                                        (-2.0, 0.25, 1.5), (-2.0, 0.0, 3.0)])
    def test_fixed_control_grids_are_the_per_slice_grids_bit_for_bit(self, gamma, theta,
                                                                     fixed_pi):
        params = MarketParams(mu=0.08, r=0.02, sigma=0.2, gamma=gamma)
        new = solve_hjb(params, theta, fixed_pi=fixed_pi)
        old = lstsq_reference.per_slice_solve_hjb(params, theta, fixed_pi=fixed_pi)
        np.testing.assert_array_equal(new.value, old.value)
        np.testing.assert_array_equal(new.policy, old.policy)
        assert np.all(new.policy == fixed_pi)

    def test_a_diverging_march_raises_where_the_per_slice_route_warned(self):
        # The fixed control ignores the theta penalty in its step bound; the
        # per-slice route returned a non-finite table with RuntimeWarnings.
        params = MarketParams(mu=0.08, r=0.02, sigma=0.2, gamma=-2.0)
        with pytest.warns(RuntimeWarning):
            old = lstsq_reference.per_slice_solve_hjb(params, 1.0, fixed_pi=1.5)
        n_time = old.times.size - 1
        first = max(m for m in range(n_time + 1) if not np.isfinite(old.value[m]).all())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverDivergedError,
                               match=f"^non-finite HJB values from slice {first} of {n_time}$"):
                solve_hjb(params, 1.0, fixed_pi=1.5)

    def test_a_natural_failure_mid_march_raises_the_per_slice_error(self, monkeypatch):
        params, spec = MID_MARCH
        slices = itertools.count(spec.n_time, -1)
        derive = lstsq_reference._derivatives
        monkeypatch.setattr(lstsq_reference, "_derivatives",
                            lambda u, h: (next(slices), derive(u, h))[1])
        message = "^" + re.escape("V_x lost positivity (node=38)") + "$"
        # No floating-point warning escapes the march past the failure.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solve in (solve_hjb, lstsq_reference.per_slice_solve_hjb):
                with pytest.raises(SolverInconsistentError, match=message) as info:
                    solve(params, 0.0, spec)
                assert info.value.node == 38
        assert next(slices) == 416 - 1

    @pytest.mark.parametrize("theta, breaks, message, node", [
        (0.0, [(25, 3, "positivity")], "V_x lost positivity", 3),
        (0.0, [(25, 5, "concavity")], "V_xx lost concavity", 5),
        (-1e-6, [(25, 2, "second-order")], "second-order condition violated", 2),
        (-1e-6, [(25, 1, "second-order"), (25, 2, "concavity"), (25, 6, "positivity")],
         "V_x lost positivity", 6),
        (-1e-6, [(25, 1, "second-order"), (25, 4, "concavity")], "V_xx lost concavity", 4),
        (0.0, [(25, 7, "positivity"), (25, 3, "positivity")], "V_x lost positivity", 3),
        (0.0, [(25, 2, "positivity"), (26, 5, "concavity")], "V_xx lost concavity", 5),
        (0.0, [(40, 4, "concavity"), (0, 1, "positivity")], "V_xx lost concavity", 4),
        (0.0, [(0, 9, "positivity")], "V_x lost positivity", 9),
    ], ids=["positivity", "concavity", "second-order", "first-condition-wins",
            "concavity-beats-second-order", "first-node-wins", "first-slice-in-march-order-wins",
            "terminal-slice", "slice-0"])
    def test_an_injected_failure_raises_the_per_slice_error(self, monkeypatch, theta, breaks,
                                                            message, node):
        # The bracket is concave - theta u_l^2, so for theta >= 0 it fails only
        # where concavity fails first; a negative theta, let past the range
        # rule in both routes, reaches the third message.
        start = INJECT_SPEC.n_space // 5   # the interior's first node at margin 0.2
        breaks = [(m, start + offset, condition) for m, offset, condition in breaks]
        expected = "^" + re.escape(f"{message} (node={start + node})") + "$"
        for module, solve in [(merton, solve_hjb),
                              (lstsq_reference, lstsq_reference.per_slice_solve_hjb)]:
            monkeypatch.setattr(module, "real", lambda name, value, **rule: float(value))
            _inject(monkeypatch, module, INJECT_SPEC.n_time, breaks)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SolverInconsistentError, match=expected):
                    solve(PARAMS, theta, INJECT_SPEC)

    @pytest.mark.parametrize("theta", [0.0, -1e-6])
    def test_the_injection_grid_passes_without_a_break(self, monkeypatch, theta):
        for module in (merton, lstsq_reference):
            monkeypatch.setattr(module, "real", lambda name, value, **rule: float(value))
        new = solve_hjb(PARAMS, theta, INJECT_SPEC)
        old = lstsq_reference.per_slice_solve_hjb(PARAMS, theta, INJECT_SPEC)
        np.testing.assert_array_equal(new.value, old.value)
        np.testing.assert_array_equal(new.policy, old.policy)


class TestPolicySurface:
    def test_interpolation_matches_grid(self):
        spec = HjbGridSpec.default(PARAMS, n_space=100)
        grid = solve_hjb(PARAMS, 0.25, spec)
        surface = extract_policy(grid)
        j = grid.ell.size // 2
        t = float(grid.times[len(grid.times) // 2])
        assert surface(t, float(grid.wealth[j])) == pytest.approx(
            grid.policy[len(grid.times) // 2, j], rel=1e-12)

    def test_out_of_grid_warns_and_clamps(self):
        grid = solve_hjb(PARAMS, 0.0, HjbGridSpec.default(PARAMS, n_space=60))
        surface = extract_policy(grid)
        with pytest.warns(ExtrapolationWarning):
            value = surface(0.0, 1e9)
        assert np.isfinite(value)

    def test_theta_monotone_decrease(self):
        spec = HjbGridSpec.default(PARAMS, n_space=120)
        low = solve_hjb(PARAMS, 0.2, spec)
        high = solve_hjb(PARAMS, 0.5, spec)
        inner = low.interior
        assert np.all(high.policy[:, inner] < low.policy[:, inner])


class TestAmbiguityProperties:
    def test_full_report(self):
        spec = HjbGridSpec.default(PARAMS, n_space=120)
        rep = verify_ambiguity_properties(PARAMS, [0.0, 0.25, 0.5, 1.0], spec)
        assert rep.caution_passed
        assert rep.monotone_passed
        assert rep.wealth_slope_sign == "decreasing"
        assert rep.wealth_slope_expected == "decreasing"
        assert rep.wealth_slope_consistent

    def test_vacuous_classical_case(self):
        spec = HjbGridSpec.default(PARAMS, n_space=100)
        rep = verify_ambiguity_properties(PARAMS, [0.0], spec)
        assert rep.caution_passed and rep.monotone_passed
        assert rep.max_interior_pi[0] == pytest.approx(classical_merton(PARAMS).pi,
                                                       rel=0.02)

    def test_high_risk_aversion_slope_diagnostic(self):
        params = MarketParams(mu=0.08, r=0.02, sigma=0.2, gamma=-1.0, horizon=1.0)
        spec = HjbGridSpec.default(params, n_space=120)
        rep = verify_ambiguity_properties(params, [0.0, 0.5], spec)
        assert rep.wealth_slope_expected == "increasing"
        assert rep.wealth_slope_sign == "increasing"

    def test_theta_list_validated(self):
        with pytest.raises(ValueError):
            verify_ambiguity_properties(PARAMS, [0.5, 0.25])
        with pytest.raises(ValueError):
            verify_ambiguity_properties(PARAMS, [-0.5, 0.25])
        with pytest.raises(ValueError, match="theta_list must not be empty"):
            verify_ambiguity_properties(PARAMS, [])


class TestCalibration:
    def observations_at(self, theta, spec):
        surface = extract_policy(solve_hjb(PARAMS, theta, spec))
        return [AllocationObservation(t, x, surface(t, x) * x)
                for t in (0.0, 0.25, 0.5) for x in (0.6, 0.9, 1.0, 1.3)]

    def test_noise_free_recovery(self):
        spec = HjbGridSpec.default(PARAMS, n_space=100)
        obs = self.observations_at(0.4, spec)
        res = calibrate_theta(PARAMS, obs, spec, 0.0, 1.0, tol=1e-3)
        assert res.theta_star == pytest.approx(0.4, rel=0.03)
        assert not res.fallback_used

    def test_classical_observations_recover_zero(self):
        spec = HjbGridSpec.default(PARAMS, n_space=100)
        obs = self.observations_at(0.0, spec)
        res = calibrate_theta(PARAMS, obs, spec, 0.0, 1.0, tol=1e-3)
        assert res.theta_star < 0.02

    def test_minimum_at_the_bound_takes_no_scan(self, monkeypatch):
        spec = HjbGridSpec.default(PARAMS, n_space=100)
        obs = self.observations_at(0.0, spec)
        solves = []

        def counting(*args, **kwargs):
            solves.append(1)
            return solve_hjb(*args, **kwargs)

        monkeypatch.setattr(merton, "solve_hjb", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = calibrate_theta(PARAMS, obs, spec, 0.0, 1.0, tol=1e-3)
        assert res.theta_star == 0.0
        assert not res.fallback_used
        assert len(solves) <= 25

    def test_end_winning_away_from_the_bracket_falls_back(self, monkeypatch):
        # Loss theta -> min(0.1 + (theta - 0.3)^2, 10 (1 - theta)^2): a local
        # minimum at 0.3 that golden-section search converges to, and the
        # global minimum 0 at theta_hi = 1.
        def loss(theta):
            return min(0.1 + (theta - 0.3) ** 2, 10.0 * (1.0 - theta) ** 2)

        monkeypatch.setattr(merton, "solve_hjb", lambda params, theta, spec: theta)
        monkeypatch.setattr(merton, "extract_policy",
                            lambda theta: lambda t, x: np.sqrt(loss(theta)))
        obs = [AllocationObservation(0.5, 1.0, 0.0)]
        with pytest.warns(UserWarning, match="dense scan fallback"):
            res = calibrate_theta(PARAMS, obs, None, 0.0, 1.0, tol=1e-3)
        assert res.fallback_used
        assert res.theta_star == 1.0 and res.loss_star == 0.0

    def test_bracketing_property(self):
        spec = HjbGridSpec.default(PARAMS, n_space=100)
        low = extract_policy(solve_hjb(PARAMS, 0.2, spec))
        high = extract_policy(solve_hjb(PARAMS, 0.6, spec))
        mid_amount = 0.5 * (low(0.5, 1.0) + high(0.5, 1.0)) * 1.0
        obs = [AllocationObservation(0.5, 1.0, mid_amount)]
        res = calibrate_theta(PARAMS, obs, spec, 0.0, 1.0, tol=1e-3)
        assert 0.2 < res.theta_star < 0.6
        assert res.loss_star < min(res.curve[0, 1], res.curve[-1, 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            calibrate_theta(PARAMS, [], theta_lo=0.0, theta_hi=1.0)
        with pytest.raises(ValueError):
            calibrate_theta(PARAMS, [AllocationObservation(0, 1, 1)],
                            theta_lo=1.0, theta_hi=0.0)


class TestCsvInterfaces:
    def test_policy_export(self, tmp_path):
        grid = solve_hjb(PARAMS, 0.0, HjbGridSpec.default(PARAMS, n_space=40))
        path = tmp_path / "policy.csv"
        export_policy_csv(grid, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "t,x,V,pi"
        assert len(rows) == 1 + grid.times.size * grid.ell.size

    def test_observations_round_trip(self, tmp_path):
        obs = [AllocationObservation(0.25, 1.5, 4.2),
               AllocationObservation(0.75, 0.8, 2.1)]
        path = tmp_path / "obs.csv"
        write_observations_csv(obs, path)
        back = read_observations_csv(path)
        assert back == obs

    def test_observation_validation(self):
        with pytest.raises(ValueError):
            AllocationObservation(0.0, -1.0, 1.0)


class TestCrossValidation:
    def test_pde_bsde_oracle_agree(self):
        result = crosscheck_entropic_value(PARAMS, theta=0.5, pi_fixed=1.5,
                                           n_paths=40_000, n_steps=40, seed=3)
        assert result["pde_value"] == pytest.approx(result["oracle_value"], rel=0.02)
        assert result["bsde_value"] == pytest.approx(result["oracle_value"], rel=0.02)
