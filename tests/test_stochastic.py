import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from bsdelab import stochastic
from bsdelab.errors import SimulationDivergedError
from bsdelab.stochastic import (
    BrownianBundle,
    ForwardModel,
    PathEnsemble,
    brownian_model,
    geometric_brownian_model,
    load_bundle,
    make_time_grid,
    sample_brownian,
    save_bundle,
    simulate_forward,
    split_seed,
    wasserstein2_1d,
)


class TestTimeGrid:
    def test_uniform_nodes(self):
        grid = make_time_grid(1.0, 4)
        np.testing.assert_allclose(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert grid.nodes[-1] == 1.0

    def test_single_step(self):
        grid = make_time_grid(1.0, 1)
        np.testing.assert_array_equal(grid.nodes, [0.0, 1.0])

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            make_time_grid(2.0, 0)
        with pytest.raises(ValueError):
            make_time_grid(0.0, 4)
        with pytest.raises(ValueError):
            make_time_grid(-1.0, 4)

    def test_node_index_rejects_off_grid(self):
        grid = make_time_grid(1.0, 4)
        assert grid.node_index(0.5) == 2
        with pytest.raises(ValueError):
            grid.node_index(0.3)


class TestBrownianSampling:
    def test_moments_single_step(self):
        grid = make_time_grid(1.0, 1)
        bundle = sample_brownian(grid, 100_000, 1, seed=42)
        inc = bundle.increments[:, 0, 0]
        assert abs(inc.mean()) <= 3.0 / np.sqrt(100_000)
        assert abs(inc.var() - 1.0) <= 0.01

    def test_variance_matches_dt(self):
        grid = make_time_grid(1.0, 4)  # dt = 0.25
        bundle = sample_brownian(grid, 100_000, 1, seed=7)
        var = bundle.increments.var()
        assert abs(var - 0.25) <= 0.01 * 0.25

    def test_determinism(self):
        grid = make_time_grid(1.0, 8)
        a = sample_brownian(grid, 500, 2, seed=3)
        b = sample_brownian(grid, 500, 2, seed=3)
        np.testing.assert_array_equal(a.increments, b.increments)

    def test_different_seeds_differ(self):
        grid = make_time_grid(1.0, 8)
        a = sample_brownian(grid, 100, 1, seed=3)
        b = sample_brownian(grid, 100, 1, seed=4)
        assert not np.array_equal(a.increments, b.increments)

    def test_invalid_counts(self):
        grid = make_time_grid(1.0, 2)
        with pytest.raises(ValueError):
            sample_brownian(grid, 0, 1, seed=0)
        with pytest.raises(ValueError):
            sample_brownian(grid, 10, 0, seed=0)

    def test_split_seed_stable(self):
        assert split_seed(7, "a", 1) == split_seed(7, "a", 1)
        assert split_seed(7, "a", 1) != split_seed(7, "a", 2)
        assert split_seed(7, "a") != split_seed(8, "a")

    def test_dump_round_trip(self, tmp_path):
        grid = make_time_grid(0.5, 6)
        bundle = sample_brownian(grid, 37, 2, seed=11)
        path = tmp_path / "bundle.bin"
        save_bundle(bundle, path)
        back = load_bundle(path)
        np.testing.assert_array_equal(back.increments, bundle.increments)
        assert back.seed == bundle.seed
        assert back.dt == bundle.dt

    @pytest.mark.parametrize("n_paths", [37, 2 * stochastic._PATH_BLOCK + 37])
    def test_dump_body_is_path_major(self, tmp_path, n_paths):
        # The file keeps the path-major format; the loaded bundle is stored
        # time-major and sums W_T as the draw does.
        grid = make_time_grid(0.5, 3)
        bundle = sample_brownian(grid, n_paths, 2, seed=11)
        path = tmp_path / "bundle.bin"
        save_bundle(bundle, path)
        reference = one_shot_increments(grid, n_paths, 2, seed=11)
        header = b"BWB1" + struct.pack("<qqqqd", n_paths, 3, 2, 11, grid.dt)
        assert path.read_bytes() == header + reference.astype("<f8").tobytes()
        back = load_bundle(path)
        assert_time_major(back.increments)
        assert not back.increments.flags.writeable
        np.testing.assert_array_equal(back.increments, reference)
        np.testing.assert_array_equal(back.terminal_motion(), reference.sum(axis=1))


def one_shot_increments(grid, n_paths, dim, seed):
    """The increments as one (n_paths, n_steps, dim) draw, path-major: the
    reference the blocked, time-major fill must equal bit for bit."""
    gen = stochastic._generator(
        split_seed(seed, "brownian-bundle", n_paths, grid.n_steps, dim))
    return stochastic._standard_normal(gen, (n_paths, grid.n_steps, dim)) * np.sqrt(grid.dt)


def path_major_euler(model, grid, increments):
    """Euler states of a decoupled model stepped on a path-major array."""
    m = increments.shape[0]
    states = np.empty((m, grid.n_steps + 1, model.state_dim))
    states[:, 0, :] = model.x0
    x = states[:, 0, :]
    for k in range(grid.n_steps):
        t = grid.nodes[k]
        b = np.broadcast_to(model.drift(t, x), x.shape)
        sig = np.broadcast_to(model.diffusion(t, x), x.shape + (increments.shape[2],))
        x = x + b * grid.dt + np.einsum("pnd,pd->pn", sig, increments[:, k, :])
        states[:, k + 1, :] = x
    return states


def assert_time_major(a):
    assert np.swapaxes(a, 0, 1).flags.c_contiguous
    for k in range(a.shape[1]):
        assert a[:, k, :].flags.c_contiguous


MIX = np.array([[0.3, 0.1], [0.0, 0.2]])
LINEAR_2D = ForwardModel(drift=lambda t, x: -0.5 * x, diffusion=lambda t, x: MIX,
                         x0=np.array([0.2, -0.1]), state_dim=2)


class TestTimeMajorStorage:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n_paths", [
        100,                                  # less than one block
        stochastic._PATH_BLOCK,               # exactly one block
        2 * stochastic._PATH_BLOCK + 37,      # not a multiple of the block
    ])
    def test_blocked_draw_is_the_one_shot_draw(self, n_paths, dim):
        grid = make_time_grid(1.0, 6)
        bundle = sample_brownian(grid, n_paths, dim, seed=3)
        reference = one_shot_increments(grid, n_paths, dim, seed=3)
        assert_time_major(bundle.increments)
        assert np.array_equal(bundle.increments, reference)
        assert np.array_equal(bundle.terminal_motion(), reference.sum(axis=1))
        model = LINEAR_2D if dim == 2 else geometric_brownian_model(0.05, 0.3, 1.0)
        ens = simulate_forward(model, grid, bundle)
        assert_time_major(ens.states)
        assert np.array_equal(ens.states, path_major_euler(model, grid, reference))

    def test_draw_and_states_match_recorded_digests(self):
        # blake2b digests of the path-major bytes, recorded from the one-shot
        # draw and the path-major Euler loop (x86-64, numpy 2.4, scipy 1.17):
        # any change to the bits of the draw, W_T or the Euler states fails.
        grid = make_time_grid(1.0, 6)
        bundle = sample_brownian(grid, stochastic._PATH_BLOCK + 5, 2, seed=20261019)
        ens = simulate_forward(LINEAR_2D, grid, bundle)
        digest = lambda a: hashlib.blake2b(np.ascontiguousarray(a).tobytes(),
                                           digest_size=16).hexdigest()
        assert digest(bundle.increments) == "7cc5fcd07e5a1a114614b084f29db865"
        assert digest(bundle.terminal_motion()) == "721c44aa0cbb29823ef5a4e51add74ca"
        assert digest(ens.states) == "5228b476fed57ed29d253113ebb5c0cd"

    def test_path_major_arrays_are_stored_time_major(self):
        grid = make_time_grid(1.0, 4)
        increments = np.random.default_rng(0).standard_normal((50, 4, 2))
        bundle = BrownianBundle(increments=increments, dt=grid.dt, seed=0)
        assert_time_major(bundle.increments)
        np.testing.assert_array_equal(bundle.increments, increments)
        np.testing.assert_array_equal(bundle.terminal_motion(), increments.sum(axis=1))
        states = np.random.default_rng(1).standard_normal((50, 5, 2))
        ens = PathEnsemble(states=states, grid=grid, bundle=bundle)
        assert_time_major(ens.states)
        np.testing.assert_array_equal(ens.states, states)
        # A time-major view is kept as it is, not copied again.
        assert PathEnsemble(states=ens.states, grid=grid, bundle=bundle).states is ens.states

    def test_arrays_that_are_not_three_dimensional_are_rejected(self):
        with pytest.raises(ValueError, match="n_paths, n_steps, dim"):
            BrownianBundle(increments=np.zeros((10, 4)), dt=0.25, seed=0)


class TestForwardSimulation:
    def test_pure_brownian_is_cumsum(self):
        grid = make_time_grid(1.0, 16)
        bundle = sample_brownian(grid, 200, 1, seed=1)
        ens = simulate_forward(brownian_model(1), grid, bundle)
        expected = np.cumsum(bundle.increments[:, :, 0], axis=1)
        np.testing.assert_allclose(ens.states[:, 1:, 0], expected, atol=1e-14)
        np.testing.assert_array_equal(ens.states[:, 0, 0], 0.0)

    def test_drift_only_euler_product(self):
        # mu = 1, T = 1, 4 steps: X_T = (1 + 0.25)^4 = 2.44140625
        grid = make_time_grid(1.0, 4)
        bundle = sample_brownian(grid, 3, 1, seed=0)
        model = ForwardModel(drift=lambda t, x: x, diffusion=lambda t, x: 0.0,
                             x0=np.array([1.0]), state_dim=1)
        ens = simulate_forward(model, grid, bundle)
        np.testing.assert_allclose(ens.states[:, -1, 0], 1.25 ** 4, rtol=1e-14)

    def test_gbm_terminal_mean(self):
        grid = make_time_grid(1.0, 50)
        n = 100_000
        bundle = sample_brownian(grid, n, 1, seed=9)
        ens = simulate_forward(geometric_brownian_model(0.08, 0.2, 1.0), grid, bundle)
        xt = ens.states[:, -1, 0]
        se = xt.std() / np.sqrt(n)
        # Euler bias is O(dt); allow it on top of the 3 sigma band.
        assert abs(xt.mean() - np.exp(0.08)) <= 3.0 * se + 5e-3

    def test_weak_error_halves_for_drift_only(self):
        # (1 + dt)^(1/dt) versus e: first order in dt.
        model = ForwardModel(drift=lambda t, x: x, diffusion=lambda t, x: 0.0,
                             x0=np.array([1.0]), state_dim=1)

        def terminal(n_steps):
            grid = make_time_grid(1.0, n_steps)
            bundle = sample_brownian(grid, 1, 1, seed=0)
            return simulate_forward(model, grid, bundle).states[0, -1, 0]

        err_coarse = abs(terminal(4) - np.e)
        err_fine = abs(terminal(8) - np.e)
        assert 0.4 <= err_fine / err_coarse <= 0.65

    def test_divergence_reports_path_and_step(self):
        grid = make_time_grid(1.0, 10)
        bundle = sample_brownian(grid, 5, 1, seed=2)
        model = ForwardModel(drift=lambda t, x: x ** 5, diffusion=lambda t, x: 0.0,
                             x0=np.array([50.0]), state_dim=1)
        with np.errstate(over="ignore"), pytest.raises(SimulationDivergedError) as info:
            simulate_forward(model, grid, bundle)
        assert info.value.step >= 1

    def test_coupled_model_requires_fields(self):
        grid = make_time_grid(1.0, 4)
        bundle = sample_brownian(grid, 8, 1, seed=2)
        model = ForwardModel(drift=lambda t, x, y, z: y[:, None],
                             diffusion=lambda t, x, y, z: 1.0,
                             x0=np.array([0.0]), state_dim=1, coupled_in_yz=True)
        with pytest.raises(ValueError):
            simulate_forward(model, grid, bundle)

    def test_repeat_simulation_bitwise(self):
        grid = make_time_grid(1.0, 12)
        bundle = sample_brownian(grid, 64, 1, seed=5)
        model = geometric_brownian_model(0.05, 0.3, 2.0)
        a = simulate_forward(model, grid, bundle)
        b = simulate_forward(model, grid, bundle)
        np.testing.assert_array_equal(a.states, b.states)


class TestWasserstein:
    def test_identity(self):
        assert wasserstein2_1d([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]) == 0.0

    def test_point_masses(self):
        assert wasserstein2_1d([0.0], [1.0]) == 1.0

    def test_quantile_coupling(self):
        # {0, 2} vs {1, 3}: squared distance (1 + 1) / 2 = 1.
        assert wasserstein2_1d([0.0, 2.0], [1.0, 3.0]) == pytest.approx(1.0)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            wasserstein2_1d([0.0, 1.0], [0.0])
        with pytest.raises(ValueError):
            wasserstein2_1d([], [])

    @given(hst.lists(hst.floats(-50, 50), min_size=1, max_size=24))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, xs):
        rng = np.random.default_rng(0)
        ys = rng.normal(size=len(xs))
        assert wasserstein2_1d(xs, ys) == pytest.approx(wasserstein2_1d(ys, xs))

    @given(hst.integers(1, 16), hst.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, n, seed):
        rng = np.random.default_rng(seed)
        a, b, c = rng.normal(size=(3, n)) * rng.uniform(0.5, 3.0)
        ab = wasserstein2_1d(a, b)
        bc = wasserstein2_1d(b, c)
        ac = wasserstein2_1d(a, c)
        assert ac <= ab + bc + 1e-12

    def test_zero_iff_equal_multisets(self):
        a = [1.0, 1.0, 2.0]
        b = [2.0, 1.0, 1.0]
        assert wasserstein2_1d(a, b) == 0.0
        assert wasserstein2_1d(a, [1.0, 1.0, 2.5]) > 0.0
