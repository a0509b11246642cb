import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from bsdelab import nets
from bsdelab.drivers import (
    Driver,
    TruncatedDriver,
    entropic_driver,
    linear_z_driver,
    quadratic_z_driver,
    scaled_constant_driver,
    zero_driver,
)
from bsdelab.errors import InvalidArchitectureError
from bsdelab.nets import (
    _softplus,
    ArchitectureKind,
    DriverNet,
    NetLayout,
    build_driver,
    build_homogeneous_icnn,
    driver_gradients,
    emit_driver_net,
    estimate_growth_and_lipschitz,
    eval_driver,
    load_driver_net,
    parse_driver_net,
    save_driver_net,
    verify_convexity,
    verify_monotone,
)
from sensitivity_reference import per_sample_gradients

KINDS = ["Free", "Separable", "BoundedInteraction", "MonotoneY", "IcnnYZ"]


def layout_for(kind, state_dim=1, z_dim=1, hidden=(6, 5)):
    return NetLayout(
        state_dim=state_dim, z_dim=z_dim, hidden=hidden, n2_hidden=(4,),
        activation="softplus" if kind == "IcnnYZ" else "tanh",
    )


def random_point(rng, net):
    n, d = net.layout.state_dim, net.layout.z_dim
    return (rng.uniform(0, 1), rng.normal(size=n), rng.normal(), rng.normal(size=d))


class TestConstruction:
    @pytest.mark.parametrize("kind", KINDS)
    def test_build_and_eval(self, kind):
        net = build_driver(kind, layout_for(kind), init_seed=1)
        val = eval_driver(net, 0.2, [0.1], 0.3, [0.4])
        assert np.isfinite(val)

    def test_zero_parameters_give_zero_output(self):
        lay = layout_for("Free")
        net = build_driver("Free", lay, init_seed=0).with_params(
            np.zeros(build_driver("Free", lay).n_params))
        for y in (-2.0, 0.0, 3.5):
            assert eval_driver(net, 0.5, [1.0], y, [2.0]) == 0.0

    def test_evaluation_is_pure(self):
        net = build_driver("MonotoneY", layout_for("MonotoneY"), init_seed=4)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 1))
        y = rng.normal(size=64)
        z = rng.normal(size=(64, 1))
        np.testing.assert_array_equal(net.value(0.3, x, y, z), net.value(0.3, x, y, z))

    def test_invalid_architectures(self):
        with pytest.raises(InvalidArchitectureError):
            build_driver("IcnnYZ", NetLayout(activation="tanh"))
        with pytest.raises(InvalidArchitectureError):
            build_driver("MonotoneY", NetLayout(activation="relu"))
        with pytest.raises(InvalidArchitectureError):
            build_driver("Free", NetLayout(hidden=()))
        with pytest.raises(InvalidArchitectureError):
            build_driver("BoundedInteraction", NetLayout(interaction_bound=0.0))
        with pytest.raises(InvalidArchitectureError):
            build_driver("BoundedInteraction", NetLayout(n2_monotone=True))
        # Widths are integers: no float, bool or nested width is coerced.
        for widths in ((8.7, 4), (8, True), ([1],), (np.float64(3.0),)):
            with pytest.raises(InvalidArchitectureError, match="hidden widths must be integers"):
                NetLayout(hidden=widths)
            with pytest.raises(InvalidArchitectureError, match="n2_hidden widths must be integers"):
                NetLayout(n2_hidden=widths)
        assert NetLayout(hidden=(np.int64(5), 3)).hidden == (5, 3)

    @pytest.mark.parametrize("kind", KINDS)
    def test_architecture_is_built_once_and_shared(self, kind, monkeypatch):
        calls = []
        architecture = nets._architecture
        monkeypatch.setattr(nets, "_architecture",
                            lambda *args: calls.append(args) or architecture(*args))
        net = build_driver(kind, layout_for(kind), init_seed=2)
        assert len(calls) == 1
        assert net.with_params(net.theta + 0.5)._stacks is net._stacks

    def test_hand_set_monotone_affine_layer(self):
        # One hidden unit: f = w_out * tanh(w_y * y); with w_y = -0.01 and
        # w_out = 100 the tanh stays in its linear region, so f(0.3) = -0.3.
        lay = NetLayout(state_dim=1, z_dim=1, hidden=(1,), activation="tanh")
        net = build_driver("MonotoneY", lay)
        theta = np.zeros(net.n_params)
        stack = net._stacks["main"]
        first, out = stack.layers[0], stack.layers[1]
        w1 = np.zeros((1, 4))           # columns (t, x, y, z)
        w1[0, 2] = np.log(np.expm1(0.01))   # softplus -> 0.01, negated
        theta[first.blocks[0].w_slice] = w1.ravel()
        theta[out.blocks[0].w_slice] = 100.0  # softplus(100) = 100 in float64
        net = net.with_params(theta)
        assert eval_driver(net, 0.0, [0.0], 0.3, [0.0]) == pytest.approx(-0.3, abs=1e-6)


class TestMonotonicity:
    def test_monotone_nets_exact(self):
        for seed in range(5):
            net = build_driver("MonotoneY", layout_for("MonotoneY"), init_seed=seed)
            report = verify_monotone(net, n_samples=2_000, seed=seed)
            assert report.passed and report.max_dy <= 0.0

    def test_effective_weight_signs(self):
        net = build_driver("MonotoneY", layout_for("MonotoneY", state_dim=2, z_dim=2),
                           init_seed=8)
        from bsdelab.nets import _transform
        stack = net._stacks["main"]
        first = stack.layers[0]
        block = first.blocks[0]
        raw = net.theta[block.w_slice].reshape(first.n_out, block.n_in)
        eff, _ = _transform(raw, block.codes)
        y_col = 1 + 2  # (t, x1, x2, y, z1, z2)
        assert np.all(eff[:, y_col] <= 0.0)
        for layer in stack.layers[1:]:
            blk = layer.blocks[0]
            raw = net.theta[blk.w_slice].reshape(layer.n_out, blk.n_in)
            eff, _ = _transform(raw, blk.codes)
            assert np.all(eff >= 0.0)

    def test_constraints_survive_parameter_updates(self):
        net = build_driver("MonotoneY", layout_for("MonotoneY"), init_seed=2)
        rng = np.random.default_rng(1)
        for _ in range(5):
            net = net.with_params(net.theta + rng.normal(scale=0.5, size=net.n_params))
            assert verify_monotone(net, n_samples=500, seed=0).passed

    def test_free_net_with_positive_y_weight_fails(self):
        lay = NetLayout(state_dim=1, z_dim=1, hidden=(1,), activation="tanh")
        net = build_driver("Free", lay)
        theta = np.zeros(net.n_params)
        stack = net._stacks["main"]
        w1 = np.zeros((1, 4))
        w1[0, 2] = 1.0    # y weight +1 on an increasing path
        theta[stack.layers[0].blocks[0].w_slice] = w1.ravel()
        theta[stack.layers[1].blocks[0].w_slice] = 1.0
        report = verify_monotone(net.with_params(theta), n_samples=500, seed=0)
        assert not report.passed and report.max_dy > 0.0

    def test_verify_monotone_forms_no_per_sample_jacobian(self):
        # An (n_samples, P) per-sample Jacobian here would be 10 000 x 1 249
        # doubles (100 MB); the check reads df/dy only.
        net = build_driver("MonotoneY", NetLayout(hidden=(32, 32)), init_seed=0)
        assert net.n_params == 1_249
        tracemalloc.start()
        try:
            report = verify_monotone(net, n_samples=10_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 32 * 2**20

    def test_separable_with_non_increasing_n2_passes(self):
        lay = NetLayout(state_dim=1, z_dim=1, hidden=(6,), n2_hidden=(4,),
                        n2_monotone=True)
        net = build_driver("Separable", lay, init_seed=3)
        assert verify_monotone(net, n_samples=2_000, seed=1).passed

    def test_separable_zero_n2_is_y_independent(self):
        lay = NetLayout(state_dim=1, z_dim=1, hidden=(6,), n2_hidden=(4,))
        net = build_driver("Separable", lay, init_seed=3)
        theta = net.theta.copy()
        stack = net._stacks["y"]
        for layer in stack.layers:
            theta[layer.b_slice] = 0.0
            for block in layer.blocks:
                theta[block.w_slice] = 0.0
        net = net.with_params(theta)
        a = eval_driver(net, 0.1, [0.5], -3.0, [0.7])
        b = eval_driver(net, 0.1, [0.5], +4.0, [0.7])
        assert a == b


class TestConvexity:
    def test_icnn_midpoint_zero_tolerance(self):
        for seed in range(5):
            net = build_driver("IcnnYZ", layout_for("IcnnYZ"), init_seed=seed)
            report = verify_convexity(net, n_segments=1_000, seed=seed, tol=0.0)
            assert report.passed

    def test_concave_builtin_fails(self):
        report = verify_convexity(entropic_driver(1.0), n_segments=300, seed=0,
                                  state_dim=1, z_dim=1)
        assert not report.passed and report.max_violation > 0.0

    def test_affine_passes_with_equality(self):
        report = verify_convexity(linear_z_driver(0.7), n_segments=300, seed=0,
                                  tol=1e-12, state_dim=1, z_dim=1)
        assert report.passed
        assert abs(report.max_violation) <= 1e-12

    def test_homogeneous_icnn_properties(self):
        net = build_homogeneous_icnn(init_seed=5)
        # Piecewise-linear (relu) nets have affine regions where the midpoint
        # inequality is an equality, so rounding needs an epsilon; the strict
        # softplus nets above verify at tol = 0.
        assert verify_convexity(net, n_segments=500, seed=2, tol=1e-12).passed
        rng = np.random.default_rng(0)
        z = rng.normal(size=(32, 1))
        x = rng.normal(size=(32, 1))
        base = net.value(0.0, x, np.zeros(32), z)
        assert np.array_equal(net.value(0.0, x, np.zeros(32), 2.0 * z), 2.0 * base)
        assert np.all(net.value(0.0, x, np.zeros(32), np.zeros((32, 1))) == 0.0)
        lin = net.linearize(0.0, x, rng.normal(size=32), z)
        assert np.all(lin.dy == 0.0)


class TestGradients:
    def test_analytic_vs_finite_differences_smooth(self):
        rng = np.random.default_rng(7)
        h = 1e-5
        worst = 0.0
        for i in range(100):
            kind = KINDS[i % len(KINDS)]
            lay = NetLayout(
                state_dim=1 + i % 2, z_dim=1 + (i // 2) % 2, hidden=(5, 4),
                n2_hidden=(3,),
                activation="softplus" if kind == "IcnnYZ" else "tanh",
            )
            net = build_driver(kind, lay, init_seed=i)
            t, x, y, z = random_point(rng, net)
            g = driver_gradients(net, t, x, y, z)

            fd_y = (eval_driver(net, t, x, y + h, z) - eval_driver(net, t, x, y - h, z)) / (2 * h)
            scale = max(abs(g.dy[0]), abs(fd_y), 1e-8)
            worst = max(worst, abs(g.dy[0] - fd_y) / scale)

            j = rng.integers(net.layout.z_dim)
            dz = np.zeros(net.layout.z_dim)
            dz[j] = h
            fd_z = (eval_driver(net, t, x, y, z + dz) - eval_driver(net, t, x, y, z - dz)) / (2 * h)
            scale = max(abs(g.dz[0, j]), abs(fd_z), 1e-8)
            worst = max(worst, abs(g.dz[0, j] - fd_z) / scale)

            for k in rng.choice(net.n_params, size=3, replace=False):
                bump = np.zeros(net.n_params)
                bump[k] = h
                up = eval_driver(net.with_params(net.theta + bump), t, x, y, z)
                dn = eval_driver(net.with_params(net.theta - bump), t, x, y, z)
                fd = (up - dn) / (2 * h)
                scale = max(abs(g.dtheta[0, k]), abs(fd), 1e-8)
                worst = max(worst, abs(g.dtheta[0, k] - fd) / scale)
        assert worst <= 1e-6

    def test_relu_nets_near_kinks(self):
        rng = np.random.default_rng(3)
        h = 1e-5
        worst = 0.0
        for i in range(10):
            net = build_driver("Free", NetLayout(hidden=(6,), activation="relu"),
                               init_seed=i)
            t, x, y, z = random_point(rng, net)
            g = driver_gradients(net, t, x, y, z)
            fd_y = (eval_driver(net, t, x, y + h, z) - eval_driver(net, t, x, y - h, z)) / (2 * h)
            worst = max(worst, abs(g.dy[0] - fd_y) / max(abs(fd_y), 1e-3))
        assert worst <= 1e-3

    def test_zero_z_weights_give_zero_gradient(self):
        lay = NetLayout(state_dim=1, z_dim=2, hidden=(4,), activation="tanh")
        net = build_driver("Free", lay, init_seed=1)
        theta = net.theta.copy()
        stack = net._stacks["main"]
        first = stack.layers[0]
        w = theta[first.blocks[0].w_slice].reshape(first.n_out, 5)
        w[:, 3:] = 0.0   # z columns of (t, x, y, z1, z2)
        theta[first.blocks[0].w_slice] = w.ravel()
        net = net.with_params(theta)
        g = driver_gradients(net, 0.2, [0.3], 0.1, [0.5, -0.5])
        np.testing.assert_array_equal(g.dz, 0.0)

    def test_monotone_gradient_sign_exact(self):
        net = build_driver("MonotoneY", layout_for("MonotoneY"), init_seed=11)
        rng = np.random.default_rng(5)
        lin = net.linearize(
            rng.uniform(0, 1, 10_000),
            rng.normal(size=(10_000, 1)),
            rng.normal(size=10_000),
            rng.normal(size=(10_000, 1)),
        )
        assert np.all(lin.dy <= 0.0)


    @pytest.mark.parametrize("kind", KINDS + ["IcnnYZ-relu"])
    def test_linearize_matches_full_gradients(self, kind):
        # The per-sample dtheta, built from the reverse-pass tapes block by
        # block, is the reference for the pullback.
        if kind == "IcnnYZ-relu":
            lay = NetLayout(state_dim=2, z_dim=2, hidden=(6, 5), activation="relu")
            kind = "IcnnYZ"
        else:
            lay = layout_for(kind, state_dim=2, z_dim=2)
        net = build_driver(kind, lay, init_seed=11)
        rng = np.random.default_rng(4)
        m = 300
        t, x, y, z = (rng.uniform(0, 1, m), rng.normal(size=(m, 2)), rng.normal(size=m),
                      rng.normal(size=(m, 2)))
        g = per_sample_gradients(net, t, x, y, z)
        lin = net.linearize(t, x, y, z)
        np.testing.assert_array_equal(lin.value, g.value)
        np.testing.assert_array_equal(lin.dy, g.dy)
        np.testing.assert_array_equal(lin.dz, g.dz)
        for w in (np.ones(m), rng.normal(size=m)):
            expected = w @ g.dtheta
            np.testing.assert_allclose(lin.pullback(w), expected, rtol=0,
                                       atol=1e-12 * np.max(np.abs(expected)))

    def test_analytic_and_truncated_linearize(self):
        rng = np.random.default_rng(5)
        m = 50
        t, x, y, z = (0.3, rng.normal(size=(m, 1)), 2.0 * rng.normal(size=m),
                      rng.normal(size=(m, 1)))
        w = rng.normal(size=m)
        for driver in (zero_driver(), linear_z_driver(0.4), entropic_driver(0.7),
                       quadratic_z_driver(0.7), scaled_constant_driver(0.7, 2.5),
                       TruncatedDriver(build_driver("MonotoneY", layout_for("MonotoneY"), 1), 1.0)):
            g = per_sample_gradients(driver, t, x, y, z)
            lin = driver.linearize(t, x, y, z)
            np.testing.assert_array_equal(lin.value, g.value)
            np.testing.assert_array_equal(lin.dy, g.dy)
            np.testing.assert_array_equal(lin.dz, g.dz)
            pulled = lin.pullback(w)
            assert pulled.shape == (driver.params.size,)
            np.testing.assert_allclose(pulled, w @ g.dtheta, rtol=1e-12, atol=1e-14)


def protocol_drivers():
    drivers = {d.name: d for d in (zero_driver(), linear_z_driver([0.4, -0.2]),
                                   entropic_driver(0.7), quadratic_z_driver(0.7),
                                   scaled_constant_driver(0.7, 2.5))}
    nets = {kind: build_driver(kind, layout_for(kind), init_seed=3) for kind in KINDS}
    drivers["truncated"] = TruncatedDriver(nets["MonotoneY"], 1.0)
    drivers.update(nets)
    return [pytest.param(d, id=name) for name, d in drivers.items()]


class TestDriverProtocol:
    @pytest.mark.parametrize("driver", protocol_drivers())
    def test_library_drivers_follow_the_protocol(self, driver):
        assert isinstance(driver, Driver)
        assert not hasattr(driver, "full_gradients")

    @pytest.mark.parametrize("driver", [entropic_driver(0.7),
                                        build_driver("Free", layout_for("Free", z_dim=2))],
                             ids=["analytic", "net"])
    def test_one_dimensional_z_rejected(self, driver):
        # m == d == 2: a 1-d z could mean one z per sample or one shared
        # d-vector, so it is refused rather than guessed.
        x, y, z = np.zeros((2, 1)), np.zeros(2), np.array([0.5, -0.5])
        with pytest.raises(ValueError, match="z must be"):
            driver.value(0.0, x, y, z)
        with pytest.raises(ValueError, match="z must be"):
            driver.linearize(0.0, x, y, z)


# blake2b digests of value, linearize value/dy/dz, a pullback and (for
# BoundedInteraction) interaction_factor, per kind and activation, recorded
# with numpy 2.4 (AVX-512 loops), scipy 1.17 and OpenBLAS's SkylakeX kernel:
# any change to the bits of a net output fails. Another BLAS kernel or SIMD
# level picks other bits, so these hold within that environment only.
NET_DIGESTS = {
    ("Free", "tanh"): "f33486cc8175a74157cd3a95ad0097a0",
    ("Free", "softplus"): "da52e8bf797568412b1fabbca0ac074a",
    ("Free", "relu"): "877c0b8ab91098f61793449f5778f70e",
    ("Separable", "tanh"): "6f6c73e206e8c3f8c93229f6e076aaaf",
    ("Separable", "softplus"): "ac3677dc37bcbebf18ad7ffda76bc37a",
    ("Separable", "relu"): "2ce1b8f83fe38e146273faf218c55b29",
    ("BoundedInteraction", "tanh"): "7f295ded34825bde0cc50f4aa7f15a9d",
    ("BoundedInteraction", "softplus"): "188a453129d151d0f3f78719f20418de",
    ("BoundedInteraction", "relu"): "bf150df6b839316c710bc69521208d99",
    ("MonotoneY", "tanh"): "17e0565979fb18a6a7268c63e0c22276",
    ("MonotoneY", "softplus"): "3952bbff6c94d5db5f02e8d0b2d11e7d",
    ("IcnnYZ", "softplus"): "dd61170ec5787564b53a4468727fb220",
    ("IcnnYZ", "relu"): "5183bb6ce3c935536dff4af15374de28",
    ("homogeneous", "relu"): "18b323c4107ceb0060844abe58bee7d1",
}


def net_digest(net):
    rng = np.random.default_rng(17)
    m, n, d = 301, net.layout.state_dim, net.layout.z_dim
    t, x, y, z = (rng.uniform(0, 1, m), rng.normal(size=(m, n)), rng.normal(size=m),
                  rng.normal(size=(m, d)))
    lin = net.linearize(t, x, y, z)
    parts = [net.value(t, x, y, z), lin.value, lin.dy, lin.dz, lin.pullback(rng.normal(size=m))]
    if net.kind is ArchitectureKind.BOUNDED_INTERACTION:
        parts.append(net.interaction_factor(t, x, y, z))
    return hashlib.blake2b(b"".join(p.tobytes() for p in parts), digest_size=16).hexdigest()


class NoDerivative(Exception):
    pass


class TestActivations:
    @pytest.mark.parametrize("kind", KINDS)
    def test_value_pass_takes_no_derivative(self, kind, monkeypatch):
        def no_derivative(pre, post):
            raise NoDerivative

        for name, (value, _) in list(nets._ACTIVATIONS.items()):
            monkeypatch.setitem(nets._ACTIVATIONS, name, (value, no_derivative))
        net = build_driver(kind, layout_for(kind), init_seed=6)
        rng = np.random.default_rng(1)
        point = (rng.uniform(0, 1, 50), rng.normal(size=(50, 1)), rng.normal(size=50),
                 rng.normal(size=(50, 1)))
        assert np.all(np.isfinite(net.value(*point)))
        if kind == "BoundedInteraction":
            assert np.all(np.isfinite(net.interaction_factor(*point)))
        with pytest.raises(NoDerivative):
            net.linearize(*point)

    @pytest.mark.parametrize("kind, activation", NET_DIGESTS)
    def test_outputs_match_recorded_digests(self, kind, activation):
        if kind == "homogeneous":
            net = build_homogeneous_icnn(z_dim=2, hidden=(6, 5), init_seed=1)
        else:
            net = build_driver(kind, NetLayout(state_dim=2, z_dim=2, hidden=(6, 5),
                                               n2_hidden=(4, 3), activation=activation),
                               init_seed=1)
        assert net_digest(net) == NET_DIGESTS[kind, activation]


    def test_softplus_extremes_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _softplus(np.array([-1000.0, 0.0, 1000.0]))
        assert out[0] == 0.0
        assert out[1] == np.log(2.0)
        assert out[2] == 1000.0


class TestBoundedInteraction:
    def test_interaction_bound_exact(self):
        lay = NetLayout(hidden=(6,), n2_hidden=(4,), interaction_bound=0.75)
        net = build_driver("BoundedInteraction", lay, init_seed=9)
        rng = np.random.default_rng(2)
        factor = net.interaction_factor(
            rng.uniform(0, 1, 5_000),
            rng.normal(size=(5_000, 1), scale=5.0),
            rng.normal(size=5_000),
            rng.normal(size=(5_000, 1), scale=5.0),
        )
        assert np.all(np.abs(factor) <= 0.75)


class TestGrowthFit:
    def test_pure_quadratic_alpha(self):
        report = estimate_growth_and_lipschitz(
            entropic_driver(1.0), radius=2.0, n_samples=4_000, seed=0,
            state_dim=1, z_dim=1,
        )
        assert report.alpha == pytest.approx(1.0, rel=0.05)

    def test_zero_driver(self):
        report = estimate_growth_and_lipschitz(zero_driver(), radius=2.0, seed=0,
                                               state_dim=1, z_dim=1)
        assert abs(report.alpha) <= 1e-8
        assert report.lipschitz <= 1e-8

    def test_separable_lipschitz_independent_of_z_range(self):
        lay = NetLayout(hidden=(6,), n2_hidden=(4,))
        net = build_driver("Separable", lay, init_seed=4)
        near = estimate_growth_and_lipschitz(net, radius=1.5, seed=3, z_shift=0.0)
        far = estimate_growth_and_lipschitz(net, radius=1.5, seed=3, z_shift=10.0)
        assert near.lipschitz == pytest.approx(far.lipschitz, rel=0.01)


class TestSerialization:
    @pytest.mark.parametrize("kind", KINDS)
    def test_round_trip_bit_exact(self, kind, tmp_path):
        net = build_driver(kind, layout_for(kind), init_seed=13)
        text = emit_driver_net(net)
        back = parse_driver_net(text)
        np.testing.assert_array_equal(back.theta, net.theta)
        assert emit_driver_net(back) == text

        path = tmp_path / "net.txt"
        save_driver_net(net, path)
        loaded = load_driver_net(path)
        np.testing.assert_array_equal(loaded.theta, net.theta)
        assert loaded.kind == net.kind

    def test_truncated_document_rejected(self):
        lines = emit_driver_net(build_driver("Free", layout_for("Free"), init_seed=5)).splitlines()
        for cut in (1, 2, 9, 10, len(lines) - 1):
            with pytest.raises(ValueError, match="driver-net document"):
                parse_driver_net("\n".join(lines[:cut]) + "\n")

    def test_round_trip_preserves_evaluation(self):
        net = build_driver("IcnnYZ", layout_for("IcnnYZ"), init_seed=21)
        back = parse_driver_net(emit_driver_net(net))
        rng = np.random.default_rng(0)
        x = rng.normal(size=(16, 1))
        y = rng.normal(size=16)
        z = rng.normal(size=(16, 1))
        np.testing.assert_array_equal(net.value(0.3, x, y, z), back.value(0.3, x, y, z))
