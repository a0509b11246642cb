"""Constrained feed-forward drivers with exact analytic first derivatives.

Effective weights are produced from unconstrained raw parameters through
smooth sign transforms, so every gradient update preserves the structural
constraints by construction:

* MonotoneY: first-layer weights on the y input are <= 0, all later hidden
  and output weights are >= 0, activations are non-decreasing and C1. The
  computed df/dy is then a sum of products of signed factors whose signs
  are exact in floating point, so monotonicity checks need no tolerance.
* IcnnYZ: the (y, z) path uses non-negative hidden-to-hidden weights and a
  convex non-decreasing activation; (t, x) enter through unconstrained skip
  connections, so the output is convex in (y, z) for every parameter value.
* BoundedInteraction: the interaction factor is squashed through
  M * tanh(.), hence bounded by M everywhere.

Reverse mode is hand-written; networks here are small by design (the theory
constrains structure, not capacity).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np
from scipy.special import expit

from .drivers import Driver, DriverGradients, DriverLinearization, _normalize_inputs
from .errors import InvalidArchitectureError
from .stochastic import split_seed

__all__ = [
    "ArchitectureKind",
    "NetLayout",
    "DriverNet",
    "build_driver",
    "eval_driver",
    "driver_gradients",
    "verify_monotone",
    "verify_convexity",
    "estimate_growth_and_lipschitz",
    "MonotoneReport",
    "ConvexityReport",
    "GrowthReport",
    "save_driver_net",
    "load_driver_net",
    "emit_driver_net",
    "parse_driver_net",
]


class ArchitectureKind(str, Enum):
    FREE = "Free"
    SEPARABLE = "Separable"
    BOUNDED_INTERACTION = "BoundedInteraction"
    MONOTONE_Y = "MonotoneY"
    ICNN_YZ = "IcnnYZ"


# ---------------------------------------------------------------------------
# activations and weight transforms
# ---------------------------------------------------------------------------

def _softplus(x):
    return np.logaddexp(0.0, x)


# Activations return (post, derivative); they may overwrite pre, which the
# forward pass allocates for them.
def _act_tanh(pre):
    post = np.tanh(pre, out=pre)
    deriv = post * post
    return post, np.subtract(1.0, deriv, out=deriv)


def _act_softplus(pre):
    return _softplus(pre), expit(pre, out=pre)


def _act_relu(pre):
    # Right-derivative convention at the kink.
    return np.maximum(pre, 0.0), (pre >= 0.0).astype(np.float64)


_ACTIVATIONS = {"tanh": _act_tanh, "softplus": _act_softplus, "relu": _act_relu}

_SMOOTH_ACTIVATIONS = {"tanh", "softplus"}
_CONVEX_ACTIVATIONS = {"softplus", "relu"}

# Transform codes applied column-wise to raw weight matrices.
_T_ID, _T_NONNEG, _T_NONPOS = 0, 1, 2


def _transform(raw: np.ndarray, codes: np.ndarray):
    """Effective weights and d(effective)/d(raw), column-wise by code."""
    eff = raw.copy()
    deriv = np.ones_like(raw)
    for code, sign in ((_T_NONNEG, 1.0), (_T_NONPOS, -1.0)):
        cols = codes == code
        if np.any(cols):
            eff[:, cols] = sign * _softplus(raw[:, cols])
            deriv[:, cols] = sign * expit(raw[:, cols])
    return eff, deriv


# ---------------------------------------------------------------------------
# block stacks
# ---------------------------------------------------------------------------

@dataclass
class _Block:
    source: str          # "prev" or a named input
    n_in: int
    codes: np.ndarray    # per-column transform codes, shape (n_in,)
    w_slice: slice = field(default=None)


@dataclass
class _Layer:
    n_out: int
    blocks: list
    b_slice: slice = field(default=None)
    activation: str | None = None  # None for the linear output layer


class _BlockStack:
    """A feed-forward stack whose layers read from the previous layer and
    optionally from named skip inputs, with per-column weight transforms."""

    def __init__(self, layers: list, offset: int):
        self.layers = layers
        for layer in self.layers:
            for block in layer.blocks:
                size = layer.n_out * block.n_in
                block.w_slice = slice(offset, offset + size)
                offset += size
            layer.b_slice = slice(offset, offset + layer.n_out)
            offset += layer.n_out
        self.end = offset

    def forward(self, theta: np.ndarray, sources: dict, m: int):
        prev = None
        caches = []
        for layer in self.layers:
            pre = np.broadcast_to(theta[layer.b_slice], (m, layer.n_out)).copy()
            layer_cache = {"inputs": [], "w_eff": [], "t_deriv": []}
            for block in layer.blocks:
                a_in = prev if block.source == "prev" else sources[block.source]
                raw = theta[block.w_slice].reshape(layer.n_out, block.n_in)
                w_eff, t_deriv = _transform(raw, block.codes)
                pre += a_in @ w_eff.T
                layer_cache["inputs"].append(a_in)
                layer_cache["w_eff"].append(w_eff)
                layer_cache["t_deriv"].append(t_deriv)
            if layer.activation is None:
                post, act_deriv = pre, None
            else:
                post, act_deriv = _ACTIVATIONS[layer.activation](pre)
            layer_cache["act_deriv"] = act_deriv
            caches.append(layer_cache)
            prev = post
        return prev[:, 0], caches

    def backward(self, caches: list, delta_out: np.ndarray, dsources: dict) -> list:
        """delta_out (m,): gradient of the scalar output. Accumulates
        per-sample gradients of the named inputs into dsources and returns
        the tape the parameter gradients are built from: per layer, output
        layer first, (delta, inputs, t_derivs) with delta (m, n_out) the
        per-sample gradient of the layer's pre-activation. Each delta is
        written over the layer's cached activation derivative, which is not
        read again."""
        delta = delta_out[:, None]
        tape = []
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            if cache["act_deriv"] is not None:
                delta = np.multiply(delta, cache["act_deriv"], out=cache["act_deriv"])
            tape.append((delta, cache["inputs"], cache["t_deriv"]))
            delta_prev = None
            for block, w_eff in zip(layer.blocks, cache["w_eff"]):
                if block.source == "prev":
                    delta_prev = delta @ w_eff
                else:
                    dsources[block.source] += delta @ w_eff
            delta = delta_prev
            if delta is None:
                break
        return tape

    def pullback(self, tape: list, weights: np.ndarray, grad: np.ndarray) -> None:
        """Adds sum_i weights_i * (parameter gradient of sample i) into grad (P,),
        reducing over samples layer by layer."""
        for layer, (delta, inputs, t_derivs) in zip(reversed(self.layers), tape):
            grad[layer.b_slice] += weights @ delta
            for block, a_in, t_deriv in zip(layer.blocks, inputs, t_derivs):
                grad[block.w_slice] += (((delta * weights[:, None]).T @ a_in) * t_deriv).ravel()


def _mlp_layers(n_in: int, hidden: Sequence[int], activation: str,
                first_codes: np.ndarray, hidden_code: int, out_code: int,
                source: str) -> list:
    layers = []
    prev = n_in
    for i, width in enumerate(hidden):
        codes = first_codes if i == 0 else np.full(prev, hidden_code)
        src = source if i == 0 else "prev"
        layers.append(_Layer(n_out=width, activation=activation,
                             blocks=[_Block(source=src, n_in=prev, codes=codes)]))
        prev = width
    out_first = first_codes if not hidden else np.full(prev, out_code)
    layers.append(_Layer(n_out=1, activation=None,
                         blocks=[_Block(source=source if not hidden else "prev",
                                        n_in=prev, codes=out_first)]))
    return layers


# ---------------------------------------------------------------------------
# layout and the driver net
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NetLayout:
    """Input dimensions and widths of a driver network.

    hidden: widths of the main stack; n2_hidden: widths of the y-only
    sub-network used by Separable and BoundedInteraction;
    interaction_bound: the bound M applied to the interaction factor.
    """

    state_dim: int = 1
    z_dim: int = 1
    hidden: tuple = (8, 8)
    activation: str = "tanh"
    n2_hidden: tuple = (8,)
    n2_monotone: bool = False
    interaction_bound: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(w) for w in self.hidden))
        object.__setattr__(self, "n2_hidden", tuple(int(w) for w in self.n2_hidden))


class DriverNet:
    """A constrained feed-forward driver f(t, x, y, z).

    Instances are immutable; with_params returns a new net sharing the
    architecture. The raw parameter vector is unconstrained, so gradient
    steps preserve the architectural invariants automatically.
    """

    def __init__(self, kind: ArchitectureKind, layout: NetLayout, theta: np.ndarray):
        self.kind = ArchitectureKind(kind)
        self.layout = layout
        self._build()
        theta = np.asarray(theta, dtype=np.float64).ravel()
        if theta.size != self.n_params:
            raise ValueError(f"theta must have length {self.n_params}, got {theta.size}")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta must be finite")
        theta = theta.copy()
        theta.setflags(write=False)
        self.theta = theta

    # Driver protocol: parameters live under .params as well.
    @property
    def params(self) -> np.ndarray:
        return self.theta

    @property
    def n_params(self) -> int:
        return self._n_params

    def _build(self):
        lay = self.layout
        n, d = lay.state_dim, lay.z_dim
        act = lay.activation
        k = self.kind
        if not lay.hidden or any(w < 1 for w in lay.hidden):
            raise InvalidArchitectureError("hidden widths must be positive")
        if act not in _ACTIVATIONS:
            raise InvalidArchitectureError(f"unknown activation '{act}'")

        offset = 0
        self._stacks = {}
        if k in (ArchitectureKind.FREE, ArchitectureKind.MONOTONE_Y):
            w_in = 1 + n + 1 + d
            if k is ArchitectureKind.MONOTONE_Y:
                if act not in _SMOOTH_ACTIVATIONS:
                    raise InvalidArchitectureError(
                        "MonotoneY requires a C1 non-decreasing activation (tanh or softplus)"
                    )
                first = np.zeros(w_in, dtype=int)
                first[1 + n] = _T_NONPOS  # column of the y input
                hidden_code, out_code = _T_NONNEG, _T_NONNEG
            else:
                first = np.zeros(w_in, dtype=int)
                hidden_code, out_code = _T_ID, _T_ID
            stack = _BlockStack(
                _mlp_layers(w_in, lay.hidden, act, first, hidden_code, out_code, "in"),
                offset,
            )
            self._stacks["main"] = stack
            offset = stack.end
        elif k in (ArchitectureKind.SEPARABLE, ArchitectureKind.BOUNDED_INTERACTION):
            if not lay.n2_hidden or any(w < 1 for w in lay.n2_hidden):
                raise InvalidArchitectureError("n2_hidden widths must be positive")
            w_a = 1 + n + d
            stack_a = _BlockStack(
                _mlp_layers(w_a, lay.hidden, act, np.zeros(w_a, dtype=int), _T_ID, _T_ID, "txz"),
                offset,
            )
            self._stacks["txz"] = stack_a
            offset = stack_a.end
            if k is ArchitectureKind.BOUNDED_INTERACTION:
                if lay.interaction_bound <= 0:
                    raise InvalidArchitectureError("interaction_bound must be positive")
                stack_b = _BlockStack(
                    _mlp_layers(w_a, lay.hidden, act, np.zeros(w_a, dtype=int), _T_ID, _T_ID, "txz"),
                    offset,
                )
                self._stacks["interaction"] = stack_b
                offset = stack_b.end
            if lay.n2_monotone:
                if k is ArchitectureKind.BOUNDED_INTERACTION:
                    raise InvalidArchitectureError(
                        "n2_monotone applies to the Separable architecture only"
                    )
                if act not in _SMOOTH_ACTIVATIONS:
                    raise InvalidArchitectureError(
                        "monotone N2 requires a C1 non-decreasing activation"
                    )
                first = np.array([_T_NONPOS])
                h_code, o_code = _T_NONNEG, _T_NONNEG
            else:
                first = np.zeros(1, dtype=int)
                h_code, o_code = _T_ID, _T_ID
            stack_y = _BlockStack(
                _mlp_layers(1, lay.n2_hidden, act, first, h_code, o_code, "y"),
                offset,
            )
            self._stacks["y"] = stack_y
            offset = stack_y.end
        elif k is ArchitectureKind.ICNN_YZ:
            if act not in _CONVEX_ACTIVATIONS:
                raise InvalidArchitectureError(
                    "IcnnYZ requires a convex non-decreasing activation (softplus or relu)"
                )
            n_u, n_c = 1 + d, 1 + n
            layers = []
            prev = None
            for i, width in enumerate(lay.hidden):
                blocks = []
                if i > 0:
                    blocks.append(_Block("prev", prev, np.full(prev, _T_NONNEG)))
                blocks.append(_Block("u", n_u, np.zeros(n_u, dtype=int)))
                blocks.append(_Block("c", n_c, np.zeros(n_c, dtype=int)))
                layers.append(_Layer(n_out=width, activation=act, blocks=blocks))
                prev = width
            layers.append(_Layer(
                n_out=1, activation=None,
                blocks=[
                    _Block("prev", prev, np.full(prev, _T_NONNEG)),
                    _Block("u", n_u, np.zeros(n_u, dtype=int)),
                    _Block("c", n_c, np.zeros(n_c, dtype=int)),
                ],
            ))
            stack = _BlockStack(layers, offset)
            self._stacks["icnn"] = stack
            offset = stack.end
        else:  # pragma: no cover
            raise InvalidArchitectureError(f"unknown kind {k}")
        self._n_params = offset

    # -- evaluation ---------------------------------------------------------

    def _sources(self, t, x, y, z):
        cols = [t[:, None], x, y[:, None], z]
        k = self.kind
        if k in (ArchitectureKind.FREE, ArchitectureKind.MONOTONE_Y):
            return {"in": np.concatenate(cols, axis=1)}
        if k in (ArchitectureKind.SEPARABLE, ArchitectureKind.BOUNDED_INTERACTION):
            return {"txz": np.concatenate([t[:, None], x, z], axis=1), "y": y[:, None]}
        return {"u": np.concatenate([y[:, None], z], axis=1),
                "c": np.concatenate([t[:, None], x], axis=1)}

    def _forward(self, sources: dict, m: int):
        k = self.kind
        if k in (ArchitectureKind.FREE, ArchitectureKind.MONOTONE_Y):
            out, cache = self._stacks["main"].forward(self.theta, sources, m)
            return out, {"main": cache}
        if k is ArchitectureKind.SEPARABLE:
            a, ca = self._stacks["txz"].forward(self.theta, sources, m)
            b, cb = self._stacks["y"].forward(self.theta, sources, m)
            return a + b, {"txz": ca, "y": cb}
        if k is ArchitectureKind.BOUNDED_INTERACTION:
            a, ca = self._stacks["txz"].forward(self.theta, sources, m)
            raw_b, cb = self._stacks["interaction"].forward(self.theta, sources, m)
            c, cc = self._stacks["y"].forward(self.theta, sources, m)
            bound = self.layout.interaction_bound
            squash = bound * np.tanh(raw_b)
            out = a + squash * c
            return out, {"txz": ca, "interaction": cb, "y": cc,
                         "squash": squash, "squash_deriv": bound * (1.0 - np.tanh(raw_b) ** 2),
                         "c_out": c}
        out, cache = self._stacks["icnn"].forward(self.theta, sources, m)
        return out, {"icnn": cache}

    def value(self, t, x, y, z) -> np.ndarray:
        t, x, y, z = _normalize_inputs(t, x, y, z)
        self._check_dims(x, z)
        sources = self._sources(t, x, y, z)
        out, _ = self._forward(sources, x.shape[0])
        return out

    def interaction_factor(self, t, x, y, z) -> np.ndarray:
        """The bounded factor of the BoundedInteraction architecture."""
        if self.kind is not ArchitectureKind.BOUNDED_INTERACTION:
            raise InvalidArchitectureError("interaction_factor requires BoundedInteraction")
        t, x, y, z = _normalize_inputs(t, x, y, z)
        self._check_dims(x, z)
        sources = self._sources(t, x, y, z)
        raw_b, _ = self._stacks["interaction"].forward(self.theta, sources, x.shape[0])
        return self.layout.interaction_bound * np.tanh(raw_b)

    def _reverse(self, t, x, y, z):
        """Forward pass and one reverse pass with unit output weight.

        Returns the value, dy, dz and, per stack, the tape that parameter
        gradients are built from.
        """
        t, x, y, z = _normalize_inputs(t, x, y, z)
        self._check_dims(x, z)
        m = x.shape[0]
        sources = self._sources(t, x, y, z)
        out, caches = self._forward(sources, m)
        dsources = {key: np.zeros_like(val) for key, val in sources.items()}
        ones = np.ones(m)
        k = self.kind
        if k in (ArchitectureKind.FREE, ArchitectureKind.MONOTONE_Y):
            seeds = {"main": ones}
        elif k is ArchitectureKind.SEPARABLE:
            seeds = {"txz": ones, "y": ones}
        elif k is ArchitectureKind.BOUNDED_INTERACTION:
            seeds = {"txz": ones,
                     "interaction": caches["squash_deriv"] * caches["c_out"],
                     "y": caches["squash"]}
        else:
            seeds = {"icnn": ones}
        tapes = {name: self._stacks[name].backward(caches[name], seed, dsources)
                 for name, seed in seeds.items()}

        n = self.layout.state_dim
        if k in (ArchitectureKind.FREE, ArchitectureKind.MONOTONE_Y):
            din = dsources["in"]
            dy = din[:, 1 + n]
            dz = din[:, 2 + n:]
        elif k in (ArchitectureKind.SEPARABLE, ArchitectureKind.BOUNDED_INTERACTION):
            dy = dsources["y"][:, 0]
            dz = dsources["txz"][:, 1 + n:]
        else:
            dy = dsources["u"][:, 0]
            dz = dsources["u"][:, 1:]
        return out, dy, dz.copy(), tapes

    def linearize(self, t, x, y, z) -> DriverLinearization:
        """Value and input derivatives, with a pullback that reuses this
        call's forward and reverse pass."""
        out, dy, dz, tapes = self._reverse(t, x, y, z)

        def pullback(weights):
            weights = np.asarray(weights, dtype=np.float64)
            grad = np.zeros(self.n_params)
            for name, tape in tapes.items():
                self._stacks[name].pullback(tape, weights, grad)
            return grad

        return DriverLinearization(value=out, dy=dy, dz=dz, pullback=pullback)

    def with_params(self, params) -> "DriverNet":
        return DriverNet(self.kind, self.layout, params)

    def _check_dims(self, x, z):
        if x.shape[1] != self.layout.state_dim:
            raise ValueError(f"x has {x.shape[1]} columns, layout expects {self.layout.state_dim}")
        if z.shape[1] != self.layout.z_dim:
            raise ValueError(f"z has {z.shape[1]} columns, layout expects {self.layout.z_dim}")


def build_driver(kind, layout: NetLayout = NetLayout(), init_seed: int = 0) -> DriverNet:
    """Build a driver net with small symmetric random raw parameters."""
    kind = ArchitectureKind(kind)
    probe = DriverNet(kind, layout, np.zeros(_param_count(kind, layout)))
    gen = np.random.Generator(np.random.Philox(key=split_seed(init_seed, "driver-init", kind.value)))
    theta = np.zeros(probe.n_params)
    for stack in probe._stacks.values():
        for layer in stack.layers:
            fan_in = sum(block.n_in for block in layer.blocks)
            scale = 1.0 / np.sqrt(fan_in)
            for block in layer.blocks:
                size = layer.n_out * block.n_in
                theta[block.w_slice] = gen.uniform(-scale, scale, size=size)
            theta[layer.b_slice] = gen.uniform(-scale, scale, size=layer.n_out)
    return DriverNet(kind, layout, theta)


def _param_count(kind, layout) -> int:
    tmp = object.__new__(DriverNet)
    tmp.kind = ArchitectureKind(kind)
    tmp.layout = layout
    tmp._build()
    return tmp._n_params


def build_homogeneous_icnn(z_dim: int = 1, hidden: tuple = (8, 8),
                           init_seed: int = 0) -> DriverNet:
    """An input-convex net that is positively homogeneous in z and zero at
    z = 0: relu activations, no biases, and zeroed (t, x, y) inputs.

    This is the subclass of convex drivers for which Jensen's inequality
    for the induced expectation holds for every convex test function; a
    generic convex driver with f(., 0) != 0 violates it.
    """
    layout = NetLayout(state_dim=1, z_dim=z_dim, hidden=hidden, activation="relu")
    net = build_driver(ArchitectureKind.ICNN_YZ, layout, init_seed)
    theta = net.theta.copy()
    for layer in net._stacks["icnn"].layers:
        theta[layer.b_slice] = 0.0
        for block in layer.blocks:
            if block.source == "c":
                theta[block.w_slice] = 0.0
            elif block.source == "u":
                w = theta[block.w_slice].reshape(layer.n_out, block.n_in)
                w[:, 0] = 0.0
                theta[block.w_slice] = w.ravel()
    return net.with_params(theta)


def eval_driver(net: Driver, t, x, y, z) -> float:
    """Evaluate a driver at a single point."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    return float(net.value(t, x[None, :], [y], z[None, :])[0])


def driver_gradients(net: Driver, t, x, y, z) -> DriverGradients:
    """Value and derivatives at a single point (arrays keep batch axis 1).

    At one point the pullback of a unit weight is the parameter gradient.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    lin = net.linearize(t, x[None, :], [y], z[None, :])
    return DriverGradients(value=lin.value, dy=lin.dy, dz=lin.dz,
                           dtheta=lin.pullback(np.ones(1))[None, :])


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotoneReport:
    max_dy: float
    n_samples: int
    passed: bool


@dataclass(frozen=True)
class ConvexityReport:
    max_violation: float
    n_segments: int
    tol: float
    passed: bool


@dataclass(frozen=True)
class GrowthReport:
    k_const: float
    k_state: float
    k_y: float
    alpha: float
    p: int
    lipschitz: float
    radius: float


def _sample_dims(driver, state_dim, z_dim):
    if state_dim is None or z_dim is None:
        layout = getattr(driver, "layout", None)
        if layout is None:
            raise ValueError("state_dim and z_dim are required for non-network drivers")
        state_dim = layout.state_dim if state_dim is None else state_dim
        z_dim = layout.z_dim if z_dim is None else z_dim
    return state_dim, z_dim


def verify_monotone(driver, n_samples: int = 10_000, seed: int = 0,
                    state_dim: int | None = None, z_dim: int | None = None) -> MonotoneReport:
    """Sample df/dy and pass iff the maximum is <= 0 (no tolerance)."""
    n, d = _sample_dims(driver, state_dim, z_dim)
    gen = np.random.Generator(np.random.Philox(key=split_seed(seed, "verify-monotone")))
    t = gen.uniform(0.0, 1.0, size=n_samples)
    x = gen.normal(0.0, 2.0, size=(n_samples, n))
    y = gen.normal(0.0, 2.0, size=n_samples)
    z = gen.normal(0.0, 2.0, size=(n_samples, d))
    max_dy = float(np.max(driver.linearize(t, x, y, z).dy))
    return MonotoneReport(max_dy=max_dy, n_samples=n_samples, passed=max_dy <= 0.0)


def verify_convexity(driver, n_segments: int = 1_000, seed: int = 0, tol: float = 0.0,
                     state_dim: int | None = None, z_dim: int | None = None) -> ConvexityReport:
    """Midpoint inequality in (y, z) at fixed sampled (t, x)."""
    n, d = _sample_dims(driver, state_dim, z_dim)
    gen = np.random.Generator(np.random.Philox(key=split_seed(seed, "verify-convexity")))
    t = gen.uniform(0.0, 1.0, size=n_segments)
    x = gen.normal(0.0, 2.0, size=(n_segments, n))
    y1, y2 = gen.normal(0.0, 2.0, size=(2, n_segments))
    z1, z2 = gen.normal(0.0, 2.0, size=(2, n_segments, d))
    f1 = driver.value(t, x, y1, z1)
    f2 = driver.value(t, x, y2, z2)
    fm = driver.value(t, x, 0.5 * (y1 + y2), 0.5 * (z1 + z2))
    violation = fm - 0.5 * (f1 + f2)
    max_violation = float(np.max(violation))
    return ConvexityReport(max_violation=max_violation, n_segments=n_segments,
                           tol=tol, passed=max_violation <= tol)


def estimate_growth_and_lipschitz(driver, radius: float = 2.0, n_samples: int = 4_000,
                                  seed: int = 0, state_dim: int | None = None,
                                  z_dim: int | None = None, z_shift: float = 0.0,
                                  z_scale: float = 1.0) -> GrowthReport:
    """Diagnostic fit |f| ~ K0 + K1 ||x||^p + K2 |y| + (alpha/2) ||z||^2 and an
    empirical local Lipschitz constant in y on [-radius, radius]."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    n, d = _sample_dims(driver, state_dim, z_dim)
    gen = np.random.Generator(np.random.Philox(key=split_seed(seed, "growth-fit")))
    t = gen.uniform(0.0, 1.0, size=n_samples)
    x = gen.normal(0.0, 2.0, size=(n_samples, n))
    y = gen.uniform(-radius, radius, size=n_samples)
    z = z_shift + z_scale * gen.normal(0.0, 1.5, size=(n_samples, d))
    f = np.abs(driver.value(t, x, y, z))
    xnorm = np.sqrt(np.sum(x * x, axis=1))
    znorm2 = 0.5 * np.sum(z * z, axis=1)

    from .engine import fit_projection   # engine imports this module

    best = None
    for p in (1, 2):
        design = np.column_stack([np.ones(n_samples), xnorm ** p, np.abs(y), znorm2])
        coef = fit_projection(design, step=0, cond_limit=np.inf).coef(design, f)
        resid = float(np.sum((design @ coef - f) ** 2))
        if best is None or resid < best[0]:
            best = (resid, p, coef)
    _, p, coef = best

    y1 = gen.uniform(-radius, radius, size=n_samples)
    y2 = gen.uniform(-radius, radius, size=n_samples)
    same = np.abs(y1 - y2) < 1e-8
    y2 = np.where(same, y2 + 1e-4, y2)
    f1 = driver.value(t, x, y1, z)
    f2 = driver.value(t, x, y2, z)
    lipschitz = float(np.max(np.abs(f1 - f2) / np.abs(y1 - y2)))

    return GrowthReport(k_const=float(coef[0]), k_state=float(coef[1]), k_y=float(coef[2]),
                        alpha=float(coef[3]), p=p, lipschitz=lipschitz, radius=radius)


# ---------------------------------------------------------------------------
# text serialization (bit-exact round trip)
# ---------------------------------------------------------------------------

def emit_driver_net(net: DriverNet) -> str:
    lay = net.layout
    buf = io.StringIO()
    buf.write("bsdelab-driver-net v1\n")
    buf.write(f"kind={net.kind.value}\n")
    buf.write(f"state_dim={lay.state_dim}\n")
    buf.write(f"z_dim={lay.z_dim}\n")
    buf.write("hidden=" + ",".join(str(w) for w in lay.hidden) + "\n")
    buf.write(f"activation={lay.activation}\n")
    buf.write("n2_hidden=" + ",".join(str(w) for w in lay.n2_hidden) + "\n")
    buf.write(f"n2_monotone={lay.n2_monotone}\n")
    buf.write(f"interaction_bound={lay.interaction_bound!r}\n")
    buf.write(f"n_params={net.n_params}\n")
    for value in net.theta:
        buf.write(repr(float(value)) + "\n")
    return buf.getvalue()


def parse_driver_net(text: str) -> DriverNet:
    """The net of an `emit_driver_net` document; ValueError if the document
    is malformed, lacks a field or is cut short."""
    lines = text.splitlines()
    if not lines or lines[0] != "bsdelab-driver-net v1":
        raise ValueError("not a driver-net document")
    fields = {}
    idx = 1
    while idx < len(lines) and "=" in lines[idx]:
        key, _, value = lines[idx].partition("=")
        fields[key] = value
        idx += 1
        if key == "n_params":
            break
    try:
        kind = ArchitectureKind(fields["kind"])
        layout = NetLayout(
            state_dim=int(fields["state_dim"]),
            z_dim=int(fields["z_dim"]),
            hidden=tuple(int(w) for w in fields["hidden"].split(",") if w),
            activation=fields["activation"],
            n2_hidden=tuple(int(w) for w in fields["n2_hidden"].split(",") if w),
            n2_monotone=fields["n2_monotone"] == "True",
            interaction_bound=float(fields["interaction_bound"]),
        )
        n_params = int(fields["n_params"])
    except KeyError as exc:
        raise ValueError(f"driver-net document lacks the field {exc}") from None
    values = lines[idx:idx + n_params]
    if len(values) < n_params:
        raise ValueError(f"driver-net document is truncated: {len(values)} of {n_params} values")
    return DriverNet(kind, layout, np.array([float(v) for v in values]))


def save_driver_net(net: DriverNet, path) -> None:
    with open(path, "w") as fh:
        fh.write(emit_driver_net(net))


def load_driver_net(path) -> DriverNet:
    with open(path) as fh:
        return parse_driver_net(fh.read())
