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

`_architecture` declares each kind's block stacks, whose blocks read input
groups concatenated from t, x, y and z (`_GROUPS`). Every call runs one forward
pass; the hand-written reverse pass takes the activation derivatives. A net's
output is the sum of its stacks' outputs, except BoundedInteraction's. Networks
here are small by design (the theory constrains structure, not capacity).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np
from scipy.special import expit

from ._check import count, finite, real
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


def _tanh_derivative(pre, post):
    deriv = post * post
    return np.subtract(1.0, deriv, out=deriv)


# Each activation is (value(pre), derivative(pre, post)); both may write over
# pre, but not over post, the next layer's input. relu: right derivative at 0.
_ACTIVATIONS = {
    "tanh": (lambda pre: np.tanh(pre, out=pre), _tanh_derivative),
    "softplus": (_softplus, lambda pre, post: expit(pre, out=pre)),
    "relu": (lambda pre: np.maximum(pre, 0.0),
             lambda pre, post: np.greater_equal(pre, 0.0, out=pre)),
}

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

# The input groups blocks read, each its pieces of t, x, y, z in that order,
# so a group's z columns, if any, are its last and its y column precedes them.
_GROUPS = {"in": "txyz", "txz": "txz", "y": "y", "u": "yz", "c": "tx"}


@dataclass
class _Block:
    source: str          # "prev" or an input group
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
    optionally from input groups, with per-column weight transforms."""

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

    def forward(self, theta: np.ndarray, inputs: dict, m: int):
        """The stack's output (m,) and, per layer, what backward reads: inputs,
        effective weights, their transform derivatives, pre-activation, value."""
        prev = None
        caches = []
        for layer in self.layers:
            pre = np.broadcast_to(theta[layer.b_slice], (m, layer.n_out)).copy()
            cache = {"inputs": [], "w_eff": [], "t_deriv": []}
            for block in layer.blocks:
                a_in = prev if block.source == "prev" else inputs[block.source]
                raw = theta[block.w_slice].reshape(layer.n_out, block.n_in)
                w_eff, t_deriv = _transform(raw, block.codes)
                pre += a_in @ w_eff.T
                cache["inputs"].append(a_in)
                cache["w_eff"].append(w_eff)
                cache["t_deriv"].append(t_deriv)
            post = pre if layer.activation is None else _ACTIVATIONS[layer.activation][0](pre)
            cache["pre"], cache["post"] = pre, post
            caches.append(cache)
            prev = post
        return prev[:, 0], caches

    def backward(self, caches: list, delta_out: np.ndarray, dy: np.ndarray,
                 dz: np.ndarray) -> list:
        """delta_out (m,): gradient of the scalar output. Adds each input
        group's per-sample gradient, read at the group's y and z columns,
        into dy (m,) and dz (m, d); t and x gradients are never formed.
        Returns the tape the parameter gradients are built from: per layer,
        output layer first, (delta, inputs, t_derivs) with delta (m, n_out)
        the per-sample gradient of the layer's pre-activation. Each layer's
        activation derivative is taken here, and delta is written over it."""
        delta, d = delta_out[:, None], dz.shape[1]
        tape = []
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            if layer.activation is not None:
                act_deriv = _ACTIVATIONS[layer.activation][1](cache["pre"], cache["post"])
                delta = np.multiply(delta, act_deriv, out=act_deriv)
            tape.append((delta, cache["inputs"], cache["t_deriv"]))
            delta_prev = None
            for block, w_eff in zip(layer.blocks, cache["w_eff"]):
                pieces = _GROUPS.get(block.source, "")
                if block.source == "prev":
                    delta_prev = delta @ w_eff
                elif "z" in pieces:
                    grad = delta @ w_eff
                    dz += grad[:, -d:]
                    if "y" in pieces:
                        dy += grad[:, -1 - d]
                elif "y" in pieces:
                    dy += (delta @ w_eff)[:, -1]
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


def _mlp_layers(source: str, n_in: int, hidden: Sequence[int], activation: str,
                first_codes: np.ndarray, code: int) -> list:
    """Dense layers of the widths hidden and a linear output; the first reads
    source with first_codes, each later one the previous layer with code."""
    layers = []
    blocks = [_Block(source, n_in, first_codes)]
    for width in hidden:
        layers.append(_Layer(width, blocks, activation=activation))
        blocks = [_Block("prev", width, np.full(width, code))]
    layers.append(_Layer(1, blocks))
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
        count("state_dim", self.state_dim, 1, InvalidArchitectureError)
        count("z_dim", self.z_dim, 1, InvalidArchitectureError)
        real("interaction_bound", self.interaction_bound, InvalidArchitectureError, above=0)
        for name in ("hidden", "n2_hidden"):
            widths = (count(f"{name} widths", w, 1, InvalidArchitectureError)
                      for w in getattr(self, name))
            object.__setattr__(self, name, tuple(widths))


def _architecture(kind: ArchitectureKind, layout: NetLayout) -> dict:
    """The kind's named block stacks in parameter order; InvalidArchitectureError
    if the layout does not fit the kind."""
    n, d, act = layout.state_dim, layout.z_dim, layout.activation
    if not layout.hidden:
        raise InvalidArchitectureError("hidden", "hidden widths must be non-empty")
    if act not in _ACTIVATIONS:
        raise InvalidArchitectureError("activation", f"unknown activation '{act}'")

    if kind in (ArchitectureKind.FREE, ArchitectureKind.MONOTONE_Y):
        first, code = np.zeros(2 + n + d, dtype=int), _T_ID
        if kind is ArchitectureKind.MONOTONE_Y:
            if act not in _SMOOTH_ACTIVATIONS:
                raise InvalidArchitectureError(
                    "activation",
                    "MonotoneY requires a C1 non-decreasing activation (tanh or softplus)"
                )
            first[1 + n], code = _T_NONPOS, _T_NONNEG  # column of the y input
        layers = {"main": _mlp_layers("in", 2 + n + d, layout.hidden, act, first, code)}
    elif kind in (ArchitectureKind.SEPARABLE, ArchitectureKind.BOUNDED_INTERACTION):
        if not layout.n2_hidden:
            raise InvalidArchitectureError("n2_hidden", "n2_hidden widths must be non-empty")
        bounded = kind is ArchitectureKind.BOUNDED_INTERACTION
        first, code = np.zeros(1, dtype=int), _T_ID
        if layout.n2_monotone:
            if bounded:
                raise InvalidArchitectureError(
                    "n2_monotone", "n2_monotone applies to the Separable architecture only"
                )
            if act not in _SMOOTH_ACTIVATIONS:
                raise InvalidArchitectureError(
                    "activation", "monotone N2 requires a C1 non-decreasing activation"
                )
            first, code = np.array([_T_NONPOS]), _T_NONNEG
        txz = lambda: _mlp_layers("txz", 1 + n + d, layout.hidden, act,
                                  np.zeros(1 + n + d, dtype=int), _T_ID)
        layers = {"txz": txz()}
        if bounded:
            layers["interaction"] = txz()
        layers["y"] = _mlp_layers("y", 1, layout.n2_hidden, act, first, code)
    else:
        if act not in _CONVEX_ACTIVATIONS:
            raise InvalidArchitectureError(
                "activation",
                "IcnnYZ requires a convex non-decreasing activation (softplus or relu)"
            )
        layers, prev = [], []
        for i, width in enumerate((*layout.hidden, 1)):
            blocks = prev + [_Block("u", 1 + d, np.zeros(1 + d, dtype=int)),
                             _Block("c", 1 + n, np.zeros(1 + n, dtype=int))]
            layers.append(_Layer(width, blocks,
                                 activation=act if i < len(layout.hidden) else None))
            prev = [_Block("prev", width, np.full(width, _T_NONNEG))]
        layers = {"icnn": layers}

    stacks, offset = {}, 0
    for name, stack_layers in layers.items():
        stacks[name] = _BlockStack(stack_layers, offset)
        offset = stacks[name].end
    return stacks


class DriverNet:
    """A constrained feed-forward driver f(t, x, y, z).

    Its stacks are `_architecture(kind, layout)`. The output is their sum,
    except for BoundedInteraction: txz + M tanh(interaction) y, in `_output`.

    Instances are immutable; with_params returns a new net sharing the
    architecture. The raw parameter vector is unconstrained, so gradient
    steps preserve the architectural invariants automatically.
    """

    def __init__(self, kind: ArchitectureKind, layout: NetLayout, theta: np.ndarray,
                 stacks: dict):
        self.kind = ArchitectureKind(kind)
        self.layout = layout
        self._stacks = stacks
        self._groups = {block.source for stack in stacks.values() for layer in stack.layers
                        for block in layer.blocks} - {"prev"}
        self.n_params = list(stacks.values())[-1].end
        theta = np.asarray(theta, dtype=np.float64).ravel()
        if theta.size != self.n_params:
            raise ValueError(f"theta must have length {self.n_params}, got {theta.size}")
        theta = finite("theta", theta).copy()
        theta.setflags(write=False)
        self.theta = theta

    # Driver protocol: parameters live under .params as well.
    @property
    def params(self) -> np.ndarray:
        return self.theta

    # -- evaluation ---------------------------------------------------------

    def _forward(self, t, x, y, z):
        """(per stack its output, per stack its forward caches)."""
        t, x, y, z = _normalize_inputs(t, x, y, z)
        if x.shape[1] != self.layout.state_dim:
            raise ValueError(f"x has {x.shape[1]} columns, layout expects {self.layout.state_dim}")
        if z.shape[1] != self.layout.z_dim:
            raise ValueError(f"z has {z.shape[1]} columns, layout expects {self.layout.z_dim}")
        # Concatenation gives C-contiguous groups: BLAS sums a product over a
        # strided view in another order, which would move the output bits.
        pieces = {"t": t[:, None], "x": x, "y": y[:, None], "z": z}
        inputs = {name: np.concatenate([pieces[p] for p in _GROUPS[name]], axis=1)
                  for name in self._groups}
        outs, caches = {}, {}
        for name, stack in self._stacks.items():
            outs[name], caches[name] = stack.forward(self.theta, inputs, len(t))
        return outs, caches

    def _output(self, outs: dict) -> np.ndarray:
        if self.kind is ArchitectureKind.BOUNDED_INTERACTION:
            bound = self.layout.interaction_bound
            return outs["txz"] + bound * np.tanh(outs["interaction"]) * outs["y"]
        first, *rest = outs.values()
        return sum(rest, first)

    def value(self, t, x, y, z) -> np.ndarray:
        outs, _ = self._forward(t, x, y, z)
        return self._output(outs)

    def interaction_factor(self, t, x, y, z) -> np.ndarray:
        """The bounded factor of the BoundedInteraction architecture."""
        if self.kind is not ArchitectureKind.BOUNDED_INTERACTION:
            raise InvalidArchitectureError("kind", "interaction_factor requires BoundedInteraction")
        outs, _ = self._forward(t, x, y, z)
        return self.layout.interaction_bound * np.tanh(outs["interaction"])

    def _reverse(self, t, x, y, z):
        """Forward pass and one reverse pass with unit output weight.

        Returns the value, dy, dz and, per stack, the tape that parameter
        gradients are built from.
        """
        outs, caches = self._forward(t, x, y, z)
        out = self._output(outs)
        seeds = dict.fromkeys(self._stacks, np.ones_like(out))
        if self.kind is ArchitectureKind.BOUNDED_INTERACTION:
            bound = self.layout.interaction_bound
            squash = np.tanh(outs["interaction"])
            seeds["interaction"] = bound * (1.0 - squash ** 2) * outs["y"]
            seeds["y"] = bound * squash
        dy, dz = np.zeros_like(out), np.zeros((len(out), self.layout.z_dim))
        tapes = {name: stack.backward(caches[name], seeds[name], dy, dz)
                 for name, stack in self._stacks.items()}
        return out, dy, dz, tapes

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
        return DriverNet(self.kind, self.layout, params, self._stacks)


def build_driver(kind, layout: NetLayout = NetLayout(), init_seed: int = 0) -> DriverNet:
    """Build a driver net with small symmetric random raw parameters."""
    kind = ArchitectureKind(kind)
    stacks = _architecture(kind, layout)
    gen = np.random.Generator(np.random.Philox(key=split_seed(init_seed, "driver-init", kind.value)))
    theta = np.zeros(list(stacks.values())[-1].end)
    for stack in stacks.values():
        for layer in stack.layers:
            fan_in = sum(block.n_in for block in layer.blocks)
            scale = 1.0 / np.sqrt(fan_in)
            for block in layer.blocks:
                size = layer.n_out * block.n_in
                theta[block.w_slice] = gen.uniform(-scale, scale, size=size)
            theta[layer.b_slice] = gen.uniform(-scale, scale, size=layer.n_out)
    return DriverNet(kind, layout, theta, stacks)


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
            elif block.source == "u":   # a view: zeroes the y column in theta
                theta[block.w_slice].reshape(layer.n_out, block.n_in)[:, 0] = 0.0
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
                                  z_dim: int | None = None,
                                  z_shift: float = 0.0) -> GrowthReport:
    """Diagnostic fit |f| ~ K0 + K1 ||x||^p + K2 |y| + (alpha/2) ||z||^2 and an
    empirical local Lipschitz constant in y on [-radius, radius]."""
    real("radius", radius, above=0)
    n, d = _sample_dims(driver, state_dim, z_dim)
    gen = np.random.Generator(np.random.Philox(key=split_seed(seed, "growth-fit")))
    t = gen.uniform(0.0, 1.0, size=n_samples)
    x = gen.normal(0.0, 2.0, size=(n_samples, n))
    y = gen.uniform(-radius, radius, size=n_samples)
    z = z_shift + gen.normal(0.0, 1.5, size=(n_samples, d))
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
    return DriverNet(kind, layout, np.array([float(v) for v in values]),
                     _architecture(kind, layout))


def save_driver_net(net: DriverNet, path) -> None:
    with open(path, "w") as fh:
        fh.write(emit_driver_net(net))


def load_driver_net(path) -> DriverNet:
    with open(path) as fh:
        return parse_driver_net(fh.read())
