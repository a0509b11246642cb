"""Seedable randomness, time discretization, forward SDE simulation.

All randomness in the library flows through :func:`split_seed` and the
counter-based Philox generator, so every stochastic quantity is a pure
function of (seed, shape). Gaussian increments are produced by inverse-CDF
of strictly interior uniforms, which keeps common-random-number couplings
monotone under parameter perturbations.

Per-path data is stored time-major: the Brownian increments in an
(n_steps, n_paths, dim) buffer and the forward states in an
(n_steps + 1, n_paths, state_dim) one. `BrownianBundle.increments` and
`PathEnsemble.states` are path-major (n_paths, ...) views of those buffers,
so every step's slice `[:, k, :]` is one C-contiguous block, which is what
the backward recursion reads step by step. An array given to either class
in path-major order is copied time-major once, at construction. The draw
itself keeps the path-major stream order: `sample_brownian` fills the
buffer in blocks of paths, and `save_bundle` writes path-major bytes.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtri

from ._check import count, per_path, real
from .errors import SimulationDivergedError

__all__ = [
    "TimeGrid",
    "BrownianBundle",
    "ForwardModel",
    "PathEnsemble",
    "split_seed",
    "make_time_grid",
    "sample_brownian",
    "simulate_forward",
    "wasserstein2_1d",
    "save_bundle",
    "load_bundle",
    "brownian_model",
    "geometric_brownian_model",
]

_BUNDLE_MAGIC = b"BWB1"
# Paths per block when a path-major draw, sum or dump meets a time-major
# buffer: small enough that a block's temporaries stay in cache.
_PATH_BLOCK = 4096


def split_seed(seed: int, *labels) -> int:
    """Derive an independent 64-bit stream key from a root seed and labels.

    Hash-based splitting keeps sub-streams reproducible across platforms and
    insensitive to call order.
    """
    payload = repr((int(seed),) + tuple(labels)).encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _generator(key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key))


def _standard_normal(gen: np.random.Generator, shape) -> np.ndarray:
    # Uniforms strictly inside (0, 1) so the inverse CDF never saturates.
    raw = gen.integers(0, 1 << 53, size=shape, dtype=np.int64)
    u = (raw.astype(np.float64) + 0.5) * (2.0 ** -53)
    return ndtri(u)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_n = T."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        real("horizon", self.horizon, above=0)
        count("n_steps", self.n_steps, 1)

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def node_index(self, t: float) -> int:
        """Index of a grid node, rejecting off-grid times."""
        k = int(round(t / self.dt))
        if not (0 <= k <= self.n_steps) or abs(self.nodes[k] - t) > 1e-10 * max(1.0, self.horizon):
            raise ValueError(f"t={t} is not a node of the grid")
        return k


def make_time_grid(horizon: float, n_steps: int) -> TimeGrid:
    """A uniform time grid with t_n = horizon exactly, horizon a float and n_steps an int."""
    return TimeGrid(real("horizon", horizon, above=0), count("n_steps", n_steps, 1))


def _time_major(a: np.ndarray) -> np.ndarray:
    """a (n_paths, n, dim) as a view whose step slices a[:, k, :] are each
    one C-contiguous block: a itself if they are, else a time-major copy
    that keeps a's writeable flag."""
    if a.ndim != 3:
        raise ValueError(f"expected an (n_paths, n_steps, dim) array, got shape {a.shape}")
    if a[:, :1].flags.c_contiguous:
        return a
    steps = np.ascontiguousarray(np.swapaxes(a, 0, 1))
    steps.setflags(write=a.flags.writeable)
    return np.swapaxes(steps, 0, 1)


@dataclass(frozen=True)
class BrownianBundle:
    """Brownian increments for a batch of paths.

    increments has shape (n_paths, n_steps, dim), a view of a time-major
    (n_steps, n_paths, dim) buffer; each coordinate is N(0, dt) and the
    whole array is a pure function of the seed.
    """

    increments: np.ndarray
    dt: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "increments", _time_major(self.increments))

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]

    @property
    def n_steps(self) -> int:
        return self.increments.shape[1]

    @property
    def dim(self) -> int:
        return self.increments.shape[2]

    def terminal_motion(self) -> np.ndarray:
        """W_T per path, shape (n_paths, dim).

        Each path's increments are summed as a path-major array sums them,
        block by block, so W_T does not depend on the storage order.
        """
        w = np.empty((self.n_paths, self.dim))
        for i in range(0, self.n_paths, _PATH_BLOCK):
            w[i:i + _PATH_BLOCK] = np.ascontiguousarray(
                self.increments[i:i + _PATH_BLOCK]).sum(axis=1)
        return w


def sample_brownian(grid: TimeGrid, n_paths: int, dim: int, seed: int) -> BrownianBundle:
    """Sample i.i.d. Gaussian increments with variance dt per coordinate.

    The stream is drawn in path-major order, one block of paths at a time,
    so the values are those of one (n_paths, n_steps, dim) draw, bit for bit.
    """
    count("n_paths", n_paths, 1)
    count("dim", dim, 1)
    gen = _generator(split_seed(seed, "brownian-bundle", n_paths, grid.n_steps, dim))
    scale = np.sqrt(grid.dt)
    steps = np.empty((grid.n_steps, n_paths, dim))
    for i in range(0, n_paths, _PATH_BLOCK):
        block = _standard_normal(gen, (min(_PATH_BLOCK, n_paths - i), grid.n_steps, dim))
        np.multiply(block, scale, out=np.swapaxes(steps[:, i:i + len(block)], 0, 1))
    steps.setflags(write=False)
    return BrownianBundle(increments=np.swapaxes(steps, 0, 1), dt=grid.dt, seed=int(seed))


def save_bundle(bundle: BrownianBundle, path) -> None:
    """Binary dump: header (n_paths, n_steps, dim, seed), row-major float64 body."""
    with open(path, "wb") as fh:
        fh.write(_BUNDLE_MAGIC)
        fh.write(struct.pack("<qqqq", bundle.n_paths, bundle.n_steps, bundle.dim, bundle.seed))
        fh.write(struct.pack("<d", bundle.dt))
        for i in range(0, bundle.n_paths, _PATH_BLOCK):
            block = bundle.increments[i:i + _PATH_BLOCK]
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def load_bundle(path) -> BrownianBundle:
    """Read a `save_bundle` dump; the path-major body is stored time-major."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _BUNDLE_MAGIC:
            raise ValueError("not a bundle dump")
        n_paths, n_steps, dim, seed = struct.unpack("<qqqq", fh.read(32))
        (dt,) = struct.unpack("<d", fh.read(8))
        body = np.frombuffer(fh.read(), dtype="<f8").reshape(n_paths, n_steps, dim)
    return BrownianBundle(increments=body, dt=dt, seed=seed)


@dataclass(frozen=True)
class ForwardModel:
    """Forward SDE dX = b dt + sigma dW.

    Decoupled models take callbacks (t, x); models coupled to the backward
    pair take (t, x, y, z) and must set coupled_in_yz. Outputs broadcast by
    the per-path rule (`_check.per_path`) to (n_paths, state_dim) for the
    drift and (n_paths, state_dim, noise_dim) for the diffusion.
    """

    drift: Callable
    diffusion: Callable
    x0: np.ndarray
    state_dim: int
    coupled_in_yz: bool = False

    def __post_init__(self):
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=np.float64))
        if x0.shape != (self.state_dim,):
            raise ValueError(f"x0 must have shape ({self.state_dim},), got {x0.shape}")
        object.__setattr__(self, "x0", x0)


@dataclass(frozen=True)
class PathEnsemble:
    """Euler paths with the grid and bundle that produced them.

    states has shape (n_paths, n_steps + 1, state_dim), a view of a
    time-major (n_steps + 1, n_paths, state_dim) buffer, and
    states[:, 0, :] = x0 for every path. Regression plans on these states
    (`engine.RegressionPlan.of`) are kept in _plans.
    """

    states: np.ndarray
    grid: TimeGrid
    bundle: BrownianBundle
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "states", _time_major(self.states))

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def state_dim(self) -> int:
        return self.states.shape[2]


def simulate_forward(
    model: ForwardModel,
    grid: TimeGrid,
    bundle: BrownianBundle,
    y_field: Callable | None = None,
    z_field: Callable | None = None,
) -> PathEnsemble:
    """Euler-Maruyama step X[k+1] = X[k] + b dt + sigma dW.

    For coupled models, y_field(k, x) -> (m,) and z_field(k, x) -> (m, d)
    supply the frozen backward fields used by the Picard decoupling.
    Raises SimulationDivergedError at the first non-finite state.
    """
    if bundle.n_steps != grid.n_steps:
        raise ValueError("bundle and grid disagree on n_steps")
    if abs(bundle.dt - grid.dt) > 1e-12 * max(1.0, grid.dt):
        raise ValueError("bundle and grid disagree on dt")
    m, n, d = bundle.n_paths, model.state_dim, bundle.dim
    if model.coupled_in_yz and (y_field is None or z_field is None):
        raise ValueError("coupled model requires y_field and z_field")

    inc = bundle.increments
    nodes = grid.nodes
    dt = grid.dt
    states = np.empty((grid.n_steps + 1, m, n), dtype=np.float64)
    states[0] = model.x0

    x = states[0]
    for k in range(grid.n_steps):
        t = nodes[k]
        args = (t, x, y_field(k, x), z_field(k, x)) if model.coupled_in_yz else (t, x)
        b = per_path("drift", model.drift(*args), (m, n))
        sig = np.broadcast_to(per_path("diffusion", model.diffusion(*args), (m, n, d)), (m, n, d))
        x = x + b * dt + np.einsum("pnd,pd->pn", sig, inc[:, k, :])
        if not np.all(np.isfinite(x)):
            bad = np.argwhere(~np.isfinite(x))
            raise SimulationDivergedError(path=bad[0, 0], step=k + 1)
        states[k + 1] = x

    states.setflags(write=False)
    return PathEnsemble(states=np.swapaxes(states, 0, 1), grid=grid, bundle=bundle)


def wasserstein2_1d(samples_a: Sequence[float], samples_b: Sequence[float]) -> float:
    """W2 distance between two equal-size 1-d empirical measures.

    The quantile coupling is exact for equal sample counts:
    W2^2 = mean of squared differences of order statistics. Returns the
    metric W2 (the square root).
    """
    a = np.asarray(samples_a, dtype=np.float64)
    b = np.asarray(samples_b, dtype=np.float64)
    a = np.atleast_1d(per_path("samples_a", a, (a.size,)))
    b = np.atleast_1d(per_path("samples_b", b, (b.size,)))
    if a.size == 0 or b.size == 0:
        raise ValueError("samples must be non-empty")
    if a.size != b.size:
        raise ValueError(f"equal sample counts required, got {a.size} and {b.size}")
    diff = np.sort(a) - np.sort(b)
    return float(np.sqrt(np.mean(diff * diff)))


def brownian_model(dim: int = 1) -> ForwardModel:
    """Pure Brownian state: b = 0, sigma = I, x0 = 0."""
    eye = np.eye(dim)
    return ForwardModel(
        drift=lambda t, x: 0.0,
        diffusion=lambda t, x: eye,
        x0=np.zeros(dim),
        state_dim=dim,
    )


def geometric_brownian_model(mu: float, sigma: float, x0: float) -> ForwardModel:
    """Scalar geometric Brownian motion dX = mu X dt + sigma X dW."""
    return ForwardModel(
        drift=lambda t, x: mu * x,
        diffusion=lambda t, x: (sigma * x)[:, :, None],
        x0=np.array([x0]),
        state_dim=1,
    )
