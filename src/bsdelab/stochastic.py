"""Seedable randomness, time discretization, forward SDE simulation.

All randomness in the library flows through :func:`split_seed` and the
counter-based Philox generator, so every stochastic quantity is a pure
function of (seed, shape). Gaussian increments are produced by inverse-CDF
of strictly interior uniforms, which keeps common-random-number couplings
monotone under parameter perturbations.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtri

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
        if not np.isfinite(self.horizon) or self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

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
    """Build a uniform time grid with t_n = horizon exactly."""
    return TimeGrid(float(horizon), int(n_steps))


@dataclass(frozen=True)
class BrownianBundle:
    """Brownian increments for a batch of paths.

    increments has shape (n_paths, n_steps, dim); each coordinate is
    N(0, dt) and the whole array is a pure function of the seed.
    """

    increments: np.ndarray
    dt: float
    seed: int

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
        """W_T per path, shape (n_paths, dim)."""
        return self.increments.sum(axis=1)


def sample_brownian(grid: TimeGrid, n_paths: int, dim: int, seed: int) -> BrownianBundle:
    """Sample i.i.d. Gaussian increments with variance dt per coordinate."""
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    gen = _generator(split_seed(seed, "brownian-bundle", n_paths, grid.n_steps, dim))
    z = _standard_normal(gen, (n_paths, grid.n_steps, dim))
    inc = z * np.sqrt(grid.dt)
    inc.setflags(write=False)
    return BrownianBundle(increments=inc, dt=grid.dt, seed=int(seed))


def save_bundle(bundle: BrownianBundle, path) -> None:
    """Binary dump: header (n_paths, n_steps, dim, seed), row-major float64 body."""
    with open(path, "wb") as fh:
        fh.write(_BUNDLE_MAGIC)
        fh.write(struct.pack("<qqqq", bundle.n_paths, bundle.n_steps, bundle.dim, bundle.seed))
        fh.write(struct.pack("<d", bundle.dt))
        fh.write(np.ascontiguousarray(bundle.increments, dtype="<f8").tobytes())


def load_bundle(path) -> BrownianBundle:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _BUNDLE_MAGIC:
            raise ValueError("not a bundle dump")
        n_paths, n_steps, dim, seed = struct.unpack("<qqqq", fh.read(32))
        (dt,) = struct.unpack("<d", fh.read(8))
        body = np.frombuffer(fh.read(), dtype="<f8").reshape(n_paths, n_steps, dim).copy()
    body.setflags(write=False)
    return BrownianBundle(increments=body, dt=dt, seed=seed)


@dataclass(frozen=True)
class ForwardModel:
    """Forward SDE dX = b dt + sigma dW.

    Decoupled models take callbacks (t, x); models coupled to the backward
    pair take (t, x, y, z) and must set coupled_in_yz. Callback outputs are
    broadcast to (n_paths, state_dim) for the drift and
    (n_paths, state_dim, noise_dim) for the diffusion.
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

    states has shape (n_paths, n_steps + 1, state_dim) and
    states[:, 0, :] = x0 for every path. Regression plans on these states
    (`engine.RegressionPlan.of`) are kept in _plans.
    """

    states: np.ndarray
    grid: TimeGrid
    bundle: BrownianBundle
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def state_dim(self) -> int:
        return self.states.shape[2]


def _broadcast_drift(out, m: int, n: int) -> np.ndarray:
    out = np.asarray(out, dtype=np.float64)
    if out.ndim == 1 and out.shape[0] == m and n == 1:
        out = out[:, None]
    return np.broadcast_to(out, (m, n))


def _broadcast_diffusion(out, m: int, n: int, d: int) -> np.ndarray:
    out = np.asarray(out, dtype=np.float64)
    if out.ndim == 1 and out.shape[0] == m and n == 1 and d == 1:
        out = out[:, None, None]
    elif out.ndim == 2 and out.shape == (m, d) and n == 1:
        out = out[:, None, :]
    return np.broadcast_to(out, (m, n, d))


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
    states = np.empty((m, grid.n_steps + 1, n), dtype=np.float64)
    states[:, 0, :] = model.x0

    x = states[:, 0, :]
    for k in range(grid.n_steps):
        t = nodes[k]
        if model.coupled_in_yz:
            y = np.asarray(y_field(k, x), dtype=np.float64)
            z = np.asarray(z_field(k, x), dtype=np.float64)
            b = _broadcast_drift(model.drift(t, x, y, z), m, n)
            sig = _broadcast_diffusion(model.diffusion(t, x, y, z), m, n, d)
        else:
            b = _broadcast_drift(model.drift(t, x), m, n)
            sig = _broadcast_diffusion(model.diffusion(t, x), m, n, d)
        x = x + b * dt + np.einsum("pnd,pd->pn", sig, inc[:, k, :])
        if not np.all(np.isfinite(x)):
            bad = np.argwhere(~np.isfinite(x))
            raise SimulationDivergedError(path=bad[0, 0], step=k + 1)
        states[:, k + 1, :] = x

    states.setflags(write=False)
    return PathEnsemble(states=states, grid=grid, bundle=bundle)


def wasserstein2_1d(samples_a: Sequence[float], samples_b: Sequence[float]) -> float:
    """W2 distance between two equal-size 1-d empirical measures.

    The quantile coupling is exact for equal sample counts:
    W2^2 = mean of squared differences of order statistics. Returns the
    metric W2 (the square root).
    """
    a = np.asarray(samples_a, dtype=np.float64).ravel()
    b = np.asarray(samples_b, dtype=np.float64).ravel()
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
