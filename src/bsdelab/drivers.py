"""Driver protocol and built-in analytic drivers.

A driver is the non-linear term f(t, x, y, z) of the backward equation. The
protocol is `params`, `value`, `linearize` and `with_params`: `linearize`
gives the value, df/dy and df/dz at a batch of points and a pullback that
maps per-sample weights to the weighted sum of parameter gradients, so a
network never forms its (m, P) per-sample Jacobian. Built-in analytic
drivers carry a flat parameter vector so the sensitivity machinery treats
them exactly like trained networks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from ._check import per_path, real

__all__ = [
    "DriverGradients",
    "DriverLinearization",
    "Driver",
    "AnalyticDriver",
    "TruncatedDriver",
    "zero_driver",
    "linear_z_driver",
    "entropic_driver",
    "quadratic_z_driver",
    "scaled_constant_driver",
]


@dataclass(frozen=True)
class DriverGradients:
    """Value and first derivatives of a driver at a single point, as
    `nets.driver_gradients` returns them.

    value: (1,); dy: (1,); dz: (1, d); dtheta: (1, P).
    """

    value: np.ndarray
    dy: np.ndarray
    dz: np.ndarray
    dtheta: np.ndarray


@dataclass(frozen=True)
class DriverLinearization:
    """Value and input derivatives of a driver at a batch of points, with the
    parameter derivatives kept as a pullback.

    value: (m,); dy: (m,); dz: (m, d); pullback maps weights w (m,) to
    sum_i w_i dtheta_i (P,) without forming the (m, P) per-sample gradients.
    """

    value: np.ndarray
    dy: np.ndarray
    dz: np.ndarray
    pullback: Callable


@runtime_checkable
class Driver(Protocol):
    """f(t, x, y, z) at the m points of x (m, state_dim): t, y and z broadcast
    to (m,), (m,) and (m, d) by the per-path rule (`_check.per_path`), but a
    1-d z, one z per point or one shared d-vector, is refused."""

    params: np.ndarray

    def value(self, t, x, y, z) -> np.ndarray: ...

    def linearize(self, t, x, y, z) -> DriverLinearization: ...

    def with_params(self, params: np.ndarray) -> "Driver": ...


def _normalize_inputs(t, x, y, z):
    """Float64 t (m,), x (m, n), y (m,) and z (m, d); one value of x is a point."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        x = np.broadcast_to(per_path("driver x", x, (x.size, 1)), (x.size, 1))
    m = x.shape[0]
    y = np.broadcast_to(per_path("driver y", y, (m,)), (m,))
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        raise ValueError(f"z must be (m, d) or a scalar, got a 1-d array of length {z.shape[0]}")
    z_shape = (m, z.shape[-1] if z.ndim else 1)
    z = per_path("driver z", z, z_shape)
    z = z if z.shape == z_shape else np.broadcast_to(z, z_shape)
    t = np.broadcast_to(per_path("driver t", t, (m,)), (m,))
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(x)) and np.all(np.isfinite(y))
            and np.all(np.isfinite(z))):
        raise ValueError("driver inputs must be finite")
    return t, x, y, z


@dataclass(frozen=True)
class AnalyticDriver:
    """Closed-form driver with hand-coded derivatives.

    value_fn(params, t, x, y, z) -> (m,)
    grad_fn(params, t, x, y, z) -> (dy (m,), dz (m, d), dtheta (m, P))
    Each output broadcasts to its shape by the per-path rule: a scalar will do.
    """

    value_fn: Callable
    grad_fn: Callable
    params: np.ndarray
    name: str = "analytic"

    def __post_init__(self):
        object.__setattr__(self, "params", np.asarray(self.params, dtype=np.float64).ravel())

    @property
    def n_params(self) -> int:
        return self.params.size

    def value(self, t, x, y, z) -> np.ndarray:
        t, x, y, z = _normalize_inputs(t, x, y, z)
        out = per_path("value_fn", self.value_fn(self.params, t, x, y, z), (x.shape[0],))
        return np.broadcast_to(out, (x.shape[0],))

    def linearize(self, t, x, y, z) -> DriverLinearization:
        """grad_fn's per-sample dtheta is kept for the pullback: analytic
        drivers have only a few parameters."""
        t, x, y, z = _normalize_inputs(t, x, y, z)
        m, d = z.shape
        val = np.broadcast_to(per_path("value_fn", self.value_fn(self.params, t, x, y, z), (m,)),
                              (m,))
        dy, dz, dtheta = self.grad_fn(self.params, t, x, y, z)
        dy = np.broadcast_to(per_path("grad_fn dy", dy, (m,)), (m,))
        dz = np.broadcast_to(per_path("grad_fn dz", dz, (m, d)), (m, d))
        dtheta = np.broadcast_to(per_path("grad_fn dtheta", dtheta, (m, self.n_params)),
                                 (m, self.n_params)).copy()
        return DriverLinearization(value=val.copy(), dy=dy.copy(), dz=dz.copy(),
                                   pullback=lambda w: np.asarray(w, dtype=np.float64) @ dtheta)

    def with_params(self, params) -> "AnalyticDriver":
        return replace(self, params=np.asarray(params, dtype=np.float64).ravel())


def zero_driver() -> AnalyticDriver:
    """f = 0: the linear conditional expectation."""
    return AnalyticDriver(
        value_fn=lambda p, t, x, y, z: np.zeros(x.shape[0]),
        grad_fn=lambda p, t, x, y, z: (0.0, np.zeros_like(z), np.zeros((x.shape[0], 0))),
        params=np.zeros(0),
        name="zero",
    )


def linear_z_driver(b) -> AnalyticDriver:
    """f = <b, z>. Parameters are the components of b."""
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    return AnalyticDriver(
        value_fn=lambda p, t, x, y, z: z @ p,
        grad_fn=lambda p, t, x, y, z: (0.0, p, z),
        params=b,
        name="linear-z",
    )


def entropic_driver(theta: float) -> AnalyticDriver:
    """f = -(theta/2) ||z||^2, the entropic ambiguity driver."""
    return AnalyticDriver(
        value_fn=lambda p, t, x, y, z: -0.5 * p[0] * np.sum(z * z, axis=1),
        grad_fn=lambda p, t, x, y, z: (
            0.0,
            -p[0] * z,
            -0.5 * np.sum(z * z, axis=1)[:, None],
        ),
        params=np.array([theta]),
        name="entropic",
    )


def quadratic_z_driver(theta: float) -> AnalyticDriver:
    """f = +(theta/2) ||z||^2, the convex mirror of the entropic driver."""
    return AnalyticDriver(
        value_fn=lambda p, t, x, y, z: 0.5 * p[0] * np.sum(z * z, axis=1),
        grad_fn=lambda p, t, x, y, z: (
            0.0,
            p[0] * z,
            0.5 * np.sum(z * z, axis=1)[:, None],
        ),
        params=np.array([theta]),
        name="quadratic-z",
    )


def scaled_constant_driver(theta: float, c: float) -> AnalyticDriver:
    """f = theta * c with a single learnable parameter; used by linearity tests."""
    return AnalyticDriver(
        value_fn=lambda p, t, x, y, z: np.full(x.shape[0], p[0] * c),
        grad_fn=lambda p, t, x, y, z: (
            0.0,
            np.zeros_like(z),
            np.full((x.shape[0], 1), c),
        ),
        params=np.array([theta]),
        name="scaled-constant",
    )


@dataclass(frozen=True)
class TruncatedDriver:
    """Wraps a driver with its y argument clamped to [-k, k]."""

    base: Driver
    k_level: float

    def __post_init__(self):
        real("k_level", self.k_level, above=0)

    @property
    def params(self) -> np.ndarray:
        return self.base.params

    def value(self, t, x, y, z) -> np.ndarray:
        y_clamped = np.clip(y, -self.k_level, self.k_level)
        return self.base.value(t, x, y_clamped, z)

    def linearize(self, t, x, y, z) -> DriverLinearization:
        y = np.asarray(y, dtype=np.float64)
        lin = self.base.linearize(t, x, np.clip(y, -self.k_level, self.k_level), z)
        return replace(lin, dy=lin.dy * (np.abs(y) <= self.k_level))

    def with_params(self, params) -> "TruncatedDriver":
        return TruncatedDriver(base=self.base.with_params(params), k_level=self.k_level)
