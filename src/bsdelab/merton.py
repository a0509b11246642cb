"""Portfolio choice under the quadratic ambiguity driver: HJB solver,
policy extraction, qualitative checks, and calibration of the ambiguity
parameter from observed allocations.

The value equation is solved in log-wealth coordinates, where the CRRA
terminal data is exponential and coefficients are wealth-free:

    u_t + r u_l + sup_pi { pi (mu - r) u_l
                           + (sigma pi)^2 / 2 (u_ll - u_l - theta u_l^2) } = 0

The supremum is a concave quadratic in pi with the closed-form maximizer
pi* = -(mu - r) u_l / (sigma^2 (u_ll - u_l - theta u_l^2)); the bracket is
the log-coordinate form of V_xx - theta V_x^2, whose negativity is the
second-order condition. It, V_x > 0 and V_xx < 0 are checked on every
slice's interior after the march, in march order. Explicit time stepping
with upwinded first differences; one-sided second-order stencils at the
boundaries (the domain is wide enough that their influence stays outside
the interior band used for all assertions).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._check import real
from ._csv import write_csv
from .errors import (ExtrapolationWarning, SolverDivergedError, SolverInconsistentError,
                     UnstableGridError)

__all__ = [
    "MarketParams",
    "ClassicalSolution",
    "HjbGridSpec",
    "HjbGrid",
    "AllocationObservation",
    "PolicySurface",
    "classical_merton",
    "solve_hjb",
    "extract_policy",
    "verify_ambiguity_properties",
    "calibrate_theta",
    "export_policy_csv",
    "read_observations_csv",
    "write_observations_csv",
    "crosscheck_entropic_value",
]


@dataclass(frozen=True)
class MarketParams:
    """Single risky asset market with CRRA preferences."""

    mu: float
    r: float
    sigma: float
    gamma: float
    horizon: float = 1.0

    def __post_init__(self):
        real("mu", self.mu, above=real("r", self.r))
        real("sigma", self.sigma, above=0)
        if real("gamma", self.gamma, below=1) == 0:
            raise ValueError("gamma must satisfy gamma < 1 and gamma != 0")
        real("horizon", self.horizon, above=0)


@dataclass(frozen=True)
class ClassicalSolution:
    """Closed form of the unambiguous problem."""

    pi: float
    rho: float
    params: MarketParams

    def value(self, t, x):
        g = self.params.gamma
        x = np.asarray(x, dtype=np.float64)
        return (x ** g / g) * np.exp(self.rho * (self.params.horizon - np.asarray(t)))


def classical_merton(params: MarketParams) -> ClassicalSolution:
    """pi = (mu - r) / (sigma^2 (1 - gamma)), V = x^g/g exp(rho (T - t)) with
    rho = gamma (r + (mu - r)^2 / (2 sigma^2 (1 - gamma)))."""
    g = params.gamma
    excess = params.mu - params.r
    pi = excess / (params.sigma ** 2 * (1.0 - g))
    rho = g * (params.r + excess ** 2 / (2.0 * params.sigma ** 2 * (1.0 - g)))
    return ClassicalSolution(pi=pi, rho=rho, params=params)


@dataclass(frozen=True)
class HjbGridSpec:
    """Log-wealth grid: n_space intervals on [ell_lo, ell_hi], n_time steps
    (None picks the stability bound automatically).

    The interior band, where policies are read and compared, skips
    max(2, ceil(interior_margin * n_space)) nodes at each end, so n_space
    must satisfy n_space + 1 > 2 * max(2, ceil(interior_margin * n_space)):
    n_space >= 4 at the default margin 0.2. ValueError otherwise.
    """

    ell_lo: float
    ell_hi: float
    n_space: int = 160
    n_time: int | None = None
    interior_margin: float = 0.2

    def __post_init__(self):
        band = _interior(self.n_space + 1, self.interior_margin)
        if band.start >= band.stop:
            raise ValueError(f"n_space = {self.n_space} leaves no interior nodes at "
                             f"interior_margin = {self.interior_margin}")

    @staticmethod
    def default(params: MarketParams, x0: float = 1.0, n_space: int = 160,
                n_time: int | None = None) -> "HjbGridSpec":
        # The controlled wealth volatility is sigma * pi, so the usual
        # 4 sigma sqrt(T) band is widened by the classical allocation.
        cls = classical_merton(params)
        vol = params.sigma * max(1.0, abs(cls.pi))
        drift = abs(params.r) + abs(cls.pi * (params.mu - params.r))
        half = 4.0 * vol * math.sqrt(params.horizon) + drift * params.horizon + 0.5
        center = math.log(x0)
        return HjbGridSpec(ell_lo=center - half, ell_hi=center + half,
                           n_space=n_space, n_time=n_time)


@dataclass(frozen=True)
class HjbGrid:
    """Value and optimal allocation on the space-time grid."""

    ell: np.ndarray               # (J + 1,)
    times: np.ndarray             # (M + 1,)
    value: np.ndarray             # (M + 1, J + 1)
    policy: np.ndarray            # (M + 1, J + 1) allocation fractions
    theta: float
    params: MarketParams
    interior_margin: float

    @property
    def wealth(self) -> np.ndarray:
        return np.exp(self.ell)

    @property
    def interior(self) -> slice:
        return _interior(self.ell.size, self.interior_margin)


def _interior(n_nodes: int, margin: float) -> slice:
    skirt = max(2, int(math.ceil(margin * (n_nodes - 1))))
    return slice(skirt, n_nodes - skirt)


def _derivatives(u: np.ndarray, h: float, ul, ull, fwd, bwd) -> None:
    """Central differences inside, second-order one-sided at the ends, and the
    forward and backward first differences, written into ul, ull, fwd and bwd."""
    ul[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
    ull[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
    ul[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
    ul[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
    ull[0] = (2.0 * u[0] - 5.0 * u[1] + 4.0 * u[2] - u[3]) / (h * h)
    ull[-1] = (2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]) / (h * h)
    fwd[:-1] = (u[1:] - u[:-1]) / h
    fwd[-1] = (u[-1] - u[-2]) / h
    bwd[1:] = fwd[:-1]
    bwd[0] = fwd[0]


# The sign conditions in the order they are checked within a slice.
_SIGN_FAILURES = ("V_x lost positivity", "V_xx lost concavity", "second-order condition violated")


# A slice past a sign failure may overflow: the failure is reported, not a warning.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_hjb(
    params: MarketParams,
    theta: float,
    spec: HjbGridSpec | None = None,
    fixed_pi: float | None = None,
) -> HjbGrid:
    """Backward explicit finite differences with exact pointwise maximization.

    fixed_pi freezes the control (no supremum); used to cross-validate the
    value computation against the backward-equation route. Without it, the
    sign conditions V_x > 0, V_xx < 0 and the bracket < 0 are checked on
    every slice's interior after the march, in march order (slice n_time
    first); the first failure raises SolverInconsistentError at its first
    node. Raises UnstableGridError for fewer time steps than the stability
    bound, and SolverDivergedError for a non-finite value.
    """
    real("theta", theta, at_least=0)
    if fixed_pi is not None:
        fixed_pi = real("fixed_pi", fixed_pi)
    spec = HjbGridSpec.default(params) if spec is None else spec
    g = params.gamma
    excess = params.mu - params.r
    sig2 = params.sigma ** 2

    j_nodes = spec.n_space + 1
    ell = np.linspace(spec.ell_lo, spec.ell_hi, j_nodes)
    h = ell[1] - ell[0]

    pi_bound = abs(fixed_pi) if fixed_pi is not None else abs(classical_merton(params).pi)
    b_max = 0.5 * sig2 * pi_bound ** 2
    a_max = abs(params.r) + pi_bound * abs(excess) + 0.5 * sig2 * pi_bound ** 2
    dt_max = 0.9 / (2.0 * b_max / h ** 2 + a_max / h)
    required = int(math.ceil(params.horizon / dt_max))
    n_time = required if spec.n_time is None else spec.n_time
    if n_time < required:
        raise UnstableGridError(n_time, required)
    dt = params.horizon / n_time

    times = np.linspace(0.0, params.horizon, n_time + 1)
    value = np.empty((n_time + 1, j_nodes))
    policy = np.full((n_time + 1, j_nodes), np.nan if fixed_pi is None else fixed_pi)
    value[n_time] = np.exp(g * ell) / g

    interior = _interior(j_nodes, spec.interior_margin)
    ul, ull, fwd, bwd = (np.empty(j_nodes) for _ in range(4))
    # failed[c, m, i]: sign condition c fails on slice m at interior node i.
    failed = np.zeros((3, n_time + 1, interior.stop - interior.start), dtype=bool)

    # Each slice's derivatives and policy are computed once, when the slice
    # is, and carried into the step that reads them.
    for m in range(n_time, -1, -1):
        if m < n_time:
            u, pi = value[m + 1], policy[m + 1]
            diffusion = 0.5 * sig2 * pi * pi
            advection = params.r + pi * excess - diffusion
            penalty = -0.5 * theta * sig2 * pi * pi * ul * ul
            ul_upwind = np.where(advection >= 0, fwd, bwd)
            value[m] = u + dt * (advection * ul_upwind + diffusion * ull + penalty)
        _derivatives(value[m], h, ul, ull, fwd, bwd)
        if fixed_pi is not None:
            continue
        concave = ull - ul
        bracket = concave - theta * ul * ul
        np.less_equal(ul[interior], 0, out=failed[0, m])
        np.greater_equal(concave[interior], 0, out=failed[1, m])
        np.greater_equal(bracket[interior], 0, out=failed[2, m])
        policy[m] = -excess * ul / (sig2 * bracket)

    if failed.any():
        # The slices before the first failure in march order were marched from
        # passing slices: a check after each step stops at the same node.
        m = n_time - int(np.argmax(failed.any(axis=(0, 2))[::-1]))
        c = int(np.argmax(failed[:, m].any(axis=1)))
        raise SolverInconsistentError(interior.start + int(np.argmax(failed[c, m])),
                                      _SIGN_FAILURES[c])
    if not np.isfinite(value[0]).all():   # a step keeps a non-finite value non-finite
        m = n_time - int(np.argmin(np.isfinite(value).all(axis=1)[::-1]))
        raise SolverDivergedError(f"non-finite HJB values from slice {m} of {n_time}")

    return HjbGrid(ell=ell, times=times, value=value, policy=policy, theta=theta,
                   params=params, interior_margin=spec.interior_margin)


# ---------------------------------------------------------------------------
# policy surface
# ---------------------------------------------------------------------------

def _bilinear(times: np.ndarray, ell: np.ndarray, table: np.ndarray,
              t: float, lx: float) -> float:
    i = int(np.clip(np.searchsorted(times, t) - 1, 0, times.size - 2))
    j = int(np.clip(np.searchsorted(ell, lx) - 1, 0, ell.size - 2))
    wt = (t - times[i]) / (times[i + 1] - times[i])
    wl = (lx - ell[j]) / (ell[j + 1] - ell[j])
    wt = min(max(wt, 0.0), 1.0)
    wl = min(max(wl, 0.0), 1.0)
    return float(
        (1 - wt) * ((1 - wl) * table[i, j] + wl * table[i, j + 1])
        + wt * ((1 - wl) * table[i + 1, j] + wl * table[i + 1, j + 1])
    )


@dataclass(frozen=True)
class PolicySurface:
    grid: HjbGrid

    def __call__(self, t, x) -> float:
        return self._query(self.grid.policy, t, x)

    def value_at(self, t, x) -> float:
        return self._query(self.grid.value, t, x)

    def _query(self, table, t, x) -> float:
        lx = math.log(x)
        g = self.grid
        if not (g.times[0] <= t <= g.times[-1]) or not (g.ell[0] <= lx <= g.ell[-1]):
            warnings.warn(
                f"query (t={t}, x={x}) outside the grid; clamped",
                ExtrapolationWarning, stacklevel=3,
            )
            t = min(max(t, g.times[0]), g.times[-1])
            lx = min(max(lx, g.ell[0]), g.ell[-1])
        return _bilinear(g.times, g.ell, table, t, lx)


def extract_policy(grid: HjbGrid) -> PolicySurface:
    """Bilinear interpolation of the stored allocation fractions; off-grid
    queries warn and clamp."""
    return PolicySurface(grid=grid)


# ---------------------------------------------------------------------------
# qualitative properties
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AmbiguityReport:
    theta_list: tuple
    pi_classical: float
    max_interior_pi: tuple            # per theta
    caution_passed: bool
    monotone_passed: bool
    wealth_slope_sign: str            # sign of d pi / d x at t = 0 for the last theta
    wealth_slope_expected: str
    wealth_slope_consistent: bool


def verify_ambiguity_properties(
    params: MarketParams,
    theta_list: Sequence[float],
    spec: HjbGridSpec | None = None,
) -> AmbiguityReport:
    """Caution (pi* < classical for theta > 0) and monotone decrease in theta,
    asserted on interior nodes at all times; the wealth-direction of the
    policy is reported as a diagnostic only."""
    thetas = tuple(real("theta_list", t, at_least=0) for t in theta_list)
    if not thetas:
        raise ValueError("theta_list must not be empty")
    if any(b <= a for a, b in zip(thetas, thetas[1:])):
        raise ValueError("theta_list must be strictly increasing")
    spec = HjbGridSpec.default(params) if spec is None else spec
    pi_cl = classical_merton(params).pi

    grids = [solve_hjb(params, th, spec) for th in thetas]
    interior = grids[0].interior

    caution = True
    max_pis = []
    for th, grid in zip(thetas, grids):
        inner = grid.policy[:, interior]
        max_pis.append(float(inner.max()))
        if th > 0 and not np.all(inner < pi_cl):
            caution = False

    monotone = True
    for lo, hi in zip(grids[:-1], grids[1:]):
        if not np.all(hi.policy[:, interior] < lo.policy[:, interior]):
            monotone = False

    last = grids[-1]
    dpi = np.diff(last.policy[0, interior])
    if np.all(dpi < 0):
        observed = "decreasing"
    elif np.all(dpi > 0):
        observed = "increasing"
    else:
        observed = "mixed"
    expected = "decreasing" if params.gamma > 0 else "increasing"
    if thetas[-1] == 0.0:
        observed = "flat"

    return AmbiguityReport(
        theta_list=thetas,
        pi_classical=pi_cl,
        max_interior_pi=tuple(max_pis),
        caution_passed=caution,
        monotone_passed=monotone,
        wealth_slope_sign=observed,
        wealth_slope_expected=expected,
        wealth_slope_consistent=(observed == expected),
    )


# ---------------------------------------------------------------------------
# calibration from observed allocations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AllocationObservation:
    t: float
    x: float
    amount: float

    def __post_init__(self):
        real("time t", self.t)
        real("wealth x", self.x, above=0)
        real("allocation", self.amount)


@dataclass(frozen=True)
class CalibrationResult:
    theta_star: float
    loss_star: float
    curve: np.ndarray              # rows (theta, loss), sorted by theta
    fallback_used: bool


def calibrate_theta(
    params: MarketParams,
    observations: Sequence[AllocationObservation],
    spec: HjbGridSpec | None = None,
    theta_lo: float = 0.0,
    theta_hi: float = 1.0,
    tol: float = 1e-3,
) -> CalibrationResult:
    """Golden-section search of the squared allocation error over theta.

    Each evaluation is a full HJB solve with the policy interpolated at the
    observation points. A bound whose loss beats the converged bracket is
    the minimum when the bracket converged onto it; if it wins away from
    the bracket, the loss is not unimodal and a dense 64-point scan with a
    warning replaces the search.
    """
    real("theta_hi", theta_hi, above=real("theta_lo", theta_lo, at_least=0))
    real("tol", tol, above=0)
    obs = list(observations)
    if not obs:
        raise ValueError("observations must be non-empty")
    spec = HjbGridSpec.default(params) if spec is None else spec

    evaluated = {}

    def loss(theta: float) -> float:
        if theta not in evaluated:
            surface = extract_policy(solve_hjb(params, theta, spec))
            err = [surface(o.t, o.x) * o.x - o.amount for o in obs]
            evaluated[theta] = float(np.mean(np.square(err)))
        return evaluated[theta]

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = theta_lo, theta_hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = loss(c), loss(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = loss(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = loss(d)
    theta_star = 0.5 * (a + b)
    loss_star = loss(theta_star)

    end = min((theta_lo, theta_hi), key=loss)
    end_wins = loss(end) < loss_star - 1e-12
    fallback = end_wins and end not in (a, b)
    if fallback:
        # Bracketing inconsistent with unimodality; scan densely instead.
        warnings.warn("golden-section bracketing inconsistent; dense scan fallback",
                      UserWarning, stacklevel=2)
        for theta in np.linspace(theta_lo, theta_hi, 64):
            loss(float(theta))
        theta_star = min(evaluated, key=evaluated.get)
        loss_star = evaluated[theta_star]
    elif end_wins:
        # The bracket converged onto this end: the minimum sits at the bound.
        theta_star, loss_star = end, loss(end)

    curve = np.array(sorted(evaluated.items()))
    return CalibrationResult(theta_star=float(theta_star), loss_star=float(loss_star),
                             curve=curve, fallback_used=fallback)


# ---------------------------------------------------------------------------
# csv interfaces
# ---------------------------------------------------------------------------

def export_policy_csv(grid: HjbGrid, path) -> None:
    """Rows (t, x, V, pi) over the whole space-time grid."""
    write_csv(path, ["t", "x", "V", "pi"],
              ([t, x, grid.value[i, j], grid.policy[i, j]]
               for i, t in enumerate(grid.times) for j, x in enumerate(grid.wealth)))


def read_observations_csv(path) -> list:
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(AllocationObservation(
                t=float(row["t"]), x=float(row["x"]), amount=float(row["allocation"])
            ))
    if not out:
        raise ValueError(f"{path} holds no observations")
    return out


def write_observations_csv(observations: Sequence[AllocationObservation], path) -> None:
    write_csv(path, ["t", "x", "allocation"],
              ([float(o.t), float(o.x), float(o.amount)] for o in observations))


# ---------------------------------------------------------------------------
# cross-validation against the backward-equation route
# ---------------------------------------------------------------------------

def crosscheck_entropic_value(
    params: MarketParams,
    theta: float,
    pi_fixed: float,
    spec: HjbGridSpec | None = None,
    n_paths: int = 40_000,
    n_steps: int = 50,
    seed: int = 0,
    x0: float = 1.0,
):
    """Value of a frozen strategy computed three ways: the linear PDE route,
    the regression Monte Carlo route with the quadratic ambiguity driver,
    and the entropic closed-form oracle on terminal utility samples."""
    from .drivers import entropic_driver
    from .engine import BsdeProblem, closed_form_oracle, solve_bsde_lsmc
    from .stochastic import ForwardModel, make_time_grid, sample_brownian, simulate_forward

    spec = HjbGridSpec.default(params, x0=x0) if spec is None else spec
    grid = solve_hjb(params, theta, spec, fixed_pi=pi_fixed)
    pde_value = extract_policy(grid).value_at(0.0, x0)

    g = params.gamma
    drift_rate = params.r + pi_fixed * (params.mu - params.r)
    vol = params.sigma * pi_fixed
    model = ForwardModel(
        drift=lambda t, x: drift_rate * x,
        diffusion=lambda t, x: (vol * x)[:, :, None],
        x0=np.array([x0]),
        state_dim=1,
    )
    tgrid = make_time_grid(params.horizon, n_steps)
    ens = simulate_forward(model, tgrid, sample_brownian(tgrid, n_paths, 1, seed))
    problem = BsdeProblem(
        driver=entropic_driver(theta),
        terminal=lambda ens: ens.states[:, -1, 0] ** g / g,
        ensemble=ens,
    )
    sol = solve_bsde_lsmc(problem)
    xi = problem.terminal(ens)
    oracle = closed_form_oracle("entropic", xi, theta=theta) if theta > 0 else float(np.mean(xi))
    return {"pde_value": float(pde_value), "bsde_value": float(sol.y0),
            "oracle_value": float(oracle)}
