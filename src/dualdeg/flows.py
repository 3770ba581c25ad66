"""Deterministic initial-value integrators: flows, Poincare maps, shooting, DDEs.

All integrators are fixed-step classical RK4.  Determinism (bitwise
reproducibility for identical inputs) matters more than adaptivity here:
the degree computations downstream must see the same map on every call.
Each integrator advances a whole stack of states or histories in one loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gridfn import Grid, GridFunction, _rhs_call

NONDELAY = "nondelay"
DELAY = "delay"
SECOND_ORDER = "second_order"

_KINDS = (NONDELAY, DELAY, SECOND_ORDER)


class IntegrationError(RuntimeError):
    """Raised when the right-hand side blows up mid-integration."""


@dataclass(frozen=True)
class VectorFieldSpec:
    """Right-hand side with its period, kind and declared Lipschitz bound.

    kind "nondelay": rhs(t, x); "delay": rhs(t, x, x_delayed);
    "second_order": rhs(t, x) interpreted as x'' = rhs.  x is a stack (..., n),
    t a scalar or broadcasting against x[..., 0]; the result has x's shape.
    """

    dim: int
    period: float
    kind: str
    rhs: Callable[..., np.ndarray]
    lipschitz: float = 0.0
    tau: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown rhs kind {self.kind!r}")
        if not (self.period > 0):
            raise ValueError(f"period must be positive, got {self.period}")
        if not np.isfinite(self.lipschitz) or self.lipschitz < 0:
            raise ValueError(f"lipschitz bound must be finite and >= 0")
        if self.kind == DELAY and (self.tau is None or self.tau <= 0):
            raise ValueError("delay fields need tau > 0")


def _check_finite(v: np.ndarray, step: int, t: float):
    if not np.all(np.isfinite(v)):
        raise IntegrationError(f"non-finite state at step {step} (t={t})")


def _rk4(rhs, y0: np.ndarray, a: float, h: float, m: int) -> np.ndarray:
    """Track (..., m+1, n) of m RK4 steps of y' = rhs(t, y) from the stack
    y0 (..., n) at t = a; the caller rejects non-finite states."""
    track = np.empty(y0.shape[:-1] + (m + 1, y0.shape[-1]))
    track[..., 0, :] = y = y0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(m):
            t = a + j * h
            k1 = _rhs_call(rhs, t, y)
            k2 = _rhs_call(rhs, t + 0.5 * h, y + 0.5 * h * k1)
            k3 = _rhs_call(rhs, t + 0.5 * h, y + 0.5 * h * k2)
            k4 = _rhs_call(rhs, t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            track[..., j + 1, :] = y
    return track


def flow(f: VectorFieldSpec, x0, grid: Grid) -> GridFunction:
    """Track of x' = f(t, x) over the grid by classical RK4, x0 (..., n)."""
    if f.kind != NONDELAY:
        raise ValueError(f"flow needs a nondelay field, got kind {f.kind!r}")
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if x.shape[-1:] != (f.dim,):
        raise ValueError(f"x0 must have shape (..., {f.dim}), got {x.shape}")
    vals = _rk4(f.rhs, x, grid.a, grid.h, grid.m)
    if not np.all(np.isfinite(vals)):
        raise IntegrationError(f"non-finite state while integrating over "
                               f"[{grid.a}, {grid.b}]")
    return GridFunction(grid, vals)


def poincare(f: VectorFieldSpec, x0, m: int = 256) -> np.ndarray:
    """Time-T map x0 -> Phi(T, x0)."""
    return flow(f, x0, Grid(0.0, f.period, m)).values[..., -1, :].copy()


def mu_periodic(f: VectorFieldSpec, x0, m: int = 256) -> GridFunction:
    """Trajectory t -> Phi(t, x0) on [0, T]."""
    return flow(f, x0, Grid(0.0, f.period, m))


def _second_order_system(f: VectorFieldSpec):
    n = f.dim

    def rhs(t, y):
        return np.concatenate([y[..., n:], _rhs_call(f.rhs, t, y[..., :n])], axis=-1)

    return rhs


def mu_dirichlet(f: VectorFieldSpec, a, b, m: int = 256) -> GridFunction:
    """Track of x'' = f(t, x) on [0, 1] with x(0) = b, x'(0) = a, both (..., n)."""
    if f.kind != SECOND_ORDER:
        raise ValueError(f"mu_dirichlet needs a second_order field, got {f.kind!r}")
    a, b = np.broadcast_arrays(np.atleast_1d(np.asarray(a, dtype=float)),
                               np.atleast_1d(np.asarray(b, dtype=float)))
    n = f.dim
    grid = Grid(0.0, 1.0, m)
    vals = _rk4(_second_order_system(f), np.concatenate([b, a], axis=-1),
                grid.a, grid.h, m)
    if not np.all(np.isfinite(vals)):
        raise IntegrationError("non-finite state in the Dirichlet solve")
    return GridFunction(grid, vals[..., :n])


def shooting(f: VectorFieldSpec, a, m: int = 256) -> np.ndarray:
    """S(a) = x(1) for the solution with x(0) = 0, x'(0) = a."""
    return mu_dirichlet(f, a, np.zeros(f.dim), m=m).values[..., -1, :].copy()


def _hermite_eval(track: np.ndarray, pos: float) -> np.ndarray:
    """Cubic Hermite (Catmull-Rom slopes) on equally spaced samples.

    ``pos`` is a fractional index into axis -2 of the (..., L, n) ``track``.
    """
    n = track.shape[-2]
    j = int(np.floor(pos))
    j = min(max(j, 0), n - 2)
    s = pos - j
    y = lambda i: track[..., i, :]
    y0, y1 = y(j), y(j + 1)
    d0 = (y(j + 1) - y(j - 1)) / 2.0 if j >= 1 else y(1) - y(0)
    d1 = (y(j + 2) - y(j)) / 2.0 if j + 2 < n else y(-1) - y(-2)
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * y0 + h10 * d0 + h01 * y1 + h11 * d1


def dde_flow(f: VectorFieldSpec, history: GridFunction, horizon: float) -> GridFunction:
    """Method of steps for x'(t) = f(t, x(t), x(t - tau)) with given history.

    ``history`` (maybe stacked) lives on [-tau, 0]; the returned track lives
    on [-tau, horizon] with the same step.  Delayed values at whole steps are
    exact node lookups; at RK4 half-steps they are cubic Hermite reads of
    the already-computed track.
    """
    if f.kind != DELAY:
        raise ValueError(f"dde_flow needs a delay field, got {f.kind!r}")
    tau = float(f.tau)
    hg = history.grid
    if abs(hg.b) > 1e-12 or abs(hg.a + tau) > 1e-12:
        raise ValueError(f"history grid [{hg.a}, {hg.b}] must span [-{tau}, 0]")
    h = hg.h
    k = hg.m  # steps per delay interval
    n_steps = round(horizon / h)
    if abs(n_steps * h - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError(f"horizon {horizon} is not a multiple of the history step {h}")

    track = np.empty(history.values.shape[:-2] + (k + n_steps + 1, f.dim))
    track[..., : k + 1, :] = history.values

    for j in range(n_steps):
        t = j * h
        x = track[..., k + j, :]
        base = j  # index of t - tau in track space
        k1 = _rhs_call(f.rhs, t, x, track[..., base, :])
        # The track has a derivative kink at t = 0 (index k): the stencil
        # must not straddle it, and only the computed prefix may feed it.
        if base + 0.5 < k:
            xd_half = _hermite_eval(track[..., : k + 1, :], base + 0.5)
        else:
            xd_half = _hermite_eval(track[..., k: k + j + 1, :], base + 0.5 - k)
        k2 = _rhs_call(f.rhs, t + 0.5 * h, x + 0.5 * h * k1, xd_half)
        k3 = _rhs_call(f.rhs, t + 0.5 * h, x + 0.5 * h * k2, xd_half)
        k4 = _rhs_call(f.rhs, t + h, x + h * k3, track[..., base + 1, :])
        xn = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _check_finite(xn, j + 1, t + h)
        track[..., k + j + 1, :] = xn

    out_grid = Grid(-tau, horizon, k + n_steps)
    return GridFunction(out_grid, track)


class SingularEtaError(ValueError):
    """exp(eta*T) too close to 1: the eta-shifted periodic solve is singular."""


def eta_periodic_solve(f: VectorFieldSpec, eta: float, x: GridFunction) -> GridFunction:
    """Unique T-periodic y of y' + eta*y = f(t, x(t)) + eta*x(t).

    Variation of constants with exact exponential integrating factors and
    trapezoid quadrature on the grid.
    """
    from .gridfn import cumulative_integral, nemytskii

    T = f.period
    grid = x.grid
    if abs(grid.a) > 1e-12 or abs(grid.b - T) > 1e-12:
        raise ValueError(f"grid must span [0, {T}]")
    if abs(np.expm1(eta * T)) < 1e-12:
        raise SingularEtaError(f"eta={eta} makes exp(eta*T) - 1 negligible")
    g = nemytskii(f, x).values + eta * x.values
    t = grid.nodes[:, None]
    weighted = GridFunction(grid, np.exp(eta * t) * g)
    cum = cumulative_integral(weighted).values
    y0 = cum[..., -1:, :] / np.expm1(eta * T)
    y = np.exp(-eta * t) * (y0 + cum)
    y[..., -1, :] = y[..., 0, :]  # periodic closure; equality holds to quadrature error
    return GridFunction(grid, y, periodic=True)
