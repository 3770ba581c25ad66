"""Deterministic initial-value integrators: flows, Poincare maps, Dirichlet tracks, DDEs.

All integrators are fixed-step classical RK4.  Determinism (bitwise
reproducibility for identical inputs) matters more than adaptivity here:
the degree computations downstream must see the same map on every call.
Every integrator, the delay one too, is one sweep of ``_rk4``, the only RK4
loop, over a whole stack of states or histories; the sweep rejects states
that blow up, and the eta solve an overflow (IntegrationError).  ``_rk4``
calls the rhs it is handed as it is: each integrator's adapter checks the
user's field (``gridfn._rhs_call``) once per evaluation, and the delay one
reads the Hermite midpoints of the given history from one pass per sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .gridfn import Grid, GridFunction, IntegrationError, _rhs_call

NONDELAY = "nondelay"
DELAY = "delay"
SECOND_ORDER = "second_order"

_KINDS = (NONDELAY, DELAY, SECOND_ORDER)


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
            raise ValueError(f"lipschitz bound must be finite and >= 0, got {self.lipschitz}")
        if self.kind == DELAY and (self.tau is None or self.tau <= 0):
            raise ValueError("delay fields need tau > 0")


def _rk4(rhs, y0: np.ndarray, a: float, h: float, m: int,
         track: np.ndarray | None = None) -> np.ndarray:
    """Track (..., m+1, n) of m RK4 steps of y' = rhs(t, y) from the stack
    y0 (..., n) at t = a, written step by step into ``track`` if given, so
    that rhs may read the steps already taken.  rhs returns a float array of
    y's shape; its caller checks that.  A state that overflows or is not
    finite raises IntegrationError once the sweep is done."""
    if track is None:
        track = np.empty(y0.shape[:-1] + (m + 1, y0.shape[-1]))
    track[..., 0, :] = y = y0
    half, sixth = 0.5 * h, h / 6.0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(m):
            t = a + j * h
            k1 = rhs(t, y)
            k2 = rhs(t + half, y + half * k1)
            k3 = rhs(t + half, y + half * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            track[..., j + 1, :] = y
    if not np.all(np.isfinite(track)):
        raise IntegrationError(f"non-finite state while integrating over "
                               f"[{a}, {a + m * h}]")
    return track


def flow(f: VectorFieldSpec, x0, grid: Grid) -> GridFunction:
    """Track of x' = f(t, x) over the grid by classical RK4, x0 (..., n)."""
    if f.kind != NONDELAY:
        raise ValueError(f"flow needs a nondelay field, got kind {f.kind!r}")
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if x.shape[-1:] != (f.dim,):
        raise ValueError(f"x0 must have shape (..., {f.dim}), got {x.shape}")
    return GridFunction(grid, _rk4(partial(_rhs_call, f.rhs), x, grid.a, grid.h, grid.m))


def poincare(f: VectorFieldSpec, x0, m: int = 256) -> np.ndarray:
    """Time-T map x0 -> Phi(T, x0)."""
    return flow(f, x0, Grid(0.0, f.period, m)).values[..., -1, :].copy()


def mu_periodic(f: VectorFieldSpec, x0, m: int = 256) -> GridFunction:
    """Trajectory t -> Phi(t, x0) on [0, T]."""
    return flow(f, x0, Grid(0.0, f.period, m))


def _second_order_system(f: VectorFieldSpec):
    """y = (x, x') -> (x', f(t, x)), checking f once per call."""
    n = f.dim

    def rhs(t, y):
        return np.concatenate((y[..., n:], _rhs_call(f.rhs, t, y[..., :n])), axis=-1)

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
    return GridFunction(grid, vals[..., :n])


def _hermite_weights(s: float) -> tuple:
    """The cubic Hermite basis h00, h10, h01, h11 at s."""
    return (1 + 2 * s) * (1 - s) ** 2, s * (1 - s) ** 2, s * s * (3 - 2 * s), s * s * (s - 1)


def _hermite_eval(track: np.ndarray, pos: float) -> np.ndarray:
    """Cubic Hermite (Catmull-Rom slopes) on equally spaced samples.

    ``pos`` is a fractional index into axis -2 of the (..., L, n) ``track``.
    """
    n = track.shape[-2]
    j = int(np.floor(pos))
    j = min(max(j, 0), n - 2)
    y = lambda i: track[..., i, :]
    y0, y1 = y(j), y(j + 1)
    d0 = (y(j + 1) - y(j - 1)) / 2.0 if j >= 1 else y(1) - y(0)
    d1 = (y(j + 2) - y(j)) / 2.0 if j + 2 < n else y(-1) - y(-2)
    h00, h10, h01, h11 = _hermite_weights(pos - j)
    return h00 * y0 + h10 * d0 + h01 * y1 + h11 * d1


def _hermite_midpoints(track: np.ndarray) -> np.ndarray:
    """``_hermite_eval(track, j + 0.5)`` for every j < L - 1 of the (..., L, n)
    ``track``, as row j of an (L-1, ..., n) array: the same slopes, weights and
    operand order, so the same bits.  Each term goes through one of two
    buffers in place, since a temporary per term costs page faults on a large
    stack, and each row is contiguous for the rhs that reads it."""
    y = np.moveaxis(track, -2, 0)  # y[j]: sample j
    h00, h10, h01, h11 = _hermite_weights(0.5)
    mid, d = np.empty(y[1:].shape), np.empty(y[1:].shape)
    np.subtract(y[1], y[0], out=d[0])  # d0: one-sided at the left end
    np.subtract(y[2:], y[:-2], out=d[1:])
    d[1:] /= 2.0
    np.multiply(h00, y[:-1], out=mid)
    mid += np.multiply(h10, d, out=d)
    mid += np.multiply(h01, y[1:], out=d)
    np.subtract(y[2:], y[:-2], out=d[:-1])  # d1: one-sided at the right end
    d[:-1] /= 2.0
    np.subtract(y[-1], y[-2], out=d[-1])
    mid += np.multiply(h11, d, out=d)
    return mid


def dde_flow(f: VectorFieldSpec, history: GridFunction, horizon: float) -> GridFunction:
    """Method of steps for x'(t) = f(t, x(t), x(t - tau)) with given history.

    ``history`` (maybe stacked) lives on [-tau, 0]; the returned track lives
    on [-tau, horizon] with the same step, and ``_rk4`` fills it in place.
    Delayed values at whole steps are exact node lookups in it; at an RK4
    half-step they are cubic Hermite reads: of the given history from its
    midpoints, all computed once per sweep, then of the already-computed
    track, one read shared by the two stages there.
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
    given = _hermite_midpoints(history.values)  # x(t - tau) at the half steps j < k
    half = [None, None]  # (t, x(t - tau)) at the half step in progress past those

    def rhs(t, x):
        q = round(2.0 * t / h)  # t - tau, in half steps from the track's start
        if q % 2 == 0:
            return _rhs_call(f.rhs, t, x, track[..., q // 2, :])
        j = q // 2  # the step in progress, from the state at index k + j
        if j < k:  # t - tau = j + 1/2 lies in the given history
            return _rhs_call(f.rhs, t, x, given[j])
        if half[0] != t:  # stages 2 and 3 share one read
            # The track has a derivative kink at t = 0 (index k): the stencil
            # must not straddle it, and only the computed prefix may feed it.
            half[:] = t, _hermite_eval(track[..., k: k + j + 1, :], j + 0.5 - k)
        return _rhs_call(f.rhs, t, x, half[1])

    _rk4(rhs, track[..., k, :], 0.0, h, n_steps, track[..., k:, :])
    return GridFunction(Grid(-tau, horizon, k + n_steps), track)


class SingularEtaError(ValueError):
    """exp(eta*T) too close to 1: the eta-shifted periodic solve is singular."""


def eta_periodic_solve(f: VectorFieldSpec, eta: float, x: GridFunction) -> GridFunction:
    """Unique T-periodic y of y' + eta*y = f(t, x(t)) + eta*x(t).

    Variation of constants with exact exponential integrating factors and
    trapezoid quadrature on the grid.
    """
    from .gridfn import _spread, cumulative_integral, nemytskii

    T = f.period
    grid = x.grid
    if abs(grid.a) > 1e-12 or abs(grid.b - T) > 1e-12:
        raise ValueError(f"grid must span [0, {T}]")
    g = nemytskii(f, x).values
    t = np.repeat(grid.nodes[:, None], x.dim, axis=1)  # (m+1, n): whole-block products
    try:
        with np.errstate(over="raise"):  # e^{|eta| t} times g can overflow: name it
            if abs(np.expm1(eta * T)) < 1e-12:
                raise SingularEtaError(f"eta={eta} makes exp(eta*T) - 1 negligible")
            g = g + eta * x.values
            g *= np.exp(eta * t)
            cum = cumulative_integral(GridFunction(grid, g)).values
            y0 = cum[..., -1:, :] / np.expm1(eta * T)
            y = _spread(y0, cum)
            y *= np.exp(-eta * t)
    except FloatingPointError as exc:
        raise IntegrationError(f"eta={eta} overflows the eta-shifted periodic solve") from exc
    y[..., -1, :] = y[..., 0, :]  # periodic closure; equality holds to quadrature error
    return GridFunction(grid, y)
