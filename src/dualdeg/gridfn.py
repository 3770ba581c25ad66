"""Uniform-grid function substrate: quadrature, averaging and superposition operators.

Everything downstream (operator catalog, degree engines) works on functions
sampled at the nodes of a uniform grid.  Quadrature is composite trapezoid
throughout so that cumulative integrals, plain integrals and averages are
mutually consistent at the discrete level.  A grid function may stack
functions: values (..., m+1, n), quadrature along axis -2.

The arithmetic runs in long inner loops over whole (m+1, n) blocks, not n
floats at a time, and gives the bits of numpy's broadcast forms: a
per-function term (..., 1, n) is repeated on the nodes into the result
before the node values are added to it (``_spread``), and for n >= 2 a node
sum is cumsum's last row, which adds the nodes in the order ``np.sum`` does
along a non-contiguous node axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from .flows import VectorFieldSpec


@dataclass(frozen=True)
class Grid:
    """Uniform grid over [a, b] with m subintervals (m+1 nodes)."""

    a: float
    b: float
    m: int

    def __post_init__(self):
        if not (self.b > self.a):
            raise ValueError(f"grid needs b > a, got [{self.a}, {self.b}]")
        if self.m < 2:
            raise ValueError(f"grid needs m >= 2, got m={self.m}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.m

    @property
    def nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(self.m + 1)

    @property
    def length(self) -> float:
        return self.b - self.a


def _as_values(values, m: int) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    if v.ndim < 2 or v.shape[-2] != m + 1:
        raise ValueError(f"values must have shape (..., {m + 1}, n), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("grid function values must be finite (no NaN/Inf)")
    return v


@dataclass(frozen=True)
class GridFunction:
    """Vector-valued function sampled at the nodes of a uniform grid.

    ``values`` has shape (m+1, n), or (..., m+1, n) for a stack of
    functions.  An operator whose image is periodic closes it itself, copying
    node 0 onto node m.  The values are read-only, so ``_memo`` keeps what is
    derived from them (Nemytskii images by field, average, cumulative
    integral, mean-free part) once computed, for every operator applied to
    this object; it dies with the object and takes no part in ``==`` or ``repr``.
    """

    grid: Grid
    values: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        v = _as_values(self.values, self.grid.m)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _check_same_grid(self, other)
        return GridFunction(self.grid, self.values - other.values)


def _check_same_grid(x: GridFunction, y: GridFunction):
    if x.grid != y.grid:
        raise ValueError("grid functions live on different grids")
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")


def constant(grid: Grid, c) -> GridFunction:
    """Constant function(s) c of shape (..., n) on every node."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    return GridFunction(grid, np.repeat(c[..., None, :], grid.m + 1, axis=-2))


@dataclass(frozen=True)
class DelayKernel:
    """Wrapped delay t -> t - tau (mod T), mapping [0, T] into itself."""

    tau: float
    T: float

    def __post_init__(self):
        if not (self.tau > 0):
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.tau > self.T:
            raise ValueError(f"tau={self.tau} exceeds T={self.T}")

    def shift_steps(self, grid: Grid) -> int:
        """Number of grid steps in tau; rejects misaligned tau."""
        if abs(grid.a) > 1e-12 or abs(grid.b - self.T) > 1e-12:
            raise ValueError(f"grid [{grid.a}, {grid.b}] does not span [0, {self.T}]")
        ratio = self.tau / grid.h
        k = round(ratio)
        if k == 0 or abs(ratio - k) > 1e-9:
            raise ValueError(
                f"tau={self.tau} is not an integer multiple of the grid step h={grid.h}"
            )
        return k


def _memoized(x: GridFunction, key, compute: Callable):
    """x's derived quantity under ``key``, computed on first use."""
    memo = x._memo
    return memo[key] if key in memo else memo.setdefault(key, compute())


def cumulative_integral(x: GridFunction) -> GridFunction:
    """V(x)(t) = integral of x from the grid start to t, cumulative trapezoid."""
    def compute():
        h = x.grid.h
        v = np.empty_like(x.values)
        v[..., 0, :] = 0.0
        increments = 0.5 * h * (x.values[..., :-1, :] + x.values[..., 1:, :])
        np.cumsum(increments, axis=-2, out=v[..., 1:, :])
        return GridFunction(x.grid, v)

    return _memoized(x, "V", compute)


def double_cumulative_integral(x: GridFunction) -> GridFunction:
    """Iterated integral t -> int_0^t int_0^r x(s) ds dr."""
    return cumulative_integral(cumulative_integral(x))


def integral(x: GridFunction) -> np.ndarray:
    """Plain trapezoid integral over the whole grid interval."""
    h = x.grid.h
    v = x.values
    # for n >= 2 np.sum adds the nodes in order, as cumsum does in less time;
    # for n = 1 the node axis is all it reduces over, and it sums pairwise
    total = np.sum(v, axis=-2) if x.dim == 1 else np.cumsum(v, axis=-2)[..., -1, :]
    return h * (total - 0.5 * (v[..., 0, :] + v[..., -1, :]))


def average(x: GridFunction) -> np.ndarray:
    def compute():
        a = integral(x) / x.grid.length
        a.setflags(write=False)
        return a

    return _memoized(x, "average", compute)


def _spread(c: np.ndarray, values: np.ndarray, op=np.add) -> np.ndarray:
    """``op(values, c)`` for a per-function term c (..., 1, n) and node values
    (..., m+1, n) of the same stack, bit for bit: c repeated on the nodes is
    the result, and op writes into it."""
    out = np.repeat(c, values.shape[-2], axis=-2)
    return op(values, out, out=out)


def centred(x: GridFunction) -> GridFunction:
    """The mean-free part x - average(x)."""
    return _memoized(x, "centred", lambda: GridFunction(
        x.grid, _spread(average(x)[..., None, :], x.values, np.subtract)))


def _rhs_call(rhs, t, x: np.ndarray, *delayed) -> np.ndarray:
    """rhs(t, X, ...) as a float array; anything but X's shape is an error."""
    val = np.asarray(rhs(t, x, *delayed), dtype=float)
    if val.shape != x.shape:
        raise ValueError(f"rhs returned shape {val.shape}, expected {x.shape}")
    return val


def _superpose(f: "VectorFieldSpec", x: GridFunction, *delayed) -> GridFunction:
    """One rhs call over every node of every stacked function, one finiteness
    check; a non-finite value is reported at the first node that has one."""
    if f.dim != x.dim:
        raise ValueError(f"field dim {f.dim} != grid function dim {x.dim}")
    nodes = x.grid.nodes
    out = _rhs_call(f.rhs, nodes, x.values, *delayed)
    bad = ~np.isfinite(out)
    if bad.any():
        j = np.argwhere(bad)[0][-2]
        raise ValueError(f"rhs returned non-finite value at t={nodes[j]}")
    return GridFunction(x.grid, out)


def nemytskii(f: "VectorFieldSpec", x: GridFunction) -> GridFunction:
    """Superposition t -> f(t, x(t)) at the grid nodes, once per value-equal f."""
    return _memoized(x, f, lambda: _superpose(f, x))


def nemytskii_delay(f: "VectorFieldSpec", x: GridFunction, k: DelayKernel) -> GridFunction:
    """Superposition t -> f(t, x(t), x(r(t))) with the wrapped delay r.

    r(t) = t - tau + T for t < tau and t - tau otherwise; since tau is
    grid-aligned this is an exact index shift.
    """
    shift = k.shift_steps(x.grid)
    m = x.grid.m
    idx = np.arange(m + 1) - shift
    idx[idx < 0] += m  # r(t) = t - tau + T lands on node j - shift + m
    return _superpose(f, x, x.values[..., idx, :])
