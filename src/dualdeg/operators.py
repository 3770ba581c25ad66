"""Fixed-point operator catalog: the named operators and their reductions.

Operators act either on discretized function space (grid functions over
[0, T], or grid functions plus a derivative-at-0 track for the Dirichlet
problem) or on finite vectors (phase space, kernel coordinates, history
space).  Handles are immutable after build and apply_fn is pure.  Every
handle also maps a stack of inputs (leading axes) to the stack of outputs.
Each problem's Ktilde carries the Reduction witness, the one place that
defines its boundary projection pi and right inverse i.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from . import flows, gridfn
from .gridfn import DelayKernel, Grid, GridFunction, constant

GRID_SPACE = "grid_function"
FINITE_SPACE = "finite_vector"
C1_SPACE = "c1_function"

PERIODIC_KINDS = ("periodic_ode", "nonlocal_1d")

GRID_OPERATORS = ("K", "K1", "K3", "K4", "K5", "Kgamma", "Keta",
                  "Khat3", "Khat5", "Ktilde",
                  "Kdir", "Kdir1",
                  "Kdelay", "Kdelay1", "K6", "K7", "K8")
FINITE_OPERATORS = ("K2", "Kdir2", "KhatP", "Kdelay2")


@dataclass(frozen=True)
class C1Function:
    """Grid function together with its derivative at the left endpoint.

    Discrete stand-in for an element of C^1[0, 1]: node values plus the
    x'(0) coordinate the Dirichlet operators need.
    """

    values: GridFunction
    deriv0: np.ndarray

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.deriv0, dtype=float))
        if d.shape != self.values.values.shape[:-2] + (self.values.dim,):
            raise ValueError(f"deriv0 must have shape (..., {self.values.dim})")
        d.setflags(write=False)
        object.__setattr__(self, "deriv0", d)

    def sup_norm(self) -> float:
        return max(self.values.sup_norm(), float(np.max(np.abs(self.deriv0))))

    def __add__(self, other: "C1Function") -> "C1Function":
        return C1Function(self.values + other.values, self.deriv0 + other.deriv0)

    def __sub__(self, other: "C1Function") -> "C1Function":
        return C1Function(self.values - other.values, self.deriv0 - other.deriv0)

    def __mul__(self, scalar: float) -> "C1Function":
        return C1Function(scalar * self.values, scalar * self.deriv0)

    __rmul__ = __mul__


@dataclass(frozen=True)
class Reduction:
    """Structure witness h = i o F o pi with pi o i = id on R^k."""

    finite_map: Callable[[np.ndarray], np.ndarray]
    k: int
    pi: Callable
    i: Callable


@dataclass(frozen=True)
class OperatorHandle:
    name: str
    space: str
    apply_fn: Callable
    problem: object = None
    params: dict = dc_field(default_factory=dict)
    reduction: Reduction | None = None


def sup_distance(x, y) -> float:
    if isinstance(x, GridFunction):
        return (x - y).sup_norm()
    if isinstance(x, C1Function):
        return (x - y).sup_norm()
    return float(np.max(np.abs(np.asarray(x) - np.asarray(y))))


def residual(h: OperatorHandle, x) -> float:
    """Sup-norm of x - h(x); zero exactly on fixed points."""
    return sup_distance(x, h.apply_fn(x))


# ---------------------------------------------------------------------------
# Periodic-problem operators
# ---------------------------------------------------------------------------

def _require_kind(problem, kinds, name):
    if problem.kind not in kinds:
        raise ValueError(f"operator {name} incompatible with problem kind {problem.kind!r}")


def _vn(problem, x: GridFunction) -> GridFunction:
    return gridfn.cumulative_integral(gridfn.nemytskii(problem.field(), x))


def _mean_centred(grid: Grid, T: float, superpose: Callable, sign: float,
                  centred: bool, periodic_out: bool) -> Callable:
    """x -> mean(x) + sign T mean(N x) + V(I) - mean(V(I)), N = superpose and
    I = N x - mean(N x) if centred, else N x.  With periodic_out the last node
    copies the first, exact for a centred I since then V(I)(T) = 0."""
    def apply_fn(x):
        nx = superpose(x)
        nbar = gridfn.average(nx)[..., None, :]
        v = gridfn.cumulative_integral(
            GridFunction(grid, nx.values - nbar) if centred else nx)
        vals = (gridfn.average(x)[..., None, :] + sign * T * nbar
                - gridfn.average(v)[..., None, :]) + v.values
        if periodic_out:
            vals[..., -1, :] = vals[..., 0, :]
        return GridFunction(grid, vals, periodic=periodic_out)

    return apply_fn


def _build_periodic(name: str, problem, params: dict) -> OperatorHandle:
    f = problem.field()
    grid = problem.grid()
    T = f.period

    if name == "K":
        def apply_fn(x):
            return GridFunction(grid, x.values[..., -1:, :] + _vn(problem, x).values)
    elif name == "K1":
        def apply_fn(x):
            return flows.mu_periodic(f, x.values[..., -1, :], m=grid.m)
    elif name in ("K3", "Khat3", "K5", "Khat5"):
        apply_fn = _mean_centred(grid, T, lambda x: gridfn.nemytskii(f, x),
                                 sign=-1.0 if "hat" in name else 1.0, centred=True,
                                 periodic_out=name in ("K5", "Khat5"))
    elif name in ("K4", "Kgamma"):
        def apply_fn(x):
            vn = _vn(problem, x)
            head = gridfn.average(x) + vn.values[..., -1, :] - gridfn.average(vn)
            return GridFunction(grid, head[..., None, :] + vn.values)
    elif name == "Keta":
        if "eta" not in params:
            raise ValueError("Keta requires an 'eta' parameter")
        eta = float(params["eta"])

        def apply_fn(x):
            return flows.eta_periodic_solve(f, eta, x)
    elif name == "Ktilde":
        # conjugate i o K2 o pi of the Poincare map
        def fin(x0):
            return flows.poincare(f, x0, m=grid.m)

        def pi(x):
            return x.values[..., -1, :].copy()

        def i(c):
            return constant(grid, c)

        def apply_fn(x):
            return i(fin(pi(x)))

        return OperatorHandle(name, GRID_SPACE, apply_fn, problem, params,
                              reduction=Reduction(fin, f.dim, pi, i))
    else:
        raise ValueError(f"unknown periodic operator {name!r}")

    return OperatorHandle(name, GRID_SPACE, apply_fn, problem, dict(params))


# ---------------------------------------------------------------------------
# Dirichlet-problem operators
# ---------------------------------------------------------------------------

def _build_dirichlet(name: str, problem, params: dict) -> OperatorHandle:
    f = problem.field()
    grid = problem.grid()
    n = f.dim
    t = grid.nodes[:, None]

    if name == "Kdir":
        def apply_fn(x: C1Function):
            a = x.values.values[..., -1, :] + x.deriv0
            b = 2.0 * x.values.values[..., 0, :]
            vvn = gridfn.double_cumulative_integral(
                gridfn.nemytskii(f, x.values))
            vals = t * a[..., None, :] + b[..., None, :] + vvn.values
            return C1Function(GridFunction(grid, vals), a)
    elif name == "Kdir1":
        def apply_fn(x: C1Function):
            a = x.values.values[..., -1, :] + x.deriv0
            b = 2.0 * x.values.values[..., 0, :]
            return C1Function(flows.mu_dirichlet(f, a, b, m=grid.m), a)
    elif name == "Ktilde":
        # conjugate i~ o g o pi~ of the shooting defect g(a) = a - S(a)
        def fin(a):
            return a - flows.shooting(f, a, m=grid.m)

        def pi(x: C1Function):
            return x.deriv0.copy()

        def i(a):
            return C1Function(flows.mu_dirichlet(f, a, np.zeros(n), m=grid.m),
                              np.asarray(a, dtype=float))

        def apply_fn(x):
            return i(fin(pi(x)))

        return OperatorHandle(name, C1_SPACE, apply_fn, problem, params,
                              reduction=Reduction(fin, n, pi, i))
    else:
        raise ValueError(f"unknown dirichlet operator {name!r}")

    return OperatorHandle(name, C1_SPACE, apply_fn, problem, dict(params))


# ---------------------------------------------------------------------------
# Delay-problem operators
# ---------------------------------------------------------------------------

def _history_of(x: GridFunction, kernel: DelayKernel) -> GridFunction:
    """Last delay-length segment of x, relocated to [-tau, 0]."""
    k = kernel.shift_steps(x.grid)
    hg = Grid(-kernel.tau, 0.0, k)
    return GridFunction(hg, x.values[..., x.grid.m - k:, :])


def _build_delay(name: str, problem, params: dict) -> OperatorHandle:
    f = problem.field()
    grid = problem.grid()
    kernel = problem.kernel()
    T = f.period
    k = kernel.shift_steps(grid)

    if name == "Kdelay":
        def apply_fn(x):
            nr = gridfn.nemytskii_delay(f, x, kernel)
            return GridFunction(grid, x.values[..., -1:, :]
                                + gridfn.cumulative_integral(nr).values)
    elif name == "Kdelay1":
        def apply_fn(x):
            track = flows.dde_flow(f, _history_of(x, kernel), T)
            return GridFunction(grid, track.values[..., k:, :])
    elif name in ("K6", "K7", "K8"):
        apply_fn = _mean_centred(grid, T, lambda x: gridfn.nemytskii_delay(f, x, kernel),
                                 sign=1.0, centred=name in ("K7", "K8"),
                                 periodic_out=name == "K8")
    elif name == "Ktilde":
        fin, dim = _delay_poincare(problem)

        def pi(x):
            v = x.values[..., grid.m - k:, :]
            return v.reshape(v.shape[:-2] + (-1,)).copy()

        def i(v):
            # copy the history segment onto [T - tau, T], freeze y(-tau) before it
            v = np.asarray(v, dtype=float)
            y = v.reshape(v.shape[:-1] + (k + 1, f.dim))
            vals = np.empty(v.shape[:-1] + (grid.m + 1, f.dim))
            vals[..., : grid.m - k, :] = y[..., :1, :]
            vals[..., grid.m - k:, :] = y
            return GridFunction(grid, vals)

        def apply_fn(x):
            return i(fin(pi(x)))

        return OperatorHandle(name, GRID_SPACE, apply_fn, problem, params,
                              reduction=Reduction(fin, dim, pi, i))
    else:
        raise ValueError(f"unknown delay operator {name!r}")

    return OperatorHandle(name, GRID_SPACE, apply_fn, problem, dict(params))


def _delay_poincare(problem):
    """Discrete history-space Poincare map y -> (solution with history y)_T
    on the history nodes of the problem's grid, and its dimension."""
    f = problem.field()
    kernel = problem.kernel()
    grid = problem.grid()
    k = kernel.shift_steps(grid)
    n = f.dim
    hg = Grid(-kernel.tau, 0.0, k)
    steps = grid.m

    def fin(v):
        v = np.asarray(v, dtype=float)
        hist = GridFunction(hg, v.reshape(v.shape[:-1] + (k + 1, n)))
        track = flows.dde_flow(f, hist, f.period).values[..., steps:, :]
        return track.reshape(v.shape).copy()

    return fin, (k + 1) * n


# ---------------------------------------------------------------------------
# Build entry points
# ---------------------------------------------------------------------------

def build(name: str, problem, params: dict | None = None) -> OperatorHandle:
    """Construct a grid-space operator handle for the given problem."""
    params = dict(params or {})
    if name in FINITE_OPERATORS:
        return build_finite(name, problem, params)
    if name not in GRID_OPERATORS:
        raise ValueError(f"unknown operator name {name!r}")
    if problem.kind in PERIODIC_KINDS:
        return _build_periodic(name, problem, params)
    if problem.kind == "dirichlet_bvp":
        return _build_dirichlet(name, problem, params)
    if problem.kind == "periodic_dde":
        return _build_delay(name, problem, params)
    raise ValueError(f"unknown problem kind {problem.kind!r}")


def build_finite(name: str, problem, params: dict | None = None) -> OperatorHandle:
    """Finite-vector operators: Poincare maps and kernel-coordinate maps.

    ``params["dim"]`` of the handle is the dimension of the vectors it maps.
    """
    params = dict(params or {})
    f = problem.field()
    grid = problem.grid()
    n = dim = f.dim

    if name == "K2":
        _require_kind(problem, PERIODIC_KINDS, name)

        def apply_fn(x0):
            return flows.poincare(f, x0, m=grid.m)
    elif name == "KhatP":
        _require_kind(problem, PERIODIC_KINDS, name)
        T = f.period
        back = flows.VectorFieldSpec(
            dim=n, period=T, kind=flows.NONDELAY,
            rhs=lambda s, z: -np.asarray(f.rhs(T - s, z), dtype=float),
            lipschitz=f.lipschitz)

        def apply_fn(A):
            return flows.poincare(back, A, m=grid.m)
    elif name == "Kdir2":
        _require_kind(problem, ("dirichlet_bvp",), name)

        def apply_fn(v):
            a, b = v[..., :n], v[..., n:]
            x1 = flows.mu_dirichlet(f, a, b, m=grid.m).values[..., -1, :]
            return np.concatenate([x1 + a, 2.0 * b], axis=-1)

        dim = 2 * n
    elif name == "Kdelay2":
        # the history space of problem.history_nodes() nodes
        _require_kind(problem, ("periodic_dde",), name)
        apply_fn, dim = _delay_poincare(problem.with_history_nodes())
    else:
        raise ValueError(f"unknown finite operator {name!r}")

    params["dim"] = dim
    return OperatorHandle(name, FINITE_SPACE, apply_fn, problem, params)
