"""Fixed-point operator catalog: projectors, the named operators, homotopies.

Operators act either on discretized function space (grid functions over
[0, T], or grid functions plus a derivative-at-0 track for the Dirichlet
problem) or on finite vectors (phase space, kernel coordinates, history
space).  Handles are immutable after build and apply() is pure.  Every
handle also maps a stack of inputs (leading axes) to the stack of outputs.
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

GRID_OPERATORS = ("K0", "K", "K1", "K3", "K4", "K5", "Kgamma", "Keta",
                  "Khat3", "Khat5", "Ktilde",
                  "Kdir", "Kdir1",
                  "Kdelay", "Kdelay1", "K6", "K7", "K8")
FINITE_OPERATORS = ("K2", "Kdir2", "Kg", "KhatP", "Kdelay2")


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


def apply(h: OperatorHandle, x):
    return h.apply_fn(x)


def sup_distance(x, y) -> float:
    if isinstance(x, GridFunction):
        return (x - y).sup_norm()
    if isinstance(x, C1Function):
        return (x - y).sup_norm()
    return float(np.max(np.abs(np.asarray(x) - np.asarray(y))))


def residual(h: OperatorHandle, x) -> float:
    """Sup-norm of x - h(x); zero exactly on fixed points."""
    return sup_distance(x, apply(h, x))


def linear_homotopy(hA: OperatorHandle, hB: OperatorHandle, lam: float) -> OperatorHandle:
    """Pointwise convex combination lam*A + (1-lam)*B."""
    if hA.space != hB.space:
        raise ValueError(f"space mismatch: {hA.space} vs {hB.space}")
    lam = float(lam)

    def apply_fn(x):
        a = hA.apply_fn(x)
        b = hB.apply_fn(x)
        if isinstance(a, GridFunction):
            return GridFunction(a.grid, lam * a.values + (1.0 - lam) * b.values)
        if isinstance(a, C1Function):
            return C1Function(
                GridFunction(a.values.grid,
                             lam * a.values.values + (1.0 - lam) * b.values.values),
                lam * a.deriv0 + (1.0 - lam) * b.deriv0)
        return lam * np.asarray(a) + (1.0 - lam) * np.asarray(b)

    return OperatorHandle(name=f"H[{lam:g}]({hA.name},{hB.name})", space=hA.space,
                          apply_fn=apply_fn, problem=hA.problem,
                          params={"lambda": lam, "a": hA.name, "b": hB.name})


# ---------------------------------------------------------------------------
# Projectors and right inverses
# ---------------------------------------------------------------------------

PROJECTOR_KINDS = ("eval_at_0", "eval_at_T", "mean", "ker_L_periodic",
                   "ker_L_dirichlet", "delta_periodic", "delta_dirichlet",
                   "pi_sum", "custom_linear")


@dataclass(frozen=True)
class ProjectorSpec:
    """Named linear map onto kernel coordinates, with an embedding back.

    ``coords`` extracts the finite coordinates, ``embed`` realizes them in
    the discretized function space.  Idempotence (coords o embed = id) is
    checked on a probe basis at construction for genuine projectors; the
    delta maps are boundary defects, not projectors, and skip the check.
    """

    kind: str
    coords: Callable
    embed: Callable
    k: int
    checked: bool = True

    def __post_init__(self):
        if not self.checked:
            return
        probes = np.eye(self.k)
        for p in probes:
            back = np.atleast_1d(np.asarray(self.coords(self.embed(p)), dtype=float))
            if np.max(np.abs(back - p)) > 1e-12:
                raise ValueError(f"projector {self.kind!r} fails idempotence on probes")


def make_projector(kind: str, problem) -> ProjectorSpec:
    if kind not in PROJECTOR_KINDS:
        raise ValueError(f"unknown projector kind {kind!r}")
    grid = problem.grid()
    n = problem.field().dim

    if kind in ("eval_at_0", "ker_L_periodic"):
        return ProjectorSpec(kind, lambda x: x.values[..., 0, :].copy(),
                             lambda c: constant(grid, c), n)
    if kind == "eval_at_T":
        return ProjectorSpec(kind, lambda x: x.values[..., -1, :].copy(),
                             lambda c: constant(grid, c), n)
    if kind == "mean":
        return ProjectorSpec(kind, lambda x: gridfn.average(x),
                             lambda c: constant(grid, c), n)
    if kind == "delta_periodic":
        # delta(x) = x(T) - x(0); image in constants but not idempotent --
        # exposed for pi = pi_ker + delta assembly.
        return ProjectorSpec(kind, lambda x: x.values[..., -1, :] - x.values[..., 0, :],
                             lambda c: constant(grid, c), n, checked=False)
    if kind == "pi_sum":
        if problem.kind in PERIODIC_KINDS:
            # pi(x) = x(0) + (x(T) - x(0)) = x(T)
            return ProjectorSpec(kind, lambda x: x.values[..., -1, :].copy(),
                                 lambda c: constant(grid, c), n)
        if problem.kind == "dirichlet_bvp":
            return _dirichlet_pi(grid, n)
        raise ValueError(f"pi_sum not defined for problem kind {problem.kind!r}")
    if kind == "ker_L_dirichlet":
        # pi_ker(x) = t x'(0) + x(0), coordinates (a, b)
        def coords(x: C1Function):
            return np.concatenate([x.deriv0, x.values.values[0]])

        def embed(v):
            a, b = v[:n], v[n:]
            t = grid.nodes[:, None]
            return C1Function(GridFunction(grid, t * a + b), np.asarray(a, dtype=float))

        return ProjectorSpec(kind, coords, embed, 2 * n)
    if kind == "delta_dirichlet":
        # delta(x) = t x(1) + x(0), coordinates (x(1), x(0))
        def coords(x: C1Function):
            return np.concatenate([x.values.values[-1], x.values.values[0]])

        def embed(v):
            a, b = v[:n], v[n:]
            t = grid.nodes[:, None]
            return C1Function(GridFunction(grid, t * a + b), np.asarray(a, dtype=float))

        return ProjectorSpec(kind, coords, embed, 2 * n, checked=False)
    raise ValueError(f"projector kind {kind!r} requires a custom_linear build")


def _dirichlet_pi(grid, n):
    # pi(x) = t[x(1) + x'(0)] + 2 x(0), coordinates (a, b) of t a + b
    def coords(x: C1Function):
        return np.concatenate([x.values.values[-1] + x.deriv0,
                               2.0 * x.values.values[0]])

    def embed(v):
        # right inverse from the kernel-representation x = t^2 (a - b/2) + b/2
        a, b = v[:n], v[n:]
        t = grid.nodes[:, None]
        vals = t * t * (a - 0.5 * b) + 0.5 * b
        return C1Function(GridFunction(grid, vals), np.zeros(n))

    return ProjectorSpec("pi_sum", coords, embed, 2 * n)


def make_custom_projector(coords: Callable, embed: Callable, k: int) -> ProjectorSpec:
    return ProjectorSpec("custom_linear", coords, embed, k)


def pi_map(p: ProjectorSpec, x) -> np.ndarray:
    return np.atleast_1d(np.asarray(p.coords(x), dtype=float))


def i_map(kind: str, v, problem):
    """Right inverses of the boundary projector pi, per problem kind.

    periodic: constant embedding of x(T).  dirichlet: the quadratic
    representative of t a + b.  delay: the piecewise embedding that copies
    the history segment onto [T - tau, T] and freezes y(-tau) before it.
    """
    grid = problem.grid()
    n = problem.field().dim
    if kind == "periodic":
        return constant(grid, v)
    if kind == "dirichlet":
        return _dirichlet_pi(grid, n).embed(np.asarray(v, dtype=float))
    if kind == "delay":
        k = problem.kernel().shift_steps(grid)
        v = np.asarray(v, dtype=float)
        y = v.reshape(v.shape[:-1] + (k + 1, n))
        vals = np.empty(v.shape[:-1] + (grid.m + 1, n))
        vals[..., : grid.m - k, :] = y[..., :1, :]
        vals[..., grid.m - k:, :] = y
        return GridFunction(grid, vals)
    raise ValueError(f"unknown right-inverse kind {kind!r}")


# ---------------------------------------------------------------------------
# Periodic-problem operators
# ---------------------------------------------------------------------------

def _require_kind(problem, kinds, name):
    if problem.kind not in kinds:
        raise ValueError(f"operator {name} incompatible with problem kind {problem.kind!r}")


def _vn(problem, x: GridFunction) -> GridFunction:
    return gridfn.cumulative_integral(gridfn.nemytskii(problem.field(), x))


def _build_periodic(name: str, problem, params: dict) -> OperatorHandle:
    f = problem.field()
    grid = problem.grid()
    T = f.period

    if name == "K0":
        def apply_fn(x):
            return GridFunction(grid, x.values[..., :1, :] + _vn(problem, x).values)
    elif name == "K":
        def apply_fn(x):
            return GridFunction(grid, x.values[..., -1:, :] + _vn(problem, x).values)
    elif name == "K1":
        def apply_fn(x):
            return flows.mu_periodic(f, x.values[..., -1, :], m=grid.m)
    elif name in ("K3", "Khat3", "K5", "Khat5"):
        sign = -1.0 if "hat" in name else 1.0
        periodic_out = name in ("K5", "Khat5")

        def apply_fn(x):
            nx = gridfn.nemytskii(f, x)
            nbar = gridfn.average(nx)[..., None, :]
            centered = GridFunction(grid, nx.values - nbar)
            vc = gridfn.cumulative_integral(centered)
            head = (gridfn.average(x)[..., None, :] + sign * T * nbar
                    - gridfn.average(vc)[..., None, :])
            vals = head + vc.values
            if periodic_out:
                # exact by the discrete V(N - mean N)(T) = 0
                vals[..., -1, :] = vals[..., 0, :]
            return GridFunction(grid, vals, periodic=periodic_out)
    elif name in ("K4", "Kgamma"):
        gamma = params.get("gamma")
        if gamma is None:
            gamma = make_projector("mean", problem)

        def apply_fn(x):
            vn = _vn(problem, x)
            head = pi_map(gamma, x) + vn.values[..., -1, :] - pi_map(gamma, vn)
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
            sol = flows.mu_dirichlet(f, a, b, m=grid.m)
            return C1Function(sol.x, a)
    elif name == "Ktilde":
        # conjugate i~ o g o pi~ of the shooting defect g(a) = a - S(a)
        def fin(a):
            return a - flows.shooting(f, a, m=grid.m)

        def pi(x: C1Function):
            return x.deriv0.copy()

        def i(a):
            sol = flows.mu_dirichlet(f, a, np.zeros(n), m=grid.m)
            return C1Function(sol.x, np.asarray(a, dtype=float))

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
        centered = name in ("K7", "K8")
        periodic_out = name == "K8"

        def apply_fn(x):
            nr = gridfn.nemytskii_delay(f, x, kernel)
            nbar = gridfn.average(nr)[..., None, :]
            integrand = GridFunction(grid, nr.values - nbar) if centered else nr
            v = gridfn.cumulative_integral(integrand)
            head = (gridfn.average(x)[..., None, :] + T * nbar
                    - gridfn.average(v)[..., None, :])
            vals = head + v.values
            if periodic_out:
                vals[..., -1, :] = vals[..., 0, :]
            return GridFunction(grid, vals, periodic=periodic_out)
    elif name == "Ktilde":
        fin, dim = _delay_poincare(problem, grid)

        def pi(x):
            v = x.values[..., grid.m - k:, :]
            return v.reshape(v.shape[:-2] + (-1,)).copy()

        def i(v):
            return i_map("delay", v, problem)

        def apply_fn(x):
            return i(fin(pi(x)))

        return OperatorHandle(name, GRID_SPACE, apply_fn, problem, params,
                              reduction=Reduction(fin, dim, pi, i))
    else:
        raise ValueError(f"unknown delay operator {name!r}")

    return OperatorHandle(name, GRID_SPACE, apply_fn, problem, dict(params))


def _delay_poincare(problem, grid: Grid):
    """Discrete history-space Poincare map y -> (solution with history y)_T."""
    f = problem.field()
    kernel = problem.kernel()
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
    """Finite-vector operators: Poincare maps and kernel-coordinate maps."""
    params = dict(params or {})
    f = problem.field()
    grid = problem.grid()
    n = f.dim

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
            return flows.flow(back, A, grid).endpoint
    elif name == "Kdir2":
        _require_kind(problem, ("dirichlet_bvp",), name)

        def apply_fn(v):
            a, b = v[..., :n], v[..., n:]
            sol = flows.mu_dirichlet(f, a, b, m=grid.m)
            return np.concatenate([sol.x.values[..., -1, :] + a, 2.0 * b], axis=-1)
    elif name == "Kg":
        _require_kind(problem, ("dirichlet_bvp",), name)

        def apply_fn(v):
            a, b = v[..., :n], v[..., n:]
            return np.concatenate([a - flows.shooting(f, a, m=grid.m),
                                   np.zeros_like(b)], axis=-1)
    elif name == "Kdelay2":
        _require_kind(problem, ("periodic_dde",), name)
        nodes = params.get("history_nodes")
        if nodes is None:
            g = grid
        else:
            tau = problem.kernel().tau
            h = tau / (int(nodes) - 1)
            m = round(f.period / h)
            if abs(m * h - f.period) > 1e-9:
                raise ValueError(
                    f"history_nodes={nodes} does not tile the period {f.period}")
            g = Grid(0.0, f.period, m)
        apply_fn, dim = _delay_poincare(problem, g)
        params["dim"] = dim
    else:
        raise ValueError(f"unknown finite operator {name!r}")

    return OperatorHandle(name, FINITE_SPACE, apply_fn, problem, params)
