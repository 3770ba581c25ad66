"""Fixed-point operator catalog: the named operators and their reductions.

Operators act either on discretized function space (grid functions over
[0, T], or grid functions plus a derivative-at-0 coordinate for the Dirichlet
problem) or on finite vectors (phase space, kernel coordinates, history
space).  Handles are immutable after build and apply_fn is pure.  Every
handle also maps a stack of inputs (leading axes) to the stack of outputs.
Every operator that integrates the equation composes with one solution map
alpha per problem (``solution``).  Each problem's Ktilde carries the
Reduction witness, the one place that defines its boundary projection pi and
right inverse i, and holds the finite handle F it is built from: Ktilde =
i o F o pi (``reduced_handle``).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import Callable

import numpy as np

from . import degree, flows, gridfn
from .gridfn import Grid, GridFunction, constant

GRID_SPACE = "grid_function"
FINITE_SPACE = "finite_vector"
C1_SPACE = "c1_function"

PERIODIC_KINDS = ("periodic_ode", "nonlocal_1d")

GRID_OPERATORS = ("K", "K1", "K3", "K4", "K5", "Kgamma", "Keta",
                  "Khat3", "Ktilde",
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

    def __sub__(self, other: "C1Function") -> "C1Function":
        return C1Function(self.values - other.values, self.deriv0 - other.deriv0)


@dataclass(frozen=True)
class Reduction:
    """Structure witness h = i o F o pi with pi o i = id on R^k: ``finite`` is
    the handle of F and k its ``dim``."""

    finite: "OperatorHandle"
    pi: Callable
    i: Callable

    @property
    def k(self) -> int:
        return self.finite.params["dim"]


@dataclass(frozen=True)
class OperatorHandle:
    name: str
    space: str
    apply_fn: Callable
    problem: object = None
    params: dict = dc_field(default_factory=dict)
    reduction: Reduction | None = None
    factors: tuple | None = None  # (pi, mu) of a ``lifted_handle``


def _quiet(fn: Callable) -> Callable:
    """fn under the errstate of ``flows._rk4``'s loop: every grid handle is built
    with it, so an overflow inside one reaches the finiteness check of the grid
    function it returns (``IntegrationError``), not a numpy warning."""
    def apply_fn(x):
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(x)

    return apply_fn


def lifted_handle(name: str, problem, params: dict, pi: Callable,
                  mu: Callable) -> OperatorHandle:
    """The grid handle of h = lift o mu o pi: pi projects x onto R^k (x(T), or
    the last delay-length segment of x), mu maps a stack (..., k) to node
    values (..., m+1, n) and lift makes those a grid function.  ``factors`` =
    (pi, mu): a caller may map mu over the projections of many inputs at once,
    and gets h's values row for row."""
    grid = problem.grid()

    def apply_fn(x):
        return GridFunction(grid, mu(pi(x)))

    return OperatorHandle(name, GRID_SPACE, _quiet(apply_fn), problem, dict(params),
                          factors=(pi, mu))


def reduced_handle(name: str, space: str, problem, params: dict,
                   red: Reduction) -> OperatorHandle:
    """The handle of h = i o F o pi, F = ``red.finite``."""
    def apply_fn(x):
        return red.i(red.finite.apply_fn(red.pi(x)))

    return OperatorHandle(name, space, _quiet(apply_fn), problem, params, reduction=red)


def residual(h: OperatorHandle, x) -> float:
    """Sup-norm of x - h(x); zero exactly on fixed points."""
    return (x - h.apply_fn(x)).sup_norm()


class Solutions(dict):
    """One run's memo (``run_copy``): per key, the row dict of a
    ``degree._held`` map, so each distinct row under a key is mapped once, and
    the rows queued to ride on that map's next call with new rows (``queues``,
    filled by ``queue``).  alpha's key is ``alpha_key``; KhatP's is its own."""

    def __init__(self):
        super().__init__()
        self.queues = {}


def queue(problem, X: np.ndarray) -> None:
    """Queue the rows of X, inputs of the problem's alpha, on alpha's next call
    with new rows (``degree._held``), if the problem has a run memo."""
    memo = getattr(problem, "_solutions", None)
    if memo is not None and len(X):
        memo.queues.setdefault(alpha_key(problem), []).append(X)


def run_copy(problem, m: int):
    """The problem's copy for one run, at grid m, with a fresh ``Solutions``;
    ``replace`` carries it, so the run's other copies (their m differs) share it."""
    return replace(problem, m=int(m), _solutions=Solutions())


def _through_memo(problem, key, fn: Callable) -> Callable:
    """``fn`` through the run memo of the problem under ``key``, if it has one."""
    memo = getattr(problem, "_solutions", None)
    return fn if memo is None else degree._held(fn, memo.setdefault(key, {}),
                                                memo.queues.setdefault(key, []))


def alpha_key(problem) -> tuple:
    """The run-memo key of the problem's alpha (``solution``), one per grid m."""
    return ("alpha", problem.grid().m)


def solution(problem) -> Callable:
    """alpha: a stack of finite representatives (..., k) -> the solutions they
    start on the problem's grid, one solution in either space.  Periodic kinds:
    the trajectory from x(0); Dirichlet: the C1Function from v = (x'(0), x(0));
    delay: the solution on [-tau, T] from the history on [-tau, 0], its nodes
    flattened.  It makes the one integrator call of each kind, in a run through
    its memo (``Solutions``), which every map built on alpha reads."""
    f, grid = problem.field(), problem.grid()
    n, out_grid = f.dim, grid
    if problem.kind in PERIODIC_KINDS:
        integrate = lambda c: flows.mu_periodic(f, c, m=grid.m).values
    elif problem.kind == "dirichlet_bvp":
        integrate = lambda v: flows.mu_dirichlet(f, v[..., :n], v[..., n:], m=grid.m).values
    elif problem.kind == "periodic_dde":
        kernel = problem.kernel()
        hg = Grid(-kernel.tau, 0.0, kernel.shift_steps(grid))
        out_grid = Grid(-kernel.tau, f.period, hg.m + grid.m)
        integrate = lambda v: flows.dde_flow(
            f, GridFunction(hg, v.reshape(v.shape[:-1] + (hg.m + 1, n))), f.period).values
    else:
        raise ValueError(f"unknown problem kind {problem.kind!r}")
    integrate = _through_memo(problem, alpha_key(problem), integrate)

    def alpha(v):
        v = np.asarray(v, dtype=float)
        x = GridFunction(out_grid, integrate(v))
        return C1Function(x, v[..., :n]) if problem.kind == "dirichlet_bvp" else x

    return alpha


# ---------------------------------------------------------------------------
# Periodic-problem operators
# ---------------------------------------------------------------------------

def _require_kind(problem, kinds, name):
    if problem.kind not in kinds:
        raise ValueError(f"operator {name} incompatible with problem kind {problem.kind!r}")


def _endpoint(x: GridFunction) -> np.ndarray:
    """x(T): where K1's flow starts and periodic Ktilde's pi projects."""
    return x.values[..., -1, :].copy()


def _vn(problem, x: GridFunction) -> GridFunction:
    return gridfn.cumulative_integral(gridfn.nemytskii(problem.field(), x))


def _mean_centred(grid: Grid, T: float, superpose: Callable, sign: float,
                  centred: bool, periodic_out: bool) -> Callable:
    """x -> mean(x) + sign T mean(N x) + V(I) - mean(V(I)), N = superpose and
    I = N x - mean(N x) if centred, else N x.  With periodic_out the last node
    copies the first, exact for a centred I since then V(I)(T) = 0.  Each term
    comes from the memo of x, N x or I, shared by every operator given one x."""
    def apply_fn(x):
        nx = superpose(x)
        v = gridfn.cumulative_integral(gridfn.centred(nx) if centred else nx)
        head = gridfn.average(x) + sign * T * gridfn.average(nx) - gridfn.average(v)
        vals = gridfn._spread(head[..., None, :], v.values)
        if periodic_out:
            vals[..., -1, :] = vals[..., 0, :]
        return GridFunction(grid, vals)

    return apply_fn


def _build_periodic(name: str, problem, params: dict) -> OperatorHandle:
    f = problem.field()
    grid = problem.grid()
    T = f.period

    if name == "K":
        def apply_fn(x):
            return GridFunction(grid, gridfn._spread(x.values[..., -1:, :],
                                                     _vn(problem, x).values))
    elif name == "K1":
        alpha = solution(problem)
        return lifted_handle(name, problem, params, _endpoint, lambda c: alpha(c).values)
    elif name in ("K3", "Khat3", "K5"):
        apply_fn = _mean_centred(grid, T, lambda x: gridfn.nemytskii(f, x),
                                 sign=-1.0 if name == "Khat3" else 1.0, centred=True,
                                 periodic_out=name == "K5")
    elif name in ("K4", "Kgamma"):
        def apply_fn(x):
            vn = _vn(problem, x)
            head = gridfn.average(x) + vn.values[..., -1, :] - gridfn.average(vn)
            return GridFunction(grid, gridfn._spread(head[..., None, :], vn.values))
    elif name == "Keta":
        if "eta" not in params:
            raise ValueError("Keta requires an 'eta' parameter")
        eta = float(params["eta"])

        def apply_fn(x):
            return flows.eta_periodic_solve(f, eta, x)
    elif name == "Ktilde":
        # conjugate i o K2 o pi of the Poincare map
        red = Reduction(build_finite("K2", problem), _endpoint, lambda c: constant(grid, c))
        return reduced_handle(name, GRID_SPACE, problem, params, red)
    else:
        raise ValueError(f"unknown periodic operator {name!r}")

    return OperatorHandle(name, GRID_SPACE, _quiet(apply_fn), problem, dict(params))


# ---------------------------------------------------------------------------
# Dirichlet-problem operators
# ---------------------------------------------------------------------------

def _restart(x: C1Function) -> np.ndarray:
    """(x(1) + x'(0), 2 x(0)) (..., 2n): Kdir1 = alpha o restart, Kdir2 = restart o alpha."""
    vals = x.values.values
    return np.concatenate([vals[..., -1, :] + x.deriv0, 2.0 * vals[..., 0, :]], axis=-1)


def _build_dirichlet(name: str, problem, params: dict) -> OperatorHandle:
    f = problem.field()
    grid = problem.grid()
    n = f.dim
    t = grid.nodes[:, None]
    alpha = solution(problem)

    if name == "Kdir":
        def apply_fn(x: C1Function):
            r = _restart(x)
            a, b = r[..., :n], r[..., n:]
            vvn = gridfn.double_cumulative_integral(
                gridfn.nemytskii(f, x.values))
            vals = t * a[..., None, :] + b[..., None, :] + vvn.values
            return C1Function(GridFunction(grid, vals), a)
    elif name == "Kdir1":
        def apply_fn(x: C1Function):
            return alpha(_restart(x))
    elif name == "Ktilde":
        # conjugate i~ o g o pi~ of the shooting defect g(a) = a - i(a)(1)
        def i(a):
            a = np.atleast_1d(np.asarray(a, dtype=float))
            return alpha(np.concatenate([a, np.zeros_like(a)], axis=-1))

        defect = OperatorHandle("Kshoot", FINITE_SPACE,
                                lambda a: a - i(a).values.values[..., -1, :],
                                problem, {"dim": n})
        red = Reduction(defect, lambda x: x.deriv0.copy(), i)
        return reduced_handle(name, C1_SPACE, problem, params, red)
    else:
        raise ValueError(f"unknown dirichlet operator {name!r}")

    return OperatorHandle(name, C1_SPACE, _quiet(apply_fn), problem, dict(params))


# ---------------------------------------------------------------------------
# Delay-problem operators
# ---------------------------------------------------------------------------

def _build_delay(name: str, problem, params: dict) -> OperatorHandle:
    f = problem.field()
    grid = problem.grid()
    kernel = problem.kernel()
    T = f.period
    k = kernel.shift_steps(grid)

    def pi(x):
        # the last delay-length segment x|[T - tau, T], flattened
        v = x.values[..., grid.m - k:, :]
        return v.reshape(v.shape[:-2] + (-1,)).copy()

    if name == "Kdelay":
        def apply_fn(x):
            nr = gridfn.nemytskii_delay(f, x, kernel)
            return GridFunction(grid, gridfn._spread(
                x.values[..., -1:, :], gridfn.cumulative_integral(nr).values))
    elif name == "Kdelay1":
        alpha = solution(problem)
        return lifted_handle(name, problem, params, pi, lambda v: alpha(v).values[..., k:, :])
    elif name in ("K6", "K7", "K8"):
        apply_fn = _mean_centred(grid, T, lambda x: gridfn.nemytskii_delay(f, x, kernel),
                                 sign=1.0, centred=name in ("K7", "K8"),
                                 periodic_out=name == "K8")
    elif name == "Ktilde":
        def i(v):
            # copy the history segment onto [T - tau, T], freeze y(-tau) before it
            v = np.asarray(v, dtype=float)
            y = v.reshape(v.shape[:-1] + (k + 1, f.dim))
            vals = np.empty(v.shape[:-1] + (grid.m + 1, f.dim))
            vals[..., : grid.m - k, :] = y[..., :1, :]
            vals[..., grid.m - k:, :] = y
            return GridFunction(grid, vals)

        red = Reduction(_delay_poincare(problem), pi, i)
        return reduced_handle(name, GRID_SPACE, problem, params, red)
    else:
        raise ValueError(f"unknown delay operator {name!r}")

    return OperatorHandle(name, GRID_SPACE, _quiet(apply_fn), problem, dict(params))


def _delay_poincare(problem, params: dict | None = None) -> OperatorHandle:
    """The Kdelay2 handle of the problem's grid: the discrete history-space
    Poincare map y -> (solution with history y)_T, the last history segment
    of alpha(y)."""
    grid = problem.grid()
    alpha = solution(problem)

    def fin(v):
        v = np.asarray(v, dtype=float)
        return alpha(v).values[..., grid.m:, :].reshape(v.shape).copy()

    dim = (problem.kernel().shift_steps(grid) + 1) * problem.field().dim
    return OperatorHandle("Kdelay2", FINITE_SPACE, fin, problem, {**(params or {}), "dim": dim})


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


def build_once(handles: dict, name: str, problem, params: dict | None = None) -> OperatorHandle:
    """``build(name, problem, params)``, held in ``handles`` by name and params:
    one run's plans share one such dict, so each of its handles is built once."""
    key = name, repr(sorted((params or {}).items()))
    return handles[key] if key in handles else handles.setdefault(key, build(name, problem, params))


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
        alpha = solution(problem)
        apply_fn = lambda x0: _endpoint(alpha(x0))
    elif name == "KhatP":
        _require_kind(problem, PERIODIC_KINDS, name)
        T = f.period
        back = flows.VectorFieldSpec(
            dim=n, period=T, kind=flows.NONDELAY,
            rhs=lambda s, z: -np.asarray(f.rhs(T - s, z), dtype=float),
            lipschitz=f.lipschitz)
        apply_fn = _through_memo(problem, ("KhatP", grid.m),
                                 lambda A: flows.poincare(back, A, m=grid.m))
    elif name == "Kdir2":
        _require_kind(problem, ("dirichlet_bvp",), name)
        alpha = solution(problem)
        apply_fn, dim = lambda v: _restart(alpha(v)), 2 * n
    elif name == "Kdelay2":
        # the history space of problem.history_nodes() nodes: the handle's
        # problem is that coarse one, whose alpha lifts its zeros
        _require_kind(problem, ("periodic_dde",), name)
        return _delay_poincare(problem.with_history_nodes(), params)
    else:
        raise ValueError(f"unknown finite operator {name!r}")

    params["dim"] = dim
    return OperatorHandle(name, FINITE_SPACE, apply_fn, problem, params)
