"""Topological degree engines on bounded domains.

Dimension 1 by endpoint signs, dimension 2 by winding number along the
boundary, general small dimension by regular-value Jacobian-sign sums, plus
the witness check of the finite-rank reduction h = i o F o pi, whose
degree on function space is the Brouwer degree of I - F, and the Fourier
block-sign analysis for eta-shifted solution operators of linear
second-order periodic problems.

Certification is empirical (sampled boundaries, refinement doublings),
never rigorous.  Maps g take a stack of points (..., k) to the stack of
values; sample sets go through g in blocks of STACK_FLOATS floats or one point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable

import numpy as np

from .gridfn import IntegrationError

DEFAULT_EPS = 1e-6
NEWTON_TOL = 1e-9
JACOBIAN_DET_FLOOR = 1e-8
COLLISION_TOL = 1e-9
WINDING_ROUND_GUARD = 0.01
MAX_WINDING_DOUBLINGS = 4
STACK_FLOATS = 2 ** 15  # input floats per stacked call: bounds the memory one call holds
MARGIN_PER_AXIS = 9  # level-0 boundary lattice points per axis of a margin


class CollisionError(ValueError):
    """eta collides with the spectrum relevant to a Fourier block."""


@dataclass(frozen=True)
class DomainSpec:
    """Bounded open set: a box in R^k, or a pullback domain.

    A pullback domain realizes pi^{-1}(U) intersected with the sup-norm
    ball of radius r in the discretized function space, for a finite box U;
    pi is the boundary projection of the reduction witness of the operators
    sampled over it.
    """

    kind: str  # "box" | "pullback"
    box: np.ndarray | None = None
    finite: "DomainSpec | None" = None
    r: float | None = None

    def __post_init__(self):
        if self.kind == "box":
            b = np.asarray(self.box, dtype=float).reshape(-1, 2)
            if not np.all(np.isfinite(b)):
                raise ValueError("box bounds must be finite")
            if np.any(b[:, 1] <= b[:, 0]):
                raise ValueError("box must have nonempty interior")
            b.setflags(write=False)
            object.__setattr__(self, "box", b)
        elif self.kind == "pullback":
            if self.finite is None or not (self.r and self.r > 0):
                raise ValueError("pullback needs a finite domain and r > 0")
        else:
            raise ValueError(f"unknown domain kind {self.kind!r}")

    @property
    def dim(self) -> int:
        if self.kind == "box":
            return self.box.shape[0]
        return self.finite.dim

    def as_box(self) -> np.ndarray:
        if self.kind == "box":
            return self.box
        raise ValueError("pullback domains have no finite box form")

    def contains(self, v) -> bool:
        b = self.as_box()
        v = np.atleast_1d(np.asarray(v, dtype=float))
        return bool(np.all(v > b[:, 0]) and np.all(v < b[:, 1]))


def box_domain(bounds) -> DomainSpec:
    return DomainSpec("box", box=np.asarray(bounds, dtype=float))


def pullback_domain(finite: DomainSpec, r: float) -> DomainSpec:
    return DomainSpec("pullback", finite=finite, r=r)


@dataclass(frozen=True)
class DegreeResult:
    degree: int
    method: str
    min_boundary_norm: float
    refinement_levels: int
    certified: bool
    zeros: tuple = ()
    params: dict = dc_field(default_factory=dict)


# ---------------------------------------------------------------------------
# 1-d: sign change
# ---------------------------------------------------------------------------

def brouwer_1d(g: Callable[[float], float], interval) -> DegreeResult:
    return _sign_change(g(float(interval[0])), g(float(interval[1])))


def _sign_change(ga, gb) -> DegreeResult:
    """Degree over [a, b] of a map with endpoint values g(a), g(b)."""
    ga, gb = (float(np.asarray(v).reshape(())) for v in (ga, gb))
    margin = float(np.minimum(abs(ga), abs(gb)))  # NaN if either is: no sign
    deg = 0 if np.isnan(margin) else int((np.sign(gb) - np.sign(ga)) // 2)
    return DegreeResult(degree=deg, method="sign_1d", min_boundary_norm=margin,
                        refinement_levels=0, certified=margin >= DEFAULT_EPS)


# ---------------------------------------------------------------------------
# 2-d: winding number
# ---------------------------------------------------------------------------

def brouwer_2d_winding(g: Callable, box: DomainSpec) -> DegreeResult:
    """Degree of g over a 2-d box by the winding number along its boundary.

    Level L walks the rows of ``_boundary_lattice(b, 16 2^L + 1)`` (at L = 0 a margin's,
    ``_opening``) by angle about the centre, doubling until every angle step is below
    pi/2; a sample where g is 0 or not finite, a margin below DEFAULT_EPS (no finer
    level's, which holds these samples, is larger) or the cap gives an uncertified 0.
    """
    b = box.as_box()
    if b.shape[0] != 2:
        raise ValueError(f"brouwer_2d_winding needs a 2-d box, got dimension {b.shape[0]}")
    for level in range(MAX_WINDING_DOUBLINGS + 1):
        pts = _boundary_lattice(b, 16 * 2 ** level + 1)
        dx, dy = (pts - b.mean(axis=1)).T
        vals = _map_rows(g, pts[np.argsort(np.arctan2(dy, dx))])
        margin = float(np.min(np.max(np.abs(vals), axis=1)))
        if margin > 0:  # else no angle step there
            z = vals[:, 0] + 1j * vals[:, 1]
            incs = np.angle(np.roll(z, -1) / z)
            if np.max(np.abs(incs)) < np.pi / 2:
                winding = float(np.sum(incs)) / (2 * np.pi)
                deg = int(round(winding))
                certified = abs(winding - deg) < WINDING_ROUND_GUARD and margin >= DEFAULT_EPS
                return DegreeResult(degree=deg, method="winding_2d", min_boundary_norm=margin,
                                    refinement_levels=level, certified=certified)
        if not margin >= DEFAULT_EPS:  # doubling cannot help
            break
    return DegreeResult(degree=0, method="winding_2d", min_boundary_norm=margin,
                        refinement_levels=level, certified=False)


# ---------------------------------------------------------------------------
# n-d: regular-value Jacobian-sign sum
# ---------------------------------------------------------------------------

def _stack_rows(width: int) -> int:
    """Rows of ``width`` floats per stacked call: at least one."""
    return max(1, STACK_FLOATS // width)


def _map_rows(g: Callable, X: np.ndarray) -> np.ndarray:
    """g over the rows of X, _stack_rows of them per call."""
    rows = _stack_rows(X.shape[-1])
    return np.concatenate([np.asarray(g(X[i:i + rows]), dtype=float)
                           for i in range(0, len(X), rows)])


def _map_ahead(g: Callable, X: np.ndarray, ahead: np.ndarray) -> np.ndarray:
    """g over the rows of X, then of ``ahead``, in the same ``_map_rows`` calls; if
    that raises IntegrationError, g over the rows of X alone."""
    if len(ahead):
        try:
            return _map_rows(g, np.concatenate([X, ahead]))
        except IntegrationError:
            pass
    return _map_rows(g, X)


def _held(fn: Callable, rows: dict, queue: list | None = None) -> Callable:
    """fn through the row memo ``rows`` (a row's bytes -> its value, read-only): a
    call keys each row once, maps the new rows, each once, in ``_map_rows`` calls,
    and stores nothing if that raises; if every row is new, it returns their mapped
    block.  Rows are independent: each value is that row's alone.  The first call
    with new rows empties ``queue`` (stacks of rows queued ahead) and maps the
    queued rows the memo does not hold after its own, in the same calls; if that
    raises IntegrationError, it maps its own rows alone (``_map_ahead``)."""
    def held(x):
        x = np.asarray(x, dtype=float)
        X = x.reshape(-1, x.shape[-1])
        keys = [row.tobytes() for row in X]
        new = {key: i for i, key in enumerate(keys) if key not in rows}
        if new:
            ahead = {}
            if queue:
                ahead = {key: row for row in np.concatenate(queue)
                         if (key := row.tobytes()) not in rows and key not in new}
                queue.clear()
            out = _map_ahead(fn, X[list(new.values())],
                             np.reshape(list(ahead.values()), (-1, X.shape[1])))
            out.flags.writeable = False
            rows.update(zip([*new, *ahead], out))  # the queued rows' keys too, if mapped
            out = out[:len(new)]
        if not new or len(new) < len(X):
            out = np.stack([rows[key] for key in keys])
        return out.reshape(x.shape[:-1] + out.shape[1:])

    return held


def _stencil(X: np.ndarray, scale=1e-5):
    """The 2k central-difference points of each row of X (S, k), as rows
    (2kS, k), and their steps h = scale * (1 + |x_i|), (S, k)."""
    k = X.shape[1]
    h = scale * (1.0 + np.abs(X))
    E = h[:, :, None] * np.eye(k)
    return np.concatenate([X[:, None] + E, X[:, None] - E], axis=1).reshape(-1, k), h


def fd_jacobian(g: Callable, x: np.ndarray, scale=1e-5) -> np.ndarray:
    """Central finite-difference Jacobian with step scale * (1 + |x_i|).

    A stack of points (S, k) gives the stack of Jacobians (S, out, k), all
    2kS points in stacked calls of g; ``scale`` may then be an (S, 1) array.
    """
    x = np.asarray(x, dtype=float)
    X = np.atleast_2d(x)
    S, k = X.shape
    pts, h = _stencil(X, scale)
    gx = _map_rows(g, pts).reshape(S, 2 * k, -1)
    J = np.swapaxes(gx[:, :k] - gx[:, k:], 1, 2) / (2 * h[:, None, :])
    return J if x.ndim > 1 else J[0]


def _safe_rows(g: Callable, X: np.ndarray) -> np.ndarray:
    """g over the rows of X; a stack whose integration blows up is redone one
    row at a time, and only the rows that blow up read inf."""
    try:
        return _map_rows(g, X)
    except IntegrationError:
        if len(X) == 1:
            return np.full(X.shape, np.inf)
        return np.concatenate([_safe_rows(g, X[i:i + 1]) for i in range(len(X))])


def _newton_steps(g: Callable, X: np.ndarray, G: np.ndarray, scale: float):
    """Newton steps J(x)^-1 g(x) at the rows of X, and which rows have one: a
    row whose FD Jacobian blows up or is singular has none.  A stacked
    Jacobian or solve that fails is redone one row at a time."""
    J = None
    try:
        J = fd_jacobian(g, X, scale=scale)
        return np.linalg.solve(J, G[..., None])[..., 0], np.ones(len(X), dtype=bool)
    except (np.linalg.LinAlgError, IntegrationError):
        step, has = np.zeros_like(X), np.ones(len(X), dtype=bool)
        for i, x in enumerate(X):
            try:
                Ji = fd_jacobian(g, x, scale=scale) if J is None else J[i]
                step[i] = np.linalg.solve(Ji, G[i])
            except (np.linalg.LinAlgError, IntegrationError):
                has[i] = False
        return step, has


def _newton_runs(g: Callable, X0: np.ndarray, tols, max_iter: int = 60,
                 scale: float = 1e-5, warm: Callable | None = None) -> list:
    """Damped Newton on g with a central-difference Jacobian of step ``scale``
    from each row of X0, all live starts in lock step (stacked g, Jacobian and
    solve), to the last of the decreasing ``tols``.  Per tolerance, the
    iterates and which converged, each row as a run from that start alone at
    that tolerance would end: rows are independent, so such a run is a prefix
    of this one, ending at the first iterate within its tolerance.  ``warm``,
    if given, is handed each line-search try's iterates, then their stencil,
    before g maps them: a ``_Finite`` passes its ``_tries`` with its ``g``, so
    each try is one stacked call of its map."""
    X = np.array(X0, dtype=float)
    G = _safe_rows(g, X)
    live = np.all(np.isfinite(G), axis=1)
    runs = [(np.empty_like(X), np.zeros(len(X), dtype=bool)) for _ in tols]
    for it in range(max_iter + 1):
        nrm = np.max(np.abs(G), axis=1)
        for tol, (Xt, ok) in zip(tols, runs):
            hit = live & ~ok & (nrm <= tol)
            Xt[hit], ok[hit] = X[hit], True
        live &= nrm > tols[-1]
        idx = np.flatnonzero(live)
        if not idx.size or it == max_iter:
            break
        step, has = _newton_steps(g, X[idx], G[idx], scale)
        live[idx[~has]] = False
        idx, step = idx[has], step[has]
        s = 1.0
        for _ in range(8):
            if not idx.size:
                break
            Xn = X[idx] - s * step
            if warm is not None:
                warm(np.concatenate([Xn, _stencil(Xn, scale)[0]]))
            Gn = _safe_rows(g, Xn)
            better = np.all(np.isfinite(Gn), axis=1) & (np.max(np.abs(Gn), axis=1) < nrm[idx])
            X[idx[better]], G[idx[better]] = Xn[better], Gn[better]
            idx, step = idx[~better], step[~better]
            s *= 0.5
        live[idx] = False
    for Xt, ok in runs:
        Xt[~ok] = X[~ok]
    return runs


def _boundary_lattice(box: np.ndarray, per_axis: int) -> np.ndarray:
    """Points on the faces of the box, a lattice per face."""
    k = box.shape[0]
    axes = [np.linspace(box[i, 0], box[i, 1], per_axis) for i in range(k)]
    pts = []
    for face_dim in range(k):
        for side in (0, 1):
            grids = [axes[i] if i != face_dim else np.array([box[face_dim, side]])
                     for i in range(k)]
            mesh = np.meshgrid(*grids, indexing="ij")
            pts.append(np.stack([m.ravel() for m in mesh], axis=1))
    return np.unique(np.vstack(pts), axis=0)


def _boundary_random(box: np.ndarray, count: int, seed: int) -> np.ndarray:
    """Deterministic random points on the box faces; scales to high k."""
    k = box.shape[0]
    rng = np.random.default_rng(seed)
    pts = rng.uniform(box[:, 0], box[:, 1], size=(count, k))
    face = rng.integers(0, k, size=count)
    side = rng.integers(0, 2, size=count)
    pts[np.arange(count), face] = box[face, side]
    return pts


def _lattice_per(box: np.ndarray, per_axis: int, level: int) -> int | None:
    """Lattice points per axis at the given refinement level, or None where
    the level is random because a lattice would exceed the budget in k."""
    k = box.shape[0]
    per = per_axis + level * (per_axis - 1)  # doubling-style refinement
    return per if 2 * k * per ** (k - 1) <= 20000 else None


def _boundary_samples(box: np.ndarray, per_axis: int, level: int) -> np.ndarray:
    """Face samples at the given refinement level, budget-capped in k."""
    per = _lattice_per(box, per_axis, level)
    if per is not None:
        return _boundary_lattice(box, per)
    return _boundary_random(box, 1024 * (level + 1), seed=0x4B52 + level)


def _lattice_seeds(box: np.ndarray, per_axis: int) -> np.ndarray:
    k = box.shape[0]
    axes = [np.linspace(box[i, 0], box[i, 1], per_axis + 2)[1:-1] for i in range(k)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _multistart_seeds(box: np.ndarray) -> np.ndarray:
    """Newton starts in a box: a 3-per-axis interior lattice plus the centre
    for k <= 4; beyond that, the centre and the 2k points half-way from it
    to each face, which keeps the multistart affordable."""
    k = box.shape[0]
    center = np.mean(box, axis=1)
    if k <= 4:
        return np.vstack([_lattice_seeds(box, 3), center[None, :]])
    half = 0.5 * (box[:, 1] - box[:, 0])
    offs = [center + 0.5 * half * e for e in np.eye(k)]
    offs += [center - 0.5 * half * e for e in np.eye(k)]
    return np.vstack([center[None, :], np.asarray(offs)])


def _opening(box: np.ndarray, openings: dict) -> tuple:
    """The rows a search of the box maps first, in one stacked call (``_Finite._open``):
    its margin samples, the boundary samples of levels 0 and 1, each distinct point
    once (lattice levels share points, for k = 1 the two endpoints; random ones are
    kept as drawn), its multistart seeds and their FD stencil; then the margin samples,
    its first rows, and the seeds.  Made once per box in ``openings``."""
    if box.tobytes() not in openings:
        S = np.concatenate([_boundary_samples(box, MARGIN_PER_AXIS, level) for level in (0, 1)])
        if _lattice_per(box, MARGIN_PER_AXIS, 1) is not None:
            S = np.unique(S.view(np.uint64), axis=0).view(float)  # distinct bit patterns
        X = np.concatenate([S, seeds := _multistart_seeds(box), _stencil(seeds)[0]])
        openings[box.tobytes()] = X, X[:len(S)], seeds
    return openings[box.tobytes()]


class _Finite:
    """The Newton searches of one finite map F while this object lives, for
    the zeros of g = v - F(v) (``g``; g is F itself if ``_fn_is_g``), and its
    Jacobians, each made once.  F's rows are held by F's memo, not here: a
    run's (``operators.Solutions``) or a fresh ``_held`` one its builder gives.

    A box's margin values are one array per box (``edge``).  A box's search
    runs from its multistart seeds to ``loose`` and, for k >= 2, on to
    NEWTON_TOL (``_newton_runs``), each stage one stacked call of F
    (``warm``): the box's opening rows (``_opening``, in ``openings``), then each
    line-search try's iterates and stencil.  Before that call, the hook ``at_zero``, if
    given, is handed the try's iterates inside the box, since any of them may
    be a zero (``_tries``): a run's queues the rows a plan reads there."""

    def __init__(self, fn: Callable, loose: float, _fn_is_g: bool = False,
                 at_zero: Callable | None = None, openings: dict | None = None):
        self.fn, self.loose, self._fn_is_g, self.at_zero = fn, loose, _fn_is_g, at_zero
        self.openings = {} if openings is None else openings
        self._edges, self._runs, self._jacobians = {}, {}, {}

    def __call__(self, x) -> np.ndarray:
        return self.fn(np.asarray(x, dtype=float))

    def g(self, x) -> np.ndarray:
        """g over a stack of rows."""
        x = np.asarray(x, dtype=float)
        return self(x) if self._fn_is_g else x - self(x)

    def warm(self, X: np.ndarray) -> np.ndarray | None:
        """F over the rows of X, mapped ahead in one stacked call; if that blows up,
        nothing is stored, each row is mapped when asked for, and this gives None."""
        try:
            return self(X)
        except IntegrationError:
            return None

    def _tries(self, b: np.ndarray) -> Callable:
        """The ``warm`` of box b's line-search tries: a try's rows, its iterates
        and then their stencil, 2k rows each (``_newton_runs``), after the hook
        ``at_zero`` is handed its iterates inside b, where a zero is read."""
        if self.at_zero is None:
            return self.warm

        def warm(X):
            tried = X[:len(X) // (2 * len(b) + 1)]
            self.at_zero(tried[np.all((tried > b[:, 0]) & (tried < b[:, 1]), axis=1)])
            return self.warm(X)

        return warm

    def edge(self, box: np.ndarray) -> np.ndarray:
        """F over the margin samples of the box (``_opening``)."""
        if box.tobytes() not in self._edges:
            self._edges[box.tobytes()] = self(_opening(box, self.openings)[1])
        return self._edges[box.tobytes()]

    def _open(self, b: np.ndarray) -> dict:
        """The runs of box b per tolerance, made on its first use."""
        if b.tobytes() not in self._runs:
            X, S, seeds = _opening(b, self.openings)
            Y = self.warm(X)
            if Y is not None:
                self._edges.setdefault(b.tobytes(), Y[:len(S)])
            tols = (self.loose, NEWTON_TOL) if len(b) >= 2 and NEWTON_TOL < self.loose \
                else (self.loose,)
            self._runs[b.tobytes()] = dict(zip(tols, _newton_runs(
                self.g, seeds, tols, warm=self._tries(b))))
        return self._runs[b.tobytes()]

    def margin(self, b: np.ndarray) -> float:
        """min |g| over the margin samples of box b."""
        self._open(b)
        G = self.edge(b) if self._fn_is_g else _opening(b, self.openings)[1] - self.edge(b)
        return float(np.min(np.max(np.abs(G), axis=-1)))

    def zeros(self, dom: DomainSpec, tol: float):
        """At ``tol`` (``loose``, or NEWTON_TOL for k >= 2): the converged starts
        inside the domain, clustered at radius 10 tol, and how many failed."""
        X, ok = self._open(dom.as_box())[tol]
        zeros: list[np.ndarray] = []
        for z in X[ok]:
            if dom.contains(z) and all(np.max(np.abs(z - z0)) > 10 * tol for z0 in zeros):
                zeros.append(z)
        return zeros, int(np.sum(~ok))

    def jacobian(self, Z: np.ndarray) -> np.ndarray:
        """``fd_jacobian(g, Z)`` at a stack of points, the new ones in one call."""
        new = {z.tobytes(): z for z in Z if z.tobytes() not in self._jacobians}
        if new:
            self._jacobians.update(zip(new, fd_jacobian(self.g, np.stack(list(new.values())))))
        return np.stack([self._jacobians[z.tobytes()] for z in Z])


def brouwer_nd_regular(g: Callable, box, _search: _Finite | None = None) -> DegreeResult:
    """Degree via multistart Newton zeros and Jacobian determinant signs, those
    of ``_search`` (a ``_Finite`` whose ``g`` is g) if given, else of g's own
    on a fresh row memo (``_held``); the margin is min |g| over the box's
    boundary samples at two levels."""
    dom = box if isinstance(box, DomainSpec) else box_domain(box)
    b = dom.as_box()
    search = _Finite(_held(g, {}), NEWTON_TOL, _fn_is_g=True) if _search is None else _search
    margin = search.margin(b)

    zeros, fails = search.zeros(dom, NEWTON_TOL)
    starts = len(_multistart_seeds(b))
    if fails > 0.5 * starts:
        warnings.warn(f"Newton failed from {fails}/{starts} seeds", RuntimeWarning)

    deg, certified = 0, margin >= DEFAULT_EPS
    if zeros:
        dets = np.linalg.det(search.jacobian(np.asarray(zeros)))
        small = np.abs(dets) < JACOBIAN_DET_FLOOR
        deg = int(np.sum(np.where(dets[~small] > 0, 1, -1)))
        certified = certified and not small.any()
    return DegreeResult(degree=deg, method="jacobian_sum",
                        min_boundary_norm=margin, refinement_levels=2,
                        certified=certified,
                        zeros=tuple(tuple(z) for z in zeros))


def fixed_point_degree(F: Callable, box) -> DegreeResult:
    """Brouwer degree of I - F over a box in R^k: endpoint signs for k = 1, in
    one stacked call of F, else Jacobian-sign sums.  A ``_Finite`` F (a run's)
    brings its searches; any other F gets fresh ones on a fresh row memo (``_held``)."""
    dom = box if isinstance(box, DomainSpec) else box_domain(box)
    fin = F if isinstance(F, _Finite) else _Finite(_held(F, {}), NEWTON_TOL)
    if dom.dim == 1:
        return _sign_change(*fin.g(dom.as_box()[0][:, None])[:, 0])
    return brouwer_nd_regular(fin.g, dom, _search=fin)


# ---------------------------------------------------------------------------
# Finite-rank reduction
# ---------------------------------------------------------------------------

def _witness(h):
    """The Reduction witness of ``h``, checked pi o i = id on a probe basis."""
    red = getattr(h, "reduction", None)
    if red is None:
        raise ValueError(f"operator {getattr(h, 'name', h)!r} carries no "
                         "finite-rank reduction witness")
    for p in np.eye(red.k):
        back = np.atleast_1d(np.asarray(red.pi(red.i(p)), dtype=float))
        if np.max(np.abs(back - p)) > 1e-10:
            raise ValueError("reduction witness fails pi o i = id on probes")
    return red


def _reduced(inner: DegreeResult, r: float | None) -> DegreeResult:
    """deg(I - h, pi^{-1}(U) cap B(0, r)) from inner = deg(I - F, U), h = i o F o pi."""
    return replace(inner, method="finite_rank_reduction",
                   params={**inner.params, "r": r, "inner_method": inner.method})


# ---------------------------------------------------------------------------
# Fourier block signs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierBlockSigns:
    block_signs: tuple  # ((k, sign), ...) for non-skipped blocks
    overall_sign: int
    skipped: tuple


def fourier_block_signs(A, eta: float, n_max: int = 16) -> FourierBlockSigns:
    """Signs of the Fourier-mode blocks of I - K^eta for u'' = A u.

    The zero mode contributes sgn det(I - A/eta); mode k contributes the
    determinant sign of the doubled block (eta*I - A) / (eta - k^2), which
    is positive: the block is singular exactly when eta*I - A is, and the
    zero-mode test refuses that.  Modes whose denominator eta - k^2 vanishes
    are skipped and reported.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("A must be square")
    if abs(eta) < COLLISION_TOL:
        raise CollisionError("eta = 0 is singular for the zero mode")

    det0 = float(np.linalg.det(np.eye(n) - A / eta))
    if abs(det0) < COLLISION_TOL:
        raise CollisionError("I - A/eta is singular")
    overall = 1 if det0 > 0 else -1

    skipped = tuple(k for k in range(1, n_max + 1) if abs(eta - k * k) < COLLISION_TOL)
    # a doubled block's determinant is a square, > 0
    signs = tuple((k, 1) for k in range(1, n_max + 1) if k not in skipped)
    return FourierBlockSigns(block_signs=signs, overall_sign=overall, skipped=skipped)
