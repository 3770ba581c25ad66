"""Topological degree engines on bounded domains.

Dimension 1 by endpoint signs, dimension 2 by winding number along the
boundary, general small dimension by regular-value Jacobian-sign sums, plus
the finite-rank reduction that turns identity-minus-(i o F o pi) operators
on function space into finite Brouwer computations, and the Fourier
block-sign analysis for eta-shifted solution operators of linear
second-order periodic problems.

Certification is empirical (sampled boundaries, refinement doublings),
never rigorous.  Maps g take a stack of points (..., k) to the stack of
values, and sample sets go through g in blocks of STACK_BLOCK points.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .flows import IntegrationError

DEFAULT_EPS = 1e-6
NEWTON_TOL = 1e-9
JACOBIAN_DET_FLOOR = 1e-8
WINDING_ROUND_GUARD = 0.01
MAX_WINDING_DOUBLINGS = 20
STACK_BLOCK = 64  # points per stacked call of g: bounds the memory one call holds


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

def brouwer_1d(g: Callable[[float], float], interval, eps: float = DEFAULT_EPS) -> DegreeResult:
    a, b = float(interval[0]), float(interval[1])
    ga = float(np.asarray(g(a)).reshape(()))
    gb = float(np.asarray(g(b)).reshape(()))
    margin = min(abs(ga), abs(gb))
    deg = int((np.sign(gb) - np.sign(ga)) // 2)
    return DegreeResult(degree=deg, method="sign_1d", min_boundary_norm=margin,
                        refinement_levels=0, certified=margin >= eps)


# ---------------------------------------------------------------------------
# 2-d: winding number
# ---------------------------------------------------------------------------

def brouwer_2d_winding(g: Callable, box: DomainSpec, eps: float = DEFAULT_EPS) -> DegreeResult:
    """Degree of g over a 2-d box by the winding number along its boundary.

    Sampling doubles until every per-segment angle increment is below pi/2.
    """
    b = box.as_box()
    if b.shape[0] != 2:
        raise ValueError(f"brouwer_2d_winding needs a 2-d box, got dimension {b.shape[0]}")
    (x0, x1), (y0, y1) = b
    corners = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]])

    n = 64
    for level in range(MAX_WINDING_DOUBLINGS + 1):
        s = np.arange(n) / n * 4.0
        seg = np.minimum(s.astype(int), 3)
        pts = corners[seg] + (s - seg)[:, None] * (corners[seg + 1] - corners[seg])
        vals = _map_rows(g, pts)
        margin = float(np.min(np.max(np.abs(vals), axis=1)))
        z = vals[:, 0] + 1j * vals[:, 1]
        ratios = np.roll(z, -1) / z
        incs = np.angle(ratios)
        if np.max(np.abs(incs)) < np.pi / 2:
            total = float(np.sum(incs))
            winding = total / (2 * np.pi)
            deg = int(round(winding))
            certified = (abs(winding - deg) < WINDING_ROUND_GUARD
                         and margin >= eps)
            return DegreeResult(degree=deg, method="winding_2d",
                                min_boundary_norm=margin,
                                refinement_levels=level, certified=certified)
        n *= 2
    return DegreeResult(degree=0, method="winding_2d", min_boundary_norm=0.0,
                        refinement_levels=MAX_WINDING_DOUBLINGS, certified=False)


# ---------------------------------------------------------------------------
# n-d: regular-value Jacobian-sign sum
# ---------------------------------------------------------------------------

def _map_rows(g: Callable, X: np.ndarray) -> np.ndarray:
    """g over the rows of X, STACK_BLOCK rows per call."""
    return np.concatenate([np.asarray(g(X[i:i + STACK_BLOCK]), dtype=float)
                           for i in range(0, len(X), STACK_BLOCK)])


def fd_jacobian(g: Callable, x: np.ndarray, scale=1e-5) -> np.ndarray:
    """Central finite-difference Jacobian with step scale * (1 + |x_i|).

    A stack of points (S, k) gives the stack of Jacobians (S, out, k), all
    2kS points in stacked calls of g; ``scale`` may then be an (S, 1) array.
    """
    x = np.asarray(x, dtype=float)
    X = np.atleast_2d(x)
    S, k = X.shape
    h = scale * (1.0 + np.abs(X))
    E = h[:, :, None] * np.eye(k)
    gx = _map_rows(g, np.concatenate([X[:, None] + E, X[:, None] - E], axis=1)
                   .reshape(-1, k)).reshape(S, 2 * k, -1)
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


def _newton(g: Callable, X0: np.ndarray, tol: float, max_iter: int = 60,
            scale: float = 1e-5):
    """Damped Newton on g with a central-difference Jacobian of step ``scale``
    from each row of X0, all live starts in lock step (stacked g, Jacobian and
    solve).  Returns the iterates and which converged, each row as a Newton
    run from that start alone would end."""
    X = np.array(X0, dtype=float)
    G = _safe_rows(g, X)
    live = np.all(np.isfinite(G), axis=1)
    ok = np.zeros(len(X), dtype=bool)
    for _ in range(max_iter):
        nrm = np.max(np.abs(G), axis=1)
        ok |= live & (nrm <= tol)
        live &= nrm > tol
        idx = np.flatnonzero(live)
        if not idx.size:
            break
        step, has = _newton_steps(g, X[idx], G[idx], scale)
        live[idx[~has]] = False
        idx, step = idx[has], step[has]
        s = 1.0
        for _ in range(8):
            if not idx.size:
                break
            Xn = X[idx] - s * step
            Gn = _safe_rows(g, Xn)
            better = np.all(np.isfinite(Gn), axis=1) & (np.max(np.abs(Gn), axis=1) < nrm[idx])
            X[idx[better]], G[idx[better]] = Xn[better], Gn[better]
            idx, step = idx[~better], step[~better]
            s *= 0.5
        live[idx] = False
    return X, ok | (live & (np.max(np.abs(G), axis=1) <= tol))


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


def _boundary_samples(box: np.ndarray, per_axis: int, level: int) -> np.ndarray:
    """Face samples at the given refinement level, budget-capped in k."""
    k = box.shape[0]
    per = per_axis + level * (per_axis - 1)  # doubling-style refinement
    if 2 * k * per ** (k - 1) <= 20000:
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


def _multistart_zeros(g: Callable, dom: DomainSpec, tol: float):
    """Zeros of g by Newton from the multistart seeds of the domain's box: the
    converged starts inside the domain, clustered at radius 10 tol, and the
    number of starts that failed."""
    X, ok = _newton(g, _multistart_seeds(dom.as_box()), tol)
    zeros: list[np.ndarray] = []
    for z in X[ok]:
        if dom.contains(z) and all(np.max(np.abs(z - z0)) > 10 * tol for z0 in zeros):
            zeros.append(z)
    return zeros, int(np.sum(~ok))


def brouwer_nd_regular(g: Callable, box, eps: float = DEFAULT_EPS,
                       boundary_per_axis: int = 9) -> DegreeResult:
    """Degree via multistart Newton zeros and Jacobian determinant signs."""
    dom = box if isinstance(box, DomainSpec) else box_domain(box)
    b = dom.as_box()

    # empirical boundary margin, one refinement doubling for stability
    margin = np.inf
    levels = 0
    for level in (0, 1):
        samples = _boundary_samples(b, boundary_per_axis, level)
        vals = np.max(np.abs(_map_rows(g, samples)), axis=-1)
        margin = min(margin, float(np.min(vals)))
        levels += 1

    zeros, fails = _multistart_zeros(g, dom, NEWTON_TOL)
    starts = len(_multistart_seeds(b))
    if fails > 0.5 * starts:
        warnings.warn(f"Newton failed from {fails}/{starts} seeds", RuntimeWarning)

    deg, certified = 0, margin >= eps
    if zeros:
        dets = np.linalg.det(fd_jacobian(g, np.asarray(zeros)))
        small = np.abs(dets) < JACOBIAN_DET_FLOOR
        deg = int(np.sum(np.where(dets[~small] > 0, 1, -1)))
        certified = certified and not small.any()
    return DegreeResult(degree=deg, method="jacobian_sum",
                        min_boundary_norm=margin, refinement_levels=levels,
                        certified=certified,
                        zeros=tuple(tuple(z) for z in zeros))


def defect(F: Callable) -> Callable:
    """The map v -> v - F(v), whose zeros are the fixed points of F."""
    return lambda v: np.atleast_1d(v) - np.atleast_1d(
        np.asarray(F(np.atleast_1d(v)), dtype=float))


def fixed_point_degree(F: Callable, box, eps: float = DEFAULT_EPS) -> DegreeResult:
    """Brouwer degree of I - F over a box in R^k: endpoint signs for k = 1,
    multistart Jacobian-sign sums otherwise."""
    dom = box if isinstance(box, DomainSpec) else box_domain(box)
    g = defect(F)
    if dom.dim == 1:
        return brouwer_1d(lambda t: g(np.array([t]))[0], dom.as_box()[0], eps=eps)
    return brouwer_nd_regular(g, dom, eps=eps)


# ---------------------------------------------------------------------------
# Finite-rank reduction
# ---------------------------------------------------------------------------

def finite_rank_reduce(h, U_finite: DomainSpec, r: float | None = None,
                       eps: float = DEFAULT_EPS) -> DegreeResult:
    """Degree of I - h over the pullback of U_finite, via the reduced map.

    ``h`` must carry a Reduction witness h = i o F o pi with pi o i = id;
    the Leray-Schauder degree of I - h over pi^{-1}(U) cap B(0, r) equals
    the Brouwer degree of I - F over U for any r beyond the image bound.
    """
    red = getattr(h, "reduction", None)
    if red is None:
        raise ValueError(f"operator {getattr(h, 'name', h)!r} carries no "
                         "finite-rank reduction witness")
    # structural check pi o i = id on a probe basis
    for p in np.eye(red.k):
        back = np.atleast_1d(np.asarray(red.pi(red.i(p)), dtype=float))
        if np.max(np.abs(back - p)) > 1e-10:
            raise ValueError("reduction witness fails pi o i = id on probes")

    inner = fixed_point_degree(red.finite_map, U_finite, eps=eps)
    params = dict(inner.params)
    params.update({"r": r, "inner_method": inner.method})
    return DegreeResult(degree=inner.degree, method="finite_rank_reduction",
                        min_boundary_norm=inner.min_boundary_norm,
                        refinement_levels=inner.refinement_levels,
                        certified=inner.certified, zeros=inner.zeros,
                        params=params)


# ---------------------------------------------------------------------------
# Fourier block signs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierBlockSigns:
    block_signs: tuple  # ((k, sign), ...) for non-skipped blocks
    overall_sign: int
    skipped: tuple


def fourier_block_signs(A, eta: float, n_max: int = 16,
                        collision_tol: float = 1e-9) -> FourierBlockSigns:
    """Signs of the Fourier-mode blocks of I - K^eta for u'' = A u.

    The zero mode contributes sgn det(I - A/eta); mode k contributes the
    determinant sign of the doubled block (eta*I - A) / (eta - k^2), which
    is positive whenever the block is nonsingular.  Modes whose denominator
    eta - k^2 vanishes are skipped and reported.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("A must be square")
    if abs(eta) < collision_tol:
        raise CollisionError("eta = 0 is singular for the zero mode")

    det0 = float(np.linalg.det(np.eye(n) - A / eta))
    if abs(det0) < collision_tol:
        raise CollisionError("I - A/eta is singular")
    overall = 1 if det0 > 0 else -1

    num_det = float(np.linalg.det(eta * np.eye(n) - A))
    signs = []
    skipped = []
    for k in range(1, n_max + 1):
        denom = eta - k * k
        if abs(denom) < collision_tol:
            skipped.append(k)
            continue
        d = num_det / denom ** n
        if abs(d) < collision_tol:
            raise CollisionError(f"block {k} is singular (eta*I - A degenerate)")
        signs.append((k, 1))  # doubled block determinant is d^2 > 0
    return FourierBlockSigns(block_signs=tuple(signs), overall_sign=overall,
                             skipped=tuple(skipped))
