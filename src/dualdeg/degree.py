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

import itertools
import warnings
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .flows import IntegrationError

DEFAULT_EPS = 1e-6
NEWTON_TOL = 1e-9
CLUSTER_RADIUS = 10 * NEWTON_TOL
JACOBIAN_DET_FLOOR = 1e-8
WINDING_ROUND_GUARD = 0.01
MAX_WINDING_DOUBLINGS = 20
STACK_BLOCK = 64  # points per stacked call of g: bounds the memory one call holds


class CollisionError(ValueError):
    """eta collides with the spectrum relevant to a Fourier block."""


@dataclass(frozen=True)
class DomainSpec:
    """Bounded open set: box or sup-norm ball in R^k, or a pullback domain.

    A pullback domain realizes pi^{-1}(U) intersected with the sup-norm
    ball of radius r in the discretized function space, for a finite
    domain U and a boundary projector identified by ``projector``.
    """

    kind: str  # "box" | "ball" | "pullback"
    box: np.ndarray | None = None
    center: np.ndarray | None = None
    radius: float | None = None
    projector: str | None = None
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
        elif self.kind == "ball":
            c = np.atleast_1d(np.asarray(self.center, dtype=float))
            if not (self.radius and self.radius > 0):
                raise ValueError("ball needs radius > 0")
            object.__setattr__(self, "center", c)
        elif self.kind == "pullback":
            if self.finite is None or not (self.r and self.r > 0):
                raise ValueError("pullback needs a finite domain and r > 0")
        else:
            raise ValueError(f"unknown domain kind {self.kind!r}")

    @property
    def dim(self) -> int:
        if self.kind == "box":
            return self.box.shape[0]
        if self.kind == "ball":
            return self.center.shape[0]
        return self.finite.dim

    def as_box(self) -> np.ndarray:
        if self.kind == "box":
            return self.box
        if self.kind == "ball":
            return np.stack([self.center - self.radius,
                             self.center + self.radius], axis=1)
        raise ValueError("pullback domains have no finite box form")

    def contains(self, v) -> bool:
        b = self.as_box()
        v = np.atleast_1d(np.asarray(v, dtype=float))
        return bool(np.all(v > b[:, 0]) and np.all(v < b[:, 1]))


def box_domain(bounds) -> DomainSpec:
    return DomainSpec("box", box=np.asarray(bounds, dtype=float))


def ball_domain(center, radius: float) -> DomainSpec:
    return DomainSpec("ball", center=np.asarray(center, dtype=float), radius=radius)


def pullback_domain(projector: str, finite: DomainSpec, r: float) -> DomainSpec:
    return DomainSpec("pullback", projector=projector, finite=finite, r=r)


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

def _box_loop(box: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    (x0, x1), (y0, y1) = box
    corners = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]])

    def param(s: np.ndarray) -> np.ndarray:
        s = np.asarray(s) * 4.0
        seg = np.minimum(s.astype(int), 3)
        frac = s - seg
        return corners[seg] + frac[:, None] * (corners[seg + 1] - corners[seg])

    return param


def _polygon_loop(vertices: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    verts = np.asarray(vertices, dtype=float)
    if np.max(np.abs(verts[0] - verts[-1])) > 0:
        verts = np.vstack([verts, verts[0]])
    nseg = len(verts) - 1

    def param(s: np.ndarray) -> np.ndarray:
        s = np.asarray(s) * nseg
        seg = np.minimum(s.astype(int), nseg - 1)
        frac = s - seg
        return verts[seg] + frac[:, None] * (verts[seg + 1] - verts[seg])

    return param


def brouwer_2d_winding(g: Callable, boundary, eps: float = DEFAULT_EPS) -> DegreeResult:
    """Degree of g over the region enclosed by the boundary loop.

    ``boundary`` may be a box DomainSpec, an (N, 2) vertex array, or a
    parameterization callable s in [0, 1) -> R^2.  Sampling doubles until
    every per-segment angle increment is below pi/2.
    """
    if isinstance(boundary, DomainSpec):
        param = _box_loop(boundary.as_box())
    elif callable(boundary):
        param = lambda s: np.asarray([boundary(si) for si in s], dtype=float)
    else:
        param = _polygon_loop(boundary)

    n = 64
    for level in range(MAX_WINDING_DOUBLINGS + 1):
        s = np.arange(n) / n
        pts = param(s)
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


def fd_jacobian(g: Callable, x: np.ndarray, scale: float = 1e-5) -> np.ndarray:
    """Central finite-difference Jacobian with step scale * (1 + |x_i|)."""
    x = np.asarray(x, dtype=float)
    k = x.size
    h = scale * (1.0 + np.abs(x))
    e = np.diag(h)
    gx = _map_rows(g, np.concatenate([x + e, x - e]))
    return (gx[:k] - gx[k:]).T / (2 * h)


def _safe_eval(g: Callable, x: np.ndarray) -> np.ndarray:
    """g(x), with integration blow-ups mapped to non-finite residuals."""
    try:
        return np.atleast_1d(np.asarray(g(x), dtype=float))
    except IntegrationError:
        return np.full(np.atleast_1d(x).shape, np.inf)


def _newton(g: Callable, x0: np.ndarray, tol: float, max_iter: int = 60,
            scale: float = 1e-5):
    """Damped Newton on g with a central-difference Jacobian of step ``scale``."""
    x = np.asarray(x0, dtype=float).copy()
    gx = _safe_eval(g, x)
    if not np.all(np.isfinite(gx)):
        return x, False
    for _ in range(max_iter):
        nrm = np.max(np.abs(gx))
        if nrm <= tol:
            return x, True
        try:
            step = np.linalg.solve(fd_jacobian(g, x, scale=scale), gx)
        except (np.linalg.LinAlgError, IntegrationError):
            return x, False
        s = 1.0
        for _ in range(8):
            xn = x - s * step
            gn = _safe_eval(g, xn)
            if np.all(np.isfinite(gn)) and np.max(np.abs(gn)) < nrm:
                x, gx = xn, gn
                break
            s *= 0.5
        else:
            return x, False
    return x, bool(np.max(np.abs(gx)) <= tol)


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

    seeds = _multistart_seeds(b)
    zeros: list[np.ndarray] = []
    fails = 0
    for s in seeds:
        z, ok = _newton(g, s, NEWTON_TOL)
        if not ok:
            fails += 1
            continue
        if not dom.contains(z):
            continue
        if all(np.max(np.abs(z - z0)) > CLUSTER_RADIUS for z0 in zeros):
            zeros.append(z)
    if fails > 0.5 * len(seeds):
        warnings.warn(f"Newton failed from {fails}/{len(seeds)} seeds",
                      RuntimeWarning)

    deg = 0
    certified = margin >= eps
    for z in zeros:
        det = float(np.linalg.det(fd_jacobian(g, z)))
        if abs(det) < JACOBIAN_DET_FLOOR:
            certified = False
            continue
        deg += 1 if det > 0 else -1
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
