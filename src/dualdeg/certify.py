"""Verification pipelines: fixed-point solving, common-core checks,
homotopy admissibility certificates and the duality verdicts.

Each verdict compares two degree computations: the function-space side,
evaluated by certifying a homotopy chain down to a conjugate operator with
a finite-rank reduction witness, and the finite side, evaluated directly
by a Brouwer engine.  ``PAIR_TABLE`` says how each pair is decided, read by
``plan_duality`` under the one verdict rule, and ``KIND_TABLE`` which pairs each
problem kind runs.  Boundary sampling uses a fixed seed: pipelines are deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable

import numpy as np

from . import degree as deg_mod
from . import flows, operators
from .degree import DegreeResult, DomainSpec, box_domain, brouwer_1d, \
    fd_jacobian, fixed_point_degree
# unused here: kept as the certify.brouwer_nd_regular binding that perfbench's
# tracer patches and restores
from .degree import brouwer_nd_regular  # noqa: F401
from .gridfn import GridFunction, constant
from .operators import C1Function, OperatorHandle

DEFAULT_SEED = 0x4B52
FINITE_FP_TOL = 1e-8
CORE_CLEARANCE_EPS = 1e-3
# the schedule of ``certify_homotopies``, read at call time
LAMBDA_STEPS = 9
BOUNDARY_SAMPLES = 16
MAX_DOUBLINGS = 4


# ---------------------------------------------------------------------------
# Domains in the discretized function space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionBall:
    """Sup-norm ball in the discretized function space (center 0 if None)."""

    radius: float
    center: object = None

    def clearance(self, x) -> float:
        return self.radius - (x if self.center is None else x - self.center).sup_norm()


# ---------------------------------------------------------------------------
# Flatten / unflatten between handle spaces and vectors
# ---------------------------------------------------------------------------

def _flat(v: np.ndarray) -> np.ndarray:
    return v.reshape(v.shape[:-2] + (-1,)).copy()


def _flatten(x) -> np.ndarray:
    """Vector (..., N) of a handle-space element or stack of elements."""
    if isinstance(x, GridFunction):
        return _flat(x.values)
    if isinstance(x, C1Function):
        return np.concatenate([_flat(x.values.values), x.deriv0], axis=-1)
    return np.atleast_1d(np.asarray(x, dtype=float))


def _unflattener(h: OperatorHandle):
    problem = h.problem
    if h.space == operators.GRID_SPACE:
        grid = problem.grid()
        n = problem.field().dim
        return lambda v: GridFunction(grid, v.reshape(v.shape[:-1] + (grid.m + 1, n)))
    if h.space == operators.C1_SPACE:
        grid = problem.grid()
        n = problem.field().dim
        return lambda v: C1Function(
            GridFunction(grid, v[..., :-n].reshape(v.shape[:-1] + (grid.m + 1, n))),
            v[..., -n:])
    return lambda v: v


# ---------------------------------------------------------------------------
# Fixed points
# ---------------------------------------------------------------------------

def find_fixed_points(h: OperatorHandle, domain) -> list:
    """Fixed points of the operator inside the domain.

    Finite handles: multistart Newton on x - h(x), a fresh ``degree._Finite``
    search on a fresh row memo (``degree._held``).
    Grid-space handles: damped Picard from 0, then Newton on the flattened
    discrete residual, read as the finite search reads its map
    (``degree._safe_rows``): a row that blows up reads inf.  Returns clustered
    points; an empty list when nothing converges.
    """
    if h.space == operators.FINITE_SPACE:
        F = deg_mod._Finite(deg_mod._held(h.apply_fn, {}), FINITE_FP_TOL)
        dom = domain if isinstance(domain, DomainSpec) else box_domain(domain)
        return F.zeros(dom, FINITE_FP_TOL)[0]

    unflat = _unflattener(h)
    res = lambda v: v - _flatten(h.apply_fn(unflat(v)))
    n = h.problem.field().dim
    v = np.zeros((h.problem.grid().m + 1) * n
                 + (n if h.space == operators.C1_SPACE else 0))
    # damped Picard to get into the Newton basin
    for _ in range(200):
        r = deg_mod._safe_rows(res, v[None])[0]
        if np.max(np.abs(r)) < 1e-3:
            break
        v = v - 0.5 * r
        if not np.all(np.isfinite(v)):
            return []
    [(v, ok)] = deg_mod._newton_runs(res, v[None], (1e-10,), max_iter=30, scale=1e-6)
    if not ok[0]:
        return []
    x = unflat(v[0])
    if isinstance(domain, FunctionBall) and domain.clearance(x) <= 0:
        return []
    return [x]


# ---------------------------------------------------------------------------
# Common core
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommonCoreReport:
    boundary_clearances: tuple
    matched_pairs: tuple
    verdict: bool
    diagnostics: tuple = ()


@dataclass(frozen=True)
class KindRow:
    """What a problem kind is and runs; ``KIND_TABLE`` holds one row per kind."""

    field_kind: str  # the flows kind of its vector field
    finite: str  # the finite handle whose fixed points the common core checks
    duality: tuple  # the pairs of the duality suite
    signs: str | None  # the pair of the signs suite
    etas: tuple  # and its default etas
    chain: tuple  # the operator suite's homotopy pairs, each with Ktilde's degree
    residuals: tuple  # or the operators whose residuals it takes at the first's fixed points


# the periodic kinds share field kind, finite handle, duality pairs and operator chain
_PERIODIC = (flows.NONDELAY, "K2", ("krasnoselskii", "inverse_poincare"))
_CHAIN = (("K", "Kgamma"), ("K4", "K3"), ("K3", "K5"))
KIND_TABLE = {
    "periodic_ode": KindRow(*_PERIODIC, "eta_sign", (1.0, -1.0), _CHAIN, ()),
    "dirichlet_bvp": KindRow(flows.SECOND_ORDER, "Kdir2", ("dirichlet_shooting",), None, (),
                             (), ("Kdir", "Kdir1")),
    "periodic_dde": KindRow(flows.DELAY, "Kdelay2", ("delay",), None, (),
                            (), ("K6", "K7", "K8")),
    "nonlocal_1d": KindRow(*_PERIODIC, "nonlocal_signs", (0.5, -1.0), _CHAIN, ()),
}


def _member(x, i: int):
    """Member i of a stack of grid or C1 functions."""
    if isinstance(x, C1Function):
        return C1Function(_member(x.values, i), x.deriv0[i])
    return GridFunction(x.grid, x.values[i])


def _finite_clearance(v: np.ndarray, dom: DomainSpec) -> float:
    b = dom.as_box()
    v = np.atleast_1d(np.asarray(v, dtype=float))
    return float(np.min(np.minimum(v - b[:, 0], b[:, 1] - v)))


def check_common_core(problem, U1: FunctionBall, U2: DomainSpec,
                      _finite: "_FiniteSide | None" = None) -> CommonCoreReport:
    """Verify that the two domains isolate the same solution set.

    Finds the finite handle's fixed points, lifts them by the solution map of
    the handle's own problem (``operators.solution``, the delay's history-node
    one, in a run read from what the search integrated), and fails a boundary
    clearance below CORE_CLEARANCE_EPS on either side.  Zeros with
    near-singular linearizations are degenerate (non-isolated): the verdict is
    false, with one diagnostic that counts them.  The search (``_Finite.zeros``)
    and Jacobians are ``_finite``'s, else made afresh, on a run copy
    (``operators.run_copy``) if the problem has no run memo.
    """
    if getattr(problem, "_solutions", None) is None:
        problem = operators.run_copy(problem, problem.m)
    fin = operators.build_finite(KIND_TABLE[problem.kind].finite, problem)
    F = (_finite or _FiniteSide()).map(fin)
    fps = F.zeros(U2, FINITE_FP_TOL)[0]
    diagnostics: list[str] = []
    if not fps:
        return CommonCoreReport((0.0, 0.0), (), False,
                                ("no fixed points found in U2",))

    pairs, clear1, clear2, verdict = [], np.inf, np.inf, True
    dets = np.linalg.det(F.jacobian(np.asarray(fps)))
    degenerate = int(np.sum(np.abs(dets) < deg_mod.JACOBIAN_DET_FLOOR))
    if degenerate:
        diagnostics.append(f"degenerate: {degenerate} of {len(fps)} fixed points non-isolated")
        verdict = False
    trajs = operators.solution(fin.problem)(np.asarray(fps))  # no sweep in a run, else one
    for i, v in enumerate(fps):
        traj = _member(trajs, i)
        c1 = U1.clearance(traj)
        c2 = _finite_clearance(v, U2)
        clear1 = min(clear1, c1)
        clear2 = min(clear2, c2)
        pairs.append({"finite": tuple(np.atleast_1d(v)),
                      "grid_sup_norm": traj.sup_norm(),
                      "in_U1": c1 > 0, "in_U2": c2 > 0})
    if min(clear1, clear2) < CORE_CLEARANCE_EPS:
        verdict = False
        diagnostics.append(f"boundary clearance {min(clear1, clear2):.3e} "
                           f"below eps={CORE_CLEARANCE_EPS:.1e}")
    return CommonCoreReport((float(clear1), float(clear2)), tuple(pairs),
                            verdict, tuple(diagnostics))


# ---------------------------------------------------------------------------
# Homotopy admissibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomotopyCertificate:
    pair: tuple
    lambda_grid: tuple
    min_residual: float
    refinements: int
    admissible: bool
    stable: bool = True
    residual_curve: tuple = ()  # per-lambda boundary minimum, finest level


def admissibility_eps(problem) -> float:
    """10x the estimated operator-application error (trapezoid, order h^2)."""
    return 10.0 * problem.grid().h ** 2


def _random_directions(problem, count: int, seed: int, vanish_at_end: bool):
    """Values (count, m+1, n) of smooth random unit-sup-norm grid functions,
    optionally zero at t=T, and the draw index of each: draws of sup norm 0 go.
    A draw is the same for every count that holds it (``default_rng`` fills in
    C order)."""
    grid = problem.grid()
    n = problem.field().dim
    T = grid.length
    t = grid.nodes[:, None]
    # per direction, in draw order: a1, b1, a2, b2, a3, b3, c
    coef = np.random.default_rng(seed).standard_normal((count, 7, n))[:, :, None, :]
    vals = np.zeros((count, grid.m + 1, n))
    for j in range(1, 4):
        vals += coef[:, 2 * j - 2] * np.cos(2 * np.pi * j * (t - grid.a) / T) \
            + coef[:, 2 * j - 1] * np.sin(2 * np.pi * j * (t - grid.a) / T)
    vals += coef[:, 6]
    if vanish_at_end:
        vals = vals * np.sin(np.pi * (t - grid.a) / T)
    nrm = np.max(np.abs(vals), axis=(1, 2))
    drawn = np.flatnonzero(nrm)
    return vals[drawn] / nrm[drawn, None, None], drawn


def _face_lattice(dom: DomainSpec, count: int):
    """The finite box of ``dom`` and the lattice points per axis on its faces
    for a sample count."""
    b = (dom.finite if dom.kind == "pullback" else dom).as_box()
    per = max(2, int(round(count ** (1.0 / max(b.shape[0] - 1, 1)))))
    return b, (min(per, 24) if dom.kind == "pullback" else per)


def _shares_pass(dom, count: int, more: int) -> bool:
    """Whether the boundary samples for ``count`` are the first rows of those for
    ``more``, told by the domain kind and resolution: on a ball always; on a
    lattice when the lattice points per face agree (1 on an interval)."""
    if isinstance(dom, FunctionBall):
        return True
    (b, per), (_, more_per) = _face_lattice(dom, count), _face_lattice(dom, more)
    return per ** (b.shape[0] - 1) == more_per ** (b.shape[0] - 1)


def _pullback_boundary_samples(problem, dom: DomainSpec, count: int, seed: int):
    """Boundary of pi^{-1}(U) cap B(0, r), as grid-function values (S, m+1, n):
    finite-boundary points lifted by the right inverse i of the problem's
    Ktilde reduction, with tangential bumps, plus norm-r shell points."""
    r = dom.r
    b, per = _face_lattice(dom, count)
    red = operators.build("Ktilde", problem).reduction
    if b.shape[0] != red.k:
        raise ValueError(f"pullback box has dimension {b.shape[0]}, but the Ktilde "
                         f"reduction of {problem.pid} has k = {red.k}")
    lift = lambda u: red.i(u).values
    sup = lambda v: np.max(np.abs(v), axis=(-2, -1))
    # fixed bump pool across refinement levels: refining only refines the
    # finite-boundary lattice, so the boundary minimum is stable
    bumps = _random_directions(problem, 8, seed, vanish_at_end=True)[0]

    # each lifted point, then its four bumps where it has room inside the ball
    lifted = lift(deg_mod._boundary_lattice(b, per))
    room = r - sup(lifted)
    has_room = room > 0
    bumped = np.empty((len(lifted), 5) + lifted.shape[1:])
    bumped[:, 0] = lifted
    np.multiply((0.5 * room)[:, None, None, None], bumps[:4], out=bumped[:, 1:])
    bumped[:, 1:] += lifted[:, None]
    rows = bumped.reshape((-1,) + lifted.shape[1:])
    if not has_room.all():  # copied only then: a copy costs what the loop did
        rows = rows[((np.arange(5) == 0) | has_room[:, None]).ravel()]
    samples = [rows]
    # shell part: scale a bump until the sup norm hits r, every pair at once
    bases = lift(deg_mod._lattice_seeds(b, 2))
    bases = bases[sup(bases) < r]
    shell = bumps[4:6]
    base = np.repeat(bases, len(shell), axis=0)
    w = np.tile(shell, (len(bases), 1, 1))
    lo = np.zeros(len(base))
    hi = r + sup(base) + 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        inside = sup(base + mid[:, None, None] * w) < r
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    samples.append(base + hi[:, None, None] * w)
    return np.concatenate(samples)


def _domain_boundary_samples(hA: OperatorHandle, dom, counts, seed: int):
    """Boundary samples of the domain for the last of ``counts``, flattened (S, N) in
    the space of ``hA``, and per count the rows that its own samples are a prefix
    of.  A ball's are the constants e_0, -e_0, e_1, -e_1, ..., then the directions by
    draw index; the counts of a lattice's pass share a resolution (``_shares_pass``)."""
    problem = hA.problem
    if isinstance(dom, FunctionBall):
        n = problem.field().dim
        signed = np.stack([np.eye(n), -np.eye(n)], axis=1).reshape(2 * n, n)
        dirs, drawn = _random_directions(problem, counts[-1], seed, vanish_at_end=False)
        x = dom.radius * np.concatenate([constant(problem.grid(), signed).values, dirs])
        if dom.center is not None:
            x = dom.center.values + x
        x = x.reshape(len(x), -1)
        if hA.space == operators.C1_SPACE:
            x = np.concatenate([x, np.zeros((len(x), n))], axis=1)  # x'(0) = 0
        return x, (2 * n + np.searchsorted(drawn, counts)).tolist()
    if isinstance(dom, DomainSpec) and dom.kind == "pullback":
        if hA.space != operators.GRID_SPACE:
            raise ValueError(f"pullback boundary samples need grid-space operators, "
                             f"not {hA.space!r} ({hA.name})")
        x = _pullback_boundary_samples(problem, dom, counts[-1], seed)
        x = x.reshape(len(x), -1)
    elif isinstance(dom, DomainSpec):
        x = deg_mod._boundary_lattice(*_face_lattice(dom, counts[-1]))
    else:
        raise ValueError(f"unsupported homotopy domain {dom!r}")
    return x, [len(x)] * len(counts)


def _handle_key(h: OperatorHandle) -> tuple:
    """Handles with equal keys apply the same map."""
    return h.name, repr(sorted(h.params.items()))


def _score_pairs(curves, base, delta, lams, work) -> int:
    """Lower each pair's row of ``curves`` (pairs, lambdas) to the min over its block's
    rows of the max over entries of |base + lam delta|, base and delta (pairs, rows, N),
    bit for bit as scoring all would; ``work``: a flat scratch of as many floats.  On
    lam in [0, 1] an entry is at most the larger of its ends |b|, |b + d| (as at lam =
    1), rounding being monotone.  A row's max is at least that of its entries largest
    at lam = 0 and 1, scored exactly; a pair's new curve at most its old one and the
    exact max of its row with the smallest bound.  Rows whose lower bound exceeds that
    at every lambda go, and so do entries below their row's lowest lower bound."""
    P, R, N = base.shape
    pair, pos = np.arange(P)[:, None], np.arange(R)
    w = work[:base.size].reshape(base.shape)
    top0 = np.abs(base, out=w).argmax(axis=2)
    bound = w[pair, pos, top0]
    top1 = np.abs(np.add(base, delta, out=w), out=w).argmax(axis=2)
    bound = np.maximum(bound, w[pair, pos, top1])  # each row's largest entry bound

    def scored(b, d):  # per step of as many lambdas as work holds: |b + lam d|
        step = max(1, len(work) // b.size)
        for lo in range(0, len(lams), step):
            lam = lams[lo:lo + step, None]
            r = work[:len(lam) * b.size].reshape(len(lam), b.size)
            np.add(b.ravel(), np.multiply(d.ravel(), lam, out=r), out=r)
            yield slice(lo, lo + step), np.abs(r, out=r)

    best, high = bound.argmin(axis=1), curves.copy()
    for at, r in scored(base[pair[:, 0], best], delta[pair[:, 0], best]):
        np.minimum(high[:, at], r.reshape(len(r), P, N).max(axis=2).T, out=high[:, at])
    free = ~np.isfinite(bound).all(axis=1, keepdims=True)  # pairs that keep every entry
    reach = (pos == best[:, None]) | free
    floor = np.where(free, -np.inf, np.full((P, R), np.inf))
    two = np.stack([top0, top1])[:N]  # N = 1: one a row, to fit work
    for at, r in scored(base[pair, pos, two], delta[pair, pos, two]):
        r = r.reshape(len(r), len(two), P, R)
        low = np.maximum(r[:, 0], r[:, -1], out=r[:, 0])  # (lambdas, pairs, rows)
        reach |= ~(low > high[:, at].T[:, :, None]).all(axis=0)
        np.minimum(floor, low.min(axis=0), out=floor)
    b, d, floor = base[reach], delta[reach], floor[reach]
    keep = ~(np.maximum(np.abs(b + d), np.abs(b)) < floor[:, None])
    # each kept row's first entry, each pair's first kept row
    starts, firsts = (np.cumsum(n) - n for n in (keep.sum(axis=1), reach.sum(axis=1)))
    for at, r in scored(b[keep], d[keep]):
        maxima = np.maximum.reduceat(r, starts, axis=1)  # (lambdas, rows kept)
        np.minimum(curves[:, at], np.minimum.reduceat(maxima, firsts, axis=1).T,
                   out=curves[:, at])
    return P * N + two.size + int(keep.sum())


def _boundary_curves(pairs, samples: np.ndarray, unflat, lam_grids, ends) -> list:
    """Per pair, per lambda grid j: the boundary minimum over the first ``ends[j]``
    samples of |x - H_lam(x)| at each lambda.  A lifted handle (K1 or Kdelay1 = lift o
    mu o pi, ``factors``) maps mu over pi of all samples first, ``degree._stack_rows(k)``
    rows per call, so its flow runs once per pass; every other distinct handle maps
    each block of ``degree._stack_rows`` samples once, the block's one x, whose memo
    they share; in a run, Ktilde's K2 reads the alpha rows K1's flow stored.  An image
    is kept from its first pair to its last.  Segment j, rows ``ends[j - 1]`` to
    ``ends[j]``, has a curve of its own: each lambda of the grids' exact union is
    scored once per block segment and chunk of _stack_rows(rows * N) pairs
    (``_score_pairs``), and grid j's curve is the min of segments 0..j."""
    lams, where = np.unique(np.concatenate(lam_grids), return_inverse=True)
    keys = [(_handle_key(hA), _handle_key(hB)) for hA, hB in pairs]
    handles = {_handle_key(h): h for pair in pairs for h in pair}
    last = {key: i for i, pair_keys in enumerate(keys) for key in pair_keys}
    lifted = {key: deg_mod._map_rows(lambda c: h.factors[1](c).reshape(len(c), -1),
                                     h.factors[0](unflat(samples)))
              for key, h in handles.items() if h.factors is not None}
    curves = np.full((len(pairs), len(ends), len(lams)), np.inf)
    rows = min(deg_mod._stack_rows(samples.shape[1]), len(samples))
    chunk = min(deg_mod._stack_rows(rows * samples.shape[1]), len(pairs))
    scratch = np.empty((3, chunk * rows * samples.shape[1]))
    for lo in range(0, len(samples), rows):
        xs = samples[lo:lo + rows]
        segments = [(j, slice(max(start - lo, 0), end - lo))
                    for j, (start, end) in enumerate(zip([0] + ends[:-1], ends))
                    if start < min(end, lo + len(xs)) and end > lo]
        x, images = unflat(xs), {}
        for c in range(0, len(pairs), chunk):
            stop = min(c + chunk, len(pairs))
            base, delta = scratch[:2, :(stop - c) * xs.size].reshape((2, stop - c) + xs.shape)
            for p, i in enumerate(range(c, stop)):
                for key in keys[i]:
                    if key not in images:
                        images[key] = lifted[key][lo:lo + rows] if key in lifted \
                            else _flatten(handles[key].apply_fn(x))
                a, b = (images[key] for key in keys[i])
                # x - H_lam(x) = (x - b) + lam (b - a), componentwise
                np.subtract(xs, b, out=base[p])
                np.subtract(b, a, out=delta[p])
                images = {key: im for key, im in images.items() if last[key] > i}
            for j, at in segments:
                _score_pairs(curves[c:stop, j], base[:, at], delta[:, at], lams, scratch[2])
    levels = np.split(where, np.cumsum([len(grid) for grid in lam_grids])[:-1])
    return [[curve[idx] for curve, idx in zip(np.minimum.accumulate(segs), levels)]
            for segs in curves]


def certify_homotopies(pairs, domain, seed: int = DEFAULT_SEED) -> list[HomotopyCertificate]:
    """Empirical admissibility of H_lam = lam*A + (1-lam)*B over the domain,
    for every pair (A, B) of handles of one problem and one space.

    Level L <= MAX_DOUBLINGS has (LAMBDA_STEPS - 1) 2^L + 1 lambdas and
    BOUNDARY_SAMPLES 2^L samples.  A pair stops once its running minimum
    boundary residual changes by < 20% after at least two doublings; it is
    admissible iff it stopped and that minimum clears ``admissibility_eps``.
    The pairs refine in lock step: a pass builds one level's samples and
    applies each distinct handle of the pairs still refining once per block
    of at most ``degree.STACK_FLOATS`` sample floats.  Levels up to 2, where
    no pair can stop yet, join the pass of the level before when their
    samples hold its samples as their first rows (``_shares_pass``: on a ball
    always, on a lattice at one resolution); the pass builds and maps only its
    finest samples and scores each lambda of the levels' grid union once per
    segment.  In a run, pi of the later passes' samples up to level 2 (on a
    pullback, level 0's lattice is not that of levels 1-2) is queued on each
    lifted handle's alpha first (``operators.queue``): the first pass's flow
    maps it, and the later passes read the memo.  Each certificate equals the
    one its pair gets alone.
    """
    pairs = [tuple(p) for p in pairs]
    if not pairs:
        raise ValueError("pairs is empty: nothing to certify")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    handles = [h for pair in pairs for h in pair]
    spaces = sorted({h.space for h in handles})
    if len(spaces) > 1:
        raise ValueError(f"pairs mix spaces {spaces}: homotopy endpoints live "
                         f"in different spaces")
    problem = handles[0].problem
    if any(h.problem != problem for h in handles):
        raise ValueError("pairs mix problems: certify each problem's pairs "
                         "in its own call")
    eps = admissibility_eps(problem) if problem is not None else 1e-4
    unflat = _unflattener(handles[0])
    lam_grids = [np.linspace(0.0, 1.0, (LAMBDA_STEPS - 1) * 2 ** level + 1)
                 for level in range(MAX_DOUBLINGS + 1)]
    counts = [BOUNDARY_SAMPLES * 2 ** level for level in range(MAX_DOUBLINGS + 1)]
    history = [[] for _ in pairs]
    finest = [None] * len(pairs)  # (lambdas, curve) of the last level run
    stable = [False] * len(pairs)

    spans, level = [], 0  # the levels each pass serves
    while level <= MAX_DOUBLINGS:
        spans.append([level])
        while spans[-1][-1] < min(2, MAX_DOUBLINGS) and \
                _shares_pass(domain, counts[spans[-1][-1]], counts[spans[-1][-1] + 1]):
            spans[-1].append(spans[-1][-1] + 1)
        level = spans[-1][-1] + 1
    build = lambda span: _domain_boundary_samples(handles[0], domain,
                                                  [counts[lv] for lv in span], seed)
    # no pair stops before level 2, so the passes up to it all run: their samples
    # are built first, and their projections queued for the first pass's lifted flows
    sets = [build(span) if span[-1] <= 2 else None for span in spans]
    later = [x for x, _ in filter(None, sets[1:])]
    for h in {_handle_key(h): h for h in handles if later and h.factors is not None}.values():
        operators.queue(h.problem, h.factors[0](unflat(np.concatenate(later))))
    for p, span in enumerate(spans):
        live = [i for i, done in enumerate(stable) if not done]
        if not live:
            break
        samples, ends = sets[p] or build(span)
        sets[p] = None
        curves = _boundary_curves([pairs[i] for i in live], samples, unflat,
                                  [lam_grids[lv] for lv in span], ends)
        for i, pair_curves in zip(live, curves):
            hist = history[i]
            for lv, curve in zip(span, pair_curves):
                new = float(np.min(curve))
                hist.append(min(hist[-1], new) if hist else new)
                finest[i] = (lam_grids[lv], curve)
                if lv >= 2 and hist[-2] > 0 and abs(hist[-1] - hist[-2]) < 0.2 * hist[-2]:
                    stable[i] = True

    return [HomotopyCertificate(pair=(hA.name, hB.name),
                                lambda_grid=tuple(lams),
                                min_residual=hist[-1],
                                refinements=len(hist) - 1,
                                admissible=ok and hist[-1] >= eps, stable=ok,
                                residual_curve=tuple(curve))
            for (hA, hB), hist, (lams, curve), ok in zip(pairs, history, finest, stable)]


# ---------------------------------------------------------------------------
# Duality verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualityReport:
    name: str
    left: DegreeResult
    right: DegreeResult
    equal: bool
    route: str
    certificates: tuple = ()
    sign_factor: int = 1
    common_core: CommonCoreReport | None = None
    params: dict = dc_field(default_factory=dict)


def default_pullback(U2: DomainSpec) -> DomainSpec:
    """pi^{-1}(U2) cap B(0, r) with r = 2 (max |U2| + 1)."""
    return deg_mod.pullback_domain(U2, 2.0 * (float(np.max(np.abs(U2.as_box()))) + 1.0))


@dataclass(frozen=True)
class Plan:
    """A verdict in two parts: the homotopies (hA, hB, domain) its chain
    needs, and ``conclude(certificates, core, degree)``, which draws the
    verdict from their certificates, in the order of ``homotopies``, from the
    common core (None unless ``needs_core``) and from the run's shared finite
    side ``degree``: ``degree(h, domain)`` = deg(I - h, domain) (``_FiniteSide``).
    ``at_zero``, if given, is (h, rows): ``conclude`` reads the rows ``rows(Z)``
    of the finite handle h, inputs of its problem's alpha, at h's zeros Z."""

    name: str
    homotopies: tuple
    conclude: Callable
    needs_core: bool = False
    at_zero: tuple | None = None


class _FiniteSide:
    """The finite side of one problem's run, each computation once (and of
    `dualdeg degree`).  Called as ``degree(h, dom)`` it gives deg(I - F, U)
    over the box U (of a pullback), F = ``finite(h)``.
    ``map(F)`` is the run's ``degree._Finite`` of F: its Newton searches,
    margins and Jacobians, on the run memo of h's problem (a run copy); each
    Newton try queues there the rows ``at_zero`` names for F's key at its
    iterates inside the box.  A name and params fix a map in one run (Kdelay2's
    at any grid of the problem).  Its searches share one dict of box ``openings``."""

    def __init__(self, at_zero: dict | None = None):
        self._maps, self._degrees, self.openings, self._at_zero = {}, {}, {}, at_zero or {}

    def map(self, h: OperatorHandle) -> deg_mod._Finite:
        key = _handle_key(h)
        if key not in self._maps:
            rows = self._at_zero.get(key)
            hook = None if rows is None else lambda Z: operators.queue(h.problem, rows(Z))
            self._maps[key] = deg_mod._Finite(h.apply_fn, FINITE_FP_TOL, at_zero=hook,
                                              openings=self.openings)
        return self._maps[key]

    @staticmethod
    def finite(h: OperatorHandle) -> OperatorHandle:
        """F of ``degree(h, dom)``: h if h is finite, else the finite handle of
        h's reduction witness, checked (``degree._witness``)."""
        return h if h.space == operators.FINITE_SPACE else deg_mod._witness(h).finite

    def __call__(self, h: OperatorHandle, dom: DomainSpec) -> DegreeResult:
        U = dom.finite if dom.kind == "pullback" else dom
        fin = self.finite(h)
        key = (_handle_key(fin), U.as_box().tobytes())
        if key not in self._degrees:
            self._degrees[key] = fixed_point_degree(self.map(fin), U)
        return self._degrees[key] if fin is h else deg_mod._reduced(self._degrees[key], dom.r)


def _queue_core_opening(problem, plans, U2: DomainSpec, openings: dict) -> None:
    """Queue the rows the common core's search maps first (``degree._opening`` of
    U2) on the alpha of its finite handle, whose inputs they are, if a lifted handle
    of the plans' certificates reads that alpha, so its first flow maps them too;
    else the core's own call would come first under that key."""
    fin = operators.build_finite(KIND_TABLE[problem.kind].finite, problem)
    key = operators.alpha_key(fin.problem)
    if any(h.factors is not None and operators.alpha_key(h.problem) == key
           for plan in plans for hA, hB, _ in plan.homotopies for h in (hA, hB)):
        operators.queue(fin.problem, deg_mod._opening(U2.as_box(), openings)[0])


def run_plans(problem, plans, U1: FunctionBall, U2: DomainSpec,
              seed: int = DEFAULT_SEED, timings: dict | None = None) -> list:
    """The conclusions of the plans of one problem, in order.

    Every distinct homotopy is certified once; the pairs over one domain
    object go through one lock-step ``certify_homotopies`` call.  The common
    core over U1 and U2 is checked once, if any plan needs it, and each
    distinct finite degree, Newton search (per finite handle and box) and FD
    Jacobian (per finite handle and zero) once, kept for this call only
    (``_FiniteSide``, made first, each box's opening too); a search maps the rows
    a plan reads at its zeros (``Plan.at_zero``) with its Newton tries.  ``timings``,
    if given, receives the seconds of each stage and of each conclusion.  ``problem``
    is a run copy (``operators.run_copy``): before certifying, the common core's
    opening rows are queued on its memo (``_queue_core_opening``).
    """
    key = lambda hA, hB, dom: (id(dom), _handle_key(hA), _handle_key(hB))
    clock = time.perf_counter
    t0 = clock()
    degree = _FiniteSide({_handle_key(p.at_zero[0]): p.at_zero[1] for p in plans if p.at_zero})
    if any(p.needs_core for p in plans):
        _queue_core_opening(problem, plans, U2, degree.openings)
    by_domain: dict = {}  # id(domain) -> (domain, {key: pair}), first seen first
    for plan in plans:
        for hA, hB, dom in plan.homotopies:
            by_domain.setdefault(id(dom), (dom, {}))[1].setdefault(key(hA, hB, dom), (hA, hB))
    certs = {}
    for dom, pairs in by_domain.values():
        certs.update(zip(pairs, certify_homotopies(list(pairs.values()), dom, seed=seed)))
    t1 = clock()
    core = check_common_core(problem, U1, U2, _finite=degree) \
        if any(p.needs_core for p in plans) else None
    t2 = clock()
    out = []
    for plan in plans:
        t = clock()
        out.append(plan.conclude(tuple(certs[key(*h)] for h in plan.homotopies), core,
                                 degree))
        if timings is not None:
            timings[plan.name] = clock() - t
    if timings is not None:
        timings.update(homotopies=t1 - t0, common_core=t2 - t1)
    return out


@dataclass(frozen=True)
class PairRow:
    """How a duality pair is decided; its names index ``SIDES``, ``SIGNS``, ``EXTRAS``."""

    left: str
    right: str
    sign: str
    chain: tuple = ()  # links (A, B, the name of their domain)
    core: bool = False  # whether the verdict reads the common core
    extra: str | None = None


# by (pair, sign of eta) for eta_sign, whose chain, left side and sign change with it
PAIR_TABLE = {
    ("krasnoselskii", None): PairRow("reduced_Ktilde_pullback", "finite_K2_U2", "one", (
        ("K", "K1", "pullback"), ("K1", "Ktilde", "pullback")), True),
    ("eta_sign", 1): PairRow("copy_of_right", "reduced_Ktilde_pullback", "one", (
        ("Keta", "K3", "pullback"), ("K3", "K4", "pullback"), ("K4", "K", "pullback")), True),
    ("eta_sign", -1): PairRow("khat2_K2_U2", "reduced_Ktilde_pullback", "neg1_pow_n", (
        ("Keta", "Khat3", "pullback"), ("K3", "K4", "pullback"), ("K4", "K", "pullback")), True),
    ("inverse_poincare", None): PairRow("finite_KhatP_image_box", "finite_K2_U2", "neg1_pow_n"),
    ("dirichlet_shooting", None): PairRow("reduced_Ktilde_slope_block", "finite_Kdir2_U2", "one",
                                          (), True, "block_sign_identity"),
    ("delay", None): PairRow("reduced_Ktilde_history_U2", "finite_Kdelay2_U2", "one",
                             (("Kdelay", "Kdelay1", "U1"),), True, "monodromy_det_sign"),
    ("nonlocal_signs", None): PairRow("fourier_A_eta", "averaged_1d", "sgn_eta"),
}


def _image_box(degree, op, U2, params, **_) -> DegreeResult:
    """deg(I - KhatP) over the bounding box of P = K2 over U2's margin samples."""
    mapped = degree.map(op("K2")).edge(U2.as_box())
    img = box_domain(np.stack([mapped.min(axis=0), mapped.max(axis=0)], axis=1))
    params["image_box"] = img.as_box().tolist()
    return degree(op("KhatP"), img)


def _khat2(degree, op, problem, U2, **_) -> DegreeResult:
    """deg(I - Khat2, U2), Khat2(x0) = 2 x0 - P(x0), P the run's K2."""
    P = degree.map(op("K2"))
    return degree(OperatorHandle("Khat2", operators.FINITE_SPACE, lambda v: 2.0 * v - P(v),
                                 problem), U2)


def _fourier(problem, eta, **_) -> DegreeResult:
    """The overall Fourier block sign of I - K^eta for u'' = A u."""
    rep = deg_mod.fourier_block_signs(problem.linearization(), eta, n_max=16)
    return DegreeResult(degree=rep.overall_sign, method="fourier_blocks",
                        min_boundary_norm=np.inf, refinement_levels=0,
                        certified=all(sign == 1 for _, sign in rep.block_signs),
                        params={"skipped": list(rep.skipped)})


# A side or an extra check takes by name what it reads of: the run's finite side ``degree``,
# the plan's operators ``op(name)``, the problem, eta, U2, the pullback, the report's
# ``params`` and ``right``, the right side's result (None on that side).
SIDES = {
    "reduced_Ktilde_pullback": lambda degree, op, pullback, **_: degree(op("Ktilde"), pullback),
    "reduced_Ktilde_slope_block": lambda degree, op, problem, U2, **_: degree(
        op("Ktilde"), box_domain(U2.as_box()[:problem.field().dim])),
    # the coarse history-node problem's; its finite handle is Kdelay2, as on the right
    "reduced_Ktilde_history_U2": lambda degree, problem, U2, **_: degree(
        operators.build("Ktilde", problem.with_history_nodes()), U2),
    "finite_K2_U2": lambda degree, op, U2, **_: degree(op("K2"), U2),
    "finite_Kdir2_U2": lambda degree, op, U2, **_: degree(op("Kdir2"), U2),
    "finite_Kdelay2_U2": lambda degree, op, U2, **_: degree(op("Kdelay2"), U2),
    "finite_KhatP_image_box": _image_box,
    "khat2_K2_U2": _khat2,
    "copy_of_right": lambda right, **_: replace(right,
                                                params={"via": "chain Keta~K3~K4~K~reduction"}),
    "fourier_A_eta": _fourier,
    "averaged_1d": lambda problem, U2, **_: brouwer_1d(problem.averaged_field(), U2.as_box()[0]),
}
SIGNS = {"one": lambda n, eta: 1, "neg1_pow_n": lambda n, eta: (-1) ** n,  # n: field dimension
         "sgn_eta": lambda n, eta: 1 if eta > 0 else -1}


def _block_stencils(Z: np.ndarray) -> tuple:
    """Kdir2's zeros Z, each twice, their FD steps, and the rows the block check
    reads: Kdir2's stencil and the shooting map's, lifted as (a +- h, 0)."""
    Z, scale = np.repeat(Z, 2, axis=0), np.tile([[1e-5], [5e-6]], (len(Z), 1))
    a = deg_mod._stencil(Z[:, :Z.shape[1] // 2], scale)[0]
    return Z, scale, np.concatenate([deg_mod._stencil(Z, scale)[0],
                                     np.concatenate([a, np.zeros_like(a)], axis=-1)])


def _block_sign_identity(degree, op, params, right, **_) -> bool:
    """At each zero (a, b), sgn det of Kdir2's I - DF is that of the Jacobian of the
    shooting map S(a) = x(1), which reads alpha at (a, 0)."""
    ok = True
    if right.zeros:
        F = degree.map(op("Kdir2"))
        Z, scale, rows = _block_stencils(np.asarray(right.zeros))
        F.warm(rows)  # held if a Newton try found the zeros, else both in one call
        i = op("Ktilde").reduction.i
        shoot = lambda a: i(a).values.values[..., -1, :]
        d_full = np.sign(np.linalg.det(fd_jacobian(F.g, Z, scale=scale)))
        d_shoot = np.sign(np.linalg.det(fd_jacobian(shoot, Z[:, :Z.shape[1] // 2], scale=scale)))
        ok = bool(np.all(d_full == d_shoot))
    params["block_sign_identity"] = ok
    return ok


def _monodromy_det_sign(degree, op, params, right, **_) -> bool:
    """Reported, not checked: sgn det(I - DP) at the first zero, 0 with none."""
    F = degree.map(op("Kdelay2"))
    params["monodromy_det_sign"] = int(np.sign(np.linalg.det(F.jacobian(
        np.asarray(right.zeros[:1]))[0]))) if right.zeros else 0
    return True


EXTRAS = {"block_sign_identity": _block_sign_identity, "monodromy_det_sign": _monodromy_det_sign}


def plan_duality(problem, pair: str, U1: FunctionBall, U2: DomainSpec,
                 vr: DomainSpec, eta: float | None = None) -> Plan:
    """The plan of one named duality instance (see ``verify_duality``) from its
    ``PAIR_TABLE`` row, under the one verdict rule: equal iff left.degree = sign *
    right.degree, both sides are certified, the extra check holds, every chain
    certificate is admissible and, if the row reads it, the common core holds.  ``vr``
    is the pullback of U2.  A pair the problem's kind does not run (``KIND_TABLE``), an
    eta not finite, missing on its signs pair or given to another, raise ValueError."""
    kind = KIND_TABLE[problem.kind]
    runs = kind.duality + ((kind.signs,) if kind.signs else ())
    if eta is not None and not np.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta}")
    if pair not in runs:
        raise ValueError(f"unknown duality pair {pair!r} on a {problem.kind} problem, "
                         f"which runs {', '.join(runs)}")
    if (eta is None) == (pair == kind.signs):
        raise ValueError(f"{pair} pair needs eta" if eta is None else f"{pair} pair takes no eta")
    row = PAIR_TABLE.get((pair, None)) or PAIR_TABLE[pair, 1 if eta > 0 else -1]
    if any(dom == "U1" for *_, dom in row.chain) and not isinstance(U1, FunctionBall):
        raise ValueError(f"{pair} pair needs a sup-norm ball U1")
    built = {}  # each operator, built once
    op = lambda name: built[name] if name in built else built.setdefault(name, operators.build(
        name, problem, {"eta": eta} if name == "Keta" else None))
    where = dict(U1=U1, pullback=vr)
    homotopies = tuple((op(a), op(b), where[dom]) for a, b, dom in row.chain)
    sign = SIGNS[row.sign](problem.field().dim, eta)
    # the Kdir2 rows the block check reads at its zeros, mapped with its Newton tries
    at_zero = (op("Kdir2"), lambda Z: _block_stencils(Z)[2]) \
        if row.extra == "block_sign_identity" else None

    def conclude(certs, core, degree) -> DualityReport:
        reads = dict(degree=degree, op=op, problem=problem, eta=eta, U2=U2, pullback=vr,
                     params={} if eta is None else {"eta": eta})
        right = SIDES[row.right](**reads, right=None)  # first: a left side may read it
        left = SIDES[row.left](**reads, right=right)
        extra_ok = EXTRAS[row.extra](**reads, right=right) if row.extra else True
        equal = (left.degree == sign * right.degree and left.certified and right.certified
                 and extra_ok and all(c.admissible for c in certs)
                 and (not row.core or core.verdict))
        return DualityReport(pair, left, right, equal,
                             route="homotopy_chain" if homotopies else "independent",
                             certificates=certs, sign_factor=sign,
                             common_core=core if row.core else None, params=reads["params"])

    return Plan(pair if eta is None else f"{pair}[{float(eta)}]", homotopies, conclude,
                row.core, at_zero)


def verify_duality(problem, pair: str, U1: FunctionBall | None = None,
                   U2: DomainSpec | None = None, eta: float | None = None,
                   seed: int = DEFAULT_SEED) -> DualityReport:
    """Run one named duality instance and compare both degrees.  ``pair`` names
    rows of ``PAIR_TABLE``, the README's "How a verdict is decided" table.  Like
    ``problems.run``, it works on a run copy (``operators.run_copy``)."""
    problem = operators.run_copy(problem, problem.m)
    if U2 is None:
        U2 = problem.default_U2()
    if U1 is None:
        U1 = problem.default_U1()
    plan = plan_duality(problem, pair, U1, U2, default_pullback(U2), eta)
    return run_plans(problem, [plan], U1, U2, seed)[0]
