"""Verification pipelines: fixed-point solving, common-core checks,
homotopy admissibility certificates and the duality verdicts.

Each verdict compares two degree computations: the function-space side,
evaluated by certifying a homotopy chain down to a conjugate operator with
a finite-rank reduction witness, and the finite side, evaluated directly
by a Brouwer engine.  All boundary sampling uses a fixed seed so pipelines
are deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from . import degree as deg_mod
from . import flows, operators
from .degree import STACK_BLOCK, DegreeResult, DomainSpec, box_domain, brouwer_1d, \
    defect, fd_jacobian, finite_rank_reduce, fixed_point_degree
# unused here: kept as the certify.brouwer_nd_regular binding that perfbench's
# tracer patches and restores
from .degree import brouwer_nd_regular  # noqa: F401
from .gridfn import Grid, GridFunction, constant
from .operators import C1Function, OperatorHandle

DEFAULT_SEED = 0x4B52
FINITE_FP_TOL = 1e-8


# ---------------------------------------------------------------------------
# Domains in the discretized function space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionBall:
    """Sup-norm ball in the discretized function space (center 0 if None)."""

    radius: float
    center: object = None

    def clearance(self, x) -> float:
        if self.center is None:
            nrm = x.sup_norm()
        else:
            nrm = operators.sup_distance(x, self.center)
        return self.radius - nrm


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

    Finite handles: multistart Newton on x - h(x).  Grid-space handles:
    damped Picard from 0, then Newton on the flattened discrete residual.
    Returns clustered points; an empty list when nothing converges.
    """
    if h.space == operators.FINITE_SPACE:
        g = defect(h.apply_fn)
        dom = domain if isinstance(domain, DomainSpec) else box_domain(domain)
        return deg_mod._multistart_zeros(g, dom, FINITE_FP_TOL)[0]

    unflat = _unflattener(h)

    def res(v):
        try:
            return v - _flatten(h.apply_fn(unflat(v)))
        except (flows.IntegrationError, ValueError):
            if v.ndim > 1:  # a failed stack: only its failing rows read inf
                return np.stack([res(row) for row in v])
            return np.full_like(v, np.inf)

    n = h.problem.field().dim
    v = np.zeros((h.problem.grid().m + 1) * n
                 + (n if h.space == operators.C1_SPACE else 0))
    # damped Picard to get into the Newton basin
    for _ in range(200):
        r = res(v)
        if np.max(np.abs(r)) < 1e-3:
            break
        v = v - 0.5 * r
        if not np.all(np.isfinite(v)):
            return []
    v, ok = deg_mod._newton(res, v[None], 1e-10, max_iter=30, scale=1e-6)
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


def _finite_handle(problem) -> OperatorHandle:
    if problem.kind in operators.PERIODIC_KINDS:
        return operators.build_finite("K2", problem)
    if problem.kind == "dirichlet_bvp":
        return operators.build_finite("Kdir2", problem)
    if problem.kind == "periodic_dde":
        return operators.build_finite("Kdelay2", problem)
    raise ValueError(f"no finite side for problem kind {problem.kind!r}")


def _grid_representative(problem, v: np.ndarray):
    """alpha_1 of the solution with finite representative v."""
    f = problem.field()
    grid = problem.grid()
    if problem.kind in operators.PERIODIC_KINDS:
        return flows.mu_periodic(f, v, m=grid.m)
    if problem.kind == "dirichlet_bvp":
        n = f.dim
        return C1Function(flows.mu_dirichlet(f, v[:n], v[n:], m=grid.m), v[:n])
    if problem.kind == "periodic_dde":
        kernel = problem.kernel()
        v = np.atleast_1d(np.asarray(v, dtype=float))
        nodes = v.size // f.dim
        hg = Grid(-kernel.tau, 0.0, nodes - 1)
        hist = GridFunction(hg, v.reshape(nodes, f.dim))
        return flows.dde_flow(f, hist, f.period)
    raise ValueError(problem.kind)


def _finite_clearance(v: np.ndarray, dom: DomainSpec) -> float:
    b = dom.as_box()
    v = np.atleast_1d(np.asarray(v, dtype=float))
    return float(np.min(np.minimum(v - b[:, 0], b[:, 1] - v)))


def check_common_core(problem, U1: FunctionBall, U2: DomainSpec,
                      eps: float = 1e-3) -> CommonCoreReport:
    """Verify that the two domains isolate the same solution set.

    Finds the finite-side fixed points, maps each solution through both
    representations, and checks boundary clearance on both sides.  A
    near-singular linearization at a fixed point flags the degenerate
    (non-isolated) case and the verdict is false with a diagnostic.
    """
    fin = _finite_handle(problem)
    fps = find_fixed_points(fin, U2)
    diagnostics: list[str] = []
    if not fps:
        return CommonCoreReport((0.0, 0.0), (), False,
                                ("no fixed points found in U2",))

    g = defect(fin.apply_fn)
    pairs = []
    clear1 = np.inf
    clear2 = np.inf
    verdict = True
    dets = np.linalg.det(fd_jacobian(g, np.asarray(fps)))
    for v, det in zip(fps, dets):
        if abs(det) < 1e-8:
            diagnostics.append("degenerate: non-isolated fixed points")
            verdict = False
        traj = _grid_representative(problem, v)
        c1 = U1.clearance(traj)
        c2 = _finite_clearance(v, U2)
        clear1 = min(clear1, c1)
        clear2 = min(clear2, c2)
        pairs.append({"finite": tuple(np.atleast_1d(v)),
                      "grid_sup_norm": traj.sup_norm(),
                      "in_U1": c1 > 0, "in_U2": c2 > 0})
        if c1 <= 0 or c2 <= 0:
            verdict = False
    if min(clear1, clear2) < eps:
        verdict = False
        diagnostics.append(
            f"boundary clearance {min(clear1, clear2):.3e} below eps={eps:.1e}")
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


def admissibility_eps(problem, factor: float = 10.0) -> float:
    """10x the estimated operator-application error (trapezoid, order h^2)."""
    return factor * problem.grid().h ** 2


def _random_directions(problem, count: int, seed: int, vanish_at_end: bool):
    """Values (count, m+1, n) of smooth random unit-sup-norm grid functions,
    optionally zero at t=T."""
    grid = problem.grid()
    n = problem.field().dim
    T = grid.length
    t = grid.nodes[:, None]
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        vals = np.zeros((grid.m + 1, n))
        for j in range(1, 4):
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            vals += a * np.cos(2 * np.pi * j * (t - grid.a) / T) \
                + b * np.sin(2 * np.pi * j * (t - grid.a) / T)
        vals += rng.standard_normal(n)
        if vanish_at_end:
            vals = vals * np.sin(np.pi * (t - grid.a) / T)
        nrm = np.max(np.abs(vals))
        if nrm == 0:
            continue
        out.append(vals / nrm)
    return np.reshape(out, (-1, grid.m + 1, n))


def _face_lattice(dom: DomainSpec, count: int):
    """The finite box of ``dom`` and the lattice points per axis on its faces
    for a sample count."""
    b = (dom.finite if dom.kind == "pullback" else dom).as_box()
    per = max(2, int(round(count ** (1.0 / max(b.shape[0] - 1, 1)))))
    return b, (min(per, 24) if dom.kind == "pullback" else per)


def _sample_resolution(dom, count: int) -> int:
    """What the boundary samples for a count depend on besides the problem,
    the space and the seed: equal resolutions give equal sample arrays."""
    if isinstance(dom, FunctionBall):
        return count
    b, per = _face_lattice(dom, count)
    return per ** (b.shape[0] - 1)  # lattice points per face; 1 on an interval


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
    bumps = _random_directions(problem, 8, seed, vanish_at_end=True)

    samples = []
    lifted = lift(deg_mod._boundary_lattice(b, per))
    for base, norm in zip(lifted, sup(lifted)):
        samples.append(base)
        room = r - norm
        if room > 0:
            samples += [base + 0.5 * room * w for w in bumps[:4]]
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
    samples += list(base + hi[:, None, None] * w)
    return np.stack(samples)


def _domain_boundary_samples(hA: OperatorHandle, dom, count: int, seed: int):
    """Boundary samples of the domain, flattened (S, N) in the space of ``hA``."""
    problem = hA.problem
    if isinstance(dom, FunctionBall):
        n = problem.field().dim
        # random directions, then the constants e_0, -e_0, e_1, -e_1, ...
        signed = np.stack([np.eye(n), -np.eye(n)], axis=1).reshape(2 * n, n)
        dirs = np.concatenate([
            _random_directions(problem, count, seed, vanish_at_end=False),
            constant(problem.grid(), signed).values])
        x = dom.radius * dirs
        if dom.center is not None:
            x = dom.center.values + x
        x = x.reshape(len(x), -1)
        if hA.space == operators.C1_SPACE:
            x = np.concatenate([x, np.zeros((len(x), n))], axis=1)  # x'(0) = 0
        return x
    if isinstance(dom, DomainSpec) and dom.kind == "pullback":
        if hA.space != operators.GRID_SPACE:
            raise ValueError(f"pullback boundary samples need grid-space operators, "
                             f"not {hA.space!r} ({hA.name})")
        x = _pullback_boundary_samples(problem, dom, count, seed)
        return x.reshape(len(x), -1)
    if isinstance(dom, DomainSpec):
        return deg_mod._boundary_lattice(*_face_lattice(dom, count))
    raise ValueError(f"unsupported homotopy domain {dom!r}")


def _handle_key(h: OperatorHandle) -> tuple:
    """Handles with equal keys apply the same map."""
    return h.name, repr(sorted(h.params.items()))


def _boundary_curves(pairs, samples: np.ndarray, unflat, lam_grids) -> list:
    """Per pair, per lambda grid: the boundary minimum over the samples of
    |x - H_lam(x)| at each lambda.  Each block of STACK_BLOCK samples goes
    once through each distinct handle of the pairs."""
    handles = {_handle_key(h): h for pair in pairs for h in pair}
    curves = [[np.full(len(lams), np.inf) for lams in lam_grids] for _ in pairs]
    for lo in range(0, len(samples), STACK_BLOCK):
        xs = samples[lo:lo + STACK_BLOCK]
        x = unflat(xs)
        images = {key: _flatten(h.apply_fn(x)) for key, h in handles.items()}
        for (hA, hB), pair_curves in zip(pairs, curves):
            a, b = images[_handle_key(hA)], images[_handle_key(hB)]
            # x - H_lam(x) = (x - b) + lam (b - a), componentwise
            base, delta = xs - b, b - a
            for j, lams in enumerate(lam_grids):
                pair_curves[j] = np.minimum(
                    pair_curves[j],
                    [np.max(np.abs(base + lam * delta), axis=-1).min() for lam in lams])
    return curves


def certify_homotopies(pairs, domain, lambda_steps: int = 9,
                       boundary_samples: int = 16, eps: float | None = None,
                       seed: int = DEFAULT_SEED,
                       max_doublings: int = 4) -> list[HomotopyCertificate]:
    """Empirical admissibility of H_lam = lam*A + (1-lam)*B over the domain,
    for every pair (A, B) of handles of one problem and one space.

    Level L has (lambda_steps - 1) 2^L + 1 lambdas and boundary_samples 2^L
    samples.  A pair stops once its running minimum boundary residual
    changes by < 20% after at least two doublings; it is admissible iff it
    stopped and that minimum clears eps.  The pairs refine in lock step: a
    pass builds one level's samples and applies each distinct handle of the
    pairs still refining once per STACK_BLOCK block.  Levels up to 2, where no
    pair can stop yet, share a pass with the level before when their sample
    resolutions agree.  Each certificate equals the one its pair gets alone.
    """
    pairs = [tuple(p) for p in pairs]
    if not pairs:
        raise ValueError("pairs is empty: nothing to certify")
    if lambda_steps < 2:
        raise ValueError(f"lambda_steps must be at least 2, got {lambda_steps}: "
                         f"a single lambda checks only the endpoint B")
    if max_doublings < 0:
        raise ValueError(f"max_doublings must be at least 0, got {max_doublings}")
    handles = [h for pair in pairs for h in pair]
    spaces = sorted({h.space for h in handles})
    if len(spaces) > 1:
        raise ValueError(f"pairs mix spaces {spaces}: homotopy endpoints live "
                         f"in different spaces")
    problem = handles[0].problem
    if any(h.problem != problem for h in handles):
        raise ValueError("pairs mix problems: certify each problem's pairs "
                         "in its own call")
    if eps is None:
        eps = admissibility_eps(problem) if problem is not None else 1e-4
    unflat = _unflattener(handles[0])
    lam_grids = [np.linspace(0.0, 1.0, (lambda_steps - 1) * 2 ** level + 1)
                 for level in range(max_doublings + 1)]
    counts = [boundary_samples * 2 ** level for level in range(max_doublings + 1)]
    history = [[] for _ in pairs]
    finest = [None] * len(pairs)  # (lambdas, curve) of the last level run
    stable = [False] * len(pairs)

    level = 0
    while level <= max_doublings:
        live = [i for i, done in enumerate(stable) if not done]
        if not live:
            break
        samples = _domain_boundary_samples(handles[0], domain, counts[level], seed)
        span = [level]  # the levels this pass serves
        while span[-1] < min(2, max_doublings) and \
                _sample_resolution(domain, counts[span[-1] + 1]) == \
                _sample_resolution(domain, counts[level]):
            span.append(span[-1] + 1)
        curves = _boundary_curves([pairs[i] for i in live], samples, unflat,
                                  [lam_grids[lv] for lv in span])
        for i, pair_curves in zip(live, curves):
            hist = history[i]
            for lv, curve in zip(span, pair_curves):
                new = float(np.min(curve))
                hist.append(min(hist[-1], new) if hist else new)
                finest[i] = (lam_grids[lv], curve)
                if lv >= 2 and hist[-2] > 0 and abs(hist[-1] - hist[-2]) < 0.2 * hist[-2]:
                    stable[i] = True
        level = span[-1] + 1

    return [HomotopyCertificate(pair=(hA.name, hB.name),
                                lambda_grid=tuple(lams),
                                min_residual=hist[-1],
                                refinements=len(hist) - 1,
                                admissible=ok and hist[-1] >= eps, stable=ok,
                                residual_curve=tuple(curve))
            for (hA, hB), hist, (lams, curve), ok in zip(pairs, history, finest, stable)]


def certify_homotopy(hA: OperatorHandle, hB: OperatorHandle, domain,
                     lambda_steps: int = 9, boundary_samples: int = 16,
                     eps: float | None = None, seed: int = DEFAULT_SEED,
                     max_doublings: int = 4) -> HomotopyCertificate:
    """The certificate of one pair: see ``certify_homotopies``."""
    return certify_homotopies([(hA, hB)], domain, lambda_steps, boundary_samples,
                              eps, seed, max_doublings)[0]


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
    needs, and ``conclude(certificates, core)``, which draws the verdict from
    their certificates, in the order of ``homotopies``, and from the common
    core (None unless ``needs_core``)."""

    name: str
    homotopies: tuple
    conclude: Callable
    needs_core: bool = False


def run_plans(problem, plans, U1: FunctionBall, U2: DomainSpec,
              seed: int = DEFAULT_SEED, timings: dict | None = None) -> list:
    """The conclusions of the plans of one problem, in order.

    Every distinct homotopy is certified once; the pairs over one domain
    object go through one lock-step ``certify_homotopies`` call.  The common
    core over U1 and U2 is checked once, if any plan needs it.  ``timings``,
    if given, receives the seconds of each stage and of each conclusion.
    """
    key = lambda hA, hB, dom: (id(dom), _handle_key(hA), _handle_key(hB))
    clock = time.perf_counter
    t0 = clock()
    by_domain: dict = {}  # id(domain) -> (domain, {key: pair}), first seen first
    for plan in plans:
        for hA, hB, dom in plan.homotopies:
            by_domain.setdefault(id(dom), (dom, {}))[1].setdefault(key(hA, hB, dom), (hA, hB))
    certs = {}
    for dom, pairs in by_domain.values():
        certs.update(zip(pairs, certify_homotopies(list(pairs.values()), dom, seed=seed)))
    t1 = clock()
    core = check_common_core(problem, U1, U2) if any(p.needs_core for p in plans) else None
    t2 = clock()
    out = []
    for plan in plans:
        t = clock()
        out.append(plan.conclude(tuple(certs[key(*h)] for h in plan.homotopies), core))
        if timings is not None:
            timings[plan.name] = clock() - t
    if timings is not None:
        timings.update(homotopies=t1 - t0, common_core=t2 - t1)
    return out


def plan_duality(problem, pair: str, U1: FunctionBall, U2: DomainSpec,
                 vr: DomainSpec, eta: float | None = None) -> Plan:
    """The plan of one named duality instance (see ``verify_duality``); its
    chains run over ``vr``, the pullback of U2."""
    name = pair if eta is None else f"{pair}[{float(eta)}]"
    if pair == "krasnoselskii":
        return _plan_krasnoselskii(name, problem, U2, vr)
    if pair == "eta_sign":
        if eta is None:
            raise ValueError("eta_sign pair needs eta")
        return _plan_eta_sign(name, problem, U2, vr, eta)
    if pair == "inverse_poincare":
        return Plan(name, (), lambda certs, core: _verify_inverse_poincare(problem, U2))
    if pair == "dirichlet_shooting":
        return Plan(name, (), lambda certs, core: _verify_dirichlet(problem, U2, core),
                    needs_core=True)
    if pair == "delay":
        return _plan_delay(name, problem, U1, U2)
    if pair == "nonlocal_signs":
        if eta is None:
            raise ValueError("nonlocal_signs pair needs eta")
        return Plan(name, (), lambda certs, core: _verify_nonlocal_signs(problem, eta))
    raise ValueError(f"unknown duality pair {pair!r}")


def verify_duality(problem, pair: str, U1: FunctionBall | None = None,
                   U2: DomainSpec | None = None, eta: float | None = None,
                   seed: int = DEFAULT_SEED) -> DualityReport:
    """Run one named duality instance and compare both degrees.

    pair in {"krasnoselskii", "eta_sign", "inverse_poincare",
    "dirichlet_shooting", "delay", "nonlocal_signs"}.
    """
    if U2 is None:
        U2 = problem.default_U2()
    if U1 is None:
        U1 = problem.default_U1()
    plan = plan_duality(problem, pair, U1, U2, default_pullback(U2), eta)
    return run_plans(problem, [plan], U1, U2, seed)[0]


def _plan_krasnoselskii(name, problem, U2, vr) -> Plan:
    k_op = operators.build("K", problem)
    k1_op = operators.build("K1", problem)
    ktilde = operators.build("Ktilde", problem)

    def conclude(certs, core) -> DualityReport:
        left = finite_rank_reduce(ktilde, U2, r=vr.r)
        right = fixed_point_degree(operators.build_finite("K2", problem).apply_fn, U2)
        equal = (left.degree == right.degree and left.certified and right.certified
                 and all(c.admissible for c in certs)
                 and (core is None or core.verdict))
        return DualityReport("krasnoselskii", left, right, equal,
                             route="homotopy_chain", certificates=certs,
                             common_core=core)

    return Plan(name, ((k_op, k1_op, vr), (k1_op, ktilde, vr)), conclude,
                needs_core=True)


def _plan_eta_sign(name, problem, U2, vr, eta: float) -> Plan:
    n = problem.field().dim
    keta = operators.build("Keta", problem, {"eta": eta})
    k3 = operators.build("K3", problem)
    ktilde = operators.build("Ktilde", problem)
    # right side: deg(I - K3) via the paper's chain K3 ~ K4 ~ K and reduction;
    # the left side's chain starts at Keta ~ K3 (eta > 0) or Keta ~ Khat3
    k4 = operators.build("K4", problem)
    k_op = operators.build("K", problem)
    first = k3 if eta > 0 else operators.build("Khat3", problem)

    def conclude(certs, core) -> DualityReport:
        right = finite_rank_reduce(ktilde, U2, r=vr.r)
        if eta > 0:
            left = DegreeResult(degree=right.degree, method=right.method,
                                min_boundary_norm=right.min_boundary_norm,
                                refinement_levels=right.refinement_levels,
                                certified=right.certified, zeros=right.zeros,
                                params={"via": "chain Keta~K3~K4~K~reduction"})
        else:
            # hat chain bottoms out at K2hat(x0) = 2 x0 - P(x0)
            P = operators.build_finite("K2", problem).apply_fn
            left = fixed_point_degree(
                lambda v: 2.0 * v - np.asarray(P(v), dtype=float), U2)
        sign = 1 if eta > 0 else (-1) ** n
        equal = (left.degree == sign * right.degree
                 and left.certified and right.certified
                 and all(c.admissible for c in certs)
                 and (core is None or core.verdict))
        return DualityReport("eta_sign", left, right, equal,
                             route="homotopy_chain", certificates=certs,
                             sign_factor=sign, common_core=core,
                             params={"eta": eta})

    return Plan(name, ((keta, first, vr), (k3, k4, vr), (k4, k_op, vr)), conclude,
                needs_core=True)


def _verify_inverse_poincare(problem, U2) -> DualityReport:
    n = problem.field().dim
    fin = operators.build_finite("K2", problem)
    hatp = operators.build_finite("KhatP", problem)
    right = fixed_point_degree(fin.apply_fn, U2)
    # image domain P(U2): bounding box of the mapped boundary samples
    b = U2.as_box()
    mapped = deg_mod._map_rows(fin.apply_fn, deg_mod._boundary_lattice(b, 17))
    img = box_domain(np.stack([mapped.min(axis=0), mapped.max(axis=0)], axis=1))
    left = fixed_point_degree(hatp.apply_fn, img)
    sign = (-1) ** n
    equal = (left.degree == sign * right.degree
             and left.certified and right.certified)
    return DualityReport("inverse_poincare", left, right, equal,
                         route="independent", sign_factor=sign,
                         params={"image_box": img.as_box().tolist()})


def _verify_dirichlet(problem, U2, core) -> DualityReport:
    n = problem.field().dim
    ktilde = operators.build("Ktilde", problem)
    # phi(U2) is the slope block of the kernel-coordinate box
    phi_U2 = box_domain(U2.as_box()[:n])
    left = finite_rank_reduce(ktilde, phi_U2)
    kdir2 = operators.build_finite("Kdir2", problem)
    right = fixed_point_degree(kdir2.apply_fn, U2)
    # block-Jacobian sign identity at each finite fixed point
    block_ok = True
    gfull = defect(kdir2.apply_fn)
    shoot = lambda a: np.asarray(
        flows.shooting(problem.field(), np.atleast_1d(a), m=problem.grid().m))
    if right.zeros:
        Z = np.repeat(np.asarray(right.zeros), 2, axis=0)
        scale = np.tile([[1e-5], [5e-6]], (len(right.zeros), 1))
        d_full = np.sign(np.linalg.det(fd_jacobian(gfull, Z, scale=scale)))
        d_shoot = np.sign(np.linalg.det(fd_jacobian(shoot, Z[:, :n], scale=scale)))
        block_ok = bool(np.all(d_full == d_shoot))
    equal = (left.degree == right.degree and left.certified and right.certified
             and block_ok and (core is None or core.verdict))
    return DualityReport("dirichlet_shooting", left, right, equal,
                         route="independent", common_core=core,
                         params={"block_sign_identity": block_ok})


def _plan_delay(name, problem, U1, U2) -> Plan:
    coarse = problem.with_history_nodes()
    k_op = operators.build("Kdelay", problem)
    k1_op = operators.build("Kdelay1", problem)
    ktilde = operators.build("Ktilde", coarse)
    if not isinstance(U1, FunctionBall):
        raise ValueError("delay pair needs a sup-norm ball U1")

    def conclude(certs, core) -> DualityReport:
        left = finite_rank_reduce(ktilde, U2)
        fin = operators.build_finite("Kdelay2", problem)
        right = fixed_point_degree(fin.apply_fn, U2)
        # independent sign oracle: sgn det(I - DP) of the discrete monodromy at
        # the first history-space fixed point, by finite differences
        mono = 0
        if right.zeros:
            jac = fd_jacobian(defect(fin.apply_fn), np.asarray(right.zeros[0]))
            mono = int(np.sign(np.linalg.det(jac)))
        equal = (left.degree == right.degree and left.certified and right.certified
                 and all(c.admissible for c in certs)
                 and (core is None or core.verdict))
        return DualityReport("delay", left, right, equal, route="homotopy_chain",
                             certificates=certs, common_core=core,
                             params={"monodromy_det_sign": mono})

    return Plan(name, ((k_op, k1_op, U1),), conclude, needs_core=True)


def _verify_nonlocal_signs(problem, eta: float) -> DualityReport:
    """d = 1 nonlocal problem: Fourier overall sign vs the averaged field."""
    n = 1
    A = problem.linearization()
    rep = deg_mod.fourier_block_signs(A, eta, n_max=16)
    left = DegreeResult(degree=rep.overall_sign, method="fourier_blocks",
                        min_boundary_norm=np.inf, refinement_levels=0,
                        certified=all(s == 1 for _, s in rep.block_signs),
                        params={"skipped": list(rep.skipped)})
    # right: Brouwer degree of the averaged field phi(u) = -T * mean f(., u)
    phi = problem.averaged_field()
    iv = problem.default_U2().as_box()[0]
    right = brouwer_1d(phi, iv)
    sign = 1 if eta > 0 else (-1) ** n
    equal = left.degree == sign * right.degree and right.certified
    return DualityReport("nonlocal_signs", left, right, equal,
                         route="independent", sign_factor=sign,
                         params={"eta": eta})
