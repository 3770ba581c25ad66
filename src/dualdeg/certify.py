"""Verification pipelines: fixed-point solving, common-core checks,
homotopy admissibility certificates and the duality verdicts.

Each verdict compares two degree computations: the function-space side,
evaluated by certifying a homotopy chain down to a conjugate operator with
a finite-rank reduction witness, and the finite side, evaluated directly
by a Brouwer engine.  All boundary sampling uses a fixed seed so pipelines
are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

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
        found = []
        for s in deg_mod._multistart_seeds(dom.as_box()):
            z, ok = deg_mod._newton(g, s, FINITE_FP_TOL)
            if ok and dom.contains(z) and all(
                    np.max(np.abs(z - z0)) > 10 * FINITE_FP_TOL for z0 in found):
                found.append(z)
        return found

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
    v, ok = deg_mod._newton(res, v, 1e-10, max_iter=30, scale=1e-6)
    if not ok:
        return []
    x = unflat(v)
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
        return operators.build_finite(
            "Kdelay2", problem, {"history_nodes": problem.history_nodes()})
    raise ValueError(f"no finite side for problem kind {problem.kind!r}")


def _grid_representative(problem, v: np.ndarray):
    """alpha_1 of the solution with finite representative v."""
    f = problem.field()
    grid = problem.grid()
    if problem.kind in operators.PERIODIC_KINDS:
        return flows.mu_periodic(f, v, m=grid.m)
    if problem.kind == "dirichlet_bvp":
        n = f.dim
        sol = flows.mu_dirichlet(f, v[:n], v[n:], m=grid.m)
        return C1Function(sol.x, v[:n])
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
    for v in fps:
        det = float(np.linalg.det(fd_jacobian(g, v)))
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


def _pullback_boundary_samples(problem, dom: DomainSpec, count: int, seed: int):
    """Boundary of pi^{-1}(U) cap B(0, r), as grid-function values (S, m+1, n):
    lifted finite-boundary points with tangential bumps, plus norm-r shell
    points."""
    U = dom.finite
    r = dom.r
    b = U.as_box()
    k = b.shape[0]
    per = max(2, min(int(round(count ** (1.0 / max(k - 1, 1)))), 24))
    lift = lambda u: operators.i_map(dom.projector, u, problem).values
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
        b = dom.as_box()
        per = max(2, int(round(count ** (1.0 / max(b.shape[0] - 1, 1)))))
        return deg_mod._boundary_lattice(b, per)
    raise ValueError(f"unsupported homotopy domain {dom!r}")


def certify_homotopy(hA: OperatorHandle, hB: OperatorHandle, domain,
                     lambda_steps: int = 9, boundary_samples: int = 16,
                     eps: float | None = None, seed: int = DEFAULT_SEED,
                     max_doublings: int = 4) -> HomotopyCertificate:
    """Empirical admissibility of H_lam = lam*A + (1-lam)*B over the domain.

    Doubles the lambda grid and the boundary sampling until the minimum
    boundary residual stabilizes (< 20% change) after at least two
    doublings; admissible iff the stable minimum clears eps.  Each level's
    samples go through each endpoint in stacked blocks of STACK_BLOCK.
    """
    if hA.space != hB.space:
        raise ValueError("homotopy endpoints live in different spaces")
    if eps is None:
        eps = admissibility_eps(hA.problem) if hA.problem is not None else 1e-4
    unflat = _unflattener(hA)

    def level_eval(n_lam: int, n_samp: int):
        lams = np.linspace(0.0, 1.0, n_lam)
        samples = _domain_boundary_samples(hA, domain, n_samp, seed)
        curve = np.full(n_lam, np.inf)
        for lo in range(0, len(samples), STACK_BLOCK):
            xs = samples[lo:lo + STACK_BLOCK]
            x = unflat(xs)
            a = _flatten(hA.apply_fn(x))
            b = _flatten(hB.apply_fn(x))
            # x - H_lam(x) = (x - b) + lam (b - a), componentwise
            base, delta = xs - b, b - a
            curve = np.minimum(curve, [np.max(np.abs(base + lam * delta), axis=-1).min()
                                       for lam in lams])
        return float(np.min(curve)), lams, curve

    n_lam, n_samp = lambda_steps, boundary_samples
    best, lams, curve = level_eval(n_lam, n_samp)
    history = [best]
    stable = False
    for level in range(1, max_doublings + 1):
        n_lam = 2 * n_lam - 1
        n_samp *= 2
        new, lams, curve = level_eval(n_lam, n_samp)
        history.append(min(history[-1], new))
        if level >= 2 and history[-2] > 0 and \
                abs(history[-1] - history[-2]) < 0.2 * history[-2]:
            stable = True
            break
    min_res = history[-1]
    admissible = stable and min_res >= eps
    return HomotopyCertificate(pair=(hA.name, hB.name),
                               lambda_grid=tuple(lams),
                               min_residual=min_res,
                               refinements=len(history) - 1,
                               admissible=admissible, stable=stable,
                               residual_curve=tuple(curve))


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

    @property
    def conclusive(self) -> bool:
        return self.left.certified and self.right.certified


def default_pullback(problem, U2: DomainSpec, r: float | None = None) -> DomainSpec:
    kind = {"periodic_ode": "periodic", "nonlocal_1d": "periodic",
            "dirichlet_bvp": "dirichlet", "periodic_dde": "delay"}[problem.kind]
    if r is None:
        b = U2.as_box()
        r = 2.0 * (float(np.max(np.abs(b))) + 1.0)
    return deg_mod.pullback_domain(kind, U2, r)


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

    core = None
    if pair in ("krasnoselskii", "eta_sign", "delay", "dirichlet_shooting"):
        core = check_common_core(problem, U1, U2)

    if pair == "krasnoselskii":
        return _verify_krasnoselskii(problem, U1, U2, core, seed)
    if pair == "eta_sign":
        if eta is None:
            raise ValueError("eta_sign pair needs eta")
        return _verify_eta_sign(problem, U1, U2, eta, core, seed)
    if pair == "inverse_poincare":
        return _verify_inverse_poincare(problem, U2)
    if pair == "dirichlet_shooting":
        return _verify_dirichlet(problem, U2, core)
    if pair == "delay":
        return _verify_delay(problem, U1, U2, core, seed)
    if pair == "nonlocal_signs":
        if eta is None:
            raise ValueError("nonlocal_signs pair needs eta")
        return _verify_nonlocal_signs(problem, eta)
    raise ValueError(f"unknown duality pair {pair!r}")


def _verify_krasnoselskii(problem, U1, U2, core, seed=DEFAULT_SEED) -> DualityReport:
    k_op = operators.build("K", problem)
    k1_op = operators.build("K1", problem)
    ktilde = operators.build("Ktilde", problem)
    vr = default_pullback(problem, U2)
    certs = (certify_homotopy(k_op, k1_op, vr, seed=seed),
             certify_homotopy(k1_op, ktilde, vr, seed=seed))
    left = finite_rank_reduce(ktilde, U2, r=vr.r)
    right = fixed_point_degree(operators.build_finite("K2", problem).apply_fn, U2)
    equal = (left.degree == right.degree and left.certified and right.certified
             and all(c.admissible for c in certs)
             and (core is None or core.verdict))
    return DualityReport("krasnoselskii", left, right, equal,
                         route="homotopy_chain", certificates=certs,
                         common_core=core)


def _verify_eta_sign(problem, U1, U2, eta: float, core,
                     seed=DEFAULT_SEED) -> DualityReport:
    n = problem.field().dim
    keta = operators.build("Keta", problem, {"eta": eta})
    k3 = operators.build("K3", problem)
    ktilde = operators.build("Ktilde", problem)
    vr = default_pullback(problem, U2)
    # right side: deg(I - K3) via the paper's chain K3 ~ K4 ~ K and reduction
    k4 = operators.build("K4", problem)
    k_op = operators.build("K", problem)
    chain = [certify_homotopy(k3, k4, vr, seed=seed),
             certify_homotopy(k4, k_op, vr, seed=seed)]
    right = finite_rank_reduce(ktilde, U2, r=vr.r)

    if eta > 0:
        chain.insert(0, certify_homotopy(keta, k3, vr, seed=seed))
        left = DegreeResult(degree=right.degree, method=right.method,
                            min_boundary_norm=right.min_boundary_norm,
                            refinement_levels=right.refinement_levels,
                            certified=right.certified, zeros=right.zeros,
                            params={"via": "chain Keta~K3~K4~K~reduction"})
    else:
        khat3 = operators.build("Khat3", problem)
        chain.insert(0, certify_homotopy(keta, khat3, vr, seed=seed))
        # hat chain bottoms out at K2hat(x0) = 2 x0 - P(x0)
        P = operators.build_finite("K2", problem).apply_fn
        left = fixed_point_degree(
            lambda v: 2.0 * v - np.asarray(P(v), dtype=float), U2)
    sign = 1 if eta > 0 else (-1) ** n
    equal = (left.degree == sign * right.degree
             and left.certified and right.certified
             and all(c.admissible for c in chain)
             and (core is None or core.verdict))
    return DualityReport("eta_sign", left, right, equal,
                         route="homotopy_chain", certificates=tuple(chain),
                         sign_factor=sign, common_core=core,
                         params={"eta": eta})


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
    for z in right.zeros:
        z = np.asarray(z)
        for scale in (1e-5, 5e-6):
            d_full = np.sign(np.linalg.det(fd_jacobian(gfull, z, scale=scale)))
            d_shoot = np.sign(np.linalg.det(fd_jacobian(shoot, z[:n], scale=scale)))
            if d_full != d_shoot:
                block_ok = False
    equal = (left.degree == right.degree and left.certified and right.certified
             and block_ok and (core is None or core.verdict))
    return DualityReport("dirichlet_shooting", left, right, equal,
                         route="independent", common_core=core,
                         params={"block_sign_identity": block_ok})


def _verify_delay(problem, U1, U2, core, seed=DEFAULT_SEED) -> DualityReport:
    coarse = problem.with_history_nodes()
    k_op = operators.build("Kdelay", problem)
    k1_op = operators.build("Kdelay1", problem)
    ktilde = operators.build("Ktilde", coarse)
    if not isinstance(U1, FunctionBall):
        raise ValueError("delay pair needs a sup-norm ball U1")
    certs = (certify_homotopy(k_op, k1_op, U1, seed=seed),)
    left = finite_rank_reduce(ktilde, U2)
    fin = operators.build_finite("Kdelay2", problem,
                                 {"history_nodes": problem.history_nodes()})
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
