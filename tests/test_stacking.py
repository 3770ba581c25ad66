"""Stacked application: the rhs(t, X) shape guards, and stacks against loops.

Every stacked path must give, bit for bit, what one call per node, per state
or per sample gives; the references below are those loops.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from dualdeg import certify, flows, gridfn, operators, problems
from dualdeg.certify import HomotopyCertificate
from dualdeg.degree import STACK_BLOCK, _multistart_seeds, _newton, box_domain, defect, \
    fd_jacobian
from dualdeg.flows import IntegrationError, VectorFieldSpec
from dualdeg.gridfn import DelayKernel, Grid, GridFunction, constant

P3 = replace(problems.get_problem("p3"), m=32)
P4 = replace(problems.get_problem("p4"), m=16)
P6 = replace(problems.get_problem("p6"), m=16)
P1 = replace(problems.get_problem("p1"), m=32)

# right for one state (n,); on a stack it indexes states, not components
SCALAR_ONLY = lambda t, x: np.array([x[1], -x[0]])


def _field(rhs, dim=1, kind=flows.NONDELAY, tau=None):
    return VectorFieldSpec(dim=dim, period=1.0, kind=kind, rhs=rhs,
                           lipschitz=1.0, tau=tau)


def _smooth_stack(grid: Grid, count: int, n: int, seed: int = 3) -> np.ndarray:
    """Values (count, m+1, n) of random smooth functions on the grid."""
    rng = np.random.default_rng(seed)
    t = grid.nodes[None, :, None]
    a, b, c = (rng.standard_normal((count, 1, n)) for _ in range(3))
    return a * np.cos(2 * np.pi * t) + b * np.sin(4 * np.pi * t) + 0.3 * c


class TestRhsShapeGuards:
    def test_nemytskii(self):
        x = constant(Grid(0.0, 1.0, 8), [1.0, 2.0])
        with pytest.raises(ValueError, match=r"shape \(2, 2\), expected \(9, 2\)"):
            gridfn.nemytskii(_field(SCALAR_ONLY, dim=2), x)

    def test_nemytskii_delay(self):
        f = _field(lambda t, x, y: np.array([y[0]]), kind=flows.DELAY, tau=0.25)
        x = constant(Grid(0.0, 1.0, 8), 1.0)
        with pytest.raises(ValueError, match=r"shape \(1, 1\), expected \(9, 1\)"):
            gridfn.nemytskii_delay(f, x, DelayKernel(0.25, 1.0))

    def test_flow(self):
        with pytest.raises(ValueError, match=r"shape \(2, 2\), expected \(3, 2\)"):
            flows.flow(_field(SCALAR_ONLY, dim=2), np.ones((3, 2)), Grid(0.0, 1.0, 8))

    def test_mu_dirichlet(self):
        f = _field(lambda t, x: np.array([x[0]]), kind=flows.SECOND_ORDER)
        with pytest.raises(ValueError, match=r"shape \(1, 1\), expected \(3, 1\)"):
            flows.mu_dirichlet(f, np.ones((3, 1)), np.zeros(1), m=8)

    def test_dde_flow(self):
        f = _field(lambda t, x, y: np.array([-y[0]]), kind=flows.DELAY, tau=0.5)
        hist = GridFunction(Grid(-0.5, 0.0, 4), np.ones((3, 5, 1)))
        with pytest.raises(ValueError, match=r"shape \(1, 1\), expected \(3, 1\)"):
            flows.dde_flow(f, hist, 1.0)

    def test_nonfinite_names_first_bad_node_of_a_stack(self):
        g = Grid(0.0, 1.0, 8)
        f = _field(lambda t, x: np.where(np.expand_dims(t > 0.5, -1), x / 0.0, x))
        x = GridFunction(g, np.stack([np.zeros((9, 1)), np.ones((9, 1))]))
        with pytest.raises(ValueError, match=r"non-finite value at t=0\.625"):
            with np.errstate(divide="ignore", invalid="ignore"):
                gridfn.nemytskii(f, x)


class TestStackMatchesLoop:
    def test_flow(self):
        f = P3.field()
        grid = P3.grid()
        x0 = np.random.default_rng(0).uniform(-1.0, 1.0, (5, 2))
        stacked = flows.flow(f, x0, grid)
        loop = [flows.flow(f, x, grid) for x in x0]
        assert np.array_equal(stacked.values, np.stack([r.values for r in loop]))

    def test_nemytskii(self):
        f = P3.field()
        x = GridFunction(P3.grid(), _smooth_stack(P3.grid(), 4, 2))
        ref = [[f.rhs(t, v[j]) for j, t in enumerate(x.grid.nodes)]
               for v in x.values]
        assert np.array_equal(gridfn.nemytskii(f, x).values, np.asarray(ref))

    def test_nemytskii_delay(self):
        f = P6.field()
        kernel = P6.kernel()
        grid = P6.grid()
        x = GridFunction(grid, _smooth_stack(grid, 4, 1))
        shift = kernel.shift_steps(grid)
        ref = [[f.rhs(t, v[j], v[j - shift if j >= shift else j - shift + grid.m])
                for j, t in enumerate(grid.nodes)] for v in x.values]
        assert np.array_equal(gridfn.nemytskii_delay(f, x, kernel).values,
                              np.asarray(ref))

    @pytest.mark.parametrize("name,params", [
        ("K", {}), ("K1", {}), ("K3", {}), ("K4", {}), ("K5", {}), ("Kgamma", {}),
        ("Keta", {"eta": 1.0}), ("Keta", {"eta": -1.0}), ("Khat3", {}),
        ("Ktilde", {}), ("Kdelay", {}), ("Kdelay1", {}),
        ("K6", {}), ("K7", {}), ("K8", {}), ("Khat5", {})])
    def test_handles(self, name, params):
        problem = P6 if name.startswith("Kdelay") or name in ("K6", "K7", "K8") else P3
        h = operators.build(name, problem, params)
        grid = problem.grid()
        vals = _smooth_stack(grid, 5, problem.dim)
        stacked = h.apply_fn(GridFunction(grid, vals)).values
        loop = [h.apply_fn(GridFunction(grid, v)).values for v in vals]
        assert np.array_equal(stacked, np.stack(loop))

    def test_fd_jacobian(self):
        fin = operators.build_finite("K2", P3)
        g = lambda v: v - fin.apply_fn(v)
        x = np.array([0.3, -0.7])
        ref = np.empty((2, 2))
        for i in range(2):
            h = 1e-5 * (1.0 + abs(x[i]))
            e = np.zeros(2)
            e[i] = h
            ref[:, i] = (g(x + e) - g(x - e)) / (2 * h)
        assert np.array_equal(fd_jacobian(g, x), ref)
        X = np.random.default_rng(1).uniform(-1.0, 1.0, (5, 2))
        assert np.array_equal(fd_jacobian(g, X), np.stack([fd_jacobian(g, x) for x in X]))
        scale = np.array([[1e-5], [5e-6], [1e-5], [5e-6], [1e-6]])
        assert np.array_equal(fd_jacobian(g, X, scale=scale),
                              np.stack([fd_jacobian(g, x, scale=float(c))
                                        for x, c in zip(X, scale[:, 0])]))


def _newton_one(g, x0, tol, max_iter=60, scale=1e-5):
    """Damped Newton from a single start, one g call per evaluation."""
    def safe(x):
        try:
            return np.atleast_1d(np.asarray(g(x), dtype=float))
        except IntegrationError:
            return np.full(x.shape, np.inf)

    x = np.asarray(x0, dtype=float).copy()
    gx = safe(x)
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
            gn = safe(xn)
            if np.all(np.isfinite(gn)) and np.max(np.abs(gn)) < nrm:
                x, gx = xn, gn
                break
            s *= 0.5
        else:
            return x, False
    return x, bool(np.max(np.abs(gx)) <= tol)


# x0' = x0^2 - 1 blows up within the period from x0 > coth(1)
RICCATI = _field(lambda t, x: np.stack([x[..., 0] * x[..., 0] - 1.0, -x[..., 1]], axis=-1),
                 dim=2)


class TestLockStepNewton:
    def _check(self, g, X0, tol=1e-9):
        X, ok = _newton(g, X0, tol)
        ref = [_newton_one(g, x, tol) for x in X0]
        assert np.array_equal(X, np.stack([x for x, _ in ref]))
        assert np.array_equal(ok, np.array([o for _, o in ref]))
        return ok

    @pytest.mark.parametrize("name,problem", [("K2", P3), ("Kdir2", P4), ("Kdelay2", P6)])
    def test_multistart_seeds(self, name, problem):
        fin = operators.build_finite(name, problem)
        ok = self._check(defect(fin.apply_fn),
                         _multistart_seeds(problem.default_U2().as_box()))
        assert ok.any()

    def test_blow_up_in_part_of_a_stack(self):
        failed_stacks = []

        def g(X):
            try:
                return X - flows.poincare(RICCATI, X, m=32)
            except IntegrationError:
                failed_stacks.append(np.ndim(X) > 1 and len(X) > 1)
                raise

        seeds = np.array([[a, b] for a in (-1.5, 0.0, 0.6, 0.9, 1.2, 1.5, 3.0)
                          for b in (-0.5, 0.5)])
        ok = self._check(g, seeds)
        assert ok.any() and not ok.all()
        assert any(failed_stacks)

    def test_singular_jacobian_start(self):
        # central differences of x0^2 vanish at x0 = 0: a singular Jacobian
        g = lambda X: np.stack([X[..., 0] * X[..., 0] - 0.25, X[..., 1]], axis=-1)
        ok = self._check(g, np.array([[0.4, 0.1], [0.0, 0.3], [-1.0, 2.0]]))
        assert ok.tolist() == [True, False, True]

    def test_line_search_uses_all_eight_halvings(self):
        # x0 / sqrt(1 + x0^2): from 13 only the step scaled by 1/128 lowers |g|,
        # from 100 no scaled step does
        g = lambda X: np.stack([X[..., 0] / np.sqrt(1.0 + X[..., 0] * X[..., 0]),
                                X[..., 1]], axis=-1)
        ok = self._check(g, np.array([[13.0, 0.5], [100.0, 0.5], [0.5, 0.5]]))
        assert ok.tolist() == [True, False, True]


def _certify_one(hA, hB, domain, max_doublings=4, lambda_steps=9, boundary_samples=16,
                 seed=certify.DEFAULT_SEED):
    """One pair alone: each level builds its own samples and applies both
    endpoints to each block."""
    eps = certify.admissibility_eps(hA.problem) if hA.problem is not None else 1e-4
    unflat = certify._unflattener(hA)

    def level(n_lam, n_samp):
        lams = np.linspace(0.0, 1.0, n_lam)
        samples = certify._domain_boundary_samples(hA, domain, n_samp, seed)
        curve = np.full(n_lam, np.inf)
        for lo in range(0, len(samples), STACK_BLOCK):
            xs = samples[lo:lo + STACK_BLOCK]
            a = certify._flatten(hA.apply_fn(unflat(xs)))
            b = certify._flatten(hB.apply_fn(unflat(xs)))
            curve = np.minimum(curve, [np.max(np.abs((xs - b) + lam * (b - a)), axis=-1).min()
                                       for lam in lams])
        return float(np.min(curve)), lams, curve

    n_lam, n_samp = lambda_steps, boundary_samples
    best, lams, curve = level(n_lam, n_samp)
    history = [best]
    stable = False
    for lv in range(1, max_doublings + 1):
        n_lam, n_samp = 2 * n_lam - 1, 2 * n_samp
        new, lams, curve = level(n_lam, n_samp)
        history.append(min(history[-1], new))
        if lv >= 2 and history[-2] > 0 and abs(history[-1] - history[-2]) < 0.2 * history[-2]:
            stable = True
            break
    return HomotopyCertificate(pair=(hA.name, hB.name), lambda_grid=tuple(lams),
                               min_residual=history[-1], refinements=len(history) - 1,
                               admissible=stable and history[-1] >= eps, stable=stable,
                               residual_curve=tuple(curve))


def _pairs(problem, names):
    """Handle pairs, each endpoint built afresh; a name may carry ("Keta", eta)."""
    def build(name):
        if isinstance(name, tuple):
            return operators.build(name[0], problem, {"eta": name[1]})
        return operators.build(name, problem)
    return [(build(a), build(b)) for a, b in names]


# the distinct pullback pairs of run(p3, "all"): krasnoselskii, both eta_sign
# chains and the operator suite
P3_RUN = (("K", "K1"), ("K1", "Ktilde"), (("Keta", 1.0), "K3"), ("K3", "K4"),
          ("K4", "K"), (("Keta", -1.0), "Khat3"), ("K", "Kgamma"), ("K4", "K3"),
          ("K3", "K5"))

# Dip: 1 - Dip(x) is the sup distance from x to a boundary point no lattice
# hits, so its boundary minimum shrinks by more than 20% with each doubling
_OFF_LATTICE = np.array([1.0, 0.1234567])
DIP = operators.OperatorHandle(
    "Dip", operators.FINITE_SPACE,
    lambda X: X - np.max(np.abs(X - _OFF_LATTICE), axis=-1, keepdims=True))
HALF = operators.OperatorHandle("Half", operators.FINITE_SPACE, lambda X: 0.5 * X)
ZERO = operators.OperatorHandle("Zero", operators.FINITE_SPACE, lambda X: 0.0 * X)
SQUARE = box_domain([[-1.0, 1.0], [-1.0, 1.0]])


class TestLockStepCertificates:
    def _check(self, pairs, domain, **kw):
        certs = certify.certify_homotopies(pairs, domain, **kw)
        assert len(certs) == len(pairs)
        for (hA, hB), cert in zip(pairs, certs):
            ref = _certify_one(hA, hB, domain, **kw)
            for f in fields(HomotopyCertificate):
                assert getattr(cert, f.name) == getattr(ref, f.name), (cert.pair, f.name)
        return certs

    def test_p3_run_pairs_over_the_pullback(self):
        vr = certify.default_pullback(P3.default_U2())
        certs = self._check(_pairs(P3, P3_RUN), vr)
        assert all(c.admissible for c in certs)

    def test_p1_ball_sample_counts_grow(self):
        names = (("K", "Kgamma"), ("K", "K1"), ("K4", "K3"), (("Keta", -1.0), "Khat3"))
        certs = self._check(_pairs(P1, names), P1.default_U1())
        # K ~ K1 refines once more than the others: the live set shrinks
        assert sorted(c.refinements for c in certs) == [2, 2, 2, 3]

    def test_p6_delay_pair(self):
        self._check(_pairs(P6, (("Kdelay", "Kdelay1"),)), P6.default_U1())

    def test_duplicated_pair(self):
        certs = self._check(_pairs(P1, (("K", "Kgamma"), ("K", "Kgamma"))), P1.default_U1())
        assert certs[0] == certs[1]

    def test_unstable_pair_at_max_doublings_2(self):
        certs = self._check([(DIP, ZERO), (HALF, ZERO)], SQUARE, max_doublings=2)
        assert [c.stable for c in certs] == [False, True]
        assert not certs[0].admissible
        # with room to refine, Dip runs on alone after Half stops at level 2
        certs = self._check([(DIP, ZERO), (HALF, ZERO)], SQUARE)
        assert [c.refinements for c in certs] == [4, 2]

    def test_each_distinct_handle_once_per_block_per_pass(self):
        calls = {}

        def counted(h):
            def apply_fn(x):
                calls.setdefault((h.name, repr(h.params)), []).append(len(x.values))
                return h.apply_fn(x)
            return replace(h, apply_fn=apply_fn)

        pairs = [(counted(a), counted(b)) for a, b in _pairs(P3, P3_RUN)]
        vr = certify.default_pullback(P3.default_U2())
        certs = certify.certify_homotopies(pairs, vr)
        assert all(c.refinements == 2 for c in certs)
        # the pullback lattice saturates at 24 per axis: level 1 (32 samples
        # asked) and level 2 (64) build one sample set and share one pass
        samples = [certify._domain_boundary_samples(pairs[0][0], vr, n, certify.DEFAULT_SEED)
                   for n in (16, 32, 64)]
        assert np.array_equal(samples[1], samples[2])
        blocks = [len(x[lo:lo + STACK_BLOCK]) for x in samples[:2]
                  for lo in range(0, len(x), STACK_BLOCK)]
        distinct = {(h.name, repr(h.params)) for pair in pairs for h in pair}
        assert len(distinct) == 10
        assert calls == {key: blocks for key in distinct}

    @pytest.mark.parametrize("problem,domain", [
        (P1, certify.default_pullback(P1.default_U2())),
        (P3, certify.default_pullback(P3.default_U2())),
        (P1, P1.default_U1()),
        (None, SQUARE)], ids=["pullback-1d", "pullback-2d", "ball", "box"])
    def test_equal_resolution_equal_samples(self, problem, domain):
        h = ZERO if problem is None else operators.build("K", problem)
        counts = [16 * 2 ** lv for lv in range(5)]
        for lo, hi in zip(counts, counts[1:]):
            same = certify._sample_resolution(domain, lo) == \
                certify._sample_resolution(domain, hi)
            a, b = (certify._domain_boundary_samples(h, domain, n, 7) for n in (lo, hi))
            assert same == (a.shape == b.shape and np.array_equal(a, b))
