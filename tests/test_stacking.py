"""Stacked application: the rhs(t, X) shape guards, and stacks against loops.

Every stacked path must give, bit for bit, what one call per node, per state
or per sample gives; the references below are those loops.
"""

from dataclasses import replace

import numpy as np
import pytest

from dualdeg import flows, gridfn, operators, problems
from dualdeg.degree import _multistart_seeds, _newton, defect, fd_jacobian
from dualdeg.flows import IntegrationError, VectorFieldSpec
from dualdeg.gridfn import DelayKernel, Grid, GridFunction, constant

P3 = replace(problems.get_problem("p3"), m=32)
P4 = replace(problems.get_problem("p4"), m=16)
P6 = replace(problems.get_problem("p6"), m=16)

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
        assert np.array_equal(stacked.trajectory.values,
                              np.stack([r.trajectory.values for r in loop]))
        assert np.array_equal(stacked.endpoint, np.stack([r.endpoint for r in loop]))

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
        stacked = operators.apply(h, GridFunction(grid, vals)).values
        loop = [operators.apply(h, GridFunction(grid, v)).values for v in vals]
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
        params = {"history_nodes": problem.history_nodes()} if name == "Kdelay2" else {}
        fin = operators.build_finite(name, problem, params)
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
