"""Stacked application: the rhs(t, X) shape guards, and stacks against loops.

Every stacked path must give, bit for bit, what one call per node, per state
or per sample gives; the references below are those loops.
"""

import contextlib
import json
import tracemalloc
import weakref
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from dualdeg import certify, degree, flows, gridfn, operators, problems, report
from dualdeg.certify import HomotopyCertificate
from dualdeg.degree import STACK_FLOATS, _multistart_seeds, _newton_runs, box_domain, \
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


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a, b) \
        and np.array_equal(np.signbit(a), np.signbit(b))


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


def _assert_same_solution(got, want):
    """Equal type, grid and values, bit for bit (and x'(0) for a C1Function);
    for arrays, equal bits."""
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert np.array_equal(got, want)
        return
    if isinstance(want, operators.C1Function):
        assert np.array_equal(got.deriv0, want.deriv0)
        got, want = got.values, want.values
    assert got.grid == want.grid and np.array_equal(got.values, want.values)


class TestStackMatchesLoop:
    def test_flow(self):
        f = P3.field()
        grid = P3.grid()
        x0 = np.random.default_rng(0).uniform(-1.0, 1.0, (5, 2))
        stacked = flows.flow(f, x0, grid)
        loop = [flows.flow(f, x, grid) for x in x0]
        assert np.array_equal(stacked.values, np.stack([r.values for r in loop]))

    @pytest.mark.parametrize("problem", [P3, P4, P6], ids=["periodic", "dirichlet", "delay"])
    def test_grid_representatives(self, problem):
        # the common core lifts all its zeros in one sweep, by the solution map
        # of its finite handle's own problem (the delay's history-node one)
        fin = operators.build_finite(certify.KIND_TABLE[problem.kind].finite, problem)
        alpha = operators.solution(fin.problem)
        V = _multistart_seeds(problem.default_U2().as_box())[:3]
        stacked = alpha(V)
        for i, v in enumerate(V):
            _assert_same_solution(certify._member(stacked, i), alpha(v))

    @pytest.mark.parametrize("problem,name", [(P3, None), (P4, None), (P6, None), (P3, "KhatP")],
                             ids=["periodic", "dirichlet", "delay", "khatp"])
    def test_held_solutions(self, problem, name, monkeypatch):
        # on a run copy, alpha (and KhatP's backward Poincare map, under a key
        # of its own) re-stacks the rows it holds and integrates only the new
        # ones, each once: a held, a new, a repeated and a held row
        fin = operators.build_finite(name or certify.KIND_TABLE[problem.kind].finite, problem)
        mapping = (lambda p: operators.build_finite(name, p).apply_fn) if name \
            else operators.solution
        held = mapping(replace(fin.problem, _solutions=operators.Solutions()))
        V = _multistart_seeds(problem.default_U2().as_box())[:3]
        want = mapping(fin.problem)(V[[1, 2, 2, 0]])
        held(V[:2])
        states, rk4 = [], flows._rk4
        monkeypatch.setattr(flows, "_rk4", lambda rhs, y0, *a, **k:
                            states.append(len(y0)) or rk4(rhs, y0, *a, **k))
        _assert_same_solution(held(V[[1, 2, 2, 0]]), want)
        assert states == [1]

    def test_held_solutions_store_nothing_on_blow_up(self, monkeypatch):
        # x' = x^3 blows up from 50 within the period: that call raises, and
        # the row from 0.5 it carried is integrated again when asked for
        cubic = problems.ProblemSpec("cubic", "periodic_ode", 1, 1.0, {"poly": [0, 0, 0, 1]},
                                     1.0, 32, 1.0, ((-2.0, 2.0),),
                                     _solutions=operators.Solutions())
        alpha = operators.solution(cubic)
        with pytest.raises(IntegrationError):
            alpha([[0.5], [50.0]])
        sweeps, rk4 = [], flows._rk4
        monkeypatch.setattr(flows, "_rk4", lambda *a, **k: sweeps.append(1) or rk4(*a, **k))
        alpha([[0.5]])
        alpha([[0.5]])
        assert sweeps == [1]

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
        ("K6", {}), ("K7", {}), ("K8", {})])
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

    @pytest.mark.parametrize("scale", [1.0, 0.3, 0.1], ids=["all", "most", "few"])
    def test_pullback_bumps(self, scale):
        # each lifted lattice point, then its four bumps where it has room
        # inside the ball: all 92 points, 64 of them or 10
        dom = certify.default_pullback(degree.box_domain(((-1.0, 2.5), (-0.5, 1.0))))
        dom = replace(dom, r=dom.r * scale)
        b, per = certify._face_lattice(dom, 32)
        lifted = operators.build("Ktilde", P3).reduction.i(
            degree._boundary_lattice(b, per)).values
        bumps = certify._random_directions(P3, 8, 7, vanish_at_end=True)[0]
        loop = []
        for base in lifted:
            loop.append(base)
            room = dom.r - np.max(np.abs(base))
            if room > 0:
                loop += [base + 0.5 * room * w for w in bumps[:4]]
        got = certify._pullback_boundary_samples(P3, dom, 32, 7)
        assert _same_bits(got[:len(loop)], np.stack(loop))

    def test_random_directions(self):
        def loop(problem, count, seed, vanish_at_end):
            grid, n = problem.grid(), problem.field().dim
            t = grid.nodes[:, None]
            rng = np.random.default_rng(seed)
            out = []
            for _ in range(count):
                vals = np.zeros((grid.m + 1, n))
                for j in range(1, 4):
                    a = rng.standard_normal(n)
                    b = rng.standard_normal(n)
                    vals += a * np.cos(2 * np.pi * j * (t - grid.a) / grid.length) \
                        + b * np.sin(2 * np.pi * j * (t - grid.a) / grid.length)
                vals += rng.standard_normal(n)
                if vanish_at_end:
                    vals = vals * np.sin(np.pi * (t - grid.a) / grid.length)
                nrm = np.max(np.abs(vals))
                if nrm == 0:
                    continue
                out.append(vals / nrm)
            return np.reshape(out, (-1, grid.m + 1, n))

        for problem in (P1, P3, P6):
            for count in (0, 16, 64):
                for vanish in (False, True):
                    got, drawn = certify._random_directions(problem, count, 5, vanish)
                    assert np.array_equal(got, loop(problem, count, 5, vanish))
                    assert np.array_equal(drawn, np.arange(count))  # none of norm 0


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
        X, ok = _newton_runs(g, X0, (tol,))[0]
        ref = [_newton_one(g, x, tol) for x in X0]
        assert np.array_equal(X, np.stack([x for x, _ in ref]))
        assert np.array_equal(ok, np.array([o for _, o in ref]))
        return ok

    @pytest.mark.parametrize("name,problem", [("K2", P3), ("Kdir2", P4), ("Kdelay2", P6)])
    def test_multistart_seeds(self, name, problem):
        fin = operators.build_finite(name, problem)
        ok = self._check(lambda X: X - fin.apply_fn(X),
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


class TestNewtonRuns:
    """One lock-step run records, per tolerance, the (X, ok) of a run at that
    tolerance alone."""

    def _check(self, g, X0):
        runs = _newton_runs(g, X0, (1e-8, 1e-9))
        for tol, (X, ok) in zip((1e-8, 1e-9), runs):
            ref_X, ref_ok = _newton_runs(g, X0, (tol,))[0]
            assert np.array_equal(X, ref_X) and np.array_equal(ok, ref_ok)
        return [ok for _, ok in runs]

    def test_stall_between_the_tolerances(self):
        # |g| >= 3e-9 everywhere: a start gets within 1e-8, never within 1e-9
        g = lambda X: np.stack([np.sqrt(X[..., 0] * X[..., 0] + 9e-18),
                                X[..., 1] - 0.5], axis=-1)
        loose, tight = self._check(g, np.array([[1.0, 0.2], [-0.7, 0.9]]))
        assert loose.all() and not tight.any()

    def test_blow_up_singular_and_converging_starts(self):
        def g(X):
            # past x0 = 2.5 the first component is 0: a singular Jacobian
            out = np.stack([0.0 * X[..., 0], X[..., 1]], axis=-1)
            low = X[..., 0] <= 2.5
            out[low] = X[low] - flows.poincare(RICCATI, X[low], m=32)
            return out

        # from x0 = 1.5 the flow blows up at the start, from 3.0 the Jacobian is singular
        seeds = np.array([[a, b] for a in (-1.5, 0.0, 0.6, 1.2, 1.5, 3.0) for b in (-0.5, 0.5)])
        loose, tight = self._check(g, seeds)
        assert loose.tolist() == tight.tolist() == [True] * 8 + [False] * 4


def _bounded(calls: list):
    """x -> (x0^2/2 - 1/2, 0.3 x1, ...), whose stacks blow up once a row has a
    component beyond 2 in size; ``calls`` records each call's rows and outcome."""
    def F(X):
        X = np.asarray(X, dtype=float)
        bad = bool(np.any(np.abs(X) > 2.0))
        calls.append((len(X.reshape(-1, X.shape[-1])), bad))
        if bad:
            raise IntegrationError("beyond |x| = 2")
        return np.concatenate([0.5 * X[..., :1] * X[..., :1] - 0.5, 0.3 * X[..., 1:]], axis=-1)
    return F


class TestRowMemo:
    """``degree._held`` maps each row once and gives the map's own values;
    ``degree._Finite``'s search takes the path of the plain algorithm."""

    def test_each_row_once_and_the_maps_values(self):
        calls, F = [], _bounded([])
        rows = degree._held(_bounded(calls), {})
        X = np.array([[0.5, 1.0], [-0.0, 0.3], [0.0, 0.3], [0.5, 1.0], [1.5, -1.9]])
        assert np.array_equal(rows(X), F(X))
        assert np.array_equal(rows(X[3]), F(X[3]))
        assert np.array_equal(rows(X[:, None]), F(X)[:, None])
        # -0.0 and 0.0 are two rows; the repeated row is mapped once
        assert calls == [(4, False)]

    def test_held_keys_each_row_once_and_guards_its_values(self):
        calls, F, memo = [], _bounded([]), {}
        held = degree._held(_bounded(calls), memo)
        X = np.array([[0.5, 1.0], [0.2, 0.3], [0.5, 1.0]])
        # a row twice in one call is mapped once
        assert np.array_equal(held(X), F(X)) and calls == [(2, False)]
        # a call whose rows are all held maps nothing
        assert np.array_equal(held(X[::-1]), F(X[::-1])) and len(calls) == 1
        # writing into a returned array, an all-new block or a re-stacked
        # one, cannot change a later result
        Y = np.array([[0.1, 0.2], [0.3, 0.4]])
        for out in (held(Y), held(X)):
            with contextlib.suppress(ValueError):  # the block is read-only
                out[...] = 7.0
        assert np.array_equal(held(Y), F(Y)) and np.array_equal(held(X), F(X))
        # a call that raises stores nothing: its new row is mapped when asked for
        with pytest.raises(IntegrationError):
            held(np.array([[0.9, 0.0], [2.5, 0.0]]))
        assert len(memo) == 4
        assert np.array_equal(held(np.array([[0.9, 0.0]])), F(np.array([[0.9, 0.0]])))
        assert calls[-2:] == [(2, True), (1, False)] and len(memo) == 5

    def test_queued_rows_ride_on_the_next_call_with_new_rows(self):
        calls, F, memo, queue = [], _bounded([]), {}, []
        held = degree._held(_bounded(calls), memo, queue)
        X = np.array([[0.5, 1.0], [0.2, 0.3]])
        held(X)
        queue.append(np.array([[0.1, 0.1], [0.5, 1.0], [0.7, 0.0], [0.1, 0.1]]))
        # a call of held rows maps nothing and leaves the queue
        assert np.array_equal(held(X[:1]), F(X[:1])) and len(calls) == 1 and queue
        # the next call with a new row maps it first, then each queued row the memo
        # does not hold and the call does not carry, once, in one stacked call
        Y = np.array([[0.7, 0.0], [0.2, 0.3]])
        assert np.array_equal(held(Y), F(Y))
        assert calls[1:] == [(2, False)] and queue == [] and len(memo) == 4
        assert np.array_equal(held(np.array([[0.1, 0.1]])), F(np.array([[0.1, 0.1]])))
        assert len(calls) == 2

    def test_a_queued_row_that_blows_up_drops_the_queue(self):
        calls, F, memo, queue = [], _bounded([]), {}, []
        held = degree._held(_bounded(calls), memo, queue)
        queue.append(np.array([[0.1, 0.1], [2.5, 0.0]]))
        X = np.array([[0.5, 1.0], [0.2, 0.3]])
        # the stacked call raises: the call redoes its own rows alone, returns and
        # stores them, and the queue is dropped
        assert np.array_equal(held(X), F(X))
        assert calls == [(4, True), (2, False)] and queue == []
        assert set(memo) == {x.tobytes() for x in X}
        # each queued row is mapped only when asked for, and the bad one raises then
        assert np.array_equal(held(np.array([[0.1, 0.1]])), F(np.array([[0.1, 0.1]])))
        with pytest.raises(IntegrationError):
            held(np.array([[2.5, 0.0]]))
        assert calls[2:] == [(1, False), (1, True)] and len(memo) == 3

    def test_a_call_that_blows_up_stores_nothing(self):
        calls, held = [], {}
        fin = degree._Finite(degree._held(_bounded(calls), held), 1e-8)
        fin.warm(np.array([[0.5, 0.5], [2.5, 0.0]]))
        assert not held
        fin(np.array([[0.5, 0.5]]))
        assert calls == [(2, True), (1, False)] and len(held) == 1

    @pytest.mark.parametrize("bounds", [[(-1.0, 1.5)], [(-1.0, 1.5), (-0.5, 1.0)]])
    def test_margin_samples_held_per_box(self, bounds):
        calls, F = [], _bounded([])
        rows = degree._Finite(degree._held(_bounded(calls), {}), 1e-8)
        b = np.array(bounds)
        S = degree._opening(b, {})[1]
        # lattice levels share points: each distinct one once, level 1 holds level 0
        assert len(S) == len({s.tobytes() for s in S}) == \
            len(degree._boundary_samples(b, degree.MARGIN_PER_AXIS, 1))
        seeds = degree._multistart_seeds(b)
        rows.warm(np.concatenate([S, seeds]))
        assert calls == [(len(S) + len({x.tobytes() for x in seeds}), False)]
        assert np.array_equal(rows.edge(b), F(S))
        # the memo holds every row of that call: the 1-d degree reads the two
        # endpoints, and Khat2 = 2v - P(v) reads P's margin, as rows
        for X in (seeds, S, b.T):
            assert np.array_equal(rows(X), F(X))
        assert len(calls) == 1

    @pytest.mark.parametrize("bounds", [
        [(-1.0, 1.5)], [(0.1, 0.7), (-1.3, 2.9)], [(-0.3, 0.3)] * 2 + [(1e-3, 7.0)],
        [(-2.0, -0.1), (0.37, 5.11), (-9.0, 3.3)]])
    def test_margin_samples_are_the_image_box_lattice(self, bounds):
        # the inverse_poincare image box reads the margin's values: for k <= 3,
        # as bit patterns, the margin samples are the 17-point boundary lattice
        b = np.array(bounds)
        assert degree._lattice_per(b, degree.MARGIN_PER_AXIS, 1) == 17
        rows = lambda X: sorted(x.tobytes() for x in X)
        assert rows(degree._opening(b, {})[1]) == rows(degree._boundary_lattice(b, 17))

    def test_random_margin_kept_as_drawn(self):
        b = np.array([(-1.0, 1.0)] * 8)
        S = degree._opening(b, {})[1]
        levels = [degree._boundary_samples(b, degree.MARGIN_PER_AXIS, level) for level in (0, 1)]
        assert np.array_equal(S, np.concatenate(levels))
        fin = degree._Finite(lambda X: 0.5 * X, 1e-8)
        assert np.array_equal(fin.edge(b), 0.5 * S)

    def test_memoized_search_through_blow_ups(self):
        # Newton steps from x0 = 0.95 land far beyond the bound, and so do the
        # stencils of the starts at 1.99999: their stacked calls blow up
        calls = []
        F = _bounded(calls)
        fin = degree._Finite(degree._held(F, {}), 1e-8)
        box = box_domain([(-1.9, 1.9), (-1.9, 1.9)])
        b = box.as_box()
        tols = (1e-8, 1e-9)
        g = lambda X: X - F(X)
        plain = degree._newton_runs(g, degree._multistart_seeds(b), tols)
        for tol, (ref_X, ref_ok) in zip(tols, plain):
            X, ok = fin._open(b)[tol]
            assert np.array_equal(X, ref_X) and np.array_equal(ok, ref_ok)
            assert fin.zeros(box, tol)[1] == np.sum(~ref_ok)
        S = degree._opening(b, {})[1]
        assert fin.margin(b) == np.min(np.max(np.abs(S - F(S)), axis=-1))

        starts = np.array([[1.99999, 0.5], [0.95, -1.0], [-1.5, 1.99999], [1.9, 0.2]])
        calls.clear()
        runs = degree._newton_runs(fin.g, starts, tols, warm=fin.warm)
        assert any(bad for _, bad in calls)
        for (X, ok), (ref_X, ref_ok) in zip(runs, degree._newton_runs(g, starts, tols)):
            assert np.array_equal(X, ref_X) and np.array_equal(ok, ref_ok)
        assert runs[-1][1].any() and not runs[-1][1].all()

    def test_at_zero_rows_ride_on_the_tries_inside_the_box(self):
        # g = x - F(x) has its zeros at x0 = 1 -+ sqrt 2, x1 = 0: one inside the
        # box, one beyond it, and tries toward it blow up.  Before each try, the
        # hook queues the at-zero rows of its iterates inside the box, which ride
        # on the try's own call; the search is the plain one, and the zero's rows
        # are then held
        calls, asked, queue = [], [], []
        box = box_domain([(-1.9, 1.9), (-1.9, 1.9)])
        b = box.as_box()
        rows = lambda Z: np.concatenate([Z + 1e-3, Z - 1e-3])
        fin = degree._Finite(degree._held(_bounded(calls), {}, queue), 1e-8,
                             at_zero=lambda Z: asked.append(Z) or queue.append(rows(Z)))
        plain = degree._Finite(degree._held(_bounded([]), {}), 1e-8)
        for tol in (1e-8, 1e-9):
            (X, ok), (ref_X, ref_ok) = fin._open(b)[tol], plain._open(b)[tol]
            assert np.array_equal(X, ref_X) and np.array_equal(ok, ref_ok)
        tried = np.concatenate(asked)
        assert len(tried) and all(box.contains(x) for x in tried)
        assert any(bad for _, bad in calls)
        [zero] = fin.zeros(box, 1e-9)[0]
        made = len(calls)
        assert np.array_equal(fin(rows(zero[None])), _bounded([])(rows(zero[None])))
        assert len(calls) == made



class TestDirichletBlockCheck:
    """The dirichlet_shooting block check reads the FD stencils of both its
    Jacobians, Kdir2's at the zeros and the shooting map's lifted as (a, 0).
    They ride as at-zero rows on the Newton try that finds a zero, in its one
    stacked alpha call, so each Jacobian reads the run memo; a zero no try
    produced gets them in one stacked call of the check."""

    @staticmethod
    def _inside(monkeypatch, at_zero: bool = True) -> list:
        """A list that is non-empty while a dirichlet_shooting conclusion runs;
        with ``at_zero`` false, its plan names no at-zero rows."""
        inside, plan = [], certify.plan_duality

        def planned(*a, **k):
            p = plan(*a, **k)

            def conclude(*c):
                inside.append(p.name)
                try:
                    return p.conclude(*c)
                finally:
                    inside.pop()

            if p.name != "dirichlet_shooting":
                return p
            return replace(p, conclude=conclude, at_zero=p.at_zero if at_zero else None)

        monkeypatch.setattr(certify, "plan_duality", planned)
        return inside

    @staticmethod
    def _stacked_try_blows_up(monkeypatch, raised: list) -> None:
        """mu_dirichlet raises in each stacked call that carries rows ahead of its
        own, which in a Dirichlet run only a Newton try with at-zero rows makes
        (``degree._map_ahead``); the try's own rows then map as they would alone."""
        map_ahead, mu, armed = degree._map_ahead, flows.mu_dirichlet, []

        def armed_map_ahead(g, X, ahead):
            if len(ahead):
                armed.append(True)
            return map_ahead(g, X, ahead)

        def mu_dirichlet(f, a, b, **k):
            if armed:
                armed.clear()
                raised.append("try")
                raise IntegrationError("the try's stacked call blows up")
            return mu(f, a, b, **k)

        monkeypatch.setattr(degree, "_map_ahead", armed_map_ahead)
        monkeypatch.setattr(flows, "mu_dirichlet", mu_dirichlet)

    @staticmethod
    def _bytes(pid: str) -> str:
        doc = problems.run(problems.get_problem(pid), "all", grid_m=64).to_dict()
        del doc["timings"]
        return report.canonical_json(doc)

    @pytest.mark.parametrize("pid", ["p4", "p5"])
    def test_one_sweep_and_the_jacobians_of_two_calls(self, pid, monkeypatch):
        # both stencils ride on the one sweep of the try that finds the zero:
        # the conclusion makes no sweep of its own
        inside, sweeps, jacobians = self._inside(monkeypatch), [], []
        rk4, fd = flows._rk4, certify.fd_jacobian
        monkeypatch.setattr(flows, "_rk4", lambda rhs, y0, *a: (
            sweeps.append(bool(inside))) or rk4(rhs, y0, *a))
        monkeypatch.setattr(certify, "fd_jacobian", lambda g, x, scale: jacobians.append(
            (x, scale, fd(g, x, scale=scale))) or jacobians[-1][2])
        assert problems.run(problems.get_problem(pid), "all", grid_m=64).verdict
        assert sweeps == [False, False]
        (Z, scale, full), (A, scale_a, shooting) = jacobians
        # each Jacobian alone, on a run copy of its own: a fresh row memo
        fresh = lambda: operators.run_copy(problems.get_problem(pid), 64)
        kdir2 = operators.build_finite("Kdir2", fresh()).apply_fn
        ktilde = operators.build("Ktilde", fresh())
        shoot = lambda a: ktilde.reduction.i(a).values.values[..., -1, :]
        assert np.array_equal(full, fd_jacobian(lambda v: v - kdir2(v), Z, scale=scale))
        assert np.array_equal(shooting, fd_jacobian(shoot, A, scale=scale_a))

    @pytest.mark.parametrize("pid", ["p4", "p5"])
    def test_a_try_that_blows_up_leaves_the_rows_to_the_check(self, pid, monkeypatch):
        # the try's stacked call stores nothing and its own rows map alone; the
        # conclusion then maps the union in one sweep: opening, try, union
        want = self._bytes(pid)
        inside, raised, sweeps = self._inside(monkeypatch), [], []
        self._stacked_try_blows_up(monkeypatch, raised)
        rk4 = flows._rk4
        monkeypatch.setattr(flows, "_rk4", lambda *a: sweeps.append(bool(inside)) or rk4(*a))
        assert self._bytes(pid) == want
        assert raised == ["try"] and sweeps == [False, False, True]

    @pytest.mark.parametrize("pid", ["p4", "p5"])
    def test_a_union_that_blows_up_maps_each_stencil_alone(self, pid, monkeypatch):
        # the try's stacked call blows up, so the conclusion maps the union; that
        # blows up too and stores nothing, and each Jacobian maps its own 4 rows
        want = self._bytes(pid)
        inside, raised, sweeps = self._inside(monkeypatch), [], []
        self._stacked_try_blows_up(monkeypatch, raised)
        mu, rk4 = flows.mu_dirichlet, flows._rk4

        def mu_dirichlet(f, a, b, **k):
            if inside and len(a) == 8:
                raised.append("union")
                raise IntegrationError("the union's stacked call blows up")
            return mu(f, a, b, **k)

        monkeypatch.setattr(flows, "mu_dirichlet", mu_dirichlet)
        monkeypatch.setattr(flows, "_rk4", lambda *a: sweeps.append(1) or rk4(*a))
        assert self._bytes(pid) == want
        assert raised == ["try", "union"] and len(sweeps) == 4

    @pytest.mark.parametrize("pid", ["p4", "p5"])
    def test_a_seed_zero_gets_the_union_in_one_call(self, pid, monkeypatch):
        # seeds in reverse order: the centre, a zero of these linear problems,
        # converges with no try and is the recorded zero.  The conclusion maps
        # its union in one sweep, and the report is that of the plan without
        # at-zero rows
        seeds = degree._multistart_seeds
        monkeypatch.setattr(degree, "_multistart_seeds", lambda box: seeds(box)[::-1])
        self._inside(monkeypatch, at_zero=False)
        want = self._bytes(pid)
        inside, sweeps = self._inside(monkeypatch), []
        rk4 = flows._rk4
        monkeypatch.setattr(flows, "_rk4", lambda *a: sweeps.append(bool(inside)) or rk4(*a))
        got = self._bytes(pid)
        assert got == want and json.loads(got)["duality"][0]["right"]["zeros"] == [[0, 0]]
        assert sweeps.count(True) == 1


def _dense_minima(base, delta, lams):
    """The reference: every entry scored at every lambda, min over rows of the
    row maxima."""
    return np.array([np.max(np.abs(base + delta * lam), axis=-1).min() for lam in lams])


def _certify_one(hA, hB, domain, seed=certify.DEFAULT_SEED):
    """One pair alone, on the certificate schedule of ``certify``: each level
    builds its own samples and applies both endpoints to each block."""
    eps = certify.admissibility_eps(hA.problem) if hA.problem is not None else 1e-4
    unflat = certify._unflattener(hA)

    def level(n_lam, n_samp):
        lams = np.linspace(0.0, 1.0, n_lam)
        samples = certify._domain_boundary_samples(hA, domain, [n_samp], seed)[0]
        curve = np.full(n_lam, np.inf)
        rows = max(1, STACK_FLOATS // samples.shape[1])
        for lo in range(0, len(samples), rows):
            xs = samples[lo:lo + rows]
            a = certify._flatten(hA.apply_fn(unflat(xs)))
            b = certify._flatten(hB.apply_fn(unflat(xs)))
            curve = np.minimum(curve, _dense_minima(xs - b, b - a, lams))
        return float(np.min(curve)), lams, curve

    n_lam, n_samp = certify.LAMBDA_STEPS, certify.BOUNDARY_SAMPLES
    best, lams, curve = level(n_lam, n_samp)
    history = [best]
    stable = False
    for lv in range(1, certify.MAX_DOUBLINGS + 1):
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


def _build(problem, name):
    """A handle built afresh; a name may carry ("Keta", eta)."""
    if isinstance(name, tuple):
        return operators.build(name[0], problem, {"eta": name[1]})
    return operators.build(name, problem)


def _pairs(problem, names):
    return [(_build(problem, a), _build(problem, b)) for a, b in names]


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
    def _check(self, pairs, domain):
        certs = certify.certify_homotopies(pairs, domain)
        assert len(certs) == len(pairs)
        for (hA, hB), cert in zip(pairs, certs):
            ref = _certify_one(hA, hB, domain)
            for f in fields(HomotopyCertificate):
                assert getattr(cert, f.name) == getattr(ref, f.name), (cert.pair, f.name)
        return certs

    def test_p3_run_pairs_over_the_pullback(self):
        vr = certify.default_pullback(P3.default_U2())
        certs = self._check(_pairs(P3, P3_RUN), vr)
        assert all(c.admissible for c in certs)

    def test_standalone_p3_maps_only_its_own_lifts(self, monkeypatch):
        # with no run memo, no lift of a later pass is queued: the first pass's
        # K1 flow maps the endpoints of its own samples only (308 states, where
        # it mapped 776 with those of the later passes, which then integrated
        # them again), and each certificate is that of its pair alone
        p3 = replace(P3, m=128)
        pairs, vr = _pairs(p3, P3_RUN[:2]), certify.default_pullback(p3.default_U2())
        states, rk4 = [], flows._rk4
        with monkeypatch.context() as patch:
            patch.setattr(flows, "_rk4", lambda rhs, y0, *a, **k:
                          states.append(len(y0)) or rk4(rhs, y0, *a, **k))
            certs = certify.certify_homotopies(pairs, vr)
        assert (sum(states), len(states), states[0]) == (1552, 9, 308)
        assert certs == [_certify_one(hA, hB, vr) for hA, hB in pairs]

    def test_p1_ball_sample_counts_grow(self):
        names = (("K", "Kgamma"), ("K", "K1"), ("K4", "K3"), (("Keta", -1.0), "Khat3"))
        certs = self._check(_pairs(P1, names), P1.default_U1())
        # K ~ K1 refines once more than the others: the live set shrinks
        assert sorted(c.refinements for c in certs) == [2, 2, 2, 3]

    def test_p6_delay_pair(self):
        self._check(_pairs(P6, (("Kdelay", "Kdelay1"),)), P6.default_U1())

    @pytest.mark.parametrize("max_doublings,boundary_samples", [(0, 16), (1, 16), (4, 16),
                                                                (4, 1)])
    @pytest.mark.parametrize("problem,names", [(P6, ("Kdelay", "Kdelay1")), (P1, ("K", "K1"))],
                             ids=["p6", "p1"])
    def test_ball_pass_equals_one_curve_call_per_level(self, problem, names, max_doublings,
                                                       boundary_samples, monkeypatch):
        # a ball's levels 0-2 share one pass, scored per segment: each level's
        # curve, and so each certificate, equals one made of a _boundary_curves
        # call per level on that level's own samples, under the same stop rule
        pair = _pairs(problem, (names,))[0]
        domain, unflat = problem.default_U1(), certify._unflattener(pair[0])
        counts = [boundary_samples * 2 ** lv for lv in range(max_doublings + 1)]
        grids = [np.linspace(0.0, 1.0, 8 * 2 ** lv + 1) for lv in range(max_doublings + 1)]
        curves = []
        for n, lams in zip(counts, grids):
            samples = certify._domain_boundary_samples(pair[0], domain, [n],
                                                       certify.DEFAULT_SEED)[0]
            curves += certify._boundary_curves([pair], samples, unflat, [lams],
                                               [len(samples)])[0]
        span = min(2, max_doublings) + 1
        samples, ends = certify._domain_boundary_samples(pair[0], domain, counts[:span],
                                                         certify.DEFAULT_SEED)
        shared = certify._boundary_curves([pair], samples, unflat, grids[:span], ends)[0]
        assert all(np.array_equal(a, b) for a, b in zip(shared, curves[:span]))
        hist = []
        for lv, curve in enumerate(curves):
            hist.append(min(hist + [float(np.min(curve))]))
            if lv >= 2 and hist[-2] > 0 and abs(hist[-1] - hist[-2]) < 0.2 * hist[-2]:
                break
        monkeypatch.setattr(certify, "BOUNDARY_SAMPLES", boundary_samples)
        monkeypatch.setattr(certify, "MAX_DOUBLINGS", max_doublings)
        cert = certify.certify_homotopies([pair], domain)[0]
        assert cert.min_residual == hist[-1] and cert.refinements == len(hist) - 1
        assert cert.residual_curve == tuple(curve)

    def test_duplicated_pair(self):
        certs = self._check(_pairs(P1, (("K", "Kgamma"), ("K", "Kgamma"))), P1.default_U1())
        assert certs[0] == certs[1]

    def test_unstable_pair_at_max_doublings_2(self, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(certify, "MAX_DOUBLINGS", 2)
            certs = self._check([(DIP, ZERO), (HALF, ZERO)], SQUARE)
        assert [c.stable for c in certs] == [False, True]
        assert not certs[0].admissible
        # with room to refine, Dip runs on alone after Half stops at level 2
        certs = self._check([(DIP, ZERO), (HALF, ZERO)], SQUARE)
        assert [c.refinements for c in certs] == [4, 2]

    def _handle_calls_per_block(self, monkeypatch, floats):
        monkeypatch.setattr(degree, "STACK_FLOATS", floats)
        calls, sizes, flow_calls = {}, [], []
        flow = flows.flow
        monkeypatch.setattr(flows, "flow",
                            lambda f, x0, grid: flow_calls.append(np.size(x0)) or flow(f, x0, grid))

        def counted(h):
            def apply_fn(x):
                calls.setdefault((h.name, repr(h.params)), []).append(len(x.values))
                sizes.append((len(x.values), x.values.size))
                return h.apply_fn(x)
            return replace(h, apply_fn=apply_fn)

        # a run copy: Ktilde's K2 reads the rows K1's flow stored in its memo
        pairs = [(counted(a), counted(b))
                 for a, b in _pairs(operators.run_copy(P3, P3.m), P3_RUN)]
        vr = certify.default_pullback(P3.default_U2())
        certs = certify.certify_homotopies(pairs, vr)
        assert all(c.refinements == 2 for c in certs)
        # the pullback lattice saturates at 24 per axis: level 1 (32 samples
        # asked) and level 2 (64) build one sample set and share one pass
        samples = [certify._domain_boundary_samples(pairs[0][0], vr, [n],
                                                    certify.DEFAULT_SEED)[0]
                   for n in (16, 32, 64)]
        assert np.array_equal(samples[1], samples[2])
        rows = floats // samples[0].shape[1]
        blocks = [len(x[lo:lo + rows]) for x in samples[:2]
                  for lo in range(0, len(x), rows)]
        distinct = {(h.name, repr(h.params)) for pair in pairs for h in pair}
        assert len(distinct) == 10
        # K1's flow of x(T) runs once, before the blocks of level 0's pass, over
        # the samples of both passes: K1 alone is not mapped per block, and the
        # pass of levels 1-2 reads its lifts from the run memo
        assert calls == {key: blocks for key in distinct - {("K1", "{}")}}
        assert len(flow_calls) == 1
        assert all(n == 1 or size <= floats for n, size in sizes)
        assert all(size <= floats for size in flow_calls)

    def test_ball_level_reads_the_rows_of_the_levels_before(self, monkeypatch):
        # a ball's level-3 samples start with those of levels 0-2, whose
        # endpoints K1's flow stored in the run memo: the level-3 pass
        # integrates only the new ones (63 of its 130 samples' endpoints)
        p = operators.run_copy(problems.get_problem("p1"), 64)
        rows, rk4 = [], flows._rk4
        monkeypatch.setattr(flows, "_rk4", lambda rhs, y0, *a, **k:
                            rows.append(len(y0)) or rk4(rhs, y0, *a, **k))
        pair = (operators.build("K", p), operators.build("K1", p))
        cert = certify.certify_homotopies([pair], p.default_U1())[0]
        assert cert.refinements == 3 and rows == [65, 63]

    def test_each_distinct_handle_once_per_block_per_pass(self, monkeypatch):
        self._handle_calls_per_block(monkeypatch, STACK_FLOATS)

    def test_each_distinct_handle_once_per_block_of_99_rows(self, monkeypatch):
        # rows of 66 floats: 99 rows and 65 floats to spare, so a 100th row
        # would break the budget
        self._handle_calls_per_block(monkeypatch, 99 * 66 + 65)

    @pytest.mark.parametrize("problem,domain,seed", [
        (P1, certify.default_pullback(P1.default_U2()), 7),
        (P3, certify.default_pullback(P3.default_U2()), 7),
        (None, SQUARE, 7)] + [
        (problem, ball, seed) for problem, ball in (
            (P1, P1.default_U1()), (P6, P6.default_U1()),
            (P1, certify.FunctionBall(0.5, constant(P1.grid(), [0.25]))))
        for seed in (7, certify.DEFAULT_SEED)],
        ids=["pullback-1d", "pullback-2d", "box", "ball", "ball-default-seed", "ball-p6",
             "ball-p6-default-seed", "ball-centred", "ball-centred-default-seed"])
    def test_equal_resolution_equal_samples(self, problem, domain, seed):
        # a lattice level shares the pass of the level before iff their
        # resolutions agree, and then their samples are equal; a ball level
        # always does, and its samples are the first rows of the next level's
        # and, as the pass's ends say, of the finest level's
        h = ZERO if problem is None else operators.build(
            "Kdelay" if problem.kind == "periodic_dde" else "K", problem)
        counts = [16 * 2 ** lv for lv in range(5)]
        samples = [certify._domain_boundary_samples(h, domain, [n], seed)[0] for n in counts]
        ball = isinstance(domain, certify.FunctionBall)
        for lv, (a, b) in enumerate(zip(samples, samples[1:])):
            same = certify._shares_pass(domain, counts[lv], counts[lv + 1])
            if ball:
                assert same and len(a) < len(b) and np.array_equal(a, b[:len(a)])
            else:
                assert same == (a.shape == b.shape and np.array_equal(a, b))
        if ball:
            finest, ends = certify._domain_boundary_samples(h, domain, counts, seed)
            assert np.array_equal(finest, samples[-1])
            assert all(np.array_equal(finest[:end], a) for end, a in zip(ends, samples))

    @pytest.mark.parametrize("lambda_steps", [7, 10])
    def test_other_lambda_steps(self, lambda_steps, monkeypatch):
        monkeypatch.setattr(certify, "LAMBDA_STEPS", lambda_steps)
        vr = certify.default_pullback(P3.default_U2())
        self._check(_pairs(P3, P3_RUN[:3]), vr)
        self._check(_pairs(P1, (("K", "K1"),)), P1.default_U1())

    def test_lambda_union_of_grids_not_nested(self):
        # 7, 10 and 13 points: no grid is nested in another
        grids = [np.linspace(0.0, 1.0, n) for n in (7, 10, 13)]
        pairs = _pairs(P1, (("K", "Kgamma"), ("K", "K1"), ("K1", "Kgamma")))
        samples = certify._domain_boundary_samples(pairs[0][0], P1.default_U1(), [32],
                                                   certify.DEFAULT_SEED)[0]
        unflat = certify._unflattener(pairs[0][0])
        together = certify._boundary_curves(pairs, samples, unflat, grids,
                                            [len(samples)] * len(grids))
        for j, lams in enumerate(grids):
            alone = certify._boundary_curves(pairs, samples, unflat, [lams], [len(samples)])
            for curves, ref in zip(together, alone):
                assert len(curves[j]) == len(lams)
                assert np.array_equal(curves[j], ref[0])


P3_128 = replace(P3, m=128)
# every periodic grid operator; each block of a p3 pass gives them one x
PERIODIC_GRID = ("K", "K1", "K3", "K4", "K5", "Kgamma", ("Keta", 1.0), ("Keta", -1.0),
                 "Khat3", "Ktilde")


class TestSharedGridQuantities:
    """Handles applied to one GridFunction read its Nemytskii image, average,
    cumulative integral and mean-free part from its memo."""

    @staticmethod
    def _first_block(problem):
        vr = certify.default_pullback(problem.default_U2())
        h = operators.build("K", problem)
        samples = certify._domain_boundary_samples(h, vr, [16], certify.DEFAULT_SEED)[0]
        return certify._unflattener(h)(samples[:degree._stack_rows(samples.shape[1])])

    def test_shared_images_equal_fresh_ones(self):
        x = self._first_block(P3_128)
        assert len(x.values) > 1
        handles = [_build(P3_128, name) for name in PERIODIC_GRID]
        shared = [h.apply_fn(x).values for h in handles]
        assert x._memo  # the block's quantities were shared
        for h, image in zip(handles, shared):
            fresh = GridFunction(x.grid, x.values.copy())
            assert np.array_equal(image, h.apply_fn(fresh).values), h.name

    def test_one_superposition_per_block(self, monkeypatch):
        calls = []
        superpose = gridfn._superpose
        monkeypatch.setattr(gridfn, "_superpose",
                            lambda f, x, *d: calls.append(len(x.values)) or superpose(f, x, *d))
        pairs = _pairs(P3_128, P3_RUN)
        vr = certify.default_pullback(P3_128.default_U2())
        assert all(c.refinements == 2 for c in certify.certify_homotopies(pairs, vr))
        # levels 1 and 2 share one pass, so two passes in all
        rows = degree._stack_rows((P3_128.m + 1) * P3_128.dim)
        samples = (certify._domain_boundary_samples(pairs[0][0], vr, [n],
                                                    certify.DEFAULT_SEED)[0] for n in (16, 32))
        blocks = [len(x[lo:lo + rows]) for x in samples for lo in range(0, len(x), rows)]
        assert len(blocks) > 2 and calls == blocks

    def test_value_equal_field_shares_the_image(self):
        x = GridFunction(P3.grid(), _smooth_stack(P3.grid(), 3, 2))
        nx = gridfn.nemytskii(P3.field(), x)
        assert gridfn.nemytskii(P3.field(), x) is nx
        other = replace(P3.field(), rhs=lambda t, y: 2.0 * y)
        assert np.array_equal(gridfn.nemytskii(other, x).values, 2.0 * x.values)
        assert gridfn.average(x) is gridfn.average(x)
        assert not gridfn.average(x).flags.writeable
        assert gridfn.cumulative_integral(x) is gridfn.cumulative_integral(x)

    def test_memo_outside_eq_and_repr(self):
        x = GridFunction(P3.grid(), _smooth_stack(P3.grid(), 1, 2)[0])
        twin = replace(x)  # the same values array, an empty memo
        gridfn.centred(gridfn.nemytskii(P3.field(), x))
        assert x._memo and not twin._memo
        assert x == twin and repr(x) == repr(twin) and "_memo" not in repr(x)

    def test_memo_dies_with_its_function(self):
        x = GridFunction(P3.grid(), _smooth_stack(P3.grid(), 1, 2)[0])
        ref = weakref.ref(gridfn.nemytskii(P3.field(), x))
        assert ref() is not None
        del x
        assert ref() is None


class TestBroadcastForms:
    """Each grid operation that spreads a per-function term on the nodes, or
    sums over the nodes, gives the bits of its numpy broadcast form, signed
    zeros included, for n = 1 and 2, on one function and on a stack."""

    GRID = Grid(0.0, 1.0, 32)
    KERNEL = DelayKernel(0.25, 1.0)

    @staticmethod
    def _rhs(t, x):
        return 0.5 * x[..., ::-1] * x - np.cos(2 * np.pi * np.asarray(t))[..., None] * x

    @staticmethod
    def _delay_rhs(t, x, xd):
        return -x + 0.5 * xd * xd[..., ::-1]

    def _problem(self, kind, n, linear=False):
        delay = kind == "periodic_dde"
        rhs = self._delay_rhs if delay else self._rhs
        if linear:  # finite wherever x is, so only the grid arithmetic overflows
            rhs = (lambda t, x, xd: xd) if delay else (lambda t, x: x)
        fkind = {"periodic_dde": flows.DELAY, "dirichlet_bvp": flows.SECOND_ORDER}
        f = VectorFieldSpec(dim=n, period=1.0, kind=fkind.get(kind, flows.NONDELAY),
                            rhs=rhs, lipschitz=1.0, tau=self.KERNEL.tau if delay else None)
        return SimpleNamespace(kind=kind, field=lambda: f, grid=lambda: self.GRID,
                               kernel=lambda: self.KERNEL)

    def _stack(self, n, stacked):
        """Smooth functions with some entries ±0.0, a zero and a -0.0 function."""
        vals = _smooth_stack(self.GRID, 3, n)
        vals[0, ::5, 0], vals[1, 3::7, -1] = 0.0, -0.0
        vals = np.concatenate([vals, np.zeros((1, 33, n)), np.full((1, 33, n), -0.0)])
        return vals if stacked else vals[1]

    def _avg(self, v):
        g = self.GRID
        return g.h * (np.sum(v, axis=-2) - 0.5 * (v[..., 0, :] + v[..., -1, :])) / g.length

    def _cum(self, v):
        out = np.zeros_like(v)
        out[..., 1:, :] = np.cumsum(0.5 * self.GRID.h * (v[..., :-1, :] + v[..., 1:, :]), axis=-2)
        return out

    def _superposed(self, kind, x):
        t = self.GRID.nodes
        if kind != "periodic_dde":
            return self._rhs(t, x)
        idx = np.arange(33) - self.KERNEL.shift_steps(self.GRID)
        idx[idx < 0] += 32
        return self._delay_rhs(t, x, x[..., idx, :])

    def _mean_centred(self, kind, x, sign, centred, periodic_out):
        nx = self._superposed(kind, x)
        v = self._cum(nx - self._avg(nx)[..., None, :] if centred else nx)
        vals = (self._avg(x)[..., None, :] + sign * 1.0 * self._avg(nx)[..., None, :]
                - self._avg(v)[..., None, :]) + v
        if periodic_out:
            vals[..., -1, :] = vals[..., 0, :]
        return vals

    def _k4(self, kind, x):
        vn = self._cum(self._superposed(kind, x))
        return (self._avg(x) + vn[..., -1, :] - self._avg(vn))[..., None, :] + vn

    def _keta(self, eta, x):
        t = self.GRID.nodes[:, None]
        g = self._rhs(self.GRID.nodes, x) + eta * x
        cum = self._cum(np.exp(eta * t) * g)
        y = np.exp(-eta * t) * (cum[..., -1:, :] / np.expm1(eta) + cum)
        y[..., -1, :] = y[..., 0, :]
        return y

    FORMS = {
        "K": ("periodic_ode", lambda self, x: x[..., -1:, :] + self._cum(
            self._superposed("periodic_ode", x))),
        "K3": ("periodic_ode", lambda self, x: self._mean_centred(
            "periodic_ode", x, 1.0, True, False)),
        "Khat3": ("periodic_ode", lambda self, x: self._mean_centred(
            "periodic_ode", x, -1.0, True, False)),
        "K5": ("periodic_ode", lambda self, x: self._mean_centred(
            "periodic_ode", x, 1.0, True, True)),
        "K4": ("periodic_ode", lambda self, x: self._k4("periodic_ode", x)),
        "Kgamma": ("periodic_ode", lambda self, x: self._k4("periodic_ode", x)),
        "Keta+": ("periodic_ode", lambda self, x: self._keta(1.5, x)),
        "Keta-": ("periodic_ode", lambda self, x: self._keta(-1.5, x)),
        "Kdelay": ("periodic_dde", lambda self, x: x[..., -1:, :] + self._cum(
            self._superposed("periodic_dde", x))),
        "K6": ("periodic_dde", lambda self, x: self._mean_centred(
            "periodic_dde", x, 1.0, False, False)),
        "K7": ("periodic_dde", lambda self, x: self._mean_centred(
            "periodic_dde", x, 1.0, True, False)),
        "K8": ("periodic_dde", lambda self, x: self._mean_centred(
            "periodic_dde", x, 1.0, True, True)),
    }

    @staticmethod
    def _build(name, problem):
        if name.startswith("Keta"):
            return operators.build("Keta", problem, {"eta": 1.5 if name[-1] == "+" else -1.5})
        return operators.build(name, problem)

    @pytest.mark.parametrize("stacked", [True, False], ids=["stack", "one"])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("name", list(FORMS))
    def test_operator(self, name, n, stacked):
        kind, form = self.FORMS[name]
        x = self._stack(n, stacked)
        got = self._build(name, self._problem(kind, n)).apply_fn(GridFunction(self.GRID, x))
        assert _same_bits(got.values, form(self, x))

    @pytest.mark.parametrize("stacked", [True, False], ids=["stack", "one"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_centred(self, n, stacked):
        x = self._stack(n, stacked)
        got = gridfn.centred(GridFunction(self.GRID, x)).values
        assert _same_bits(got, x - self._avg(x)[..., None, :])
        # x - mean, not -(mean - x): the zero function stays +0.0
        if stacked:
            assert not np.signbit(got[-2]).any() and np.signbit(got[-1]).all()

    # Keta- stays finite here: its g = (1 + eta) x is -x/2
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("name", [name for name in FORMS if name != "Keta-"] + ["Kdir"])
    def test_overflow_named(self, name, n):
        # an input whose node sums, integrals or per-function terms overflow is
        # refused by IntegrationError, with no numpy warning (an error under
        # pytest's filter): a non-finite grid function, or the eta solve's overflow
        kind = self.FORMS[name][0] if name in self.FORMS else "dirichlet_bvp"
        x = GridFunction(self.GRID, np.full((2, 33, n), 1e308))
        if name == "Kdir":
            x = operators.C1Function(x, np.zeros((2, n)))
        h = self._build(name, self._problem(kind, n, linear=True))
        with pytest.raises(IntegrationError,
                           match="overflows" if name.startswith("Keta") else "finite"):
            h.apply_fn(x)

    @pytest.mark.parametrize("n", [1, 2])
    def test_centred_overflow_named(self, n):
        x = GridFunction(self.GRID, np.full((2, 33, n), 1e308))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(IntegrationError, match=r"must be finite \(no NaN/Inf\)"):
            gridfn.centred(x)


class TestBlockSizeInvariance:
    """Results do not depend on how many rows ride in one stacked call."""

    # one row per call, the default budget, all rows in one call
    BUDGETS = (1, STACK_FLOATS, 2 ** 62)

    def _each_budget(self, monkeypatch, run):
        out = []
        for floats in self.BUDGETS:
            monkeypatch.setattr(degree, "STACK_FLOATS", floats)
            out.append(run())
        return out

    def test_map_rows_delay_history_map(self, monkeypatch):
        h = operators.build("Kdelay2", P6)
        X = np.random.default_rng(3).uniform(-1.0, 1.0, (40, P6.default_U2().dim))
        calls = []

        def g(x):
            calls.append(len(x))
            return h.apply_fn(x)

        first, *rest = self._each_budget(monkeypatch, lambda: degree._map_rows(g, X))
        assert calls == [1] * len(X) + [len(X), len(X)]
        assert all(np.array_equal(first, r) for r in rest)

    def test_certificates_p3_pullback(self, monkeypatch):
        vr = certify.default_pullback(P3.default_U2())
        first, *rest = self._each_budget(
            monkeypatch, lambda: certify.certify_homotopies(_pairs(P3, P3_RUN), vr))
        assert all(r == first for r in rest)

    def test_certificates_p1_ball(self, monkeypatch):
        names = (("K", "Kgamma"), ("K", "K1"), ("K4", "K3"), (("Keta", -1.0), "Khat3"))
        first, *rest = self._each_budget(
            monkeypatch, lambda: certify.certify_homotopies(_pairs(P1, names),
                                                            P1.default_U1()))
        assert all(r == first for r in rest)


def _random_block(rng, case, rows, cols):
    """(base, delta) of a block; column magnitudes spread over 1e-8 to 1e8."""
    scale = 10.0 ** rng.uniform(-8.0, 8.0, cols)
    if case == "ties":  # few distinct values, and half the rows repeat the first
        base, delta = rng.integers(-3, 4, (2, rows, cols)) * scale
        base[:rows // 2], delta[:rows // 2] = base[0], delta[0]
    else:
        base, delta = rng.standard_normal((2, rows, cols)) * scale
    if case == "b == a":
        delta[:] = 0.0
    if case == "half a == b":
        delta[:, ::2] = 0.0
    return base, delta


CASES = ["random", "ties", "b == a", "half a == b"]


def _overflow_block(rng, rows, cols):
    """(base, delta) whose entries overflow at lam > 0: bounds not finite."""
    return rng.uniform(0.9, 1.0, (2, rows, cols)) * 1.7e308


def _score(curves, base, delta, lams):
    """``certify._score_pairs`` on copies of the curves, with a work buffer of the
    chunk's floats; the curves it lowered and the entries it scored per lambda."""
    got = curves.copy()
    scored = certify._score_pairs(got, base, delta, lams, np.empty(base.size))
    return got, scored


class TestPrunedScoring:
    """``certify._score_pairs`` scores only what can hold a block's minimum, for
    a chunk of pairs at once; each pair's running curve it lowers is the dense
    loop's, bit for bit."""

    @pytest.mark.parametrize("n_lam", [2, 7, 9, 33, 129])
    @pytest.mark.parametrize("case", CASES)
    def test_equals_the_dense_loop(self, case, n_lam):
        # chunks of 1, 3 and 9 pairs; past the first, a chunk mixes the cases (all
        # four in 9 pairs) and ends with a pair whose bounds overflow
        rng = np.random.default_rng(n_lam)
        lams = np.linspace(0.0, 1.0, n_lam)
        for P in (1, 3, 9):
            for rows, cols in [(1, 1), (1, 40), (30, 1), (25, 60), (127, 258)]:
                cases = [CASES[(CASES.index(case) + p) % 4] for p in range(P)]
                blocks = [_random_block(rng, c, rows, cols) for c in cases]
                if P > 1:
                    blocks[-1] = _overflow_block(rng, rows, cols)
                base, delta = (np.stack(part) for part in zip(*blocks))
                with np.errstate(over="ignore"):
                    want = np.stack([_dense_minima(b, d, lams) for b, d in blocks])
                    # fresh curves, and ones that cross the blocks' minima
                    for curves in (np.full((P, n_lam), np.inf),
                                   want * rng.uniform(0.5, 1.5, (P, n_lam))):
                        got = _score(curves, base, delta, lams)[0]
                        assert np.array_equal(got, np.minimum(curves, want))

    def test_overflow_block_keeps_every_entry(self):
        base, delta = _overflow_block(np.random.default_rng(5), 6, 7)
        lams = np.linspace(0.0, 1.0, 9)
        with np.errstate(over="ignore"):
            want = _dense_minima(base, delta, lams)
            got, scored = _score(np.full((1, 9), np.inf), base[None], delta[None], lams)
        assert np.isfinite(want[0]) and np.isinf(want[1:]).all()
        assert np.array_equal(got[0], want)
        # past the best row's 7 entries and the 2 bound entries of each of 6 rows
        assert scored - 7 - 2 * 6 == base.size

    @staticmethod
    def _counted(monkeypatch) -> list:
        """The (pairs, rows, N) shape, lambdas and entries scored of each call."""
        calls, score = [], certify._score_pairs

        def counted(curves, base, delta, lams, work):
            scored = score(curves, base, delta, lams, work)
            calls.append((base.shape, len(lams), scored))
            return scored

        monkeypatch.setattr(certify, "_score_pairs", counted)
        return calls

    def test_p3_run_pairs_score_few_entries(self, monkeypatch):
        # a return to dense scoring fails here, not only in the benchmark
        calls = self._counted(monkeypatch)
        vr = certify.default_pullback(P3_128.default_U2())
        certify.certify_homotopies(_pairs(P3_128, P3_RUN), vr)
        blocks = sum(np.prod(shape) * n_lam for shape, n_lam, _ in calls)
        assert 0 < sum(scored * n_lam for _, n_lam, scored in calls) < 0.1 * blocks

    @pytest.mark.parametrize("pid,m,peak_mib", [("p3", 128, 5.98 + 0.2), ("p1", 64, 0.42 + 0.1)])
    def test_certificates_peak_memory(self, pid, m, peak_mib):
        # the tracemalloc peak of the standalone run pairs after a first call has
        # filled the grid caches, with base, delta and the scored lambdas in the
        # pass's scratch: 5.98 and 0.42 MiB, here bounded with a slack of 0.2 and
        # 0.1 MiB.  Fresh (pairs, rows, N) arrays per chunk peaked at 6.48 and 0.66
        problem = replace(problems.get_problem(pid), m=m)
        pairs, vr = _pairs(problem, P3_RUN), certify.default_pullback(problem.default_U2())
        certify.certify_homotopies(pairs, vr)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            certify.certify_homotopies(pairs, vr)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < peak_mib * 2 ** 20

    @pytest.mark.parametrize("pid,m,want", [
        ("p1", 64, [(9, 14, 65)]), ("p2", 64, [(9, 14, 65)]),
        ("p3", 128, [(1, 54, 258), (1, 87, 258), (1, 127, 258)])])
    def test_one_call_per_chunk_of_pairs(self, pid, m, want, monkeypatch):
        # p1 and p2 at m = 64: one pass of one 14-sample block, whose 9 x 14 x 65
        # floats fit the float budget, so all 9 pairs score in one call; p3 at
        # m = 128: a 127-row block fills the budget, so each pair takes its own
        calls = self._counted(monkeypatch)
        passes, curves = [], certify._boundary_curves
        monkeypatch.setattr(certify, "_boundary_curves",
                            lambda *args: passes.append(1) or curves(*args))
        assert problems.run(problems.get_problem(pid), "all", grid_m=m).verdict
        assert sorted({shape for shape, _, _ in calls}) == want
        assert len(calls) == (len(passes) if pid != "p3" else 63)
