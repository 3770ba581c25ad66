import numpy as np
import pytest

from dualdeg import certify, flows, gridfn, problems
from dualdeg.gridfn import Grid, GridFunction, constant
from dualdeg.operators import build, build_finite, residual
from dualdeg.problems import ProblemSpec

P1 = problems.get_problem("p1")
P4 = problems.get_problem("p4")
P6 = problems.get_problem("p6")

ZERO_F = ProblemSpec("zf", "periodic_ode", 1, 1.0, {"poly": [0.0]}, 0.0, 32,
                     1.0, ((-1.0, 1.0),))
DECAY_F = ProblemSpec("dec", "periodic_ode", 1, 1.0, {"poly": [0.0, -1.0]},
                      1.0, 64, 1.0, ((-1.0, 1.0),))


def _p1_solution(m=256):
    """Closed-form periodic solution of x' = -x + cos(2 pi t)."""
    g = Grid(0.0, 1.0, m)
    w = 2 * np.pi
    vals = ((np.cos(w * g.nodes) + w * np.sin(w * g.nodes)) / (1 + w * w))[:, None]
    vals[-1] = vals[0]
    return GridFunction(g, vals, periodic=True)


class TestBuildAndApply:
    def test_k2_is_poincare(self):
        h = build("K2", P1)
        np.testing.assert_array_equal(h.apply_fn(np.array([0.0])),
                                      flows.poincare(P1.field(), [0.0], m=P1.m))

    def test_k_zero_field_returns_constant(self):
        h = build("K", ZERO_F)
        t = ZERO_F.grid().nodes
        x = GridFunction(ZERO_F.grid(), (np.sin(2 * np.pi * t) + 0.3)[:, None])
        out = h.apply_fn(x)
        np.testing.assert_allclose(out.values, x.values[-1, 0], atol=1e-14)

    def test_keta_fixes_true_solution(self):
        h = build("Keta", P1, {"eta": 1.0})
        x = _p1_solution()
        assert residual(h, x) <= 5e-5

    def test_keta_requires_eta(self):
        with pytest.raises(ValueError, match="eta"):
            build("Keta", P1)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown"):
            build("Kbogus", P1)

    def test_kind_mismatch(self):
        with pytest.raises(ValueError, match="unknown dirichlet operator"):
            build("K3", P4)
        with pytest.raises(ValueError, match="incompatible"):
            build_finite("Kdir2", P1)


class TestResidual:
    def test_solution_residual_small(self):
        assert residual(build("K", P1), _p1_solution()) <= 5e-5

    def test_zero_field_constant_exact(self):
        h = build("K", ZERO_F)
        assert residual(h, constant(ZERO_F.grid(), 0.4)) == 0.0

    def test_perturbed_solution_large(self):
        x = _p1_solution()
        bump = GridFunction(x.grid, 0.1 * np.sin(np.pi * x.grid.nodes)[:, None] ** 2)
        assert residual(build("K", P1), x + bump) >= 1e-3


class TestSharedFixedPoints:
    """All periodic operators fix the computed periodic solution."""

    def test_residuals_at_computed_solution(self):
        hk = build("K", P1)
        fps = certify.find_fixed_points(hk, P1.default_U1())
        assert len(fps) == 1
        x = fps[0]
        for name, params in (("K", {}), ("K1", {}), ("K3", {}),
                             ("K4", {}), ("Kgamma", {}), ("K5", {}),
                             ("Keta", {"eta": 1.0})):
            assert residual(build(name, P1, params), x) <= 5e-5, name
        # the finite operator fixes exactly x*(0)
        k2 = build_finite("K2", P1)
        x0 = x.values[0]
        assert np.max(np.abs(k2.apply_fn(x0) - x0)) <= 5e-5

    def test_delay_family_residuals(self):
        fps = certify.find_fixed_points(build("K6", P6), P6.default_U1())
        assert len(fps) == 1
        for name in ("K6", "K7", "K8", "Kdelay", "Kdelay1"):
            assert residual(build(name, P6), fps[0]) <= 5e-5, name


class TestRightInverses:
    def test_periodic(self):
        x = build("Ktilde", P1).reduction.i(np.array([0.8]))
        assert x.values[-1, 0] == 0.8
        np.testing.assert_allclose(x.values, 0.8)

    def test_delay(self):
        grid = P6.grid()
        k = P6.kernel().shift_steps(grid)
        y = np.linspace(-1.0, 1.0, k + 1)
        x = build("Ktilde", P6).reduction.i(y)
        # copies the history segment onto [T - tau, T] ...
        np.testing.assert_array_equal(x.values[grid.m - k:, 0], y)
        # ... and freezes y(-tau) before it
        np.testing.assert_allclose(x.values[: grid.m - k, 0], y[0])


class TestConjugacyAndHats:
    def test_k5_is_periodic_extension_of_k3(self):
        x = _p1_solution()
        bump = GridFunction(x.grid, 0.2 * np.sin(np.pi * x.grid.nodes)[:, None] ** 2)
        y = x + bump
        k3 = build("K3", P1).apply_fn(y)
        k5 = build("K5", P1).apply_fn(y)
        np.testing.assert_array_equal(k5.values[:-1], k3.values[:-1])
        np.testing.assert_array_equal(k5.values[-1], k5.values[0])

    def test_hat3_sign_flip(self):
        # K3 and Khat3 differ exactly by 2 T mean(N(x))
        t = P1.grid().nodes
        x = GridFunction(P1.grid(), (0.3 + 0.3 * np.cos(2 * np.pi * t))[:, None])
        d = build("K3", P1).apply_fn(x) - build("Khat3", P1).apply_fn(x)
        nbar = gridfn.average(gridfn.nemytskii(P1.field(), x))
        assert abs(nbar[0]) > 0.1
        np.testing.assert_allclose(d.values, 2.0 * nbar[0], atol=1e-12)


class TestFiniteOperators:
    def test_k2_zero_field_identity(self):
        h = build_finite("K2", ZERO_F)
        np.testing.assert_allclose(h.apply_fn(np.array([0.3])), [0.3], atol=1e-14)

    def test_kdir2_zero_field_formula(self):
        zf = ProblemSpec("zd", "dirichlet_bvp", 1, 1.0, {"poly": [0.0]},
                         0.0, 32, 1.0, ((-1.0, 1.0), (-1.0, 1.0)))
        h = build_finite("Kdir2", zf)
        a, b = 0.7, -0.4
        out = h.apply_fn(np.array([a, b]))
        # mu(ta+b) = ta + b so K2(ta+b) = t[(a + b) + a] + 2b
        np.testing.assert_allclose(out, [2 * a + b, 2 * b], atol=1e-12)

    def test_khatp_backward_linear(self):
        h = build_finite("KhatP", DECAY_F)
        out = h.apply_fn(np.array([0.5]))
        assert out[0] == pytest.approx(0.5 * np.e, abs=1e-6)
