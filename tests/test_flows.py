import numpy as np
import pytest

from dualdeg import flows
from dualdeg.flows import IntegrationError, SingularEtaError, VectorFieldSpec
from dualdeg.gridfn import Grid, GridFunction, constant


def _field(rhs, dim=1, period=1.0, kind=flows.NONDELAY, lip=1.0, tau=None):
    return VectorFieldSpec(dim=dim, period=period, kind=kind, rhs=rhs,
                           lipschitz=lip, tau=tau)


DECAY = _field(lambda t, x: -x)
ROTATION = _field(lambda t, x: np.stack([x[..., 1], -x[..., 0]], axis=-1), dim=2,
                  period=2 * np.pi)
FORCED = _field(lambda t, x: -x + np.expand_dims(np.cos(2 * np.pi * t), -1))


class TestVectorFieldSpec:
    @pytest.mark.parametrize("lip,shown", [(-1.0, "-1.0"), (np.inf, "inf"), (np.nan, "nan")])
    def test_bad_lipschitz_named(self, lip, shown):
        with pytest.raises(ValueError,
                           match=f"lipschitz bound must be finite and >= 0, got {shown}$"):
            _field(lambda t, x: -x, lip=lip)


class TestFlow:
    def test_zero_field_constant(self):
        f = _field(lambda t, x: 0.0 * x, lip=0.0)
        res = flows.flow(f, [3.0], Grid(0.0, 1.0, 16))
        np.testing.assert_allclose(res.values, 3.0)
        assert res.values[-1, 0] == 3.0

    def test_exponential_decay(self):
        res = flows.flow(DECAY, [1.0], Grid(0.0, 1.0, 64))
        assert res.values[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-6)

    def test_rotation_half_turn(self):
        res = flows.flow(ROTATION, [1.0, 0.0], Grid(0.0, np.pi, 128))
        np.testing.assert_allclose(res.values[-1], [-1.0, 0.0], atol=1e-6)

    def test_endpoint_is_last_node(self):
        np.testing.assert_array_equal(flows.poincare(DECAY, [1.0], m=32),
                                      flows.flow(DECAY, [1.0], Grid(0.0, 1.0, 32)).values[-1])

    def test_deterministic(self):
        a = flows.flow(FORCED, [0.3], Grid(0.0, 1.0, 64)).values
        b = flows.flow(FORCED, [0.3], Grid(0.0, 1.0, 64)).values
        np.testing.assert_array_equal(a, b)

    def test_blowup_raises(self):
        f = _field(lambda t, x: x ** 2, lip=100.0)
        with pytest.raises(IntegrationError):
            flows.flow(f, [5.0], Grid(0.0, 1.0, 64))

    def test_kind_mismatch(self):
        f = _field(lambda t, x: x, kind=flows.SECOND_ORDER)
        with pytest.raises(ValueError, match="nondelay"):
            flows.flow(f, [1.0], Grid(0.0, 1.0, 8))

    def test_rk4_order(self):
        exact = np.exp(-1.0)
        err = [abs(flows.flow(DECAY, [1.0], Grid(0.0, 1.0, m)).values[-1, 0] - exact)
               for m in (32, 64)]
        assert err[0] / err[1] >= 12.0

    def test_semigroup(self):
        whole = flows.flow(DECAY, [1.0], Grid(0.0, 1.0, 64)).values[-1]
        half = flows.flow(DECAY, [1.0], Grid(0.0, 0.5, 32)).values[-1]
        two = flows.flow(DECAY, half, Grid(0.5, 1.0, 32)).values[-1]
        assert abs(two[0] - whole[0]) <= 1e-8 * abs(whole[0])

    def test_gronwall_surrogate(self):
        # declared Lipschitz bound l = 1 for x' = -x over T = 1
        gap = 0.25
        a = flows.flow(DECAY, [1.0], Grid(0.0, 1.0, 64)).values
        b = flows.flow(DECAY, [1.0 + gap], Grid(0.0, 1.0, 64)).values
        spread = np.max(np.abs(a - b))
        assert spread <= (np.exp(DECAY.lipschitz * 1.0) - 1.0) * gap + gap * 1e-9


class TestPoincare:
    def test_zero_field_identity(self):
        f = _field(lambda t, x: 0.0 * x, lip=0.0)
        np.testing.assert_array_equal(flows.poincare(f, [0.7]), [0.7])

    def test_linear(self):
        assert flows.poincare(DECAY, [2.0])[0] == pytest.approx(2 * np.exp(-1), abs=1e-6)

    def test_forced_fixed_point(self):
        # P is affine: P(x) = e^{-1} x + c, so x* = c / (1 - e^{-1}).
        c = flows.poincare(FORCED, [0.0])[0]
        x_star = c / (1.0 - np.exp(-1.0))
        assert x_star == pytest.approx(1.0 / (1.0 + 4 * np.pi ** 2), abs=1e-5)
        assert flows.poincare(FORCED, [x_star])[0] == pytest.approx(x_star, abs=1e-8)

    def test_mu_periodic_matches_flow(self):
        mu = flows.mu_periodic(FORCED, [0.1], m=64)
        direct = flows.flow(FORCED, [0.1], Grid(0.0, 1.0, 64))
        np.testing.assert_array_equal(mu.values, direct.values)


SECOND_ZERO = _field(lambda t, x: 0.0 * x, kind=flows.SECOND_ORDER, lip=0.0)
SECOND_ID = _field(lambda t, x: x, kind=flows.SECOND_ORDER)


class TestDirichletSolves:
    def test_zero_field_linear_exact(self):
        sol = flows.mu_dirichlet(SECOND_ZERO, [2.0], [1.0], m=16)
        t = sol.grid.nodes
        np.testing.assert_allclose(sol.values[:, 0], 2.0 * t + 1.0, atol=1e-14)

    def test_sinh(self):
        sol = flows.mu_dirichlet(SECOND_ID, [1.0], [0.0])
        assert sol.values[-1, 0] == pytest.approx(np.sinh(1.0), abs=1e-6)

    def test_cosh(self):
        sol = flows.mu_dirichlet(SECOND_ID, [0.0], [1.0])
        assert sol.values[-1, 0] == pytest.approx(np.cosh(1.0), abs=1e-6)

    def test_shooting_zero_field(self):
        f = SECOND_ZERO
        np.testing.assert_allclose(flows.mu_dirichlet(f, [1.7], [0.0]).values[..., -1, :],
                                   [1.7], atol=1e-14)

    def test_shooting_sinh(self):
        assert flows.mu_dirichlet(SECOND_ID, [2.0], [0.0]).values[-1, 0] == pytest.approx(
            2 * np.sinh(1.0), abs=1e-6)

    def test_shooting_sine_node(self):
        f = _field(lambda t, x: -np.pi ** 2 * x, kind=flows.SECOND_ORDER, lip=10.0)
        assert abs(flows.mu_dirichlet(f, [1.0], [0.0]).values[-1, 0]) < 1e-5

    def test_kind_mismatch(self):
        with pytest.raises(ValueError, match="second_order"):
            flows.mu_dirichlet(DECAY, [0.0], [0.0])


class TestDdeFlow:
    def test_zero_field_constant_extension(self):
        f = _field(lambda t, x, y: 0.0 * x, kind=flows.DELAY, tau=0.5, lip=0.0)
        hg = Grid(-0.5, 0.0, 16)
        hist = GridFunction(hg, (hg.nodes + 2.0)[:, None])
        out = flows.dde_flow(f, hist, 1.0)
        np.testing.assert_allclose(out.values[17:], 2.0, atol=1e-14)

    def test_first_interval_linear(self):
        f = _field(lambda t, x, y: -y, kind=flows.DELAY, tau=1.0)
        hist = constant(Grid(-1.0, 0.0, 32), 1.0)
        out = flows.dde_flow(f, hist, 1.0)
        t = out.grid.nodes[32:]
        np.testing.assert_allclose(out.values[32:, 0], 1.0 - t, atol=1e-12)

    def test_unused_delay_matches_flow(self):
        f = _field(lambda t, x, y: -x + np.expand_dims(np.sin(2 * np.pi * t), -1),
                   kind=flows.DELAY, tau=0.5)
        hist = constant(Grid(-0.5, 0.0, 32), 0.3)
        out = flows.dde_flow(f, hist, 1.0)
        g = _field(lambda t, x: -x + np.expand_dims(np.sin(2 * np.pi * t), -1))
        ref = flows.flow(g, [0.3], Grid(0.0, 1.0, 64)).values[-1]
        assert abs(out.values[-1, 0] - ref[0]) < 1e-8

    def test_misaligned_horizon(self):
        f = _field(lambda t, x, y: -y, kind=flows.DELAY, tau=0.5)
        hist = constant(Grid(-0.5, 0.0, 16), 1.0)
        with pytest.raises(ValueError, match="multiple"):
            flows.dde_flow(f, hist, 1.0 + 0.3 * hist.grid.h)

    def test_wrong_history_span(self):
        f = _field(lambda t, x, y: -y, kind=flows.DELAY, tau=0.5)
        hist = constant(Grid(-1.0, 0.0, 16), 1.0)
        with pytest.raises(ValueError, match="history"):
            flows.dde_flow(f, hist, 1.0)

    def test_blowup_raises(self):
        # x' = 1000 x^3 from 50 overflows in the first steps: the sweep reports
        # it as IntegrationError, not as a numpy overflow warning
        f = _field(lambda t, x, y: 1e3 * x ** 3, kind=flows.DELAY, tau=0.5, lip=100.0)
        hist = constant(Grid(-0.5, 0.0, 16), 50.0)
        with pytest.raises(IntegrationError):
            flows.dde_flow(f, hist, 1.0)


class TestEtaPeriodicSolve:
    def test_constant(self):
        # g is constant so the trapezoid quadrature error is O(h^2)
        f = _field(lambda t, x: 0.0 * x, lip=0.0)
        x = constant(Grid(0.0, 1.0, 256), 2.5)
        y = flows.eta_periodic_solve(f, 1.0, x)
        np.testing.assert_allclose(y.values, 2.5, atol=1e-5)

    def test_amplitude(self):
        x = constant(Grid(0.0, 1.0, 256), 0.0)
        y = flows.eta_periodic_solve(FORCED, 1.0, x)
        amp = 1.0 / np.sqrt(1.0 + 4 * np.pi ** 2)
        assert np.max(np.abs(y.values)) == pytest.approx(amp, abs=1e-4)

    def test_fixes_true_solution(self):
        g = Grid(0.0, 1.0, 256)
        w = 2 * np.pi
        vals = ((np.cos(w * g.nodes) + w * np.sin(w * g.nodes)) /
                (1.0 + w * w))[:, None]
        vals[-1] = vals[0]
        x = GridFunction(g, vals)
        y = flows.eta_periodic_solve(FORCED, 1.0, x)
        assert np.max(np.abs(y.values - x.values)) <= 5e-5

    def test_singular_eta(self):
        x = constant(Grid(0.0, 1.0, 32), 0.0)
        with pytest.raises(SingularEtaError):
            flows.eta_periodic_solve(FORCED, 0.0, x)

    @pytest.mark.parametrize("eta", [709.0, -709.0])
    def test_largest_eta_is_finite(self, eta):
        # exp(709) f is finite for |f| <= 1: the solve runs, and a GridFunction
        # holds only finite values
        x = constant(Grid(0.0, 1.0, 32), 0.0)
        assert flows.eta_periodic_solve(FORCED, eta, x).grid == x.grid

    @pytest.mark.parametrize("eta,x0", [(710.0, 0.0), (-710.0, 0.0), (800.0, 0.0),
                                        (705.0, 1.0)])
    def test_overflowing_eta(self, eta, x0):
        # exp(|eta| T), or at eta = 705 exp(eta t) (f + eta x), overflows: a
        # named error, not a numpy warning and a non-finite GridFunction
        x = constant(Grid(0.0, 1.0, 32), x0)
        with pytest.raises(IntegrationError, match="overflows the eta-shifted periodic solve"):
            flows.eta_periodic_solve(FORCED, eta, x)
