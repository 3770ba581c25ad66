import numpy as np
import pytest

from dualdeg import flows, gridfn
from dualdeg.gridfn import DelayKernel, Grid, GridFunction, constant


def _field(rhs, dim=1, period=1.0, kind=flows.NONDELAY, tau=None):
    return flows.VectorFieldSpec(dim=dim, period=period, kind=kind, rhs=rhs,
                                 lipschitz=1.0, tau=tau)


class TestGrid:
    def test_nodes(self):
        g = Grid(0.0, 1.0, 4)
        assert g.h == 0.25
        np.testing.assert_allclose(g.nodes, [0, 0.25, 0.5, 0.75, 1.0])

    def test_invalid(self):
        with pytest.raises(ValueError):
            Grid(1.0, 0.0, 4)
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 1)


class TestGridFunction:
    def test_nan_rejected(self):
        g = Grid(0.0, 1.0, 4)
        vals = np.zeros((5, 1))
        vals[2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            GridFunction(g, vals)

    def test_values_immutable(self):
        x = constant(Grid(0.0, 1.0, 4), 1.0)
        with pytest.raises(ValueError):
            x.values[0] = 2.0

    def test_arithmetic(self):
        g = Grid(0.0, 1.0, 4)
        x = constant(g, 2.0)
        y = constant(g, 3.0)
        assert (y - x).values[0, 0] == 1.0


class TestCumulativeIntegral:
    def test_zero(self):
        g = Grid(0.0, 1.0, 8)
        v = gridfn.cumulative_integral(constant(g, 0.0))
        assert v.sup_norm() == 0.0

    def test_constant_exact(self):
        g = Grid(0.0, 1.0, 8)
        v = gridfn.cumulative_integral(constant(g, 1.0))
        np.testing.assert_allclose(v.values[:, 0], g.nodes, atol=1e-15)

    def test_linear_exact(self):
        g = Grid(0.0, 1.0, 8)
        x = GridFunction(g, g.nodes[:, None])
        v = gridfn.cumulative_integral(x)
        assert v.values[-1, 0] == pytest.approx(0.5, abs=1e-15)


class TestDoubleCumulative:
    def test_zero(self):
        g = Grid(0.0, 1.0, 8)
        assert gridfn.double_cumulative_integral(constant(g, 0.0)).sup_norm() == 0.0

    def test_constant(self):
        g = Grid(0.0, 1.0, 8)
        v = gridfn.double_cumulative_integral(constant(g, 1.0))
        assert v.values[-1, 0] == pytest.approx(0.5, abs=1e-15)

    def test_linear(self):
        g = Grid(0.0, 1.0, 64)
        x = GridFunction(g, g.nodes[:, None])
        v = gridfn.double_cumulative_integral(x)
        assert v.values[-1, 0] == pytest.approx(1.0 / 6.0, abs=1e-3)


class TestAverage:
    def test_constant(self):
        g = Grid(0.0, 1.0, 8)
        assert gridfn.average(constant(g, 3.5))[0] == pytest.approx(3.5)

    def test_full_period_sine(self):
        g = Grid(0.0, 1.0, 64)
        x = GridFunction(g, np.sin(2 * np.pi * g.nodes)[:, None])
        assert abs(gridfn.average(x)[0]) < 1e-12

    def test_linear(self):
        g = Grid(0.0, 1.0, 8)
        x = GridFunction(g, g.nodes[:, None])
        assert gridfn.average(x)[0] == pytest.approx(0.5, abs=1e-15)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a, b) \
        and np.array_equal(np.signbit(a), np.signbit(b))


class TestNodeSumOrder:
    """``integral`` gives the bits of numpy's own node sum, ``np.sum`` along
    axis -2, whichever way it takes that sum; a numpy whose summation order
    changes fails here before any report digest moves."""

    @pytest.mark.parametrize("view", [False, True], ids=["contiguous", "view"])
    @pytest.mark.parametrize("lead", [(), (5,), (3, 4)], ids=["one", "stack", "stack2"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [8, 64, 127, 300])
    def test_equals_np_sum(self, m, n, lead, view):
        rng = np.random.default_rng([m, n, len(lead), view])
        shape = lead + (m + 1, 2 * n if view else n)
        # magnitudes over 16 decades, so any change of order moves the sum
        w = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
        w[rng.random(shape) < 0.1] = -0.0
        w[rng.random(shape) < 0.1] = 0.0
        v = w[..., :n] if view else w
        grid = Grid(0.0, 2.0, m)
        ref = grid.h * (np.sum(v, axis=-2) - 0.5 * (v[..., 0, :] + v[..., -1, :]))
        assert _same_bits(gridfn.integral(GridFunction(grid, v)), ref)

    @pytest.mark.parametrize("n", [1, 2])
    def test_signed_zero_functions(self, n):
        grid = Grid(0.0, 1.0, 16)
        for z in (0.0, -0.0):
            v = np.full((2, 17, n), z)
            ref = grid.h * (np.sum(v, axis=-2) - 0.5 * (v[..., 0, :] + v[..., -1, :]))
            assert _same_bits(gridfn.integral(GridFunction(grid, v)), ref)


class TestNemytskii:
    def test_identity_field(self):
        g = Grid(0.0, 1.0, 8)
        x = GridFunction(g, (g.nodes * g.nodes)[:, None])
        out = gridfn.nemytskii(_field(lambda t, x: x), x)
        np.testing.assert_allclose(out.values, x.values)

    def test_forced_linear_at_zero(self):
        g = Grid(0.0, 1.0, 8)
        f = _field(lambda t, x: -x + np.expand_dims(np.cos(2 * np.pi * t), -1))
        out = gridfn.nemytskii(f, constant(g, 0.0))
        np.testing.assert_allclose(out.values[:, 0], np.cos(2 * np.pi * g.nodes),
                                   atol=1e-15)

    def test_square(self):
        g = Grid(0.0, 1.0, 8)
        out = gridfn.nemytskii(_field(lambda t, x: x ** 2), constant(g, 2.0))
        np.testing.assert_allclose(out.values, 4.0)

    def test_nonfinite_rhs_rejected(self):
        g = Grid(0.0, 1.0, 8)
        f = _field(lambda t, x: np.where(np.expand_dims(t > 0.5, -1), x / 0.0, x))
        with pytest.raises(ValueError, match="non-finite"):
            with np.errstate(divide="ignore", invalid="ignore"):
                gridfn.nemytskii(f, constant(g, 1.0))


class TestDelayKernel:
    def test_misaligned_tau(self):
        with pytest.raises(ValueError, match="integer multiple"):
            DelayKernel(0.3, 1.0).shift_steps(Grid(0.0, 1.0, 8))

    def test_tau_exceeds_period(self):
        with pytest.raises(ValueError, match="tau"):
            DelayKernel(2.0, 1.0)

    def test_shift(self):
        assert DelayKernel(0.5, 1.0).shift_steps(Grid(0.0, 1.0, 8)) == 4


class TestNemytskiiDelay:
    def test_circular_shift(self):
        g = Grid(0.0, 1.0, 8)
        vals = np.sin(2 * np.pi * g.nodes)[:, None]
        x = GridFunction(g, vals)
        f = _field(lambda t, x, y: y, kind=flows.DELAY, tau=0.25)
        out = gridfn.nemytskii_delay(f, x, DelayKernel(0.25, 1.0))
        # r(t) = t - 1/4 (mod 1): an exact 2-step circular shift
        idx = np.arange(9) - 2
        idx[idx < 0] += 8
        np.testing.assert_allclose(out.values, vals[idx])

    def test_constant_difference(self):
        g = Grid(0.0, 1.0, 8)
        f = _field(lambda t, x, y: x - y, kind=flows.DELAY, tau=0.25)
        out = gridfn.nemytskii_delay(f, constant(g, 3.0), DelayKernel(0.25, 1.0))
        assert out.sup_norm() == 0.0

    def test_tau_equals_period(self):
        g = Grid(0.0, 1.0, 8)
        vals = np.cos(2 * np.pi * g.nodes)[:, None]
        x = GridFunction(g, vals)
        f = _field(lambda t, x, y: y, kind=flows.DELAY, tau=1.0)
        out = gridfn.nemytskii_delay(f, x, DelayKernel(1.0, 1.0))
        np.testing.assert_allclose(out.values, vals)
