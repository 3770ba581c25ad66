import numpy as np
import pytest

from dualdeg import certify, degree, operators, problems
from dualdeg.degree import (CollisionError, DomainSpec, box_domain,
                            brouwer_1d, brouwer_2d_winding, brouwer_nd_regular,
                            fd_jacobian, fixed_point_degree, fourier_block_signs,
                            pullback_domain)


def cubic(x):
    return x ** 3 - x


class TestDomainSpec:
    def test_box(self):
        d = box_domain([(-1.0, 1.0), (0.0, 2.0)])
        assert d.dim == 2
        assert d.contains([0.0, 1.0])
        assert not d.contains([0.0, 3.0])

    def test_invalid(self):
        with pytest.raises(ValueError, match="interior"):
            box_domain([(1.0, -1.0)])
        with pytest.raises(ValueError, match="pullback"):
            DomainSpec("pullback")

    def test_pullback(self):
        d = pullback_domain(box_domain([(-1.0, 1.0)]), r=3.0)
        assert d.dim == 1 and d.r == 3.0


class TestBrouwer1d:
    def test_identity(self):
        res = brouwer_1d(lambda x: x, (-1.0, 1.0))
        assert res.degree == 1 and res.certified

    def test_antipodal(self):
        res = brouwer_1d(lambda x: -x, (-1.0, 1.0))
        assert res.degree == -1 and res.certified

    def test_cubic(self):
        res = brouwer_1d(cubic, (-2.0, 2.0))
        assert res.degree == 1 and res.certified
        assert res.min_boundary_norm == pytest.approx(6.0)

    def test_uncertified_near_zero_endpoint(self):
        res = brouwer_1d(lambda x: x, (-1e-9, 1.0))
        assert not res.certified

    def test_no_zero(self):
        res = brouwer_1d(lambda x: x + 5.0, (-1.0, 1.0))
        assert res.degree == 0 and res.certified

    @pytest.mark.parametrize("at", [-1.0, 1.0])
    def test_nan_endpoint_uncertified_zero(self, at):
        # a NaN value has no sign: no degree can be read, and the margin is NaN
        res = brouwer_1d(lambda x: np.nan if x == at else x, (-1.0, 1.0))
        assert res.degree == 0 and not res.certified and np.isnan(res.min_boundary_norm)


class TestBrouwer2dWinding:
    def test_identity_square(self):
        res = brouwer_2d_winding(lambda p: p, box_domain([(-1, 1), (-1, 1)]))
        assert res.degree == 1 and res.certified

    def test_z_squared(self):
        g = lambda p: np.stack([p[..., 0] ** 2 - p[..., 1] ** 2,
                                2 * p[..., 0] * p[..., 1]], axis=-1)
        res = brouwer_2d_winding(g, box_domain([(-1, 1), (-1, 1)]))
        assert res.degree == 2 and res.certified

    def test_antipodal_even_dim(self):
        res = brouwer_2d_winding(lambda p: -p, box_domain([(-1, 1), (-1, 1)]))
        assert res.degree == 1 and res.certified

    @pytest.mark.parametrize("k", [1, 3])
    def test_box_not_2d_rejected(self, k):
        with pytest.raises(ValueError, match=f"needs a 2-d box, got dimension {k}"):
            brouwer_2d_winding(lambda p: p, box_domain([(-1, 1)] * k))

    @pytest.mark.parametrize("value", [0.0, np.nan], ids=["zero", "nan"])
    def test_boundary_sample_without_angle_stops_at_once(self, value, monkeypatch):
        # g = p - (1, 0) vanishes at the boundary sample (1, 0), or reads NaN
        # there: no angle step is defined, so no doubling can help, and the first
        # level gives an uncertified 0 (a cap of 3 bounds a run that doubles)
        monkeypatch.setattr(degree, "MAX_WINDING_DOUBLINGS", 3)
        calls = []

        def g(p):
            calls.append(len(p))
            out = p - np.array([1.0, 0.0])
            out[np.all(out == 0.0, axis=-1)] = value
            return out

        res = brouwer_2d_winding(g, box_domain([(-1, 1), (-1, 1)]))
        assert calls == [64]
        assert res.degree == 0 and not res.certified and not res.min_boundary_norm > 0

    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["outside", "inside"])
    def test_margin_below_eps_stops_doubling(self, side):
        # a zero 1e-9 off the boundary, 1e-7 off the level-1 sample (1, 0.0625):
        # the angle steps still fail there, and every finer level holds that
        # sample, so its margin can only fall further below DEFAULT_EPS
        calls = []

        def g(p):
            calls.append(len(p))
            return p - np.array([1.0 + side * 1e-9, 0.0625 + 1e-7])

        res = brouwer_2d_winding(g, box_domain([(-1, 1), (-1, 1)]))
        assert calls == [64, 128]
        assert res.degree == 0 and not res.certified and res.refinement_levels == 1
        assert 0 < res.min_boundary_norm < degree.DEFAULT_EPS

    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["outside", "inside"])
    def test_exhausted_cap_keeps_the_last_margin(self, side, monkeypatch):
        # the zero sits near no sample of any level up to the cap: the margin stays
        # above DEFAULT_EPS, the angle steps keep failing, and the cap's result
        # reports the finest level's sampled margin
        monkeypatch.setattr(degree, "MAX_WINDING_DOUBLINGS", 6)
        calls, margins = [], []

        def g(p):
            calls.append(len(p))
            out = p - np.array([1.0 + side * 1e-9, 0.06])
            margins.append(np.min(np.max(np.abs(out), axis=1)))
            return out

        res = brouwer_2d_winding(g, box_domain([(-1, 1), (-1, 1)]))
        assert calls == [64 * 2 ** level for level in range(7)]
        assert res.degree == 0 and not res.certified and res.refinement_levels == 6
        assert res.min_boundary_norm == margins[-1] > degree.DEFAULT_EPS

    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["outside", "inside"])
    def test_default_cap_bounds_the_rows(self, side):
        # the same zero at the default cap: every level's angle steps fail and its
        # margin stays above DEFAULT_EPS, so the run ends uncertified at the cap,
        # and g never gets more than 64 * 2**10 rows
        calls = []

        def g(p):
            calls.append(len(p))
            return p - np.array([1.0 + side * 1e-9, 0.06])

        res = brouwer_2d_winding(g, box_domain([(-1, 1), (-1, 1)]))
        cap = degree.MAX_WINDING_DOUBLINGS
        assert cap <= 10 and max(calls) <= 64 * 2 ** 10
        assert calls == [64 * 2 ** level for level in range(cap + 1)]
        assert res.degree == 0 and not res.certified and res.refinement_levels == cap
        assert res.min_boundary_norm > degree.DEFAULT_EPS

    def test_stability_under_refinement(self):
        g = lambda p: np.stack([p[..., 0] ** 2 - p[..., 1] ** 2,
                                2 * p[..., 0] * p[..., 1]], axis=-1)
        a = brouwer_2d_winding(g, box_domain([(-1, 1), (-1, 1)]))
        b = brouwer_2d_winding(g, box_domain([(-1, 1), (-1, 1)]))  # fresh run
        assert a.degree == b.degree == 2


class TestBrouwerNd:
    def test_halving_map(self):
        res = brouwer_nd_regular(lambda x: 0.5 * x, [(-1, 1)] * 3)
        assert res.degree == 1 and res.certified
        assert len(res.zeros) == 1

    def test_1d_cross_check(self):
        res = brouwer_nd_regular(lambda x: cubic(x), [(-2.0, 2.0)])
        assert res.degree == brouwer_1d(cubic, (-2.0, 2.0)).degree == 1
        assert len(res.zeros) == 3

    @pytest.mark.parametrize("k,expected", [(1, -1), (2, 1), (3, -1)])
    def test_antipodal_law(self, k, expected):
        res = brouwer_nd_regular(lambda x: -x, [(-1, 1)] * k)
        assert res.degree == expected and res.certified

    def test_cross_engine_agreement(self):
        g = lambda p: np.stack([cubic(p[..., 0]), -p[..., 1]], axis=-1)
        box = box_domain([(-2.0, 2.0), (-2.0, 2.0)])
        nd = brouwer_nd_regular(g, box)
        wind = brouwer_2d_winding(g, box)
        assert nd.degree == wind.degree == -1
        assert nd.certified and wind.certified

    def test_excision(self):
        # interfaces at +-0.5 avoid the zeros {-1, 0, 1}
        whole = brouwer_nd_regular(lambda x: cubic(x), [(-2.0, 2.0)])
        parts = [brouwer_nd_regular(lambda x: cubic(x), [iv])
                 for iv in ((-2.0, -0.5), (-0.5, 0.5), (0.5, 2.0))]
        assert [p.degree for p in parts] == [1, -1, 1]
        assert whole.degree == sum(p.degree for p in parts)

    def test_singular_jacobian_uncertified(self):
        res = brouwer_nd_regular(lambda x: x ** 3, [(-1.0, 1.0)])
        assert not res.certified


class TestFdJacobian:
    def test_linear_map(self):
        A = np.array([[2.0, -1.0], [0.5, 3.0]])
        jac = fd_jacobian(lambda x: x @ A.T, np.array([0.3, -0.7]))
        np.testing.assert_allclose(jac, A, atol=1e-8)


class TestFixedPointDegree1d:
    @pytest.mark.parametrize("pid", ["p1", "p2", "p4"])
    def test_endpoints_in_one_stacked_call(self, pid):
        p = problems.get_problem(pid)
        if p.kind == "dirichlet_bvp":  # the Ktilde shooting defect over the slope box
            F = operators.build("Ktilde", p).reduction.finite.apply_fn
            box = box_domain(p.default_U2().as_box()[:1])
        else:
            F = operators.build_finite("K2", p).apply_fn
            box = p.default_U2()
        shapes = []
        res = fixed_point_degree(lambda v: shapes.append(np.shape(v)) or F(v), box)
        assert shapes == [(2, 1)]
        assert res == brouwer_1d(lambda t: t - F(np.array([t]))[0], box.as_box()[0])
        assert res.certified


class TestFiniteRankReduce:
    def test_zero_reduced_map_identity_degree(self):
        p1 = problems.get_problem("p1")
        base = operators.build("Ktilde", p1)
        zero = operators.OperatorHandle("Fzero", operators.FINITE_SPACE,
                                        lambda v: np.zeros_like(v), p1, {"dim": 1})
        red = operators.Reduction(zero, base.reduction.pi, base.reduction.i)
        h = operators.OperatorHandle("Kzero", operators.GRID_SPACE,
                                     lambda x: x, p1, {}, red)
        res = certify._FiniteSide()(h, box_domain([(-1.0, 1.0)]))
        assert res.degree == 1 and res.certified

    def test_linear_periodic_slope(self):
        p1 = problems.get_problem("p1")
        res = certify._FiniteSide()(operators.build("Ktilde", p1), box_domain([(-1.0, 1.0)]))
        assert res.degree == 1 and res.certified
        assert res.method == "finite_rank_reduction"

    def test_reduction_consistency(self):
        # reduced degree equals the Brouwer engine applied directly to I - F
        import dualdeg.flows as flows
        p1 = problems.get_problem("p1")
        h = operators.build("Ktilde", p1)
        direct = brouwer_1d(
            lambda t: t - flows.poincare(p1.field(), [t], m=p1.m)[0],
            (-1.0, 1.0))
        assert certify._FiniteSide()(h, box_domain([(-1.0, 1.0)])).degree \
            == direct.degree

    def test_missing_witness(self):
        p1 = problems.get_problem("p1")
        with pytest.raises(ValueError, match="reduction witness"):
            certify._FiniteSide()(operators.build("K", p1), box_domain([(-1.0, 1.0)]))

    def test_broken_witness(self):
        ident = operators.OperatorHandle("Fid", operators.FINITE_SPACE,
                                         lambda v: v, None, {"dim": 1})
        red = operators.Reduction(ident,
                                  lambda x: 2.0 * np.asarray(x),
                                  lambda v: np.asarray(v))
        h = operators.OperatorHandle("bad", operators.GRID_SPACE,
                                     lambda x: x, None, {}, red)
        with pytest.raises(ValueError, match="pi o i"):
            certify._FiniteSide()(h, box_domain([(-1.0, 1.0)]))


class TestFourierBlockSigns:
    def test_zero_matrix(self):
        res = fourier_block_signs(np.zeros((1, 1)), 1.0, n_max=8)
        assert res.overall_sign == 1
        assert res.skipped == (1,)
        assert all(s == 1 for _, s in res.block_signs)

    def test_scalar_two(self):
        res = fourier_block_signs([[2.0]], 1.0, n_max=8)
        assert res.overall_sign == -1
        assert all(s == 1 for _, s in res.block_signs)

    def test_negative_eta(self):
        res = fourier_block_signs(np.zeros((1, 1)), -1.0, n_max=8)
        assert res.overall_sign == 1
        assert res.skipped == ()

    def test_rotation_block(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        res = fourier_block_signs(A, 1.0, n_max=8)
        # det(I - A/eta) = 1 + 1/eta^2 > 0
        assert res.overall_sign == 1

    def test_skipped_mode_recorded(self):
        res = fourier_block_signs([[0.5]], 4.0, n_max=8)
        assert res.skipped == (2,)

    @pytest.mark.parametrize("eta", [1 + 5e-8, 1 + 2e-9])
    def test_blocks_near_the_zero_mode_collision(self, eta):
        # det(I - A/eta) clears the zero-mode test, so eta*I - A is nonsingular and
        # so is every block: its determinant (eta - 1) / (eta - k^2) is small, not 0
        res = fourier_block_signs([[1.0]], eta)
        assert res.overall_sign == 1 and res.skipped == ()
        assert res.block_signs == tuple((k, 1) for k in range(1, 17))

    def test_eta_zero_collision(self):
        with pytest.raises(CollisionError):
            fourier_block_signs([[1.0]], 0.0)

    def test_zero_mode_collision(self):
        with pytest.raises(CollisionError, match="singular"):
            fourier_block_signs([[1.0]], 1.0)

    def test_eta_in_spectrum_collision(self):
        # eta an eigenvalue of A makes I - A/eta singular
        with pytest.raises(CollisionError, match="singular"):
            fourier_block_signs([[2.0]], 2.0, n_max=8)
