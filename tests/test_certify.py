import numpy as np
import pytest

from dualdeg import certify, operators, problems
from dualdeg.certify import (FunctionBall, admissibility_eps, certify_homotopy,
                             check_common_core, find_fixed_points, verify_duality)
from dualdeg.degree import box_domain
from dualdeg.gridfn import constant
from dualdeg.problems import ProblemSpec

P1 = problems.get_problem("p1")
P2 = problems.get_problem("p2")
P4 = problems.get_problem("p4")
P6 = problems.get_problem("p6")

ZERO_F = ProblemSpec("zf", "periodic_ode", 1, 1.0, {"poly": [0.0]}, 0.0, 32,
                     1.0, ((-1.0, 1.0),))

X_STAR_0 = 1.0 / (1.0 + 4 * np.pi ** 2)


@pytest.fixture(scope="module")
def p1_solution():
    fps = find_fixed_points(operators.build("K", P1), P1.default_U1())
    assert len(fps) == 1
    return fps[0]


class TestFunctionBall:
    def test_clearance(self):
        ball = FunctionBall(2.0)
        x = constant(P1.grid(), 0.5)
        assert ball.clearance(x) == pytest.approx(1.5)

    def test_centered(self):
        c = constant(P1.grid(), 1.0)
        ball = FunctionBall(1.0, center=c)
        assert ball.clearance(constant(P1.grid(), 1.4)) == pytest.approx(0.6)


class TestFindFixedPoints:
    def test_finite_linear(self):
        fps = find_fixed_points(operators.build_finite("K2", P1),
                                box_domain([(-1.0, 1.0)]))
        assert len(fps) == 1
        assert fps[0][0] == pytest.approx(X_STAR_0, abs=1e-5)

    def test_finite_cubic_triple(self):
        fps = find_fixed_points(operators.build_finite("K2", P2),
                                box_domain([(-2.0, 2.0)]))
        vals = sorted(fp[0] for fp in fps)
        np.testing.assert_allclose(vals, [-1.0, 0.0, 1.0], atol=1e-4)

    def test_grid_solution(self, p1_solution):
        x = p1_solution
        assert x.values[0, 0] == pytest.approx(X_STAR_0, abs=1e-5)
        assert operators.residual(operators.build("K", P1), x) <= 5e-5

    def test_zero_field_constant_fixed(self):
        h = operators.build("K", ZERO_F)
        fps = find_fixed_points(h, FunctionBall(1.0))
        assert len(fps) == 1
        assert operators.residual(h, fps[0]) == 0.0

    def test_finite_5d_off_centre_pair(self):
        # defect (v0^2 - 1/4, v1, ..., v4): the Jacobian is singular at the
        # box centre, so the fixed points v0 = +-1/2 need the off-centre starts
        def apply_fn(v):
            out = np.zeros_like(v)
            out[..., 0] = v[..., 0] - v[..., 0] ** 2 + 0.25
            return out

        h = operators.OperatorHandle("F", operators.FINITE_SPACE, apply_fn)
        fps = find_fixed_points(h, box_domain([(-1.0, 1.0)] * 5))
        np.testing.assert_allclose(sorted(fp[0] for fp in fps), [-0.5, 0.5])
        np.testing.assert_allclose([fp[1:] for fp in fps], 0.0, atol=1e-12)

    def test_no_convergence_empty(self):
        # no fixed point inside this off-center finite box
        fps = find_fixed_points(operators.build_finite("K2", P1),
                                box_domain([(0.5, 1.0)]))
        assert fps == []


class TestCommonCore:
    def test_linear_defaults_true(self):
        rep = check_common_core(P1, P1.default_U1(), P1.default_U2())
        assert rep.verdict
        assert all(p["in_U1"] and p["in_U2"] for p in rep.matched_pairs)
        assert min(rep.boundary_clearances) >= 1e-3

    def test_tight_boundary_false(self):
        tight = box_domain([(X_STAR_0 - 1e-6, X_STAR_0 + 1e-6)])
        rep = check_common_core(P1, P1.default_U1(), tight)
        assert not rep.verdict
        assert any("clearance" in d for d in rep.diagnostics)

    def test_degenerate_false(self):
        rep = check_common_core(ZERO_F, ZERO_F.default_U1(), ZERO_F.default_U2())
        assert not rep.verdict
        assert any("degenerate" in d for d in rep.diagnostics)


class TestCertifyHomotopy:
    def test_constant_homotopy_positive(self):
        h = operators.build("K", P1)
        cert = certify_homotopy(h, h, P1.default_U1())
        assert cert.min_residual > 0
        assert cert.admissible

    def test_k_vs_kgamma_admissible(self):
        cert = certify_homotopy(operators.build("K", P1),
                                operators.build("Kgamma", P1),
                                P1.default_U1())
        assert cert.admissible and cert.stable
        assert cert.min_residual >= admissibility_eps(P1)
        assert len(cert.residual_curve) == len(cert.lambda_grid)

    def test_boundary_through_fixed_point_inadmissible(self, p1_solution):
        # center the ball so one boundary sample lands exactly on x*
        r = 0.3
        center = p1_solution - constant(P1.grid(), r)
        cert = certify_homotopy(operators.build("K", P1),
                                operators.build("K1", P1),
                                FunctionBall(r, center=center))
        assert cert.min_residual <= 5e-5
        assert not cert.admissible

    def test_monotone_certification(self):
        hA, hB = operators.build("K", P1), operators.build("Kgamma", P1)
        coarse = certify_homotopy(hA, hB, P1.default_U1(), max_doublings=2)
        fine = certify_homotopy(hA, hB, P1.default_U1(), max_doublings=4)
        assert coarse.admissible and fine.admissible
        assert fine.min_residual <= coarse.min_residual + 1e-12

    def test_space_mismatch(self):
        with pytest.raises(ValueError, match="spaces"):
            certify_homotopy(operators.build("K", P1),
                             operators.build_finite("K2", P1),
                             P1.default_U1())

    @pytest.mark.parametrize("steps", [1, 0])
    def test_single_lambda_rejected(self, steps):
        # one lambda checks only B: at lambda_steps=1 the grid stays [0.0]
        with pytest.raises(ValueError, match="lambda_steps must be at least 2"):
            certify_homotopy(operators.build("K", P1), operators.build("Kgamma", P1),
                             P1.default_U1(), lambda_steps=steps)

    def test_negative_doublings_rejected(self):
        h = operators.build("K", P1)
        with pytest.raises(ValueError, match="max_doublings must be at least 0"):
            certify_homotopy(h, h, P1.default_U1(), max_doublings=-1)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError, match="pairs is empty"):
            certify.certify_homotopies([], P1.default_U1())

    def test_mixed_problems_rejected(self):
        pairs = [(operators.build("K", P1), operators.build("K1", P1)),
                 (operators.build("K", P2), operators.build("K1", P2))]
        with pytest.raises(ValueError, match="pairs mix problems"):
            certify.certify_homotopies(pairs, P1.default_U1())

    def test_mixed_spaces_rejected(self):
        fin = operators.build_finite("K2", P1)
        pairs = [(operators.build("K", P1), operators.build("K1", P1)), (fin, fin)]
        with pytest.raises(ValueError, match="pairs mix spaces"):
            certify.certify_homotopies(pairs, P1.default_U1())

    def test_pullback_needs_grid_space(self):
        U = certify.default_pullback(P4.default_U2())
        with pytest.raises(ValueError, match="pullback boundary samples need "
                                             "grid-space operators"):
            certify_homotopy(operators.build("Kdir", P4),
                             operators.build("Kdir1", P4), U)

    def test_pullback_dimension_must_match_reduction(self):
        # p6's box lives on 8 history nodes, its grid-level Ktilde on 65
        U = certify.default_pullback(P6.default_U2())
        with pytest.raises(ValueError, match="pullback box has dimension 8, but the "
                                             "Ktilde reduction of p6 has k = 65"):
            certify_homotopy(operators.build("Kdelay", P6),
                             operators.build("Kdelay1", P6), U)


class TestVerifyDuality:
    def test_krasnoselskii_p1(self):
        rep = verify_duality(P1, "krasnoselskii")
        assert rep.equal and rep.left.certified and rep.right.certified
        assert rep.left.degree == rep.right.degree == 1
        assert rep.route == "homotopy_chain"
        assert all(c.admissible for c in rep.certificates)
        assert rep.common_core.verdict

    def test_eta_sign_negative(self):
        rep = verify_duality(P1, "eta_sign", eta=-1.0)
        assert rep.equal
        assert rep.sign_factor == -1
        assert rep.left.degree == -rep.right.degree == -1

    def test_inverse_poincare_p1(self):
        rep = verify_duality(P1, "inverse_poincare")
        assert rep.equal
        assert rep.sign_factor == -1
        assert rep.left.degree == -1 and rep.right.degree == 1

    def test_eta_sign_requires_eta(self):
        with pytest.raises(ValueError, match="eta"):
            verify_duality(P1, "eta_sign")

    def test_unknown_pair(self):
        with pytest.raises(ValueError, match="unknown duality pair"):
            verify_duality(P1, "bogus")


class TestPerturbationRobustness:
    def test_small_forcing_keeps_degrees(self):
        base = ProblemSpec("tb", "periodic_ode", 1, 1.0,
                           {"poly": [0.0, -1.0], "cos": [[1.0, 2 * np.pi]]},
                           1.0, 64, 1.0, ((-1.0, 1.0),))
        pert = ProblemSpec("tp", "periodic_ode", 1, 1.0,
                           {"poly": [0.0, -1.0], "cos": [[1.0, 2 * np.pi]],
                            "sin": [[1e-3, 4 * np.pi]]},
                           1.0, 64, 1.0, ((-1.0, 1.0),))
        a = verify_duality(base, "krasnoselskii")
        b = verify_duality(pert, "krasnoselskii")
        assert a.equal and b.equal
        assert (a.left.degree, a.right.degree) == (b.left.degree, b.right.degree)
