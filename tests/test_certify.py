from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from dualdeg import certify, degree, flows, operators, problems, report
from dualdeg.certify import (FunctionBall, admissibility_eps, certify_homotopies,
                             check_common_core, find_fixed_points, verify_duality)
from dualdeg.degree import box_domain
from dualdeg.gridfn import Grid, GridFunction, constant
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

    @staticmethod
    def _grid_problem(rhs):
        f = flows.VectorFieldSpec(dim=1, period=1.0, kind=flows.NONDELAY, rhs=rhs,
                                  lipschitz=1.0)
        return SimpleNamespace(kind="periodic_ode", field=lambda: f,
                               grid=lambda: Grid(0.0, 1.0, 8))

    def test_grid_blow_up_reads_no_fixed_point(self):
        # K(0) = 1e306 t, and K of half of that overflows: the residual row reads
        # inf (IntegrationError, no numpy warning) and the Picard start gives up
        h = operators.build("K", self._grid_problem(lambda t, x: 1e306 * (x + 1.0) ** 3))
        assert find_fixed_points(h, FunctionBall(1.0)) == []

    def test_grid_error_not_a_blow_up_propagates(self):
        # a field of the wrong shape is the caller's error, not a residual of inf
        h = operators.build("K", self._grid_problem(lambda t, x: x[..., 0]))
        with pytest.raises(ValueError, match=r"rhs returned shape \(1, 9\), expected \(1, 9, 1\)"):
            find_fixed_points(h, FunctionBall(1.0))

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
        # every point is fixed: one diagnostic names the count of degenerate zeros
        rep = check_common_core(ZERO_F, ZERO_F.default_U1(), ZERO_F.default_U2())
        assert not rep.verdict
        assert [d for d in rep.diagnostics if "degenerate" in d] == \
            ["degenerate: 3 of 3 fixed points non-isolated"]


@pytest.mark.parametrize("pid", ["p1", "p2", "p3", "p4", "p5", "p6", "p7"])
def test_common_core_alone_equals_the_runs(pid):
    # in a run the core reads the search and Jacobians the finite degree shares
    p = replace(problems.get_problem(pid), m=32)
    cores = [d["common_core"] for d in problems.run(p, "duality").duality
             if d["common_core"] is not None]
    alone = report.common_core_dict(check_common_core(p, p.default_U1(), p.default_U2()))
    assert cores and all(core == alone for core in cores)


class TestCertifyHomotopy:
    def test_constant_homotopy_positive(self):
        h = operators.build("K", P1)
        cert = certify_homotopies([(h, h)], P1.default_U1())[0]
        assert cert.min_residual > 0
        assert cert.admissible

    def test_k_vs_kgamma_admissible(self):
        cert = certify_homotopies([(operators.build("K", P1), operators.build("Kgamma", P1))],
                                  P1.default_U1())[0]
        assert cert.admissible and cert.stable
        assert cert.min_residual >= admissibility_eps(P1)
        assert len(cert.residual_curve) == len(cert.lambda_grid)

    def test_boundary_through_fixed_point_inadmissible(self, p1_solution):
        # center the ball so one boundary sample lands exactly on x*
        r = 0.3
        center = p1_solution - constant(P1.grid(), r)
        cert = certify_homotopies([(operators.build("K", P1), operators.build("K1", P1))],
                                  FunctionBall(r, center=center))[0]
        assert cert.min_residual <= 5e-5
        assert not cert.admissible

    def test_monotone_certification(self, monkeypatch):
        pair = (operators.build("K", P1), operators.build("Kgamma", P1))
        monkeypatch.setattr(certify, "MAX_DOUBLINGS", 2)
        coarse = certify_homotopies([pair], P1.default_U1())[0]
        monkeypatch.setattr(certify, "MAX_DOUBLINGS", 4)
        fine = certify_homotopies([pair], P1.default_U1())[0]
        assert coarse.admissible and fine.admissible
        assert fine.min_residual <= coarse.min_residual + 1e-12

    def test_space_mismatch(self):
        with pytest.raises(ValueError, match="spaces"):
            certify_homotopies([(operators.build("K", P1), operators.build_finite("K2", P1))],
                               P1.default_U1())

    def test_negative_seed_rejected(self):
        h = operators.build("K", P1)
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            certify_homotopies([(h, operators.build("K1", P1))], P1.default_U1(), seed=-1)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError, match="pairs is empty"):
            certify_homotopies([], P1.default_U1())

    def test_mixed_problems_rejected(self):
        pairs = [(operators.build("K", P1), operators.build("K1", P1)),
                 (operators.build("K", P2), operators.build("K1", P2))]
        with pytest.raises(ValueError, match="pairs mix problems"):
            certify_homotopies(pairs, P1.default_U1())

    def test_mixed_spaces_rejected(self):
        fin = operators.build_finite("K2", P1)
        pairs = [(operators.build("K", P1), operators.build("K1", P1)), (fin, fin)]
        with pytest.raises(ValueError, match="pairs mix spaces"):
            certify_homotopies(pairs, P1.default_U1())

    def test_pullback_needs_grid_space(self):
        U = certify.default_pullback(P4.default_U2())
        with pytest.raises(ValueError, match="pullback boundary samples need "
                                             "grid-space operators"):
            certify_homotopies([(operators.build("Kdir", P4),
                                 operators.build("Kdir1", P4))], U)

    def test_pullback_dimension_must_match_reduction(self):
        # p6's box lives on 8 history nodes, its grid-level Ktilde on 65
        U = certify.default_pullback(P6.default_U2())
        with pytest.raises(ValueError, match="pullback box has dimension 8, but the "
                                             "Ktilde reduction of p6 has k = 65"):
            certify_homotopies([(operators.build("Kdelay", P6),
                                 operators.build("Kdelay1", P6))], U)


class TestKtildeFromItsFiniteHandle:
    """Ktilde = i o F o pi with F its reduction's finite handle, so the degree
    and the certificate image read the map that Ktilde applies."""

    @pytest.mark.parametrize("pid,m", [("p1", 64), ("p3", 32), ("p7", None)])
    def test_track_endpoint_is_the_ktilde_image(self, pid, m, monkeypatch):
        # on a run copy, K1's flow over a block stores the rows that Ktilde's
        # K2 reads: Ktilde's own map then makes no sweep and gives the end of
        # K1's track, i(pi(K1(x))), bit for bit
        p = problems.get_problem(pid)
        p = operators.run_copy(p, m or p.m)
        k1, ktilde = operators.build("K1", p), operators.build("Ktilde", p)
        red = ktilde.reduction
        samples = certify._domain_boundary_samples(
            ktilde, certify.default_pullback(p.default_U2()), [16], certify.DEFAULT_SEED)[0]
        x = certify._unflattener(ktilde)(samples[:degree._stack_rows(samples.shape[1])])
        end = red.i(red.pi(k1.apply_fn(x)))
        sweeps, rk4 = [], flows._rk4
        monkeypatch.setattr(flows, "_rk4", lambda *a, **k: sweeps.append(1) or rk4(*a, **k))
        assert len(x.values) > 1 and np.array_equal(ktilde.apply_fn(x).values, end.values)
        assert sweeps == []

    @staticmethod
    def _mutant(ktilde):
        """Ktilde with its finite handle replaced by 2x - P(x), named Khat2."""
        red = ktilde.reduction
        P = red.finite.apply_fn
        khat2 = operators.OperatorHandle("Khat2", operators.FINITE_SPACE,
                                         lambda v: 2.0 * v - P(v), ktilde.problem,
                                         dict(red.finite.params))
        return operators.reduced_handle("Ktilde", operators.GRID_SPACE, ktilde.problem, {},
                                        replace(red, finite=khat2))

    @pytest.mark.parametrize("pid", ["p1", "p2"])
    def test_finite_side_reads_a_mutated_finite_handle(self, pid):
        # F replaced by 2x - P(x): I - F = -(I - P), so the 1-d degree flips
        p = problems.get_problem(pid)
        ktilde = operators.build("Ktilde", p)
        red = ktilde.reduction
        P = red.finite.apply_fn
        mutant = self._mutant(ktilde)
        c = np.array([0.3])
        assert np.array_equal(mutant.apply_fn(red.i(c)).values,
                              red.i(2.0 * c - P(c)).values)
        vr = certify.default_pullback(p.default_U2())
        real, mut = (certify._FiniteSide()(h, vr) for h in (ktilde, mutant))
        assert real.certified and mut.certified
        assert (real.degree, mut.degree) == (1, -1)

    @pytest.mark.parametrize("pid", ["p1", "p2"])
    def test_names_dropped_mutant_fails_krasnoselskii(self, pid, monkeypatch):
        # the certificates map the mutant itself, and its left side
        # deg(I - Ktilde) = -1 no longer equals deg(I - P) = +1
        build = operators.build

        def mutated(name, problem, params=None):
            h = build(name, problem, params)
            return self._mutant(h) if name == "Ktilde" else h

        monkeypatch.setattr(operators, "build", mutated)
        rep = verify_duality(problems.get_problem(pid), "krasnoselskii")
        assert rep.certificates[1].pair == ("K1", "Ktilde")
        assert not rep.equal
        assert (rep.left.degree, rep.right.degree) == (-1, 1)


class TestK1FromItsFactors:
    """K1 = lift o mu o pi with pi = x(T) and mu the flow on R^n; the
    certificates map the same mu over pi of a whole pass."""

    @staticmethod
    def _block(p, m):
        p = replace(p, m=m)
        k1 = operators.build("K1", p)
        samples = certify._domain_boundary_samples(
            k1, certify.default_pullback(p.default_U2()), [16], certify.DEFAULT_SEED)[0]
        return p, k1, certify._unflattener(k1)(samples[:degree._stack_rows(samples.shape[1])])

    @pytest.mark.parametrize("pid,m", [("p1", 64), ("p3", 32)])
    def test_apply_is_lift_of_mu_of_pi(self, pid, m):
        p, k1, x = self._block(problems.get_problem(pid), m)
        pi, mu = k1.factors
        c = pi(x)
        assert np.array_equal(c, x.values[..., -1, :]) and len(c) > 1
        assert np.array_equal(mu(c), flows.mu_periodic(p.field(), c, m=m).values)
        y = k1.apply_fn(x)
        assert y.grid == p.grid() and np.array_equal(y.values, GridFunction(p.grid(), mu(c)).values)

    def test_image_reads_only_the_endpoint(self):
        p, k1, x = self._block(P1, 64)
        moved = x.values + 0.5
        moved[..., -1, :] = x.values[..., -1, :]
        assert np.array_equal(k1.apply_fn(GridFunction(x.grid, moved)).values,
                              k1.apply_fn(x).values)

    def test_mutant_mu_changes_map_and_certificate(self):
        p = replace(P1, m=64)
        vr = certify.default_pullback(p.default_U2())
        k, k1 = operators.build("K", p), operators.build("K1", p)
        pi, mu = k1.factors
        mutant = operators.lifted_handle("K1", p, {}, pi, lambda c: mu(c) + 0.25)
        x = constant(p.grid(), [0.7])
        assert np.array_equal(mutant.apply_fn(x).values, k1.apply_fn(x).values + 0.25)
        # the pass maps the mutant's mu, as its blocks would map its apply_fn
        cert, cert_mut = (certify_homotopies([(k, h)], vr)[0] for h in (k1, mutant))
        assert cert_mut == certify_homotopies([(k, replace(mutant, factors=None))], vr)[0]
        assert cert == certify_homotopies([(k, replace(k1, factors=None))], vr)[0]
        assert cert_mut.min_residual != cert.min_residual


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

    @staticmethod
    def _builds(monkeypatch) -> list:
        """The operator names built from now on."""
        built = []
        for fn in ("build", "build_finite"):
            real = getattr(operators, fn)
            monkeypatch.setattr(operators, fn, lambda name, *a, _real=real, **k:
                                built.append(name) or _real(name, *a, **k))
        return built

    @pytest.mark.parametrize("pid,pair,eta,runs", [
        ("p1", "nonlocal_signs", 0.5, "krasnoselskii, inverse_poincare, eta_sign"),
        ("p4", "krasnoselskii", None, "dirichlet_shooting"),
        ("p1", "delay", None, "krasnoselskii, inverse_poincare, eta_sign"),
        ("p6", "inverse_poincare", None, "delay"),
        ("p7", "eta_sign", 1.0, "krasnoselskii, inverse_poincare, nonlocal_signs")])
    def test_pair_its_kind_does_not_run(self, pid, pair, eta, runs, monkeypatch):
        # one named error, from the kind's row of KIND_TABLE, before any build
        problem = replace(problems.get_problem(pid), m=32)
        built = self._builds(monkeypatch)
        with pytest.raises(ValueError, match=f"unknown duality pair '{pair}' on a "
                                             f"{problem.kind} problem, which runs {runs}$"):
            verify_duality(problem, pair, eta=eta)
        assert built == []

    @pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("pid,pair", [("p1", "eta_sign"), ("p7", "nonlocal_signs")])
    def test_eta_not_finite(self, pid, pair, eta, monkeypatch):
        # NaN fails eta > 0, so it would pick the eta < 0 row: it is rejected
        # before the table is read or anything is built
        built = self._builds(monkeypatch)
        with pytest.raises(ValueError, match=f"eta must be finite, got {eta}"):
            verify_duality(replace(problems.get_problem(pid), m=32), pair, eta=eta)
        assert built == []

    def test_eta_on_a_pair_that_reads_none(self):
        with pytest.raises(ValueError, match="krasnoselskii pair takes no eta"):
            verify_duality(P1, "krasnoselskii", eta=1.0)

    def test_nonlocal_signs_reads_the_given_U2(self):
        # the averaged field -2 pi u has no zero in [0.5, 0.9]
        p7 = replace(problems.get_problem("p7"), m=32)
        rep = verify_duality(p7, "nonlocal_signs", U2=box_domain([(0.5, 0.9), (-1, 1)]),
                             eta=0.5)
        assert rep.right.degree == 0 and not rep.equal
        assert verify_duality(p7, "nonlocal_signs", eta=0.5).right.degree == -1


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
