"""Acceptance suite: the ten primary criteria, one printed verdict line each.

Each test prints ``[PASS] criterion N: ...`` (or ``[FAIL]``) before
asserting, so ``pytest -s tests/test_acceptance.py`` gives a one-line
verdict per criterion.
"""

import numpy as np
import pytest

from dualdeg import certify, degree, flows, operators, problems, report
from dualdeg.degree import (box_domain, brouwer_1d, brouwer_2d_winding,
                            brouwer_nd_regular, fd_jacobian, finite_rank_reduce,
                            fixed_point_degree, fourier_block_signs)


def _verdict(num: int, desc: str, ok: bool):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_engine_laws():
    ok = brouwer_1d(lambda x: x, (-1, 1)).degree == 1
    ok &= brouwer_2d_winding(lambda p: p, box_domain([(-1, 1)] * 2)).degree == 1
    ok &= brouwer_nd_regular(lambda x: x, [(-1, 1)] * 3).degree == 1
    for k, engine in ((1, lambda g: brouwer_1d(lambda x: g(np.array([x]))[0],
                                               (-1, 1))),
                      (2, lambda g: brouwer_2d_winding(g, box_domain([(-1, 1)] * 2))),
                      (3, lambda g: brouwer_nd_regular(g, [(-1, 1)] * 3))):
        ok &= engine(lambda x: -x).degree == (-1) ** k
    ok &= brouwer_2d_winding(
        lambda p: np.stack([p[..., 0] ** 2 - p[..., 1] ** 2,
                            2 * p[..., 0] * p[..., 1]], axis=-1),
        box_domain([(-1, 1)] * 2)).degree == 2
    cubic = lambda x: x ** 3 - x
    whole = brouwer_nd_regular(lambda x: cubic(x), [(-2.0, 2.0)]).degree
    parts = sum(brouwer_nd_regular(lambda x: cubic(x), [iv]).degree
                for iv in ((-2.0, -0.5), (-0.5, 0.5), (0.5, 2.0)))
    ok &= whole == parts == 1
    _verdict(1, "degree-engine laws (identity, antipodal, z^2, excision)", ok)


def test_criterion_2_krasnoselskii_duality():
    ok = True
    for pid in ("p1", "p3"):
        p = problems.get_problem(pid)
        rep = certify.verify_duality(p, "krasnoselskii")
        ok &= rep.equal and rep.left.degree == rep.right.degree == 1
        ok &= rep.common_core.verdict
    # closed-form oracles for the right-hand sides
    ok &= (1.0 - np.exp(-1.0)) > 0                      # scalar I - P slope
    ok &= (2.0 - 2.0 * np.cos(1.0)) > 0                  # planar det(I - e^J)
    _verdict(2, "Krasnoselskii periodic duality on P1 and P3 (degree +1)", ok)


def test_criterion_3_multiple_solutions():
    p2 = problems.get_problem("p2")
    fin = operators.build_finite("K2", p2)
    fps = sorted(certify.find_fixed_points(fin, p2.default_U2()),
                 key=lambda v: v[0])
    ok = len(fps) == 3
    ok &= np.allclose([fp[0] for fp in fps], [-1.0, 0.0, 1.0], atol=1e-4)
    g = lambda v: v - np.asarray(fin.apply_fn(v), dtype=float)
    local = [int(np.sign(np.linalg.det(fd_jacobian(g, fp)))) for fp in fps]
    ok &= local == [1, -1, 1] and sum(local) == 1
    left = finite_rank_reduce(operators.build("Ktilde", p2), p2.default_U2())
    ok &= left.degree == 1 and left.certified
    _verdict(3, "P2 triple fixed points with local degrees +1,-1,+1, total +1", ok)


def test_criterion_4_operator_chain_homotopies():
    p1 = problems.get_problem("p1")
    vr = certify.default_pullback(p1.default_U2())
    ok = True
    for a, b in (("K", "Kgamma"), ("K4", "K3"), ("K3", "K5")):
        cert = certify.certify_homotopy(operators.build(a, p1),
                                        operators.build(b, p1), vr)
        ok &= cert.admissible and cert.min_residual >= 1e-4
    chain_deg = finite_rank_reduce(operators.build("Ktilde", p1),
                                   p1.default_U2(), r=vr.r)
    right = fixed_point_degree(operators.build_finite("K2", p1).apply_fn,
                               p1.default_U2())
    ok &= chain_deg.degree == right.degree == 1
    _verdict(4, "operator-chain homotopies admissible, min_residual >= 1e-4", ok)


def test_criterion_5_eta_sign_law():
    ok = True
    for pid, n in (("p1", 1), ("p3", 2)):
        p = problems.get_problem(pid)
        for eta in (1.0, -1.0):
            rep = certify.verify_duality(p, "eta_sign", eta=eta)
            ok &= rep.equal
            ok &= rep.left.degree == int(np.sign(eta)) ** n * rep.right.degree
    _verdict(5, "sign law deg(I-K^eta) = sgn(eta)^n deg(I-K3) on P1 and P3", ok)


def test_criterion_6_inverse_poincare():
    ok = True
    for pid, n in (("p1", 1), ("p3", 2)):
        p = problems.get_problem(pid)
        rep = certify.verify_duality(p, "inverse_poincare")
        ok &= rep.equal
        ok &= rep.left.degree == (-1) ** n * rep.right.degree
    _verdict(6, "inverse-Poincare law deg(I-Phat) = (-1)^n deg(I-P)", ok)


def test_criterion_7_dirichlet_duality():
    p4 = problems.get_problem("p4")
    # shooting oracle S(a) = sinh(1) a
    ok = abs(flows.shooting(p4.field(), [1.0], m=p4.m)[0] - np.sinh(1.0)) < 1e-6
    ok &= brouwer_1d(lambda a: flows.shooting(p4.field(), [a], m=p4.m)[0],
                     (-1.0, 1.0)).degree == 1
    rep = certify.verify_duality(p4, "dirichlet_shooting")
    ok &= rep.equal and rep.left.degree == rep.right.degree == 1
    ok &= rep.params["block_sign_identity"]  # stable under h_fd halving
    _verdict(7, "Dirichlet duality deg(S) = deg(I-K2) = +1 with block signs", ok)


def test_criterion_8_delay_duality():
    p6 = problems.get_problem("p6")
    rep = certify.verify_duality(p6, "delay")
    ok = rep.equal and rep.left.degree == rep.right.degree == 1
    ok &= rep.params["monodromy_det_sign"] == 1
    fps = certify.find_fixed_points(operators.build("K6", p6), p6.default_U1())
    ok &= len(fps) == 1
    for name in ("K6", "K7", "K8"):
        ok &= operators.residual(operators.build(name, p6), fps[0]) <= 5e-5
    _verdict(8, "delay duality (history dim 8) and K6/K7/K8 residuals <= 5e-5", ok)


def test_criterion_9_fourier_block_signs():
    ok = True
    mats = (np.zeros((1, 1)), np.array([[2.0]]),
            np.array([[0.0, 1.0], [-1.0, 0.0]]))
    for A in mats:
        for eta in (1.0, -1.0):
            res = fourier_block_signs(A, eta, n_max=16)
            ok &= all(s == 1 for _, s in res.block_signs)
            expected = int(np.sign(np.linalg.det(
                np.eye(A.shape[0]) - A / eta)))
            ok &= res.overall_sign == expected
    _verdict(9, "Fourier block determinants positive, overall = sgn det(I-A/eta)", ok)


def test_criterion_10_determinism():
    docs = []
    for _ in range(2):
        doc = problems.run(problems.get_problem("p1"), suite="all").to_dict()
        doc.pop("timings")
        docs.append(report.canonical_json(doc).encode())
    ok = docs[0] == docs[1]
    _verdict(10, "repeated runs are byte-identical (timings excluded)", ok)
