"""Mutation table: which verdicts notice a wrong map.

Each row puts one mutant into the operator catalog or the verdict rule by a
monkeypatch, runs one ``verify_duality`` at m = 64 and records its outcome:
``killed`` (the verdict FAILs, which an inadmissible certificate implies, or
the run ends in a named error) or ``survives`` (it still PASSes).  A mutant that changes the
mathematics and survives points at a check that is missing.  The table holds
today's outcomes, so a row fails when its outcome changes in either
direction: a change that kills a survivor flips that row's entry.
"""

from dataclasses import replace

import numpy as np
import pytest

from dualdeg import certify, flows, operators, problems

M = 64
BUILD, BUILD_FINITE = operators.build, operators.build_finite


def opposite_degree(name, problem, params=None):
    """K2, Kdir2 and Kdelay2 replaced by F'(v) = v - R(v - F(v)), R flipping
    coordinate 0: the same zeros, the opposite degree."""
    h = BUILD_FINITE(name, problem, params)
    if name not in ("K2", "Kdir2", "Kdelay2"):
        return h
    F = h.apply_fn

    def apply_fn(v):
        g = np.array(v - F(v), dtype=float)
        g[..., 0] = -g[..., 0]
        return v - g

    return replace(h, apply_fn=apply_fn)


def k3_for_khat3(name, problem, params=None):
    """K3 put in wherever the chain asks for K-hat-3 (the eta < 0 chain)."""
    return BUILD("K3" if name == "Khat3" else name, problem, params)


def names_dropped(name, problem, params=None):
    """Ktilde built on the finite map 2x - P(x)."""
    h = BUILD(name, problem, params)
    if name != "Ktilde":
        return h
    red = h.reduction
    P = red.finite.apply_fn
    khat2 = operators.OperatorHandle("Khat2", operators.FINITE_SPACE,
                                     lambda v: 2.0 * v - P(v), h.problem,
                                     dict(red.finite.params))
    return operators.reduced_handle("Ktilde", operators.GRID_SPACE, h.problem, {},
                                    replace(red, finite=khat2))


# the verdict rule with every sign rule of the pair table negated: left = -sign * right
FLIPPED_SIGNS = {name: lambda n, eta, rule=rule: -rule(n, eta)
                 for name, rule in certify.SIGNS.items()}


MUTANTS = {"opposite_degree": (operators, "build_finite", opposite_degree),
           "k3_for_khat3": (operators, "build", k3_for_khat3),
           "names_dropped": (operators, "build", names_dropped),
           "flipped_sign": (certify, "SIGNS", FLIPPED_SIGNS)}

TABLE = [
    ("opposite_degree", "p1", "krasnoselskii", "survives"),
    ("opposite_degree", "p1", "inverse_poincare", "killed"),
    ("opposite_degree", "p1", "eta_sign[1]", "survives"),
    ("opposite_degree", "p1", "eta_sign[-1]", "survives"),
    ("opposite_degree", "p2", "inverse_poincare", "killed"),  # KhatP blows up
    ("opposite_degree", "p3", "krasnoselskii", "survives"),
    ("opposite_degree", "p3", "inverse_poincare", "killed"),
    ("opposite_degree", "p3", "eta_sign[1]", "survives"),
    ("opposite_degree", "p3", "eta_sign[-1]", "survives"),
    ("opposite_degree", "p4", "dirichlet_shooting", "killed"),
    ("opposite_degree", "p5", "dirichlet_shooting", "killed"),
    ("opposite_degree", "p6", "delay", "survives"),
    ("opposite_degree", "p7", "krasnoselskii", "survives"),
    ("opposite_degree", "p7", "inverse_poincare", "killed"),
    ("k3_for_khat3", "p1", "eta_sign[-1]", "survives"),
    ("k3_for_khat3", "p2", "eta_sign[-1]", "killed"),  # inadmissible certificate
    ("k3_for_khat3", "p3", "eta_sign[-1]", "survives"),  # n = 2 keeps the degree
    ("names_dropped", "p1", "krasnoselskii", "killed"),
    ("names_dropped", "p2", "krasnoselskii", "killed"),
    ("names_dropped", "p1", "eta_sign[1]", "survives"),
    ("names_dropped", "p2", "eta_sign[1]", "survives"),
] + [("flipped_sign", pid, verdict, "killed")  # every degree is nonzero
     for pid, verdicts in (
         ("p1", ("krasnoselskii", "inverse_poincare", "eta_sign[1]", "eta_sign[-1]")),
         ("p2", ("krasnoselskii", "inverse_poincare", "eta_sign[1]", "eta_sign[-1]")),
         ("p3", ("krasnoselskii", "inverse_poincare", "eta_sign[1]", "eta_sign[-1]")),
         ("p4", ("dirichlet_shooting",)), ("p5", ("dirichlet_shooting",)), ("p6", ("delay",)),
         ("p7", ("krasnoselskii", "inverse_poincare", "nonlocal_signs[0.5]",
                 "nonlocal_signs[-1]")))
     for verdict in verdicts]


def outcome(pid: str, verdict: str) -> str:
    """``killed`` or ``survives`` for one verdict at m = M under the catalog
    as it is patched now."""
    pair, _, eta = verdict.partition("[")
    problem = replace(problems.get_problem(pid), m=M)
    try:
        rep = certify.verify_duality(problem, pair, eta=float(eta[:-1]) if eta else None)
    except flows.IntegrationError:
        return "killed"
    return "survives" if rep.equal else "killed"


@pytest.mark.parametrize("pid,verdict", sorted({row[1:3] for row in TABLE}))
def test_unmutated_verdict_passes(pid, verdict):
    # a survivor means something only where the real catalog PASSes
    assert outcome(pid, verdict) == "survives"


@pytest.mark.parametrize("mutant,pid,verdict,expected", TABLE,
                         ids=["-".join(row[:3]) for row in TABLE])
def test_mutation_table(mutant, pid, verdict, expected, monkeypatch):
    monkeypatch.setattr(*MUTANTS[mutant])
    assert outcome(pid, verdict) == expected
