"""Closed-form oracle: random scalar cubics whose degree is known exactly.

A 1-d autonomous flow has no non-constant periodic orbits, so the fixed
points of the period map of x' = p(x) are the roots of p, and a root r has
index sgn(1 - exp(p'(r) T)) = -sgn p'(r).  For p = -(x - a)(x - b)(x - c),
a < b < c, the indices are +1, -1, +1, and the degree over a box [lo, hi] is
the sum over the roots inside it.  ``np.poly`` and ``np.polyval`` compute it:
no flow, Newton or degree code of ``dualdeg`` is involved.

A seeded generator draws the roots in (-0.9, 0.9) and a box in [-1, 1] whose
degree cycles through -1, 0 and +1.  Its guards are fixed in advance: no root
within 0.05 of a face, and |p'(r)| >= 1e-2 at every root.  Each draw runs
``run(..., "duality")`` at m = 64 as a coefficient table.  The table holds
today's outcomes, so a row fails when its outcome changes in either
direction: the left and right degree of each pair and the verdict, or the
class of the named error the run ends in.
"""

import numpy as np
import pytest

from dualdeg import degree, flows, problems

SEED = 2107
DRAWS = 12
M = 64
FACE_GAP = 0.05
MIN_SLOPE = 1e-2
ERRORS = (problems.ProblemValidationError, problems.SuiteError, flows.SingularEtaError,
          flows.IntegrationError, degree.CollisionError)


def cubic(roots) -> np.ndarray:
    """Coefficients of p = -(x - a)(x - b)(x - c), highest power first."""
    return -np.poly(roots)


def closed_form_degree(roots, box) -> int:
    slope = np.polyder(cubic(roots))
    return int(sum(-np.sign(np.polyval(slope, r)) for r in roots if box[0] < r < box[1]))


def guards_hold(roots, box) -> bool:
    slopes = np.polyval(np.polyder(cubic(roots)), roots)
    return bool(np.min(np.abs(np.subtract.outer(roots, box))) >= FACE_GAP
                and np.min(np.abs(slopes)) >= MIN_SLOPE)


def draws(seed=SEED, n=DRAWS):
    """``n`` (roots, box) pairs, rounded to 3 decimals; draw i has degree
    (-1, 0, +1)[i % 3].  The box holds a run of consecutive roots, which
    may be empty: the indices +1, -1, +1 sum to each target that way."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        target = (-1, 0, 1)[len(out) % 3]
        roots = np.sort(np.round(rng.uniform(-0.9, 0.9, 3), 3))
        bounds = [-1.0, *roots, 1.0]
        runs = [(i, j) for i in range(4) for j in range(i, 4)
                if sum((1, -1, 1)[i:j]) == target]
        i, j = runs[rng.integers(len(runs))]
        lo_span = (bounds[i] + FACE_GAP, bounds[i + 1] - FACE_GAP)
        hi_span = (bounds[j] + FACE_GAP, bounds[j + 1] - FACE_GAP)
        if lo_span[0] >= lo_span[1] or hi_span[0] >= hi_span[1]:
            continue
        lo, hi = rng.uniform(*lo_span), rng.uniform(*hi_span)
        box = tuple(np.round(sorted((lo, hi)), 3).tolist())
        if box[1] - box[0] >= FACE_GAP and guards_hold(roots, box):
            out.append((tuple(roots.tolist()), box))
    return out


def spec(roots, box) -> problems.ProblemSpec:
    table = {"poly": cubic(roots)[::-1].tolist()}
    # 11 bounds |p'| on [-1, 1] (3 + 2 * 2.7 + 2.43); U1 is the unit ball, U2 the box
    return problems.ProblemSpec("cubic", "periodic_ode", 1, 1.0, table, 11.0, M, 1.0, (box,))


def outcome(roots, box):
    """({pair: (left, right)}, verdict) of the duality suite, or the error's class name."""
    try:
        rep = problems.run(spec(roots, box), "duality")
    except ERRORS as exc:
        return type(exc).__name__
    return {d["pair"]: (d["left"]["degree"], d["right"]["degree"])
            for d in rep.duality}, rep.verdict


K, IP = "krasnoselskii", "inverse_poincare"
# (roots, box, closed-form degree, today's outcome)
TABLE = [
    ((-0.58, -0.264, -0.012), (-0.345, -0.141), -1, ({K: (-1, -1), IP: (1, -1)}, True)),
    ((-0.563, -0.356, 0.83), (-0.26, 0.024), 0, ({K: (0, 0), IP: (0, 0)}, False)),
    ((-0.152, 0.097, 0.68), (-0.398, 0.01), 1, ({K: (1, 1), IP: (-1, 1)}, True)),
    ((-0.733, -0.365, 0.62), (-0.63, 0.023), -1, ({K: (-1, -1), IP: (1, -1)}, True)),
    ((-0.809, -0.182, 0.048), (-0.42, 0.157), 0, ({K: (0, 0), IP: (0, 0)}, True)),
    ((-0.403, -0.08, 0.651), (-0.488, 0.828), 1, ({K: (1, 1), IP: (-1, 1)}, True)),
    ((-0.16, 0.131, 0.718), (-0.097, 0.239), -1, ({K: (-1, -1), IP: (1, -1)}, True)),
    ((-0.79, -0.198, 0.238), (-0.611, -0.42), 0, ({K: (0, 0), IP: (0, 0)}, False)),
    ((-0.421, 0.207, 0.636), (-0.578, 0.837), 1, ({K: (1, 1), IP: (-1, 1)}, True)),
    ((0.101, 0.551, 0.777), (0.165, 0.645), -1, ({K: (-1, -1), IP: (1, -1)}, True)),
    ((-0.519, 0.043, 0.358), (-0.217, -0.015), 0, ({K: (0, 0), IP: (0, 0)}, False)),
    ((-0.414, -0.207, -0.006), (-0.138, 0.649), 1, ({K: (1, 1), IP: (-1, 1)}, True)),
]


def test_generator_reproduces_the_table():
    assert draws() == [(roots, box) for roots, box, _, _ in TABLE]


@pytest.mark.parametrize("i", range(len(TABLE)), ids=[f"draw{i}" for i in range(len(TABLE))])
def test_family_row(i):
    roots, box, closed, expected = TABLE[i]
    assert guards_hold(np.array(roots), box)
    assert closed_form_degree(roots, box) == closed == (-1, 0, 1)[i % 3]
    assert outcome(roots, box) == expected
