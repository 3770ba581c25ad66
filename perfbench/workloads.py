"""The benchmark's workloads and the seeds their inputs are drawn from.

This module imports nothing from ``dualdeg``, so ``run.py`` can read it before
it knows whether the package is present.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """Problems run, in order, with ``problems.run(spec, "all", ...)``."""

    problems: tuple[str, ...]
    grid_m: int | None  # None keeps each problem's default grid


WORKLOADS = {
    # Planar periodic problem: per-node Nemytskii superposition and RK4 flows
    # over independent homotopy boundary samples, most of them repeated.
    # m = 128 rather than the default 256 keeps one pass near 40 s, so that a
    # run with its traced pass stays within the per-run time limit.
    "periodic-planar": Workload(("p3",), 128),
    # Dirichlet and delay problems at their default grids: the finite side
    # (mu_dirichlet, dde_flow) in sequential single-state chains; Nemytskii is
    # nearly idle and most operator inputs are distinct.
    "bvp-delay": Workload(("p4", "p5", "p6"), None),
    # Scalar periodic problems on a coarse grid: 65 nodes, so fixed per-call
    # costs (sample construction, bisection, handle setup) dominate.
    "scalar-coarse": Workload(("p1", "p2"), 64),
}

# Boundary-sampling seeds whose outcomes are recorded in ``oracle.json``.
# 19282 is the package default (``certify.DEFAULT_SEED``).
SEED_POOL = (19282, 1, 7, 123456)


def problem_seed(seed: int) -> int:
    """Seed passed to ``problems.run`` for the benchmark's ``--seed``.

    A pool seed is used as is; any other seed picks a pool entry, so every
    input the benchmark makes has a recorded expected outcome.
    """
    return seed if seed in SEED_POOL else SEED_POOL[seed % len(SEED_POOL)]


def oracle_key(pid: str, grid_m: int, seed: int) -> str:
    return f"{pid}/m{grid_m}/seed{seed}"
