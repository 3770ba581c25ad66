"""Built-in problem catalog, config ingestion and suite orchestration.

A problem bundles a right-hand side (builtin id or coefficient tables),
its boundary-condition kind, the default discretization and the default
verification domains.  ``run`` drives the duality / sign / operator-chain
suites over a problem and returns a deterministic report.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import Callable

import numpy as np

from . import certify, flows, operators, report as report_mod
from .certify import FunctionBall
from .degree import DomainSpec, box_domain
from .gridfn import DelayKernel, Grid

SCHEMA_VERSION = "1"
KINDS = tuple(certify.KIND_TABLE)
SUITES = ("all", "duality", "signs", "operators")

_TWO_PI = 2.0 * np.pi


class ProblemValidationError(ValueError):
    """Config document violates the problem schema or its invariants."""


class SuiteError(ValueError):
    """A suite with no verdict on the problem, or eta values not finite or unread."""


# ---------------------------------------------------------------------------
# Builtin right-hand sides, rhs(t, X) on stacks X (..., n).  np.float_power
# is libm pow, as a scalar x ** k is; the SIMD x ** k loop can differ in ulps.
# ---------------------------------------------------------------------------

def _vec(*components):
    """(..., n) array of n equally shaped components: np.stack(axis=-1), cheaper."""
    out = np.empty(np.shape(components[0]) + (len(components),))
    for i, c in enumerate(components):
        out[..., i] = c
    return out


def _p1_rhs(t, x):
    return -x + np.cos(_TWO_PI * t)[..., None]


def _p2_rhs(t, x):
    return x - np.float_power(x, 3)


def _p3_rhs(t, x):
    return _vec(x[..., 1] + np.cos(_TWO_PI * t), -x[..., 0])


def _p4_rhs(t, x):
    return np.asarray(x, dtype=float).copy()


def _p5_rhs(t, x):
    return -0.5 * np.pi ** 2 * np.asarray(x, dtype=float)


def _p6_rhs(t, x, xd):
    return -x + 0.5 * xd + np.sin(_TWO_PI * t)[..., None]


def _p7_rhs(t, x):
    # u'' = u + cos(t) on (0, 2pi), as a first-order system (u, u')
    return _vec(x[..., 1], x[..., 0] + np.cos(t))


# per builtin: its "dim" if it has one; "A" and "scalar_rhs" if nonlocal_1d can read it
_BUILTINS: dict[str, dict] = {
    "p1": {"fkind": flows.NONDELAY, "rhs": _p1_rhs},
    "p2": {"fkind": flows.NONDELAY, "rhs": _p2_rhs},
    "p3": {"fkind": flows.NONDELAY, "rhs": _p3_rhs, "dim": 2},
    "p4": {"fkind": flows.SECOND_ORDER, "rhs": _p4_rhs},
    "p5": {"fkind": flows.SECOND_ORDER, "rhs": _p5_rhs},
    "p6": {"fkind": flows.DELAY, "rhs": _p6_rhs},
    "p7": {"fkind": flows.NONDELAY, "rhs": _p7_rhs, "dim": 2,
           "A": ((1.0,),), "scalar_rhs": lambda t, u: u + np.cos(t)},
}

def _table_rhs(rhs: dict) -> Callable:
    """Scalar f(t, x) from polynomial + trigonometric coefficient tables."""
    poly = [float(c) for c in rhs.get("poly", [])]
    cos_terms = [(float(a), float(w)) for a, w in rhs.get("cos", [])]
    sin_terms = [(float(a), float(w)) for a, w in rhs.get("sin", [])]

    def f(t, x):
        u = x[..., 0]
        v = sum(c * np.float_power(u, k) for k, c in enumerate(poly))
        v += sum(a * np.cos(w * t) for a, w in cos_terms)
        v += sum(a * np.sin(w * t) for a, w in sin_terms)
        return np.broadcast_to(v, u.shape).astype(float)[..., None]

    return f


def _resolve_rhs(spec: "ProblemSpec") -> Callable:
    rhs = spec.rhs
    if "id" in rhs:
        entry = _BUILTINS.get(rhs["id"])
        if entry is None:
            raise ProblemValidationError(f"unknown rhs id {rhs['id']!r}")
        if entry["fkind"] != certify.KIND_TABLE[spec.kind].field_kind:
            raise ProblemValidationError(
                f"rhs id {rhs['id']!r} incompatible with kind {spec.kind!r}")
        if entry.get("dim", spec.dim) != spec.dim:
            raise ProblemValidationError(
                f"rhs id {rhs['id']!r} needs dim {entry['dim']}, got dim {spec.dim}")
        return entry["rhs"]
    if spec.dim != 1:
        raise ProblemValidationError("coefficient-table rhs requires dim 1")
    if spec.kind == "periodic_dde":
        raise ProblemValidationError("coefficient-table rhs has no delay slot")
    return _table_rhs(rhs)


# ---------------------------------------------------------------------------
# ProblemSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemSpec:
    """Serializable description of one built-in or user-supplied problem."""

    pid: str
    kind: str
    dim: int
    period: float
    rhs: dict
    lipschitz: float
    m: int
    u1_radius: float
    u2_box: tuple
    tau: float | None = None
    hist_nodes: int | None = None
    description: str = ""
    schema_version: str = SCHEMA_VERSION
    # the run memo on a run's copy (``operators.run_copy``: ``run`` and
    # ``certify.verify_duality``), None elsewhere; ``replace`` keeps it, so the
    # copies of one run (their m differs) share one memo
    _solutions: object = dc_field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ProblemValidationError(f"unknown problem kind {self.kind!r}")
        for name in ("period", "lipschitz", "u1_radius"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ProblemValidationError(f"{name} must be finite, got {value}")
        if self.kind == "periodic_dde":
            if self.tau is None:
                raise ProblemValidationError("periodic_dde needs tau")
            if self.history_nodes() < 3:  # 2 nodes span tau in one history step
                raise ProblemValidationError(
                    f"history_nodes must be at least 3, got {self.history_nodes()}")
            try:  # tau <= T, and a whole number of grid steps
                steps = self.kernel().shift_steps(self.grid())
            except ValueError as exc:
                raise ProblemValidationError(str(exc)) from exc
            if steps < 2:  # the history grid on [-tau, 0] needs m >= 2
                raise ProblemValidationError(
                    f"tau={self.tau} spans {steps} grid step of h={self.grid().h}, "
                    f"and the delay history needs at least 2")
        elif self.tau is not None:
            raise ProblemValidationError(
                f"tau is only meaningful for periodic_dde, not {self.kind!r}")
        if self.kind == "nonlocal_1d" and "A" not in _BUILTINS.get(self.rhs.get("id"), {}):
            raise ProblemValidationError(
                f"nonlocal_1d needs a builtin rhs with a linearization table, not {self.rhs}")
        if self.kind == "dirichlet_bvp" and abs(self.period - 1.0) > 1e-12:
            raise ProblemValidationError("dirichlet_bvp is posed on [0, 1]")
        if self.m < 2:
            raise ProblemValidationError(f"grid needs m >= 2, got m={self.m}")
        box = tuple(tuple(float(v) for v in row) for row in self.u2_box)
        rows = {"dirichlet_bvp": 2 * self.dim,
                "periodic_dde": self.history_nodes() * self.dim}.get(self.kind, self.dim)
        if len(box) != rows:
            raise ProblemValidationError(
                f"u2_box has {len(box)} rows, a {self.kind} problem of dim "
                f"{self.dim} needs {rows}")
        for row in box:
            if len(row) != 2 or not (np.all(np.isfinite(row)) and row[0] < row[1]):
                raise ProblemValidationError(
                    f"u2_box row {list(row)} is not a finite [lo, hi] with lo < hi")
        object.__setattr__(self, "u2_box", box)
        object.__setattr__(self, "rhs", dict(self.rhs))
        # fail fast on unknown / mismatched rhs; one field spec for every field()
        rhs = _resolve_rhs(self)
        try:
            fs = flows.VectorFieldSpec(
                dim=self.dim, period=self.period,
                kind=certify.KIND_TABLE[self.kind].field_kind,
                rhs=rhs, lipschitz=self.lipschitz, tau=self.tau)
        except ValueError as exc:  # a period or Lipschitz bound out of range
            raise ProblemValidationError(str(exc)) from exc
        object.__setattr__(self, "_field", fs)

    # -- duck-typed interface consumed by operators / certify ------------
    def field(self) -> flows.VectorFieldSpec:
        return self._field

    def grid(self) -> Grid:
        if self.kind == "dirichlet_bvp":
            return Grid(0.0, 1.0, self.m)
        return Grid(0.0, self.period, self.m)

    def kernel(self) -> DelayKernel:
        if self.kind != "periodic_dde":
            raise ValueError(f"{self.pid}: no delay kernel for kind {self.kind!r}")
        return DelayKernel(self.tau, self.period)

    def default_U1(self) -> FunctionBall:
        return FunctionBall(self.u1_radius)

    def default_U2(self) -> DomainSpec:
        return box_domain(self.u2_box)

    def history_nodes(self) -> int:
        return self.hist_nodes if self.hist_nodes is not None else 8

    def with_history_nodes(self) -> "ProblemSpec":
        """Copy of the problem discretized at the coarse history resolution."""
        k = self.history_nodes() - 1
        h = self.tau / k
        m = round(self.period / h)
        if abs(m * h - self.period) > 1e-9:
            raise ProblemValidationError(
                f"history_nodes={self.history_nodes()} does not tile the period")
        return replace(self, m=m)

    # -- nonlocal_1d extras -----------------------------------------------
    def linearization(self) -> np.ndarray:
        return np.asarray(_BUILTINS[self.rhs["id"]]["A"], dtype=float)

    def averaged_field(self) -> Callable[[float], float]:
        """u -> -T * mean_t g(t, u) for the scalar second-order rhs g."""
        g = _BUILTINS[self.rhs["id"]]["scalar_rhs"]
        nodes = self.grid().nodes
        w = np.ones_like(nodes)
        w[0] = w[-1] = 0.5
        w *= self.grid().h

        def phi(u: float) -> float:
            return float(-np.sum(w * g(nodes, u)))

        return phi

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        d = {"schema_version": self.schema_version, "id": self.pid,
             "kind": self.kind, "dim": self.dim, "period": self.period,
             "rhs": dict(self.rhs), "lipschitz": self.lipschitz,
             "m": self.m, "u1_radius": self.u1_radius,
             "u2_box": [list(row) for row in self.u2_box]}
        if self.tau is not None:
            d["tau"] = self.tau
        if self.hist_nodes is not None:
            d["history_nodes"] = self.hist_nodes
        if self.description:
            d["description"] = self.description
        return d


def from_dict(doc: dict) -> ProblemSpec:
    try:
        return ProblemSpec(
            pid=doc["id"], kind=doc["kind"], dim=doc["dim"],
            period=doc["period"], rhs=doc["rhs"], lipschitz=doc["lipschitz"],
            m=doc["m"], u1_radius=doc["u1_radius"],
            u2_box=tuple(tuple(row) for row in doc["u2_box"]),
            tau=doc.get("tau"), hist_nodes=doc.get("history_nodes"),
            description=doc.get("description", ""),
            schema_version=doc.get("schema_version", SCHEMA_VERSION))
    except ValueError as exc:
        raise ProblemValidationError(str(exc)) from exc


def load_problem(path) -> ProblemSpec:
    """Load and validate a problem config JSON file."""
    try:
        return from_dict(report_mod.load_valid(path, "problem.schema.json"))
    except ValueError as exc:
        raise ProblemValidationError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def catalog() -> list[ProblemSpec]:
    return [
        ProblemSpec("p1", "periodic_ode", 1, 1.0, {"id": "p1"}, 1.0, 256,
                    1.0, ((-1.0, 1.0),),
                    description="linear scalar periodic: x' = -x + cos(2 pi t)"),
        ProblemSpec("p2", "periodic_ode", 1, 1.0, {"id": "p2"}, 26.0, 256,
                    3.0, ((-2.0, 2.0),),
                    description="cubic autonomous: x' = x - x^3"),
        ProblemSpec("p3", "periodic_ode", 2, 1.0, {"id": "p3"}, 1.0, 256,
                    2.0, ((-1.0, 1.0), (-1.0, 1.0)),
                    description="planar rotation with forcing: x' = Jx + (cos(2 pi t), 0)"),
        ProblemSpec("p4", "dirichlet_bvp", 1, 1.0, {"id": "p4"}, 1.0, 256,
                    3.0, ((-1.0, 1.0), (-1.0, 1.0)),
                    description="Dirichlet linear: x'' = x, x(0) = x(1) = 0"),
        ProblemSpec("p5", "dirichlet_bvp", 1, 1.0, {"id": "p5"}, 5.0, 256,
                    3.0, ((-1.0, 1.0), (-1.0, 1.0)),
                    description="Dirichlet non-resonant: x'' = -(pi^2/2) x"),
        ProblemSpec("p6", "periodic_dde", 1, 1.0, {"id": "p6"}, 1.5, 128,
                    2.0, tuple(((-1.0, 1.0),) * 8), tau=0.5, hist_nodes=8,
                    description="scalar DDE: x' = -x + x(t - 1/2)/2 + sin(2 pi t)"),
        ProblemSpec("p7", "nonlocal_1d", 2, _TWO_PI, {"id": "p7"}, 1.0, 256,
                    2.0, ((-1.0, 1.0), (-1.0, 1.0)),
                    description="nonlocal 1-d: u'' = u + cos(t), 2 pi-periodic system"),
    ]


def get_problem(pid: str) -> ProblemSpec:
    for p in catalog():
        if p.pid == pid:
            return p
    raise KeyError(f"unknown builtin problem {pid!r}")


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunReport:
    problem: str
    suite: str
    seed: int
    grid_m: int
    duality: tuple
    certificates: tuple
    residuals: tuple
    verdict: bool
    timings: dict = dc_field(default_factory=dict)
    format_version: str = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {"format_version": self.format_version,
                "problem": self.problem, "suite": self.suite,
                "seed": self.seed, "grid_m": self.grid_m,
                "duality": list(self.duality),
                "certificates": list(self.certificates),
                "residuals": list(self.residuals),
                "verdict": self.verdict, "timings": dict(self.timings)}


def _operator_plan(problem: ProblemSpec, U1, vr, handles: dict) -> certify.Plan:
    """The operator suite of the problem's kind (``certify.KindRow``).  It
    concludes with the certificates of its chain over ``vr`` and the residuals
    of its residual operators at the grid fixed points over U1 of the first.
    Kdir1's alpha reads the run's memo: a Kdir2 search's states cost no sweep.
    Its operators are built through the run's ``handles`` (``operators.build_once``)."""
    row = certify.KIND_TABLE[problem.kind]
    op = lambda name: operators.build_once(handles, name, problem)
    homotopies = tuple((op(a), op(b), vr) for a, b in row.chain)

    def conclude(certs, core, degree):
        deg = certs and degree(op("Ktilde"), vr).degree
        certs = [dict(report_mod.certificate_dict(c), chain_degree=deg) for c in certs]
        names = row.residuals
        fps = names and certify.find_fixed_points(op(names[0]), U1)
        residuals = [{"operator": name, "solution_sup_norm": fp.sup_norm(),
                      "residual": operators.residual(op(name), fp)}
                     for fp in fps for name in names]
        return certs, residuals

    return certify.Plan("operators", homotopies, conclude)


def run(problem: ProblemSpec, suite: str = "all", grid_m: int | None = None,
        etas: tuple | None = None, seed: int = certify.DEFAULT_SEED) -> RunReport:
    """Execute a verification suite on one problem, deterministically.

    Each verdict and the operator suite are one plan each; their homotopies
    are certified together, each distinct one once, and the common core is
    checked once (``certify.run_plans``).  A suite with no verdict on the
    problem, or eta values not finite or no signs pair reads, raise SuiteError.
    """
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    if etas and not np.isfinite(etas).all():
        raise SuiteError(f"eta values must be finite, got {list(etas)}")
    row = certify.KIND_TABLE[problem.kind]
    signs = row.signs if suite in ("all", "signs") else None
    if etas and signs is None:
        raise SuiteError(f"eta values need a signs pair, and suite {suite!r} "
                         f"runs none on {problem.pid}")
    instances = [(pair, None) for pair in row.duality if suite in ("all", "duality")]
    instances += [(signs, eta) for eta in etas or row.etas if signs]
    operator_suite = suite in ("all", "operators")
    if not (instances or operator_suite):
        raise SuiteError(f"suite {suite!r} runs no verdict on {problem.pid}, "
                         f"a {problem.kind} problem")
    # the run's own copy, whose finite maps integrate each distinct state once
    problem = operators.run_copy(problem, problem.m if grid_m is None else grid_m)

    U1, U2 = problem.default_U1(), problem.default_U2()
    vr = certify.default_pullback(U2)
    handles = {}  # each of the run's operators, built once for all its plans
    plans = [certify.plan_duality(problem, pair, U1, U2, vr, eta, handles)
             for pair, eta in instances]
    if operator_suite:
        plans.append(_operator_plan(problem, U1, vr, handles))
    timings: dict[str, float] = {}
    results = certify.run_plans(problem, plans, U1, U2, seed, timings)
    certs, residuals = results[-1] if operator_suite else ([], [])

    duality = [report_mod.duality_dict(problem.pid, rep)
               for rep in results[:len(instances)]]
    verdict = all(d["equal"] for d in duality) \
        and all(c["admissible"] for c in certs) \
        and all(r["residual"] <= 5e-5 for r in residuals)
    return RunReport(problem=problem.pid, suite=suite, seed=seed,
                     grid_m=problem.m, duality=tuple(duality),
                     certificates=tuple(certs), residuals=tuple(residuals),
                     verdict=bool(verdict), timings=timings)
