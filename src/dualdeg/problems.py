"""Built-in problem catalog, config ingestion and suite orchestration.

A problem bundles a right-hand side (builtin id or coefficient tables),
its boundary-condition kind, the default discretization and the default
verification domains.  ``run`` drives the duality / sign / operator-chain
suites over a problem and returns a deterministic report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field, replace
from importlib import resources
from typing import Callable

import numpy as np

from . import certify, degree as deg_mod, flows, operators, report as report_mod
from .certify import FunctionBall
from .degree import DomainSpec, box_domain
from .gridfn import DelayKernel, Grid

SCHEMA_VERSION = "1"
KINDS = ("periodic_ode", "dirichlet_bvp", "periodic_dde", "nonlocal_1d")
SUITES = ("all", "duality", "signs", "operators")

_TWO_PI = 2.0 * np.pi


class ProblemValidationError(ValueError):
    """Config document violates the problem schema or its invariants."""


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
    return -x + np.expand_dims(np.cos(_TWO_PI * t), -1)


def _p2_rhs(t, x):
    return x - np.float_power(x, 3)


def _p3_rhs(t, x):
    return _vec(x[..., 1] + np.cos(_TWO_PI * t), -x[..., 0])


def _p4_rhs(t, x):
    return np.asarray(x, dtype=float).copy()


def _p5_rhs(t, x):
    return -0.5 * np.pi ** 2 * np.asarray(x, dtype=float)


def _p6_rhs(t, x, xd):
    return -x + 0.5 * xd + np.expand_dims(np.sin(_TWO_PI * t), -1)


def _p7_rhs(t, x):
    # u'' = u + cos(t) on (0, 2pi), as a first-order system (u, u')
    return _vec(x[..., 1], x[..., 0] + np.cos(t))


_BUILTINS: dict[str, dict] = {
    "p1": {"fkind": flows.NONDELAY, "rhs": _p1_rhs},
    "p2": {"fkind": flows.NONDELAY, "rhs": _p2_rhs},
    "p3": {"fkind": flows.NONDELAY, "rhs": _p3_rhs},
    "p4": {"fkind": flows.SECOND_ORDER, "rhs": _p4_rhs},
    "p5": {"fkind": flows.SECOND_ORDER, "rhs": _p5_rhs},
    "p6": {"fkind": flows.DELAY, "rhs": _p6_rhs},
    "p7": {"fkind": flows.NONDELAY, "rhs": _p7_rhs,
           "A": ((1.0,),), "scalar_rhs": lambda t, u: u + np.cos(t)},
}

_FKIND_BY_PROBLEM_KIND = {
    "periodic_ode": flows.NONDELAY,
    "nonlocal_1d": flows.NONDELAY,
    "dirichlet_bvp": flows.SECOND_ORDER,
    "periodic_dde": flows.DELAY,
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
        if entry["fkind"] != _FKIND_BY_PROBLEM_KIND[spec.kind]:
            raise ProblemValidationError(
                f"rhs id {rhs['id']!r} incompatible with kind {spec.kind!r}")
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

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ProblemValidationError(f"unknown problem kind {self.kind!r}")
        if self.kind == "periodic_dde":
            if self.tau is None:
                raise ProblemValidationError("periodic_dde needs tau")
            try:
                DelayKernel(self.tau, self.period)  # validates tau <= T
            except ValueError as exc:
                raise ProblemValidationError(str(exc)) from exc
        elif self.tau is not None:
            raise ProblemValidationError(
                f"tau is only meaningful for periodic_dde, not {self.kind!r}")
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
        _resolve_rhs(self)  # fail fast on unknown / mismatched rhs

    # -- duck-typed interface consumed by operators / certify ------------
    def field(self) -> flows.VectorFieldSpec:
        return flows.VectorFieldSpec(
            dim=self.dim, period=self.period,
            kind=_FKIND_BY_PROBLEM_KIND[self.kind],
            rhs=_resolve_rhs(self), lipschitz=self.lipschitz, tau=self.tau)

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
        entry = _BUILTINS.get(self.rhs.get("id", ""), {})
        if "A" not in entry:
            raise ValueError(f"{self.pid}: no linearization table")
        return np.asarray(entry["A"], dtype=float)

    def averaged_field(self) -> Callable[[float], float]:
        """u -> -T * mean_t g(t, u) for the scalar second-order rhs g."""
        entry = _BUILTINS.get(self.rhs.get("id", ""), {})
        g = entry.get("scalar_rhs")
        if g is None:
            raise ValueError(f"{self.pid}: no scalar second-order rhs")
        nodes = self.grid().nodes
        w = np.ones_like(nodes)
        w[0] = w[-1] = 0.5
        w *= self.grid().h

        def phi(u: float) -> float:
            return float(-np.sum(w * np.array([g(t, u) for t in nodes])))

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


def problem_schema() -> dict:
    text = resources.files("dualdeg.schemas").joinpath(
        "problem.schema.json").read_text()
    return json.loads(text)


def load_problem(path) -> ProblemSpec:
    """Load and validate a problem config JSON file."""
    import jsonschema

    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemValidationError(f"parse error: {exc}") from exc
    validator = jsonschema.Draft202012Validator(problem_schema())
    errors = sorted(validator.iter_errors(doc), key=lambda e: e.json_path)
    if errors:
        raise ProblemValidationError(
            "; ".join(f"{e.json_path}: {e.message}" for e in errors))
    return from_dict(doc)


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


def _duality_pairs(problem: ProblemSpec) -> list[tuple[str, dict]]:
    if problem.kind in operators.PERIODIC_KINDS:
        return [("krasnoselskii", {}), ("inverse_poincare", {})]
    if problem.kind == "dirichlet_bvp":
        return [("dirichlet_shooting", {})]
    return [("delay", {})]


def _sign_instances(problem: ProblemSpec, etas) -> list[tuple[str, dict]]:
    if problem.kind == "periodic_ode":
        vals = etas if etas else (1.0, -1.0)
        return [("eta_sign", {"eta": e}) for e in vals]
    if problem.kind == "nonlocal_1d":
        vals = etas if etas else (0.5, -1.0)
        return [("nonlocal_signs", {"eta": e}) for e in vals]
    return []


def _operator_plan(problem: ProblemSpec, U1, U2, vr) -> certify.Plan:
    """Operator-family checks: chain homotopies and/or solution residuals.
    Concludes with (certificate dicts, residual dicts)."""
    if problem.kind in operators.PERIODIC_KINDS:
        chain = (("K", "Kgamma"), ("K4", "K3"), ("K3", "K5"))
        homotopies = tuple((operators.build(a, problem), operators.build(b, problem), vr)
                           for a, b in chain)

        def conclude(certs, core):
            chain_deg = deg_mod.finite_rank_reduce(
                operators.build("Ktilde", problem), U2, r=vr.r)
            dicts = [dict(report_mod.certificate_dict(c), chain_degree=chain_deg.degree)
                     for c in certs]
            return dicts, []

        return certify.Plan("operators", homotopies, conclude)

    names = ("K6", "K7", "K8") if problem.kind == "periodic_dde" else ("Kdir", "Kdir1")

    def conclude(certs, core):
        out: list[dict] = []
        fps = certify.find_fixed_points(operators.build(names[0], problem), U1)
        for fp in fps:
            for name in names:
                h = operators.build(name, problem)
                out.append({"operator": name, "solution_sup_norm": fp.sup_norm(),
                            "residual": operators.residual(h, fp)})
        return [], out

    return certify.Plan("operators", (), conclude)


def run(problem: ProblemSpec, suite: str = "all", grid_m: int | None = None,
        etas: tuple | None = None, seed: int = certify.DEFAULT_SEED) -> RunReport:
    """Execute a verification suite on one problem, deterministically.

    Every verdict's homotopies are certified together, each distinct one
    once, and the common core is checked once (``certify.run_plans``).
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    if grid_m is not None:
        problem = replace(problem, m=int(grid_m))

    instances: list[tuple[str, dict]] = []
    if suite in ("all", "duality"):
        instances += _duality_pairs(problem)
    if suite in ("all", "signs"):
        instances += _sign_instances(problem, etas)

    U1, U2 = problem.default_U1(), problem.default_U2()
    vr = certify.default_pullback(U2)
    plans = [certify.plan_duality(problem, pair, U1, U2, vr, **kw)
             for pair, kw in instances]
    if suite in ("all", "operators"):
        plans.append(_operator_plan(problem, U1, U2, vr))
    timings: dict[str, float] = {}
    results = certify.run_plans(problem, plans, U1, U2, seed, timings)

    duality = [report_mod.duality_dict(problem.pid, rep)
               for rep in results[:len(instances)]]
    certs, residuals = results[-1] if suite in ("all", "operators") else ([], [])
    verdict = all(d["equal"] for d in duality) \
        and all(c["admissible"] for c in certs) \
        and all(r["residual"] <= 5e-5 for r in residuals)
    return RunReport(problem=problem.pid, suite=suite, seed=seed,
                     grid_m=problem.m, duality=tuple(duality),
                     certificates=tuple(certs), residuals=tuple(residuals),
                     verdict=bool(verdict), timings=timings)
