"""Command-line interface: catalog listing, suite runs, one-off degree
computations and report re-emission."""

from __future__ import annotations

import glob
import json
import os
import sys

import click

from . import certify, degree as deg_mod, flows, operators, problems, report as report_mod


def _resolve_problem(name: str) -> problems.ProblemSpec:
    if os.path.exists(name):
        try:
            return problems.load_problem(name)
        except problems.ProblemValidationError as exc:
            raise click.ClickException(f"{name}: {exc}")
    try:
        return problems.get_problem(name)
    except KeyError:
        raise click.ClickException(
            f"unknown problem {name!r}: not a builtin id and not a file")


@click.group()
def main():
    """Fixed-point operator duality verifier.

    Computes topological degrees of the catalog of fixed-point operator
    representations of periodic, Dirichlet and delay problems and checks
    that dual representations yield equal degrees.
    """


@main.command("list")
def list_catalog():
    """Print the builtin problem catalog."""
    click.echo(f"{'id':<4} {'kind':<14} {'dim':<4} {'T':<8} {'tau':<6} description")
    for p in problems.catalog():
        tau = f"{p.tau:g}" if p.tau is not None else "-"
        click.echo(f"{p.pid:<4} {p.kind:<14} {p.dim:<4} {p.period:<8g} "
                   f"{tau:<6} {p.description}")


@main.command()
@click.argument("problem")
@click.option("--suite", default="all", show_default=True,
              type=click.Choice(problems.SUITES), help="Verification suite.")
@click.option("--grid", "grid_m", default=None, type=int,
              help="Override the number of grid subintervals m.")
@click.option("--eta", "etas", multiple=True, type=float,
              help="Eta values for the signs suite (repeatable).")
@click.option("--seed", default=certify.DEFAULT_SEED, show_default=True,
              type=click.IntRange(min=0), help="Boundary-sampling seed.")
@click.option("--out", "outdir", default=".", show_default=True,
              help="Directory for the JSON report.")
def run(problem, suite, grid_m, etas, seed, outdir):
    """Run a verification suite on PROBLEM (builtin id or config file)."""
    spec = _resolve_problem(problem)
    try:
        rep = problems.run(spec, suite=suite, grid_m=grid_m,
                           etas=tuple(etas) or None, seed=seed)
    except (problems.ProblemValidationError, problems.SuiteError, flows.SingularEtaError,
            flows.IntegrationError, deg_mod.CollisionError) as exc:
        raise click.ClickException(str(exc))
    doc = rep.to_dict()
    path = report_mod.emit(doc, "json", outdir)
    for inst in doc["duality"]:
        eta = f" eta={inst['eta']:g}" if "eta" in inst else ""
        click.echo(f"{inst['problem']} {inst['pair']}{eta}: "
                   f"left={inst['left']['degree']:+d} "
                   f"right={inst['right']['degree']:+d} "
                   f"equal={inst['equal']}")
    for cert in doc["certificates"]:
        click.echo(f"{doc['problem']} chain {cert['pair'][0]}~{cert['pair'][1]}: "
                   f"min_residual={cert['min_residual']:.3e} "
                   f"admissible={cert['admissible']}")
    for res in doc["residuals"]:
        click.echo(f"{doc['problem']} residual {res['operator']}: "
                   f"{res['residual']:.3e}")
    click.echo(f"report: {path}")
    click.echo(f"verdict: {'PASS' if doc['verdict'] else 'FAIL'}")
    sys.exit(0 if doc["verdict"] else 1)


@main.command()
@click.argument("problem")
@click.option("--operator", required=True, help="Operator name, e.g. K2 or Ktilde.")
@click.option("--domain", "domain_spec", required=True,
              help='Box as JSON, e.g. "[[-1,1],[-1,1]]".')
def degree(problem, operator, domain_spec):
    """Degree of I minus OPERATOR over a finite box domain, as a verdict reads it:
    the run's finite side (``certify._FiniteSide``) on a run copy of PROBLEM."""
    spec = _resolve_problem(problem)
    try:
        box = json.loads(domain_spec)
    except json.JSONDecodeError as exc:
        raise click.ClickException(f"--domain is not valid JSON: {exc}")
    if not (isinstance(box, list) and box
            and all(isinstance(row, list) and len(row) == 2 for row in box)):
        raise click.ClickException(
            f"--domain must be a list of [lo, hi] pairs, got {domain_spec}")
    try:
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for row in box for v in row):
            raise ValueError(f"box bounds must be finite numbers, got {domain_spec}")
        dom = deg_mod.box_domain(box)
    except ValueError as exc:
        raise click.ClickException(f"--domain: {exc}")
    side = certify._FiniteSide()
    try:
        # Keta is built only with an eta, which this command has no way to pass; it
        # has no reduction witness, whatever its eta, and that is the error to give
        params = {"eta": 1.0} if operator == "Keta" else None
        handle = operators.build(operator, operators.run_copy(spec, spec.m), params)
        dim = side.finite(handle).params["dim"]
    except ValueError as exc:
        raise click.ClickException(str(exc))
    if dom.dim != dim:
        raise click.ClickException(
            f"--domain has dimension {dom.dim}, {operator} needs {dim}")
    try:
        res = side(handle, dom)
    except flows.IntegrationError as exc:
        raise click.ClickException(str(exc))
    click.echo(f"degree={res.degree:+d} method={res.method} "
               f"certified={res.certified} "
               f"min_boundary_norm={res.min_boundary_norm:.3e}")
    sys.exit(0 if res.certified else 1)


@main.command("report")
@click.argument("directory")
@click.option("--format", "fmt", required=True,
              type=click.Choice(["json", "csv", "svg"]),
              help="Output format.")
def report_cmd(directory, fmt):
    """Re-emit all JSON reports found in DIRECTORY in another format."""
    paths = sorted(glob.glob(os.path.join(directory, "report-*.json")))
    if not paths:
        raise click.ClickException(f"no report-*.json files in {directory!r}")
    docs = []
    for p in paths:
        try:
            docs.append(report_mod.load_valid(p, "report.schema.json"))
        except ValueError as exc:
            raise click.ClickException(f"{p}: {exc}")
    for doc in docs:
        click.echo(report_mod.emit(doc, fmt, directory))


if __name__ == "__main__":
    main()
