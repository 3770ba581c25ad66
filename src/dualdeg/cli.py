"""Command-line interface: catalog listing, suite runs, one-off degree
computations and report re-emission."""

from __future__ import annotations

import glob
import json
import os
import sys

import click

from . import certify, degree as deg_mod, operators, problems, report as report_mod


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
              type=int, help="Boundary-sampling seed.")
@click.option("--out", "outdir", default=".", show_default=True,
              help="Directory for the JSON report.")
def run(problem, suite, grid_m, etas, seed, outdir):
    """Run a verification suite on PROBLEM (builtin id or config file)."""
    spec = _resolve_problem(problem)
    try:
        rep = problems.run(spec, suite=suite, grid_m=grid_m,
                           etas=tuple(etas) or None, seed=seed)
    except problems.ProblemValidationError as exc:
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
@click.option("--eta", default=None, type=float, help="Eta for Keta.")
def degree(problem, operator, domain_spec, eta):
    """Degree of I minus OPERATOR over a finite box domain."""
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
        dom = deg_mod.box_domain(box)
    except ValueError as exc:
        raise click.ClickException(f"--domain: {exc}")
    params = {}
    if operator == "Keta":
        if eta is None:
            raise click.ClickException("Keta needs --eta")
        params["eta"] = eta
    try:
        handle = operators.build(operator, spec, params)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    if handle.space == operators.FINITE_SPACE:
        dim = handle.params["dim"]
    elif handle.reduction is not None:
        dim = handle.reduction.k
    else:
        raise click.ClickException(
            f"operator {operator!r} acts on function space without a "
            "finite-rank reduction; compute its degree through `run` instead")
    if dom.dim != dim:
        raise click.ClickException(
            f"--domain has dimension {dom.dim}, {operator} needs {dim}")
    if handle.reduction is None:
        res = deg_mod.fixed_point_degree(handle.apply_fn, dom)
    else:
        res = deg_mod.finite_rank_reduce(handle, dom)
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
    for p in paths:
        with open(p) as fh:
            doc = json.load(fh)
        out = report_mod.emit(doc, fmt, directory)
        click.echo(out)


if __name__ == "__main__":
    main()
