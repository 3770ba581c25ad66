"""Report assembly and emission: canonical JSON, CSV rows, static SVG plots.

JSON is serialized by hand so float formatting is fixed at 17 significant
digits and output is byte-stable across runs; CSV uses '.' decimals, ','
separators and LF line endings; SVG is static, one polyline per homotopy
certificate plus a degree table.
"""

from __future__ import annotations

import json
import math
import os
from importlib import resources

import numpy as np

from .certify import CommonCoreReport, DualityReport, HomotopyCertificate
from .degree import DegreeResult


# ---------------------------------------------------------------------------
# Plain-data conversion
# ---------------------------------------------------------------------------

_LEAVES = frozenset((str, int, float, bool, type(None)))


def _plain(obj):
    """Plain Python data of ``obj``, numpy containers and scalars and tuples
    included; a list of floats is converted at once, not float by float."""
    if type(obj) in _LEAVES:
        return obj
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        if all(isinstance(v, float) for v in obj):  # np.float64 is a float
            return np.asarray(obj, dtype=float).tolist()
        return [_plain(v) for v in obj]
    return obj.item() if isinstance(obj, np.generic) else obj


def degree_result_dict(res: DegreeResult) -> dict:
    return {"degree": int(res.degree), "method": res.method,
            "min_boundary_norm": None if not math.isfinite(res.min_boundary_norm)
            else float(res.min_boundary_norm),
            "refinement_levels": int(res.refinement_levels),
            "certified": bool(res.certified),
            "zeros": _plain(res.zeros), "params": _plain(res.params)}


def certificate_dict(cert: HomotopyCertificate) -> dict:
    return {"pair": list(cert.pair),
            "lambda_grid": _plain(cert.lambda_grid),
            "residual_curve": _plain(cert.residual_curve),
            "min_residual": None if not math.isfinite(cert.min_residual)
            else float(cert.min_residual),
            "refinements": int(cert.refinements),
            "admissible": bool(cert.admissible),
            "stable": bool(cert.stable)}


def common_core_dict(core: CommonCoreReport | None) -> dict | None:
    if core is None:
        return None
    return {"boundary_clearances": _plain(core.boundary_clearances),
            "matched_pairs": _plain(core.matched_pairs),
            "verdict": bool(core.verdict),
            "diagnostics": list(core.diagnostics)}


def duality_dict(problem_id: str, rep: DualityReport) -> dict:
    certs = [certificate_dict(c) for c in rep.certificates]
    cert_mins = [c["min_residual"] for c in certs if c["min_residual"] is not None]
    if cert_mins:
        min_residual = min(cert_mins)
    else:
        margins = [rep.left.min_boundary_norm, rep.right.min_boundary_norm]
        finite = [m for m in margins if math.isfinite(m)]
        min_residual = min(finite) if finite else None
    d = {"problem": problem_id, "pair": rep.name,
         "left": degree_result_dict(rep.left),
         "right": degree_result_dict(rep.right),
         "equal": bool(rep.equal), "route": rep.route,
         "sign_factor": int(rep.sign_factor),
         "min_residual": min_residual,
         "certificates": certs,
         "common_core": common_core_dict(rep.common_core),
         "params": _plain(rep.params)}
    if "eta" in rep.params:
        d["eta"] = float(rep.params["eta"])
    return d


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------

def fmt_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return format(x, ".17g")


def _ser(obj, indent: int) -> str:
    """Canonical text of plain data (``_plain``); other types raise TypeError."""
    t = type(obj)
    if t is float:
        return fmt_float(obj)
    if t is str:
        return json.dumps(obj)
    if t is bool:
        return "true" if obj else "false"
    if t is int:
        return str(obj)
    if obj is None:
        return "null"
    pad, inner = " " * indent, " " * (indent + 2)
    sep = f",\n{inner}"
    if t is dict:
        if not obj:
            return "{}"
        items = [f"{json.dumps(str(k))}: {_ser(v, indent + 2)}" for k, v in obj.items()]
        return "{\n" + inner + sep.join(items) + "\n" + pad + "}"
    if t is list:
        if not obj:
            return "[]"
        if all(type(v) is float for v in obj):
            items = [format(v, ".17g") if math.isfinite(v) else "null" for v in obj]
        else:
            items = [_ser(v, indent + 2) for v in obj]
        return "[\n" + inner + sep.join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {t.__name__}")


def canonical_json(report: dict) -> str:
    return _ser(report, 0) + "\n"


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def report_csv(report: dict) -> str:
    """One row per duality instance; '.' decimal, ',' separator, LF endings."""
    lines = ["problem,pair,left,right,equal,min_residual"]
    for inst in report.get("duality", []):
        mr = inst.get("min_residual")
        lines.append(",".join([
            str(inst["problem"]), str(inst["pair"]),
            str(inst["left"]["degree"]), str(inst["right"]["degree"]),
            "true" if inst["equal"] else "false",
            "" if mr is None else fmt_float(float(mr))]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")


def _all_certificates(report: dict) -> list[tuple[str, dict]]:
    out = []
    for inst in report.get("duality", []):
        for c in inst.get("certificates", []):
            out.append((f"{inst['pair']}: {c['pair'][0]}~{c['pair'][1]}", c))
    for c in report.get("certificates", []):
        out.append((f"chain: {c['pair'][0]}~{c['pair'][1]}", c))
    return out


def report_svg(report: dict) -> str:
    """Boundary-residual-vs-lambda curves plus a degree table, static SVG."""
    certs = _all_certificates(report)
    width, height = 720, 420 + 18 * (len(report.get("duality", [])) + 2)
    x0, y0, pw, ph = 60, 40, 560, 320
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" font-family="monospace" font-size="12">',
             f'<text x="{x0}" y="20">problem {report.get("problem", "?")} '
             f'— boundary residual of H_lambda</text>',
             f'<line x1="{x0}" y1="{y0 + ph}" x2="{x0 + pw}" y2="{y0 + ph}" '
             'stroke="black"/>',
             f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y0 + ph}" '
             'stroke="black"/>',
             f'<text x="{x0 + pw // 2}" y="{y0 + ph + 30}">lambda</text>',
             f'<text x="8" y="{y0 + ph // 2}">res</text>']
    ymax = 0.0
    for _, c in certs:
        if c.get("residual_curve"):
            ymax = max(ymax, max(c["residual_curve"]))
    ymax = ymax or 1.0
    for idx, (label, c) in enumerate(certs):
        color = _COLORS[idx % len(_COLORS)]
        lams = c.get("lambda_grid", [])
        curve = c.get("residual_curve", [])
        if lams and curve and len(lams) == len(curve):
            pts = " ".join(
                f"{x0 + lam * pw:.2f},{y0 + ph - (r / ymax) * ph:.2f}"
                for lam, r in zip(lams, curve))
        else:
            mr = c.get("min_residual") or 0.0
            y = y0 + ph - (mr / ymax) * ph
            pts = f"{x0:.2f},{y:.2f} {x0 + pw:.2f},{y:.2f}"
        parts.append(f'<polyline fill="none" stroke="{color}" points="{pts}"/>')
        parts.append(f'<text x="{x0 + pw + 8}" y="{y0 + 14 * (idx + 1)}" '
                     f'fill="{color}">{label}</text>')
    ty = y0 + ph + 60
    parts.append(f'<text x="{x0}" y="{ty}">problem  pair  left  right  equal</text>')
    for i, inst in enumerate(report.get("duality", [])):
        parts.append(
            f'<text x="{x0}" y="{ty + 18 * (i + 1)}">'
            f'{inst["problem"]}  {inst["pair"]}  {inst["left"]["degree"]}  '
            f'{inst["right"]["degree"]}  {str(inst["equal"]).lower()}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Loading and emission
# ---------------------------------------------------------------------------

def load_valid(path, schema: str) -> dict:
    """The JSON document at ``path``, valid against the package's ``schema``
    file; a parse or schema error raises ValueError saying which."""
    import jsonschema

    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"parse error: {exc}") from exc
    text = resources.files("dualdeg.schemas").joinpath(schema).read_text()
    errors = sorted(jsonschema.Draft202012Validator(json.loads(text)).iter_errors(doc),
                    key=lambda e: e.json_path)
    if errors:
        raise ValueError("; ".join(f"{e.json_path}: {e.message}" for e in errors))
    return doc


def emit(report: dict, fmt: str, outdir: str) -> str:
    """Write the report in the requested format; returns the output path."""
    os.makedirs(outdir, exist_ok=True)
    name = f"report-{report.get('problem', 'run')}"
    if fmt == "json":
        path = os.path.join(outdir, name + ".json")
        text = canonical_json(report)
    elif fmt == "csv":
        path = os.path.join(outdir, name + ".csv")
        text = report_csv(report)
    elif fmt == "svg":
        path = os.path.join(outdir, name + ".svg")
        text = report_svg(report)
    else:
        raise ValueError(f"unknown format {fmt!r}; choose json, csv or svg")
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return path
