"""No module of the package or of the tests imports a name it never uses, the
package defines no private module-level name that it never reads, no public
function that it never reads (click commands and ``UNREAD_PUBLIC`` aside) and no
dataclass field that only its ``__post_init__`` reads, every name the README
cites from the package exists, the README's kind table is ``KIND_TABLE`` and
its verdict table ``PAIR_TABLE``,
only ``flows`` and ``operators`` call a ``flows`` integrator, and rows are
mapped ahead of their need one way only: queued by ``operators.queue`` on a
run memo, and mapped by ``degree._held``.

Stdlib ``ast`` scans, since no linter ships with the project.  An import
line marked ``# noqa: F401`` is kept on purpose (``certify`` binds
``brouwer_nd_regular`` for a tracer to patch), and ``__init__.py`` files are
skipped by the import scan: their imports are re-exports.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(p for d in ("src/dualdeg", "tests") for p in (ROOT / d).glob("*.py")
                 if p.name != "__init__.py")
PACKAGE = sorted((ROOT / "src/dualdeg").glob("*.py"))


def _used_names(tree: ast.AST) -> set:
    """Names a module reads, in code and in string annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    notes = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    notes += [n.returns for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    for note in filter(None, notes):
        for c in ast.walk(note):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used |= _used_names(ast.parse(c.value, mode="eval"))
    return used


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the source never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                out.append((node.lineno, name))
    return out


def test_checker_flags_unused_and_honours_noqa():
    src = ("from __future__ import annotations\n"
           "import os, sys\n"
           "from json import dumps as d, loads\n"
           "from math import pi  # noqa: F401\n"
           "from pathlib import Path\n"
           "x: 'Path | None' = sys.argv and loads\n")
    assert unused_imports(src) == [(2, "os"), (3, "d")]


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _reads(tree: ast.AST) -> Counter:
    """How often each name is read: loaded as a name or as an attribute."""
    return Counter([n.id for n in ast.walk(tree)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]
                   + [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)])


def _private_definitions(tree: ast.Module) -> list:
    """(line, name, node) of each module-level private function, class or
    constant, and of each private method of a module-level class; dunder names
    are left out."""
    out = []
    methods = [node for cls in tree.body if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for node in tree.body + methods:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [n.id for t in node.targets for n in ast.walk(t)
                       if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        out += [(node.lineno, name, node) for name in targets
                if name.startswith("_") and not name.startswith("__")]
    return out


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of each private module-level name or method that
    no module of ``sources`` (module name -> source) reads outside its own
    definition."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    return [(mod, line, name) for mod, tree in trees.items()
            for line, name, node in _private_definitions(tree)
            if reads[name] == _reads(node)[name]]


def test_dead_code_checker_flags_unread_private_names():
    sources = {"a": ("_USED = 1\n_UNUSED = 2\n__all__ = []\n"
                     "def _recursive(n):\n    return _recursive(n - 1)\n"
                     "class _Read:\n    pass\n"
                     "def public():\n    return _USED + b._helper() + _Read\n"),
               "b": "def _helper():\n    pass\ndef _orphan():\n    pass\n"}
    assert unread_private_names(sources) == [("a", 2, "_UNUSED"), ("a", 4, "_recursive"),
                                             ("b", 3, "_orphan")]


def test_dead_code_checker_flags_unread_private_methods():
    sources = {"a": ("class C:\n"
                     "    def __init__(self):\n        self._ready()\n"
                     "    def _ready(self):\n        pass\n"
                     "    def _stale(self):\n        return self._stale()\n"
                     "    def public(self):\n        return b.D()._used()\n"),
               "b": "class D:\n    def _used(self):\n        pass\n"}
    assert unread_private_names(sources) == [("a", 6, "_stale")]


def test_no_unread_private_names_in_package():
    sources = {p.name: p.read_text() for p in PACKAGE}
    assert unread_private_names(sources) == []


# public functions that no package code reads, each kept for its reason
UNREAD_PUBLIC = {
    "verify_duality": "the documented entry point for one duality instance",
    "brouwer_2d_winding": "the reference of tests/test_degree.py::test_cross_engine_agreement, "
                          "to be wired in as the k = 2 cross-check (ROADMAP item 7)",
}


def _is_click_command(node: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def unread_public_functions(sources: dict) -> list:
    """(module, line, name) of each public module-level function, click commands
    aside, that no module of ``sources`` (module name -> source) reads outside
    its own definition; an import is not a read."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    return [(mod, node.lineno, node.name) for mod, tree in trees.items()
            for node in tree.body if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_") and not _is_click_command(node)
            and reads[node.name] == _reads(node)[node.name]]


def test_public_checker_flags_unread_functions():
    sources = {"a": ("import click\n"
                     "def used():\n    pass\n"
                     "def unused():\n    return unused()\n"
                     "def _private():\n    pass\n"
                     "@click.group()\ndef main():\n    pass\n"
                     "@main.command('list')\ndef listing():\n    pass\n"
                     "class C:\n    def method(self):\n        pass\n"),
               "b": "from a import unused\ndef caller():\n    return a.used()\n"}
    assert unread_public_functions(sources) == [("a", 4, "unused"), ("b", 2, "caller")]


def test_every_public_function_is_read_in_package():
    sources = {p.name: p.read_text() for p in PACKAGE}
    assert {name for _, _, name in unread_public_functions(sources)} == set(UNREAD_PUBLIC)


def _field_reads(tree: ast.AST) -> set:
    """Names read as an attribute, or through ``getattr`` by a constant name,
    outside every ``__post_init__``."""
    skip = {id(n) for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"
            for n in ast.walk(f)}
    reads = set()
    for n in ast.walk(tree):
        if id(n) in skip:
            continue
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            reads.add(n.attr)
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name) \
                and n.func.id == "getattr" and len(n.args) > 1 \
                and isinstance(n.args[1], ast.Constant):
            reads.add(n.args[1].value)
    return reads


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in cls.decorator_list)


def unread_dataclass_fields(sources: dict) -> list:
    """(module, class, field) of each dataclass field that no module of
    ``sources`` (module name -> source) reads outside a ``__post_init__``."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    reads = set().union(*(_field_reads(tree) for tree in trees.values()))
    return [(mod, cls.name, node.target.id) for mod, tree in trees.items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
            and node.target.id not in reads]


def test_field_checker_flags_fields_read_only_on_construction():
    sources = {"a": ("@dataclass(frozen=True)\n"
                     "class A:\n    kept: int\n    checked: bool = False\n"
                     "    named: int = 0\n"
                     "    def __post_init__(self):\n        assert self.checked\n"
                     "class Plain:\n    unread: int\n"),
               "b": "def f(x):\n    return x.kept + getattr(x, 'named')\n"}
    assert unread_dataclass_fields(sources) == [("a", "A", "checked")]


def test_no_unread_dataclass_fields_in_package():
    sources = {p.name: p.read_text() for p in PACKAGE}
    assert unread_dataclass_fields(sources) == []


def _resolves(obj, attrs: list) -> bool:
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def stale_references(text: str) -> list:
    """Each backticked `module.name[.attr]` of a package module, and each
    backticked `_private[.attr]` of any of them, in ``text`` that does not
    resolve; other backticked text is not a reference."""
    mods = {p.stem: importlib.import_module(f"dualdeg.{p.stem}")
            for p in PACKAGE if p.name != "__init__.py"}
    stale = []
    for ref in re.findall(r"`(\w+(?:\.\w+)*)`", text):
        head, *attrs = ref.split(".")
        if head in mods and attrs:
            owners = [mods[head]]
        elif head.startswith("_") and not head.startswith("__"):
            owners, attrs = mods.values(), [head] + attrs
        else:
            continue
        if not any(_resolves(m, attrs) for m in owners):
            stale.append(ref)
    return stale


def test_reference_checker_flags_stale_names():
    text = ("`degree.fixed_point_degree`, `certify._FiniteSide.map`, `_rk4`, "
            "`degree._Gone`, `_Gone.warm`, `flows._rk4.nope`, `x.y`, `degree`, "
            "`f(x)`, `degree._stack_rows(n)`")
    assert stale_references(text) == ["degree._Gone", "_Gone.warm", "flows._rk4.nope"]


def test_readme_references_resolve():
    assert stale_references((ROOT / "README.md").read_text()) == []


def _kind_table_cells(row) -> list:
    """The README cells of a ``certify.KindRow``, after its kind."""
    signs = "none" if row.signs is None else \
        f"{row.signs} ({', '.join(f'{eta:g}'.replace('-', '−') for eta in row.etas)})"
    suite = f"chain {', '.join(f'{a}~{b}' for a, b in row.chain)}" if row.chain \
        else f"residuals of {', '.join(row.residuals)}"
    return [row.finite, ", ".join(row.duality), signs, suite]


def test_readme_kind_table_is_kind_table():
    from dualdeg.certify import KIND_TABLE

    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| kind | finite handle | `duality` suite "
                        "| `signs` suite (default η) | `operators` suite |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    assert [r[0] for r in rows] == [f"`{kind}`" for kind in KIND_TABLE]
    for cells, row in zip(rows, KIND_TABLE.values()):
        assert cells[1:] == _kind_table_cells(row), cells[0]


# the README's cell for each name of ``certify.SIDES`` and ``certify.SIGNS``
PAIR_CELLS = {
    "reduced_Ktilde_pullback": "reduced(Ktilde, pullback)",
    "reduced_Ktilde_slope_block": "reduced(Ktilde, slope block)",
    "reduced_Ktilde_history_U2": "reduced(Ktilde of the history nodes, U2)",
    "finite_K2_U2": "finite(K2, U2)", "finite_Kdir2_U2": "finite(Kdir2, U2)",
    "finite_Kdelay2_U2": "finite(Kdelay2, U2)", "finite_KhatP_image_box": "finite(KhatP, image box)",
    "khat2_K2_U2": "khat2(K2, U2)", "copy_of_right": "copy_of_right",
    "fourier_A_eta": "fourier(A, η)", "averaged_1d": "averaged_1d",
    "one": "+1", "neg1_pow_n": "(−1)^n", "sgn_eta": "sgn η",
}


def _pair_table_cells(key, row) -> list:
    """The README cells of a ``certify.PairRow`` under its key (pair, sign of eta)."""
    pair, sign = key
    links = ", ".join(f"{a} ~ {b}" for a, b, _ in row.chain)
    domains = ", ".join(sorted({dom for *_, dom in row.chain}))
    return [f"`{pair}`" + ("" if sign is None else f" (η {'>' if sign > 0 else '<'} 0)"),
            *(f"`{PAIR_CELLS[name]}`" for name in (row.left, row.right, row.sign)),
            f"{links} over {domains}" if row.chain else "none",
            "yes" if row.core else "no", f"`{row.extra}`" if row.extra else "none"]


def test_readme_verdict_table_is_pair_table():
    from dualdeg.certify import PAIR_TABLE, SIDES, SIGNS

    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| pair | left side | right side | sign | chain | core "
                        "| extra check |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    assert rows == [_pair_table_cells(key, row) for key, row in PAIR_TABLE.items()]
    assert set(PAIR_CELLS) == set(SIDES) | set(SIGNS)


INTEGRATORS = ("flow", "poincare", "mu_periodic", "mu_dirichlet", "dde_flow",
               "eta_periodic_solve")
# the integrators' own module, and the one that holds each kind's solution map
INTEGRATING_MODULES = ("flows.py", "operators.py")


def integrator_calls(source: str) -> list:
    """(line, name) of each call of a ``flows`` integrator in the source, as
    ``flows.<name>(...)`` or through a name imported from ``flows``."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("flows")
                for alias in node.names}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                and f.value.id == "flows" and f.attr in INTEGRATORS:
            out.append((node.lineno, f.attr))
        elif isinstance(f, ast.Name) and imported.get(f.id) in INTEGRATORS:
            out.append((node.lineno, imported[f.id]))
    return sorted(out)


def test_integrator_checker_flags_flows_calls():
    src = ("from . import flows\n"
           "from .flows import dde_flow as dde, IntegrationError, flow\n"
           "x = flows.mu_dirichlet(f, a, b)\n"
           "y = dde(f, h, 1.0) + flows.IntegrationError\n"
           "z = flows.poincare\n"
           "w = flow(f, x0, g)\n"
           "v = other.flow(f, x0, g)\n")
    assert integrator_calls(src) == [(3, "mu_dirichlet"), (4, "dde_flow"), (6, "flow")]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name not in INTEGRATING_MODULES],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_only_operators_integrates(path):
    # each kind's solution is integrated in operators (``operators.solution``)
    assert integrator_calls(path.read_text()) == []


def ahead_carriers(sources: dict) -> dict:
    """Per way of mapping rows ahead of their need, the (module, top-level
    definition) of each call: ``_map_ahead`` calls, and appends to a run memo's
    ``queues`` (``operators.Solutions``)."""
    found = {"_map_ahead": [], "queues": []}
    for mod, source in sources.items():
        for top in ast.parse(source).body:
            for node in ast.walk(top):
                f = node.func if isinstance(node, ast.Call) else None
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "_map_ahead":
                    found["_map_ahead"].append((mod, top.name))
                elif name in ("append", "extend", "insert") and any(
                        isinstance(n, ast.Attribute) and n.attr == "queues"
                        for n in ast.walk(f.value)):
                    found["queues"].append((mod, top.name))
    return found


def test_carrier_checker_flags_calls():
    src = ("def _held(fn, queue):\n"
           "    def held(x):\n"
           "        queue.append(x)\n"
           "        return _map_ahead(fn, x, x)\n"
           "    return held\n"
           "def lift(g):\n"
           "    return degree._map_ahead(g, 1, 2)\n"
           "def queue(p, X):\n"
           "    p._solutions.queues.setdefault(1, []).append(X)\n"
           "class Solutions:\n"
           "    def put(self, X):\n"
           "        self.queues[0].extend(X)\n")
    assert ahead_carriers({"m": src}) == {
        "_map_ahead": [("m", "_held"), ("m", "lift")],
        "queues": [("m", "queue"), ("m", "Solutions")]}


def test_one_carrier_maps_rows_ahead():
    # a row mapped ahead of its need is queued on the run memo by one function,
    # and one map applies the one failure rule when it maps the queue
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert ahead_carriers(sources) == {"_map_ahead": [("degree", "_held")],
                                       "queues": [("operators", "queue")]}
