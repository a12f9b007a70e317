"""Public names: every module's `__all__` resolves; the CLI import stays lean;
the README's library quickstart runs; no module imports a name it never uses;
no library module imports a thread or process module or reads the environment;
every name in `robinlab.__all__` and every field of a report has a reader
outside the tests, and every parameter default a caller there that sets it."""

import ast
import contextlib
import importlib
import io
import re
import subprocess
import sys
from pathlib import Path

import pytest

import robinlab

MODULES = ["errors", "geometry", "layerpot", "steklov", "torsion",
           "robin_energy", "shape_calculus", "planar_optimality", "oracle",
           "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_all(name):
    mod = importlib.import_module(f"robinlab.{name}")
    namespace = {}
    exec(f"from robinlab.{name} import *", namespace)
    for attr in getattr(mod, "__all__", ()):
        assert attr in namespace, f"robinlab.{name}.__all__ lists {attr!r}"


def test_package_all_resolves():
    namespace = {}
    exec("from robinlab import *", namespace)
    assert all(attr in namespace for attr in robinlab.__all__)
    assert len(set(robinlab.__all__)) == len(robinlab.__all__)


def test_cli_import_skips_scipy_special():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import robinlab.cli; "
            "print('scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 2
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    # the README calls the shell's series and direct energies "same"
    shell = namespace["shell"]
    series = robinlab.energy_series(shell, alpha=2.0).E_total
    direct = robinlab.energy_direct(shell, 2.0)
    assert abs(series - direct) <= 1e-12 * abs(direct)


ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "robinlab").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(path: Path) -> list[str]:
    """Names an import binds that the module never reads (nor lists in `__all__`)."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names} - {"*"}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted(bound - used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _concurrency_and_env(path: Path) -> list[str]:
    """Thread or process modules a module imports, and its reads of the environment."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
            if node.module == "os":
                names += [f"os.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        found += [n for n in names if n in {"os.environ", "os.getenv"}
                  or n.split(".")[0] in {"threading", "concurrent", "multiprocessing"}]
    return found


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "robinlab").glob("*.py")),
                         ids=lambda p: p.name)
def test_one_execution_model(path):
    # every command runs serially in the calling thread, configured by options only
    assert _concurrency_and_env(path) == []


# Public names that nothing outside the tests reads, kept as checks the tests run
TEST_ONLY_NAMES = {
    "steklov_residual": "the only independent audit of the Nystrom spectrum",
    "gauss_identity_residual": "the flux identity of the star torsion solve",
    "domain_to_dict": "the documented writer of the --domain-json format",
}


def _references(tree: ast.Module) -> set[str]:
    """Names a module reads: names, attributes and exact strings (bench span targets).

    Imports and `__all__` lists do not count, nor does a top-level def or
    class reading its own name.
    """
    out = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)) or (
                isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)):
            continue
        refs = set()
        for n in ast.walk(stmt):
            if isinstance(n, ast.Name):
                refs.add(n.id)
            elif isinstance(n, ast.Attribute):
                refs.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                refs.add(n.value)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            refs.discard(stmt.name)
        out |= refs
    return out


def _reader_trees() -> list[ast.Module]:
    """The library's possible readers: src/, scripts/, bench/ and the README's Python."""
    trees = [ast.parse(p.read_text()) for d in ("src/robinlab", "scripts", "bench")
             for p in sorted((ROOT / d).glob("*.py"))]
    return trees + [ast.parse(b) for b in
                    re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)]


def test_every_public_name_has_a_caller():
    read = set().union(*map(_references, _reader_trees()))
    unread = {n for n in robinlab.__all__ if not n.startswith("__")} - read
    assert unread == set(TEST_ONLY_NAMES)


# Dataclass fields that nothing outside the tests reads, kept for a reason
UNREAD_FIELDS = {
    "EnergyReport.E_plus": "the CSV contract of ENERGY_COLUMNS",
    "EnergyReport.E_minus": "the CSV contract of ENERGY_COLUMNS",
    "EnergyReport.tail_bound": "the CSV contract of ENERGY_COLUMNS",
    "FemSolution.iterations": "the MINRES record of each level, for the FEM diagnostics",
    "PWBound.epsilon0_upper": "the Payne-Weinberger deficit bound, which tests check "
                              "against alpha0(d).epsilon0",
}


def _dataclass_members(tree: ast.Module) -> tuple[set[str], set[str]]:
    """`Class.name` of every field, and of every public method, of a module's dataclasses."""
    fields, methods = set(), set()
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        decorators = {getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
                      for d in cls.decorator_list}
        if "dataclass" in decorators:
            fields |= {f"{cls.name}.{stmt.target.id}" for stmt in cls.body
                       if isinstance(stmt, ast.AnnAssign)}
            methods |= {f"{cls.name}.{stmt.name}" for stmt in cls.body
                        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")}
    return fields, methods


def test_every_report_field_has_a_reader():
    # a field is read as a value: `d.values()` calls a method of some other
    # object and reads no `values` field
    trees = _reader_trees()
    callees = {id(n.func) for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)}
    loads = [n for tree in trees for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]
    read = {n.attr for n in loads}
    read_as_value = {n.attr for n in loads if id(n) not in callees}
    fields, methods = set(), set()
    for p in sorted((ROOT / "src" / "robinlab").glob("*.py")):
        f, m = _dataclass_members(ast.parse(p.read_text()))
        fields |= f
        methods |= m
    unread = {f for f in fields if f.split(".")[1] not in read_as_value}
    unread |= {m for m in methods if m.split(".")[1] not in read}
    assert unread == set(UNREAD_FIELDS)


# Parameters with a default that no call outside the tests sets, kept for a reason
UNSET_DEFAULTS = {
    "pin_single_thread.dirs": "a test seam: a directory without OpenBLAS",
    "series_pack.basis": "tests build packs on bases other than the default, such as "
                         "the 3-D ball to degree 60 of TestOneStatusRule",
    "steklov_residual.sample_density": "a check the tests run (TEST_ONLY_NAMES); "
                                       "ROADMAP item 11 decides it",
    "steklov_residual.n_modes": "a check the tests run (TEST_ONLY_NAMES); "
                                "ROADMAP item 11 decides it",
    "TrigPoly.__call__.order": "called as rho(t, order=1), on an object the name "
                               "match cannot see",
}


def _defaults(tree: ast.Module) -> dict[str, tuple[str, str, int | None]]:
    """Every parameter with a default: `owner.name` -> (callee, name, position).

    The callee is the function's name, or its class's for `__init__`; the
    position counts the positional arguments of a call (a method's `self`
    is not one), None for a keyword-only parameter.
    """
    owners = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
              for f in c.body if isinstance(f, ast.FunctionDef)}
    out = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        name = getattr(fn, "name", "<lambda>")      # no call names a lambda
        cls = owners.get(id(fn))
        bound = cls is not None and "staticmethod" not in {
            getattr(d, "id", None) for d in fn.decorator_list}
        qual = f"{cls.name}.{name}" if cls else name
        callee = cls.name if name == "__init__" else name
        args = fn.args.posonlyargs + fn.args.args
        for i, a in enumerate(args[len(args) - len(fn.args.defaults):],
                              len(args) - len(fn.args.defaults)):
            out[f"{qual}.{a.arg}"] = (callee, a.arg, i - bound)
        for a, dflt in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if dflt is not None:
                out[f"{qual}.{a.arg}"] = (callee, a.arg, None)
    return out


def _sets(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether `call` passes the parameter, by keyword or by position (a `*` or `**` may)."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    positional = [a for a in call.args if not isinstance(a, ast.Starred)]
    return position is not None and (len(positional) > position
                                     or len(positional) < len(call.args))


def test_every_default_is_set_outside_the_tests():
    calls = [n for tree in _reader_trees() for n in ast.walk(tree) if isinstance(n, ast.Call)]
    by_callee = {}
    for c in calls:
        by_callee.setdefault(getattr(c.func, "id", getattr(c.func, "attr", None)), []).append(c)
    defaults = {}
    for p in sorted((ROOT / "src" / "robinlab").glob("*.py")):
        defaults |= _defaults(ast.parse(p.read_text()))
    unset = {key for key, (callee, name, pos) in defaults.items()
             if not any(_sets(c, name, pos) for c in by_callee.get(callee, []))}
    assert unset == set(UNSET_DEFAULTS)
