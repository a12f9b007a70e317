"""Public names: every module's `__all__` resolves; the CLI import stays lean;
the README's library quickstart runs."""

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
