"""Public names: every module's `__all__` resolves; the CLI import stays lean."""

import importlib
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
