"""scripts/size.py: the three counts on a small fixture package."""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "size.py"
spec = importlib.util.spec_from_file_location("size", SCRIPT)
size = importlib.util.module_from_spec(spec)
spec.loader.exec_module(size)

INIT = '''"""Fixture package."""
from .mod import f

__all__ = [
    "f",   # the one function
    "__version__",
]
__version__ = "0"
'''

MOD = '''"""A module docstring
over two lines."""

# a comment line

X = """not a docstring:
two lines of code"""


def f(a, b=1, *, c, d=None, **kw):
    """Docstring."""
    g = lambda x=0: x    # one more default
    return a + b  # trailing comment


class K:
    """Class docstring."""

    def m(self, y: int = 2):
        return y
'''


def package(root: Path, files: dict) -> Path:
    """ROOT/src/robinlab holding `files` (name -> source)."""
    pkg = root / "src" / "robinlab"
    pkg.mkdir(parents=True)
    for name, text in files.items():
        (pkg / name).write_text(text, encoding="utf-8")
    return pkg


def test_counts_on_a_fixture(tmp_path):
    pkg = package(tmp_path, {"__init__.py": INIT, "mod.py": MOD})
    # __init__: import, 4 lines of __all__, __version__; mod: X (2 lines),
    # def, lambda, return, class, def m, return
    assert size.code_lines(INIT) == 6
    assert size.code_lines(MOD) == 8
    # b, d, x, y; c has no default
    assert size.defaults(MOD) == 4
    assert size.measure(pkg) == {"code_lines": 14, "defaults": 4, "all_names": 2}


def test_main_prints_one_count_per_line(tmp_path, capsys):
    package(tmp_path, {"__init__.py": INIT})
    assert size.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "code_lines 6\ndefaults 0\nall_names 2\n"
