"""Size of the robinlab package, counted from its source.

Usage: python3 scripts/size.py [ROOT]

ROOT is a source tree (default: the tree holding this script); the
package read is ROOT/src/robinlab.  Nothing is imported.  Prints three
counts, one per line:

    code_lines     lines holding a token outside docstrings and comments
                   (blank lines hold none), over every .py file
    defaults       parameters with a default, over every def and lambda:
                   len(args.defaults) plus each keyword-only default
    all_names      names in robinlab.__all__, a list literal in __init__.py
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """Every line of a module, class or function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines that hold a token other than a comment, outside docstrings."""
    doc = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED and tok.start[0] not in doc:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def defaults(source: str) -> int:
    """Parameters with a default, over every function and lambda."""
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def all_names(source: str) -> int:
    """Length of the module's `__all__` list literal."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return len(ast.literal_eval(node.value))
    raise ValueError("no __all__ assignment")


def measure(package: Path) -> dict:
    """The three counts of the package directory `package`."""
    sources = [p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))]
    return {"code_lines": sum(map(code_lines, sources)),
            "defaults": sum(map(defaults, sources)),
            "all_names": all_names((package / "__init__.py").read_text(encoding="utf-8"))}


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    for key, value in measure(root / "src" / "robinlab").items():
        print(f"{key} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
