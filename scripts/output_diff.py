"""Compare the command-line output of two robinlab source trees.

Usage: python3 scripts/output_diff.py --base DIR --head DIR [--strict] [--expect FILE]

Each tree runs every command of `output_commands.txt` (next to this
script) in one interpreter of its own, with OPENBLAS_NUM_THREADS=1, in
a fresh working directory that holds the list's fixture files.  Each
tree's root path in stderr (the file of a Python warning) reads as
`<tree>`, and the line number of a `<tree>/FILE:N:` warning prefix as
`N`, so a warning compares equal across the two trees and across edits
that move its source line; its file, category and text still compare.
A list line is

    robinlab ARGS...      robinlab.cli.main(ARGS), as the console script runs it
    script PATH ARGS...   PATH (relative to the tree's root) run as __main__
    file NAME TEXT        fixture NAME holding TEXT, written before any command

and `#` starts a comment.  Per command the report says whether the exit
codes, stderr and stdout (with any `--output` file) are equal.  For a
CSV or `--json` table it also gives, per column, the largest relative
and absolute change of a numeric column with the row where each occurs,
and whether a text column (verdicts, statuses, booleans, labels) is
equal.

The exit code is 1 when an exit code, stderr (at equal exit codes), a
table's header or row count, or a text column differs, and with --strict
on any difference at all; else 0.  The report is a short Markdown
summary followed by one line of JSON.

With --expect FILE those changes are checked against a list of intended
ones instead.  A line of FILE is

    COMMAND | CHANGE

with COMMAND as written in `output_commands.txt` and CHANGE one of
`exit A -> B`, `stderr`, `header`, `rows N -> M` or `column NAME` (a
text column); `#` starts a comment.  An exit-code change stands for the
whole command's output, and a table on one side only counts as a
`header` change.  The run then fails on an observed change the file
does not list, and on a listed change that did not occur or occurred
otherwise (with --strict also on any difference at all).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

DEFAULT_COMMANDS = Path(__file__).resolve().with_name("output_commands.txt")

# Runs in the child interpreter: one JSON line of results per command.
RUNNER = r"""
import contextlib, io, json, os, runpy, sys, traceback
from robinlab.cli import main

def output_file(args):
    for i, a in enumerate(args):
        if a == "--output" and i + 1 < len(args):
            return args[i + 1]
        if a.startswith("--output="):
            return a.split("=", 1)[1]
    return None

root = sys.argv[1]
for line in sys.stdin:
    kind, args = json.loads(line)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if kind == "robinlab":
                code = main(args)
            else:
                sys.argv = [args[0]] + args[1:]
                runpy.run_path(os.path.join(root, args[0]), run_name="__main__")
                code = 0
        except SystemExit as exc:        # argparse, or a script's sys.exit
            code = exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 1
            if not isinstance(exc.code, (int, type(None))):
                print(exc.code, file=sys.stderr)
        except Exception:
            code = "exception"
            err.write(traceback.format_exc())
    target, written = output_file(args), None
    if target not in (None, "-") and os.path.isfile(target):
        with open(target, encoding="utf-8") as fh:
            written = fh.read()
        os.remove(target)
    print(json.dumps({"code": code, "out": out.getvalue(), "err": err.getvalue(),
                      "file": written}), flush=True)
"""


def read_commands(path: Path) -> tuple[list, dict]:
    """(commands as (kind, args), fixtures by name) from a command list."""
    commands, fixtures = [], {}
    for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        kind, _, rest = line.partition(" ")
        if kind == "file":
            name, _, text = rest.partition(" ")
            fixtures[name] = text + "\n"
        elif kind in ("robinlab", "script"):
            commands.append((kind, shlex.split(rest)))
        else:
            raise SystemExit(f"{path}:{n}: unknown line kind {kind!r}")
    return commands, fixtures


CHANGE = re.compile(r"(exit \S+ -> \S+|stderr|header|rows \d+ -> \d+|column \S+)")


def read_expected(path: Path) -> dict:
    """Intended changes by command (kind, args): {command: [change, ...]}."""
    expected = {}
    for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        command, sep, change = (part.strip() for part in line.rpartition("|"))
        kind, _, rest = command.partition(" ")
        if not sep or kind not in ("robinlab", "script") or not CHANGE.fullmatch(change):
            raise SystemExit(f"{path}:{n}: expected 'robinlab ARGS... | CHANGE' or 'script "
                             f"PATH ARGS... | CHANGE', with CHANGE one of 'exit A -> B', "
                             f"'stderr', 'header', 'rows N -> M', 'column NAME'")
        expected.setdefault((kind, tuple(shlex.split(rest))), []).append(change)
    return expected


def unexpected(commands: list, records: list, expected: dict) -> list[str]:
    """Observed changes the list does not hold, and listed ones that did not occur."""
    known = {(kind, tuple(args)) for kind, args in commands}
    problems = [f"listed command not in the command list: {' '.join((kind,) + args)}"
                for kind, args in expected if (kind, args) not in known]
    for (kind, args), rec in zip(commands, records):
        want = expected.get((kind, tuple(args)), [])
        seen = rec["changes"]
        problems += [f"`{rec['command']}`: unlisted change {c!r}" for c in seen if c not in want]
        problems += [f"`{rec['command']}`: listed change {c!r} did not occur"
                     + (f" (observed {', '.join(map(repr, seen))})" if seen else "")
                     for c in want if c not in seen]
    return problems


def start(tree: Path, commands: list, fixtures: dict, workdir: Path) -> subprocess.Popen:
    """Start the interpreter that runs every command on `tree`.

    It reads the commands from a file and writes its results next to
    `workdir` (`base.jsonl` for `base`), so the two trees run side by side.
    """
    workdir.mkdir()
    for name, text in fixtures.items():
        (workdir / name).write_text(text, encoding="utf-8")
    todo = workdir.with_suffix(".in")
    todo.write_text("".join(json.dumps(c) + "\n" for c in commands), encoding="utf-8")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(tree / "src"))
    with open(todo, encoding="utf-8") as stdin, \
            open(workdir.with_suffix(".jsonl"), "w", encoding="utf-8") as stdout:
        return subprocess.Popen([sys.executable, "-c", RUNNER, str(tree)], cwd=workdir,
                                env=env, stdin=stdin, stdout=stdout)


ROOT_TOKEN = "<tree>"
WARNING_LINE = re.compile(r"^(" + re.escape(ROOT_TOKEN) + r"/[^:\n]+):\d+:", re.MULTILINE)


def mask_stderr(err: str, tree: Path) -> str:
    """`err` with `tree`'s root path as ROOT_TOKEN and warning line numbers as N."""
    return WARNING_LINE.sub(r"\1:N:", err.replace(str(tree), ROOT_TOKEN))


def collect(proc: subprocess.Popen, workdir: Path, count: int, tree: Path) -> list[dict]:
    """The results of `start`, with stderr masked by `mask_stderr`."""
    proc.wait()
    lines = workdir.with_suffix(".jsonl").read_text(encoding="utf-8").splitlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    if proc.returncode != 0 or len(results) != count:
        raise SystemExit(f"the runner stopped after {len(results)} of {count} commands")
    for res in results:
        res["err"] = mask_stderr(res["err"], tree)
    return results


def table(text: str | None):
    """(columns, rows of cells) of a CSV or --json table, None for other text."""
    if not text:
        return None
    if text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
            cols = payload["columns"]
            return cols, [[row[c] for c in cols] for row in payload["rows"]]
        except (ValueError, KeyError, TypeError):
            return None
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or not all(c.isidentifier() for c in rows[0]) \
            or any(len(r) != len(rows[0]) for r in rows):
        return None
    return rows[0], rows[1:]


def number(cell):
    """The cell as a float, or None for text (booleans included)."""
    if isinstance(cell, bool) or cell is None:
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def change(b: float, h: float) -> tuple[float, float]:
    """(relative, absolute) change from b to h; NaN matches NaN only."""
    if b == h or (math.isnan(b) and math.isnan(h)):
        return 0.0, 0.0
    if math.isnan(b) or math.isnan(h) or math.isinf(b) or math.isinf(h):
        return math.inf, math.inf
    diff = abs(h - b)
    return (diff / abs(b) if b else math.inf), diff


def compare_tables(base, head) -> dict:
    """Per-column comparison of two tables of one command."""
    (cols_b, rows_b), (cols_h, rows_h) = base, head
    if cols_b != cols_h:
        return {"problem": f"columns {cols_b} -> {cols_h}"}
    if len(rows_b) != len(rows_h):
        return {"problem": f"rows {len(rows_b)} -> {len(rows_h)}"}
    columns = {}
    if not rows_b:
        return {"columns": columns}
    for j, col in enumerate(cols_b):
        pairs = [(rb[j], rh[j]) for rb, rh in zip(rows_b, rows_h)]
        nums = [(number(b), number(h)) for b, h in pairs]
        if all(b is not None and h is not None for b, h in nums):
            rel, dist = zip(*[change(b, h) for b, h in nums])
            i = max(range(len(rel)), key=rel.__getitem__)
            k = max(range(len(dist)), key=dist.__getitem__)
            columns[col] = {"max_rel": rel[i], "rel_row": i + 1,
                            "max_abs": dist[k], "abs_row": k + 1}
        else:
            differ = [i + 1 for i, (b, h) in enumerate(pairs) if b != h]
            columns[col] = {"text": True, "differing_rows": differ[:10],
                            "differing": len(differ)}
    return {"columns": columns}


def compare(cmd, base: dict, head: dict) -> dict:
    rec = {"command": " ".join([cmd[0]] + [shlex.quote(a) for a in cmd[1]]),
           "exit": [base["code"], head["code"]],
           "exit_equal": base["code"] == head["code"],
           "stderr_equal": base["err"] == head["err"],
           "bytes_equal": base["out"] == head["out"] and base["file"] == head["file"]}
    rec["identical"] = rec["exit_equal"] and rec["stderr_equal"] and rec["bytes_equal"]
    failures = [] if rec["exit_equal"] else ["exit code"]
    # the same changes in the syntax of an --expect list
    changes = [] if rec["exit_equal"] else [f"exit {base['code']} -> {head['code']}"]
    if rec["exit_equal"] and not rec["stderr_equal"]:
        failures.append("stderr")
        changes.append("stderr")
    for part in ("out", "file"):
        if base[part] == head[part]:
            continue
        tb, th = table(base[part]), table(head[part])
        if tb is None or th is None:
            if (tb is None) != (th is None):
                failures.append(f"{part}: a table on one side only")
                changes.append("header")
            continue
        cmp = rec[part] = compare_tables(tb, th)
        if "problem" in cmp:
            failures.append(f"{part}: {cmp['problem']}")
            changes.append(cmp["problem"] if cmp["problem"].startswith("rows") else "header")
        else:
            failures += [f"{part}: text column {c!r}" for c, v in cmp["columns"].items()
                         if v.get("differing")]
            changes += [f"column {c}" for c, v in cmp["columns"].items() if v.get("differing")]
    rec["failures"] = failures
    rec["changes"] = changes[:1] if not rec["exit_equal"] else sorted(set(changes))
    return rec


def moved_columns(records: list) -> list[dict]:
    moved = []
    for i, rec in enumerate(records, 1):
        for part in ("out", "file"):
            for col, v in rec.get(part, {}).get("columns", {}).items():
                if not v.get("text") and v["max_abs"] > 0.0:
                    moved.append({"index": i, "command": rec["command"], "column": col,
                                  **{k: v[k] for k in ("max_rel", "rel_row", "max_abs",
                                                       "abs_row")}})
    return moved


def report(records: list, strict: bool, problems: list[str] | None = None) -> int:
    """Print the report; `problems` are the --expect mismatches (None without --expect)."""
    differ = [(i, r) for i, r in enumerate(records, 1) if not r["identical"]]
    failing = [(i, r) for i, r in enumerate(records, 1) if r["failures"]]
    moved = moved_columns(records)
    print(f"{len(records)} commands: {len(records) - len(differ)} identical, "
          f"{len(differ)} differ, {len(failing)} with an exit-code, shape or text change.\n")
    if differ:
        print("| # | command | exit base -> head | stderr equal | bytes equal | failures |")
        print("| --- | --- | --- | --- | --- | --- |")
        for i, r in differ:
            print(f"| {i} | `{r['command']}` | {r['exit'][0]} -> {r['exit'][1]} | "
                  f"{r['stderr_equal']} | {r['bytes_equal']} | {'; '.join(r['failures'])} |")
        print()
    if moved:
        print("| # | column | max rel (row) | max abs (row) |")
        print("| --- | --- | --- | --- |")
        for m in moved:
            print(f"| {m['index']} | `{m['column']}` | {m['max_rel']:.2e} ({m['rel_row']}) | "
                  f"{m['max_abs']:.2e} ({m['abs_row']}) |")
        print()
    if problems is not None:
        print(f"Expected changes: {len(problems)} mismatches.\n")
        for p in problems:
            print(f"- {p}")
        if problems:
            print()
    summary = {"commands": len(records), "identical": len(records) - len(differ),
               "failing": [i for i, _ in failing], "moved": moved, "records": records}
    if problems is not None:
        summary["expect_mismatches"] = problems
    print(json.dumps(summary, allow_nan=True))
    failed = failing if problems is None else problems
    return 1 if failed or (strict and differ) else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, type=Path, help="root of the base tree")
    ap.add_argument("--head", required=True, type=Path, help="root of the head tree")
    ap.add_argument("--strict", action="store_true",
                    help="fail on any difference, not only on exit codes, shapes and text")
    ap.add_argument("--expect", type=Path,
                    help="list of intended changes; fail on any other and on any missing")
    args = ap.parse_args(argv)
    commands, fixtures = read_commands(DEFAULT_COMMANDS)
    expected = None if args.expect is None else read_expected(args.expect)
    with tempfile.TemporaryDirectory(prefix="output_diff_") as tmp:
        dirs = [Path(tmp) / "base", Path(tmp) / "head"]
        trees = [args.base.resolve(), args.head.resolve()]
        procs = [start(tree, commands, fixtures, d) for tree, d in zip(trees, dirs)]
        base, head = [collect(p, d, len(commands), tree)
                      for p, d, tree in zip(procs, dirs, trees)]
    records = [compare(c, b, h) for c, b, h in zip(commands, base, head)]
    problems = None if expected is None else unexpected(commands, records, expected)
    return report(records, args.strict, problems)


if __name__ == "__main__":
    sys.exit(main())
