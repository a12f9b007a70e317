"""scripts/output_diff.py: what counts as a moved number and what as a failure."""
import importlib.util
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_diff.py"
spec = importlib.util.spec_from_file_location("output_diff", SCRIPT)
od = importlib.util.module_from_spec(spec)
spec.loader.exec_module(od)

CMD = ("robinlab", ["alpha0"])


def result(out, code=0, err="", file=None):
    return {"code": code, "out": out, "err": err, "file": file}


def test_identical():
    rec = od.compare(CMD, result("a,b\n1,true\n"), result("a,b\n1,true\n"))
    assert rec["identical"] and rec["failures"] == []


def test_numeric_move_is_reported_not_failed():
    rec = od.compare(CMD, result("a,E,ok\n1,2.0,true\n2,4.0,true\n"),
                     result("a,E,ok\n1,2.0,true\n2,4.000000000001,true\n"))
    assert not rec["bytes_equal"] and rec["failures"] == []
    col = rec["out"]["columns"]["E"]
    assert col["rel_row"] == col["abs_row"] == 2
    assert col["max_rel"] == pytest.approx(2.5e-13, rel=1e-3)
    assert rec["out"]["columns"]["a"]["max_abs"] == 0.0


@pytest.mark.parametrize("base, head, failure", [
    (result("a,ok\n1,true\n"), result("a,ok\n1,false\n"), "text column 'ok'"),
    (result("a,status\n1,Unique\n"), result("a,status\n1,Family\n"), "text column"),
    (result("a\n1\n"), result("a\n1\n2\n"), "rows 1 -> 2"),
    (result("a\n1\n"), result("b\n1\n"), "columns"),
    (result("a\n1\n"), result("", code=3, err="solver failure"), "exit code"),
    (result('{"columns": ["a", "ok"], "rows": [{"a": 1.0, "ok": true}]}'),
     result('{"columns": ["a", "ok"], "rows": [{"a": 1.0, "ok": false}]}'), "text column"),
])
def test_failures(base, head, failure):
    rec = od.compare(CMD, base, head)
    assert any(failure in f for f in rec["failures"]), rec["failures"]


def test_nan_matches_nan_only():
    assert od.change(math.nan, math.nan) == (0.0, 0.0)
    assert od.change(1.0, math.nan) == (math.inf, math.inf)
    assert od.change(0.0, 1e-300) == (math.inf, 1e-300)


def test_command_list_parses():
    commands, fixtures = od.read_commands(od.DEFAULT_COMMANDS)
    assert len(commands) >= 100 and "ellipse.json" in fixtures
    assert {kind for kind, _ in commands} == {"robinlab", "script"}


SPECTRUM = ("robinlab", ["spectrum", "--n-modes", "257"])
LINE = "robinlab spectrum --n-modes 257"


def expect(tmp_path, text):
    path = tmp_path / "expected.txt"
    path.write_text(text)
    return od.read_expected(path)


def mismatches(tmp_path, text, base, head):
    rec = od.compare(SPECTRUM, base, head)
    return od.unexpected([SPECTRUM], [rec], expect(tmp_path, text))


@pytest.mark.parametrize("base, head, change", [
    (result("", code=2, err="bad"), result("a\n1\n"), "exit 2 -> 0"),
    (result("a\n1\n"), result("a\n1\n2\n"), "rows 1 -> 2"),
    (result("a\n1\n"), result("b\n1\n"), "header"),
    (result("a\n1\n"), result("not a table\n"), "header"),
    (result("a,ok\n1,true\n"), result("a,ok\n1,false\n"), "column ok"),
])
def test_listed_change_passes(tmp_path, base, head, change):
    assert od.compare(SPECTRUM, base, head)["changes"] == [change]
    assert mismatches(tmp_path, f"# intended\n{LINE} | {change}\n", base, head) == []


def test_unlisted_change_fails(tmp_path, capsys):
    base, head = result("a,ok\n1,true\n"), result("a,ok\n1,false\n2,true\n")
    problems = mismatches(tmp_path, f"{LINE} | column ok\n", base, head)
    assert problems == [f"`{LINE}`: unlisted change 'rows 1 -> 2'",
                        f"`{LINE}`: listed change 'column ok' did not occur "
                        "(observed 'rows 1 -> 2')"]
    assert od.report([od.compare(SPECTRUM, base, head)], False, problems) == 1


def test_listed_change_that_did_not_occur_fails(tmp_path, capsys):
    same = result("a\n1\n")
    problems = mismatches(tmp_path, f"{LINE} | exit 2 -> 0\n", same, same)
    assert problems == [f"`{LINE}`: listed change 'exit 2 -> 0' did not occur"]
    assert od.report([od.compare(SPECTRUM, same, same)], False, problems) == 1


def test_change_that_occurred_otherwise_fails(tmp_path):
    problems = mismatches(tmp_path, f"{LINE} | exit 2 -> 0\n",
                          result("", code=2), result("", code=3))
    assert problems == [f"`{LINE}`: unlisted change 'exit 2 -> 3'",
                        f"`{LINE}`: listed change 'exit 2 -> 0' did not occur "
                        "(observed 'exit 2 -> 3')"]


def test_empty_list(tmp_path, capsys):
    same, moved = result("a\n1\n"), result("a\n1.0000001\n")
    assert mismatches(tmp_path, "", same, same) == []
    # a numeric move is no listed kind of change, as without --expect
    rec = od.compare(SPECTRUM, same, moved)
    assert mismatches(tmp_path, "", same, moved) == [] and rec["changes"] == []
    assert od.report([rec], False, []) == 0 and od.report([rec], True, []) == 1
    assert mismatches(tmp_path, "", same, result("", code=3)) == \
        [f"`{LINE}`: unlisted change 'exit 0 -> 3'"]


def test_stderr_only_change_fails_unless_listed(tmp_path, capsys):
    base = result("a\n1\n", err="poles: {0}\n")
    head = result("a\n1\n", err="poles: {0, 5}\n")
    rec = od.compare(SPECTRUM, base, head)
    assert rec["bytes_equal"] and rec["failures"] == rec["changes"] == ["stderr"]
    assert od.report([rec], False) == 1
    problems = mismatches(tmp_path, "", base, head)
    assert problems == [f"`{LINE}`: unlisted change 'stderr'"]
    assert od.report([rec], False, problems) == 1
    assert mismatches(tmp_path, f"{LINE} | stderr\n", base, head) == []


def test_stderr_change_with_the_exit_code_is_the_exit_change():
    rec = od.compare(SPECTRUM, result("a\n1\n"), result("", code=3, err="solver failure"))
    assert rec["failures"] == ["exit code", "out: a table on one side only"]
    assert rec["changes"] == ["exit 0 -> 3"]


def test_warning_reads_the_same_from_two_roots(tmp_path):
    # one tree under two root paths: each warning names its own root's file
    root = SCRIPT.parents[1]
    other = tmp_path / "other"
    other.symlink_to(root, target_is_directory=True)
    warns = ("robinlab", ["second-variation", "--alpha", "0.7", "--modes", "k1=1,k2=1"])
    runs = [(od.start(tree, [warns], {}, tmp_path / name), tmp_path / name, tree)
            for tree, name in ((root, "base"), (other, "head"))]
    base, head = [od.collect(proc, work, 1, tree)[0] for proc, work, tree in runs]
    assert base["err"].startswith(f"{od.ROOT_TOKEN}/src/robinlab/shape_calculus.py:")
    assert "translations" in base["err"]
    assert od.compare(warns, base, head)["identical"]


WARNING = ("{root}/src/robinlab/{file}:{line}: {category}: degree-1 components are "
           "{text}; zeroing them\n  rep = second_variation_ball(d, alpha, p)\n")


def masked_warning(tmp_path, **fields):
    values = {"file": "shape_calculus.py", "line": 245, "category": "UserWarning",
              "text": "translations", **fields}
    return result("a\n1\n", err=od.mask_stderr(WARNING.format(root=tmp_path, **values),
                                                 tmp_path))


def test_moved_warning_compares_equal(tmp_path):
    base, moved = masked_warning(tmp_path), masked_warning(tmp_path, line=249)
    assert base["err"].startswith(f"{od.ROOT_TOKEN}/src/robinlab/shape_calculus.py:N: ")
    assert od.compare(SPECTRUM, base, moved)["identical"]


@pytest.mark.parametrize("fields", [dict(text="rigid motions"), dict(file="geometry.py"),
                                    dict(category="RuntimeWarning")])
def test_reworded_warning_still_fails(tmp_path, fields):
    rec = od.compare(SPECTRUM, masked_warning(tmp_path),
                     masked_warning(tmp_path, line=249, **fields))
    assert rec["failures"] == rec["changes"] == ["stderr"]


def test_without_expect_a_listed_kind_still_fails(capsys):
    rec = od.compare(SPECTRUM, result("", code=2), result("a\n1\n"))
    assert od.report([rec], False) == 1


@pytest.mark.parametrize("text", ["spectrum --n-modes 257 | exit 2 -> 0",
                                  f"{LINE} exit 2 -> 0", f"{LINE} | rows a -> b",
                                  f"{LINE} | stdout"])
def test_bad_list_line(tmp_path, text):
    with pytest.raises(SystemExit, match="expected.txt:1"):
        expect(tmp_path, text)


def test_listed_command_must_be_in_the_command_list(tmp_path):
    problems = od.unexpected([], [], expect(tmp_path, f"{LINE} | header\n"))
    assert problems == [f"listed command not in the command list: {LINE}"]


def test_shipped_list_names_listed_commands():
    commands, _ = od.read_commands(od.DEFAULT_COMMANDS)
    expected = od.read_expected(od.DEFAULT_COMMANDS.with_name("output_expected.txt"))
    assert set(expected) <= {(kind, tuple(args)) for kind, args in commands}
