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
