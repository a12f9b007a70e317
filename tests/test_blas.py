"""BLAS threads: the CLI pins OpenBLAS to one thread, the library does not."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import robinlab
from robinlab import _blas

SRC = str(Path(robinlab.__file__).resolve().parent.parent)

# each command on its own line, run through main() in one interpreter
COMMANDS = [
    ["spectrum", "--domain", "star", "--rho-cos", "0,0.12,0.08",
     "--rho-sin", "0,0,0.05"],
    ["corpus", "--count", "4", "--seed", "3"],
    ["energy", "--alpha-grid=-2:0.6:40", "--domain", "star",
     "--rho-cos", "0,0.08,-0.05", "--rho-sin", "0,0.03"],
]

RUN_COMMANDS = """
import contextlib, io, json, sys
from robinlab.cli import main
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    print(json.dumps([code, buf.getvalue()]))
"""

# thread counts of the wheels' OpenBLAS builds, found without robinlab
THREAD_COUNTS = """
import contextlib, ctypes, io, json
from pathlib import Path
import numpy, scipy.linalg

libs = [ctypes.CDLL(str(p)) for pkg in (numpy, scipy)
        for p in sorted((Path(pkg.__file__).resolve().parent.parent
                         / f"{pkg.__name__}.libs").glob("libscipy_openblas*.so"))]

def symbol(lib, name, argtypes, restype):
    fn = next(getattr(lib, name + s) for s in ("64_", "") if hasattr(lib, name + s))
    fn.argtypes, fn.restype = argtypes, restype
    return fn

def counts():
    return [symbol(lib, "scipy_openblas_get_num_threads", [], ctypes.c_int)()
            for lib in libs]

def set_three():
    for lib in libs:
        symbol(lib, "scipy_openblas_set_num_threads", [ctypes.c_int], None)(3)

set_three()
seen = [counts()]
import robinlab.cli
seen.append(counts())
for _ in range(2):    # a thread count changed between two calls is pinned again
    with contextlib.redirect_stdout(io.StringIO()):
        robinlab.cli.main(["spectrum", "--kmax", "1"])
    seen.append(counts())
    set_three()
print(json.dumps(seen))
"""


def _python(code, *args, env_update=None):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(env_update or {})
    return subprocess.Popen([sys.executable, "-c", code, *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


@pytest.mark.skipif(not _blas.openblas_libraries(), reason="no wheel OpenBLAS")
class TestPin:
    def test_bytes_ignore_blas_threads(self):
        procs = [_python(RUN_COMMANDS, json.dumps(COMMANDS), env_update=env)
                 for env in ({}, {"OPENBLAS_NUM_THREADS": "1"},
                             {"OPENBLAS_NUM_THREADS": "2"})]
        outs = [p.communicate(timeout=120) for p in procs]
        assert all(p.returncode == 0 for p in procs), [err for _, err in outs]
        tables = [[json.loads(line) for line in out.splitlines()] for out, _ in outs]
        assert [code for code, _ in tables[0]] == [0] * len(COMMANDS)
        assert tables[0] == tables[1] == tables[2]

    def test_only_main_pins(self):
        proc = _python(THREAD_COUNTS)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        before, imported, *after = json.loads(out)
        assert before == imported == [3] * len(before)
        assert after == [[1] * len(before)] * 2


def test_no_library_directory_is_a_no_op(tmp_path):
    missing = [tmp_path / "numpy.libs", tmp_path / "scipy.libs"]
    assert _blas.openblas_libraries(missing) == []
    assert _blas.pin_single_thread(missing) == 0
