"""One benchmark process: a single closed-loop client of `robinlab.cli.main`.

The process imports the CLI, generates its inputs from the seed and then
calls `main(argv)` in-process, one invocation after the other, with no
threads of its own.  Only the invocations are timed; each output is
checked right after its invocation, outside the timed region.  The
result is one JSON line on standard output.

    python3 bench/worker.py --workload corpus_cold --seed 1 --seconds 10
    python3 bench/worker.py --workload corpus_cold --seed 1 --ops 40 --trace
    python3 bench/worker.py --workload corpus_cold --seed 1 --setup-only

`run.py` starts these processes; see bench/README.md for the metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import itertools
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_cli():
    if not (SRC / "robinlab" / "cli.py").is_file():
        raise SystemExit(f"robinlab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import robinlab.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "robinlab":
        raise SystemExit(f"imported robinlab from {cli.__file__}, not {SRC}")
    return cli


def _blas_libraries() -> list:
    """Loaded OpenBLAS builds with their configuration and thread count."""
    paths = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                if "openblas" in line.lower() and line.rstrip().endswith(".so"):
                    paths.add(line.split()[-1])
    except OSError:          # no procfs: the record just lacks the libraries
        return []
    out = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for prefix, suffix in itertools.product(("scipy_openblas_", "openblas_"),
                                                ("64_", "")):
            for key, restype in (("config", ctypes.c_char_p),
                                 ("num_threads", ctypes.c_int)):
                fn = getattr(lib, f"{prefix}get_{key}{suffix}", None)
                if fn is not None and key not in info:
                    fn.argtypes, fn.restype = [], restype
                    val = fn()
                    info[key] = val.decode() if isinstance(val, bytes) else val
        out.append(info)
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ROBINLAB_THREADS": os.environ.get("ROBINLAB_THREADS"),
        "blas": _blas_libraries(),
    }


def run(cli, ops, cycle: int, seconds: float, n_ops, tracer) -> dict:
    """Invoke until `seconds` of timed calls have passed and a cycle is
    complete, or exactly `n_ops` times."""
    from workloads import check

    digest = hashlib.sha256()
    lat, kinds, ok_rows, problems = [], [], [], []
    rows_ok = rows_failed = excluded = 0
    timed = cpu = 0.0
    for i, op in enumerate(ops):
        if n_ops is not None:
            if i >= n_ops:
                break
        elif timed >= seconds and i % cycle == 0:
            break
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.active = True
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(op.argv)
        except SystemExit as exc:          # argparse rejects bad argv this way
            rc = exc.code
        except Exception:                  # one failed call must not end the run
            rc = "exception"
            err.write(traceback.format_exc())
        t1 = time.perf_counter()
        c1 = time.process_time()
        if tracer is not None:
            tracer.active = False
        lat.append(t1 - t0)
        kinds.append(op.kind)
        timed += t1 - t0
        cpu += c1 - c0
        text = out.getvalue()
        if i < cycle:
            digest.update(text.encode())
        v = check(op, rc, text, err.getvalue())
        ok_rows.append(v.ok)
        rows_ok += v.ok
        rows_failed += v.failed
        excluded += v.excluded
        problems += [f"op {i} ({' '.join(op.argv)}): {p}" for p in v.problems]
    return {
        "ops": len(lat),
        "latencies_s": lat,
        "kinds": kinds,
        "ok_rows": ok_rows,
        "timed_s": timed,
        "cpu_s": cpu,
        "rows_ok": rows_ok,
        "rows_failed": rows_failed,
        "excluded": excluded,
        "problems": problems[:20],
        "digest": digest.hexdigest(),
        "digest_ops": min(cycle, len(lat)),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="timed invocation time to accumulate")
    p.add_argument("--ops", type=int, default=None,
                   help="run exactly this many invocations instead")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true",
                   help="stop once the first invocation is ready to run")
    args = p.parse_args(argv)

    cli = _import_cli()
    from workloads import CYCLE, WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    ops = WORKLOADS[args.workload](args.seed)
    first = next(ops)
    result = {"ready": time.monotonic()}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        result.update(run(cli, itertools.chain([first], ops),
                          CYCLE[args.workload], args.seconds, args.ops, tracer))
        result["env"] = environment()
        if tracer is not None:
            result["spans"] = {k: list(v) for k, v in tracer.stats.items()}
            result["counters"] = dict(tracer.counters)
            result["domains"] = len(tracer.domains)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
