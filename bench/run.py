"""robinlab benchmark: closed-loop CLI workloads, end to end or traced.

    python3 bench/run.py --workload corpus_cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every workload runs in fresh
interpreters (`bench/worker.py`), each one client calling
`robinlab.cli.main(argv)` in-process, one invocation after another.

--trace 0 measures the end-to-end metrics of BENCHMARK.json: set-up time
(median over several fresh interpreters), verified solves per second,
median and tail invocation latency, and peak RSS.
--trace 1 gives the per-layer metrics: a traced process records spans
around robinlab's public functions for a third of the run time, then the same
invocations run again untraced (the difference is the tracing overhead)
and once more single-threaded (`OPENBLAS_NUM_THREADS=1
ROBINLAB_THREADS=1`) as an ungated baseline.

Both modes inherit the caller's thread settings unchanged and check every
output.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the full record (environment,
output digests, the per-layer table) goes to bench/results/.  The exit
code is 0 only if every output passed its checks.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"
SETUP_PROBES = 3           # set-up-only interpreters before and after the run
DEADLINE_S = 170.0         # the whole invocation stays under this
TAIL_BEYOND = 10           # samples that must lie beyond the tail percentile
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "ROBINLAB_THREADS": "1"}

ROBINLAB_MODULES = ("robinlab", "robinlab.errors", "robinlab.geometry",
                    "robinlab.layerpot", "robinlab.steklov", "robinlab.torsion",
                    "robinlab.robin_energy", "robinlab.shape_calculus",
                    "robinlab.planar_optimality", "robinlab.oracle", "robinlab.cli")

# per-layer groups behind the share metrics (self time, % of all spans)
SHARES = {
    "share.layerpot_assembly": ("layerpot.single_layer_matrix",
                                "layerpot.normal_derivative_matrix",
                                "layerpot.kress_log_weights"),
    "share.dense_kernels": ("kernel.lu_factor", "kernel.lu_solve", "kernel.eigh"),
    "share.spsolve": ("kernel.spsolve",),
    "share.series": ("robin_energy.energy_series",),
}


class BenchError(Exception):
    pass


def _spawn(args, t_end, extra_env=None) -> tuple[float, dict]:
    """Run one worker to completion; (monotonic spawn time, its JSON result)."""
    env = dict(os.environ, **(extra_env or {}))
    left = t_end - time.monotonic()
    if left <= 1.0:
        raise BenchError("time budget exhausted before a worker could start")
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER)] + args, env=env,
                              capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-400:]}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(lat: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above."""
    s = sorted(lat)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    k = len(s) - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / len(s)


def _import_times(t_end) -> dict:
    """Import time per module, from `python -X importtime` in a fresh interpreter."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import robinlab.cli"
    try:
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True,
                              timeout=max(1.0, t_end - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("import timing timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"import of robinlab.cli failed: {proc.stderr[-400:]}")
    self_us, cum_us = {}, {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 \
                or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        self_us[name] = int(parts[0].split(":")[1])
        cum_us[name] = int(parts[1])
    out = {"setup.import.total_ms": sum(self_us.values()) / 1e3,
           "setup.import.numpy_ms": cum_us.get("numpy", 0) / 1e3,
           "setup.import.scipy_ms": sum(v for k, v in self_us.items()
                                        if k.split(".")[0] == "scipy") / 1e3}
    for mod in ROBINLAB_MODULES:
        out[f"setup.import.{mod}.self_ms"] = self_us.get(mod, 0) / 1e3
    return out


def _per_cycle_rate(res, cycle: int) -> float:
    """Median over whole cycles of verified rows per second of timed wall."""
    lat, ok = res["latencies_s"], res["ok_rows"]
    rates = [sum(ok[i:i + cycle]) / sum(lat[i:i + cycle])
             for i in range(0, len(lat) - cycle + 1, cycle)]
    return statistics.median(rates)


def end_to_end(workload, seed, seconds, t_end) -> tuple[dict, list, dict]:
    from workloads import CYCLE

    base = ["--workload", workload, "--seed", str(seed)]
    starts = []

    def probes():
        for _ in range(SETUP_PROBES):
            t0, probe = _spawn(base + ["--setup-only"], t_end)
            starts.append(probe["ready"] - t0)

    probes()
    t0, res = _spawn(base + ["--seconds", str(seconds)], t_end)
    starts.append(res["ready"] - t0)
    probes()
    lat = res["latencies_s"]
    tail, pct = _tail(lat)
    metrics = {
        "setup_s": statistics.median(starts),
        "solves_per_s": _per_cycle_rate(res, CYCLE[workload]),
        "call_p50_ms": 1e3 * statistics.median(lat),
        "call_tail_ms": 1e3 * tail,
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
    }
    by_kind = {}
    for kind, t in zip(res["kinds"], lat):
        by_kind.setdefault(kind, []).append(1e3 * t)
    notes = {"setup_samples": len(starts), "call_samples": len(lat),
             "call_tail_percentile": pct,
             "cycles": len(lat) // CYCLE[workload],
             "call_p50_ms_by_kind": {k: statistics.median(v) for k, v in by_kind.items()}}
    return metrics, [res], notes


def per_layer(workload, seed, seconds, t_end) -> tuple[dict, list, dict]:
    from spans import TARGETS

    base = ["--workload", workload, "--seed", str(seed)]
    _, traced = _spawn(base + ["--seconds", str(seconds / 3.0), "--trace"], t_end)
    replay_args = base + ["--ops", str(traced["ops"])]
    _, plain = _spawn(replay_args, t_end)
    _, single = _spawn(replay_args, t_end, SINGLE_THREAD)
    runs = [traced, plain, single]

    spans, ctr = traced["spans"], traced["counters"]
    m = {}
    for name, _, _ in TARGETS:
        calls, self_s, total_s = spans.get(name, (0, 0.0, 0.0))
        m[f"{name}.calls"] = calls
        m[f"{name}.self_ms"] = 1e3 * self_s
        m[f"{name}.total_ms"] = 1e3 * total_s
    builds = m["layerpot.StarLayerOperator.calls"]
    entries = ctr.get("layerpot.entries", 0.0)
    rows = traced["rows_ok"] + traced["rows_failed"]
    m["layerpot.builds_per_domain"] = builds / traced["domains"] if traced["domains"] else 0.0
    m["layerpot.entries_per_build"] = entries / builds if builds else 0.0
    m["layerpot.bytes_per_build"] = 8.0 * entries / builds if builds else 0.0
    m["kernel.dense_gflop"] = ctr.get("kernel.dense_flop", 0.0) / 1e9
    m["torsion.flux_coefficients.calls_per_alpha"] = (
        m["torsion.flux_coefficients.calls"] / rows if rows else 0.0)
    m["oracle.finest_dofs"] = ctr.get("oracle.finest_dofs", 0.0)
    busy = sum(v[1] for v in spans.values())
    for share, names in SHARES.items():
        m[share] = 100.0 * sum(spans.get(n, (0, 0.0))[1] for n in names) / busy if busy else 0.0
    m["trace.overhead_s"] = traced["timed_s"] - plain["timed_s"]
    m["trace.overhead_pct"] = 100.0 * m["trace.overhead_s"] / plain["timed_s"]
    for prefix, res in (("replay", plain), ("baseline_1t", single)):
        m[f"{prefix}.solves_per_s"] = res["rows_ok"] / res["timed_s"]
        m[f"{prefix}.call_p50_ms"] = 1e3 * statistics.median(res["latencies_s"])
    m["run.cpu_per_wall"] = plain["cpu_s"] / plain["timed_s"]
    m["baseline_1t.cpu_per_wall"] = single["cpu_s"] / single["timed_s"]
    attempted = sum(r["rows_ok"] + r["rows_failed"] for r in runs)
    m["run.failed_ratio"] = sum(r["rows_failed"] for r in runs) / attempted if attempted else 0.0
    m["cli.rows"] = rows
    m["cli.excluded_alphas"] = traced["excluded"]
    m["call.samples"] = traced["ops"]
    m["env.nproc"] = traced["env"]["nproc"]
    m["digest.equal_1t"] = 1 if plain["digest"] == single["digest"] else 0
    m.update(_import_times(t_end))
    notes = {"digest_1t": single["digest"], "overhead_base_s": plain["timed_s"],
             "traced_bytes_equal": traced["digest"] == plain["digest"]}
    return m, runs, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    t_end = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "robinlab" / "cli.py").is_file():
        print(f"error: no robinlab sources under {ROOT / 'src'}; run from the "
              "root of a robinlab checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))

    measure = per_layer if args.trace else end_to_end
    try:
        raw, runs, notes = measure(args.workload, args.seed, args.seconds, t_end)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = set(units) - set(raw)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    metrics = {k: {"value": raw[k], "unit": u} for k, u in units.items()}
    attempted = sum(r["rows_ok"] + r["rows_failed"] for r in runs)
    failed = sum(r["rows_failed"] for r in runs)
    correct = failed == 0 and attempted > 0
    main_run = runs[0]

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": main_run["env"], "notes": notes,
              "digest": main_run["digest"], "digest_ops": main_run["digest_ops"],
              "rows": main_run["rows_ok"] + main_run["rows_failed"],
              "excluded": main_run["excluded"],
              "problems": [q for r in runs for q in r["problems"]],
              "metrics": metrics}
    if args.trace:
        record["spans"] = main_run["spans"]
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    _report(record, notes, args.trace)
    print(f"record: {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _report(record, notes, trace) -> None:
    env = record["env"]
    print(f"workload {record['workload']} seed {record['seed']} trace {trace}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}, "
          f"ROBINLAB_THREADS={env['ROBINLAB_THREADS']}")
    for lib in env["blas"]:
        print(f"  blas {lib.get('library')}: {lib.get('config')}, "
              f"threads {lib.get('num_threads')}")
    print(f"output: {record['rows']} rows, {record['excluded']} excluded alphas, "
          f"sha256 of the first {record['digest_ops']} outputs {record['digest']}")
    for p in record["problems"][:10]:
        print(f"  FAILED {p}")
    metrics = record["metrics"]
    if not trace:
        for k, v in metrics.items():
            extra = ""
            if k == "setup_s":
                extra = f" (median of {notes['setup_samples']} starts)"
            elif k == "solves_per_s":
                extra = f" (median over {notes['cycles']} cycles)"
            elif k.startswith("call_"):
                extra = f" (n={notes['call_samples']})"
                if k == "call_tail_ms":
                    extra = (f" (p{notes['call_tail_percentile']:.1f}, "
                             f"n={notes['call_samples']})")
            print(f"  {k:<14} {v['value']:12.4f} {v['unit']}{extra}")
        for kind, ms in notes["call_p50_ms_by_kind"].items():
            print(f"  median {kind} call {ms:.1f} ms")
        return
    spans = record["spans"]
    busy = sum(v[1] for v in spans.values()) or 1.0
    print(f"spans by self time (share of {busy:.3f} s traced busy time; "
          f"overhead {metrics['trace.overhead_s']['value']:.3f} s on "
          f"{notes['overhead_base_s']:.3f} s untraced):")
    for name, (calls, self_s, total_s) in sorted(spans.items(), key=lambda kv: -kv[1][1]):
        print(f"  {name:<40} {calls:8d} calls {1e3 * self_s:10.1f} ms self "
              f"{1e3 * total_s:10.1f} ms total {100 * self_s / busy:5.1f}%")
    from spans import TARGETS

    traced = {name for name, _, _ in TARGETS}
    for k, v in metrics.items():
        name, _, leaf = k.rpartition(".")
        if name not in traced or leaf not in ("calls", "self_ms", "total_ms"):
            print(f"  {k:<44} {v['value']:14.4f} {v['unit']}")
    print(f"  single-thread outputs sha256 {notes['digest_1t']}")
    print(f"  traced outputs identical to untraced: {notes['traced_bytes_equal']}")


if __name__ == "__main__":
    sys.exit(main())
