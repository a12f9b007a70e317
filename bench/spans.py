"""Span recorder for the traced benchmark run.

The recorder wraps public robinlab functions (and the scipy kernels
robinlab calls) from outside the package: nothing under `src/` changes.
A function is rebound at every module namespace that holds it, because
several modules import names directly (`robin_energy` binds
`solve_torsion`, `steklov` and `torsion` bind `StarLayerOperator`);
methods are patched on their class, which every binding shares.

Each thread keeps its own stack of open spans, since the CLI worker pool
runs solves on threads of its own.  A span opened on a pool thread with
an empty stack takes as parent the innermost span open on the client
thread at that moment.  A span's self time is its duration minus the
part of its interval that child spans cover; children on other threads
may overlap one another, so their intervals are merged before they are
subtracted.  Spans are aggregated per name as they close, which keeps
memory flat however many calls a run makes.
"""
from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict


# (metric prefix, module, attribute path) of every wrapped callable.
TARGETS = (
    ("layerpot.StarLayerOperator", "robinlab.layerpot", "StarLayerOperator.__init__"),
    ("layerpot.single_layer_matrix", "robinlab.layerpot", "single_layer_matrix"),
    ("layerpot.normal_derivative_matrix", "robinlab.layerpot", "normal_derivative_matrix"),
    ("layerpot.kress_log_weights", "robinlab.layerpot", "kress_log_weights"),
    ("layerpot.steklov_eigensystem", "robinlab.layerpot",
     "StarLayerOperator.steklov_eigensystem"),
    ("layerpot.robin_density", "robinlab.layerpot", "StarLayerOperator.robin_density"),
    ("kernel.lu_factor", "scipy.linalg", "lu_factor"),
    ("kernel.lu_solve", "scipy.linalg", "lu_solve"),
    ("kernel.eigh", "scipy.linalg", "eigh"),
    ("kernel.spsolve", "scipy.sparse.linalg", "spsolve"),
    ("steklov.spectrum_star2d", "robinlab.steklov", "spectrum_star2d"),
    ("torsion.solve_torsion", "robinlab.torsion", "solve_torsion"),
    ("torsion.flux_coefficients", "robinlab.torsion", "flux_coefficients"),
    ("robin_energy.energy_series", "robinlab.robin_energy", "energy_series"),
    ("robin_energy.energy_direct", "robinlab.robin_energy", "energy_direct"),
    ("robin_energy.energy_split_variational", "robinlab.robin_energy",
     "energy_split_variational"),
    ("robin_energy.pole_scan", "robinlab.robin_energy", "pole_scan"),
    ("robin_energy.j_functional", "robinlab.robin_energy", "j_functional"),
    ("geometry.TrigPoly.__call__", "robinlab.geometry", "TrigPoly.__call__"),
    ("geometry.boundary_grid", "robinlab.geometry", "boundary_grid"),
    ("shape_calculus.finite_difference_check", "robinlab.shape_calculus",
     "finite_difference_check"),
    ("oracle.fem_robin_energy", "robinlab.oracle", "fem_robin_energy"),
    ("oracle.fem_dirichlet_T", "robinlab.oracle", "fem_dirichlet_T"),
    ("oracle.mesh", "robinlab.oracle", "_Mesh.__init__"),
    ("oracle.assemble", "robinlab.oracle", "_Mesh.assemble"),
    ("oracle.boundary_mass", "robinlab.oracle", "_Mesh.boundary_mass"),
    ("cli.main", "robinlab.cli", "main"),
)


# Namespaces searched for bindings of a wrapped function: robinlab's own
# modules and the two scipy namespaces robinlab calls the kernels through.
def _binds(mod_name: str) -> bool:
    return (mod_name == "robinlab" or mod_name.startswith("robinlab.")
            or mod_name in ("scipy.linalg", "scipy.sparse.linalg"))


def _dense_n(a) -> int:
    return int(getattr(a, "shape", (0,))[0])


def _arg(args, kwargs, pos, key, default=None):
    return args[pos] if len(args) > pos else kwargs.get(key, default)


def _count(tracer, name, args, kwargs) -> None:
    """Counters at the wrapped boundaries; dense flops are textbook counts."""
    c = tracer.counters
    if name == "kernel.lu_factor":
        c["kernel.dense_flop"] += 2.0 * _dense_n(args[0]) ** 3 / 3.0
    elif name == "kernel.lu_solve":
        n = _dense_n(_arg(args, kwargs, 0, "lu_and_piv")[0])
        b = _arg(args, kwargs, 1, "b")
        nrhs = b.shape[1] if getattr(b, "ndim", 1) == 2 else 1
        c["kernel.dense_flop"] += 2.0 * n ** 2 * nrhs
    elif name == "kernel.eigh":
        # symmetric QR with eigenvectors, Golub & Van Loan: about 9 n^3
        c["kernel.dense_flop"] += 9.0 * _dense_n(args[0]) ** 3
    elif name == "layerpot.StarLayerOperator":
        tracer.domains.add(_arg(args, kwargs, 1, "rho"))
        M = int(_arg(args, kwargs, 2, "M", 256))
        # V and A are assembled as two M x M float64 matrices
        c["layerpot.entries"] += 2.0 * M * M
    elif name == "oracle.mesh":
        c["oracle.finest_dofs"] = max(c["oracle.finest_dofs"],
                                      float(args[0].coords.shape[0]))


class _Span:
    __slots__ = ("name", "start", "parent", "cross", "child_time", "remote")

    def __init__(self, name, parent, remote):
        self.name = name
        self.start = 0.0
        self.parent = parent
        self.remote = remote          # parent lives on another thread
        self.child_time = 0.0         # same-thread children, never overlapping
        self.cross = []               # (start, end) of children on other threads


def _union_length(intervals) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class Tracer:
    """Aggregating span recorder; `active` gates recording at run time."""

    def __init__(self):
        self.active = False
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # calls, self_s, total_s
        self.counters = defaultdict(float)
        self.domains = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._client_stack = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        """Wrap every target; the calling thread becomes the client thread."""
        self._client_stack = self._stack()
        for name, module, path in TARGETS:
            mod = sys.modules[module]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig)
            rebound = 0
            for mod_name, other in list(sys.modules.items()):
                if other is None or not _binds(mod_name):
                    continue
                for key, val in list(vars(other).items()):
                    if val is orig:
                        setattr(other, key, wrapped)
                        rebound += 1
            if rebound == 0:
                raise RuntimeError(f"no namespace binds {module}.{attr}")

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            with tracer._lock:
                _count(tracer, name, args, kwargs)
            return result

        return wrapper

    def _open(self, name) -> _Span:
        stack = self._stack()
        if stack:
            span = _Span(name, stack[-1], False)
        else:
            client = self._client_stack
            parent = client[-1] if client and stack is not client else None
            span = _Span(name, parent, parent is not None)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: _Span) -> None:
        end = time.perf_counter()
        self._stack().pop()
        dur = end - span.start
        covered = span.child_time + (_union_length(span.cross) if span.cross else 0.0)
        self_time = max(0.0, dur - covered)
        parent = span.parent
        if parent is not None:
            if span.remote:
                parent.cross.append((span.start, end))
            else:
                parent.child_time += dur
        with self._lock:
            st = self.stats[span.name]
            st[0] += 1
            st[1] += self_time
            st[2] += dur
