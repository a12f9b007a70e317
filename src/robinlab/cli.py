"""Command-line frontend: experiment drivers emitting CSV or JSON tables.

Every subcommand writes one table (CSV by default, `--json` for the
same rows as JSON) with 17-significant-digit floats, so identical
configurations reproduce byte-identical output whatever the BLAS thread
settings: every command runs serially and `main` pins BLAS to one
thread.  `energy` and `split` skip the alphas of their grid that fall
within the resonance tolerance of an energy pole, logging each
exclusion to stderr (a grid with every alpha excluded prints the header
only).  The commands that solve one alpha at a time (`first-variation`,
`oracle-verify`) exit 3 at such an alpha with "no Robin solution".
Exit codes: 0 success, 2 invalid configuration, 3 solver failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import geometry as geo
from . import oracle
from . import planar_optimality as pw
from . import robin_energy as energy
from . import shape_calculus as sc
from . import steklov as sk
from ._blas import pin_single_thread
from .errors import SolverError
from .geometry import Domain, PerturbationField, TrigPoly

__all__ = ["main"]


# -- output plumbing ---------------------------------------------------------

def _native(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    return v


_FLOAT = "%.17g"


def _fmt(v) -> str:
    v = _native(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _FLOAT % v
    return str(v)


def _csv(columns, rows) -> str:
    """The CSV table: one %-format per row type signature, one join.

    Plain float, int and str cells (every cell of an alpha-grid or
    spectrum table) go straight into the format; other cells (bools,
    numpy scalars) go through `_fmt` first.
    """
    direct = {float: _FLOAT, int: "%d", str: "%s"}
    lines, sig = [",".join(columns)], None
    for r in rows:
        if (s := tuple(map(type, r))) != sig:
            sig, form = s, ",".join(direct.get(t, "%s") for t in s)
            other = [i for i, t in enumerate(s) if t not in direct]
        if other:
            r = [_fmt(v) if i in other else v for i, v in enumerate(r)]
        lines.append(form % tuple(r))
    return "\n".join(lines) + "\n"


def _emit(args, columns, rows) -> None:
    if args.json:
        payload = {"columns": list(columns),
                   "rows": [dict(zip(columns, map(_native, r))) for r in rows]}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = _csv(columns, rows)
    if args.output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# -- argument helpers --------------------------------------------------------

def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:count, got {text!r}")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"grid endpoints must be finite, got {text!r}")
    if count < 1:
        raise ValueError("grid count must be positive")
    return np.linspace(start, stop, count)


def _check_args(args) -> None:
    """Reject values that parse but that no solve can use.

    `args` holds exactly the options of its subcommand.
    """
    given = vars(args)
    if given.get("nodes") is not None and (args.nodes < 8 or args.nodes % 2):
        raise ValueError(f"--nodes must be even and at least 8, got {args.nodes}")
    for dest in {"count", "kmax"} & given.keys():
        if given[dest] < 0:
            raise ValueError(f"--{dest} must be nonnegative, got {given[dest]}")
    if "alpha" in given:
        _alpha_values(args)


def _alpha_values(args) -> np.ndarray | None:
    """--alpha as a 1-D float array, None when not given."""
    raw = args.alpha
    if not raw:
        return None
    alphas = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(alphas)):
        raise ValueError(f"--alpha must be finite, got {raw}")
    return alphas


def _domain_from_args(args) -> Domain:
    if args.domain_json:
        with open(args.domain_json, encoding="utf-8") as fh:
            return geo.domain_from_dict(json.load(fh))
    kind = args.domain
    if kind == "ball":
        return Domain.ball(args.dim, args.radius)
    if kind == "annulus":
        if args.kappa is None:
            raise ValueError("annulus domains need --kappa")
        return Domain.annulus(args.dim, args.radius, args.kappa)
    if kind == "star":
        if args.dim != 2:
            raise ValueError("star domains are planar (--dim 2)")
        cos = _floats(args.rho_cos) if args.rho_cos else []
        sin = _floats(args.rho_sin) if args.rho_sin else []
        rho = TrigPoly(args.radius, tuple(cos), tuple(sin))
        return Domain.star2d(rho)
    raise ValueError(f"unknown domain kind {kind!r}")


def _alphas_from_args(args) -> np.ndarray:
    if args.alpha_grid:
        return _grid(args.alpha_grid)
    alphas = _alpha_values(args)
    if alphas is not None:
        return alphas
    raise ValueError("provide --alpha or --alpha-grid")


def _modes_spec(n: int, text: str) -> PerturbationField:
    """Parse 'k2=1,k3s=-0.5' into a perturbation field (cos slot default)."""
    entries = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, val = item.partition("=")
        if not key.startswith("k") or not val:
            raise ValueError(f"bad mode spec {item!r}; use k<deg>[c|s]=<value>")
        parity = "c"
        body = key[1:]
        if body and body[-1] in "cs":
            parity, body = body[-1], body[:-1]
        value = float(val)
        if not math.isfinite(value):
            raise ValueError(f"--modes values must be finite, got {item!r}")
        if (int(body), parity) in [e[:2] for e in entries]:
            raise ValueError(f"--modes sets k{int(body)}{parity} twice: {item!r}")
        entries.append((int(body), parity, value))
    if not entries:
        raise ValueError("empty --modes spec")
    if any(k < 1 for k, _, _ in entries):
        raise ValueError("mode degrees start at 1")
    if n == 2:
        size = 1 + 2 * max(k for k, _, _ in entries)
        b = np.zeros(size)
        for k, parity, val in entries:
            b[2 * k - 1 if parity == "c" else 2 * k] = val
        return PerturbationField(tuple(b))
    if any(p == "s" for _, p, _ in entries):
        raise ValueError("parity suffixes are planar; use k<deg>=<value> here")
    return PerturbationField.from_modes(n, {k: v for k, _, v in entries})


# -- subcommands -------------------------------------------------------------

def _cmd_spectrum(args) -> int:
    d = _domain_from_args(args)
    if d.kind == "ball":
        basis = sk.spectrum_ball(d.dim, d.R, k_max=args.kmax)
    elif d.kind == "annulus":
        try:
            basis = sk.spectrum_annulus(d.dim, d.R, d.kappa, k_max=args.kmax)
        except SolverError as exc:
            raise SolverError(f"{exc}; lower --kmax (got {args.kmax})") from exc
    else:
        basis = sk.spectrum_star2d(d, n_modes=args.n_modes, M=args.nodes)
    res = basis.residuals if basis.residuals is not None else np.zeros(basis.count)
    _emit(args, ("i", "k", "parity", "mu", "residual"),
          zip(range(1, basis.count + 1), basis.k.tolist(), basis.parity,
              basis.mu.tolist(), res.tolist()))
    return 0


def _off_poles(pack, alphas: np.ndarray) -> np.ndarray:
    """The alphas of a grid that no pole of `pack` resonates with; each other one is logged."""
    # every pole carries flux, so the rule excludes each alpha it resonates with
    near = sk._resonance(np.array(pack.poles), alphas, True)[0]
    excluded = near.any(axis=1)
    for i in np.flatnonzero(excluded):
        pole = pack.poles[int(np.argmax(near[i]))]
        _log(f"excluded alpha={alphas[i]:.17g}: within tolerance of pole {pole:.17g}")
    return alphas[~excluded]


def _cmd_energy(args) -> int:
    d = _domain_from_args(args)
    alphas = _alphas_from_args(args)
    pack = energy.series_pack(d, n_modes=args.n_modes, M=args.nodes)
    alphas = _off_poles(pack, alphas)
    _log(f"poles: {{{', '.join(f'{p:.12g}' for p in pack.poles)}}}")
    rows = energy.energy_series_grid(pack, alphas)
    _emit(args, energy.ENERGY_COLUMNS, rows)
    return 0


def _cmd_split(args) -> int:
    d = _domain_from_args(args)
    alphas = _alphas_from_args(args)
    pack = energy.series_pack(d, n_modes=args.n_modes, M=args.nodes)
    alphas = _off_poles(pack, alphas)
    series = energy.energy_series_grid(pack, alphas)
    e_plus, em_bound = energy.split_variational_grid(pack, alphas)
    em = np.array([E_minus for _, _, _, E_minus, *_ in series])
    # the trial bound only applies below mu_2; NaN means not applicable
    ok = np.isnan(em_bound) | (em <= em_bound + 1e-9 * np.maximum(1.0, np.abs(em)))
    rows = [(a, E_plus, E_minus, ep, eb, k) for (a, _, E_plus, E_minus, *_), ep, eb, k
            in zip(series, e_plus.tolist(), em_bound.tolist(), ok.tolist())]
    _emit(args, ("alpha", "E_plus", "E_minus", "E_plus_series",
                 "E_minus_bound", "bound_ok"), rows)
    return 0


def _cmd_alpha0(args) -> int:
    d = _domain_from_args(args)
    rep = energy.alpha0(d, M=args.nodes)
    if d.dim == 2 and d.kind != "annulus":
        thr = pw.theorem_J_check(d, T_omega=rep.T_omega)
        threshold, ok = thr.threshold, thr.satisfied
    else:
        threshold, ok = math.nan, True
    _emit(args, ("alpha0", "epsilon0", "R", "T_omega", "T_ball",
                 "area_ratio_gap", "threshold", "threshold_ok"),
          [(rep.alpha0, rep.epsilon0, rep.R, rep.T_omega, rep.T_ball,
            rep.area_ratio_gap, threshold, ok)])
    return 0


def _cmd_first_variation(args) -> int:
    d = _domain_from_args(args)
    cos = _floats(args.vn_cos) if args.vn_cos else []
    sin = _floats(args.vn_sin) if args.vn_sin else []
    for flag, text, values in (("--vn-const", args.vn_const, [args.vn_const]),
                               ("--vn-cos", args.vn_cos, cos),
                               ("--vn-sin", args.vn_sin, sin)):
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"{flag} must be finite, got {text}")
    if cos or sin:
        if d.dim != 2:
            raise ValueError("trigonometric speeds are planar; use --vn-const")
        vn = TrigPoly(args.vn_const, tuple(cos), tuple(sin))
    else:
        vn = args.vn_const
    alphas = _alphas_from_args(args)
    _emit(args, ("alpha", "E_dot"),
          zip(alphas, sc.first_variation_general(d, alphas, vn, M=args.nodes)))
    return 0


def _cmd_second_variation(args) -> int:
    d = _domain_from_args(args)
    if d.kind != "ball":
        raise ValueError("the modal second variation is defined around balls")
    p = _modes_spec(d.dim, args.modes)
    alphas = _alphas_from_args(args)
    cols = ["alpha", "xi", "E_ddot", "E_ddot_radial", "route_gap", "S_ddot",
            "zone", "definite_negative", "bound", "bound_satisfied"]
    reps, rows = [], []
    for a in alphas:
        sign = sc.classify_sign(d, a, p)
        rep = sign.variation
        reps.append(rep)
        rows.append([a, rep.xi, rep.E_ddot, rep.E_ddot_radial, rep.route_gap,
                     rep.S_ddot, sign.zone, sign.definite_negative, sign.bound,
                     sign.bound_satisfied if sign.bound_satisfied is not None else True])
    if args.fd_check:
        if d.dim != 2:
            raise ValueError("--fd-check needs a planar ball")
        cols += ["fd_E_ddot", "fd_rel_err", "fd_E_dot"]
        fam = sc.NormalSpeedFamily.from_perturbation(p, d.R)
        steps = np.asarray(_floats(args.fd_steps))
        t_grid = np.concatenate([-steps[::-1], steps])
        fds = sc.finite_difference_check(fam, alphas, t_grid,
                                         route=args.fd_route,
                                         degree=args.fd_degree,
                                         n_modes=args.n_modes, M=args.nodes)
        for row, rep, fd in zip(rows, reps, fds):
            rel = abs(fd.E_ddot - rep.E_ddot) / max(abs(rep.E_ddot), 1e-300)
            row += [fd.E_ddot, rel, fd.E_dot]
    _emit(args, tuple(cols), [tuple(r) for r in rows])
    return 0


def _cmd_j_variations(args) -> int:
    d = _domain_from_args(args)
    if d.kind != "ball":
        raise ValueError("J variations are defined around balls")
    p = _modes_spec(d.dim, args.modes)
    rows = []
    for a in _alphas_from_args(args):
        rep = sc.j_variations(d, a, p)
        ok = rep.slack_lower >= -1e-9 and rep.slack_upper >= -1e-9
        rows.append((a, rep.J_dot, rep.J_ddot, rep.lower_bound,
                     rep.upper_bound, rep.slack_lower, rep.slack_upper, ok))
    _emit(args, ("alpha", "J_dot", "J_ddot", "lower_bound", "upper_bound",
                 "slack_lower", "slack_upper", "bounds_ok"), rows)
    return 0


def _cmd_pw_check(args) -> int:
    d = _domain_from_args(args)
    area, per = geo.volume(d), geo.surface_area(d)
    bound = pw.pw_upper_bound(area, per)
    T_fem = oracle.fem_dirichlet_T(d, h_max=args.h_max)
    margin = bound.T_star - T_fem
    _emit(args, ("area", "perimeter", "defect", "T_star", "T_fem",
                 "margin", "bound_ok"),
          [(area, per, bound.defect, bound.T_star, T_fem, margin,
            margin >= -1e-8 * max(1.0, abs(T_fem)))])
    return 0


def _cmd_corollary_check(args) -> int:
    d = _domain_from_args(args)
    given = _alpha_values(args)
    pack = pw.corollary_pack(d, args.n_modes, args.nodes)
    if given is not None:
        alphas = [float(a) for a in given]
    else:
        alphas = [pw.low_alpha(d, float(pack.mu[1]))]
    rows = []
    for a in alphas:
        rep = pw.corollary_disc_max(d, a, pack=pack)
        ok = rep.gap >= -1e-9 * max(1.0, abs(rep.E_ball))
        rows.append((a, rep.E_domain, rep.E_ball, rep.gap, rep.mu2,
                     rep.weinstock, rep.inv_R, rep.chain_ok, ok))
    _emit(args, ("alpha", "E_domain", "E_ball", "gap", "mu2", "weinstock",
                 "inv_R", "chain_ok", "gap_ok"), rows)
    return 0


def _cmd_oracle_verify(args) -> int:
    d = _domain_from_args(args)
    pack = energy.series_pack(d, n_modes=args.n_modes, M=args.nodes)
    fem = oracle.FemRobin(d, h_max=args.h_max)
    rows = []
    for a in map(float, _alphas_from_args(args)):
        # one-row grids keep energy_series' per-alpha error order
        row, = energy.energy_series_grid(pack, [a])
        if row[energy.ENERGY_COLUMNS.index("status")] == sk.STATUS_NO_SOLUTION:
            raise SolverError(f"no Robin solution at alpha={a}")
        E_series = row[energy.ENERGY_COLUMNS.index("E_total")]
        fs = oracle.fem_robin_energy(fem, a)
        diff = abs(E_series - fs.energy)
        ok = diff <= max(10.0 * fs.error, 1e-7 * max(1.0, abs(E_series)))
        rows.append((a, E_series, fs.energy, diff, fs.error, ok))
    _emit(args, ("alpha", "E_series", "E_fem", "diff", "fem_error",
                 "consistent"), rows)
    return 0


def _cmd_corpus(args) -> int:
    rng = np.random.default_rng(args.seed)
    domains = [geo.random_star_domain(rng) for _ in range(args.count)]
    rows = []
    for idx, d in enumerate(domains):
        pack = pw.corollary_pack(d, args.n_modes, args.nodes)
        mu2 = float(pack.mu[1])
        a = pw.low_alpha(d, mu2)
        rep = pw.corollary_disc_max(d, a, pack=pack)
        E_dom, E_ball = rep.E_domain, rep.E_ball
        J_dom = energy.j_functional(d, a, T_omega=pack.T)
        tol = 1e-9 * max(1.0, abs(E_ball))
        rows.append((idx, d.R, mu2, a, E_dom, E_ball, E_dom <= E_ball + tol,
                     J_dom, E_ball, J_dom <= E_ball + tol))
    _emit(args, ("index", "R", "mu2", "alpha", "E_domain", "E_ball", "E_ok",
                 "J_domain", "J_ball", "J_ok"), rows)
    bad = [r for r in rows if not (r[6] and r[9])]
    if bad:
        _log(f"corpus: {len(bad)} domain(s) violated the ball comparison")
        return 3
    return 0


# -- parser ------------------------------------------------------------------

# Every option: dest -> (default, add_argument keywords); its flag is the
# dest with dashes.  A call that neither passes a flag nor sets its dest
# in --config reads the default.
_OPTIONS = {
    "domain": ("ball", dict(choices=("ball", "annulus", "star"))),
    "dim": (2, dict(type=int)),
    "radius": (1.0, dict(type=float)),
    "kappa": (None, dict(type=float)),
    "rho_cos": (None, dict(help="comma-separated cosine coefficients of rho (star)")),
    "rho_sin": (None, {}),
    "domain_json": (None, dict(help="JSON file with a serialized domain (overrides flags)")),
    "output": ("-", {}),
    "json": (False, dict(action="store_true",
                         help="emit the table as JSON instead of CSV")),
    "nodes": (None, dict(type=int, help="boundary nodes of star solves, exit 3 if unresolved; "
                          "unset: 64 (series and spectrum: the first 64 * 2^k >= max(256, "
                          "8 n_modes)), doubled until resolved, exit 3 past 2048")),
    "n_modes": (32, dict(type=int)),
    "alpha": (None, dict(type=float, action="append", help="repeatable single value")),
    "alpha_grid": (None, dict(help="start:stop:count")),
    "kmax": (12, dict(type=int)),
    "modes": (None, dict(required=True, help="perturbation spec, e.g. k2=1,k3s=-0.5")),
    "vn_const": (0.0, dict(type=float)),
    "vn_cos": (None, {}),
    "vn_sin": (None, {}),
    "fd_check": (False, dict(action="store_true",
                             help="cross-check by finite differences along the family")),
    "fd_steps": ("0.01,0.02,0.03", {}),
    "fd_route": ("series", dict(choices=("series", "direct", "fem"))),
    "fd_degree": (3, dict(type=int)),
    "h_max": (0.065, dict(type=float)),
    "count": (20, dict(type=int)),
    "seed": (0, dict(type=int)),
}

_DOMAIN = ("domain", "dim", "radius", "kappa", "rho_cos", "rho_sin", "domain_json")
_TABLE = ("output", "json")
_SERIES = ("nodes", "n_modes")
_ALPHAS = ("alpha", "alpha_grid")

# Every subcommand: (handler, help, the dests its handler reads).  Its
# parser takes exactly these options, in this order.
_COMMANDS = {
    "spectrum": (_cmd_spectrum, "Steklov eigenvalues of a domain",
                 _DOMAIN + _TABLE + _SERIES + ("kmax",)),
    "energy": (_cmd_energy, "Robin energy over an alpha grid",
               _DOMAIN + _TABLE + _SERIES + _ALPHAS),
    "split": (_cmd_split, "signed series parts and the trial-space bound",
              _DOMAIN + _TABLE + _SERIES + _ALPHAS),
    "alpha0": (_cmd_alpha0, "crossover threshold against the equal-volume ball",
               _DOMAIN + _TABLE + ("nodes",)),
    "first-variation": (_cmd_first_variation, "Hadamard derivative of the energy",
                        _DOMAIN + _TABLE + ("nodes",) + _ALPHAS
                        + ("vn_const", "vn_cos", "vn_sin")),
    "second-variation": (_cmd_second_variation, "modal second variation around a ball",
                         _DOMAIN + _TABLE + _SERIES + _ALPHAS
                         + ("modes", "fd_check", "fd_steps", "fd_route", "fd_degree")),
    "j-variations": (_cmd_j_variations, "variations of the torsion-area functional",
                     _DOMAIN + _TABLE + _ALPHAS + ("modes",)),
    "pw-check": (_cmd_pw_check, "area-perimeter torsion bound versus the element oracle",
                 _DOMAIN + _TABLE + ("h_max",)),
    "corollary-check": (_cmd_corollary_check,
                        "equal-area disc comparison in the low-alpha window",
                        _DOMAIN + _TABLE + _SERIES + ("alpha",)),
    "oracle-verify": (_cmd_oracle_verify, "series energies against the element oracle",
                      _DOMAIN + _TABLE + _SERIES + _ALPHAS + ("h_max",)),
    "corpus": (_cmd_corpus, "random-domain ball-comparison verdicts",
               _TABLE + _SERIES + ("count", "seed")),
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `robinlab` parser, built once per process and never changed.

    Subcommand options parse to SUPPRESS, so the namespace holds only
    what argv set; `_fill` adds the rest.
    """
    parser = argparse.ArgumentParser(
        prog="robinlab",
        description="Robin torsion energies, Steklov series, and shape derivatives")
    parser.add_argument("--config", default=None,
                        help="JSON file of option defaults (CLI flags win)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, dests) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for dest in dests:
            p.add_argument(_flag(dest), **_OPTIONS[dest][1])
    return parser


def _config_value(dest: str, value):
    """A config-file value converted as the option converts its flag text.

    Each element of a list is converted for an `append` option; a single
    value there stands for a one-element list.  A flag (`store_true`)
    takes a JSON boolean, and an option without a type a JSON string,
    as is: a list, number or null there raises ValueError.
    """
    kw = _OPTIONS[dest][1]
    if "type" not in kw:
        want = bool if kw.get("action") == "store_true" else str
        if not isinstance(value, want):
            kind = "boolean" if want is bool else "string"
            raise ValueError(f"{_flag(dest)}: expected a JSON {kind}, got {json.dumps(value)}")
        return value

    def convert(v):
        try:
            return kw["type"](str(v))
        except ValueError as exc:
            raise ValueError(f"{_flag(dest)}: {exc}") from exc

    if kw.get("action") == "append":
        return [convert(v) for v in (value if isinstance(value, list) else [value])]
    return convert(value)


def _read_config(path: str | None) -> dict:
    """The converted values of a --config file by dest; {} without one.

    A key must be the dest of some subcommand's option; one that the
    chosen subcommand does not take has no effect.
    """
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("the config file must hold a JSON object")
    bad = set(cfg) - _OPTIONS.keys()
    if bad:
        raise ValueError(f"unknown keys {sorted(bad)}")
    return {dest: _config_value(dest, value) for dest, value in cfg.items()}


def _fill(args, cfg: dict) -> None:
    """Give each dest of the subcommand that argv left unset its config value, else its default."""
    given = vars(args)
    for dest in _COMMANDS[args.command][2]:
        given.setdefault(dest, cfg.get(dest, _OPTIONS[dest][0]))


def _preparse(argv) -> tuple[list[str], str | None]:
    """(argv, config path): the --config taken out of argv; a second one raises ValueError.

    `--alpha-grid` is joined to a following value that starts with a
    minus sign and a digit or point, which argparse would read as an
    option.
    """
    out, path, toks = [], None, iter(argv)
    for tok in toks:
        if tok == "--config" or tok.startswith("--config="):
            if path is not None:
                raise ValueError("--config given twice; merge the files into one")
            path = tok.split("=", 1)[1] if "=" in tok else next(toks, None)
            if path is None:
                raise ValueError("--config needs a path")
        elif out[-1:] == ["--alpha-grid"] and re.match(r"-[0-9.]", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out, path


def main(argv=None) -> int:
    # output bytes must not depend on the BLAS thread count
    pin_single_thread()
    try:
        argv, path = _preparse(sys.argv[1:] if argv is None else argv)
        cfg = _read_config(path)
    except (ValueError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    try:
        args = build_parser().parse_args(argv)
        _fill(args, cfg)
        _check_args(args)
        return _COMMANDS[args.command][0](args)
    except (SolverError, ArithmeticError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
