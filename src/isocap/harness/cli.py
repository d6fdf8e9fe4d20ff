"""Command-line front end for the experiment engine.

Subcommands::

    isocap cap         capacity / deficit of one domain
    isocap asym        asymmetry panel of one domain
    isocap sweep       family sweep with CSV/JSON/SVG output
    isocap fuglede     Taylor ladder against the second-variation form
    isocap truncation  two-ball truncation experiment
    isocap spectrum    eigenvalue tables
    isocap profile     penalized ball profile

Every option can also be set in a config file (INI style, ``--config``):
keys in ``[common]`` apply to all subcommands, keys in a section named
after the subcommand apply to it alone, and the key names equal the
long option names without the leading dashes.  Explicit command-line
options override the file.

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 a checked property was violated.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import sys

from ..capacity import WosConfig, cap_ball, cap_ball_rel, deficit
from ..domains import FamilySpec, ball, ellipsoid, load_domain, volume
from ..errors import ConfigError, GeometryError, SolverError
from .engine import (ExperimentConfig, run_asym, run_fuglede, run_profile,
                     run_spectrum, run_sweep, run_truncation)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VIOLATION = 4

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _emit_error(kind: str, message: str, code: int) -> None:
    """Machine-readable error report on stderr."""
    json.dump({"error": kind, "message": message, "exit_code": code},
              sys.stderr, sort_keys=True)
    sys.stderr.write("\n")


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _load_config(path: str, command: str) -> dict:
    """Merge [common] and [<command>] sections of an INI file."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    merged: dict[str, str] = {}
    for section in ("common", command):
        if parser.has_section(section):
            merged.update(parser.items(section))
    return merged


class _Resolver:
    """Layer command line over config file over hard defaults."""

    def __init__(self, args: argparse.Namespace, filemap: dict):
        self.args = args
        self.filemap = filemap

    def get(self, name: str, typ, default):
        cli = getattr(self.args, name.replace("-", "_"), None)
        if cli is not None:
            return cli
        if name in self.filemap:
            raw = self.filemap[name]
            if typ is bool:
                return _parse_bool(raw)
            try:
                return typ(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {name!r}: {raw!r}") from exc
        return default


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI config file; CLI flags override it")
    sub.add_argument("--mode", choices=("abs", "rel"),
                     help="absolute (exterior) or relative (shell) capacity")
    sub.add_argument("--R", type=float, dest="R",
                     help="outer shell radius for relative mode")
    sub.add_argument("--Lmax", type=int, dest="Lmax",
                     help="harmonic solver truncation degree")
    sub.add_argument("--seed", type=int, help="seed for all randomness")
    sub.add_argument("--walks", type=int, help="walk-on-spheres sample count")
    sub.add_argument("--threads", type=int,
                     help="accepted and ignored: every command runs in one thread")
    sub.add_argument("--out-dir", help="directory for output files")
    sub.add_argument("--no-timestamp", action="store_const", const=True,
                     default=None, help="omit the generation-time comment in SVG")


def _add_domain_flags(sub: argparse.ArgumentParser) -> None:
    grp = sub.add_mutually_exclusive_group(required=True)
    grp.add_argument("--ball", type=float, metavar="RADIUS",
                     help="centered ball of the given radius")
    grp.add_argument("--ellipsoid", type=float, metavar="EPS",
                     help="volume-preserving ellipsoid, axes (1+eps,1+eps,(1+eps)^-2)")
    grp.add_argument("--domain", metavar="PATH",
                     help="star domain from a saved harmonic-generator file")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="isocap",
        description="capacity, asymmetry, and isocapacitary deficit experiments")
    subs = top.add_subparsers(dest="command", required=True)

    p = subs.add_parser("cap", help="capacity / deficit of one domain")
    _add_common(p)
    _add_domain_flags(p)
    p.add_argument("--solver", choices=("harmonic", "wos", "closed"))

    p = subs.add_parser("asym", help="asymmetry panel of one domain")
    _add_common(p)
    _add_domain_flags(p)

    p = subs.add_parser("sweep", help="family sweep with tables and plot")
    _add_common(p)
    p.add_argument("--family",
                   choices=("ellipsoid", "harmonic_perturbation", "random_star"))
    p.add_argument("--count", type=int)
    p.add_argument("--eps-min", type=float)
    p.add_argument("--eps-max", type=float)
    p.add_argument("--degree", type=int)
    p.add_argument("--order", type=int, help="signed order -l..l")
    p.add_argument("--amplitude", type=float)
    p.add_argument("--max-degree", type=int)
    p.add_argument("--basename")

    p = subs.add_parser("fuglede", help="Taylor ladder for one harmonic")
    _add_common(p)
    p.add_argument("--degree", type=int)
    p.add_argument("--order", type=int, help="signed order -l..l")
    p.add_argument("--ladder", help="comma-separated t values, largest first")
    p.add_argument("--basename")

    p = subs.add_parser("truncation", help="two-ball truncation experiment")
    _add_common(p)
    p.add_argument("--far-fraction", type=float,
                   help="volume fraction in the far component")
    p.add_argument("--far-distance", type=float)
    p.add_argument("--cut-radius", type=float)
    p.add_argument("--basename")

    p = subs.add_parser("spectrum", help="eigenvalue tables")
    _add_common(p)
    p.add_argument("--basename")

    p = subs.add_parser("profile", help="penalized ball profile")
    _add_common(p)
    p.add_argument("--eta", type=float, help="volume penalty strength")
    p.add_argument("--points", type=int)
    p.add_argument("--r-lo", type=float)
    p.add_argument("--r-hi", type=float)
    p.add_argument("--basename")

    return top


def _experiment_config(res: _Resolver) -> ExperimentConfig:
    """The shared knobs.  This is where --mode and --R become the one
    outer_radius the library takes: None for abs, R (default 2) for rel."""
    mode = res.get("mode", str, "abs")
    if mode not in ("abs", "rel"):
        raise ConfigError(f"mode must be 'abs' or 'rel', got {mode!r}")
    outer = res.get("R", float, 2.0 if mode == "rel" else None)
    return ExperimentConfig(
        outer_radius=outer if mode == "rel" else None,
        l_max=res.get("Lmax", int, 8),
        seed=res.get("seed", int, 0),
        walks=res.get("walks", int, 20000),
        out_dir=res.get("out-dir", str, "."),
        timestamp=not res.get("no-timestamp", bool, False),
    )


def _build_domain(args: argparse.Namespace):
    if args.ball is not None:
        return ball(args.ball)
    if args.ellipsoid is not None:
        return ellipsoid(args.ellipsoid)
    try:
        return load_domain(args.domain)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        raise ConfigError(f"cannot load domain file {args.domain!r}: {exc}") from exc


def _cmd_cap(res: _Resolver, args: argparse.Namespace) -> int:
    cfg = _experiment_config(res)
    dom = _build_domain(args)
    solver = res.get("solver", str, "harmonic")
    wos = WosConfig(num_walks=cfg.walks, seed=cfg.seed)
    R = cfg.outer_radius
    d = deficit(dom, R, solver=solver, l_max=cfg.l_max, wos_cfg=wos)
    out = {
        "mode": "abs" if R is None else "rel",
        "solver": solver,
        "volume": volume(dom),
        "capacity_normalized": d.capacity.value,
        "error_estimate": d.error_estimate,
        "reference_ball": cap_ball(1.0) if R is None else cap_ball_rel(1.0, R),
        "deficit": d.value,
        "scale_to_unit_volume": d.scale,
        "method": d.capacity.method,
    }
    if R is not None:
        out["outer_radius"] = R
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


def _cmd_asym(res: _Resolver, args: argparse.Namespace) -> int:
    cfg = _experiment_config(res)
    dom = _build_domain(args)
    out = run_asym(dom, cfg.outer_radius)
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


def _cmd_sweep(res: _Resolver, args: argparse.Namespace) -> int:
    cfg = _experiment_config(res)
    variant = res.get("family", str, "random_star")
    degree = res.get("degree", int, 2)
    order = res.get("order", int, 0)
    if abs(order) > degree:
        raise ConfigError("need |order| <= degree")
    cfg.family = FamilySpec(
        variant=variant,
        count=res.get("count", int, 8),
        eps_min=res.get("eps-min", float, 0.05),
        eps_max=res.get("eps-max", float, 0.4),
        degree=degree,
        order=degree + order,
        amplitude=res.get("amplitude", float, 0.1),
        seed=cfg.seed,
        max_degree=res.get("max-degree", int, 4),
    )
    records, summary, paths = run_sweep(cfg, res.get("basename", str, "sweep"))
    print(f"wrote {paths['csv']} and {paths['json']}"
          + (f" and {paths['svg']}" if paths["svg"] else ""))
    print(f"{summary['count']} members, min deficit {summary['min_deficit']}, "
          f"min ratio {summary['min_ratio']}")
    if "slope" in summary:
        print(f"log-log slope {summary['slope']} +/- {summary['slope_halfwidth']}")
    if summary["verdicts"]["violated"]:
        print(f"{summary['verdicts']['violated']} member(s) violated "
              "the deficit inequality", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_fuglede(res: _Resolver, args: argparse.Namespace) -> int:
    cfg = _experiment_config(res)
    ladder_text = res.get("ladder", str, "0.02,0.01,0.005")
    try:
        ladder = tuple(float(x) for x in ladder_text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad ladder {ladder_text!r}") from exc
    rows, summary, paths = run_fuglede(
        cfg,
        degree=res.get("degree", int, 2),
        order=res.get("order", int, 0),
        ladder=ladder,
        basename=res.get("basename", str, "fuglede"),
    )
    print(f"wrote {paths['csv']} and {paths['json']}")
    print(f"half second variation {summary['limit_deficit_over_t2']}")
    for r in rows:
        print(f"t={r.t!r}  deficit/t^2={r.deficit / r.t**2!r}  "
              f"remainder_ratio={r.remainder_ratio!r}")
    return EXIT_OK


def _cmd_truncation(res: _Resolver, args: argparse.Namespace) -> int:
    cfg = _experiment_config(res)
    report, paths = run_truncation(
        cfg,
        far_volume_fraction=res.get("far-fraction", float, 0.01),
        far_distance=res.get("far-distance", float, 10.0),
        cut_radius=res.get("cut-radius", float, 2.0),
        basename=res.get("basename", str, "truncation"),
    )
    print(f"wrote {paths['json']}")
    print(f"deficit full {report['deficit_full']}, truncated "
          f"{report['deficit_truncated']}, sandwich {report['sandwich_verdict']}")
    if report["sandwich_verdict"] == "violated" \
            or report["volume_identity"] == "violated":
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_spectrum(res: _Resolver, args: argparse.Namespace) -> int:
    cfg = _experiment_config(res)
    R = res.get("R", float, 2.0)
    rows, paths = run_spectrum(cfg, radii=(R,),
                               l_max=res.get("Lmax", int, 6),
                               basename=res.get("basename", str, "spectrum"))
    print(f"wrote {paths['csv']} and {paths['json']} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_profile(res: _Resolver, args: argparse.Namespace) -> int:
    # the profile is relative whatever --mode says: to --R when given,
    # else to B_2 (run_profile's default for an absolute cfg)
    cfg = _experiment_config(res)
    cfg = dataclasses.replace(cfg, outer_radius=res.get("R", float, cfg.outer_radius))
    rep, summary, paths = run_profile(
        cfg,
        eta=res.get("eta", float, 0.01),
        r_lo=res.get("r-lo", float, 0.2),
        r_hi=res.get("r-hi", float, 1.8),
        points=res.get("points", int, 400),
        basename=res.get("basename", str, "profile"),
    )
    print(f"wrote {paths['csv']} and {paths['json']}")
    print(f"argmin radius {summary['argmin_radius']}, "
          f"linear constant {summary['linear_constant']}")
    return EXIT_OK


_COMMANDS = {
    "cap": _cmd_cap,
    "asym": _cmd_asym,
    "sweep": _cmd_sweep,
    "fuglede": _cmd_fuglede,
    "truncation": _cmd_truncation,
    "spectrum": _cmd_spectrum,
    "profile": _cmd_profile,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    filemap = {}
    if getattr(args, "config", None):
        try:
            filemap = _load_config(args.config, args.command)
        except (ConfigError, configparser.Error, OSError) as exc:
            _emit_error("config", str(exc), EXIT_CONFIG)
            return EXIT_CONFIG
    res = _Resolver(args, filemap)
    try:
        return _COMMANDS[args.command](res, args)
    except (ConfigError, GeometryError) as exc:
        _emit_error("config", str(exc), EXIT_CONFIG)
        return EXIT_CONFIG
    except SolverError as exc:
        _emit_error("solver", str(exc), EXIT_SOLVER)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
