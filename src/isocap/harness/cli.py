"""Command-line front end for the experiment engine.

Subcommands::

    isocap cap         capacity / deficit of one domain
    isocap asym        asymmetry panel of one domain
    isocap sweep       family sweep with CSV/JSON/SVG output
    isocap fuglede     Taylor ladder against the second-variation form
    isocap truncation  two-ball truncation experiment
    isocap spectrum    eigenvalue tables
    isocap profile     penalized ball profile

A subcommand takes only the options it reads, and ``--threads``, which
all ignore.  Each option's dest is the name of the engine parameter or
config field it feeds; an option not given is not passed, so the
engine's default applies.  Every option can also be set in a config file
(INI style, ``--config``): keys in ``[common]`` apply to all
subcommands, keys in a section named after the subcommand to it alone.
A key is the long option name without the dashes, case kept (``R``,
``Lmax``), and is parsed as an option token placed before the command
line's own, so it passes the same checks and the command line overrides
it.  Only ``[common]`` skips a key of another subcommand's option; any
other key the subcommand does not take is refused.

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 a checked property was violated.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import inspect
import json
import sys

from ..capacity import (WosConfig, _check_l_max, _check_outer_radius, _check_walks, cap_ball,
                        deficit)
from ..domains import FamilySpec, _check_seed, ball, ellipsoid, load_domain, volume
from ..errors import ConfigError, GeometryError, SolverError
from .engine import (ExperimentConfig, run_asym, run_fuglede, run_profile,
                     run_spectrum, run_sweep, run_truncation)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VIOLATION = 4


def _emit_error(kind: str, message: str, code: int) -> None:
    """Machine-readable error report on stderr."""
    json.dump({"error": kind, "message": message, "exit_code": code},
              sys.stderr, sort_keys=True)
    sys.stderr.write("\n")


def _ladder(text: str) -> tuple:
    """A comma-separated list of t values."""
    return tuple(float(x) for x in text.split(","))


class _Parser(argparse.ArgumentParser):
    """Refuses a bad option with ConfigError, which main reports as JSON."""

    def error(self, message):
        raise ConfigError(message)


# The options that more than one subcommand takes, in help order.  Each
# takes --config and --threads, and those others its handler reads.
_SHARED = {
    "--config": dict(help="INI config file; CLI flags override it"),
    "--mode": dict(choices=("abs", "rel"), default="abs",
                   help="absolute (exterior) or relative (shell) capacity"),
    "--R": dict(type=float, default=2.0, help="radius of the enclosing ball B_R"),
    "--Lmax": dict(type=int, dest="l_max", help="harmonic solver truncation degree"),
    "--seed": dict(type=int, help="seed of a sweep's family and of cap's walks; "
                                  "truncation only checks it"),
    "--walks": dict(type=int, dest="num_walks", help="walk-on-spheres sample count "
                    "of cap --solver wos; truncation only checks it"),
    "--threads": dict(type=int, help="accepted and ignored by all: each command runs in one thread"),
    "--out-dir": dict(help="directory for output files"),
    "--no-timestamp": dict(action="store_false", dest="timestamp",
                           help="omit the generation-time comment in SVG"),
    "--basename": dict(help="file name of the outputs, without extension"),
}


def _add_domain_flags(sub: argparse.ArgumentParser) -> None:
    # not required here, so that a config file may name the domain;
    # _build_domain refuses a command with none
    grp = sub.add_mutually_exclusive_group()
    grp.add_argument("--ball", type=float, metavar="RADIUS",
                     help="centered ball of the given radius")
    grp.add_argument("--ellipsoid", type=float, metavar="EPS",
                     help="volume-preserving ellipsoid, axes (1+eps,1+eps,(1+eps)^-2)")
    grp.add_argument("--domain", metavar="PATH",
                     help="star domain from a saved harmonic-generator file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="isocap",
        description="capacity, asymmetry, and isocapacitary deficit experiments")
    subs = top.add_subparsers(dest="command", required=True)

    def command(name, text, takes):
        p = subs.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        for flag, kwargs in _SHARED.items():
            if flag in ("--config", "--threads", *takes.split()):
                p.add_argument(flag, **kwargs)
        return p

    p = command("cap", "capacity / deficit of one domain", "--mode --R --Lmax --seed --walks")
    _add_domain_flags(p)
    p.add_argument("--solver", choices=("harmonic", "wos", "closed"),
                   default="harmonic")

    p = command("asym", "asymmetry panel of one domain", "--mode --R")
    _add_domain_flags(p)

    p = command("sweep", "family sweep with tables and plot",
                "--mode --R --Lmax --seed --out-dir --no-timestamp --basename")
    p.add_argument("--family", dest="variant", default="random_star",
                   choices=("ellipsoid", "harmonic_perturbation", "random_star"))
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--eps-min", type=float)
    p.add_argument("--eps-max", type=float)
    p.add_argument("--degree", type=int)
    p.add_argument("--order", type=int, help="signed order -l..l")
    p.add_argument("--amplitude", type=float)
    p.add_argument("--max-degree", type=int)

    p = command("fuglede", "Taylor ladder for one harmonic",
                "--mode --R --Lmax --out-dir --basename")
    p.add_argument("--degree", type=int)
    p.add_argument("--order", type=int, help="signed order -l..l")
    p.add_argument("--ladder", type=_ladder,
                   help="comma-separated t values, largest first")

    # --seed and --walks, read by nothing, so that the benchmark's argv parses
    p = command("truncation", "two-ball truncation experiment",
                "--seed --walks --out-dir --basename")
    p.add_argument("--far-fraction", type=float, dest="far_volume_fraction",
                   help="volume fraction in the far component")
    p.add_argument("--far-distance", type=float)
    p.add_argument("--cut-radius", type=float)

    command("spectrum", "eigenvalue tables", "--R --Lmax --out-dir --basename")

    p = command("profile", "penalized ball profile", "--R --out-dir --basename")
    p.add_argument("--eta", type=float, help="volume penalty strength")
    p.add_argument("--points", type=int)
    p.add_argument("--r-lo", type=float)
    p.add_argument("--r-hi", type=float)

    return top


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    """Subcommand name -> its parser."""
    return next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


def _config_tokens(parser: argparse.ArgumentParser, path: str, command: str) -> list:
    """The [common] and [<command>] keys of an INI file as option tokens."""
    ini = configparser.ConfigParser()
    ini.optionxform = str
    if not ini.read(path):
        raise ConfigError(f"cannot read config file {path!r}")
    subs = _subcommands(parser)
    tokens = []
    for section in ("common", command):
        if not ini.has_section(section):
            continue
        for key, value in ini.items(section):
            flag = "--" + key
            action = subs[command]._option_string_actions.get(flag)
            if action is None:
                # [common] may hold another command's option; [<command>] may not
                if section == "common" and any(
                        flag in p._option_string_actions for p in subs.values()):
                    continue
                raise ConfigError(f"{command} takes no config key {key!r} in [{section}]")
            if action.nargs != 0:
                tokens.append(f"{flag}={value}")
            elif value.lower() not in ini.BOOLEAN_STATES:
                raise ConfigError(f"not a boolean: {value!r}")
            elif ini.BOOLEAN_STATES[value.lower()]:
                tokens.append(flag)
    return tokens


def parse_args(argv=None) -> argparse.Namespace:
    """The options of one command line, with its config file's keys."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if "config" in args:
        at = argv.index(args.command) + 1
        args = parser.parse_args(
            argv[:at] + _config_tokens(parser, args.config, args.command) + argv[at:])
    # refused here for every command, also those that do not read them: a
    # seed or walk count that draws nothing, a truncation degree that no
    # solver takes (`cap --solver closed` and `wos` read none), an ignored
    # thread count, and an outer radius that abs mode does not use
    _check_seed(getattr(args, "seed", 0))
    _check_walks(getattr(args, "num_walks", 1))
    _check_l_max(getattr(args, "l_max", 0))
    if getattr(args, "threads", 1) < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    if "R" in args:
        _check_outer_radius(args.R)
    return args


def _options(args: argparse.Namespace, target) -> dict:
    """The given options that name a parameter of `target`."""
    names = inspect.signature(target).parameters
    return {k: v for k, v in vars(args).items() if k in names}


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """The shared knobs.  This is where --mode and --R become the one
    outer_radius the library takes: R for rel or for --R without --mode."""
    rel = "R" in args and getattr(args, "mode", "rel") == "rel"
    return ExperimentConfig(outer_radius=args.R if rel else None,
                            **_options(args, ExperimentConfig))


def _build_domain(args: argparse.Namespace):
    if "ball" in args:
        return ball(args.ball)
    if "ellipsoid" in args:
        return ellipsoid(args.ellipsoid)
    if "domain" not in args:
        raise ConfigError("one of the arguments --ball --ellipsoid --domain is required")
    try:
        return load_domain(args.domain)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        raise ConfigError(f"cannot load domain file {args.domain!r}: {exc}") from exc


def _cmd_cap(args: argparse.Namespace) -> int:
    cfg = _experiment_config(args)
    dom = _build_domain(args)
    wos = WosConfig(**_options(args, WosConfig))
    R = cfg.outer_radius
    d = deficit(dom, R, solver=args.solver, l_max=cfg.l_max, wos_cfg=wos)
    out = {
        "mode": "abs" if R is None else "rel",
        "solver": args.solver,
        "volume": volume(dom),
        "capacity_normalized": d.capacity.value,
        "error_estimate": d.error_estimate,
        "reference_ball": cap_ball(1.0, R),
        "deficit": d.value,
        "scale_to_unit_volume": d.scale,
        "method": d.capacity.method,
    }
    if R is not None:
        out["outer_radius"] = R
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


def _cmd_asym(args: argparse.Namespace) -> int:
    cfg = _experiment_config(args)
    out = run_asym(_build_domain(args), cfg.outer_radius)
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _experiment_config(args)
    given = _options(args, FamilySpec)
    reads = {"ellipsoid": "eps_min eps_max", "random_star": "amplitude seed max_degree",
             "harmonic_perturbation": "degree order amplitude"}[args.variant]
    unread = sorted(given.keys() - {"variant", "count", *reads.split()})
    if unread:
        raise ConfigError(f"--family {args.variant} reads no --"
                          + " --".join(unread).replace("_", "-"))
    # FamilySpec counts orders from 0 to 2*degree; --order is signed
    spec = FamilySpec(**given)
    if abs(order := given.get("order", 0)) > spec.degree:
        raise ConfigError("need |order| <= degree")
    cfg.family = dataclasses.replace(spec, order=spec.degree + order)
    records, summary, paths = run_sweep(cfg, **_options(args, run_sweep))
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


def _cmd_fuglede(args: argparse.Namespace) -> int:
    rows, summary, paths = run_fuglede(_experiment_config(args),
                                       **_options(args, run_fuglede))
    print(f"wrote {paths['csv']} and {paths['json']}")
    print(f"half second variation {summary['limit_deficit_over_t2']}")
    for r in rows:
        print(f"t={r.t!r}  deficit/t^2={r.deficit / r.t**2!r}  "
              f"remainder_ratio={r.remainder_ratio!r}")
    return EXIT_OK


def _cmd_truncation(args: argparse.Namespace) -> int:
    report, paths = run_truncation(_experiment_config(args),
                                   **_options(args, run_truncation))
    print(f"wrote {paths['json']}")
    print(f"deficit full {report['deficit_full']}, truncated "
          f"{report['deficit_truncated']}, sandwich {report['sandwich_verdict']}")
    if report["sandwich_verdict"] == "violated" \
            or report["volume_identity"] == "violated":
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_spectrum(args: argparse.Namespace) -> int:
    rows, paths = run_spectrum(_experiment_config(args), **_options(args, run_spectrum))
    print(f"wrote {paths['csv']} and {paths['json']} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_profile(args: argparse.Namespace) -> int:
    rep, summary, paths = run_profile(_experiment_config(args),
                                      **_options(args, run_profile))
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
    try:
        args = parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, GeometryError, configparser.Error) as exc:
        _emit_error("config", str(exc), EXIT_CONFIG)
        return EXIT_CONFIG
    except SolverError as exc:
        _emit_error("solver", str(exc), EXIT_SOLVER)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
