"""isocap benchmark runner.

    python3 bench/run.py --workload sweep-abs --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py and README.md) from the root of a
checkout: it imports isocap from ``src/``, generates the workload's
inputs from ``--seed``, and then issues the workload's CLI command
through ``isocap.harness.cli.main`` again and again for ``--seconds``
seconds (at least three times), checking every command's outputs.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced commands and reports the per-layer
metrics of tracer.py, writing the spans to
``.bench_out/<workload>/spans.jsonl``.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it give the metrics by name with
their units and the environment block.  The exit code is 0 whenever the
measurement ran, and 2 when it could not (for example without isocap
sources next to the benchmark).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, metric_units
from workloads import ROOT, SRC, WORKLOADS, MissingSource, import_cli, run_cli

MIN_COMMANDS = 3
SETUP_SAMPLES = 5
OUT = ROOT / ".bench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description="isocap benchmark runner")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                   help="one workload, or all of them, each in a fresh process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs each command at a token size (smoke test)")
    p.add_argument("--setup-only", action="store_true",
                   help="time set-up once, print it and exit (used for the "
                        "setup_s samples)")
    return p.parse_args(argv)


def set_up(workload, seed: int, size: str):
    """Import isocap, write the first command's inputs and warm up.

    Returns the client and the set-up's CPU and wall seconds."""
    t0, c0 = time.perf_counter(), time.process_time()
    cli = import_cli()
    client = Client(cli, workload, workload.keys(seed), size)
    rc, _, err = run_cli(cli, client.prep(0)["warmup"])
    if rc != 0:
        raise RuntimeError(f"warm-up command exited with {rc}: {err.strip()}")
    return client, {"setup_s": time.process_time() - c0,
                     "setup_wall_s": time.perf_counter() - t0}


def setup_sample(args) -> dict:
    """Set-up times of a fresh interpreter, which pays the import again."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
           "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


class Client:
    """The closed loop's one client: issues one workload's commands, one
    at a time, and keeps the results."""

    def __init__(self, cli, workload, keys: list, size: str):
        self.cli = cli
        self.workload = workload
        self.keys = keys
        self.size = size
        self.out_dir = OUT / workload.name
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.preps = {}
        self.stdouts = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.infos = []
        self.cpus = []

    def prep(self, i: int) -> dict:
        """Inputs of command i, written on first use."""
        key = self.keys[i % len(self.keys)]
        if key not in self.preps:
            self.preps[key] = self.workload.prepare(key, self.out_dir, self.size, self.cli)
        return self.preps[key]

    def command(self, i: int) -> float:
        """Run command i, check it, and return its wall time."""
        key, prep = self.keys[i % len(self.keys)], self.prep(i)
        t0, c0 = time.perf_counter(), time.process_time()
        rc, stdout, stderr = run_cli(self.cli, prep["argv"])
        wall = time.perf_counter() - t0
        self.cpus.append(time.process_time() - c0)
        outcome = self.workload.check(prep, rc, stdout)
        if rc != 0 and stderr:
            outcome.problems.append(stderr.strip())
        first = self.stdouts.setdefault(key, stdout)
        if stdout != first and outcome.failed == 0:
            # the same inputs must give the same bytes (determinism contract)
            outcome.failed = outcome.attempted
            outcome.problems.append("output differs from the first command's")
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += outcome.problems
        self.infos.append(outcome.info)
        return wall


def keep_going(walls: list, elapsed: float, seconds: float) -> bool:
    """At least MIN_COMMANDS commands (unless they take three windows),
    then more while the next one is expected to end inside the window."""
    if len(walls) < MIN_COMMANDS and elapsed < 3.0 * seconds:
        return True
    return elapsed + statistics.median(walls) <= seconds


def measure(client: Client, seconds: float) -> list:
    walls = []
    start = time.perf_counter()
    while True:
        walls.append(client.command(len(walls)))
        if not keep_going(walls, time.perf_counter() - start, seconds):
            return walls


def measure_traced(client: Client, seconds: float, tracer: Tracer):
    """Alternate untraced and traced commands, all on the first command's
    inputs so that the counts repeat exactly; return both wall lists."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(client.command(0))
        tracer.command = len(traced)
        tracer.install()
        try:
            traced.append(client.command(0))
        finally:
            tracer.uninstall()
        pair = [p + t for p, t in zip(plain, traced)]
        if not keep_going(pair, time.perf_counter() - start, seconds):
            return plain, traced


def cpu_steal():
    """(steal, total) CPU ticks of the whole machine so far, or None."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def end_to_end(workload, client: Client, walls: list, setups: list, steal) -> dict:
    """Every end-to-end metric as {name: (value, unit)}; None where the
    workload has no such quantity."""
    wall = statistics.median(walls)
    info = client.infos[0] if client.infos else {}
    members = info.get("members")
    walks = info.get("walks")
    to_1pct = None
    if walks:
        rel = info["error_estimate"] / info["value"]
        to_1pct = wall * (rel / 0.01) ** 2
    return {
        "cpu_s": (statistics.median(client.cpus), "s"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "wall_s": (wall, "s"),
        "setup_wall_s": (statistics.median(s["setup_wall_s"] for s in setups), "s"),
        "members_per_s": (members / wall if members else None, "members/s"),
        "walks_per_s": (walks / wall if walks else None, "walks/s"),
        "wos_time_to_1pct_s": (to_1pct, "s"),
        "error_rate": (client.failed / client.attempted, "fraction"),
        "cpu_steal_pct": (steal, "%"),
    }


# The end_to_end metrics of BENCHMARK.json.  Times are CPU seconds of this
# process: on a shared two-core VM the hypervisor's steal swings between 1%
# and 20% within minutes and moves wall times by 40%, while CPU seconds move
# by about 3%.  The other metrics are printed for reading only, because they
# do not exist on every workload, are 0 when all is well, or follow steal.
GATED = ("cpu_s", "setup_s", "peak_rss_mb")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_runtime() -> dict:
    """Thread count and kernel core of the OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return {}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        out = {}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                core = getattr(lib, f"{prefix}_get_corename{suffix}", None)
                if threads is not None and "threads" not in out:
                    threads.restype = ctypes.c_int
                    out["threads"] = threads()
                if core is not None and "core" not in out:
                    core.restype = ctypes.c_char_p
                    out["core"] = core().decode()
        if out:
            return out
    return {}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "build": blas.get("openblas configuration"), **_blas_runtime()},
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "src_lines": src_lines,
    }


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run_all(args) -> int:
    """Run every workload in its own process, one after the other."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT, timeout=600).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    try:
        client, first_setup = set_up(workload, args.seed, args.size)
        if args.setup_only:
            print(json.dumps(first_setup))
            return 0
        setups = [first_setup]
        if not args.trace:
            setups += [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
    except MissingSource as exc:
        print(f"cannot run: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, OSError, subprocess.SubprocessError) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2

    print(f"workload {workload.name}: {workload.why}")
    if args.trace:
        tracer = Tracer()
        plain, traced = measure_traced(client, args.seconds, tracer)
        tracer.write_spans(OUT / workload.name / "spans.jsonl")
        layer = tracer.summary(len(traced))
        layer["trace.wall_s"] = statistics.median(traced)
        layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        units = metric_units()
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in units.items()}
        print(f"{len(plain)} untraced and {len(traced)} traced commands; "
              f"per traced command:")
        for name, unit in units.items():
            print(f"  {name:45s} {_fmt(layer[name])} {unit}")
        print(f"  wrapped self time over traced wall time: "
              f"{layer['trace.self_s'] / layer['trace.wall_s']:.3f} (two threads can "
              f"exceed 1)")
        if tracer.absent:
            print(f"absent (reported as 0): {', '.join(tracer.absent)}")
        if tracer.counter_errors:
            print(f"counts unavailable: {', '.join(sorted(tracer.counter_errors))}")
    else:
        before = cpu_steal()
        walls = measure(client, args.seconds)
        after = cpu_steal()
        steal = None
        if before and after and after[1] > before[1]:
            steal = 100.0 * (after[0] - before[0]) / (after[1] - before[1])
        values = end_to_end(workload, client, walls, setups, steal)
        print(f"{len(walls)} commands, {client.attempted} {workload.operation}s; "
              f"medians of {len(walls)} commands and {len(setups)} set-ups")
        print("  command wall s: " + " ".join(f"{w:.3f}" for w in walls))
        print("  command CPU s:  " + " ".join(f"{c:.3f}" for c in client.cpus))
        print("  set-up CPU s:   " + " ".join(f"{s['setup_s']:.3f}" for s in setups))
        for name, (value, unit) in values.items():
            print(f"  {name:20s} {_fmt(value)} {unit}")
        metrics = {name: {"value": values[name][0], "unit": values[name][1]}
                   for name in GATED}
    for problem in client.problems[:20]:
        print(f"check failed: {problem}")
    print(json.dumps({"environment": environment()}, sort_keys=True))
    print(json.dumps({"correct": client.failed == 0, "attempted": client.attempted,
                      "failed": client.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
