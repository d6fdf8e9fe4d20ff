"""The benchmark's workloads: the argv each one passes to the isocap CLI,
the inputs it writes during set-up, and the checks on its outputs.

Every workload is a closed loop with one client: the runner issues one
command through ``isocap.harness.cli.main``, waits for it to return,
checks its outputs and only then issues the next.  All commands run at
``--threads 2``, the core count of the machine the sizes were chosen on.

Each workload turns the workload seed into the keys of its successive
commands (``keys``) and a key into the command's inputs (``prepare``).
Keys run over 0..REFERENCE_KEYS-1.  A sweep key is the family seed; every
member's deficit and Fraenkel asymmetry were recorded for each key in
``reference.json`` by ``make_reference.py``.  A ``wos-star`` or
``truncation`` key is the program's ``--seed``, and the checks on those
workloads hold for every key at the commit that defined the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"
REFERENCE_KEYS = 64

THREADS = "2"
AMPLITUDE = "0.3"
L_MAX = "8"
OUTER_RADIUS = "2"

# Cross-stack drift of deficits is ~1e-14 and the smallest deficit_err in
# these sweeps is ~1e-3, so 1e-8 separates both by five orders of magnitude.
REFERENCE_TOL = 1e-8


@dataclass
class Outcome:
    """Result of checking one command: operations attempted and failed,
    failure messages, and the numbers the end-to-end metrics need."""

    attempted: int
    failed: int
    problems: list
    info: dict


class MissingSource(RuntimeError):
    """The checkout holds no isocap sources next to the benchmark."""


def import_cli():
    """Import ``isocap.harness.cli`` from this checkout's ``src/``.

    BLAS is pinned to one thread first, so that the two worker threads
    the commands start are the only threads doing numerical work.
    """
    if not (SRC / "isocap" / "__init__.py").is_file():
        raise MissingSource(f"no isocap package under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from isocap.harness import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise MissingSource(f"isocap was imported from {cli.__file__}, not {SRC}")
    return cli


def run_cli(cli, argv: list) -> tuple:
    """Call the CLI in process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


class Sweep:
    """``isocap sweep --family random_star`` in one mode."""

    operation = "member"

    def __init__(self, name: str, mode: str, count: int, why: str):
        self.name = name
        self.mode = mode
        self.count = count
        self.why = why

    def keys(self, seed: int) -> list:
        """A new family per command, so that one run averages over the
        members' spread in cost."""
        return random.Random(seed).sample(range(REFERENCE_KEYS), REFERENCE_KEYS)

    def argv(self, key: int, out_dir: Path, count: int) -> list:
        argv = ["sweep", "--family", "random_star", "--amplitude", AMPLITUDE,
                "--Lmax", L_MAX, "--count", str(count), "--seed", str(key),
                "--threads", THREADS, "--mode", self.mode,
                "--out-dir", str(out_dir), "--no-timestamp"]
        if self.mode == "rel":
            argv += ["--R", OUTER_RADIUS]
        return argv

    def prepare(self, key: int, out_dir: Path, size: str, cli) -> dict:
        """Nothing to write: the family is generated from the flags."""
        count = self.count if size == "full" else 2
        refs = load_reference()[self.name]
        if refs["count"] < count:
            raise ValueError(f"reference holds {refs['count']} members per key, "
                             f"the workload needs {count}")
        return {"argv": self.argv(key, out_dir, count),
                "warmup": self.argv(0, out_dir, 1),
                "count": count,
                "reference": refs["keys"][str(key)][:count],
                "out_dir": out_dir}

    def check(self, prep: dict, rc: int, stdout: str) -> Outcome:
        count = prep["count"]
        if rc != 0:
            return Outcome(count, count, [f"exit code {rc}"], {})
        with open(prep["out_dir"] / "sweep.json") as fh:
            data = json.load(fh)
        summary, rows = data["summary"], data["rows"]
        problems = []
        if summary["count"] != count or len(rows) != count:
            problems.append(f"{len(rows)} rows for {count} members")
        if summary["failures"]:
            problems.append(f"failures: {summary['failures']}")
        if problems:
            return Outcome(count, count, problems, {})
        failed = 0
        for k, (row, (ref_def, ref_fr)) in enumerate(zip(rows, prep["reference"])):
            dval = float(row["deficit"])
            derr = float(row["deficit_err"])
            fr = float(row["fraenkel"])
            bad = []
            if row["domain_id"] != f"random-{k:03d}":
                bad.append(f"domain_id {row['domain_id']}")
            if row["verdict"] == "violated":
                bad.append("violated")
            if dval < -derr:
                bad.append(f"deficit {dval} below -deficit_err {-derr}")
            if abs(dval - ref_def) > REFERENCE_TOL:
                bad.append(f"deficit {dval} vs reference {ref_def}")
            if abs(fr - ref_fr) > REFERENCE_TOL:
                bad.append(f"fraenkel {fr} vs reference {ref_fr}")
            if bad:
                failed += 1
                problems.append(f"member {k}: " + "; ".join(bad))
        return Outcome(count, failed, problems, {"members": count})


class WosStar:
    """``isocap cap --solver wos`` on one random-star member."""

    operation = "estimate"

    def __init__(self, name: str, walks: int, why: str):
        self.name = name
        self.walks = walks
        self.why = why

    def keys(self, seed: int) -> list:
        """The WoS seed; every command repeats it."""
        return [seed % REFERENCE_KEYS]

    def prepare(self, key: int, out_dir: Path, size: str, cli) -> dict:
        """Write the member's domain file and solve it with the harmonic
        solver, whose value the WoS estimate is checked against.

        The member is the same for every seed (family seed 0, member 0):
        WoS cost varies by a third between members, which would swamp
        the run-to-run comparison, and the sweeps cover many members.
        """
        from isocap.domains import FamilySpec, generate_family, save_domain

        walks = self.walks if size == "full" else 512
        spec = FamilySpec(variant="random_star", count=1, amplitude=float(AMPLITUDE),
                          seed=0)
        _, _, dom, _ = generate_family(spec)[0]
        path = out_dir / "member.dom"
        save_domain(dom, path)
        rc, text, _ = run_cli(cli, ["cap", "--domain", str(path), "--solver",
                                    "harmonic", "--Lmax", L_MAX])
        if rc != 0:
            raise RuntimeError(f"harmonic reference solve exited with {rc}")
        harmonic = json.loads(text)
        base = ["cap", "--domain", str(path), "--solver", "wos", "--seed", str(key),
                "--threads", THREADS, "--walks"]
        return {"argv": base + [str(walks)],
                "warmup": base + ["64"],
                "walks": walks,
                "harmonic": harmonic}

    def check(self, prep: dict, rc: int, stdout: str) -> Outcome:
        if rc != 0:
            return Outcome(1, 1, [f"exit code {rc}"], {})
        out = json.loads(stdout)
        h = prep["harmonic"]
        value, err = out["capacity_normalized"], out["error_estimate"]
        gap = abs(value - h["capacity_normalized"])
        allowed = 3.0 * err + h["error_estimate"]
        info = {"walks": prep["walks"], "value": value, "error_estimate": err}
        if not (math.isfinite(value) and gap <= allowed):
            return Outcome(1, 1, [f"wos {value} +/- {err} vs harmonic "
                                  f"{h['capacity_normalized']} +/- {h['error_estimate']}"],
                           info)
        return Outcome(1, 0, [], info)


class Truncation:
    """``isocap truncation`` with the default two-ball geometry."""

    operation = "report"

    def __init__(self, name: str, walks: int, why: str):
        self.name = name
        self.walks = walks
        self.why = why

    def keys(self, seed: int) -> list:
        """The experiment's seed; every command repeats it."""
        return [seed % REFERENCE_KEYS]

    def prepare(self, key: int, out_dir: Path, size: str, cli) -> dict:
        walks = self.walks if size == "full" else 2000
        base = ["truncation", "--threads", THREADS, "--out-dir", str(out_dir)]
        # the warm-up drops the far ball, which skips the costly fraenkel_mc;
        # 2000 walks keep its sandwich check clear of small-sample misses
        return {"argv": base + ["--seed", str(key), "--walks", str(walks)],
                "warmup": base + ["--seed", "0", "--walks", "2000",
                                  "--far-fraction", "0"],
                "out_dir": out_dir}

    def check(self, prep: dict, rc: int, stdout: str) -> Outcome:
        if rc != 0:
            return Outcome(1, 1, [f"exit code {rc}"], {})
        with open(prep["out_dir"] / "truncation.json") as fh:
            report = json.load(fh)
        problems = []
        if report["volume_identity"] != "holds":
            problems.append(f"volume_identity {report['volume_identity']}")
        if report["sandwich_verdict"] == "violated":
            problems.append("sandwich violated")
        return Outcome(1, 1 if problems else 0, problems, {})


WORKLOADS = {w.name: w for w in (
    Sweep("sweep-abs", "abs", 8,
          "random stars in absolute mode: alpha's per-ray root finder and its "
          "one-row harmonic_basis calls dominate"),
    Sweep("sweep-rel", "rel", 16,
          "the same family relative to B_2: no barycenter projection, alpha_R "
          "fast path, so Fraenkel's symdiff_volume dominates"),
    WosStar("wos-star", 16384,
            "walk on spheres on one random star: the distance query's batched "
            "harmonic_basis dominates; no Fraenkel, no collocation"),
    Truncation("truncation", 20000,
               "two-ball truncation: the only user of fraenkel_mc and of "
               "counter_uniform at volume; WoS takes the exact-ball path"),
)}
