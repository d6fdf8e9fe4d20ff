"""Experiment engine, CLI exit codes, and golden-file regression."""

import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from isocap.errors import ConfigError
from isocap.domains import (CompositeDomain, FamilySpec, ball, ellipsoid, family_member,
                            generate_family, save_domain)
from isocap.harness import (ExperimentConfig, fit_loglog, run_asym, run_spectrum,
                            run_sweep, run_truncation, scatter_svg, verdict_for)
from isocap.harness import cli, engine
from isocap.harness.cli import main as cli_main
from isocap.harness.engine import _member_record
from isocap.sphere import ball_volume

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens" / "v5"
SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def test_verdict_boundaries():
    assert verdict_for(1.0, 0.1) == "holds"
    assert verdict_for(0.1, 0.1) == "holds-within-error"
    assert verdict_for(0.0, 0.1) == "holds-within-error"
    assert verdict_for(-0.1, 0.1) == "holds-within-error"
    assert verdict_for(-0.1000001, 0.1) == "violated"
    assert verdict_for(-1.0, 0.0) == "violated"
    assert verdict_for(1e-300, 0.0) == "holds"


def test_fit_loglog_recovers_power_law():
    x = np.array([0.01, 0.02, 0.05, 0.1, 0.2])
    y = 3.5 * x**2.25
    slope, intercept, half = fit_loglog(x, y)
    assert slope == pytest.approx(2.25, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.5), abs=1e-12)
    assert half == pytest.approx(0.0, abs=1e-10)


def test_scatter_svg_deterministic_without_timestamp():
    x, y = [1.0, 2.0, 3.0], [2.0, 3.9, 6.1]
    a = scatter_svg(x, y, "t", "x", "y", timestamp=False)
    b = scatter_svg(x, y, "t", "x", "y", timestamp=False)
    assert a == b
    assert a.startswith("<svg")
    assert "generated" not in a
    assert "<circle" in a
    stamped = scatter_svg(x, y, "t", "x", "y", timestamp=True)
    assert "generated" in stamped
    with pytest.raises(ValueError):
        scatter_svg([], [], "t", "x", "y")


def test_run_asym_on_a_composite_is_exact():
    f = 0.05
    comp = CompositeDomain([ball((1 - f) ** (1 / 3)),
                            ball(f ** (1 / 3), center=(10.0, 0.0, 0.0))])
    out = run_asym(comp)
    assert sorted(out) == ["fraenkel", "minimizing_center", "symdiff_origin"]
    assert float(out["fraenkel"]) == pytest.approx(2.0 * f, abs=1e-12)
    # B_1 at the origin holds the near ball and misses the far one
    assert float(out["symdiff_origin"]) == pytest.approx(2.0 * f * ball_volume(), abs=1e-12)


def test_run_asym_panel_keys():
    out = run_asym(ellipsoid(0.2))
    for key in ("fraenkel", "alpha", "symdiff_origin", "annulus_lower_bound"):
        assert key in out
        float(out[key])  # repr'd floats parse back
    assert float(out["fraenkel"]) == pytest.approx(0.4142, abs=1e-3)
    out_rel = run_asym(ellipsoid(0.2), outer_radius=2.0)
    assert "alpha_R" in out_rel


# ---------------------------------------------------------------------------
# engine-level sweep behaviour
# ---------------------------------------------------------------------------


def test_run_sweep_threads_do_not_change_bytes(tmp_path, capsys):
    # --threads is accepted and ignored: the CLI at --threads 3 writes what
    # run_sweep writes
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a_dir.mkdir(), b_dir.mkdir()
    spec_args = dict(variant="random_star", count=3, amplitude=0.1, seed=9)
    from isocap.domains import FamilySpec

    cfg_a = ExperimentConfig(out_dir=str(a_dir), timestamp=False,
                             family=FamilySpec(**spec_args))
    recs_a, summary_a, paths_a = run_sweep(cfg_a)
    assert len(recs_a) == 3
    assert summary_a["count"] == 3
    assert cli_main(["sweep", "--family", "random_star", "--count", "3",
                     "--amplitude", "0.1", "--seed", "9", "--threads", "3",
                     "--no-timestamp", "--out-dir", str(b_dir)]) == 0
    capsys.readouterr()
    for key in ("csv", "json", "svg"):
        name = pathlib.Path(paths_a[key]).name
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_sweep_and_taylor_ladder_start_no_threads(tmp_path, monkeypatch):
    from isocap.domains import FamilySpec
    from isocap.sphere import HarmonicCoeffs
    from isocap.stability import taylor_check

    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    cfg = ExperimentConfig(out_dir=str(tmp_path), timestamp=False,
                           family=FamilySpec("random_star", 3, amplitude=0.1,
                                             seed=9))
    records, _, _ = run_sweep(cfg)
    assert len(records) == 3
    rows = taylor_check(HarmonicCoeffs.single(2, 2, 1.0), (0.02, 0.01))
    assert [r.t for r in rows] == [0.02, 0.01]


def test_run_sweep_header_and_verdicts(tmp_path):
    from isocap.domains import FamilySpec

    cfg = ExperimentConfig(out_dir=str(tmp_path), timestamp=False,
                           family=FamilySpec("random_star", 2,
                                             amplitude=0.1, seed=4))
    _, summary, paths = run_sweep(cfg)
    lines = pathlib.Path(paths["csv"]).read_text().splitlines()
    assert lines[0] == ("domain_id,eps_or_t,volume,deficit,deficit_err,"
                        "fraenkel,alpha,hhalf,ratio,verdict")
    assert len(lines) == 3
    assert summary["failures"] == []
    assert all(line.endswith(("holds", "holds-within-error")) for line in lines[1:])


def test_abs_member_builds_its_projected_domain_once(monkeypatch):
    # the projection's last round builds the member's domain, so an abs
    # member is built once by the family and once per projection round;
    # both go through the builder that the public function wraps
    build = sys.modules["isocap.domains"]._nearly_spherical
    stability = sys.modules["isocap.stability"]
    centering = stability.barycenter
    counts = {"builds": 0, "rounds": 0}

    def counted_build(phi):
        counts["builds"] += 1
        return build(phi)

    def counted_round(dom):
        counts["rounds"] += 1
        return centering(dom)

    for name, module in list(sys.modules.items()):
        if name.startswith("isocap") and getattr(module, "_nearly_spherical", None) is build:
            monkeypatch.setattr(module, "_nearly_spherical", counted_build)
    monkeypatch.setattr(stability, "barycenter", counted_round)
    spec = FamilySpec("random_star", 1, amplitude=0.3, seed=1)
    record = _member_record(ExperimentConfig(family=spec), *family_member(spec, 0))
    assert record.hhalf is not None
    assert counts["rounds"] > 1
    assert counts["builds"] == counts["rounds"] + 1


@pytest.mark.parametrize("outer_radius", [None, 2.0])
def test_member_record_sums_each_domains_volume_once(outer_radius, monkeypatch):
    # the correctly rounded volume sum is worked out once per domain and
    # kept on it, though the record's volume, `fraenkel`'s volume check
    # and its barycenter, and (in abs mode) `alpha`'s barycenter all read
    # it; in abs mode each projection round builds a domain of its own
    domains = sys.modules["isocap.domains"]
    moment = domains._exact_moment
    radii = []  # the radii summed, kept alive so that no id is reused

    def counted(weights, rho, power):
        radii.append(rho)
        return moment(weights, rho, power)

    monkeypatch.setattr(domains, "_exact_moment", counted)
    spec = FamilySpec("random_star", 1, amplitude=0.3, seed=1)
    record = _member_record(ExperimentConfig(outer_radius=outer_radius, family=spec),
                            *family_member(spec, 0))
    assert record.volume == pytest.approx(ball_volume(), abs=1e-12)
    assert len({id(rho) for rho in radii}) == len(radii)
    assert (len(radii) == 1) == (outer_radius is not None)


def test_truncation_runs_no_walk_on_spheres(monkeypatch, tmp_path, capsys):
    # every capacity in the report is a closed form, so --seed and --walks
    # are accepted and change no byte; gate 08 keeps WoS on a ball covered
    capacity = sys.modules["isocap.capacity"]
    wos = capacity.cap_wos
    calls = []

    def counted_wos(dom, cfg=None):
        calls.append(dom)
        return wos(dom, cfg)

    monkeypatch.setattr(capacity, "cap_wos", counted_wos)
    reports = []
    for seed, walks in ((0, 2000), (3, 20000)):
        out = tmp_path / f"seed{seed}"
        assert cli_main(["truncation", "--seed", str(seed), "--walks", str(walks),
                         "--out-dir", str(out)]) == 0
        reports.append((out / "truncation.json").read_bytes())
    capsys.readouterr()
    assert calls == []
    assert reports[0] == reports[1]


@pytest.mark.parametrize("f", [0.0, 0.01, 0.1, 0.3, 0.49])
def test_truncation_sandwich_is_the_kept_balls_exact_capacity(tmp_path, f):
    # the kept part is the ball of volume fraction 1 - f, whose capacity
    # 4 pi (1 - f)^(1/3) is the sandwich's lower bound itself
    report, _ = run_truncation(ExperimentConfig(out_dir=str(tmp_path)),
                               far_volume_fraction=f)
    exact = 4.0 * math.pi * (1.0 - f) ** (1.0 / 3.0)
    assert float(report["sandwich_cap_kept"]) == float(report["sandwich_lower"]) == exact
    assert float(report["sandwich_cap_kept_err"]) == 0.0
    assert report["sandwich_verdict"] == "holds-within-error"


# ---------------------------------------------------------------------------
# golden-file regression through the CLI
#
# On one machine every output file is byte-identical across runs and
# thread counts.  Across machines the columns below go through BLAS/LAPACK
# kernels (synthesis, the collocation normal equations, np.linalg.solve,
# the Newton volume loop) whose summation order depends on the build and
# the CPU, so they are compared against the goldens by the per-column bound
# in GOLDEN_TOLERANCES.  Headers, ids, verdicts, inputs, the JSON
# structure and keys, the SVG, and every column not in the table stay
# exact.
# ---------------------------------------------------------------------------

CAPACITY_ABS = 1e-12  # absolute, on a capacity difference
FIT_REL = 1e-9  # relative, on quantities built from several rows
GEOMETRY_REL = 1e-13  # relative, on volumes and asymmetries


def _absolute(bound):
    return lambda want, row: bound


def _relative(bound):
    return lambda want, row: bound * abs(want)


# column or JSON key -> (bound on |got - want| from the golden value and
# its row, reason); measured drifts between two stacks are in CHANGES.md
GOLDEN_TOLERANCES = {
    "deficit": (_absolute(CAPACITY_ABS),
                "capacity minus 4pi or 8pi: the solve drifts <= 19 ulp of the capacity"),
    "deficit_err": (_absolute(CAPACITY_ABS),
                    "a rounding-level residual of the same solve"),
    "min_deficit": (_absolute(CAPACITY_ABS), "the smallest row deficit"),
    "remainder_ratio": (lambda want, row: CAPACITY_ABS / float(row["t"]) ** 2,
                        "(deficit - form_half) / t^2: the deficit bound over t^2"),
    "ratio": (lambda want, row: CAPACITY_ABS * abs(want / float(row["deficit"])),
              "deficit / denominator: the deficit bound over deficit / ratio"),
    "min_ratio": (_relative(FIT_REL), "the smallest row ratio, with no row to divide by"),
    "min_fuglede_ratio": (_relative(FIT_REL), "the smallest row deficit / hhalf"),
    "slope": (_relative(FIT_REL), "log-log least-squares slope of the deficits"),
    "slope_halfwidth": (_relative(FIT_REL), "95% halfwidth of the same fit"),
    "volume": (_relative(GEOMETRY_REL),
               "exact sum over radii from synthesis and the Newton volume loop"),
    "fraenkel": (_relative(GEOMETRY_REL), "symmetric difference over synthesised radii"),
    "alpha": (_relative(GEOMETRY_REL), "ray crossings of the synthesised boundary"),
    "eps_or_t": (_relative(GEOMETRY_REL), "a random star's max |phi| over synthesised values"),
    "hhalf": (_relative(GEOMETRY_REL),
              "norm of phi scaled by a synthesised sup norm, projected over synthesised radii"),
}


def _value_mismatches(where, key, got, want, row):
    """Why string `got` does not match golden `want` in column `key`, if it does not."""
    if got == want:
        return []
    rule = GOLDEN_TOLERANCES.get(key)
    if rule is None:
        return [f"{where}: {key} {got!r} != {want!r} (compared exactly)"]
    try:
        g, w = float(got), float(want)
        bound = rule[0](w, row)
    except ValueError:
        return [f"{where}: {key} {got!r} vs {want!r} cannot be held to its bound"]
    if not abs(g - w) <= bound:  # NaN anywhere fails
        return [f"{where}: {key} {got!r} vs {want!r} exceeds bound {bound:.3g}"]
    return []


def _csv_mismatches(name, got, want):
    got_lines, want_lines = got.split("\n"), want.split("\n")
    if got_lines[0] != want_lines[0]:
        return [f"{name}: header {got_lines[0]!r} != {want_lines[0]!r}"]
    if len(got_lines) != len(want_lines):
        return [f"{name}: {len(got_lines)} lines, golden has {len(want_lines)}"]
    columns = want_lines[0].split(",")
    out = []
    for k, (g_line, w_line) in enumerate(zip(got_lines[1:], want_lines[1:]), 1):
        g_cells, w_cells = g_line.split(","), w_line.split(",")
        if len(g_cells) != len(w_cells):
            out.append(f"{name}:{k + 1}: {len(g_cells)} cells, golden has {len(w_cells)}")
            continue
        row = dict(zip(columns, w_cells))
        for key, g, w in zip(columns, g_cells, w_cells):
            out += _value_mismatches(f"{name}:{k + 1}", key, g, w, row)
    return out


def _json_mismatches(where, got, want, key=None, row=None):
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                    f" != {sorted(want)}"]
        out = []
        for k in want:
            out += _json_mismatches(f"{where}.{k}", got[k], want[k], k, want)
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: not a list of the golden's {len(want)} entries"]
        out = []
        for k, (g, w) in enumerate(zip(got, want)):
            out += _json_mismatches(f"{where}[{k}]", g, w, key, row)
        return out
    if isinstance(want, str) and isinstance(got, str):
        return _value_mismatches(where, key, got, want, row)
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r} != {want!r} (compared exactly)"]
    return []


def golden_mismatches(name: str, got: bytes, want: bytes) -> list:
    """Every way output file `name` departs from its golden; empty if it matches.

    CSV files are compared cell by cell and JSON files key by key, with the
    columns in GOLDEN_TOLERANCES held to their bounds and everything else
    exact; a JSON file must also keep the writer's canonical layout.  Any
    other file is compared byte for byte.
    """
    if name.endswith(".csv"):
        return _csv_mismatches(name, got.decode(), want.decode())
    if name.endswith(".json"):
        text = got.decode()
        parsed = json.loads(text)
        out = _json_mismatches(name, parsed, json.loads(want.decode()))
        if text != json.dumps(parsed, indent=1, sort_keys=True) + "\n":
            out.append(f"{name}: layout differs from the canonical JSON writer")
        return out
    return [] if got == want else [f"{name}: bytes differ (compared exactly)"]


GOLDEN_CASES = [
    pytest.param(["spectrum", "--basename", "spectrum"],
                 ["spectrum.csv", "spectrum.json"], id="spectrum"),
    pytest.param(["fuglede", "--degree", "2", "--order", "0",
                  "--ladder", "0.02,0.01,0.005",
                  "--basename", "fuglede_y20_abs"],
                 ["fuglede_y20_abs.csv", "fuglede_y20_abs.json"],
                 id="fuglede-abs"),
    pytest.param(["fuglede", "--degree", "1", "--order", "0",
                  "--mode", "rel", "--R", "2",
                  "--ladder", "0.02,0.01,0.005",
                  "--basename", "fuglede_y10_rel"],
                 ["fuglede_y10_rel.csv", "fuglede_y10_rel.json"],
                 id="fuglede-rel"),
    pytest.param(["profile", "--basename", "profile"],
                 ["profile.csv", "profile.json"], id="profile"),
    pytest.param(["sweep", "--family", "random_star", "--count", "4",
                  "--amplitude", "0.12", "--seed", "5", "--no-timestamp",
                  "--basename", "sweep_random"],
                 ["sweep_random.csv", "sweep_random.json", "sweep_random.svg"],
                 id="sweep-random"),
    pytest.param(["truncation", "--walks", "20000", "--seed", "3",
                  "--basename", "truncation"],
                 ["truncation.json"], id="truncation"),
]


def _tolerated_keys(name):
    """Columns or JSON keys of golden file `name` held to a bound, not bytes."""
    text = (GOLDEN_DIR / name).read_text()
    if name.endswith(".csv"):
        keys = text.split("\n", 1)[0].split(",")
    elif name.endswith(".json"):
        keys = re.findall(r'^ *"([^"]+)":', text, re.M)
    else:
        keys = []
    return GOLDEN_TOLERANCES.keys() & set(keys)


@pytest.mark.parametrize("args,files", GOLDEN_CASES)
def test_golden_regression(tmp_path, capsys, args, files):
    code = cli_main(args + ["--out-dir", str(tmp_path / "a")])
    capsys.readouterr()
    assert code == 0
    for name in files:
        got = (tmp_path / "a" / name).read_bytes()
        want = (GOLDEN_DIR / name).read_bytes()
        assert golden_mismatches(name, got, want) == [], \
            f"{name} drifted from goldens/{GOLDEN_DIR.name}"
    if any(_tolerated_keys(name) for name in files):
        # the golden no longer pins these bytes, so pin them across
        # thread counts here
        code = cli_main(args + ["--threads", "2", "--out-dir", str(tmp_path / "b")])
        capsys.readouterr()
        assert code == 0
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), f"{name} depends on --threads"


def _mutated(name, edit):
    """Golden file `name` as text, changed by edit(lines or payload)."""
    text = (GOLDEN_DIR / name).read_text()
    if name.endswith(".csv"):
        lines = text.split("\n")
        edit(lines)
        return "\n".join(lines).encode()
    payload = json.loads(text)
    edit(payload)
    return (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode()


def _shifted(cell, shift, rel):
    return repr(float(cell) * (1.0 + rel) + shift)


def _set_cell(column, shift=0.0, value=None, line=2, rel=0.0):
    def edit(lines):
        columns = lines[0].split(",")
        cells = lines[line].split(",")
        k = columns.index(column)
        cells[k] = value if value is not None else _shifted(cells[k], shift, rel)
        lines[line] = ",".join(cells)
    return edit


def _set_json(column, shift=0.0, value=None, row=1, rel=0.0):
    def edit(payload):
        cells = payload["rows"][row]
        cells[column] = value if value is not None else _shifted(cells[column], shift, rel)
    return edit


# Every cell in which goldens/v2 departs from goldens/v1, as (file, line,
# v1 text, v2 text).  Each moved because the value got more accurate, not
# to absorb drift; CHANGES.md gives the reason and the size of each move.
GOLDEN_V2_MOVES = [
    ("sweep_random.csv", 4, "0.0010074967711746563", "0.0010074967711749408"),
    ("sweep_random.json", 40, '"alpha": "0.0010074967711746563"',
     '"alpha": "0.0010074967711749408"'),
]


def test_goldens_v2_depart_from_v1_only_in_recorded_cells():
    v1, v2 = GOLDEN_DIR.parent / "v1", GOLDEN_DIR.parent / "v2"
    assert sorted(p.name for p in v1.iterdir()) == sorted(p.name for p in v2.iterdir())
    moves = {(name, line): (old, new) for name, line, old, new in GOLDEN_V2_MOVES}
    seen = set()
    for path in sorted(v1.iterdir()):
        old_lines = path.read_text().split("\n")
        new_lines = (v2 / path.name).read_text().split("\n")
        assert len(old_lines) == len(new_lines), path.name
        for k, (was, now) in enumerate(zip(old_lines, new_lines), 1):
            if (path.name, k) in moves:
                old, new = moves[path.name, k]
                assert was.count(old) == 1 and was.replace(old, new) == now, (path.name, k)
                seen.add((path.name, k))
            else:
                assert was == now, f"{path.name}:{k} differs from v1 with no recorded move"
    assert seen == moves.keys()


# Every line in which goldens/v3 departs from goldens/v2, as (file, v2 line,
# v3 line or None where the line was dropped).  The truncation experiment's
# asymmetry is now the exact minimum over ball centers, not a Monte Carlo
# estimate, so it has no standard error; CHANGES.md gives the size of each
# move.
GOLDEN_V3_MOVES = [
    ("truncation.json", ' "asymmetry_drop_c": "0.008394965954525898",',
     ' "asymmetry_drop_c": "0.00869944658500085",'),
    ("truncation.json", ' "asymmetry_full": "0.0193",',
     ' "asymmetry_full": "0.019999999999999817",'),
    ("truncation.json", ' "asymmetry_full_err": "0.0003035376418172876",', None),
]


def _departs_only_in(before, after, moves):
    """Assert golden set `after` is `before` with each (file, old line, new
    line or None) of `moves` applied, and nothing else changed."""
    assert sorted(p.name for p in before.iterdir()) == sorted(p.name for p in after.iterdir())
    for path in sorted(before.iterdir()):
        want = path.read_text().split("\n")
        for name, old, new in moves:
            if name == path.name:
                assert want.count(old) == 1, (name, old)
                k = want.index(old)
                want[k:k + 1] = [] if new is None else [new]
        assert (after / path.name).read_text().split("\n") == want, path.name


def test_goldens_v3_depart_from_v2_only_in_recorded_cells():
    _departs_only_in(GOLDEN_DIR.parent / "v2", GOLDEN_DIR.parent / "v3", GOLDEN_V3_MOVES)


def test_golden_v3_truncation_asymmetry_moved_toward_the_closed_form():
    # no unit ball meets both components of the default truncation
    # composite, and the one centred on the near ball misses only the far
    # ball and the near ball's missing shell: the asymmetry is exactly 2f
    f = 0.01
    v2, v3 = (json.loads((GOLDEN_DIR.parent / v / "truncation.json").read_text())
              for v in ("v2", "v3"))
    assert float(v3["far_volume_fraction"]) == f
    exact = 2.0 * f
    assert abs(float(v3["asymmetry_full"]) - exact) <= 1e-12
    assert abs(float(v2["asymmetry_full"]) - exact) > 1e-4
    # the drop constant moved by the same numerator change over the same deficit
    drop = (float(v3["asymmetry_full"]) - float(v3["asymmetry_truncated"])) \
        / float(v3["deficit_full"])
    assert float(v3["asymmetry_drop_c"]) == drop


# Every line in which goldens/v4 departs from goldens/v3, in the same form.
# The truncation experiment's full capacity is now the two balls' Kelvin
# image series, exact to rounding, not a walk-on-spheres estimate; the
# full deficit and the asymmetry drop over it move with it.  CHANGES.md
# gives the size of each move.
GOLDEN_V4_MOVES = [
    ("truncation.json", ' "asymmetry_drop_c": "0.00869944658500085",',
     ' "asymmetry_drop_c": "0.009270714032185011",'),
    ("truncation.json", ' "cap_full": "14.865367430373057",',
     ' "cap_full": "14.723701746628606",'),
    ("truncation.json", ' "cap_full_err": "0.6792609554468297",',
     ' "cap_full_err": "6.564272957846539e-15",'),
    ("truncation.json", ' "deficit_full": "2.2989968160138847",',
     ' "deficit_full": "2.1573311322694337",'),
]


def test_goldens_v4_depart_from_v3_only_in_recorded_cells():
    _departs_only_in(GOLDEN_DIR.parent / "v3", GOLDEN_DIR.parent / "v4", GOLDEN_V4_MOVES)


def test_golden_v4_truncation_capacity_moved_to_the_bispherical_sum(bispherical_cap):
    # the default truncation composite: a ball of volume fraction 1 - f at
    # the origin and one of fraction f at distance 10
    v3, v4 = (json.loads((GOLDEN_DIR.parent / v / "truncation.json").read_text())
              for v in ("v3", "v4"))
    f, d = float(v4["far_volume_fraction"]), float(v4["far_distance"])
    exact = bispherical_cap((1.0 - f) ** (1.0 / 3.0), f ** (1.0 / 3.0), d)
    assert abs(float(v4["cap_full"]) - exact) <= 1e-14 * exact
    assert abs(float(v4["cap_full"]) - exact) <= float(v4["cap_full_err"])
    assert abs(float(v3["cap_full"]) - exact) > 0.1
    # the deficit and the drop constant moved with it
    assert float(v4["deficit_full"]) == float(v4["cap_full"]) - 4.0 * math.pi
    drop = (float(v4["asymmetry_full"]) - float(v4["asymmetry_truncated"])) \
        / float(v4["deficit_full"])
    assert float(v4["asymmetry_drop_c"]) == drop


# Every line in which goldens/v5 departs from goldens/v4, in the same form.
# The truncation report's sandwich takes the kept ball's capacity from its
# closed form, not from walk on spheres, so it has no error bar.
GOLDEN_V5_MOVES = [
    ("truncation.json", ' "sandwich_cap_kept": "12.371545328937966",',
     ' "sandwich_cap_kept": "12.524342305059694",'),
    ("truncation.json", ' "sandwich_cap_kept_err": "0.15399950924483827",',
     ' "sandwich_cap_kept_err": "0.0",'),
]


def test_goldens_v5_depart_from_v4_only_in_recorded_cells():
    _departs_only_in(GOLDEN_DIR.parent / "v4", GOLDEN_DIR.parent / "v5", GOLDEN_V5_MOVES)


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_DIR.iterdir()))
def test_golden_comparator_accepts_goldens(name):
    want = (GOLDEN_DIR / name).read_bytes()
    assert golden_mismatches(name, want, want) == []


@pytest.mark.parametrize("name,edit", [
    ("sweep_random.csv", _set_cell("deficit", shift=1e-13)),
    ("sweep_random.json", _set_json("deficit", shift=1e-13)),
    ("sweep_random.csv", _set_cell("volume", shift=4e-15)),
    ("fuglede_y20_abs.csv", _set_cell("remainder_ratio", shift=1e-9, line=3)),
    ("fuglede_y10_rel.json", _set_json("remainder_ratio", shift=1e-9)),
    pytest.param("sweep_random.csv", _set_cell("eps_or_t", rel=1e-15), id="sweep-eps-csv"),
    pytest.param("sweep_random.json", _set_json("eps_or_t", rel=1e-15), id="sweep-eps-json"),
    pytest.param("sweep_random.csv", _set_cell("hhalf", rel=1e-15), id="sweep-hhalf-csv"),
    pytest.param("sweep_random.json", _set_json("hhalf", rel=1e-15), id="sweep-hhalf-json"),
])
def test_golden_comparator_accepts_drift_below_bound(name, edit):
    got = _mutated(name, edit)
    assert got != (GOLDEN_DIR / name).read_bytes()
    assert golden_mismatches(name, got, (GOLDEN_DIR / name).read_bytes()) == []


def _drop_key(payload):
    del payload["rows"][0]["deficit_err"]


def _drop_summary_key(payload):
    del payload["summary"]["slope"]


@pytest.mark.parametrize("name,edit", [
    ("sweep_random.csv", _set_cell("deficit", shift=1e-10)),
    ("sweep_random.json", _set_json("deficit", shift=1e-10)),
    ("fuglede_y20_abs.csv", _set_cell("remainder_ratio", shift=1e-6)),
    ("fuglede_y10_rel.json", _set_json("remainder_ratio", shift=1e-6)),
    ("sweep_random.csv", _set_cell("verdict", value="violated")),
    ("sweep_random.json", _set_json("verdict", value="holds-within-error")),
    ("sweep_random.csv", lambda lines: lines.__setitem__(
        0, lines[0].replace("deficit_err", "deficit_bar"))),
    ("fuglede_y20_abs.json", lambda p: p["columns"].__setitem__(0, "tau")),
    ("sweep_random.csv", lambda lines: lines.pop(2)),
    ("sweep_random.json", lambda p: p["rows"].pop(2)),
    ("sweep_random.json", _drop_key),
    ("sweep_random.json", _drop_summary_key),
    ("truncation.json", lambda p: p.update(
        volume_truncated=repr(float(p["volume_truncated"]) + 1e-15))),
    ("profile.csv", _set_cell("value", shift=1e-13)),
    ("sweep_random.csv", _set_cell("eps_or_t", rel=1e-11)),
    ("sweep_random.json", _set_json("eps_or_t", rel=1e-11)),
    ("sweep_random.csv", _set_cell("hhalf", rel=1e-11)),
    ("sweep_random.json", _set_json("hhalf", rel=1e-11)),
], ids=["sweep-deficit-csv", "sweep-deficit-json", "fuglede-remainder-csv",
        "fuglede-remainder-json", "verdict-csv", "verdict-json", "header-csv",
        "columns-json", "row-csv", "row-json", "row-key-json", "summary-key-json",
        "exact-key-json", "exact-column-csv", "sweep-eps-csv", "sweep-eps-json",
        "sweep-hhalf-csv", "sweep-hhalf-json"])
def test_golden_comparator_rejects(name, edit):
    got = _mutated(name, edit)
    assert golden_mismatches(name, got, (GOLDEN_DIR / name).read_bytes()) != []


# ---------------------------------------------------------------------------
# CLI exit codes and error reporting
# ---------------------------------------------------------------------------


def test_cli_cap_ball_json(capsys):
    assert cli_main(["cap", "--ball", "1.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert float(payload["capacity_normalized"]) == pytest.approx(
        4.0 * math.pi, rel=1e-12)
    assert abs(float(payload["deficit"])) < 1e-9
    assert payload["mode"] == "abs"


def test_cli_config_error_is_machine_readable(capsys):
    assert cli_main(["cap", "--ball", "-1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2
    assert err["error"] in ("config", "geometry")
    assert err["message"]


def test_cli_solver_error_exit_code(capsys):
    # the walk-on-spheres solver has no relative mode
    code = cli_main(["cap", "--ball", "1", "--solver", "wos",
                     "--walks", "1000", "--mode", "rel", "--R", "2"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 3


def test_cli_missing_config_file(capsys):
    assert cli_main(["sweep", "--config", "/nonexistent/run.ini"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2


def test_cli_empty_family(tmp_path, capsys):
    code = cli_main(["sweep", "--family", "random_star", "--count", "0",
                     "--out-dir", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2


def test_cli_sweep_records_members_that_fail_to_build(tmp_path, capsys):
    # near the amplitude cap, the volume correction pushes members 0 and 2
    # past the sup-norm bound; the others still build and solve
    code = cli_main(["sweep", "--family", "random_star", "--amplitude", "0.49",
                     "--max-degree", "4", "--count", "6", "--seed", "1",
                     "--out-dir", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "sweep.json").read_text())
    assert [r["domain_id"] for r in payload["rows"]] == [
        "random-001", "random-003", "random-004", "random-005"]
    assert {r["verdict"] for r in payload["rows"]} == {"holds-within-error"}
    failures = payload["summary"]["failures"]
    assert [f["domain_id"] for f in failures] == ["random-000", "random-002"]
    assert all("sup-norm bound" in f["error"] for f in failures)


def test_cli_refuses_an_unknown_mode_in_a_config_file(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[common]\nmode = weird\n")
    assert cli_main(["cap", "--ball", "1.0", "--config", str(ini)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2
    assert "weird" in err["message"]


@pytest.mark.parametrize("command", [
    ["cap", "--ball", "1.0", "--mode", "rel", "--R", "1"],
    ["profile", "--R", "1"],
    ["fuglede", "--mode", "rel", "--R", "1"],
    ["spectrum", "--R", "1"],
])
def test_cli_refuses_an_outer_radius_of_one(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    assert cli_main(command) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2
    assert "the outer radius must exceed 1" in err["message"]
    assert not any(tmp_path.iterdir())


# Malformed input for every subcommand, with the exit code and a piece of
# the message of the one refusal it must meet.  A value is refused once,
# by the library object that takes it; nothing may escape as a traceback
# (exit 1) or run to exit 0 on a NaN.  {center} names a domain file whose
# center is not finite.  Each case builds at most one family member and
# walks at most one walk.
_MALFORMED = [
    # cap
    (["cap", "--ball", "1", "--Lmax", "-1"], 2, "l_max"),
    (["cap", "--ball", "1", "--mode", "rel", "--Lmax", "-1"], 2, "l_max"),
    (["cap", "--ball", "1", "--Lmax", "nan"], 2, "invalid int"),
    (["cap", "--ball", "nan"], 2, "finite"),
    (["cap", "--ball", "inf"], 2, "finite"),
    (["cap", "--ball", "-1"], 2, "positive"),
    (["cap", "--ellipsoid", "nan"], 2, "eps"),
    (["cap", "--ellipsoid", "inf"], 2, "eps"),
    (["cap", "--ellipsoid", "-0.1"], 2, "eps"),
    (["cap", "--ball", "1", "--R", "nan"], 2, "outer radius"),
    (["cap", "--ball", "1", "--mode", "rel", "--R", "inf"], 2, "outer radius"),
    (["cap", "--ball", "1", "--mode", "rel", "--R", "-2"], 2, "outer radius"),
    (["cap", "--ball", "1", "--solver", "wos", "--seed", "-1"], 2, "seed"),
    (["cap", "--ball", "1", "--solver", "wos", "--walks", "-5"], 2, "walk count"),
    (["cap", "--ball", "1", "--solver", "wos", "--walks", "1", "--seed", "0"], 3, "zero hits"),
    (["cap", "--ball", "1", "--threads", "-1"], 2, "threads"),
    (["cap", "--domain", "{center}", "--solver", "closed"], 2, "finite"),
    (["cap", "--domain", "{center}", "--solver", "harmonic"], 2, "finite"),
    (["cap", "--domain", "{center}", "--solver", "wos", "--walks", "10"], 2, "finite"),
    # asym
    (["asym", "--domain", "{center}"], 2, "finite"),
    (["asym", "--ball", "nan"], 2, "finite"),
    (["asym", "--ellipsoid", "inf"], 2, "eps"),
    (["asym", "--ball", "1", "--mode", "rel", "--R", "nan"], 2, "outer radius"),
    (["asym", "--ball", "1", "--threads", "0"], 2, "threads"),
    # sweep
    (["sweep", "--count", "1", "--Lmax", "-1"], 2, "l_max"),
    (["sweep", "--count", "1", "--max-degree", "0"], 2, "max_degree"),
    (["sweep", "--count", "1", "--max-degree", "-1"], 2, "max_degree"),
    (["sweep", "--count", "1", "--amplitude", "nan"], 2, "amplitude"),
    (["sweep", "--count", "1", "--amplitude", "inf"], 2, "amplitude"),
    (["sweep", "--count", "1", "--amplitude", "2"], 3, "every family member failed"),
    (["sweep", "--count", "-1"], 2, "count"),
    (["sweep", "--count", "1", "--seed", "-1"], 2, "seed"),
    (["sweep", "--count", "1", "--mode", "rel", "--R", "inf"], 2, "outer radius"),
    (["sweep", "--family", "ellipsoid", "--count", "1", "--eps-min", "nan"], 2, "eps_min"),
    (["sweep", "--family", "ellipsoid", "--count", "1", "--eps-min", "-0.1"], 2, "eps_min"),
    (["sweep", "--family", "ellipsoid", "--count", "1", "--eps-max", "inf"], 2, "eps_max"),
    (["sweep", "--family", "ellipsoid", "--count", "1", "--eps-max", "-0.1"], 2, "eps_max"),
    (["sweep", "--family", "harmonic_perturbation", "--count", "1", "--degree", "-1"], 2,
     "order"),
    (["sweep", "--family", "harmonic_perturbation", "--count", "1", "--order", "-5"], 2,
     "order"),
    (["sweep", "--family", "harmonic_perturbation", "--count", "1", "--amplitude", "nan"], 2,
     "amplitude"),
    # fuglede
    (["fuglede", "--Lmax", "-1"], 2, "l_max"),
    (["fuglede", "--ladder", "nan"], 2, "ladder"),
    (["fuglede", "--ladder", "0.02,inf"], 2, "ladder"),
    (["fuglede", "--ladder", "-0.01"], 2, "ladder"),
    (["fuglede", "--degree", "0"], 2, "degree >= 1"),
    (["fuglede", "--degree", "-1"], 2, "degree >= 1"),
    (["fuglede", "--order", "-9"], 2, "order"),
    (["fuglede", "--mode", "rel", "--R", "nan"], 2, "outer radius"),
    # truncation
    (["truncation", "--far-fraction", "nan"], 2, "far volume fraction"),
    (["truncation", "--far-fraction", "inf"], 2, "far volume fraction"),
    (["truncation", "--far-fraction", "-0.1"], 2, "far volume fraction"),
    (["truncation", "--far-fraction", "0.7"], 2, "far volume fraction"),
    (["truncation", "--far-distance", "nan"], 2, "finite"),
    (["truncation", "--far-distance", "inf"], 2, "finite"),
    (["truncation", "--far-distance", "-10"], 2, "beyond the cut sphere"),
    (["truncation", "--far-distance", "2"], 2, "beyond the cut sphere"),
    (["truncation", "--cut-radius", "nan"], 2, "cut radius"),
    (["truncation", "--cut-radius", "inf"], 2, "cut radius"),
    (["truncation", "--cut-radius", "-1"], 2, "cut radius"),
    (["truncation", "--seed", "-1"], 2, "seed"),
    (["truncation", "--walks", "0"], 2, "walk count"),
    # spectrum
    (["spectrum", "--Lmax", "-1"], 2, "at least 0"),
    (["spectrum", "--R", "nan"], 2, "outer radius"),
    (["spectrum", "--R", "inf"], 2, "outer radius"),
    (["spectrum", "--R", "-1"], 2, "outer radius"),
    # profile
    (["profile", "--points", "-5"], 2, "4 points"),
    (["profile", "--points", "2"], 2, "4 points"),
    (["profile", "--points", "3"], 2, "4 points"),
    (["profile", "--points", "nan"], 2, "invalid int"),
    (["profile", "--eta", "nan"], 2, "eta"),
    (["profile", "--eta", "inf"], 2, "eta"),
    (["profile", "--eta", "-0.01"], 2, "eta"),
    (["profile", "--r-lo", "nan"], 2, "straddle"),
    (["profile", "--r-lo", "-0.2"], 2, "straddle"),
    (["profile", "--r-hi", "inf"], 2, "straddle"),
    (["profile", "--r-hi", "2.5"], 2, "between 0 and R"),
    (["profile", "--R", "inf"], 2, "outer radius"),
    # cases added later go last, so that every id above keeps its number
    (["cap", "--ball", "1", "--solver", "closed", "--Lmax", "-1"], 2, "l_max"),
    (["cap", "--ball", "1", "--solver", "wos", "--Lmax", "-1"], 2, "l_max"),
    (["truncation", "--cut-radius", "0"], 2, "cut radius"),
]


@pytest.mark.parametrize("argv, code, fragment", _MALFORMED,
                         ids=[f"{a[0]}{k}" for k, (a, _, _) in enumerate(_MALFORMED)])
def test_cli_exit_code_contract(argv, code, fragment, tmp_path, monkeypatch, capsys):
    # main returns 2 or 3, raises nothing, writes no file, and reports one
    # JSON error line on stderr
    domain = tmp_path / "center.dom"
    save_domain(ball(1.0), domain)
    lines = domain.read_text().splitlines()
    domain.write_text("\n".join("center nan 0.0 0.0" if ln.startswith("center") else ln
                                for ln in lines) + "\n")
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    assert cli_main([a.format(center=domain) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    report = json.loads(err[0])
    assert report["exit_code"] == code
    assert report["error"] == {2: "config", 3: "solver"}[code]
    assert fragment in report["message"]
    assert not any(out.iterdir())


def test_cli_refuses_a_center_of_inf_as_of_nan(tmp_path, capsys):
    path = tmp_path / "center.dom"
    save_domain(ball(1.0), path)
    path.write_text(path.read_text().replace("center 0.0 0.0 0.0", "center inf 0.0 0.0"))
    for argv in (["cap", "--solver", "wos", "--walks", "10"], ["asym"]):
        assert cli_main([*argv, "--domain", str(path)]) == 2
        assert "3 finite numbers" in json.loads(capsys.readouterr().err)["message"]


def test_cli_exits_4_on_a_violated_sweep_member_or_sandwich(tmp_path, monkeypatch, capsys):
    # no correct solve violates either inequality, so the solves are
    # replaced: a negative deficit for the sweep member, and a kept-part
    # capacity below the sandwich's lower bound for the truncation run
    monkeypatch.chdir(tmp_path)
    real_deficit, real_capacity = engine.deficit, engine.capacity

    def negative(*args, **kwargs):
        d = real_deficit(*args, **kwargs)
        return dataclasses.replace(d, value=-1.0, error_estimate=0.0)

    monkeypatch.setattr(engine, "deficit", negative)
    assert cli_main(["sweep", "--count", "1", "--amplitude", "0.12", "--max-degree", "2",
                     "--Lmax", "4", "--basename", "violated"]) == 4
    assert "1 member(s) violated" in capsys.readouterr().err
    rows = (tmp_path / "violated.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].endswith(",violated")

    def halved(*args, **kwargs):
        res = real_capacity(*args, **kwargs)
        return dataclasses.replace(res, value=0.5 * res.value)

    monkeypatch.setattr(engine, "capacity", halved)
    assert cli_main(["truncation", "--basename", "violated"]) == 4
    report = json.loads((tmp_path / "violated.json").read_text())
    assert report["sandwich_verdict"] == "violated"
    assert "sandwich violated" in capsys.readouterr().out


def test_engine_refuses_a_slope_of_two_points_and_a_sweep_without_a_family():
    with pytest.raises(ConfigError, match="at least 3 points"):
        fit_loglog([0.1, 0.2], [1.0, 2.0])
    with pytest.raises(ConfigError, match="needs a family"):
        run_sweep(ExperimentConfig())


def test_cli_malformed_domain_file(tmp_path, capsys):
    bad = tmp_path / "bad.dom"
    bad.write_text("not a domain\n")
    assert cli_main(["cap", "--domain", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("dim,entries", [(2, 2), (5, 5), (3, 2)])
def test_cli_refuses_a_domain_file_outside_three_dimensions(tmp_path, capsys, dim, entries):
    path = tmp_path / "ball.dom"
    save_domain(ball(1.0), path)
    text = path.read_text().replace("dimension 3", f"dimension {dim}")
    text = re.sub(r"center .*", "center " + " ".join(["0.0"] * entries), text)
    path.write_text(text)
    assert cli_main(["cap", "--domain", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2
    assert "'dimension 3'" in err["message"]


def test_cli_asym_on_an_off_center_star(tmp_path, capsys):
    # a random star as generated, not projected: its barycenter sits 0.19
    # from its center, where the coefficient bounds alone cannot certify
    # alpha's ray crossings and the sampled ones can
    dom = generate_family(FamilySpec("random_star", 1, amplitude=0.3, seed=1,
                                     max_degree=16))[0][2]
    path = tmp_path / "star.dom"
    save_domain(dom, path)
    assert cli_main(["asym", "--domain", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert float(payload["alpha"]) > 0.0


def test_cli_config_layering_and_override(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[common]\n"
        "seed = 5\n"
        "threads = 1\n"
        "no-timestamp = true\n"
        "[sweep]\n"
        "family = random_star\n"
        "count = 2\n"
        "amplitude = 0.1\n")
    flags_dir, cfg_dir, over_dir = (tmp_path / n for n in ("a", "b", "c"))
    assert cli_main(["sweep", "--family", "random_star", "--count", "2",
                     "--amplitude", "0.1", "--seed", "5", "--no-timestamp",
                     "--out-dir", str(flags_dir)]) == 0
    assert cli_main(["sweep", "--config", str(ini),
                     "--out-dir", str(cfg_dir)]) == 0
    assert cli_main(["sweep", "--config", str(ini), "--seed", "6",
                     "--out-dir", str(over_dir)]) == 0
    capsys.readouterr()
    flags = (flags_dir / "sweep.csv").read_bytes()
    from_cfg = (cfg_dir / "sweep.csv").read_bytes()
    overridden = (over_dir / "sweep.csv").read_bytes()
    assert flags == from_cfg
    assert overridden != flags


def _cap_json(capsys, argv):
    assert cli_main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_cli_config_keys_keep_their_case(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[common]\nmode = rel\nR = 3\n")
    payload = _cap_json(capsys, ["cap", "--ball", "1", "--config", str(ini)])
    assert payload["outer_radius"] == 3.0
    ini.write_text("[cap]\nLmax = 4\n")
    from_file = _cap_json(capsys, ["cap", "--ellipsoid", "0.1", "--config", str(ini)])
    from_flag = _cap_json(capsys, ["cap", "--ellipsoid", "0.1", "--Lmax", "4"])
    default = _cap_json(capsys, ["cap", "--ellipsoid", "0.1"])
    assert from_file == from_flag
    assert from_file["capacity_normalized"] != default["capacity_normalized"]


@pytest.mark.parametrize("text,argv", [
    ("[cap]\nsolver = foo\n", ["cap", "--ball", "1"]),
    ("[common]\nno-such-option = 1\n", ["cap", "--ball", "1"]),
    ("[common]\nlmax = 4\n", ["cap", "--ball", "1"]),
    # on sweep, which takes --no-timestamp: cap would skip the key
    ("[common]\nno-timestamp = maybe\n", ["sweep", "--count", "2"]),
    ("", ["cap", "--ball", "1", "--solver", "nope"]),
    ("", ["cap", "--ball", "1", "--ellipsoid", "0.1"]),
], ids=["file-choice", "file-unknown-key", "file-key-case", "file-boolean",
        "flag-choice", "flag-exclusive"])
def test_cli_refusals_are_json(tmp_path, monkeypatch, capsys, text, argv):
    monkeypatch.chdir(tmp_path)
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    assert cli_main(argv + ["--config", str(ini)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2
    assert err["error"] == "config"


@pytest.mark.parametrize("argv", [
    ["cap", "--ball", "1", "--solver", "wos", "--seed", "-1"],
    ["cap", "--ball", "1", "--solver", "wos", "--seed", str(2**64)],
    ["truncation", "--seed", "-1"],
    ["sweep", "--seed", "-1", "--count", "2"],
    ["cap", "--ball", "1", "--solver", "wos", "--walks", "0"],
    ["cap", "--ball", "1", "--solver", "wos", "--walks", "-5"],
    ["truncation", "--walks", "0"],
], ids=["cap-seed-negative", "cap-seed-too-large", "truncation-seed-negative",
        "sweep-seed-negative", "cap-no-walks", "cap-negative-walks", "truncation-no-walks"])
def test_cli_refuses_bad_seed_and_walks(tmp_path, capsys, argv):
    # cap writes to stdout only, and takes no --out-dir
    out_dir = [] if argv[0] == "cap" else ["--out-dir", str(tmp_path)]
    assert cli_main(argv + out_dir) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2
    assert err["error"] == "config"
    assert re.search(r"the (seed|walk count) must be", err["message"]), err["message"]
    assert not any(tmp_path.iterdir())


def test_cli_config_skips_another_commands_key(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[common]\nfamily = ellipsoid\nLmax = 4\n")
    from_file = _cap_json(capsys, ["cap", "--ellipsoid", "0.1", "--config", str(ini)])
    assert from_file == _cap_json(capsys, ["cap", "--ellipsoid", "0.1", "--Lmax", "4"])


def test_cli_refuses_another_commands_key_in_its_own_section(tmp_path, capsys):
    # only [common] serves every command; [truncation] names truncation alone
    ini = tmp_path / "run.ini"
    ini.write_text("[truncation]\nmode = rel\n")
    out_dir = tmp_path / "out"
    assert cli_main(["truncation", "--config", str(ini), "--out-dir", str(out_dir)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2
    assert err["error"] == "config"
    assert "'mode'" in err["message"]
    assert not out_dir.exists()


# The shared options each command does not read, and so does not take.
# Once every command took all of them: `truncation --mode rel --R 3`
# wrote the absolute report, byte for byte.
_NOT_TAKEN = {
    "cap": ["--out-dir", "--no-timestamp"],
    "asym": ["--Lmax", "--seed", "--walks", "--out-dir", "--no-timestamp"],
    "sweep": ["--walks"],
    "fuglede": ["--seed", "--walks", "--no-timestamp"],
    "truncation": ["--mode", "--R", "--Lmax", "--no-timestamp"],
    "spectrum": ["--mode", "--seed", "--walks", "--no-timestamp"],
    "profile": ["--mode", "--Lmax", "--seed", "--walks", "--no-timestamp"],
}
_TOKENS = {
    "--mode": ["--mode", "rel", "--R", "3"],
    "--R": ["--R", "3"],
    "--Lmax": ["--Lmax", "16"],
    "--seed": ["--seed", "1"],
    "--walks": ["--walks", "1000"],
    "--out-dir": ["--out-dir", "out"],
    "--no-timestamp": ["--no-timestamp"],
}


@pytest.mark.parametrize("command,flag", [
    pytest.param(command, flag, id=command + flag)
    for command, flags in _NOT_TAKEN.items() for flag in flags])
def test_cli_refuses_an_option_its_command_does_not_read(tmp_path, monkeypatch, capsys,
                                                          command, flag):
    monkeypatch.chdir(tmp_path)
    domain = ["--ball", "1"] if command in ("cap", "asym") else []
    assert cli_main([command] + domain + _TOKENS[flag]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2
    assert err["error"] == "config"
    assert "unrecognized arguments: " + flag in err["message"]
    # and as a key of the command's own config section
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{command}]\n{flag[2:]} = {(_TOKENS[flag] + ['yes'])[1]}\n")
    assert cli_main([command, "--config", str(ini)] + domain) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert f"{command} takes no config key {flag[2:]!r}" in err["message"]
    assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]


# The family options each --family does not read.  Once a sweep took all
# of them: `sweep --family ellipsoid --seed 5` wrote what it wrote without.
_FAMILY_NOT_READ = {
    "ellipsoid": ["--degree", "--order", "--amplitude", "--seed", "--max-degree"],
    "harmonic_perturbation": ["--eps-min", "--eps-max", "--seed", "--max-degree"],
    "random_star": ["--eps-min", "--eps-max", "--degree", "--order"],
}


@pytest.mark.parametrize("family,flag", [
    pytest.param(family, flag, id=family + flag)
    for family, flags in _FAMILY_NOT_READ.items() for flag in flags])
def test_cli_sweep_refuses_an_option_its_family_does_not_read(tmp_path, monkeypatch, capsys,
                                                              family, flag):
    monkeypatch.chdir(tmp_path)
    assert cli_main(["sweep", "--family", family, "--count", "1", flag, "1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2
    assert err["error"] == "config"
    assert err["message"] == f"--family {family} reads no {flag}"
    # and as a key of the sweep's config section
    ini = tmp_path / "run.ini"
    ini.write_text(f"[sweep]\nfamily = {family}\n{flag[2:]} = 1\n")
    assert cli_main(["sweep", "--config", str(ini), "--count", "1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == f"--family {family} reads no {flag}"
    assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]


@pytest.mark.parametrize("argv", [
    ["--family", "ellipsoid", "--eps-min", "0.1", "--eps-max", "0.2"],
    ["--family", "harmonic_perturbation", "--degree", "2", "--order", "-1",
     "--amplitude", "0.05"],
    ["--family", "random_star", "--amplitude", "0.1", "--seed", "3", "--max-degree", "4"],
], ids=["ellipsoid", "harmonic_perturbation", "random_star"])
def test_cli_sweep_takes_every_option_its_family_reads(tmp_path, capsys, argv):
    assert cli_main(["sweep", "--count", "1", "--out-dir", str(tmp_path)] + argv) == 0
    capsys.readouterr()
    assert (tmp_path / "sweep.csv").exists()


def test_spectrum_tabulates_the_configured_outer_radius(tmp_path, capsys):
    rows, _ = run_spectrum(ExperimentConfig(outer_radius=3.0, out_dir=str(tmp_path)))
    assert {row[1] for row in rows if row[0] == "rel"} == {"3.0"}
    rows, _ = run_spectrum(ExperimentConfig(out_dir=str(tmp_path)))
    assert {row[1] for row in rows if row[0] == "rel"} == {"2.0"}
    assert cli_main(["spectrum", "--R", "3", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    text = (tmp_path / "spectrum.csv").read_text()
    assert "rel,3.0," in text and "rel,2.0," not in text


def _file_options():
    """(command, option) for every option a config file may set."""
    for name, sub in cli._subcommands(cli.build_parser()).items():
        for action in sub._actions:
            flag = action.option_strings[-1] if action.option_strings else None
            if flag not in (None, "--help", "--config"):
                yield pytest.param(name, action, id=f"{name}{flag}")


@pytest.mark.parametrize("command,action", list(_file_options()))
def test_cli_config_key_parses_like_its_flag(tmp_path, command, action):
    flag = action.option_strings[-1]
    domain = ["--ball", "1"] if command in ("cap", "asym") and flag not in (
        "--ball", "--ellipsoid", "--domain") else []
    if action.nargs == 0:
        key_value, tokens = "yes", [flag]
    else:
        # a value other than the default, so a skipped key shows
        value = next(c for c in action.choices if c != action.default) \
            if action.choices else "3"
        key_value, tokens = value, [flag, value]
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{command}]\n{flag[2:]} = {key_value}\n")
    from_file = vars(cli.parse_args([command, "--config", str(ini)] + domain))
    from_flag = vars(cli.parse_args([command] + tokens + domain))
    assert from_file.pop("config") == str(ini)
    assert from_file == from_flag
    assert action.dest in from_flag


# ---------------------------------------------------------------------------
# SciPy is a test dependency only
# ---------------------------------------------------------------------------


def test_src_never_imports_scipy():
    files = sorted(SRC_DIR.rglob("*.py"))
    assert files
    for path in files:
        assert not re.search(r"^\s*(import|from)\s+scipy\b", path.read_text(), re.M), path


# Runs main(argv) and reports, as the last line of stderr, every SciPy
# module loaded by then.
_REPORT_SCIPY = """
import json, sys
from isocap.harness.cli import main
rc = main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")),
      file=sys.stderr)
sys.exit(rc)
"""


# --out-dir is the working directory, the subprocess's tmp_path
@pytest.mark.parametrize("argv", [
    ["cap", "--ellipsoid", "0.1"],
    ["cap", "--ball", "1.0", "--solver", "wos", "--walks", "500", "--seed", "1"],
    ["asym", "--ellipsoid", "0.2"],
    ["sweep", "--count", "2", "--amplitude", "0.12", "--seed", "5", "--out-dir", ".",
     "--no-timestamp"],
    ["sweep", "--count", "2", "--amplitude", "0.12", "--seed", "5", "--mode", "rel",
     "--out-dir", ".", "--no-timestamp"],
    ["fuglede", "--degree", "2", "--ladder", "0.02,0.01", "--out-dir", "."],
    ["spectrum", "--out-dir", "."],
    ["profile", "--out-dir", "."],
    ["truncation", "--walks", "2000", "--seed", "3", "--out-dir", "."],
], ids=["cap", "cap-wos", "asym", "sweep-abs", "sweep-rel", "fuglede", "spectrum",
        "profile", "truncation"])
def test_cli_never_loads_scipy(argv, tmp_path):
    # this process has imported SciPy for other tests, so each command
    # runs in a fresh interpreter
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _REPORT_SCIPY, *argv],
                          env={**os.environ, "PYTHONPATH": path}, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == []


def test_cli_import_loads_no_test_only_dependency():
    # scipy, mpmath and hypothesis serve the tests alone; importing the
    # command line must not pay for them in a fresh interpreter.  Nor
    # does it fill a cache: every functools.lru_cache in isocap (the
    # quadrature rules, their antipodes, the Legendre tables) is empty
    # until a command asks for it
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    code = ("import json, sys, isocap.harness.cli\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.split('.')[0] in ('scipy', 'mpmath', 'hypothesis'))))\n"
            "print(json.dumps({f'{m}.{k}': f.cache_info().currsize\n"
            "                  for m, mod in list(sys.modules.items()) if m.split('.')[0] == 'isocap'\n"
            "                  for k, f in vars(mod).items() if hasattr(f, 'cache_clear')}))")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    modules, caches = map(json.loads, proc.stdout.splitlines()[-2:])
    assert modules == []
    assert "isocap.sphere.build_quadrature" in caches and "isocap.sphere.antipodes" in caches
    assert {name: size for name, size in caches.items() if size} == {}
