"""End-to-end acceptance checks.

Each test is one release gate with its tolerance and runtime budget
stated inline, so ``pytest -v tests/test_acceptance.py`` prints one
pass/fail line per gate.  They exercise the library the way the
experiments do: closed forms anchor the solvers, the solvers anchor
the sweeps, and the sweeps check the quantitative inequalities.
"""

import math
import sys
import threading
import time

import numpy as np
import pytest

from isocap.asymmetry import alpha_R, annulus_lower_bound, symdiff_volume
from isocap.capacity import WosConfig, capacity, deficit
from isocap.domains import FamilySpec, ball, generate_family
from isocap.harness import ExperimentConfig, run_profile, run_sweep, run_truncation
from isocap.sphere import HarmonicCoeffs
from isocap.stability import dtn, project_barycenter, second_variation, taylor_check

ABS = None
REL2 = 2.0


def test_criterion_01_ball_capacities_closed_form(tmp_path):
    # harmonic solver on the unit ball: 4 pi absolute, 8 pi relative at
    # R = 2, both within relative error 1e-8 at l_max = 8; budget 1 s
    t0 = time.monotonic()
    got_abs = capacity(ball(1.0), solver="harmonic", l_max=8)
    got_rel = capacity(ball(1.0), outer_radius=2.0,
                       solver="harmonic", l_max=8)
    assert got_abs.value == pytest.approx(4.0 * math.pi, rel=1e-8)
    assert got_rel.value == pytest.approx(8.0 * math.pi, rel=1e-8)
    assert time.monotonic() - t0 < 1.0


def test_criterion_02_spectral_identities():
    # closed-form eigenvalue at degree 1, R = 2 is exactly 17/7, and the
    # shell eigenvalues collapse onto the exterior ones as R grows; the
    # degree-0 gap is exactly 1/(R-1), far above 1e-10 at any feasible R,
    # so the convergence tolerance applies to degrees 1..6
    t0 = time.monotonic()
    assert dtn(1, 2.0) == 17.0 / 7.0
    R = 1e6
    for l in range(1, 7):
        assert abs(dtn(l, R) - dtn(l)) <= 1e-10
    gap0 = dtn(0, R) - dtn(0)
    assert gap0 == pytest.approx(1.0 / (R - 1.0), rel=1e-9)
    assert time.monotonic() - t0 < 1.0


def test_criterion_03_second_order_taylor_agreement():
    # quadrupole perturbation, absolute mode: the Taylor remainder ratio
    # e(t) = (deficit - t^2/2 * form)/t^2 decreases along the ladder and
    # ends below 1e-3 times half the form value; budget 10 s
    t0 = time.monotonic()
    phi = HarmonicCoeffs.single(2, 2, 1.0)
    rows = taylor_check(phi, (0.02, 0.01, 0.005), ABS)
    errs = [abs(r.remainder_ratio) for r in rows]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-3 * (0.5 * second_variation(phi, ABS))
    assert time.monotonic() - t0 < 10.0


def test_criterion_04_translation_neutrality():
    # a pure degree-1 perturbation is a translation at first order: after
    # volume and barycenter correction the absolute deficit is o(t^2),
    # while the shell problem at R = 2 keeps a positive closed-form limit
    # deficit/t^2 -> 12/7, met within 2 percent; budget 10 s
    t0 = time.monotonic()
    t = 0.005
    phi = HarmonicCoeffs.single(1, 1, t)
    _, dom = project_barycenter(phi)
    d = deficit(dom, solver="harmonic")
    assert d.value / t**2 <= 1e-4

    rows = taylor_check(HarmonicCoeffs.single(1, 1, 1.0), (t,), REL2)
    limit = 0.5 * second_variation(HarmonicCoeffs.single(1, 1, 1.0), REL2)
    assert limit == pytest.approx(12.0 / 7.0, rel=1e-14)
    assert rows[0].deficit / t**2 == pytest.approx(limit, rel=0.02)
    assert time.monotonic() - t0 < 10.0


def test_criterion_05_quantitative_inequality_sweep(tmp_path):
    # 200 random star domains with sup-norm 0.3 at a fixed seed: every
    # absolute deficit is nonnegative within its error bar and the
    # empirical constant min deficit/asymmetry^2 is positive, in both the
    # absolute and the R = 2 relative problem; budget 5 min
    t0 = time.monotonic()
    fam = FamilySpec("random_star", 200, amplitude=0.3, seed=1)
    cfg_abs = ExperimentConfig(family=fam, timestamp=False,
                               out_dir=str(tmp_path / "abs"))
    recs, summary, _ = run_sweep(cfg_abs)
    assert summary["count"] == 200
    assert summary["failures"] == []
    assert summary["verdicts"]["violated"] == 0
    assert all(r.deficit >= -r.deficit_err for r in recs)
    assert float(summary["min_ratio"]) > 0.0

    cfg_rel = ExperimentConfig(outer_radius=2.0, family=fam,
                               timestamp=False,
                               out_dir=str(tmp_path / "rel"))
    recs_r, summary_r, _ = run_sweep(cfg_rel)
    assert summary_r["count"] == 200
    assert summary_r["verdicts"]["violated"] == 0
    c_emp = float(summary_r["min_ratio"])
    assert c_emp > 0.0
    assert time.monotonic() - t0 < 300.0


def test_criterion_06_ellipsoid_sharpness_exponent(tmp_path):
    # deficit versus Fraenkel asymmetry along the ellipsoid family scales
    # with exponent 2.0 +/- 0.1 over eps in [0.05, 0.4]; budget 1 min
    t0 = time.monotonic()
    fam = FamilySpec("ellipsoid", 8, eps_min=0.05, eps_max=0.4)
    cfg = ExperimentConfig(family=fam, timestamp=False,
                           out_dir=str(tmp_path))
    _, summary, _ = run_sweep(cfg)
    slope = float(summary["slope"])
    assert slope == pytest.approx(2.0, abs=0.1)
    assert time.monotonic() - t0 < 60.0


def test_criterion_07_weighted_asymmetry_lower_bound():
    # the origin-weighted asymmetry dominates the sharp annulus bound at
    # the same symmetric-difference volume for all 200 sweep domains;
    # budget 1 min
    t0 = time.monotonic()
    fam = generate_family(FamilySpec("random_star", 200, amplitude=0.3, seed=1))
    for _, _, dom, _ in fam:
        v = symdiff_volume(dom, np.zeros(3), 1.0)
        assert alpha_R(dom) >= annulus_lower_bound(v) - 1e-10
    assert time.monotonic() - t0 < 60.0


def test_criterion_08_walk_on_spheres_cross_validation(monkeypatch):
    # 1e5 walks on the unit ball land within 3 standard errors of 4 pi
    # with stderr below 1 percent, and fixed seed gives bit-identical
    # results from any thread and for any block size; budget 1 min
    t0 = time.monotonic()
    res1 = capacity(ball(1.0), solver="wos",
                    wos_cfg=WosConfig(num_walks=100000, seed=42))
    other = []
    monkeypatch.setattr(sys.modules["isocap.capacity"], "_WOS_BLOCK", 3000)
    thread = threading.Thread(target=lambda: other.append(capacity(
        ball(1.0), solver="wos", wos_cfg=WosConfig(num_walks=100000, seed=42))))
    thread.start()
    thread.join()
    truth = 4.0 * math.pi
    assert abs(res1.value - truth) <= 3.0 * res1.error_estimate
    assert res1.error_estimate < 0.01 * truth
    assert res1.value == other[0].value
    assert time.monotonic() - t0 < 60.0


def test_criterion_09_penalized_ball_profile(tmp_path):
    # the penalized relative capacity of centered balls on a 400-point
    # grid (R = 2, eta = 0.01) is minimized exactly at radius 1 and grows
    # at least linearly away from it; budget instant
    t0 = time.monotonic()
    cfg = ExperimentConfig(outer_radius=2.0, timestamp=False,
                           out_dir=str(tmp_path))
    rep, summary, _ = run_profile(cfg, eta=0.01, points=400)
    assert rep.radii.size == 400
    assert rep.argmin_radius == 1.0
    assert rep.linear_constant > 0.0
    assert time.monotonic() - t0 < 5.0


def test_criterion_10_truncation_experiment(tmp_path):
    # two-ball configuration (far fraction 0.01 at distance 10, cut at 2):
    # the truncated set keeps the diameter bound and the exact volume, the
    # deficit ratio and asymmetry-drop constants are finite, and the
    # closed-form capacity lower bound for the kept part holds within
    # three Monte Carlo standard errors; budget 2 min
    t0 = time.monotonic()
    cfg = ExperimentConfig(seed=3, walks=20000, timestamp=False,
                           out_dir=str(tmp_path))
    report, _ = run_truncation(cfg)
    assert float(report["diameter_truncated"]) <= \
        float(report["diameter_bound_d"]) + 1e-12
    assert report["volume_identity"] == "holds"
    assert math.isfinite(float(report["deficit_ratio_c"]))
    assert float(report["deficit_ratio_c"]) >= 0.0
    assert math.isfinite(float(report["asymmetry_drop_c"]))
    assert report["sandwich_verdict"] in ("holds", "holds-within-error")
    assert time.monotonic() - t0 < 120.0
