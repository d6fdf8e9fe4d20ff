"""Experiment engine: family sweeps, Taylor ladders, truncation runs,
and table emission.

Every run is deterministic for a fixed config: the random families are
seeded, no run draws Monte Carlo samples, and the CSV/JSON writers
format floats by repr, so repeated runs produce byte-identical files.
SVG output is identical too once its timestamp comment is turned off.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from ..asymmetry import alpha, alpha_R, annulus_lower_bound, fraenkel, symdiff_volume
from ..capacity import (CapacityResult, DeficitResult, _check_outer_radius, cap_ball,
                        cap_spheroid, capacity, deficit)
from ..domains import CompositeDomain, FamilySpec, ball, family_member, truncate_rescale, volume
from ..errors import ConfigError, GeometryError, SolverError
from ..sphere import HarmonicCoeffs, ball_volume
from ..stability import (ball_profile, h_half_norm, project_barycenter,
                         second_variation, spectrum_table, taylor_check)
from .svg import scatter_svg

TAYLOR_COLUMNS = ["t", "deficit", "deficit_err", "form_half", "remainder_ratio"]

SPECTRUM_COLUMNS = ["mode", "outer_radius", "degree", "energy_eigenvalue",
                    "form_eigenvalue"]

PROFILE_COLUMNS = ["radius", "value"]


@dataclass
class ExperimentConfig:
    """Shared knobs for the experiment commands.

    outer_radius None is the absolute problem; a radius R > 1 is the
    problem relative to the ball B_R.  No experiment runs Monte Carlo, so
    there is no seed or walk count here: a sweep's seed is its family's.
    """

    outer_radius: float | None = None
    l_max: int = 8
    out_dir: str = "."
    timestamp: bool = True
    family: FamilySpec | None = None

    def __post_init__(self):
        if self.outer_radius is not None:
            _check_outer_radius(self.outer_radius)


@dataclass
class RunRecord:
    domain_id: str
    eps_or_t: float
    volume: float
    deficit: float
    deficit_err: float
    fraenkel: float
    alpha: float
    hhalf: float | None
    ratio: float
    verdict: str
    seconds: float = 0.0

    def row(self) -> list[str]:
        """The record's cells, one per SWEEP_COLUMNS entry."""
        cells = (getattr(self, c) for c in SWEEP_COLUMNS)
        return ["" if v is None else v if isinstance(v, str) else repr(float(v)) for v in cells]


# every RunRecord field but `seconds`, which would differ from run to run
SWEEP_COLUMNS = [f.name for f in fields(RunRecord) if f.name != "seconds"]


def verdict_for(margin: float, error: float) -> str:
    """Three-way verdict for an inequality margin with a solver error bar."""
    if margin > error:
        return "holds"
    if margin >= -error:
        return "holds-within-error"
    return "violated"


def write_csv(path, columns, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_outputs(cfg: ExperimentConfig, basename: str, columns=None, rows=None,
                  summary=None) -> dict:
    """Write a table into cfg.out_dir as <basename>.csv and <basename>.json,
    the JSON holding the columns, the rows keyed by column and the summary
    if given.  With columns None, write only <basename>.json, holding the
    summary alone.  Returns the paths by extension."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    json_path = os.path.join(cfg.out_dir, basename + ".json")
    if columns is None:
        write_json(json_path, summary)
        return {"json": json_path}
    csv_path = os.path.join(cfg.out_dir, basename + ".csv")
    write_csv(csv_path, columns, rows)
    payload = {"columns": columns,
               "rows": [dict(zip(columns, row)) for row in rows]}
    if summary is not None:
        payload["summary"] = summary
    write_json(json_path, payload)
    return {"csv": csv_path, "json": json_path}


def fit_loglog(x, y):
    """Least-squares slope of log y vs log x with a 95 percent halfwidth."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    if lx.size < 3:
        raise ConfigError("need at least 3 points for a slope fit")
    coef, cov = np.polyfit(lx, ly, 1, cov=True)
    return float(coef[0]), float(coef[1]), 1.96 * math.sqrt(float(cov[0, 0]))


def _spheroid_deficit(eps: float) -> DeficitResult:
    """Closed-form deficit of the volume-one spheroid with axes
    (1+eps, 1+eps, (1+eps)^-2); covers eccentricities the collocation
    solver refuses."""
    val = cap_spheroid(1.0 + eps, (1.0 + eps) ** -2)
    res = CapacityResult(value=val, method="closed-form",
                         error_estimate=1e-12 * val)
    return DeficitResult(value=val - cap_ball(1.0),
                         error_estimate=res.error_estimate,
                         capacity=res, scale=1.0)


def _member_record(cfg: ExperimentConfig, domain_id, param, dom, phi) -> RunRecord:
    t0 = time.perf_counter()
    R = cfg.outer_radius
    hh = None
    if phi is not None:
        if R is None:
            phi, dom = project_barycenter(phi)
        hh = h_half_norm(phi, R)
    spheroid = (phi is None and cfg.family is not None
                and cfg.family.variant == "ellipsoid")
    if spheroid and R is None:
        d = _spheroid_deficit(float(param))
    else:
        d = deficit(dom, R, solver="harmonic", l_max=cfg.l_max)
    fr = fraenkel(dom)
    if R is None:
        a = alpha(dom)
        denom = fr.value**2
    else:
        a = alpha_R(dom, R)
        denom = symdiff_volume(dom, np.zeros(3), 1.0) ** 2
    ratio = d.value / denom if denom > 0 else math.inf
    return RunRecord(
        domain_id=domain_id,
        eps_or_t=float(param),
        volume=volume(dom),
        deficit=d.value,
        deficit_err=d.error_estimate,
        fraenkel=fr.value,
        alpha=a,
        hhalf=hh,
        ratio=ratio,
        verdict=verdict_for(d.value, d.error_estimate),
        seconds=time.perf_counter() - t0,
    )


def run_sweep(cfg: ExperimentConfig, basename: str = "sweep"):
    """Evaluate a family, write CSV/JSON/SVG, return records and summary.

    Members are built and evaluated one at a time, in family order, in
    the calling thread: their work is small NumPy calls that hold the
    GIL, so worker threads only add contention, and no member's domain
    and caches outlive its record.  A member that fails to build or to
    solve is recorded in the summary and skipped in the table; the run
    continues.
    """
    if cfg.family is None:
        raise ConfigError("sweep needs a family")
    done: list[RunRecord] = []
    failures: list[dict] = []
    for k in range(cfg.family.count):
        try:
            done.append(_member_record(cfg, *family_member(cfg.family, k)))
        except (SolverError, GeometryError) as exc:
            failures.append({"domain_id": cfg.family.member_id(k), "error": str(exc)})
    if not done:
        raise SolverError("every family member failed")

    summary: dict = {
        "count": len(done),
        "failures": failures,
        "min_deficit": repr(min(r.deficit for r in done)),
        "min_ratio": repr(min(r.ratio for r in done)),
        "verdicts": {v: sum(1 for r in done if r.verdict == v)
                     for v in ("holds", "holds-within-error", "violated")},
    }
    ratios = [r for r in done if r.hhalf]
    if ratios:
        summary["min_fuglede_ratio"] = repr(
            min(r.deficit / r.hhalf for r in ratios))
    positive = [r for r in done if r.deficit > 0 and r.fraenkel > 0]
    slope_note = ""
    fit = None
    if len(positive) >= 3:
        slope, intercept, half = fit_loglog(
            [r.fraenkel for r in positive], [r.deficit for r in positive])
        summary["slope"] = repr(slope)
        summary["slope_halfwidth"] = repr(half)
        fit = (slope, intercept)
        slope_note = f"slope {slope:.3f} +/- {half:.3f}"

    paths = write_outputs(cfg, basename, SWEEP_COLUMNS, [r.row() for r in done], summary)
    paths["svg"] = None
    if len(positive) >= 3:
        paths["svg"] = os.path.join(cfg.out_dir, basename + ".svg")
        with open(paths["svg"], "w") as fh:
            fh.write(scatter_svg(
                [math.log10(r.fraenkel) for r in positive],
                [math.log10(r.deficit) for r in positive],
                title="capacity deficit vs asymmetry",
                xlabel="log10 asymmetry", ylabel="log10 deficit",
                fit=(fit[0], fit[1] / math.log(10.0)) if fit else None,
                fit_label=slope_note, timestamp=cfg.timestamp))
    return done, summary, paths


def run_fuglede(cfg: ExperimentConfig, degree: int = 2, order: int = 0,
                ladder=(0.02, 0.01, 0.005), basename: str = "fuglede"):
    """Taylor ladder for a single-harmonic perturbation, written as CSV.

    `order` is the signed order -l..l of the harmonic.
    """
    if degree < 1 or abs(order) > degree:
        raise ConfigError("need degree >= 1 and |order| <= degree")
    phi = HarmonicCoeffs.single(degree, degree + order, 1.0)
    rows_t = taylor_check(phi, ladder, cfg.outer_radius, l_max=cfg.l_max)
    rows = [[repr(r.t), repr(r.deficit), repr(r.deficit_error),
             repr(r.form_half), repr(r.remainder_ratio)] for r in rows_t]
    s2 = second_variation(phi, cfg.outer_radius)
    summary = {
        "degree": degree,
        "order": order,
        "second_variation": repr(s2),
        "limit_deficit_over_t2": repr(0.5 * s2),
    }
    return rows_t, summary, write_outputs(cfg, basename, TAYLOR_COLUMNS, rows, summary)


def run_spectrum(cfg: ExperimentConfig, l_max: int = 6, basename: str = "spectrum"):
    """Eigenvalue tables to degree l_max for the exterior problem and the
    shell of radius cfg.outer_radius, 2 for the absolute cfg."""
    rows = []
    for R in (None, 2.0 if cfg.outer_radius is None else float(cfg.outer_radius)):
        head = ["abs", ""] if R is None else ["rel", repr(R)]
        for e in spectrum_table(l_max, R):
            rows.append(head + [repr(e.degree), repr(e.energy_eigenvalue),
                                repr(e.form_eigenvalue)])
    return rows, write_outputs(cfg, basename, SPECTRUM_COLUMNS, rows)


def run_profile(cfg: ExperimentConfig, eta: float = 0.01, r_lo: float = 0.2,
                r_hi: float = 1.8, points: int = 400, basename: str = "profile"):
    """Penalized ball profile on a grid that contains r = 1 exactly.

    The profile is of the relative capacity: relative to B_R for
    cfg.outer_radius R, and to B_2 for the absolute cfg.
    """
    if not 0 < r_lo < 1.0 < r_hi:
        raise ConfigError("grid must straddle r = 1")
    R = 2.0 if cfg.outer_radius is None else cfg.outer_radius
    half = points // 2
    grid = np.concatenate([np.linspace(r_lo, 1.0, half),
                           np.linspace(1.0, r_hi, points - half + 1)[1:]])
    rep = ball_profile(grid, R, eta)
    rows = [[repr(float(r)), repr(float(v))]
            for r, v in zip(rep.radii, rep.values)]
    summary = {
        "outer_radius": repr(float(R)),
        "eta": repr(float(eta)),
        "argmin_radius": repr(rep.argmin_radius),
        "linear_constant": repr(rep.linear_constant),
    }
    return rep, summary, write_outputs(cfg, basename, PROFILE_COLUMNS, rows, summary)


def run_truncation(cfg: ExperimentConfig, far_volume_fraction: float = 0.01,
                   far_distance: float = 10.0, cut_radius: float = 2.0,
                   basename: str = "truncation"):
    """Two-ball truncation experiment.

    The domain is a near-unit ball plus a far small ball of the given
    volume fraction; total volume is that of the unit ball.  The far
    ball must lie entirely beyond the cut sphere.  Reports the diameter
    and volume identities of the truncated set, the deficit ratio and
    asymmetry drop with their empirical constants, and the capacity
    sandwich on the kept part.

    Every capacity is a closed form and no Monte Carlo runs.  The full
    set's is the two balls' Kelvin image series, with cap_full_err its
    tail and rounding bound.  The kept part is a ball, whose capacity is
    the sandwich's lower bound itself: margin and error are 0.
    """
    if not 0.0 <= far_volume_fraction < 0.5:
        raise ConfigError("far volume fraction must be small and nonnegative")
    r_near = (1.0 - far_volume_fraction) ** (1.0 / 3.0)
    if far_volume_fraction > 0.0:
        r_far = far_volume_fraction ** (1.0 / 3.0)
        if far_distance - r_far <= cut_radius:
            raise GeometryError("far ball must lie beyond the cut sphere")
        dom = CompositeDomain([ball(r_near), ball(r_far, center=(far_distance, 0.0, 0.0))])
    else:
        dom = ball(r_near)

    # the two balls' Kelvin image series, or the kept ball's closed form
    cap_full = capacity(dom, solver="closed")
    dfull = cap_full.value - cap_ball(1.0)

    trunc, rep = truncate_rescale(dom, cut_radius)
    asym_full = fraenkel(dom).value
    if rep.outside_volume == 0.0:
        # nothing was dropped: the truncated set IS the full set, so both
        # sides of the ratio checks use the identical measurement
        dtrunc, asym_trunc = dfull, asym_full
        deficit_ratio, asym_drop = 1.0, 0.0
    else:
        # the kept part is the rescaled near ball, so its deficit is closed form
        dtrunc = capacity(trunc, solver="closed").value - cap_ball(1.0)
        asym_trunc = fraenkel(trunc).value
        deficit_ratio = dtrunc / dfull if dfull > 0 else 0.0
        asym_drop = (asym_full - asym_trunc) / dfull if dfull > 0 else 0.0

    # capacity sandwich on the kept, un-rescaled part: the closed-form
    # lower bound from the isocapacitary inequality at reduced volume
    lower = cap_ball(1.0) * (1.0 - far_volume_fraction) ** (1.0 / 3.0)
    kept = capacity(ball(r_near), solver="closed")

    def _r(x) -> str:
        return repr(float(x))

    report = {
        "far_volume_fraction": _r(far_volume_fraction),
        "far_distance": _r(far_distance),
        "cut_radius": _r(cut_radius),
        "cap_full": _r(cap_full.value),
        "cap_full_err": _r(cap_full.error_estimate),
        "deficit_full": _r(dfull),
        "deficit_truncated": _r(dtrunc),
        "diameter_truncated": _r(rep.diameter),
        "volume_truncated": _r(volume(trunc)),
        "scale": _r(rep.scale),
        "outside_volume": _r(rep.outside_volume),
        "asymmetry_full": _r(asym_full),
        "asymmetry_truncated": _r(asym_trunc),
        "deficit_ratio_c": _r(deficit_ratio),
        "asymmetry_drop_c": _r(asym_drop),
        "sandwich_lower": _r(lower),
        "sandwich_cap_kept": _r(kept.value),
        "sandwich_cap_kept_err": _r(kept.error_estimate),
        "sandwich_verdict": verdict_for(kept.value - lower, kept.error_estimate),
        "volume_identity": verdict_for(1e-12 - abs(volume(trunc) - ball_volume()), 0.0),
        "diameter_bound_d": _r(max(rep.diameter, 2.0)),
    }
    return report, write_outputs(cfg, basename, summary=report)


def run_asym(domain, outer_radius: float | None = None) -> dict:
    """Asymmetry panel for one domain: Fraenkel, weighted, and the bound.

    A composite gets Fraenkel and the symmetric difference with B_1 only:
    the weighted asymmetries integrate along the rays of one star.
    """
    fr = fraenkel(domain)
    v = symdiff_volume(domain, np.zeros(3), 1.0)
    out = {
        "fraenkel": repr(float(fr.value)),
        "minimizing_center": [repr(float(c)) for c in fr.minimizing_center],
        "symdiff_origin": repr(float(v)),
    }
    if isinstance(domain, CompositeDomain):
        return out
    out["alpha"] = repr(float(alpha(domain)))
    out["annulus_lower_bound"] = repr(float(annulus_lower_bound(v)))
    if outer_radius is not None:
        out["alpha_R"] = repr(float(alpha_R(domain, outer_radius)))
    return out
