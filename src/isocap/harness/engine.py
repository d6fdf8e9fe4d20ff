"""Experiment engine: family sweeps, Taylor ladders, truncation runs,
and table emission.

Every run is deterministic for a fixed config: the domain families,
solvers, and Monte Carlo streams are all seeded, and the CSV/JSON
writers format floats by repr, so repeated runs produce byte-identical
files.  SVG output is identical too once its timestamp comment is
turned off.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from ..asymmetry import (alpha, alpha_R, annulus_lower_bound, fraenkel,
                         fraenkel_mc, symdiff_volume, symdiff_volume_mc)
from ..capacity import (CapacityResult, DeficitResult, SolverConfig, WosConfig,
                        cap_ball, cap_spheroid, capacity, deficit)
from ..domains import (CompositeDomain, FamilySpec, ball, barycenter,
                       generate_family, nearly_spherical_from_phi,
                       truncate_rescale, volume)
from ..errors import ConfigError, GeometryError, SolverError
from ..sphere import HarmonicCoeffs, ball_volume
from ..stability import (QuadraticFormSpec, ball_profile, h_half_norm,
                         project_barycenter, second_variation, spectrum_table,
                         taylor_check)
from .svg import scatter_svg

SWEEP_COLUMNS = ["domain_id", "eps_or_t", "volume", "deficit", "deficit_err",
                 "fraenkel", "alpha", "hhalf", "ratio", "verdict"]

TAYLOR_COLUMNS = ["t", "deficit", "deficit_err", "form_half", "remainder_ratio"]

SPECTRUM_COLUMNS = ["mode", "outer_radius", "degree", "energy_eigenvalue",
                    "form_eigenvalue"]

PROFILE_COLUMNS = ["radius", "value"]


@dataclass
class ExperimentConfig:
    """Shared knobs for the experiment commands."""

    mode: str = "abs"
    outer_radius: float | None = None
    l_max: int = 8
    seed: int = 0
    walks: int = 20000
    threads: int = 1  # walk-on-spheres block threads only
    out_dir: str = "."
    timestamp: bool = True
    family: FamilySpec | None = None

    def __post_init__(self):
        if self.mode not in ("abs", "rel"):
            raise ConfigError(f"mode must be 'abs' or 'rel', got {self.mode!r}")
        if self.mode == "rel" and (self.outer_radius is None
                                   or self.outer_radius <= 1.0):
            raise ConfigError("relative mode needs outer_radius > 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")

    def form_spec(self) -> QuadraticFormSpec:
        r = self.outer_radius if self.mode == "rel" else None
        return QuadraticFormSpec(3, self.mode, r)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(l_max=self.l_max)


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
    barycenter: np.ndarray | None = None
    seconds: float = 0.0

    def row(self) -> list[str]:
        return [
            self.domain_id,
            repr(float(self.eps_or_t)),
            repr(float(self.volume)),
            repr(float(self.deficit)),
            repr(float(self.deficit_err)),
            repr(float(self.fraenkel)),
            repr(float(self.alpha)),
            "" if self.hhalf is None else repr(float(self.hhalf)),
            repr(float(self.ratio)),
            self.verdict,
        ]


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


def write_json(path, columns, rows, summary=None) -> None:
    payload = {"columns": columns,
               "rows": [dict(zip(columns, row)) for row in rows]}
    if summary is not None:
        payload["summary"] = summary
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


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
    scfg = cfg.solver_config()
    spec = cfg.form_spec()
    hh = None
    if phi is not None:
        if cfg.mode == "abs":
            phi = project_barycenter(phi)
            dom = nearly_spherical_from_phi(phi)
        hh = h_half_norm(phi, spec)
    spheroid = (phi is None and cfg.family is not None
                and cfg.family.variant == "ellipsoid")
    if spheroid and cfg.mode == "abs":
        d = _spheroid_deficit(float(param))
    else:
        d = deficit(dom, mode=cfg.mode, outer_radius=cfg.outer_radius,
                    solver="harmonic", cfg=scfg)
    fr = fraenkel(dom)
    if cfg.mode == "abs":
        a = alpha(dom)
        denom = fr.value**2
    else:
        a = alpha_R(dom, cfg.outer_radius)
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
        barycenter=barycenter(dom),
        seconds=time.perf_counter() - t0,
    )


def run_sweep(cfg: ExperimentConfig, basename: str = "sweep"):
    """Evaluate a family, write CSV/JSON/SVG, return records and summary.

    Members are evaluated in family order, in the calling thread: their
    work is small NumPy calls that hold the GIL, so worker threads only
    add contention.  A member whose solve fails is recorded in the
    summary and skipped in the table; the run continues.
    """
    if cfg.family is None or cfg.family.count < 1:
        raise ConfigError("sweep needs a nonempty family")
    done: list[RunRecord] = []
    failures: list[dict] = []
    for domain_id, param, dom, phi in generate_family(cfg.family):
        try:
            done.append(_member_record(cfg, domain_id, param, dom, phi))
        except (SolverError, GeometryError) as exc:
            failures.append({"domain_id": domain_id, "error": str(exc)})
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

    os.makedirs(cfg.out_dir, exist_ok=True)
    rows = [r.row() for r in done]
    csv_path = os.path.join(cfg.out_dir, basename + ".csv")
    json_path = os.path.join(cfg.out_dir, basename + ".json")
    write_csv(csv_path, SWEEP_COLUMNS, rows)
    write_json(json_path, SWEEP_COLUMNS, rows, summary)
    svg_path = None
    if len(positive) >= 3:
        svg_path = os.path.join(cfg.out_dir, basename + ".svg")
        with open(svg_path, "w") as fh:
            fh.write(scatter_svg(
                [math.log10(r.fraenkel) for r in positive],
                [math.log10(r.deficit) for r in positive],
                title="capacity deficit vs asymmetry",
                xlabel="log10 asymmetry", ylabel="log10 deficit",
                fit=(fit[0], fit[1] / math.log(10.0)) if fit else None,
                fit_label=slope_note, timestamp=cfg.timestamp))
    return done, summary, {"csv": csv_path, "json": json_path, "svg": svg_path}


def run_fuglede(cfg: ExperimentConfig, degree: int = 2, order: int = 0,
                ladder=(0.02, 0.01, 0.005), basename: str = "fuglede"):
    """Taylor ladder for a single-harmonic perturbation, written as CSV.

    `order` is the signed order -l..l of the harmonic.
    """
    if degree < 1 or abs(order) > degree:
        raise ConfigError("need degree >= 1 and |order| <= degree")
    phi = HarmonicCoeffs.single(degree, degree + order, 1.0)
    rows_t = taylor_check(phi, ladder, cfg.form_spec(), cfg=cfg.solver_config())
    rows = [[repr(r.t), repr(r.deficit), repr(r.deficit_error),
             repr(r.form_half), repr(r.remainder_ratio)] for r in rows_t]
    summary = {
        "degree": degree,
        "order": order,
        "second_variation": repr(second_variation(phi, cfg.form_spec())),
        "limit_deficit_over_t2": repr(
            0.5 * second_variation(phi, cfg.form_spec())),
    }
    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, basename + ".csv")
    json_path = os.path.join(cfg.out_dir, basename + ".json")
    write_csv(csv_path, TAYLOR_COLUMNS, rows)
    write_json(json_path, TAYLOR_COLUMNS, rows, summary)
    return rows_t, summary, {"csv": csv_path, "json": json_path}


def run_spectrum(cfg: ExperimentConfig, radii=(2.0,), l_max: int = 6,
                 basename: str = "spectrum"):
    """Eigenvalue tables for the exterior problem and each shell radius."""
    rows = []
    ext = spectrum_table(l_max, QuadraticFormSpec(3, "abs"))
    for e in ext:
        rows.append(["abs", "", repr(e.degree), repr(e.energy_eigenvalue),
                     repr(e.form_eigenvalue)])
    for R in radii:
        for e in spectrum_table(l_max, QuadraticFormSpec(3, "rel", float(R))):
            rows.append(["rel", repr(float(R)), repr(e.degree),
                         repr(e.energy_eigenvalue), repr(e.form_eigenvalue)])
    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, basename + ".csv")
    json_path = os.path.join(cfg.out_dir, basename + ".json")
    write_csv(csv_path, SPECTRUM_COLUMNS, rows)
    write_json(json_path, SPECTRUM_COLUMNS, rows)
    return rows, {"csv": csv_path, "json": json_path}


def run_profile(cfg: ExperimentConfig, eta: float = 0.01, r_lo: float = 0.2,
                r_hi: float = 1.8, points: int = 400, basename: str = "profile"):
    """Penalized ball profile on a grid that contains r = 1 exactly."""
    if not 0 < r_lo < 1.0 < r_hi:
        raise ConfigError("grid must straddle r = 1")
    R = cfg.outer_radius if cfg.mode == "rel" else 2.0
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
    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, basename + ".csv")
    json_path = os.path.join(cfg.out_dir, basename + ".json")
    write_csv(csv_path, PROFILE_COLUMNS, rows)
    write_json(json_path, PROFILE_COLUMNS, rows, summary)
    return rep, summary, {"csv": csv_path, "json": json_path}


def run_truncation(cfg: ExperimentConfig, far_volume_fraction: float = 0.01,
                   far_distance: float = 10.0, cut_radius: float = 2.0,
                   basename: str = "truncation"):
    """Two-ball truncation experiment.

    The domain is a near-unit ball plus a far small ball of the given
    volume fraction; total volume is that of the unit ball.  The far
    ball must lie entirely beyond the cut sphere.  Reports the diameter
    and volume identities of the truncated set, the deficit ratio and
    asymmetry drop with their empirical constants, and the closed-form
    capacity sandwich on the kept part checked against walk-on-spheres.
    """
    if not 0.0 <= far_volume_fraction < 0.5:
        raise ConfigError("far volume fraction must be small and nonnegative")
    omega = ball_volume(3)
    r_near = (1.0 - far_volume_fraction) ** (1.0 / 3.0)
    if far_volume_fraction > 0.0:
        r_far = far_volume_fraction ** (1.0 / 3.0)
        if far_distance - r_far <= cut_radius:
            raise GeometryError("far ball must lie beyond the cut sphere")
        dom = CompositeDomain([
            ball(r_near),
            ball(r_far, center=(far_distance, 0.0, 0.0)),
        ])
    else:
        dom = ball(r_near)

    wos = WosConfig(num_walks=cfg.walks, seed=cfg.seed, threads=cfg.threads)
    cap_full = capacity(dom, mode="abs", solver="wos", wos_cfg=wos)
    dfull = cap_full.value - cap_ball(1.0)

    trunc, rep = truncate_rescale(dom, cut_radius)

    if isinstance(dom, CompositeDomain):
        fr_full = fraenkel_mc(dom, n_samples=max(cfg.walks, 100000), seed=cfg.seed)
        asym_full, asym_err = fr_full.value, fr_full.stderr
    else:
        r = fraenkel(dom)
        asym_full, asym_err = r.value, 0.0

    if rep.outside_volume == 0.0:
        # nothing was dropped: the truncated set IS the full set, so both
        # sides of the ratio checks use the identical measurement
        dtrunc = dfull
        asym_trunc = asym_full
    else:
        # the kept part is a single ball here, so its deficit is closed form
        cap_kept = capacity(trunc, mode="abs",
                            solver="closed" if not isinstance(trunc, CompositeDomain)
                            and trunc.is_ball() else "wos", wos_cfg=wos)
        dtrunc = cap_kept.value - cap_ball(1.0)
        if isinstance(trunc, CompositeDomain):
            fr_t = fraenkel_mc(trunc, n_samples=max(cfg.walks, 100000),
                               seed=cfg.seed)
            asym_trunc = fr_t.value
        else:
            asym_trunc = fraenkel(trunc).value

    # capacity sandwich on the kept, un-rescaled part: the closed-form
    # lower bound from the isocapacitary inequality at reduced volume
    lower = cap_ball(1.0) * (1.0 - far_volume_fraction) ** (1.0 / 3.0)
    kept = ball(r_near)
    cap_kept_raw = capacity(kept, mode="abs", solver="wos", wos_cfg=wos)
    sandwich_margin = cap_kept_raw.value - lower
    sandwich = verdict_for(sandwich_margin, 3.0 * cap_kept_raw.error_estimate)

    def _r(x) -> str:
        return repr(float(x))

    if rep.outside_volume == 0.0:
        deficit_ratio = 1.0
        asym_drop = 0.0
    else:
        deficit_ratio = dtrunc / dfull if dfull > 0 else 0.0
        asym_drop = (asym_full - asym_trunc) / dfull if dfull > 0 else 0.0

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
        "asymmetry_full_err": _r(asym_err),
        "asymmetry_truncated": _r(asym_trunc),
        "deficit_ratio_c": _r(deficit_ratio),
        "asymmetry_drop_c": _r(asym_drop),
        "sandwich_lower": _r(lower),
        "sandwich_cap_kept": _r(cap_kept_raw.value),
        "sandwich_cap_kept_err": _r(cap_kept_raw.error_estimate),
        "sandwich_verdict": sandwich,
        "volume_identity": verdict_for(
            1e-12 - abs(volume(trunc) - omega), 0.0),
        "diameter_bound_d": _r(max(rep.diameter, 2.0)),
    }
    os.makedirs(cfg.out_dir, exist_ok=True)
    json_path = os.path.join(cfg.out_dir, basename + ".json")
    with open(json_path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return report, {"json": json_path}


def run_asym(domain, outer_radius: float | None = None) -> dict:
    """Asymmetry panel for one domain: Fraenkel, weighted, and the bound."""
    if isinstance(domain, CompositeDomain):
        fr = fraenkel_mc(domain)
        v, err = symdiff_volume_mc(domain, np.zeros(3), 1.0)
        return {
            "fraenkel": repr(float(fr.value)),
            "fraenkel_stderr": repr(float(fr.stderr)),
            "symdiff_origin": repr(float(v)),
            "symdiff_origin_stderr": repr(float(err)),
        }
    fr = fraenkel(domain)
    v = symdiff_volume(domain, np.zeros(3), 1.0)
    out = {
        "fraenkel": repr(float(fr.value)),
        "minimizing_center": [repr(float(c)) for c in fr.minimizing_center],
        "alpha": repr(float(alpha(domain))),
        "symdiff_origin": repr(float(v)),
        "annulus_lower_bound": repr(float(annulus_lower_bound(v))),
    }
    if outer_radius is not None:
        out["alpha_R"] = repr(float(alpha_R(domain, outer_radius)))
    return out
