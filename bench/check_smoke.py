"""Smoke test of the benchmark: every workload at a token size.

    python3 -m pytest bench/check_smoke.py

The file name keeps it out of the repository's default test collection;
it takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
from tracer import Tracer, metric_units  # noqa: E402
from workloads import WORKLOADS, import_cli  # noqa: E402

PRINTED = {
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "wall_s": "s",
    "setup_wall_s": "s",
    "members_per_s": "members/s",
    "walks_per_s": "walks/s",
    "wos_time_to_1pct_s": "s",
    "error_rate": "fraction",
    "cpu_steal_pct": "%",
}


def declared(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def tiny(workload: str, trace: int) -> tuple:
    proc = run("--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return lines, result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics(workload):
    lines, result = tiny(workload, 0)
    for name, unit in PRINTED.items():
        printed = [ln.split() for ln in lines if ln.split()[:1] == [name]]
        assert len(printed) == 1 and printed[0][-1] == unit, name
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")
    for metric in result["metrics"].values():
        assert metric["value"] > 0
    assert any(ln.startswith('{"environment"') for ln in lines)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_metrics(workload):
    _, result = tiny(workload, 1)
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared("per_layer") == metric_units()
    spans = ROOT / ".bench_out" / workload / "spans.jsonl"
    assert spans.stat().st_size > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "sweep-abs", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_wraps_every_binding_and_reports_absent(monkeypatch):
    import_cli()
    monkeypatch.setitem(tracer.LAYERS, "sphere",
                        tracer.LAYERS["sphere"] + ("no_such_function",))
    engine = sys.modules["isocap.harness.engine"]
    capacity_module = sys.modules["isocap.capacity"]
    original = engine.deficit
    t = Tracer()
    t.install()
    try:
        assert engine.deficit is not original
        assert capacity_module.deficit is engine.deficit
        engine.deficit(sys.modules["isocap.domains"].ball(1.0))
    finally:
        t.uninstall()
    assert engine.deficit is original and capacity_module.deficit is original
    assert t.absent == ["sphere.no_such_function"]
    summary = t.summary(1)
    assert summary["capacity.deficit.calls"] == 1
    assert summary["capacity.cap_exterior_harmonic.calls"] == 1
    assert summary["sphere.no_such_function.calls"] == 0
    deficit_total = summary["capacity.deficit.total_s"]
    assert 0 < summary["capacity.deficit.self_s"] < deficit_total
    assert summary["sphere.harmonic_basis.rows"] > 0
