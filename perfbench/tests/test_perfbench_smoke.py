"""Smoke test of the benchmark at a tiny size: every metric is emitted, the
output checks catch wrong estimates, and a directory without the framestop
sources fails without printing a result."""

import dataclasses
import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for entry in (str(ROOT / "src"), str(BENCH)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import gauge  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _quick_setup(monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_SECONDS", 0.0)


def _tiny(name):
    workload = workloads.WORKLOADS[name]
    horizon = 40 if workload.long_horizon else workload.max_stages
    return dataclasses.replace(workload, clips=2, max_stages=horizon)


def _run_cli(argv, monkeypatch, capsys, tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    for workload in SPEC["workloads"]:
        monkeypatch.setitem(workloads.WORKLOADS, workload["name"], _tiny(workload["name"]))
    assert module.main(argv) == 0
    return capsys.readouterr().out.strip().splitlines()


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(name, trace, monkeypatch, capsys, tmp_path):
    argv = ["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    lines = _run_cli(argv, monkeypatch, capsys, tmp_path)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)
    for metric in expected:
        assert any(line.startswith(metric["name"] + " ") for line in lines[:-1])


def _shifted(scale):
    real = workloads._estimate

    def wrong(method, state, observed):
        breakdown = real(method, state, observed)
        return dataclasses.replace(breakdown, estimate=breakdown.estimate * scale)

    return wrong


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("scale", [1.001, float("nan")])
def test_checks_catch_a_wrong_estimate(name, scale, monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "_estimate", _shifted(scale))
    result = workloads.run(_tiny(name), 5, 0.01, tmp_path)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["problems"]


def test_checks_catch_b_disagreeing_with_a(monkeypatch, tmp_path):
    real = workloads._estimate

    def skewed(method, state, observed):
        breakdown = real(method, state, observed)
        if method != "b":
            return breakdown
        return dataclasses.replace(breakdown, gld_aggregate=breakdown.gld_aggregate + 1e-6)

    monkeypatch.setattr(workloads, "_estimate", skewed)
    result = workloads.run(_tiny("online-fast"), 5, 0.01, tmp_path)
    assert result["failed"] == result["attempted"]
    assert any("gld_aggregate" in p for p in result["problems"])


def test_gauge_scales_by_the_samples_around_an_interval():
    g = gauge.Gauge()
    g.ends, g.times = [100, 200, 300], [gauge.REF_NS, 3 * gauge.REF_NS, gauge.REF_NS]
    assert g.scale(150) == pytest.approx(0.5)  # between the first two samples
    assert g.scale(250) == pytest.approx(0.5)
    assert g.speed() == pytest.approx(1.0)


def test_fails_without_framestop_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "online-base", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
