"""The per-stage table of scripts/record_bench.py."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "record_bench.py"


@pytest.fixture(scope="module")
def record_bench():
    spec = importlib.util.spec_from_file_location("record_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_per_stage_cell_is_the_mean_of_its_window_clamped_to_the_run(record_bench):
    # stage k of method a took k seconds, of method b 10 k; the run ends at stage 9
    rows = [[method, k, k * scale] for k in range(1, 10) for method, scale in (("a", 1), ("b", 10))]
    table = record_bench.windowed(rows, stages=(1, 2, 5, 8, 9), window=2)
    assert table == {
        "a.n1": 2.0,  # stages 1-3
        "a.n2": 2.5,  # stages 1-4
        "a.n5": 5.0,  # stages 3-7
        "a.n8": 7.5,  # stages 6-9
        "a.n9": 8.0,  # stages 7-9
        "b.n1": 20.0, "b.n2": 25.0, "b.n5": 50.0, "b.n8": 75.0, "b.n9": 80.0,
    }


def test_the_recorded_window_is_two_stages_each_side(record_bench):
    assert record_bench.WINDOW == 2
    rows = [["a", k, float(k == 25)] for k in range(1, 401)]  # one stage's spike
    table = record_bench.windowed(rows)
    assert table["a.n25"] == 0.2 and table["a.n5"] == table["a.n400"] == 0.0
