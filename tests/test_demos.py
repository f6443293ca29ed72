"""Each demo script runs to completion and prints its report."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_found():
    assert [path.name for path in DEMOS] == [
        "combining_frames.py",
        "performance_profiles.py",
        "stopping_rules.py",
        "timing_benchmark.py",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
