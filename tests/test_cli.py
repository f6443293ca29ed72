import csv

import pytest

from framestop.cli import main
from framestop.harness import load_clips


def read_csv(path):
    with open(path) as handle:
        return list(csv.DictReader(handle))


@pytest.fixture
def clips_file(tmp_path):
    path = tmp_path / "clips.jsonl"
    code = main(
        [
            "gen",
            "-o", str(path),
            "--clips", "3",
            "--frames", "6",
            "--text-length", "4",
            "--alphabet", "ABCD",
            "--p-sub", "0.2",
            "--confusion", "0.25",
            "--seed", "3",
        ]
    )
    assert code == 0
    return path


def test_gen_writes_loadable_clips(clips_file):
    clips = load_clips(clips_file)
    assert len(clips) == 3
    assert all(len(clip.frames) == 6 for clip in clips)


def test_gen_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["gen", "--clips", "2", "--text-length", "3", "--seed", "9"]
    assert main(args + ["-o", str(p1)]) == 0
    assert main(args + ["-o", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_simulate_end_to_end(clips_file, tmp_path):
    out = tmp_path / "sim.csv"
    code = main(
        [
            "simulate",
            "-i", str(clips_file),
            "-o", str(out),
            "--method", "a",
            "--threshold", "0.06",
        ]
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 3
    assert set(rows[0]) == {"clip_id", "stop_stage", "forced", "final_error", "estimate_at_stop"}


def test_simulate_fixed_needs_stage(clips_file, tmp_path, capsys):
    code = main(
        ["simulate", "-i", str(clips_file), "-o", str(tmp_path / "x.csv"), "--method", "fixed"]
    )
    assert code == 1
    assert "needs --stage" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value", [("--delta", "nan"), ("--delta", "inf"), ("--threshold", "nan")]
)
def test_simulate_non_finite_config_exits_without_traceback(
    clips_file, tmp_path, capsys, flag, value
):
    code = main(
        ["simulate", "-i", str(clips_file), "-o", str(tmp_path / "x.csv"), flag, value]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "must be finite" in err
    assert "Traceback" not in err


def test_simulate_missing_input_fails(tmp_path, capsys):
    code = main(
        ["simulate", "-i", str(tmp_path / "nope.jsonl"), "-o", str(tmp_path / "x.csv")]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_profile_end_to_end(clips_file, tmp_path):
    out = tmp_path / "profile.csv"
    code = main(
        [
            "profile",
            "-i", str(clips_file),
            "-o", str(out),
            "--method", "b",
            "--thresholds", "0:0.2:0.05",
        ]
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 5
    assert [float(r["threshold"]) for r in rows] == pytest.approx([0, 0.05, 0.1, 0.15, 0.2])
    stages = [float(r["mean_stop_stage"]) for r in rows]
    assert stages == sorted(stages, reverse=True)


def test_profile_fixed_stage_grid(clips_file, tmp_path):
    out = tmp_path / "baseline.csv"
    code = main(
        [
            "profile",
            "-i", str(clips_file),
            "-o", str(out),
            "--method", "fixed",
            "--thresholds", "1:10:1",
        ]
    )
    assert code == 0
    assert len(read_csv(out)) == 10


def test_profile_bad_grid(clips_file, tmp_path, capsys):
    code = main(
        [
            "profile",
            "-i", str(clips_file),
            "-o", str(tmp_path / "x.csv"),
            "--thresholds", "5:1:1",
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "profile", "bench"])
def test_max_stages_above_the_cap_exits_before_reading_clips(tmp_path, capsys, command):
    # the input does not exist: the cap must be checked before it is opened
    args = [command, "-i", str(tmp_path / "absent.jsonl"), "-o", str(tmp_path / "x.csv")]
    if command == "profile":
        args += ["--thresholds", "0:0.1:0.05"]
    if command != "bench":
        args += ["--method", "a"]
    assert main(args + ["--max-stages", "100000000"]) == 1
    err = capsys.readouterr().err
    assert "--max-stages 100000000 is above the cap of 10000" in err
    assert not (tmp_path / "x.csv").exists()
    # at the cap, the input is read and found missing
    assert main(args + ["--max-stages", "10000"]) == 1
    assert "absent.jsonl" in capsys.readouterr().err


def test_profile_non_finite_grid_exits_without_traceback(clips_file, tmp_path, capsys):
    code = main(
        [
            "profile",
            "-i", str(clips_file),
            "-o", str(tmp_path / "x.csv"),
            "--thresholds", "0:inf:1",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def test_bench_end_to_end(clips_file, tmp_path):
    out = tmp_path / "bench.csv"
    code = main(
        [
            "bench",
            "-i", str(clips_file),
            "-o", str(out),
            "--method", "a",
            "--method", "b",
            "--max-stages", "4",
            "--repeats", "2",
        ]
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 8
    assert {r["method"] for r in rows} == {"a", "b"}
    assert all(int(r["samples"]) == 6 for r in rows)


def test_bench_defaults_to_all_methods(clips_file, tmp_path):
    out = tmp_path / "bench_all.csv"
    code = main(["bench", "-i", str(clips_file), "-o", str(out), "--max-stages", "3"])
    assert code == 0
    assert {r["method"] for r in read_csv(out)} == {"base", "a", "b"}


def test_simulate_accepts_scores_near_the_float_maximum(tmp_path):
    path = tmp_path / "clips.jsonl"
    path.write_text('{"id": "big", "alphabet": "AB", "truth": "A", "frames": [{"rows": [[1e308, 1e308]]}]}\n')
    out = tmp_path / "sim.csv"
    with pytest.warns(UserWarning, match="renormalizing"):
        code = main(["simulate", "-i", str(path), "-o", str(out), "--method", "a"])
    assert code == 0
    assert [row["clip_id"] for row in read_csv(out)] == ["big"]


MALFORMED_LINES = {
    "non-object": "[1, 2, 3]",
    "frames-not-a-list": '{"id": "x", "alphabet": "AB", "truth": "A", "frames": 5}',
    "ragged-rows": '{"id": "x", "alphabet": "AB", "truth": "A", "frames": [{"rows": [[1, 0], [1]]}]}',
    "string-entries": '{"id": "x", "alphabet": "AB", "truth": "A", "frames": [{"rows": [["a", "b"]]}]}',
    "nan-weight": '{"id": "x", "alphabet": "AB", "truth": "A", "frames": [{"w": NaN, "rows": [[1, 0]]}]}',
    "deep-nesting": "[" * 100_000 + "]" * 100_000,
    "huge-integer": (
        '{"id": "x", "alphabet": "AB", "truth": "A", "frames": [{"rows": [[1%s, 0]]}]}' % ("0" * 400)
    ),
}
COMMANDS = {
    "simulate": ["simulate", "--method", "a", "--threshold", "0.05"],
    "profile": ["profile", "--method", "b", "--thresholds", "0:0.1:0.05"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("case", sorted(MALFORMED_LINES))
def test_malformed_jsonl_exits_without_traceback(tmp_path, capsys, command, case):
    good = '{"id": "ok", "alphabet": "AB", "truth": "A", "frames": [{"rows": [[0.9, 0.1]]}]}'
    path = tmp_path / "clips.jsonl"
    path.write_text(good + "\n" + MALFORMED_LINES[case] + "\n")
    argv = COMMANDS[command] + ["-i", str(path), "-o", str(tmp_path / "out.csv")]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert f"{path}:2:" in err
    assert "Traceback" not in err
