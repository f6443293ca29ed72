import csv
import json

import pytest

from framestop import cli, harness
from framestop.cli import main
from framestop.combiner import CombinerState
from framestop.harness import MAX_CLASSES, MAX_FRAME_ROWS, load_clips


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


def test_gen_above_the_size_cap_exits_before_generating(tmp_path, capsys, monkeypatch):
    def unreachable(config):
        raise AssertionError("corpus generated above the cap")

    monkeypatch.setattr(cli, "generate_synthetic", unreachable)
    out = tmp_path / "clips.jsonl"
    assert main(["gen", "-o", str(out), "--clips", "1000000000", "--alphabet", "AB"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"above the cap of {cli.MAX_GEN_VALUES}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "p_ins, longest", [("0", MAX_FRAME_ROWS), ("0.05", MAX_FRAME_ROWS // 2)], ids=["no-ins", "ins"]
)
def test_gen_refuses_frames_above_the_row_cap(tmp_path, capsys, monkeypatch, p_ins, longest):
    args = ["gen", "--clips", "1", "--frames", "2", "--alphabet", "AB", "--p-ins", p_ins]
    # the longest text accepted writes clips that simulate loads
    accepted = tmp_path / "accepted.jsonl"
    assert main([*args, "--text-length", str(longest), "-o", str(accepted)]) == 0
    out = tmp_path / "sim.csv"
    assert main(["simulate", "-i", str(accepted), "-o", str(out), "--max-stages", "2"]) == 0
    assert len(read_csv(out)) == 1

    def unreachable(config):
        raise AssertionError("corpus generated above the row cap")

    monkeypatch.setattr(cli, "generate_synthetic", unreachable)
    refused = tmp_path / "refused.jsonl"
    assert main([*args, "--text-length", str(longest + 1), "-o", str(refused)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"above the cap of {MAX_FRAME_ROWS}" in err
    assert not refused.exists()


def test_gen_refuses_an_alphabet_above_the_symbol_cap(tmp_path, capsys):
    symbols = "".join(chr(0x100 + i) for i in range(MAX_CLASSES + 1))
    at_cap = tmp_path / "at-cap.jsonl"
    args = ["gen", "--clips", "1", "--frames", "1", "--text-length", "2"]
    assert main([*args, "--alphabet", symbols[:-1], "-o", str(at_cap)]) == 0
    assert load_clips(at_cap)[0].alphabet.size == MAX_CLASSES
    refused = tmp_path / "refused.jsonl"
    assert main([*args, "--alphabet", symbols, "-o", str(refused)]) == 1
    assert f"above the cap of {MAX_CLASSES}" in capsys.readouterr().err
    assert not refused.exists()


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
    out = tmp_path / "fixed.csv"
    code = main(
        ["simulate", "-i", str(clips_file), "-o", str(out), "--method", "fixed", "--stage", "2"]
    )
    assert code == 0
    assert [row["stop_stage"] for row in read_csv(out)] == ["2"] * 3


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


def _record_over_a_cap(cap):
    if cap == "rows":  # K = 2, one row more than the cap
        return "AB", [[1.0, 0.0]] * (MAX_FRAME_ROWS + 1), f"rows, above the cap of {MAX_FRAME_ROWS}"
    symbols = "".join(chr(0x100 + i) for i in range(MAX_CLASSES + 1))
    return symbols, [[1.0] + [0.0] * MAX_CLASSES], f"symbols, above the cap of {MAX_CLASSES}"


@pytest.mark.parametrize("cap", ["rows", "symbols"])
def test_simulate_input_above_a_load_cap_exits_before_building_frames(
    tmp_path, capsys, monkeypatch, cap
):
    def unreachable(*args, **kwargs):
        raise AssertionError("frame built above a cap")

    alphabet, rows, message = _record_over_a_cap(cap)
    path = tmp_path / "big.jsonl"
    record = {"id": "big", "alphabet": alphabet, "truth": "", "frames": [{"rows": rows}]}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    monkeypatch.setattr(harness, "make_frame", unreachable)
    code = main(["simulate", "-i", str(path), "-o", str(tmp_path / "x.csv"), "--method", "base"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:1:") and message in err
    assert "Traceback" not in err


def test_input_at_the_load_caps_loads(tmp_path):
    symbols = "".join(chr(0x100 + i) for i in range(MAX_CLASSES))
    rows = [[1.0] + [0.0] * (MAX_CLASSES - 1)] * MAX_FRAME_ROWS
    path = tmp_path / "at-cap.jsonl"
    record = {"id": "at-cap", "alphabet": symbols, "truth": "", "frames": [{"rows": rows}]}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    (clip,) = load_clips(path)
    assert clip.alphabet.size == MAX_CLASSES
    assert clip.frames[0].num_chars == MAX_FRAME_ROWS


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
    "bool-weight": '{"id": "x", "alphabet": "AB", "truth": "A", "frames": [{"w": false, "rows": [[1, 0]]}]}',
    "empty-rows": '{"id": "x", "alphabet": "AB", "truth": "A", "frames": [{"rows": [[], []]}]}',
    "list-truth": '{"id": "x", "alphabet": "AB", "truth": ["A"], "frames": [{"rows": [[1, 0]]}]}',
    "list-id": '{"id": ["x"], "alphabet": "AB", "truth": "A", "frames": [{"rows": [[1, 0]]}]}',
    "bool-rows": '{"id": "x", "alphabet": "AB", "truth": "A", "frames": [{"rows": [[true, false]]}]}',
    "string-rows": '{"id": "x", "alphabet": "AB", "truth": "A", "frames": [{"rows": [["0.3", "0.7"]]}]}',
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


def _clip_at_the_load_caps(tmp_path):
    """One clip of two frames of ``MAX_FRAME_ROWS`` rows over ``MAX_CLASSES``
    symbols, the largest frames the loader accepts."""
    symbols = "".join(chr(0x100 + i) for i in range(MAX_CLASSES))
    rows = [[1.0] + [0.0] * (MAX_CLASSES - 1)] * MAX_FRAME_ROWS
    path = tmp_path / "at-cap.jsonl"
    record = {"id": "at-cap", "alphabet": symbols, "truth": "", "frames": [{"rows": rows}] * 2}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return path


def _history_args(command, path, out):
    args = [command, "-i", str(path), "-o", str(out)]
    if command == "profile":
        args += ["--thresholds", "0:0.1:0.05"]
    return args


@pytest.mark.parametrize("method", ["a", "b"])
@pytest.mark.parametrize("command", ["simulate", "profile", "bench"])
def test_a_history_above_its_cap_exits_before_any_stage(
    tmp_path, capsys, monkeypatch, command, method
):
    def unreachable(*args, **kwargs):
        raise AssertionError("a stage ran above the history cap")

    monkeypatch.setattr(CombinerState, "absorb", unreachable)
    out = tmp_path / "x.csv"
    args = _history_args(command, _clip_at_the_load_caps(tmp_path), out)
    assert main(args + ["--method", method, "--max-stages", str(cli.MAX_STAGES)]) == 1
    err = capsys.readouterr().err
    values = cli.MAX_STAGES * MAX_FRAME_ROWS * (MAX_CLASSES + 1)
    assert err == (
        f"error: clip at-cap: --max-stages {cli.MAX_STAGES} x {MAX_FRAME_ROWS} rows per frame "
        f"over {MAX_CLASSES} symbols keeps up to {values} history values for methods a and b, "
        f"above the cap of {cli.MAX_HISTORY_VALUES}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "profile", "bench"])
def test_the_history_cap_is_inclusive_and_spares_the_base_method(
    tmp_path, capsys, monkeypatch, command
):
    # a cap of exactly three stages of the clip's frames, scaled down so the runs stay small
    path = _clip_at_the_load_caps(tmp_path)
    monkeypatch.setattr(cli, "MAX_HISTORY_VALUES", 3 * MAX_FRAME_ROWS * (MAX_CLASSES + 1))
    args = _history_args(command, path, tmp_path / "x.csv")
    assert main(args + ["--method", "a", "--max-stages", "3"]) == 0
    assert main(args + ["--method", "base", "--max-stages", "4"]) == 0
    assert main(args + ["--method", "b", "--max-stages", "4"]) == 1
    assert "above the cap of" in capsys.readouterr().err
