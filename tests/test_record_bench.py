"""scripts/record_bench.py: the rounds and windows of its two tables, which one drive
feeds, the per-seed ratios, and the steal, gauge speed and minor faults kept beside
each run."""

import importlib.util
import mmap
import shlex
import shutil
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "record_bench.py"


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


def test_a_stage_is_each_clips_best_round_then_the_mean_over_clips(record_bench):
    # three rounds of one repeat each: clip 0 of a is fastest in round 1,
    # clip 1 in round 0; b's stage 2 ran one clip
    rounds = [
        [["a", 1, 0, 3.0], ["a", 1, 1, 5.0], ["b", 2, 0, 2.0]],
        [["a", 1, 0, 1.0], ["a", 1, 1, 6.0], ["b", 2, 0, 4.0]],
        [["a", 1, 0, 2.0], ["a", 1, 1, 9.0], ["b", 2, 0, 3.0]],
    ]
    assert record_bench.best_of_rounds(rounds) == [["a", 1, 3.0], ["b", 2, 2.0]]
    assert record_bench.best_of_rounds(rounds[::-1]) == record_bench.best_of_rounds(rounds)
    assert record_bench.best_of_rounds(rounds[:1]) == [["a", 1, 4.0], ["b", 2, 2.0]]


def test_per_seed_ratios_count_the_seeds_a_label_is_better_on(record_bench):
    got = record_bench.per_seed_ratios([2.0, 4.0, 5.0], [1.0, 5.0, 4.0], "lower")
    assert got == {"ratios": [0.5, 1.25, 0.8], "median": 0.8, "better": 2, "seeds": 3}
    got = record_bench.per_seed_ratios([2.0, 4.0, 5.0], [1.0, 5.0, 5.0], "higher")
    assert got["better"] == 1 and got["median"] == 1.0  # a tie is not better


def _record(label, scale, stages_per_s):
    """A record of two seeds whose timings are the parent's times ``scale``."""
    runs = [{"seed": seed, "result": {"metrics": {
        "stages_per_s": {"value": value}, "stage_ms_p50": {"value": scale * seed},
        "setup_s": {"value": 9.0}}}} for seed, value in zip((1, 2), stages_per_s)]
    return {
        "label": label,
        "runs": {"online-fast": runs},
        "stage_table": {"runs": [{"a.n5": scale * 1.0}, {"a.n5": scale * 3.0}]},
        "python_share": {"runs": [{"a.n5.python": scale * 2.0}, {"a.n5.python": 2.0}]},
    }


def test_versus_pairs_each_seed_with_the_first_labels_run_of_it(record_bench):
    first = _record("parent", 1.0, (100.0, 200.0))
    other = _record("change", 0.5, (110.0, 180.0))
    got = record_bench.versus(first, other, {"stages_per_s": "higher", "stage_ms_p50": "lower"})
    assert got["label"] == "parent"
    fast = got["end_to_end"]["online-fast"]
    assert set(fast) == {"stages_per_s", "stage_ms_p50"}  # setup_s is not named
    assert fast["stages_per_s"]["ratios"] == [1.1, 0.9] and fast["stages_per_s"]["better"] == 1
    assert fast["stage_ms_p50"] == {"ratios": [0.5, 0.5], "median": 0.5, "better": 2, "seeds": 2}
    assert got["stage_table"]["a.n5"]["ratios"] == [0.5, 0.5]
    assert got["python_share"]["a.n5.python"] == {"ratios": [0.5, 1.0], "median": 0.75,
                                                  "better": 1, "seeds": 2}


def test_the_python_share_is_the_stage_less_its_bare_call(record_bench):
    # rows of (method, stage, clip, whole stage, bare call); two rounds,
    # each part's minimum taken on its own, then the mean over clips
    rounds = [
        [["a", 5, 0, 10.0, 4.0], ["a", 5, 1, 12.0, 5.0]],
        [["a", 5, 0, 11.0, 3.0], ["a", 5, 1, 14.0, 6.0]],
    ]
    got = record_bench.python_share(rounds, stages=(5,))
    assert got == {"a.n5.stage": 11.0, "a.n5.call": 4.0, "a.n5.python": 7.0}


def _cells_agree(stage_table, share):
    shared = [cell for cell in stage_table if f"{cell}.stage" in share]
    assert shared
    for cell in shared:
        assert stage_table[cell] == share[f"{cell}.stage"], cell


def test_both_tables_take_the_whole_stage_from_the_same_rows(record_bench):
    # two rounds of the recorded drive's shape: both passes to stage 400
    rounds = [
        [[method, k, clip, (k + clip + 1) * scale * (1 + 0.3 * turn), k * 0.25 * scale]
         for method, scale in (("a", 1.0), ("b", 3.0)) for k in range(1, 401) for clip in (0, 1)]
        for turn in (1, 0)
    ]
    stage_table, share = record_bench.tables(rounds)
    assert set(stage_table) == {f"{m}.n{n}" for m in "ab" for n in (5, 25, 100, 400)}
    assert set(share) == {f"{m}.n{n}.{part}" for m in "ab" for n in (5, 25)
                          for part in ("stage", "call", "python")}
    _cells_agree(stage_table, share)
    assert stage_table["a.n5"] == pytest.approx(6.5)  # stages 3-7 of clips taking 1 + k, 2 + k
    assert stage_table["b.n400"] == pytest.approx(3 * 400.5)  # stages 398-400, clamped
    assert share["a.n25.call"] == pytest.approx(25 * 0.25)


def test_the_drive_runs_in_a_checkout_and_feeds_both_tables(record_bench, compiled):
    # a tiny drive: one clip, both passes to stage 30, one repeat
    rows = record_bench._in_checkout(ROOT, record_bench.DRIVE, [["a", "b"], 30, 1, 1],
                                     "timing drive")
    assert [row[:3] for row in rows] == [[method, k, 0] for method in "ab" for k in range(1, 31)]
    for method, stage, _, whole, call in rows:
        assert whole > 0 and call > 0
    stage_table, share = record_bench.tables([rows], stages=(5, 25))
    assert set(stage_table) == {"a.n5", "a.n25", "b.n5", "b.n25"}
    _cells_agree(stage_table, share)


def test_the_drive_refuses_to_time_the_python_kernels(record_bench, monkeypatch):
    # PATH holds the interpreter's own bin directory alone, as in CI's
    # no-compiler job, so the drive's interpreter finds no C compiler
    bin_dir = str(Path(sys.executable).parent)
    cc = sysconfig.get_config_var("CC")
    if cc and shutil.which(shlex.split(cc)[0], path=bin_dir):
        pytest.skip(f"the interpreter's bin directory holds the compiler {cc!r}")
    monkeypatch.setenv("PATH", bin_dir)
    with pytest.raises(SystemExit, match="no compiled kernels: python: no C compiler"):
        record_bench._in_checkout(ROOT, record_bench.DRIVE, [["a"], 2, 1, 1], "timing drive")


STAT = """cpu  2786560 65932 1144112 26686584 12260 0 35750 187 0 0
cpu0 1393280 32966 572056 13343292 6130 0 17875 90 0 0
intr 114930548 113199788 3 0 5 263 0 0 0
ctxt 1990473
"""


def test_the_steal_is_the_eighth_count_of_the_cpu_line(record_bench):
    assert record_bench.steal_seconds(STAT, hz=100) == 1.87  # not cpu0's 90 ticks


def test_the_gauge_speed_is_read_from_the_machine_speed_line(record_bench):
    stdout = ("workload=online-fast seed=1 trace=0 python=3.11.7\n"
              "stages_per_s                            71234.000000 1/s\n"
              "machine speed: 0.873 x the gauge's reference (timings are scaled by it)\n"
              "operations: 12 attempted, 0 failed\n"
              '{"correct": true, "attempted": 12, "failed": 0, "metrics": {}}\n')
    assert record_bench.gauge_speed(stdout) == 0.873


# a stand-in for a checkout's perfbench/run.py: it writes one byte in each
# page of as many MiB as its --seconds, in small pages whatever the machine's
# huge-page mode, then prints the lines record_bench reads
FAKE_RUN = """import json, mmap, sys
size = int(sys.argv[sys.argv.index("--seconds") + 1]) << 20
if size:
    pages = mmap.mmap(-1, size)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        pages.madvise(mmap.MADV_NOHUGEPAGE)
    for at in range(0, size, mmap.PAGESIZE):
        pages[at] = 1
print("machine speed: 0.5 x the gauge's reference")
print(json.dumps({"correct": True, "metrics": {}}))
"""


def test_a_runs_minor_faults_are_its_own_processes(record_bench, tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(FAKE_RUN)
    faults = {mib: record_bench._run(tmp_path, "online-fast", 1, mib)["minor_faults"]
              for mib in (0, 32)}
    pages = (32 << 20) // mmap.PAGESIZE
    assert 0 < faults[0] < pages  # the interpreter's own start
    assert faults[32] - faults[0] >= 0.9 * pages
    run = record_bench._run(tmp_path, "online-fast", 1, 0)
    assert set(run) == {"seed", "steal_s", "gauge_speed", "minor_faults", "result"}
    assert run["gauge_speed"] == 0.5 and run["result"]["correct"]
