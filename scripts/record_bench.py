"""Record the benchmark of framestop checkouts into ``BENCH_<label>.json``.

    python scripts/record_bench.py --label 4753a93
    python scripts/record_bench.py --label 4753a93 --root ../parent-checkout
    python scripts/record_bench.py --label efbd671=../parent-checkout --label 1f2e3d4

Runs each checkout's own ``perfbench/run.py --trace 0`` on every workload
that the first checkout's ``BENCHMARK.json`` lists, once per seed of
``SEEDS``, for the ``run_seconds`` that file sets, seeds in the outer loop
so that a slow spell of the machine spreads over the workloads.  A label
``NAME=PATH`` measures the checkout at PATH, a bare ``NAME`` the one that
``--root`` names (this script's own by default).  Given several labels,
one invocation alternates them run by run, the first label first on the
first seed, last on the second and so on, so that the files compare runs
made side by side.  Beside each run's result go the CPU steal during the
run, from ``/proc/stat`` (:func:`steal_seconds`; None without that file),
and perfbench's gauge speed (:func:`gauge_speed`), so that a slow spell is
named by data, and the minor page faults of the run's processes
(``ru_minflt`` of ``RUSAGE_CHILDREN``, :func:`minor_faults`), so that a
change to what the process allocates shows as data too.

After each seed's workloads, ``ROUNDS`` = 3 rounds alternating the labels
time methods ``a`` and ``b`` on acceptance criterion 7's recipe
(``STAGE_CLIPS`` = 8 clips of 30 frames, seed 7), each round one fresh
interpreter per label running ``DRIVE`` on the label's own ``src``: an
untimed warm-up drive of the first clip, then ``REPEATS`` = 3 repeats of
two passes over every clip, each with the clips looped to 400 stages, the
last of ``STAGES``.  The whole-stage pass times each stage's absorb plus
estimate (``Stage.seconds``).  The bare-call pass swaps ``_kernels.lib``
for a wrapper that times the stage's compiled calls as one sum, in a
pass of its own so that the wrapper's cost stays out of the whole stage:
``lib.absorb``, and ``lib.spread`` where the label's module has it, as
checkouts before the absorb kept the scan did; a stage of this checkout
is one ``lib.absorb`` call.  Where ``_kernels.status()`` is not
"compiled" the drive exits with it, and the script with the drive's
error: the bare-call pass would time the Python kernels.

The rows of one seed's rounds feed both tables (:func:`tables`): per
column, each clip's minimum over rounds and repeats, the mean over clips
(:func:`best_of_rounds`), then the mean over the stages within ``WINDOW``
of the cell's n, clamped to the stages run (:func:`windowed`), as one
stage's value over a few clips swings by tens of percent.  The per-stage
table's cells ``<method>.n<stage>``, at ``STAGES``, come from the
whole-stage column.  The Python-share table's cells at ``SHARE_STAGES``
hold the whole stage, the bare call and the stage's Python share, their
difference (:func:`python_share`); its ``<method>.n<stage>.stage`` cells
are the per-stage table's cells.

For each label after the first, ``versus`` holds, per seed, the ratio of
each end-to-end value (the metrics ``BENCHMARK.json`` lists as end to
end) and each cell of both tables to the first label's on that seed, and
over the seeds the median ratio and the count of seeds on which the label
is better (:func:`per_seed_ratios`).  The machine's speed drifts between
seeds by more than two labels differ, so a per-seed ratio compares what
was measured side by side.

Each file, written at the root of the checkout holding this script, keeps
every run's result, steal, gauge speed and minor faults, each end-to-end metric's and
each table entry's median, quartiles and IQR, both tables per seed, the
per-seed ratios (``versus``), the machine (``run.py``'s ``machine()``),
the checkout's git HEAD and whether its tracked files differed from it,
the kernels' ``_kernels.status()``, the seeds and the labels it was
recorded alongside.  Nothing in the measured checkouts changes.
"""

import argparse
import importlib.util
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
# fixed, so that two labels recorded on one machine compare run for run
SEEDS = (1, 2, 3, 4, 5)
# the tables: criterion 7's clips looped to the last of STAGES; 4 clips let
# a.n100 and b.n100 swing by 14-21% between labels of one run
STAGE_CLIPS = 8
STAGE_METHODS = ("a", "b")
STAGES = (5, 25, 100, 400)
# each cell of either table averages the stages within this many of its own
WINDOW = 2
# the stages of the Python-share table
SHARE_STAGES = (5, 25)
# rounds per seed, each one interpreter per label, and repeats of both passes per round
ROUNDS = 3
REPEATS = 3
DRIVE = """
import json, math, sys, time
sys.path.insert(0, "src")
from framestop import _kernels
from framestop.harness import SyntheticConfig, generate_synthetic
from framestop.stoppers import StopperConfig, StopperMethod, stages
names, last, clips, repeats = json.loads(sys.argv[1])
config = SyntheticConfig(
    clip_count=clips, text_length=15, alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789",
    frames_per_clip=30, p_sub=0.15, p_del=0.05, p_ins=0.05, confusion_mass=0.2, seed=7,
)
clips = generate_synthetic(config)
configs = [StopperConfig(StopperMethod(name), max_stages=last) for name in names]
if _kernels.status() != "compiled":
    raise SystemExit(f"no compiled kernels: {_kernels.status()}")
lib = _kernels.get()
bare = [0.0]  # seconds inside the compiled calls, this stage

def timed(name):
    call, clock = getattr(lib, name), time.perf_counter
    def run(*args):
        start = clock()
        out = call(*args)
        bare[0] += clock() - start
        return out
    return staticmethod(run)

timed_calls = [name for name in ("absorb", "spread") if hasattr(lib, name)]
wrapper = type("Timed", (), {name: timed(name) for name in timed_calls})()
best = {}  # (method, stage, clip) -> least [whole stage, bare call]

def drive(column):
    for index, clip in enumerate(clips):
        for config in configs:
            for stage in stages(clip, config):
                seconds = stage.seconds if column == 0 else bare[0]
                bare[0] = 0.0
                kept = best.setdefault((config.method.value, stage.number, index), [math.inf] * 2)
                kept[column] = min(kept[column], seconds)

for config in configs:  # the warm-up drive, not timed
    for stage in stages(clips[0], config):
        pass
for _ in range(repeats):
    for column, kernels in enumerate((lib, wrapper)):
        _kernels.lib = kernels
        drive(column)
print(json.dumps([[*key, *seconds] for key, seconds in sorted(best.items())]))
"""


def _machine(root):
    """``machine()`` of the checkout's ``perfbench/run.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.machine()


def _git(root, *args):
    done = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def _status(root):
    """``_kernels.status()`` in a fresh interpreter importing the checkout's ``src``."""
    code = "import sys; sys.path.insert(0, 'src'); from framestop import _kernels; print(_kernels.status())"
    done = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True,
                          check=True)
    return done.stdout.strip()


def steal_seconds(stat, hz):
    """Seconds of CPU steal that ``stat``, the text of ``/proc/stat``,
    counts: the eighth number of its ``cpu`` line, in ticks of 1/``hz`` s."""
    cpu = next(line for line in stat.splitlines() if line.startswith("cpu "))
    return int(cpu.split()[8]) / hz


def _steal():
    """The machine's CPU steal so far, in seconds; None without ``/proc/stat``."""
    try:
        stat = Path("/proc/stat").read_text()
    except FileNotFoundError:
        return None
    return steal_seconds(stat, os.sysconf("SC_CLK_TCK"))


def gauge_speed(stdout):
    """perfbench's gauge speed, from the ``machine speed:`` line of a
    ``run.py`` run's ``stdout``."""
    return float(re.search(r"^machine speed: ([0-9.]+) x", stdout, re.MULTILINE).group(1))


def minor_faults():
    """Minor page faults of this process's children that have been waited
    for, and of their own such children, so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt


def _run(root, workload, seed, seconds):
    """One ``run.py`` run: the JSON object on its last line, the CPU steal
    during it, its gauge speed and its processes' minor page faults."""
    before, faults = _steal(), minor_faults()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    after, faults = _steal(), minor_faults() - faults
    if done.returncode != 0:
        raise SystemExit(f"record_bench: {workload} seed {seed} failed:\n{done.stderr}")
    return {"seed": seed, "steal_s": None if before is None else round(after - before, 3),
            "gauge_speed": gauge_speed(done.stdout), "minor_faults": faults,
            "result": json.loads(done.stdout.strip().splitlines()[-1])}


def windowed(rows, stages=STAGES, window=WINDOW):
    """``{"<method>.n<stage>": mean}`` from ``rows`` of (method, stage,
    seconds): for each method and each stage n of ``stages``, the mean of
    the seconds at stages n - window to n + window, clamped to the stages
    that ``rows`` holds for the method."""
    by_method = {}
    for method, stage, seconds in rows:
        by_method.setdefault(method, {})[stage] = seconds
    table = {}
    for method, seconds in by_method.items():
        for n in stages:
            near = [seconds[k] for k in range(n - window, n + window + 1) if k in seconds]
            table[f"{method}.n{n}"] = sum(near) / len(near)
    return table


def best_of_rounds(rounds):
    """Rows of (method, stage, seconds) from ``rounds``, each the rows of
    (method, stage, clip, seconds) of one round: per method and stage,
    each clip's minimum over the rounds, then the mean over clips, sorted
    by method and stage."""
    best = {}
    for rows in rounds:
        for method, stage, clip, seconds in rows:
            per_clip = best.setdefault((method, stage), {})
            per_clip[clip] = min(per_clip.get(clip, math.inf), seconds)
    return [[method, stage, sum(per_clip.values()) / len(per_clip)]
            for (method, stage), per_clip in sorted(best.items())]


def python_share(rounds, stages=SHARE_STAGES):
    """The Python-share table from ``rounds``, each the rows of (method,
    stage, clip, whole stage, bare call) of one round: per column each
    clip's minimum over the rounds, the mean over clips, then the window
    around each of ``stages`` (:func:`windowed`).  Cells
    ``<method>.n<stage>.<part>`` for the parts ``stage``, ``call`` and
    ``python``, the stage less its bare call."""
    parts = {}
    for column, part in enumerate(("stage", "call"), 3):
        best = best_of_rounds([[row[:3] + [row[column]] for row in rows] for rows in rounds])
        parts[part] = windowed(best, stages)
    table = {}
    for cell, whole in parts["stage"].items():
        call = parts["call"][cell]
        table.update({f"{cell}.stage": whole, f"{cell}.call": call, f"{cell}.python": whole - call})
    return table


def tables(rounds, stages=STAGES, share_stages=SHARE_STAGES):
    """The per-stage table and the Python-share table of ``rounds``, each
    the rows of one round of ``DRIVE``: the first from the whole-stage
    column alone, the second from both (:func:`python_share`), so
    that its ``<method>.n<stage>.stage`` cells are the first's cells."""
    whole = best_of_rounds([[row[:4] for row in rows] for rows in rounds])
    return windowed(whole, stages), python_share(rounds, share_stages)


def per_seed_ratios(first, other, better):
    """``other``'s value over ``first``'s, seed by seed, both lists in seed
    order, summarised: the ratios, their median and on how many seeds
    ``other`` is better, ``better`` being "lower" or "higher"."""
    ratios = [b / a for a, b in zip(first, other)]
    wins = sum(ratio < 1.0 if better == "lower" else ratio > 1.0 for ratio in ratios)
    return {"ratios": ratios, "median": statistics.median(ratios), "better": wins,
            "seeds": len(ratios)}


def versus(first, record, directions):
    """Per-seed ratios of ``record`` to the ``first`` record: every
    end-to-end value named in ``directions`` ({metric: "lower" or
    "higher"}) per workload, and every cell of the per-stage and
    Python-share tables, lower being better."""
    def values(record, workload, metric):
        return [run["result"]["metrics"][metric]["value"] for run in record["runs"][workload]]

    def cells(first_runs, runs):
        return {cell: per_seed_ratios([table[cell] for table in first_runs],
                                      [table[cell] for table in runs], "lower")
                for cell in first_runs[0]}

    return {
        "label": first["label"],
        "end_to_end": {
            workload: {metric: per_seed_ratios(values(first, workload, metric),
                                               values(record, workload, metric), better)
                       for metric, better in directions.items()}
            for workload in first["runs"]
        },
        "stage_table": cells(first["stage_table"]["runs"], record["stage_table"]["runs"]),
        "python_share": cells(first["python_share"]["runs"], record["python_share"]["runs"]),
    }


def _in_checkout(root, script, given, what):
    """The JSON on the last line of ``script`` run with ``given`` in the checkout."""
    done = subprocess.run([sys.executable, "-c", script, json.dumps(given)], cwd=root,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"record_bench: the {what} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _round(root):
    """The rows of one round of ``DRIVE``, run in the checkout."""
    given = [STAGE_METHODS, STAGES[-1], STAGE_CLIPS, REPEATS]
    return _in_checkout(root, DRIVE, given, "timing drive")


def _summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def _record(label, root, seconds, workloads, alongside):
    timing = {
        "clips": STAGE_CLIPS, "rounds": ROUNDS, "repeats": REPEATS, "window": WINDOW, "unit": "s",
        "drive": "per seed, rounds alternating the labels, each one fresh interpreter per label: "
                 "an untimed warm-up drive of the first clip, then per repeat a whole-stage pass "
                 f"and a bare-call pass over every clip, each looped to stage {STAGES[-1]}",
        "cell": "each column's per-clip minimum over rounds and repeats, the mean over clips, "
                "then the mean over stages n - window .. n + window, clamped to the stages run",
    }
    return {
        "label": label,
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_head": _git(root, "rev-parse", "HEAD"),
        "git_dirty": bool(_git(root, "status", "--porcelain", "--untracked-files=no")),
        "machine": _machine(root),
        "kernels": _status(root),
        "seeds": list(SEEDS),
        "run_seconds": seconds,
        "command": "perfbench/run.py --workload <name> --seed <seed> --seconds <s> --trace 0",
        "alongside": alongside,
        "runs": {workload: [] for workload in workloads},
        "stage_table": {**timing, "max_stages": STAGES[-1],
                        "column": "Stage.seconds of the whole-stage passes, absorb plus "
                                  "estimate", "runs": []},
        "python_share": {**timing, "stages": list(SHARE_STAGES),
                         "parts": "stage: the per-stage table's column; call: the stage's "
                                  "bare compiled calls, lib.absorb and lib.spread where "
                                  "the module has it, summed, "
                                  "timed through a wrapper of _kernels.lib in the bare-call "
                                  "passes; python: stage - call", "runs": []},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, action="append",
                        help="NAME or NAME=PATH; names the output, BENCH_<NAME>.json (repeatable)")
    parser.add_argument("--root", type=Path, default=HERE,
                        help="checkout of the labels given without a path")
    args = parser.parse_args(argv)
    checkouts = {}
    for given in args.label:
        label, _, path = given.partition("=")
        if not label or label in checkouts:
            parser.error(f"--label {given!r}: empty or repeated name")
        checkouts[label] = (Path(path) if path else args.root).resolve()
    labels = list(checkouts)
    config = json.loads((checkouts[labels[0]] / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in config["workloads"]]
    directions = {metric["name"]: metric["better"] for metric in config["end_to_end"]}
    seconds = config["run_seconds"]
    records = {
        label: _record(label, root, seconds, workloads, [other for other in labels if other != label])
        for label, root in checkouts.items()
    }
    for number, seed in enumerate(SEEDS):
        for workload in workloads:
            for label in labels if number % 2 == 0 else labels[::-1]:
                run = _run(checkouts[label], workload, seed, seconds)
                records[label]["runs"][workload].append(run)
                stages = run["result"]["metrics"]["stages_per_s"]["value"]
                print(f"{label} {workload} seed {seed}: stages_per_s {stages:.0f}, "
                      f"steal {run['steal_s']} s, gauge {run['gauge_speed']}, "
                      f"minor faults {run['minor_faults']}", flush=True)
        rounds = {label: [] for label in labels}
        for repeat in range(ROUNDS):
            for label in labels if (number + repeat) % 2 == 0 else labels[::-1]:
                rounds[label].append(_round(checkouts[label]))
        for label in labels:
            stage_table, share = tables(rounds[label])
            records[label]["stage_table"]["runs"].append(stage_table)
            records[label]["python_share"]["runs"].append(share)
            print(f"{label} tables seed {seed}: a.n25 {stage_table['a.n25'] * 1e6:.2f} us, "
                  f"{share['a.n25.python'] * 1e6:.2f} us of it Python; "
                  f"a.n400 {stage_table['a.n400'] * 1e6:.1f} us", flush=True)
    for label in labels[1:]:
        records[label]["versus"] = versus(records[labels[0]], records[label], directions)
    for record in records.values():
        record["summary"] = {
            workload: {
                metric: _summary([run["result"]["metrics"][metric]["value"] for run in runs])
                for metric in runs[0]["result"]["metrics"]
            }
            for workload, runs in record["runs"].items()
        }
        for name in ("stage_table", "python_share"):
            runs = record[name]["runs"]
            record[name]["summary"] = {
                key: _summary([table[key] for table in runs]) for key in runs[0]
            }
        out = HERE / f"BENCH_{record['label']}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
