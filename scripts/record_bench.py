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
one invocation alternates them run by run, every workload of every seed
measuring each label in turn, the first label first on the first seed,
last on the second and so on, so that the files compare runs made side
by side rather than minutes apart.

After each seed's workloads every label also records a per-stage table
of methods ``a`` and ``b`` (absorb plus estimate) on acceptance
criterion 7's recipe (``STAGE_CLIPS`` = 8 clips of 30 frames, seed 7)
with the clips looped to 400 stages.  Its ``STAGE_REPEATS`` = 3 repeats
run as three rounds that alternate the labels, so that a slow spell of
the machine falls on every label rather than on one label's table; each
round runs one repeat per label in a fresh interpreter on the label's
own ``src`` (``harness.bench`` of one clip at a time, ``repeats=1``),
after an untimed warm-up drive of the first clip.  Each stage's seconds
are each clip's minimum over the rounds, then the mean over clips
(:func:`best_of_rounds`), the statistic of ``harness.bench``'s
``best_seconds`` with ``repeats=3``.  The cell ``<method>.n<stage>``,
for stages 5, 25, 100 and 400, is the mean of those seconds over the
stages within ``WINDOW`` of it, n - 2 to n + 2, clamped to the stages
run (:func:`windowed`), as one stage's value over a few clips swings by
tens of percent.

After the per-stage table every label also records a Python-share table
of ``a`` and ``b`` at stages ``SHARE_STAGES`` (5 and 25) of the same
recipe, not looped: each cell's whole stage, the bare compiled calls
``lib.absorb`` and ``lib.spread`` it makes, and their difference, the
stage's Python share (:func:`python_share`).  Its ``SHARE_ROUNDS`` = 3
rounds alternate the labels as the per-stage table's do, each round one
fresh interpreter per label running ``PYTHON_SHARE``: an untimed warm-up
drive, then ``SHARE_REPEATS`` repeats, each a pass over every clip timing
the whole stages (``Stage.seconds``) and then one with ``_kernels.lib``
swapped for a wrapper that times each bare call.  The bare calls are timed
in passes of their own, so that the wrapper's cost stays out of the whole
stage, and the two kinds of pass alternate, so that a slow spell of the
machine falls on both rather than on one part of the difference.

For each label after the first, ``versus`` holds, per seed, the ratio of
each end-to-end value (each run's, for the metrics ``BENCHMARK.json``
lists as end to end) and each cell of both tables to the first label's
on that seed, and over the seeds the median ratio and the count of seeds
on which the label is better (:func:`per_seed_ratios`).  The machine's
speed drifts between seeds by more than two labels differ, while the
alternated runs keep one seed's pair together, so a per-seed ratio
compares what was measured side by side.

Each file, written at the root of the checkout holding this script, keeps
every run's JSON result, each end-to-end metric's median, quartiles and
IQR per workload, every per-stage and Python-share table and each entry's
median, quartiles and IQR, the per-seed ratios (``versus``), the machine
(``run.py``'s ``machine()``), the checkout's git HEAD and whether its
tracked files differed from it, the kernels' ``_kernels.status()``, the
seeds and the labels it was recorded alongside.  Nothing in the measured
checkouts changes.
"""

import argparse
import importlib.util
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
# fixed, so that two labels recorded on one machine compare run for run
SEEDS = (1, 2, 3, 4, 5)
# the per-stage table: criterion 7's clips looped to the last of STAGES; 4
# clips let a.n100 and b.n100 swing by 14-21% between labels of one run
STAGE_CLIPS = 8
STAGE_METHODS = ("a", "b")
STAGES = (5, 25, 100, 400)
# rounds per seed, each one repeat of the table per label
STAGE_REPEATS = 3
# each cell of the per-stage table averages the stages within this many of its own
WINDOW = 2
# the Python-share table: stages of criterion 7's recipe, rounds per seed
# (each one interpreter per label) and drives of each pass per round
SHARE_STAGES = (5, 25)
SHARE_ROUNDS = 3
SHARE_REPEATS = 3
STAGE_TABLE = """
import json, sys
sys.path.insert(0, "src")
from framestop.harness import SyntheticConfig, bench, generate_synthetic
from framestop.stoppers import StopperMethod
names, stages, clips = json.loads(sys.argv[1])
config = SyntheticConfig(
    clip_count=clips, text_length=15, alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789",
    frames_per_clip=30, p_sub=0.15, p_del=0.05, p_ins=0.05, confusion_mass=0.2, seed=7,
)
methods = [StopperMethod(name) for name in names]
clips = generate_synthetic(config)
bench(clips[:1], methods, max_stages=stages[-1])  # the warm-up drive, not timed
rows = [
    [row["method"], row["stage"], index, row["best_seconds"]]
    for index, clip in enumerate(clips)
    for row in bench([clip], methods, max_stages=stages[-1])
]
print(json.dumps(rows))
"""
PYTHON_SHARE = """
import json, sys, time
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
lib = _kernels.get()
if lib is None:
    raise SystemExit(f"no compiled kernels: {_kernels.status()}")
bare = {"absorb": 0.0, "spread": 0.0}  # seconds inside each call, this stage

def timed(name):
    call, clock = getattr(lib, name), time.perf_counter
    def run(*args):
        start = clock()
        out = call(*args)
        bare[name] += clock() - start
        return out
    return staticmethod(run)

wrapper = type("Timed", (), {name: timed(name) for name in bare})()
best = {}  # (method, stage, clip) -> least [whole stage, bare absorb, bare spread]

def drive(column):
    for index, clip in enumerate(clips):
        for config in configs:
            for stage in stages(clip, config):
                seconds = [stage.seconds] if column == 0 else [bare["absorb"], bare["spread"]]
                bare.update(absorb=0.0, spread=0.0)
                key = (config.method.value, stage.number, index)
                kept = best.setdefault(key, [float("inf")] * 3)
                for offset, value in enumerate(seconds):
                    kept[column + offset] = min(kept[column + offset], value)

for config in configs:  # the warm-up drive, not timed
    for stage in stages(clips[0], config):
        pass
for _ in range(repeats):
    for column, kernels in ((0, lib), (1, wrapper)):
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


def _run(root, workload, seed, seconds):
    """The JSON object on the last line of one ``run.py`` run."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"record_bench: {workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


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
    (method, stage, clip, seconds) of one repeat: per method and stage,
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
    stage, clip, whole stage, bare absorb, bare spread) of one round: per
    column each clip's minimum over the rounds, the mean over clips, then
    the window around each of ``stages`` (:func:`windowed`).  Cells
    ``<method>.n<stage>.<part>`` for the parts ``stage``, ``absorb``,
    ``spread`` and ``python``, the stage less both bare calls."""
    parts = {}
    for column, part in enumerate(("stage", "absorb", "spread"), 3):
        best = best_of_rounds([[row[:3] + [row[column]] for row in rows] for rows in rounds])
        parts[part] = windowed(best, stages)
    table = {}
    for cell, whole in parts["stage"].items():
        absorb, spread = parts["absorb"][cell], parts["spread"][cell]
        table.update({f"{cell}.stage": whole, f"{cell}.absorb": absorb,
                      f"{cell}.spread": spread, f"{cell}.python": whole - absorb - spread})
    return table


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


def _stage_round(root):
    """The rows of one repeat of ``STAGE_TABLE``, run in the checkout."""
    return _in_checkout(root, STAGE_TABLE, [STAGE_METHODS, STAGES, STAGE_CLIPS], "per-stage table")


def _share_round(root):
    """The rows of one round of ``PYTHON_SHARE``, run in the checkout."""
    given = [STAGE_METHODS, SHARE_STAGES[-1] + WINDOW, STAGE_CLIPS, SHARE_REPEATS]
    return _in_checkout(root, PYTHON_SHARE, given, "Python-share table")


def _summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def _record(label, root, seconds, workloads, alongside):
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
        "stage_table": {"clips": STAGE_CLIPS, "repeats": STAGE_REPEATS,
                        "max_stages": STAGES[-1], "window": WINDOW, "unit": "s",
                        "rounds": "per seed, one round per repeat, alternating the labels; "
                                  "each round one repeat per label in a fresh interpreter, "
                                  "after an untimed warm-up drive of the first clip",
                        "stage": "each clip's minimum over the rounds, the mean over clips",
                        "cell": "mean of the stage's seconds over stages n - window .. "
                                "n + window, clamped to the stages run",
                        "runs": []},
        "python_share": {"clips": STAGE_CLIPS, "stages": list(SHARE_STAGES),
                         "rounds": SHARE_ROUNDS, "repeats": SHARE_REPEATS, "window": WINDOW,
                         "unit": "s",
                         "parts": "stage: Stage.seconds, absorb plus estimate; absorb, spread: "
                                  "the bare lib.absorb and lib.spread calls of the stage, timed "
                                  "through a wrapper of _kernels.lib in passes of their own, "
                                  "alternating with the whole-stage passes; python: "
                                  "stage - absorb - spread",
                         "cell": "each part's per-clip minimum over rounds and repeats, the "
                                 "mean over clips, then the mean over stages n - window .. "
                                 "n + window",
                         "runs": []},
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
                result = _run(checkouts[label], workload, seed, seconds)
                records[label]["runs"][workload].append({"seed": seed, "result": result})
                stages = result["metrics"]["stages_per_s"]["value"]
                print(f"{label} {workload} seed {seed}: stages_per_s {stages:.0f}", flush=True)
        rounds = {label: [] for label in labels}
        for repeat in range(STAGE_REPEATS):
            for label in labels if (number + repeat) % 2 == 0 else labels[::-1]:
                rounds[label].append(_stage_round(checkouts[label]))
        for label in labels:
            table = windowed(best_of_rounds(rounds[label]))
            records[label]["stage_table"]["runs"].append(table)
            print(f"{label} per-stage table seed {seed}: a.n400 {table['a.n400'] * 1e6:.1f} us",
                  flush=True)
        shares = {label: [] for label in labels}
        for repeat in range(SHARE_ROUNDS):
            for label in labels if (number + repeat) % 2 == 0 else labels[::-1]:
                shares[label].append(_share_round(checkouts[label]))
        for label in labels:
            table = python_share(shares[label])
            records[label]["python_share"]["runs"].append(table)
            print(f"{label} Python-share table seed {seed}: a.n25 python "
                  f"{table['a.n25.python'] * 1e6:.2f} of {table['a.n25.stage'] * 1e6:.2f} us",
                  flush=True)
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
            tables = record[name]["runs"]
            record[name]["summary"] = {
                key: _summary([table[key] for table in tables]) for key in tables[0]
            }
        out = HERE / f"BENCH_{record['label']}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
