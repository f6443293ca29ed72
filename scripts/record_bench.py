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
in a fresh interpreter on its own ``src``: ``harness.bench``'s
``best_seconds`` (absorb plus estimate, each clip's fastest of 3 repeats,
the mean over clips) of methods ``a`` and ``b`` on acceptance criterion
7's recipe (``STAGE_CLIPS`` = 8 clips of 30 frames, seed 7) with the
clips looped to 400 stages.  The cell ``<method>.n<stage>``, for stages
5, 25, 100 and 400, is the mean of those seconds over the stages within
``WINDOW`` of it, n - 2 to n + 2, clamped to the stages run
(:func:`windowed`), as one stage's value over a few clips swings by tens
of percent.

Each file, written at the root of the checkout holding this script, keeps
every run's JSON result, each end-to-end metric's median, quartiles and
IQR per workload, every per-stage table and each entry's median,
quartiles and IQR, the machine (``run.py``'s ``machine()``), the
checkout's git HEAD and whether its tracked files differed from it, the
kernels' ``_kernels.status()``, the seeds and the labels it was recorded
alongside.  Nothing in the measured checkouts changes.
"""

import argparse
import importlib.util
import json
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
# each cell of the per-stage table averages the stages within this many of its own
WINDOW = 2
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
rows = bench(generate_synthetic(config), methods, repeats=3, max_stages=stages[-1])
print(json.dumps([[row["method"], row["stage"], row["best_seconds"]] for row in rows]))
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


def _stage_table(root):
    """:func:`windowed` of the rows of ``STAGE_TABLE`` run in the checkout."""
    given = json.dumps([STAGE_METHODS, STAGES, STAGE_CLIPS])
    done = subprocess.run([sys.executable, "-c", STAGE_TABLE, given], cwd=root, capture_output=True,
                          text=True)
    if done.returncode != 0:
        raise SystemExit(f"record_bench: the per-stage table failed:\n{done.stderr}")
    return windowed(json.loads(done.stdout.strip().splitlines()[-1]))


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
        "stage_table": {"clips": STAGE_CLIPS, "repeats": 3, "max_stages": STAGES[-1],
                        "window": WINDOW, "unit": "s",
                        "cell": "mean of best_seconds over stages n - window .. n + window, "
                                "clamped to the stages run",
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
        for label in labels if number % 2 == 0 else labels[::-1]:
            table = _stage_table(checkouts[label])
            records[label]["stage_table"]["runs"].append(table)
            print(f"{label} per-stage table seed {seed}: a.n400 {table['a.n400'] * 1e6:.1f} us",
                  flush=True)
    for record in records.values():
        record["summary"] = {
            workload: {
                metric: _summary([run["result"]["metrics"][metric]["value"] for run in runs])
                for metric in runs[0]["result"]["metrics"]
            }
            for workload, runs in record["runs"].items()
        }
        tables = record["stage_table"]["runs"]
        record["stage_table"]["summary"] = {
            key: _summary([table[key] for table in tables]) for key in tables[0]
        }
        out = HERE / f"BENCH_{record['label']}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
