"""Record the benchmark of a framestop checkout into ``BENCH_<label>.json``.

    python scripts/record_bench.py --label 4753a93
    python scripts/record_bench.py --label 4753a93 --root ../parent-checkout

Runs the checkout's own ``perfbench/run.py --trace 0`` on every workload
that its ``BENCHMARK.json`` lists, once per seed of ``SEEDS``, for the
``run_seconds`` that file sets, seeds in the outer loop so that a slow
spell of the machine spreads over the workloads.  The file, written at
the root of the checkout holding this script, keeps every run's JSON
result, each end-to-end metric's median, quartiles and IQR per
workload, the machine (``run.py``'s ``machine()``), the checkout's git
HEAD and whether its tracked files differed from it, the kernels'
``_kernels.status()`` and the seeds.  Nothing in the measured checkout
changes.
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


def _summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    parser.add_argument("--root", type=Path, default=HERE, help="checkout to measure")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    config = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in config["workloads"]]
    seconds = config["run_seconds"]
    record = {
        "label": args.label,
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_head": _git(root, "rev-parse", "HEAD"),
        "git_dirty": bool(_git(root, "status", "--porcelain", "--untracked-files=no")),
        "machine": _machine(root),
        "kernels": _status(root),
        "seeds": list(SEEDS),
        "run_seconds": seconds,
        "command": "perfbench/run.py --workload <name> --seed <seed> --seconds <s> --trace 0",
        "runs": {workload: [] for workload in workloads},
    }
    for seed in SEEDS:
        for workload in workloads:
            result = _run(root, workload, seed, seconds)
            record["runs"][workload].append({"seed": seed, "result": result})
            stages = result["metrics"]["stages_per_s"]["value"]
            print(f"{workload} seed {seed}: stages_per_s {stages:.0f}", flush=True)
    record["summary"] = {
        workload: {
            metric: _summary([run["result"]["metrics"][metric]["value"] for run in runs])
            for metric in runs[0]["result"]["metrics"]
        }
        for workload, runs in record["runs"].items()
    }
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
