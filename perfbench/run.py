"""Run one framestop benchmark workload and print its metrics.

    python3 perfbench/run.py --workload online-base --seed 1 --seconds 15 --trace 0

Run from the root of a framestop checkout; the package is imported from the
checkout's ``src/`` and nowhere else.  Human-readable lines (machine, every
metric with its unit and sample count) come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs an untraced pass and a traced pass, reports the per-layer metrics and
writes every span record to ``.perfbench/trace-<workload>-<seed>.json``.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_framestop():
    """Import the checkout's framestop; exit 2 if the checkout has none."""
    if not (SRC / "framestop" / "__init__.py").is_file():
        sys.exit(f"run.py: no framestop sources under {SRC}; run from a framestop checkout")
    sys.path.insert(0, str(SRC))
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # one thread, as the loop is
    import framestop

    if Path(framestop.__file__).resolve().parent != SRC / "framestop":
        sys.exit(f"run.py: imported framestop from {framestop.__file__}, not from {SRC}")


def machine():
    """Interpreter, numpy, core count and CPU model, for the record."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_framestop()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = workloads.WORKLOADS[args.workload]
    result = workloads.run(workload, args.seed, args.seconds, ROOT, trace=bool(args.trace))

    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace, **machine()}
    print(" ".join(f"{key}={value}" for key, value in info.items()))
    for name, (value, unit) in result["metrics"].items():
        samples = result["samples"].get(name)
        suffix = f"  ({samples})" if samples else ""
        print(f"{name:36s} {value:>16.6f} {unit}{suffix}")
    print(f"machine speed: {result['speed']:.3f} x the gauge's reference (timings are scaled by it)")
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed")
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        out = ROOT / ".perfbench" / f"trace-{workload.name}-{args.seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({**info, "speed": result["speed"], "records": result["records"]}, handle)
        print(f"spans: {len(result['records'])} records in {out.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
