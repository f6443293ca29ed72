"""The traced benchmark run, end to end.

``perfbench/spans.py`` wraps framestop functions by the names their callers
look them up under (``combiner.align``, ``combiner.pairwise_costs``,
``combiner.gap_costs``, ``CombinerState.absorb``,
``CombinerState.combine_candidate``, ``stoppers.gld`` and more), so a change
that renames or drops one breaks ``--trace 1`` with a KeyError.  This runs
the traced benchmark briefly; its trace file goes to the git-ignored
``.perfbench/``.  (Named apart from ``perfbench/tests/test_perfbench_smoke.py``:
two test modules of one basename cannot be collected together.)
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_benchmark_run_is_correct():
    command = [
        sys.executable, "perfbench/run.py", "--workload", "online-fast", "--seed", "1",
        "--seconds", "0.5", "--trace", "1",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
