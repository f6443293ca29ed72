"""Print a sha256 over every ``stages()`` record of one fixed corpus, per kernel route.

    PYTHONPATH=src python scripts/stage_digest.py

The corpus is acceptance criterion 7's recipe (``SyntheticConfig`` of 15
characters over 36 symbols, 30 frames, 15/5/5% edits, confusion 0.2,
seed 7), ``CLIPS`` clips of it, followed by the same clips with each frame
given a seeded weight in [0.25, 3].  Each clip runs through
:func:`framestop.stoppers.stages` under ``base``, ``a`` and ``b`` and both
metrics, to ``STAGES`` stages (the clips loop) at threshold 0.02.  Each
record adds its number, its stop, the ``float.hex`` of its estimate, of
its aggregate and of each per-candidate distance, and its rows' bytes
(:func:`digest`).  One line per route: the compiled kernels, or why they
do not run, then the Python kernels.  Two checkouts that print the same
lines give the same stages, bit for bit, on both routes.
"""

import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from framestop import _kernels  # noqa: E402
from framestop.core import Clip, RecognitionFrame  # noqa: E402
from framestop.harness import SyntheticConfig, generate_synthetic  # noqa: E402
from framestop.metrics import MetricKind  # noqa: E402
from framestop.stoppers import StopperConfig, StopperMethod, stages  # noqa: E402

CLIPS = 8
STAGES = 60
METHODS = (StopperMethod.BASE, StopperMethod.METHOD_A, StopperMethod.METHOD_B)


def corpus():
    """The criterion-7 clips, then the same frames with seeded weights."""
    config = SyntheticConfig(
        clip_count=CLIPS, text_length=15, alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789",
        frames_per_clip=30, p_sub=0.15, p_del=0.05, p_ins=0.05, confusion_mass=0.2, seed=7,
    )
    clips = generate_synthetic(config)
    rng = random.Random(7)
    weighted = [
        Clip(f"{clip.id}-weighted", clip.alphabet, clip.truth,
             [RecognitionFrame(frame.rows, rng.uniform(0.25, 3.0)) for frame in clip.frames])
        for clip in clips
    ]
    return clips + weighted


def digest(clips, max_stages=STAGES):
    """(records, sha256 hex) over every ``stages()`` record of ``clips``
    under each method and metric, on the kernels in use."""
    sha = hashlib.sha256()
    records = 0
    for clip in clips:
        for method in METHODS:
            for metric in MetricKind:
                config = StopperConfig(method, metric=metric, threshold=0.02,
                                       max_stages=max_stages)
                sha.update(f"{clip.id} {method.value} {metric.name}\n".encode())
                for stage in stages(clip, config):
                    breakdown = stage.breakdown
                    distances = breakdown.per_candidate
                    line = [str(stage.number), str(stage.stop), breakdown.estimate.hex(),
                            breakdown.gld_aggregate.hex(),
                            "-" if distances is None else ",".join(x.hex() for x in distances)]
                    sha.update(" ".join(line).encode() + b"\n" + stage.rows.tobytes())
                    records += 1
    return records, sha.hexdigest()


def main():
    clips = corpus()
    if _kernels.status() == "compiled":
        records, hex_digest = digest(clips)
        print(f"compiled: {records} records, sha256 {hex_digest}")
    else:
        print(f"compiled: not run ({_kernels.status()})")
    _kernels.lib, _kernels.reason = _kernels.reference(), "set by stage_digest.py"
    records, hex_digest = digest(clips)
    print(f"python: {records} records, sha256 {hex_digest}")


if __name__ == "__main__":
    main()
