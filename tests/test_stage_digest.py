"""scripts/stage_digest.py: the digest of every ``stages()`` record."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from framestop.core import Alphabet, Clip, RecognitionFrame, from_string, make_frame
from framestop.stoppers import EstimationBreakdown

from oracles import kernel_route

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "stage_digest.py"


@pytest.fixture(scope="module")
def stage_digest():
    spec = importlib.util.spec_from_file_location("stage_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tiny_clips():
    """Two clips of three frames over "AB", the second weighted."""
    alphabet = Alphabet("AB")
    frames = [from_string("AB", alphabet), from_string("A", alphabet),
              make_frame([[0.7, 0.3], [0.4, 0.6]])]
    weighted = [RecognitionFrame(frame.rows, w) for frame, w in zip(frames[::-1], (2.0, 0.5, 1.0))]
    return [Clip("tiny-0", alphabet, "AB", frames), Clip("tiny-1", alphabet, "B", weighted)]


def _up(x):
    return np.nextafter(x, np.inf)


def _nudged(stage, field):
    """``stage`` with one field moved: the number or the stop, or by one ulp
    the rows, the estimate, the aggregate or the per-candidate distances."""
    if field in ("number", "stop", "rows"):
        value = {"number": stage.number + 1, "stop": not stage.stop, "rows": _up(stage.rows)}
        return dataclasses.replace(stage, **{field: value[field]})
    b = stage.breakdown
    parts = [b.estimate, b.gld_aggregate, b.per_candidate]
    index = ("estimate", "aggregate", "per_candidate").index(field)
    if parts[index] is not None:
        parts[index] = float(_up(parts[index])) if index < 2 else tuple(_up(parts[index]).tolist())
    return dataclasses.replace(stage, breakdown=EstimationBreakdown(*parts))


@pytest.mark.parametrize("route", ["compiled", "python"])
def test_the_digest_counts_every_record_and_reads_every_field(
    request, monkeypatch, stage_digest, route
):
    with kernel_route(request, route):
        records, digest = stage_digest.digest(_tiny_clips(), max_stages=4)
        # 2 clips x 3 methods x 2 metrics x 4 stages
        assert records == 48 and len(digest) == 64
        assert stage_digest.digest(_tiny_clips(), max_stages=4) == (records, digest)
        stages = stage_digest.stages
        for field in ("number", "stop", "rows", "estimate", "aggregate", "per_candidate"):
            with monkeypatch.context() as patch:
                patch.setattr(stage_digest, "stages", lambda clip, config, field=field: (
                    _nudged(stage, field) for stage in stages(clip, config)))
                assert stage_digest.digest(_tiny_clips(), max_stages=4) != (records, digest), field
