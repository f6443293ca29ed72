"""The public surface, pinned: a name added to or removed from it shows up
as a change to this test."""

import framestop
from framestop.combiner import CombinerState


def test_public_surface():
    assert sorted(framestop.__all__) == [
        "Alignment", "Alphabet", "Clip", "CombinedResult", "CombinerState",
        "EstimationBreakdown", "MetricKind", "RecognitionFrame", "Stage", "StopOutcome",
        "StopperConfig", "StopperMethod", "SyntheticConfig", "align", "bench",
        "char_distance", "empty_distribution", "estimate_base", "estimate_method_a",
        "estimate_method_b", "fixed_stage_baseline", "from_string", "generate_synthetic",
        "gld", "load_clips", "make_frame", "ngld", "parse_grid", "profile", "run_clip",
        "should_stop", "simulate", "stage_traces", "stages", "to_text", "write_clips",
        "write_csv",
    ]
    assert sorted(name for name in vars(CombinerState) if not name.startswith("_")) == [
        "absorb", "candidate_alignment", "candidate_gld", "cell", "combine_candidate",
        "contributions", "current_result", "mean_rows", "row_ids", "weights",
    ]
