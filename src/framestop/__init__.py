"""framestop: combine per-frame text recognition results and decide when to stop.

The library models per-frame string recognition results as matrices of
class membership estimations, merges them incrementally with an
alignment-based weighted average, and stops the stream once the estimated
distance to the next combined result drops to the cost of one more
observation.  Three estimators trade accuracy bookkeeping for speed; a
harness generates synthetic streams, sweeps stopping thresholds into
performance profiles, and times every stage.
"""

from .combiner import Alignment, CombinerState, align
from .core import (
    Alphabet,
    Clip,
    CombinedResult,
    RecognitionFrame,
    empty_distribution,
    from_string,
    make_frame,
    to_text,
)
from .harness import (
    SyntheticConfig,
    bench,
    generate_synthetic,
    load_clips,
    parse_grid,
    profile,
    simulate,
    write_clips,
    write_csv,
)
from .metrics import MetricKind, char_distance, gld, ngld
from .stoppers import (
    EstimationBreakdown,
    Stage,
    StopOutcome,
    StopperConfig,
    StopperMethod,
    estimate_base,
    estimate_method_a,
    estimate_method_b,
    fixed_stage_baseline,
    run_clip,
    should_stop,
    stage_traces,
    stages,
)

__version__ = "0.1.0"

__all__ = [
    "Alignment",
    "Alphabet",
    "Clip",
    "CombinedResult",
    "CombinerState",
    "EstimationBreakdown",
    "MetricKind",
    "RecognitionFrame",
    "Stage",
    "StopOutcome",
    "StopperConfig",
    "StopperMethod",
    "SyntheticConfig",
    "align",
    "bench",
    "char_distance",
    "empty_distribution",
    "estimate_base",
    "estimate_method_a",
    "estimate_method_b",
    "fixed_stage_baseline",
    "from_string",
    "generate_synthetic",
    "gld",
    "load_clips",
    "make_frame",
    "ngld",
    "parse_grid",
    "profile",
    "run_clip",
    "should_stop",
    "simulate",
    "stage_traces",
    "stages",
    "to_text",
    "write_clips",
    "write_csv",
]
