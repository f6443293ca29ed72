"""Command-line harness: gen, simulate, profile, bench.

All subcommands exit 0 on success and 1 with a message on stderr when a
validation step rejects the input.
"""

import argparse
import sys

from .harness import (
    BENCH_FIELDS,
    MAX_CLASSES,
    MAX_FRAME_ROWS,
    PROFILE_FIELDS,
    SIMULATE_FIELDS,
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
from .metrics import MetricKind
from .stoppers import StopperConfig, StopperMethod

DEFAULT_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
# cap of --max-stages: clips loop past their length, and the history store
# of methods a and b grows by every stage's rows
MAX_STAGES = 10_000
# cap of gen's corpus, which it builds in memory before writing it: float
# values over all frames, each of at most two rows per character (an
# insertion adds one) and the empty row, every row alphabet size + 1 wide
MAX_GEN_VALUES = 20_000_000
# cap of the history store that methods a and b keep for one clip: float
# values over all stages, each stage appending at most the clip's largest
# frame, every row alphabet size + 1 wide; 8 bytes each.  The store holds
# its rows in blocks of 512 rows and allocates at most one block more than
# it uses: at both load caps a block is 512 rows of 129 values, 528 KB, so
# one clip's store stays under 160 MB and one block (ROADMAP.md's Baseline,
# Memory, gives the measured resident peak of a clip at the caps)
MAX_HISTORY_VALUES = 20_000_000
ESTIMATOR_METHODS = (StopperMethod.BASE, StopperMethod.METHOD_A, StopperMethod.METHOD_B)
HISTORY_METHODS = (StopperMethod.METHOD_A, StopperMethod.METHOD_B)


def _add_io(parser):
    parser.add_argument("--input", "-i", required=True, help="input clips (JSONL)")
    parser.add_argument("--output", "-o", required=True, help="output CSV path")


def _add_estimation(parser):
    parser.add_argument(
        "--metric", choices=[m.value for m in MetricKind], default=MetricKind.NGLD.value
    )
    parser.add_argument("--delta", type=float, default=0.1, help="estimate bias term")
    parser.add_argument("--max-stages", type=int, default=30)


def _load_clips(args, methods):
    """The input clips, read only once --max-stages is within its cap, and
    refused before any stage runs if one of ``methods`` keeps a history
    store that could pass ``MAX_HISTORY_VALUES`` on one of them."""
    if args.max_stages > MAX_STAGES:
        raise ValueError(f"--max-stages {args.max_stages} is above the cap of {MAX_STAGES}")
    clips = load_clips(args.input)
    if any(method in HISTORY_METHODS for method in methods):
        for clip in clips:
            rows = max((frame.num_chars for frame in clip.frames), default=0)
            values = args.max_stages * rows * (clip.alphabet.size + 1)
            if values > MAX_HISTORY_VALUES:
                raise ValueError(
                    f"clip {clip.id}: --max-stages {args.max_stages} x {rows} rows per frame "
                    f"over {clip.alphabet.size} symbols keeps up to {values} history values "
                    f"for methods a and b, above the cap of {MAX_HISTORY_VALUES}"
                )
    return clips


def _stopper_config(args, *, threshold=0.0, fixed_stage=None):
    return StopperConfig(
        method=StopperMethod(args.method),
        metric=MetricKind(args.metric),
        delta=args.delta,
        threshold=threshold,
        fixed_stage=fixed_stage,
        max_stages=args.max_stages,
    )


def _cmd_gen(args):
    config = SyntheticConfig(
        clip_count=args.clips,
        text_length=args.text_length,
        alphabet=args.alphabet,
        frames_per_clip=args.frames,
        p_sub=args.p_sub,
        p_del=args.p_del,
        p_ins=args.p_ins,
        confusion_mass=args.confusion,
        seed=args.seed,
    )
    values = args.clips * args.frames * (2 * args.text_length + 1) * (len(args.alphabet) + 1)
    if values > MAX_GEN_VALUES:
        raise ValueError(
            f"--clips {args.clips} x --frames {args.frames} x --text-length {args.text_length} "
            f"over {len(args.alphabet)} symbols needs up to {values} values, "
            f"above the cap of {MAX_GEN_VALUES}"
        )
    # clips that load_clips would refuse are refused before they are made
    symbols = len(args.alphabet)
    if symbols > MAX_CLASSES:
        raise ValueError(f"--alphabet has {symbols} symbols, above the cap of {MAX_CLASSES}")
    # a character takes two rows when an insertion precedes it
    rows = args.text_length * (2 if args.p_ins > 0 else 1)
    if rows > MAX_FRAME_ROWS:
        raise ValueError(
            f"--text-length {args.text_length}{' with --p-ins > 0' if args.p_ins > 0 else ''} "
            f"gives frames of up to {rows} rows, above the cap of {MAX_FRAME_ROWS}"
        )
    write_clips(generate_synthetic(config), args.output)


def _cmd_simulate(args):
    clips = _load_clips(args, [StopperMethod(args.method)])
    fixed_stage = None
    if StopperMethod(args.method) is StopperMethod.FIXED_STAGE:
        if args.stage is None:
            raise ValueError("--method fixed needs --stage")
        fixed_stage = args.stage
    config = _stopper_config(args, threshold=args.threshold, fixed_stage=fixed_stage)
    rows = simulate(clips, config)
    write_csv(args.output, SIMULATE_FIELDS, rows)


def _cmd_profile(args):
    clips = _load_clips(args, [StopperMethod(args.method)])
    fixed_stage = 1 if StopperMethod(args.method) is StopperMethod.FIXED_STAGE else None
    config = _stopper_config(args, fixed_stage=fixed_stage)
    rows = profile(clips, config, parse_grid(args.thresholds))
    write_csv(args.output, PROFILE_FIELDS, rows)


def _cmd_bench(args):
    names = args.method or [m.value for m in ESTIMATOR_METHODS]
    methods = [StopperMethod(name) for name in dict.fromkeys(names)]
    clips = _load_clips(args, methods)
    rows = bench(
        clips,
        methods,
        metric=MetricKind(args.metric),
        delta=args.delta,
        repeats=args.repeats,
        max_stages=args.max_stages,
    )
    write_csv(args.output, BENCH_FIELDS, rows)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="framestop",
        description="Combine per-frame text recognition results and decide when to stop",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate synthetic clips")
    gen.add_argument("--output", "-o", required=True, help="output clips (JSONL)")
    gen.add_argument("--clips", type=int, default=100)
    gen.add_argument("--frames", type=int, default=30)
    gen.add_argument("--text-length", type=int, default=10)
    gen.add_argument("--alphabet", default=DEFAULT_ALPHABET)
    gen.add_argument("--p-sub", type=float, default=0.0)
    gen.add_argument("--p-del", type=float, default=0.0)
    gen.add_argument("--p-ins", type=float, default=0.0)
    gen.add_argument("--confusion", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_gen)

    sim = sub.add_parser("simulate", help="run a stopping rule over clips")
    _add_io(sim)
    sim.add_argument(
        "--method",
        choices=[m.value for m in StopperMethod],
        default=StopperMethod.BASE.value,
    )
    sim.add_argument("--threshold", type=float, default=0.0, help="observation cost")
    sim.add_argument("--stage", type=int, help="stop stage for --method fixed")
    _add_estimation(sim)
    sim.set_defaults(func=_cmd_simulate)

    prof = sub.add_parser("profile", help="threshold-sweep performance profile")
    _add_io(prof)
    prof.add_argument(
        "--method",
        choices=[m.value for m in StopperMethod],
        default=StopperMethod.BASE.value,
    )
    prof.add_argument(
        "--thresholds",
        required=True,
        help="grid lo:hi:step (stage numbers for --method fixed)",
    )
    _add_estimation(prof)
    prof.set_defaults(func=_cmd_profile)

    ben = sub.add_parser("bench", help="per-stage timing of absorb + estimate")
    _add_io(ben)
    ben.add_argument(
        "--method",
        choices=[m.value for m in ESTIMATOR_METHODS],
        action="append",
        help="estimator to time; repeat the flag for several (default: all)",
    )
    ben.add_argument("--repeats", type=int, default=1)
    _add_estimation(ben)
    ben.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
