"""Command-line harness: gen, simulate, profile, bench.

All subcommands exit 0 on success and 1 with a message on stderr when a
validation step rejects the input.
"""

import argparse
import sys

from .harness import (
    BENCH_FIELDS,
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
ESTIMATOR_METHODS = (StopperMethod.BASE, StopperMethod.METHOD_A, StopperMethod.METHOD_B)


def _add_io(parser):
    parser.add_argument("--input", "-i", required=True, help="input clips (JSONL)")
    parser.add_argument("--output", "-o", required=True, help="output CSV path")


def _add_estimation(parser):
    parser.add_argument(
        "--metric", choices=[m.value for m in MetricKind], default=MetricKind.NGLD.value
    )
    parser.add_argument("--delta", type=float, default=0.1, help="estimate bias term")
    parser.add_argument("--max-stages", type=int, default=30)


def _load_clips(args):
    """The input clips, read only once --max-stages is within its cap."""
    if args.max_stages > MAX_STAGES:
        raise ValueError(f"--max-stages {args.max_stages} is above the cap of {MAX_STAGES}")
    return load_clips(args.input)


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
    write_clips(generate_synthetic(config), args.output)


def _cmd_simulate(args):
    clips = _load_clips(args)
    fixed_stage = None
    if StopperMethod(args.method) is StopperMethod.FIXED_STAGE:
        if args.stage is None:
            raise ValueError("--method fixed needs --stage")
        fixed_stage = args.stage
    config = _stopper_config(args, threshold=args.threshold, fixed_stage=fixed_stage)
    rows = simulate(clips, config)
    write_csv(args.output, SIMULATE_FIELDS, rows)


def _cmd_profile(args):
    clips = _load_clips(args)
    fixed_stage = 1 if StopperMethod(args.method) is StopperMethod.FIXED_STAGE else None
    config = _stopper_config(args, fixed_stage=fixed_stage)
    rows = profile(clips, config, parse_grid(args.thresholds))
    write_csv(args.output, PROFILE_FIELDS, rows)


def _cmd_bench(args):
    clips = _load_clips(args)
    names = args.method or [m.value for m in ESTIMATOR_METHODS]
    methods = [StopperMethod(name) for name in dict.fromkeys(names)]
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
