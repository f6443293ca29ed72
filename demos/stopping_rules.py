"""Watch the three expected-change estimators drive a stopping decision.

A noisy synthetic clip is combined frame by frame.  At each stage every
estimator guesses how far the next combined result will move; the process
stops once that guess drops to the observation cost.  The full estimate
yields the reference trace, the two fast approximations track it:
"direct summation" (method a) scores each candidate from the recorded row
alignments, "normalised once" (method b) is a's aggregate normalised once
instead of per candidate, read from the same history store.  Both cost one
O(n*S*K) scan of that store per stage, which the absorb runs inside its
one compiled call where the kernels compile, a numpy scan otherwise.
"""

from framestop import (
    MetricKind,
    StopperConfig,
    StopperMethod,
    SyntheticConfig,
    fixed_stage_baseline,
    generate_synthetic,
    run_clip,
    stage_traces,
)

clip = generate_synthetic(
    SyntheticConfig(
        clip_count=1, text_length=8, alphabet="ABCDEFGHIJ", frames_per_clip=30,
        p_sub=0.25, p_del=0.05, p_ins=0.05, confusion_mass=0.35, seed=42,
    )
)[0]
print(f"clip {clip.id}: truth = {clip.truth!r}, {len(clip.frames)} frames\n")

methods = {
    "full modelling": StopperMethod.BASE,
    "direct summation": StopperMethod.METHOD_A,
    "normalised once": StopperMethod.METHOD_B,
}

traces = {}
for label, method in methods.items():
    config = StopperConfig(method, metric=MetricKind.NGLD, delta=0.1, max_stages=12)
    estimates, errors = stage_traces(clip, config)
    traces[label] = (estimates, errors)

print("stage | " + " | ".join(f"{label:>16}" for label in methods) + " |  error vs truth")
for n in range(12):
    cells = " | ".join(f"{traces[label][0][n]:16.5f}" for label in methods)
    print(f"{n + 1:5d} | {cells} | {traces['full modelling'][1][n]:15.5f}")

threshold = 0.035
print(f"\nstopping at threshold {threshold}:")
for label, method in methods.items():
    config = StopperConfig(method, threshold=threshold, delta=0.1, max_stages=30)
    outcome = run_clip(clip, config)
    forced = " (forced)" if outcome.forced else ""
    print(
        f"  {label:>16}: stop at stage {outcome.stop_stage}{forced}, "
        f"final error {outcome.final_error:.5f}"
    )

fixed = fixed_stage_baseline(clip, 5)
print(f"  {'always 5 frames':>16}: stop at stage {fixed.stop_stage}, "
      f"final error {fixed.final_error:.5f}")
