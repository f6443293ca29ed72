"""Expected performance profiles: error bought per frame spent.

Sweeping the observation cost traces each stopper's curve of mean final
error against mean stopping stage.  A good stopper sits below the
fixed-stage baseline: less error for the same average number of frames.
The corpus mixes easy and hard clips, which is exactly where adaptive
stopping pays off.  "normalised once" is method b: method a's aggregate
distance, normalised once instead of per candidate, read from the same
history store in the same O(n*S*K) scan, which the absorb runs in its one
compiled call where the kernels compile (numpy otherwise).
"""

from framestop import (
    StopperConfig,
    StopperMethod,
    SyntheticConfig,
    generate_synthetic,
    profile,
)

easy = SyntheticConfig(
    clip_count=60, text_length=6, alphabet="ABCDEFGH", frames_per_clip=30,
    p_sub=0.08, p_del=0.03, p_ins=0.03, confusion_mass=0.15, seed=101,
)
hard = SyntheticConfig(
    clip_count=60, text_length=6, alphabet="ABCDEFGH", frames_per_clip=30,
    p_sub=0.30, p_del=0.08, p_ins=0.08, confusion_mass=0.45, seed=202,
)
clips = generate_synthetic(easy) + generate_synthetic(hard)
print(f"{len(clips)} clips, half mild noise, half heavy\n")

# the very first estimate is always delta/2, so the sweep lives below it
thresholds = [0.002 * i for i in range(25)]

for label, method in [
    ("full modelling", StopperMethod.BASE),
    ("direct summation", StopperMethod.METHOD_A),
    ("normalised once", StopperMethod.METHOD_B),
]:
    config = StopperConfig(method, delta=0.1, max_stages=30)
    rows = profile(clips, config, thresholds)
    print(f"{label}: threshold -> (mean stage, mean error)")
    for row in rows[::4]:
        print(
            f"  {row['threshold']:6.3f} -> ({row['mean_stop_stage']:5.2f}, "
            f"{row['mean_error']:.4f})  forced {row['forced_fraction']:.0%}"
        )
    print()

baseline = StopperConfig(StopperMethod.FIXED_STAGE, fixed_stage=1, max_stages=30)
rows = profile(clips, baseline, list(range(1, 31)))
print("fixed-stage baseline: stage -> mean error")
for row in rows[::4]:
    print(f"  {int(row['threshold']):6d} -> {row['mean_error']:.4f}")
