"""Per-stage cost of making the stopping decision, method by method.

Full modelling aligns every seen frame against the current result at
every stage and reads the distance to that re-combined candidate off the
alignment cost, so its cost grows linearly with the stage number.  The
two approximations write each frame's aligned rows into one history store
during combination, and the absorb scans it once, O(n*S*K), inside its
one compiled call where the kernels compile (numpy otherwise);
"normalised once" (method b) is method a's aggregate normalised once
instead of per candidate.  The script prints the timings of the machine
it runs on.  Timings cover absorb plus estimate, since the methods split
work between the two phases differently.
"""

from framestop import StopperMethod, SyntheticConfig, bench, generate_synthetic

clips = generate_synthetic(
    SyntheticConfig(
        clip_count=3, text_length=15,
        alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789", frames_per_clip=30,
        p_sub=0.15, p_del=0.05, p_ins=0.05, confusion_mass=0.2, seed=7,
    )
)
print(f"{len(clips)} clips, text length 15, 36 character classes\n")

rows = bench(
    clips,
    [StopperMethod.BASE, StopperMethod.METHOD_A, StopperMethod.METHOD_B],
    repeats=2,
    max_stages=25,
)
times = {(row["method"], row["stage"]): row["mean_seconds"] for row in rows}

stages = (5, 10, 15, 20, 25)
print("mean milliseconds per stage (absorb + estimate)")
print("method          " + "".join(f"  n={n:<5d}" for n in stages))
for method, label in [("base", "full modelling"), ("a", "direct summation"), ("b", "normalised once")]:
    cells = "".join(f"  {times[(method, n)] * 1e3:7.3f}" for n in stages)
    print(f"{label:16s}{cells}")

print(
    f"\nat n=25, full modelling costs {times[('base', 25)] / times[('a', 25)]:.0f}x "
    f"the direct summation"
)
