"""Combine a handful of noisy per-frame recognition results, step by step.

Three frames of the same four-letter word arrive with different mistakes:
a substitution, a dropped character, and honest-but-soft scores.  Watch
the alignment pair rows up (``-`` where a side has no row) and the
running average converge on the truth.
"""

import numpy as np

from framestop import Alphabet, CombinerState, align, from_string, make_frame, to_text

np.set_printoptions(precision=3, suppress=True)

alphabet = Alphabet("ABCDE")
truth = "BEAD"

frames = [
    from_string("BEAD", alphabet),      # clean read
    from_string("BED", alphabet),       # lost the 'A'
    make_frame(                         # soft scores, last letter uncertain
        [
            [0.05, 0.80, 0.05, 0.05, 0.05],
            [0.02, 0.02, 0.02, 0.02, 0.92],
            [0.90, 0.03, 0.03, 0.02, 0.02],
            [0.05, 0.15, 0.10, 0.60, 0.10],
        ]
    ),
]

state = CombinerState(alphabet)

print(f"truth: {truth}\n")
for number, frame in enumerate(frames, start=1):
    if state.n > 0:
        pairing = align(frame, state.current_result())
        # S and M, one past the last row, stand for the empty row of a skipped side
        s, m = state.mean_rows.shape[0], frame.num_chars
        pairs = " ".join(
            f"{'-' if r == s else r}/{'-' if f == m else f}"
            for r, f in zip(pairing.result_rows, pairing.frame_rows)
        )
        print(f"frame {number} alignment (cost {pairing.cost:.3f}), result/frame rows: {pairs}")
    state.absorb(frame)
    result = state.current_result()
    print(f"after frame {number}: read = {to_text(result.rows, alphabet, drop_empty=True)!r}")
    print(result.rows, "\n")

print("columns: empty class first, then", " ".join(alphabet.symbols))
