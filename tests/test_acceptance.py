"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Corpora are seeded, so every run checks identical data.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from framestop.combiner import CombinerState
from framestop.core import Alphabet, Clip, from_string, make_frame
from framestop.harness import SyntheticConfig, bench, generate_synthetic
from framestop.metrics import MetricKind, char_distance, gld, ngld
from framestop.stoppers import (
    StopperConfig,
    StopperMethod,
    estimate_base,
    estimate_method_a,
    estimate_method_b,
    stage_traces,
)
from framestop.treap import MultisetIndex

from oracles import (
    MultisetScan,
    gld_recursive,
    method_a_oracle,
    random_clip,
    random_distribution,
    random_onehot_rows,
)

DELTA = 0.1
ESTIMATORS = (StopperMethod.BASE, StopperMethod.METHOD_A, StopperMethod.METHOD_B)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\nCRITERION {number}: FAIL - {description}")
        raise
    print(f"\nCRITERION {number}: PASS - {description}")


@pytest.fixture(scope="module")
def oracle_corpus():
    rng = random.Random(8675309)
    clips = []
    for i in range(1000):
        weighted = i % 2 == 1
        clips.append((random_clip(rng, i, weighted=weighted), weighted))
    return clips


@pytest.fixture(scope="module")
def noisy_corpus():
    mild = SyntheticConfig(
        clip_count=250, text_length=6, alphabet="ABCDEFGH", frames_per_clip=30,
        p_sub=0.08, p_del=0.03, p_ins=0.03, confusion_mass=0.15, seed=101,
    )
    heavy = SyntheticConfig(
        clip_count=250, text_length=6, alphabet="ABCDEFGH", frames_per_clip=30,
        p_sub=0.30, p_del=0.08, p_ins=0.08, confusion_mass=0.45, seed=202,
    )
    return generate_synthetic(mild) + generate_synthetic(heavy)


@pytest.fixture(scope="module")
def noisy_traces(noisy_corpus):
    traces = {}
    for method in ESTIMATORS:
        config = StopperConfig(method, metric=MetricKind.NGLD, delta=DELTA, max_stages=30)
        traces[method] = [stage_traces(clip, config) for clip in noisy_corpus]
    return traces


def test_criterion_1_method_a_oracle_equivalence(oracle_corpus):
    with criterion(1, "method A equals the materialized-merge oracle on 1000 random clips"):
        start = time.perf_counter()
        worst = 0.0
        for clip, _ in oracle_corpus:
            state = CombinerState(clip.alphabet, track_history=True)
            for frame in clip.frames:
                state.absorb(frame)
            for metric in MetricKind:
                got = estimate_method_a(state, metric=metric, delta=DELTA)
                want_estimate, want_per, want_aggregate = method_a_oracle(
                    state, metric=metric, delta=DELTA
                )
                worst = max(
                    worst,
                    abs(got.estimate - want_estimate),
                    abs(got.gld_aggregate - want_aggregate),
                    max(
                        (abs(a - b) for a, b in zip(got.per_candidate, want_per)),
                        default=0.0,
                    ),
                )
        elapsed = time.perf_counter() - start
        assert worst <= 1e-9, f"worst deviation {worst}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"


def test_criterion_2_method_b_is_exact_reformulation(oracle_corpus):
    with criterion(2, "method B aggregate equals method A aggregate at every stage"):
        worst = 0.0
        for clip, weighted in oracle_corpus:
            if weighted:
                continue
            state = CombinerState(clip.alphabet, track_history=True, track_treaps=True)
            for frame in clip.frames:
                state.absorb(frame)
                a = estimate_method_a(state, metric=MetricKind.GLD, delta=DELTA)
                b = estimate_method_b(state, metric=MetricKind.GLD, delta=DELTA)
                worst = max(worst, abs(a.gld_aggregate - b.gld_aggregate))
        assert worst <= 1e-9, f"worst aggregate deviation {worst}"


def test_criterion_3_hand_computed_fixture():
    with criterion(3, "two-frame hand fixture matches all three estimators"):
        alpha = Alphabet("AB")
        frames = [from_string("A", alpha), from_string("B", alpha)]
        base_state = CombinerState(alpha)
        a_state = CombinerState(alpha, track_history=True)
        b_state = CombinerState(alpha, track_treaps=True)
        for frame in frames:
            base_state.absorb(frame)
            a_state.absorb(frame)
            b_state.absorb(frame)

        ngld_expected = (0.1 + 4 / 13) / 3
        gld_expected = (0.1 + 1 / 3) / 3
        b_ngld_expected = (0.1 + 2 / 7) / 3

        got = estimate_base(base_state, frames, metric=MetricKind.NGLD, delta=0.1)
        assert abs(got.estimate - ngld_expected) <= 1e-9
        got = estimate_method_a(a_state, metric=MetricKind.NGLD, delta=0.1)
        assert abs(got.estimate - ngld_expected) <= 1e-9
        got = estimate_method_b(b_state, metric=MetricKind.NGLD, delta=0.1)
        assert abs(got.estimate - b_ngld_expected) <= 1e-9

        assert abs(estimate_base(base_state, frames, metric=MetricKind.GLD, delta=0.1).estimate - gld_expected) <= 1e-9
        assert abs(estimate_method_a(a_state, metric=MetricKind.GLD, delta=0.1).estimate - gld_expected) <= 1e-9
        assert abs(estimate_method_b(b_state, metric=MetricKind.GLD, delta=0.1).estimate - gld_expected) <= 1e-9


def _constant_clip_frames(kind):
    alpha = Alphabet("ABC")
    if kind == "onehot":
        frame = from_string("ABCA", alpha)
    elif kind == "soft":
        frame = make_frame([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.25, 0.25, 0.5]])
    else:
        frame = make_frame([], num_classes=3)
    return alpha, frame


@pytest.mark.parametrize("kind", ["onehot", "soft", "empty"])
def test_criterion_4_constant_sequence_collapse(kind):
    with criterion(4, f"constant {kind} clips give exactly delta/(n+1) for n=1..30"):
        alpha, frame = _constant_clip_frames(kind)
        state = CombinerState(alpha, track_history=True, track_treaps=True)
        frames = []
        for n in range(1, 31):
            state.absorb(frame)
            frames.append(frame)
            expected = DELTA / (n + 1)
            for metric in MetricKind:
                assert estimate_base(state, frames, metric=metric, delta=DELTA).estimate == expected
                assert estimate_method_a(state, metric=metric, delta=DELTA).estimate == expected
                assert estimate_method_b(state, metric=metric, delta=DELTA).estimate == expected


def test_criterion_5_metric_suite():
    with criterion(5, "metric axioms, brute-force edit distance match, range bounds"):
        rng = random.Random(5150)
        # character-level distance: 1e4 random distribution triples
        for _ in range(10_000):
            a = random_distribution(rng, 4)
            b = random_distribution(rng, 4)
            c = random_distribution(rng, 4)
            assert char_distance(a, a) == 0.0
            assert abs(char_distance(a, b) - char_distance(b, a)) <= 1e-12
            assert char_distance(a, c) <= char_distance(a, b) + char_distance(b, c) + 1e-12

        # sequence distance against the recursive oracle, all pairs
        pool = []
        for length in range(6):
            pool.append(random_onehot_rows(rng, length, 4))
            soft = np.array([random_distribution(rng, 4) for _ in range(length)])
            pool.append(soft.reshape(length, 4))
        for x in pool:
            for y in pool:
                got = gld(x, y)
                assert abs(got - gld_recursive(x, y)) <= 1e-12
                assert got <= x.shape[0] + y.shape[0] + 1e-12

        # normalized distance: axioms and range on 1e4 one-hot triples
        for _ in range(10_000):
            a = random_onehot_rows(rng, rng.randint(0, 5), 4)
            b = random_onehot_rows(rng, rng.randint(0, 5), 4)
            c = random_onehot_rows(rng, rng.randint(0, 5), 4)
            dab, dbc, dac = ngld(a, b), ngld(b, c), ngld(a, c)
            for d in (dab, dbc, dac):
                assert 0.0 <= d <= 1.0
            assert ngld(a, a) == 0.0
            assert abs(dab - ngld(b, a)) <= 1e-12
            assert dac <= dab + dbc + 1e-12


def test_criterion_6_treap_suite():
    with criterion(6, "treap below() matches brute-force scans on 1000 workloads"):
        rng = random.Random(606)
        values_pool = [0.0, 0.1, 0.25, 1 / 3, 0.5, 0.75, 1.0]
        for _ in range(1000):
            index = MultisetIndex(random.Random(rng.randrange(2**30)))
            scan = MultisetScan()
            stored = []
            for _ in range(rng.randint(1, 80)):
                value = rng.choice(values_pool) if rng.random() < 0.5 else rng.random()
                mult = rng.randint(1, 5)
                index.insert(value, mult)
                scan.insert(value, mult)
                stored.append(value)
            bounds = [rng.uniform(-0.2, 1.2) for _ in range(3)]
            bounds += [rng.choice(stored), rng.choice(stored)]
            for bound in bounds:
                got = index.below(bound)
                want_count, want_sum = scan.below(bound)
                assert got.count == want_count
                assert abs(got.sum - want_sum) <= 1e-12
            total_count, total_sum = scan.totals()
            assert index.totals()[0] == total_count
            assert abs(index.totals()[1] - total_sum) <= 1e-12


def test_criterion_7_timing_shape():
    with criterion(7, "per-stage cost: base >= 10x method A at n=25; method A stays flat"):
        start = time.perf_counter()
        config = SyntheticConfig(
            clip_count=4, text_length=15,
            alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789", frames_per_clip=30,
            p_sub=0.15, p_del=0.05, p_ins=0.05, confusion_mass=0.2, seed=7,
        )
        # per clip the fastest of three interleaved repeats: a slow spell of a
        # shared machine then has to last a whole repeat to show
        rows = bench(generate_synthetic(config), list(ESTIMATORS), repeats=3, max_stages=25)
        times = {(row["method"], row["stage"]): row["best_seconds"] for row in rows}
        elapsed = time.perf_counter() - start
        base_25 = times[("base", 25)]
        a_25 = times[("a", 25)]
        a_5 = times[("a", 5)]
        assert base_25 >= 10.0 * a_25, f"base/A ratio at n=25 is {base_25 / a_25:.1f}"
        assert a_25 <= 2.0 * a_5, f"method A grew {a_25 / a_5:.2f}x from n=5 to n=25"
        assert elapsed < 300.0, f"took {elapsed:.1f}s, budget is 300s"


def test_criterion_8_estimate_curve_proximity(noisy_traces):
    with criterion(8, "mean method A estimate within 10% of base per stage; B strays more"):
        means = {}
        for method in ESTIMATORS:
            estimates = np.array([trace[0] for trace in noisy_traces[method]])
            means[method] = estimates.mean(axis=0)
        base = means[StopperMethod.BASE]
        dev_a = np.abs(means[StopperMethod.METHOD_A] - base)
        dev_b = np.abs(means[StopperMethod.METHOD_B] - base)
        relative_a = dev_a[2:] / base[2:]
        assert relative_a.max() <= 0.10, f"worst relative deviation {relative_a.max():.4f}"
        assert (dev_b > dev_a).any(), "naive normalization gap not visible"


THRESHOLD_GRID = [round(0.01 * i, 2) for i in range(41)]


def _stop_stage(estimates, threshold, horizon):
    return next((i + 1 for i, est in enumerate(estimates) if est <= threshold), horizon)


def test_criterion_9_profile_sanity(noisy_traces):
    with criterion(9, "stoppers meet or beat the fixed-stage baseline; sweeps are monotone"):
        errors = np.array([trace[1] for trace in noisy_traces[StopperMethod.BASE]])
        baseline = errors.mean(axis=0)  # mean error when always stopping at stage s

        def baseline_at(stage):
            lo = max(1, min(30, int(math.floor(stage))))
            hi = max(1, min(30, int(math.ceil(stage))))
            if lo == hi:
                return baseline[lo - 1]
            frac = stage - lo
            return baseline[lo - 1] * (1 - frac) + baseline[hi - 1] * frac

        for method in ESTIMATORS:
            traces = noisy_traces[method]
            beats_baseline = 0
            for threshold in THRESHOLD_GRID:
                stops = [_stop_stage(est, threshold, 30) for est, _ in traces]
                mean_stage = sum(stops) / len(stops)
                mean_error = sum(
                    traces[i][1][stops[i] - 1] for i in range(len(traces))
                ) / len(traces)
                if 1.0 < mean_stage < 30.0 and mean_error <= baseline_at(mean_stage) + 1e-12:
                    beats_baseline += 1
            assert beats_baseline >= 1, f"{method} never met the baseline at an interior point"

            # exact per-clip monotonicity of the stop stage in the threshold
            for est, _ in traces:
                stages = [_stop_stage(est, t, 30) for t in THRESHOLD_GRID]
                assert all(a >= b for a, b in zip(stages, stages[1:]))
