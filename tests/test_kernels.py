"""The compiled kernels against the Python ones, and the loader's fallbacks."""

import random
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np
import pytest

from framestop import _kernels, metrics
from framestop.combiner import CombinerState, align
from framestop.core import make_frame
from framestop.metrics import MetricKind, cost_table, gap_costs, gld, ngld, pairwise_costs
from framestop.stoppers import (
    StopperConfig,
    StopperMethod,
    estimate_method_a,
    estimate_method_b,
    run_clip,
    stage_traces,
)

from oracles import growth_clip, late_rows_clip, looped_clip, python_kernels, random_clip


def _spread_clips():
    rng = random.Random(515)
    clips = [random_clip(rng, i, weighted=i % 2 == 1) for i in range(40)]
    return clips + [looped_clip(150), late_rows_clip(), growth_clip()]


def _spreads(frames, alphabet):
    """(compiled, numpy) spread after every absorb."""
    state = CombinerState(alphabet, track_history=True)
    for frame in frames:
        state.absorb(frame)
        compiled = state.spread()
        with python_kernels():
            reference = state.spread()
        yield compiled, reference


def test_compiled_spread_matches_numpy(compiled):
    for clip in _spread_clips():
        for got, want in _spreads(clip.frames, clip.alphabet):
            assert got.shape == want.shape
            assert np.abs(got - want).max(initial=0.0) <= 1e-12


def test_compiled_spread_is_zero_on_constant_clips(compiled):
    rng = random.Random(77)
    for i in range(20):
        clip = random_clip(rng, i, weighted=i % 2 == 1)
        for got, _ in _spreads([clip.frames[0]] * 40, clip.alphabet):
            assert not got.any()


def _estimates(state):
    """Method a's breakdown and, on unweighted states, method b's, under
    both metrics: ((metric, method) -> breakdown)."""
    out = {}
    for metric in MetricKind:
        out[metric, "a"] = estimate_method_a(state, metric=metric, delta=0.1)
        if state.unweighted:
            out[metric, "b"] = estimate_method_b(state, metric=metric, delta=0.1)
    return out


def _estimate_pairs(frames, alphabet):
    """(compiled, numpy) estimates after every absorb; method b's too where
    every frame has unit weight."""
    unit = all(frame.weight == 1.0 for frame in frames)
    state = CombinerState(alphabet, track_history=True, track_treaps=unit)
    for frame in frames:
        state.absorb(frame)
        compiled = _estimates(state)
        with python_kernels():
            reference = _estimates(state)
        yield compiled, reference


def test_compiled_estimates_match_numpy(compiled):
    checked = set()
    for clip in _spread_clips():
        for got, want in _estimate_pairs(clip.frames, clip.alphabet):
            assert got.keys() == want.keys()
            checked.update(got)
            for key, breakdown in got.items():
                reference = want[key]
                assert abs(breakdown.estimate - reference.estimate) <= 1e-12
                assert abs(breakdown.gld_aggregate - reference.gld_aggregate) <= 1e-12
                if reference.per_candidate is None:
                    assert breakdown.per_candidate is None
                else:
                    assert len(breakdown.per_candidate) == len(reference.per_candidate)
                    assert np.allclose(
                        breakdown.per_candidate, reference.per_candidate, rtol=0.0, atol=1e-12
                    )
            for metric in MetricKind:
                if (metric, "b") in got:
                    assert got[metric, "b"].gld_aggregate == got[metric, "a"].gld_aggregate
    assert checked == {(metric, method) for metric in MetricKind for method in "ab"}


def test_compiled_estimates_are_exact_on_constant_clips(compiled):
    rng = random.Random(78)
    for i in range(20):
        clip = random_clip(rng, i, weighted=i % 2 == 1)
        for n, (got, _) in enumerate(_estimate_pairs([clip.frames[0]] * 40, clip.alphabet), 1):
            for breakdown in got.values():
                assert breakdown.estimate == 0.1 / (n + 1)
                assert breakdown.gld_aggregate == 0.0
                assert breakdown.per_candidate is None or not any(breakdown.per_candidate)


def test_compiled_gld_is_cost_table_bit_for_bit(compiled):
    rng = random.Random(919)
    for i in range(60):
        clip = random_clip(rng, i)
        state = CombinerState(clip.alphabet)
        for frame in clip.frames:
            state.absorb(frame)
            for x, y in ((state.mean_rows, frame.rows), (frame.rows, state.mean_rows)):
                sub = pairwise_costs(x, y).tolist() if len(x) and len(y) else []
                want = cost_table(sub, gap_costs(x).tolist(), gap_costs(y).tolist())[0][0]
                assert gld(x, y).hex() == want.hex()


def _rows_of_kind(rng, kind, count, width):
    if kind == "one-hot":
        return np.eye(width)[rng.integers(width, size=count)]
    if kind == "mixed":  # each row of another kind
        kinds = rng.choice(["dirichlet", "skewed", "one-hot", "subnormal"], size=count)
        return np.array([_rows_of_kind(rng, k, 1, width)[0] for k in kinds]).reshape(count, width)
    alpha = 0.2 if kind == "skewed" else 1.0
    rows = rng.dirichlet(np.full(width, alpha), size=count)
    return rows * 2.0**-1060 if kind == "subnormal" else rows


COST_KINDS = ("dirichlet", "skewed", "one-hot", "subnormal", "mixed")


@pytest.mark.parametrize("width", _kernels.PROBE_WIDTHS)
def test_compiled_gld_costs_are_numpy_bit_for_bit(compiled, width):
    rng = np.random.default_rng(width)
    for kind_x in COST_KINDS:
        for kind_y in COST_KINDS:
            for s, m in ((0, 0), (0, 3), (4, 0), (1, 1), (5, 3)):
                x = _rows_of_kind(rng, kind_x, s, width)
                y = _rows_of_kind(rng, kind_y, m, width)
                sub, gaps_x, gaps_y, cost = _kernels.costs(x, y)
                want_sub, want_x, want_y = pairwise_costs(x, y), gap_costs(x), gap_costs(y)
                assert sub.tobytes() == want_sub.tobytes()
                assert gaps_x.tobytes() == want_x.tobytes()
                assert gaps_y.tobytes() == want_y.tobytes()
                want = cost_table(want_sub.tolist(), want_x.tolist(), want_y.tolist())[0][0]
                assert cost.hex() == _kernels.gld(x, y).hex() == want.hex()


def test_a_probe_mismatch_sends_gld_to_the_numpy_costs(compiled, monkeypatch):
    rng = random.Random(4)
    pairs = []
    for i in range(10):
        clip = random_clip(rng, i)
        pairs += [(a.rows, b.rows) for a, b in zip(clip.frames, clip.frames[1:])]
    before = [gld(x, y).hex() for x, y in pairs]

    numpy_costs = metrics.pairwise_costs

    def one_ulp_off_at_129(x, y):
        costs = numpy_costs(x, y)
        return np.nextafter(costs, np.inf) if x.shape[1] == 129 else costs

    monkeypatch.setattr(metrics, "pairwise_costs", one_ulp_off_at_129)
    monkeypatch.setattr(_kernels, "lib", _kernels._UNSET)
    monkeypatch.setattr(_kernels, "reason", _kernels.reason)
    monkeypatch.setattr(_kernels, "gld_costs", _kernels.gld_costs)
    assert _kernels.get() is not None
    monkeypatch.setattr(metrics, "pairwise_costs", numpy_costs)
    assert _kernels.status() == "compiled (gld costs: numpy: probe mismatch at K+1=129)"

    def unreachable(*args):
        raise AssertionError("compiled costs used after a probe mismatch")

    monkeypatch.setattr(_kernels, "gld", unreachable)
    assert [gld(x, y).hex() for x, y in pairs] == before


def _outcomes(clips):
    """Stop decisions and estimate traces of every method over ``clips``."""
    out = []
    for clip in clips:
        for method in (StopperMethod.BASE, StopperMethod.METHOD_A, StopperMethod.METHOD_B):
            config = StopperConfig(method, metric=MetricKind.NGLD, threshold=0.02)
            out.append((run_clip(clip, config), stage_traces(clip, config)))
    return out


def test_no_compiler_runs_the_python_kernels(monkeypatch):
    rng = random.Random(31)
    clips = [random_clip(rng, i) for i in range(12)] + [looped_clip(40)]
    before = _outcomes(clips)

    monkeypatch.setattr(_kernels, "lib", _kernels._UNSET)
    monkeypatch.setattr(_kernels, "reason", _kernels.reason)
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: "no-such-compiler-cc")
    assert _kernels.get() is None
    assert _kernels.status().startswith("python: no C compiler")

    def unreachable(*args):
        raise AssertionError("compiled kernel called without a compiler")

    for name in ("fill", "path", "spread"):
        monkeypatch.setattr(_kernels, name, unreachable)
    after = _outcomes(clips)
    for (outcome, (estimates, errors)), (outcome_py, (estimates_py, errors_py)) in zip(before, after):
        assert (outcome.stop_stage, outcome.forced) == (outcome_py.stop_stage, outcome_py.forced)
        assert outcome.final_error == outcome_py.final_error
        assert errors == errors_py
        assert np.allclose(estimates, estimates_py, rtol=0.0, atol=1e-12)


def test_kernels_compile_without_warnings(tmp_path):
    argv = _kernels.compiler()
    if argv is None:
        pytest.skip(f"compiled kernels unavailable: {_kernels.status()}")
    command = [*argv, *_kernels.FLAGS, "-Wall", "-Wextra", "-Werror", str(_kernels.SOURCE)]
    done = subprocess.run(
        [*command, "-o", str(tmp_path / "kernels.so")], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_build_goes_to_the_user_cache(compiled, monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_kernels, "lib", _kernels._UNSET)
    monkeypatch.setattr(_kernels, "reason", _kernels.reason)
    assert _kernels.get() is not None
    built = list((tmp_path / "framestop").iterdir())
    assert len(built) == 1 and built[0].name.startswith("kernels-")
    assert _kernels.fill(np.zeros((0, 2)), np.zeros(0), np.array([0.5, 0.25])) == 0.75


def test_unwritable_cache_builds_into_a_private_directory(compiled, monkeypatch, tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    monkeypatch.setattr(_kernels, "lib", _kernels._UNSET)
    monkeypatch.setattr(_kernels, "reason", _kernels.reason)
    assert _kernels.get() is not None
    frame = make_frame([[0.25, 0.75]])
    assert _kernels.fill(np.zeros((1, 0)), frame.gap_costs, np.zeros(0)) == 1.0
    assert blocker.read_text() == ""
    assert list(scratch.iterdir()) == []  # the private build is removed once loaded


def _no_home(cls):
    raise RuntimeError("Could not determine home directory")


def test_no_home_directory_builds_into_a_private_directory(compiled, monkeypatch, tmp_path):
    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    monkeypatch.setattr(Path, "home", classmethod(_no_home))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(_kernels, "lib", _kernels._UNSET)
    monkeypatch.setattr(_kernels, "reason", _kernels.reason)
    assert _kernels.get() is not None
    assert _kernels.fill(np.zeros((0, 2)), np.zeros(0), np.array([0.5, 0.25])) == 0.75
    assert list(tmp_path.iterdir()) == []


def test_a_failed_load_runs_the_python_kernels(monkeypatch, tmp_path):
    if _kernels.compiler() is None:
        pytest.skip(f"compiled kernels unavailable: {_kernels.status()}")

    def broken(path):
        raise AttributeError("undefined symbol: fs_fill")

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_kernels, "_open", broken)
    monkeypatch.setattr(_kernels, "lib", _kernels._UNSET)
    monkeypatch.setattr(_kernels, "reason", _kernels.reason)
    assert _kernels.get() is None
    assert _kernels.status() == "python: AttributeError: undefined symbol: fs_fill"
    assert align(make_frame([[0.25, 0.75]]), make_frame([[0.5, 0.5]])).cost == 0.25


# (frame rows, result rows) holding a NaN, an infinity, or both infinities
# meeting in one difference (inf - inf is NaN)
NON_FINITE = [
    ([[0.0, 1.0]], [[np.nan, 1.0]]),
    ([[np.nan, 1.0], [1.0, 0.0]], [[0.0, 1.0]]),
    ([[0.0, 1.0]], [[1.0, 0.0], [np.inf, 1.0]]),
    ([[-np.inf, 1.0]], [[0.0, 1.0]]),
    ([[np.inf, 1.0]], [[np.inf, 1.0]]),
    ([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [[0.0, np.nan, 0.0]]),
]


def _check_align_refuses(frame, result):
    # numpy warns of the inf - inf it meets on the way; the refusal is the point here
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="must be finite"):
        align(np.array(frame), np.array(result))


@pytest.mark.parametrize("frame, result", NON_FINITE)
def test_align_refuses_non_finite_rows_compiled(compiled, frame, result):
    _check_align_refuses(frame, result)


@pytest.mark.parametrize("frame, result", NON_FINITE)
def test_align_refuses_non_finite_rows_on_python_kernels(frame, result):
    with python_kernels():
        _check_align_refuses(frame, result)


def _check_gld_refuses(x, y):
    # numpy warns of the inf - inf it meets on the way; the refusal is the point here
    for fn in (gld, ngld):
        for a, b in ((x, y), (y, x)):
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="must be finite"):
                fn(np.array(a), np.array(b))


@pytest.mark.parametrize("x, y", NON_FINITE)
def test_gld_refuses_non_finite_rows_compiled(compiled, monkeypatch, x, y):
    monkeypatch.setattr(_kernels, "gld_costs", "compiled")
    _check_gld_refuses(x, y)


@pytest.mark.parametrize("x, y", NON_FINITE)
def test_gld_refuses_non_finite_rows_on_numpy_costs(compiled, monkeypatch, x, y):
    monkeypatch.setattr(_kernels, "gld_costs", "numpy: set by the test")
    _check_gld_refuses(x, y)


@pytest.mark.parametrize("x, y", NON_FINITE)
def test_gld_refuses_non_finite_rows_on_python_kernels(x, y):
    with python_kernels():
        _check_gld_refuses(x, y)


def test_compiled_trace_stops_on_nan_costs(compiled):
    # every cost NaN: no step reproduces a cell, so the trace must end, not run off
    with pytest.raises(ValueError, match="NaN"):
        _kernels.path(np.full((3, 2), np.nan), np.full(3, np.nan), np.full(2, np.nan))
    # a NaN substitution the gaps route around: the cost is NaN, the path stays in bounds
    result_rows, frame_rows, cost = _kernels.path(np.array([[np.nan]]), np.ones(1), np.ones(1))
    assert (result_rows, frame_rows) == ((1, 0), (0, 1)) and cost != cost
