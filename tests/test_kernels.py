"""The compiled kernels against the Python ones, and the loader's fallbacks."""

import contextlib
import copy
import gc
import os
import pickle
import platform
import random
import subprocess
import sys
import sysconfig
import tempfile
import threading
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from framestop import _kernels, combiner, metrics
from framestop.combiner import CombinerState, align, merge_share
from framestop.core import Alphabet, Clip, RecognitionFrame, make_frame
from framestop.harness import SyntheticConfig, generate_synthetic
from framestop.metrics import MetricKind, cost_table, gap_costs, gld, ngld, pairwise_costs
from framestop.stoppers import (
    StopperConfig,
    StopperMethod,
    estimate_base,
    estimate_method_a,
    estimate_method_b,
    run_clip,
    stage_traces,
    stages,
)

from oracles import (
    growth_clip,
    kernel_route,
    late_rows_clip,
    looped_clip,
    python_kernels,
    random_clip,
)


def _spread_clips():
    rng = random.Random(515)
    clips = [random_clip(rng, i, weighted=i % 2 == 1) for i in range(40)]
    return clips + [looped_clip(150), late_rows_clip(), growth_clip()]


def _estimates(state):
    """Method a's and method b's breakdowns under both metrics:
    ((metric, method) -> breakdown)."""
    out = {}
    for metric in MetricKind:
        out[metric, "a"] = estimate_method_a(state, metric=metric, delta=0.1)
        out[metric, "b"] = estimate_method_b(state, metric=metric, delta=0.1)
    return out


def _estimate_pairs(frames, alphabet):
    """(compiled, numpy) estimates after every absorb, of two states that
    absorb ``frames`` on the compiled route and on the Python one, each
    keeping its own scan."""
    states = [CombinerState(alphabet, track_history=True) for _ in range(2)]
    for frame in frames:
        states[0].absorb(frame)
        with python_kernels():
            states[1].absorb(frame)
        yield _estimates(states[0]), _estimates(states[1])


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
                assert got[metric, "b"].gld_aggregate == got[metric, "a"].gld_aggregate
    assert checked == {(metric, method) for metric in MetricKind for method in "ab"}


def test_compiled_candidate_gld_is_numpys_within_1e_14_at_400_stages(compiled):
    clip = looped_clip(400)
    state, reference = (CombinerState(clip.alphabet, track_history=True) for _ in range(2))
    for frame in clip.frames:
        state.absorb(frame)
        with python_kernels():
            reference.absorb(frame)
        # d, g, the sum of g and the sum of d
        for got, want in zip(state.candidate_gld(), reference.candidate_gld()):
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


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
# the probe's widths and, with them, every tail length 0-7 after the 8 lanes
COST_WIDTHS = sorted({*_kernels.PROBE_WIDTHS, *range(10, 16), 24, 31, 33})
# (S, M): empty and single rows, then 4-9 rows on both sides, so each side
# fills whole groups of four lanes and leaves every remainder 0-3
COST_SHAPES = (
    (0, 0), (0, 3), (4, 0), (1, 1), (5, 3), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 4),
)


def test_costs_and_probe_read_the_module_they_are_given(compiled):
    # not the kernels in use: with the Python kernels installed, the
    # compiled module's costs are the same bytes and its probe passes
    rng = np.random.default_rng(21)
    x, y = (_kernels._probe_rows(rng, 37, count) for count in _kernels.PROBE_ROWS)
    *want, want_cost = _kernels.costs(compiled, x, y)
    with python_kernels():
        *got, cost = _kernels.costs(compiled, x, y)
        assert _kernels.probe(compiled) is None
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert cost.hex() == want_cost.hex()


@pytest.mark.parametrize("width", COST_WIDTHS)
def test_compiled_gld_costs_are_numpy_bit_for_bit(compiled, width):
    rng = np.random.default_rng(width)
    for kind_x in COST_KINDS:
        for kind_y in COST_KINDS:
            for s, m in COST_SHAPES:
                x = _rows_of_kind(rng, kind_x, s, width)
                y = _rows_of_kind(rng, kind_y, m, width)
                sub, gaps_x, gaps_y, cost = _kernels.costs(compiled, x, y)
                want_sub, want_x, want_y = pairwise_costs(x, y), gap_costs(x), gap_costs(y)
                assert sub.tobytes() == want_sub.tobytes()
                assert gaps_x.tobytes() == want_x.tobytes()
                assert gaps_y.tobytes() == want_y.tobytes()
                want = cost_table(want_sub.tolist(), want_x.tolist(), want_y.tolist())[0][0]
                assert cost.hex() == compiled.gld(x, y).hex() == want.hex()


def _row_distance_replica(a, b):
    """fs_spread's distance from a current row to the empty row in its
    order, on floats: lane j of four adds |a[k] - b[k]| for k = j mod 4
    over the whole groups of four, lane 0 then the tail in order, and the
    lanes combine as (0+1)+(2+3)."""
    lanes = [0.0] * 4
    whole = len(a) - len(a) % 4
    for k in range(whole):
        lanes[k % 4] += abs(a[k] - b[k])
    for k in range(whole, len(a)):
        lanes[0] += abs(a[k] - b[k])
    return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])


def _spread_replica(rows, frame_slots, current, empty):
    """One frame's spread in fs_spread's order, on floats: over the rows in
    order, group c of four classes of a row whose slot is not 0 adds to
    accumulator c mod 4, lane k mod 4, the classes past the whole groups
    to the tail, and a slot holding 0 adds the current row's distance to
    the empty row to the gap; the accumulators combine lane by lane as
    (0+1)+(2+3), their lanes as (0+1)+(2+3), then the tail, then the gap."""
    acc, tail, gap = [[0.0] * 4 for _ in range(4)], 0.0, 0.0
    for slot, row, to_empty in zip(frame_slots, current, empty):
        if not slot:
            gap += to_empty
            continue
        whole = len(row) - len(row) % 4
        for k in range(whole):
            acc[k // 4 % 4][k % 4] += abs(rows[slot][k] - row[k])
        for k in range(whole, len(row)):
            tail += abs(rows[slot][k] - row[k])
    v = [(acc[0][lane] + acc[1][lane]) + (acc[2][lane] + acc[3][lane]) for lane in range(4)]
    return (((v[0] + v[1]) + (v[2] + v[3])) + tail) + gap


def _scan_replica(rows, slots, current, shares, length):
    """float.hex of the d, the sum of g and the sum of d that fs_spread
    computes from a store's rows, the scanned (frames, row ids) slots and
    the current rows, on floats: each frame's spread (_spread_replica),
    the sums in frame order."""
    rows, current = rows.tolist(), current.tolist()
    empty = [_row_distance_replica(rows[0], row) for row in current]
    d, g_sum, d_sum = [], 0.0, 0.0
    for frame_slots, share in zip(slots.tolist(), shares):
        g = _spread_replica(rows, frame_slots, current, empty) * share / 2.0
        d.append(g if length is None else (2.0 * g / (g + length) if g + length > 0.0 else 0.0))
        g_sum += g
        d_sum += d[-1]
    return [x.hex() for x in d], g_sum.hex(), d_sum.hex()


def _hex_scan(d, g, g_sum, d_sum):
    """float.hex of a kept scan record as :func:`_scan_replica` gives it,
    at the nGLD length 2 S and for GLD: (d, sum of g, sum of d) and
    (g, sum of g, sum of g)."""
    return (
        ([x.hex() for x in d.tolist()], g_sum.hex(), d_sum.hex()),
        ([x.hex() for x in g.tolist()], g_sum.hex(), g_sum.hex()),
    )


def _replicas(rows, slots, current, shares):
    """:func:`_scan_replica` at the nGLD length 2 S and for GLD, S the
    scanned row ids."""
    return tuple(_scan_replica(rows, slots, current, shares, length)
                 for length in (2.0 * slots.shape[1], None))


# each lane count 1-3 of the tail, whole groups of four, and the widths the
# costs split at
SCAN_WIDTHS = (*range(1, 10), 16, 37, 128, 129)


@pytest.mark.parametrize("width", SCAN_WIDTHS)
def test_compiled_scan_is_its_summation_order_in_hex(compiled, width):
    rng = np.random.default_rng(width)
    # a store by hand: 15 rows after the empty one in blocks of four and a
    # fifth block for the two rows of the frame the absorb appends; 6
    # frames of 5 row ids pointing at the first 12 rows, frame 0 all empty
    # slots and the others a mix, with room for frame 6 and 7 row ids.  The
    # absorb merges frame 6 into 5 result rows whose ids are a permutation,
    # then scans the 7 frames against the merged rows
    rows = np.vstack([np.eye(1, width), rng.dirichlet(np.ones(width), 15), np.zeros((4, width))])
    slots = np.zeros((7, 7), dtype=np.int64)
    slots[1:6, :5] = rng.integers(1, 13, size=(5, 5)) * (rng.random((5, 5)) < 0.7)
    assert (slots[1:6, :5] == 0).any() and slots.any()
    result, frame = (np.vstack([rng.dirichlet(np.ones(width), m), np.eye(1, width)]) for m in (5, 2))
    for shares in (np.full(7, 0.125), rng.uniform(0.05, 0.9, 7)):
        blocks, written = tuple(rows[b : b + 4].copy() for b in range(0, 20, 4)), slots.copy()
        order = np.append(rng.permutation(5), [9, 9])
        _, merged, scan = compiled.absorb(result, frame, 0.5, order, blocks, 16, written, 6, shares)
        steps = len(merged) - 1
        store = np.concatenate(blocks), written[:, :steps], merged[np.argsort(order[:steps])]
        assert _hex_scan(*scan) == _replicas(*store, shares)
    if width == 1:  # a state's rows have the empty class and at least one symbol
        return
    # a state's store through candidate_gld, unit and random weights
    k = width - 1
    alphabet = Alphabet([chr(0x100 + i) for i in range(k)])
    clips = []
    for weighted in (False, True):
        with warnings.catch_warnings():  # Dirichlet rows sum to 1 within rounding
            warnings.simplefilter("ignore")
            frames = [
                make_frame(rng.dirichlet(np.ones(k), m), rng.uniform(0.25, 3.0) if weighted else 1.0,
                           num_classes=k)
                for m in (3, 0, 5, 2, 6, 0, 4, 1)
            ]
        clips.append(Clip(f"weighted-{weighted}", alphabet, "", frames))
    _check_the_kept_scan(clips)


def _flat_rows(state):
    """The store rows a state has in use, its blocks' rows end to end."""
    return np.concatenate(state._blocks)[: state._used]


def _current_by_row_id(state):
    """The current rows of a state by row id."""
    return state.mean_rows[np.argsort(state._ids[: state.num_chars])]


# the dispatch attribute of _kernels.c's entry points
CLONES = '__attribute__((target_clones("avx2", "default")))'


def _kernel_dump(frames, alphabet):
    """float.hex of everything fs_absorb and fs_spread give over ``frames``:
    after every absorb, the alignment against the result before it, the
    merged rows, the row ids and the kept scan's distances and sums, nGLD
    and GLD; at the end, the history store."""
    state = CombinerState(alphabet, track_history=True)
    out = []
    for frame in frames:
        alignment = align(frame, state.mean_rows)
        out.append((alignment.result_rows, alignment.frame_rows, alignment.cost.hex()))
        state.absorb(frame)
        out += [[x.hex() for x in state.mean_rows.ravel().tolist()], state.row_ids]
        out.append(_hex_scan(*state.candidate_gld()))
    out.append([x.hex() for x in _flat_rows(state).ravel().tolist()])
    return out + [state._slots[: state.n].tolist()]


def test_the_baseline_build_gives_the_loaded_librarys_bits(compiled, monkeypatch, tmp_path):
    # the loaded library runs its AVX2 clone on a machine that has AVX2
    source = _kernels.SOURCE.read_text()
    assert source.count(CLONES) == 1
    loaded = Path(compiled.__file__)
    if loaded.is_file() and platform.machine() == "x86_64" and platform.libc_ver()[0] == "glibc":
        assert b"fs_gld.avx2" in loaded.read_bytes()  # the clones were built
    copy = tmp_path / "baseline.c"
    copy.write_text(source.replace(CLONES, ""))
    command = [*_kernels.command(_kernels.compiler()), "-Wall", "-Wextra", "-Wpadded", "-Werror"]
    target = tmp_path / "baseline.so"
    done = subprocess.run(
        [*command, str(copy), "-o", str(target)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert b"fs_gld.avx2" not in target.read_bytes()

    def dump(lib):
        rng = np.random.default_rng(20200)
        out = []
        for width in _kernels.PROBE_WIDTHS:
            x, y = (_kernels._probe_rows(rng, width, n) for n in _kernels.PROBE_ROWS)
            *arrays, cost = _kernels.costs(lib, x, y)
            out.append([v.hex() for a in arrays for v in a.ravel().tolist()] + [cost.hex()])
        for clip in _spread_clips():
            out += _kernel_dump(clip.frames, clip.alphabet)
        return out

    want = dump(compiled)
    monkeypatch.setattr(_kernels, "lib", _kernels._open(target))
    assert dump(_kernels.lib) == want


# the flags of the sanitized build: line numbers in its reports, and an
# abort on the first report of either sanitizer
SANITIZE = ("-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all")

# run in a process that preloads the address sanitizer's runtime, with the
# sanitized build at argv[1] and the directories of framestop and of these
# tests at argv[2:4]: the entry points' refusal cases, the result absorb
# cuts and write-protects, the scan it keeps (in the tiny store too, where
# it answers for more room), then a clip of acceptance criterion 7's recipe
# and looped_clip(150) through all three entry points
SANITIZED_RUN = """
import sys
sys.path[:0] = sys.argv[2:4]
from framestop import _kernels
_kernels.lib, _kernels.reason = _kernels._open(sys.argv[1]), "compiled"
import test_kernels as t
from framestop.combiner import CombinerState, align
from framestop.harness import SyntheticConfig, generate_synthetic
from framestop.metrics import gld, ngld
from oracles import late_rows_clip, looped_clip
lib = _kernels.lib
assert _kernels.probe(lib) is None
for entry in ("gld", "align", "absorb"):
    t.test_the_entry_points_refuse_arrays_the_kernels_cannot_read(lib, entry)
    t.test_the_entry_points_refuse_unaligned_arrays(lib, entry)
    t.test_the_entry_points_refuse_too_few_or_too_many_arguments(lib, entry)
t.test_the_entry_points_refuse_blocks_that_fit_no_store(lib, "absorb")
t.test_compiled_trace_stops_on_nan_costs(lib)
t.test_compiled_absorb_writes_nothing_on_non_finite_costs(lib)
t.test_the_compiled_absorb_hands_back_the_result_the_state_keeps(lib)
t.test_compiled_kernels_refuse_a_store_without_room(lib)
from framestop import combiner
for capacity in (t._TINY_STORE, combiner._STORE_CAPACITY):  # the tiny store, then the default
    combiner._STORE_CAPACITY = capacity
    t._check_the_kept_scan([looped_clip(150), late_rows_clip(), *t._kept_scan_clips()[2:12]])
config = SyntheticConfig(
    clip_count=1, text_length=15, alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789",
    frames_per_clip=30, p_sub=0.15, p_del=0.05, p_ins=0.05, confusion_mass=0.2, seed=7,
)
for clip in [*generate_synthetic(config), looped_clip(150)]:
    state = CombinerState(clip.alphabet, track_history=True)
    for frame in clip.frames:
        gld(frame.rows, state.mean_rows), ngld(state.mean_rows, frame.rows)
        align(frame, state.mean_rows)
        state.absorb(frame)
        state.candidate_gld()
    assert state.n == len(clip.frames)
print("ran clean")
"""


def _runtime(argv, name):
    """The path of the compiler ``argv``'s runtime library ``name``; None
    when it has none."""
    done = subprocess.run([*argv, f"-print-file-name={name}"], capture_output=True, text=True,
                          timeout=60)
    path = Path(done.stdout.strip())
    return path if done.returncode == 0 and path.is_absolute() and path.is_file() else None


def test_the_entry_points_run_clean_under_the_address_and_undefined_sanitizers(
    compiled, tmp_path
):
    argv = _kernels.compiler()
    runtime = _runtime(argv, "libasan.so")
    if runtime is None or _runtime(argv, "libubsan.so") is None:
        pytest.skip(f"{argv[0]} has no libasan.so or libubsan.so")
    # the runtime must be loaded first, before the interpreter's own libraries
    env = {**os.environ, "LD_PRELOAD": str(runtime), "ASAN_OPTIONS": "detect_leaks=0"}
    bare = subprocess.run([sys.executable, "-c", "pass"], env=env, capture_output=True, text=True,
                          timeout=60)
    if bare.returncode != 0:  # the runtime itself cannot start on this system
        pytest.skip(f"the interpreter does not start with {runtime}: {bare.stderr.strip()[:300]}")
    copy = tmp_path / "sanitized.c"
    copy.write_text(_kernels.SOURCE.read_text().replace(CLONES, ""))
    target = tmp_path / "sanitized.so"
    built = subprocess.run(
        [*_kernels.command(argv), *SANITIZE, str(copy), "-o", str(target)],
        capture_output=True, text=True, timeout=120,
    )
    assert built.returncode == 0, built.stderr
    assert b"__asan_report" in target.read_bytes()
    paths = [str(_kernels.SOURCE.parent.parent), str(Path(__file__).parent)]
    done = subprocess.run(
        [sys.executable, "-c", SANITIZED_RUN, str(target), *paths], env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0 and done.stdout.split() == ["ran", "clean"], done.stderr[-4000:]


def _outcomes(clips):
    """Stop decisions and estimate traces of every method over ``clips``."""
    out = []
    for clip in clips:
        for method in (StopperMethod.BASE, StopperMethod.METHOD_A, StopperMethod.METHOD_B):
            config = StopperConfig(method, metric=MetricKind.NGLD, threshold=0.02)
            out.append((run_clip(clip, config), stage_traces(clip, config)))
    return out


def _kernel_routes(clips):
    """What every public entry point that reaches a kernel gives over
    ``clips``: float.hex of gld and ngld between neighbouring frames, the
    bytes of align and absorb (:func:`_state_dump`), the float.hex of every
    estimate (:func:`_estimate_dump`), and every method's stops and traces
    (:func:`_outcomes`)."""
    distances = [
        (gld(a, b).hex(), ngld(a, b).hex())
        for clip in clips for a, b in zip(clip.frames, clip.frames[1:])
    ]
    states = [_state_dump(clip.frames, clip.alphabet) for clip in clips]
    estimates = [_estimate_dump(clip.frames, clip.alphabet) for clip in clips]
    return distances, states, estimates, _outcomes(clips)


def _check_the_python_kernels_run(monkeypatch, fresh_load, fault, status, clips):
    """Load the kernels afresh with the patches ``fault(patch)`` makes in
    place for the load alone, and check that the Python kernels run: them
    installed, the status ``status``, and every route into a kernel over
    ``clips`` giving what it gives under :func:`python_kernels`, bit for
    bit."""
    with python_kernels():
        want = _kernel_routes(clips)
    fresh_load()
    with monkeypatch.context() as patch:
        fault(patch)
        assert vars(_kernels.get()) == vars(_kernels.reference())
    assert _kernels.status() == status
    assert _kernel_routes(clips) == want


def test_a_probe_mismatch_runs_the_python_kernels(compiled, monkeypatch, fresh_load):
    rng = random.Random(4)
    clips = [random_clip(rng, i, weighted=i % 3 == 1) for i in range(10)]
    numpy_costs = metrics.pairwise_costs

    def one_ulp_off_at_129(x, y):
        costs = numpy_costs(x, y)
        return np.nextafter(costs, np.inf) if x.shape[1] == 129 else costs

    _check_the_python_kernels_run(
        monkeypatch, fresh_load,
        lambda patch: patch.setattr(metrics, "pairwise_costs", one_ulp_off_at_129),
        "python: probe mismatch at K+1=129", clips,
    )


def test_no_compiler_runs_the_python_kernels(monkeypatch, fresh_load):
    rng = random.Random(31)
    clips = [random_clip(rng, i) for i in range(12)] + [looped_clip(40)]
    _check_the_python_kernels_run(
        monkeypatch, fresh_load,
        lambda patch: patch.setattr(sysconfig, "get_config_var", lambda name: "no-such-cc"),
        "python: no C compiler ('no-such-cc' not found)", clips,
    )


def _headers_in(monkeypatch, directory):
    """Point sysconfig's include directories at ``directory``."""
    get_path = sysconfig.get_path

    def get(name, *args, **kwargs):
        return str(directory) if name in ("include", "platinclude") else get_path(name, *args, **kwargs)

    monkeypatch.setattr(sysconfig, "get_path", get)


def test_no_python_headers_runs_the_python_kernels(monkeypatch, tmp_path, fresh_load):
    if _kernels.compiler() is None:
        pytest.skip(f"compiled kernels unavailable: {_kernels.unbuildable()}")
    rng = random.Random(37)
    clips = [random_clip(rng, i, weighted=i % 3 == 1) for i in range(9)] + [looped_clip(30)]
    empty = tmp_path / "include"
    empty.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _check_the_python_kernels_run(
        monkeypatch, fresh_load, lambda patch: _headers_in(patch, empty),
        f"python: no Python.h in {empty}", clips,
    )
    assert not (tmp_path / "cache").exists()  # nothing was built


def test_no_numpy_headers_runs_the_python_kernels(monkeypatch, tmp_path, fresh_load):
    if _kernels.compiler() is None:
        pytest.skip(f"compiled kernels unavailable: {_kernels.unbuildable()}")
    rng = random.Random(41)
    clips = [random_clip(rng, i, weighted=i % 3 == 1) for i in range(9)] + [looped_clip(30)]
    empty = tmp_path / "numpy-include"
    empty.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _check_the_python_kernels_run(
        monkeypatch, fresh_load, lambda patch: patch.setattr(np, "get_include", lambda: str(empty)),
        f"python: no numpy/arrayobject.h in {empty}", clips,
    )
    assert not (tmp_path / "cache").exists()  # nothing was built


def test_kernels_compile_without_warnings(tmp_path):
    if _kernels.unbuildable():
        pytest.skip(f"compiled kernels unavailable: {_kernels.unbuildable()}")
    # -Wpadded checks the kernels' own structs; the C file turns it off for Python.h alone
    command = [
        *_kernels.command(_kernels.compiler()), "-Wall", "-Wextra", "-Wpadded", "-Werror",
        str(_kernels.SOURCE),
    ]
    done = subprocess.run(
        [*command, "-o", str(tmp_path / "kernels.so")], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_build_goes_to_the_user_cache(compiled, monkeypatch, tmp_path, fresh_load):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    # a build of this environment from another source, one of another
    # environment, and a name of no environment: all three stay, the first
    # within the KEPT_SOURCES of its environment, the others in none
    name = _kernels._name(_kernels.compiler())
    cache = tmp_path / "framestop"
    cache.mkdir()
    other_source = cache / (name.rsplit("-", 1)[0] + "-0123456789abcdef.so")
    other_env = cache / "kernels-0123456789abcdef-0123456789abcdef.so"
    legacy = cache / "kernels-0a8c3c2f6c38dc0b.so"  # a one-key name
    for planted in (other_source, other_env, legacy):
        planted.write_bytes(b"")
    fresh_load()
    assert _kernels.status() == "compiled"
    kept = sorted([name, other_source.name, other_env.name, legacy.name])
    assert sorted(path.name for path in cache.iterdir()) == kept
    assert _kernels.get().gld(np.zeros((0, 2)), np.array([[0.5, 0.5], [0.75, 0.25]])) == 0.75


def _with_config_var(monkeypatch, name, value):
    """Make sysconfig's ``name`` read ``value``."""
    get = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var", lambda key: value if key == name else get(key))


# the extension suffix of an interpreter that does not exist
OTHER_ABI = ".cpython-399-x86_64-linux-gnu.so"


def test_each_interpreter_abi_names_its_own_build(monkeypatch, tmp_path):
    argv = ["cc"]
    name = _kernels._name(argv)
    with monkeypatch.context() as patch:
        _with_config_var(patch, "EXT_SUFFIX", OTHER_ABI)
        other_suffix = _kernels._name(argv)
    with monkeypatch.context() as patch:
        _headers_in(patch, tmp_path)
        other_headers = _kernels._name(argv)
    names = (name, other_suffix, other_headers)
    assert len({n.rsplit("-", 1)[0] for n in names}) == 3  # three <env>s
    assert len({n.rsplit("-", 1)[1] for n in names}) == 1  # one <source>
    assert _kernels._name(argv) == name


def _plant(cache, env, count, start):
    """``count`` empty builds of ``env`` in ``cache``, loaded ``start``,
    ``start`` + 1, ... seconds after the epoch, oldest first."""
    planted = []
    for k in range(count):
        path = cache / f"{env}-{k:016x}.so"
        path.write_bytes(b"")
        os.utime(path, (start + k, start + k))
        planted.append(path)
    return planted


def test_each_numpy_version_names_its_own_build(monkeypatch):
    argv = ["cc"]
    name = _kernels._name(argv)
    with monkeypatch.context() as patch:
        patch.setattr(np, "__version__", "1.26.4")
        other = _kernels._name(argv)
    assert other.rsplit("-", 1)[0] != name.rsplit("-", 1)[0]  # two <env>s
    assert other.rsplit("-", 1)[1] == name.rsplit("-", 1)[1]  # one <source>
    assert _kernels._name(argv) == name


def test_a_build_deletes_only_its_own_abis_stale_sources(
    compiled, monkeypatch, tmp_path, fresh_load
):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    argv = _kernels.compiler()
    name = _kernels._name(argv)
    with monkeypatch.context() as patch:
        _with_config_var(patch, "EXT_SUFFIX", OTHER_ABI)
        other_abi = _kernels._name(argv)
    env, other_env = (n.rsplit("-", 1)[0] for n in (name, other_abi))
    cache = tmp_path / "framestop"
    cache.mkdir()
    # as many builds of this <env> as the cache keeps, and more of another
    stale, *recent = _plant(cache, env, _kernels.KEPT_SOURCES, 1000)
    kept = [*recent, *_plant(cache, other_env, _kernels.KEPT_SOURCES + 2, 0)]
    fresh_load()
    assert _kernels.status() == "compiled"
    assert not stale.exists()
    assert sorted(path.name for path in cache.iterdir()) == sorted([name, *(p.name for p in kept)])


def test_the_cache_keeps_the_most_recently_loaded_sources(
    compiled, monkeypatch, tmp_path, fresh_load
):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    name = _kernels._name(_kernels.compiler())
    env = name.rsplit("-", 1)[0]
    cache = tmp_path / "framestop"
    cache.mkdir()
    # five builds of this <env> from other sources, loaded at staggered times
    planted = _plant(cache, env, 5, 1000)
    fresh_load()
    assert _kernels.status() == "compiled"  # a build: it and the two latest others stay
    kept = [name, *(path.name for path in planted[-(_kernels.KEPT_SOURCES - 1):])]
    assert sorted(path.name for path in cache.iterdir()) == sorted(kept)
    # the build, loaded long ago, and newer builds of other sources: a load
    # from the cache touches the build, which then outlives the oldest other
    os.utime(cache / name, (500, 500))
    newer = cache / f"{env}-{'f' * 16}.so"
    newer.write_bytes(b"")
    os.utime(newer, (2000, 2000))
    fresh_load()
    assert _kernels.status() == "compiled"
    assert (cache / name).stat().st_mtime > 2000
    kept = [name, newer.name, planted[-1].name]
    assert sorted(path.name for path in cache.iterdir()) == sorted(kept)


def test_unwritable_cache_builds_into_a_private_directory(
    compiled, monkeypatch, tmp_path, fresh_load
):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    fresh_load()
    assert _kernels.status() == "compiled"
    frame = make_frame([[0.25, 0.75]])
    assert _kernels.get().gld(frame.rows, np.zeros((0, 3))) == 1.0
    assert blocker.read_text() == ""
    assert list(scratch.iterdir()) == []  # the private build is removed once loaded


def _no_home(cls):
    raise RuntimeError("Could not determine home directory")


@pytest.mark.parametrize("xdg", ["relcache", "./relcache", ""])
def test_a_relative_or_empty_xdg_cache_home_means_the_home_cache(monkeypatch, tmp_path, xdg):
    # the XDG spec: a relative path is invalid and is ignored, so no build
    # goes under the working directory
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", xdg)
    monkeypatch.chdir(tmp_path)
    assert _kernels._cache_dir() == tmp_path / "home" / ".cache" / "framestop"
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    assert _kernels._cache_dir() == tmp_path / "cache" / "framestop"


def test_no_home_directory_builds_into_a_private_directory(
    compiled, monkeypatch, tmp_path, fresh_load
):
    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    monkeypatch.setattr(Path, "home", classmethod(_no_home))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    fresh_load()
    assert _kernels.get().gld(np.zeros((0, 2)), np.array([[0.5, 0.5], [0.75, 0.25]])) == 0.75
    assert list(tmp_path.iterdir()) == []


def test_a_failed_load_runs_the_python_kernels(monkeypatch, tmp_path, fresh_load):
    if _kernels.unbuildable():
        pytest.skip(f"compiled kernels unavailable: {_kernels.unbuildable()}")

    # what CPython raises for a module without the C file's init function
    message = "dynamic module does not define module export function (PyInit__compiled)"

    def broken(path):
        raise ImportError(message)

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_kernels, "_open", broken)
    fresh_load()
    assert vars(_kernels.get()) == vars(_kernels.reference())
    assert _kernels.status() == f"python: ImportError: {message}"
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
def test_gld_refuses_non_finite_rows_compiled(compiled, x, y):
    _check_gld_refuses(x, y)


@pytest.mark.parametrize("x, y", NON_FINITE)
def test_gld_refuses_non_finite_rows_on_python_kernels(x, y):
    with python_kernels():
        _check_gld_refuses(x, y)


def test_compiled_trace_stops_on_nan_costs(compiled):
    # every cost NaN: no step reproduces a cell, so the trace must end, not run off
    with pytest.raises(ValueError, match="NaN"):
        compiled.align(np.full((3, 2), np.nan), np.full((2, 2), np.nan))
    # a NaN substitution (inf - inf) the infinite gaps route around: the
    # cost is NaN, the path stays in bounds
    with np.errstate(invalid="ignore"):
        result_rows, frame_rows, cost = compiled.align(*[np.array([[0.0, np.inf]])] * 2)
    assert (result_rows, frame_rows) == ((1, 0), (0, 1)) and cost != cost


def _entry_calls():
    """Each entry point's arguments on a small valid input (two result rows
    and two frame rows of three classes, a history store of two frames in
    two blocks of four rows), by name: (args, {position: parameter name}
    of the array arguments, the positions of those the kernel writes).
    The blocks are a tuple of arrays, named ``blocks`` (:func:`_swap`)."""
    rng = np.random.default_rng(8)
    x, y = rng.dirichlet(np.ones(3), 2), rng.dirichlet(np.ones(3), 2)
    padded = [np.vstack([rows, np.eye(1, 3)]) for rows in (x, y)]
    rows = np.vstack([np.eye(1, 3), rng.dirichlet(np.ones(3), 7)])
    blocks = rows[:4].copy(), rows[4:].copy()
    slots = np.zeros((2, 6), dtype=np.int64)
    order = np.array([0, 1, 7, 7], dtype=np.int64)
    return {
        "gld": ([x, y, np.empty(17)], {0: "x", 1: "y", 2: "work"}, {2}),
        "align": ([x, y], {0: "x", 1: "y"}, set()),
        "absorb": (
            [*padded, 0.5, order, blocks, 1, slots, 0, np.full(2, 0.5)],
            {0: "result", 1: "frame", 3: "order", 4: "blocks", 6: "slots", 8: "share"},
            {3, 4, 6},
        ),
    }


def _swap(args, position, replace):
    """``args`` with its array at ``position`` replaced by ``replace`` of
    it; for the tuple of blocks, its first block."""
    args = list(args)
    given = args[position]
    args[position] = (replace(given[0]), *given[1:]) if isinstance(given, tuple) else replace(given)
    return args


def _array_bytes(args):
    """The bytes of every array among ``args``, the blocks' included."""
    out = []
    for arg in args:
        for array in arg if isinstance(arg, tuple) else (arg,):
            if isinstance(array, np.ndarray):
                out.append(array.tobytes())
    return out


def _spoiled(array, written):
    """(what, a stand-in for ``array`` that the binding refuses): not an
    ndarray, 4-byte and other-kind dtypes, the other byte order, strided
    and transposed views, and a read-only copy where the kernel writes."""
    other = np.float64 if array.dtype.kind == "i" else np.int64
    yield "memoryview", memoryview(array)
    yield "list", array.tolist()
    for dtype in (np.float32, np.int32, other):
        yield np.dtype(dtype).name, array.astype(dtype)
    yield "byte-swapped", array.astype(array.dtype.newbyteorder())
    yield "strided", np.repeat(array, 2, axis=0)[::2]
    if array.ndim == 2:
        yield "transposed", np.ascontiguousarray(array.T).T
    if written:
        frozen = array.copy()
        frozen.setflags(write=False)
        yield "read-only", frozen


@pytest.mark.parametrize("entry", ["gld", "align", "absorb"])
def test_the_entry_points_refuse_arrays_the_kernels_cannot_read(compiled, entry):
    args, names, written = _entry_calls()[entry]
    fn = getattr(compiled, entry)
    for position, name in names.items():
        given = args[position][0] if isinstance(args[position], tuple) else args[position]
        for what, spoiled in _spoiled(given, position in written):
            fresh = _swap(_entry_calls()[entry][0], position, lambda _: spoiled)
            before = _array_bytes(fresh)
            with pytest.raises(TypeError, match=f"^{name} must be a "):
                fn(*fresh)
            assert _array_bytes(fresh) == before, (name, what)  # a refused call writes nothing
    fn(*args)  # the unspoiled arguments are taken


def _unaligned(array):
    """A copy of ``array`` one byte into a buffer, at an address that C
    may not read a double or an int64 from."""
    out = np.frombuffer(bytearray(array.nbytes + 1), dtype=array.dtype, offset=1)
    out = out.reshape(array.shape)
    out[...] = array
    assert not out.flags.aligned and out.flags.c_contiguous and out.flags.writeable
    return out


@pytest.mark.parametrize("route", ["compiled", "python"])
def test_unaligned_rows_give_their_aligned_copys_bits(compiled, route):
    rng = np.random.default_rng(33)
    x, y = rng.dirichlet(np.ones(5), 6), rng.dirichlet(np.ones(5), 4)
    with python_kernels() if route == "python" else contextlib.nullcontext():
        assert gld(_unaligned(x), _unaligned(y)).hex() == gld(x, y).hex()
        assert ngld(_unaligned(x), y).hex() == ngld(x, y).hex()
        assert align(_unaligned(y), _unaligned(x)) == align(y, x)
        states = [CombinerState(Alphabet("abcd"), track_history=True) for _ in range(2)]
        for rows in (y, x, y):
            states[0].absorb(RecognitionFrame(_unaligned(rows)))
            states[1].absorb(RecognitionFrame(rows))
        got, want = (state.mean_rows.tobytes() for state in states)
        assert got == want


@pytest.mark.parametrize("entry", ["gld", "align", "absorb"])
def test_the_entry_points_refuse_unaligned_arrays(compiled, entry):
    fn = getattr(compiled, entry)
    for position, name in _entry_calls()[entry][1].items():
        fresh = _swap(_entry_calls()[entry][0], position, _unaligned)
        before = _array_bytes(fresh)
        with pytest.raises(TypeError, match=f"^{name} must be a .* not unaligned "):
            fn(*fresh)
        assert _array_bytes(fresh) == before, name  # a refused call writes nothing


# each entry point's count of arguments, or its least and most: the
# arguments of _entry_calls are the most it takes
ARITY = {"gld": "2 to 3", "align": "2", "absorb": "9"}


@pytest.mark.parametrize("entry", ["gld", "align", "absorb"])
def test_the_entry_points_refuse_too_few_or_too_many_arguments(compiled, entry):
    args = _entry_calls()[entry][0]
    least = int(ARITY[entry].split()[0])
    for given in ([], args[: least - 1], [*args, None]):
        with pytest.raises(TypeError) as refused:
            getattr(compiled, entry)(*given)
        assert str(refused.value) == f"{entry}() takes {ARITY[entry]} arguments ({len(given)} given)"


def _absorb_args(result, frame, spare=0):
    """The module's ``absorb`` arguments merging the rows ``frame`` into
    ``result``, both padded with the empty row here, with the share 0.5 and
    no history store (the scan's share 0.25, used with one); and the arrays
    among them, the order buffer filled with a marker past the result's
    ids and ``spare`` entries long."""
    result, frame = (np.vstack([rows, np.eye(1, 2)]) for rows in (result, frame))
    s, m = len(result) - 1, len(frame) - 1
    order = np.full(s + m + spare, 7, dtype=np.int64)
    order[:s] = range(s)
    args = [result, frame, 0.5, order, None, 0, None, 0, 0.25]
    return args, (result, frame, order)


def test_compiled_absorb_writes_nothing_on_non_finite_costs(compiled):
    # NaN costs, which leave no path; infinite rows on both sides, whose
    # path costs NaN; an infinite row against a finite one, whose path
    # costs inf.  Each raises align's ValueError, writing neither the row
    # ids nor the history store.
    nan_rows, inf_row = np.full((2, 2), np.nan), [[0.0, np.inf]]
    for result, frame, message in (
        (nan_rows, nan_rows, "alignment costs hold a NaN: rows must be finite"),
        (inf_row, inf_row, "alignment cost is nan: rows must be finite"),
        (inf_row, [[0.5, 0.5]], "alignment cost is inf: rows must be finite"),
    ):
        args, buffers = _absorb_args(result, frame)
        (views, slots), store = _store(2, 1, 4, 1, 4)
        args[4:8] = views, 1, slots, 0
        before = [array.copy() for array in (*buffers, *store)]
        with np.errstate(invalid="ignore"), pytest.raises(ValueError) as refused:
            compiled.absorb(*args)
        assert str(refused.value) == message
        assert all(a.tobytes() == b.tobytes() for a, b in zip((*buffers, *store), before))


def _kept_result_clips():
    """Two clips of acceptance criterion 7's recipe and ``looped_clip(60)``."""
    config = SyntheticConfig(
        clip_count=2, text_length=15, alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789",
        frames_per_clip=30, p_sub=0.15, p_del=0.05, p_ins=0.05, confusion_mass=0.2, seed=7,
    )
    return [*generate_synthetic(config), looped_clip(60)]


def _check_the_result_a_state_keeps():
    """After every absorb: the padded result is the S rows followed by the
    empty row, nothing more; ``mean_rows`` and the array it views are
    read-only; and a stage's rows are byte-identical 10 stages later."""
    for clip in _kept_result_clips():
        width = clip.alphabet.size + 1
        empty = np.eye(1, width)
        state = CombinerState(clip.alphabet, track_history=True)
        kept = []
        config = StopperConfig(StopperMethod.METHOD_A, max_stages=len(clip.frames))
        for frame, stage in zip(clip.frames, stages(clip, config)):
            state.absorb(frame)
            padded, rows = state._padded, state.mean_rows
            assert padded.shape == (state.num_chars + 1, width)
            assert padded[-1].tobytes() == empty.tobytes()
            assert rows.base is padded
            assert not rows.flags.writeable and not padded.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                rows.base[0, 0] = 0.5
            kept.append((stage.rows, stage.rows.tobytes()))
            if len(kept) > 10:
                earlier, saved = kept[-11]
                assert earlier.tobytes() == saved
        assert stage.rows.tobytes() == state.mean_rows.tobytes()


def test_the_compiled_absorb_hands_back_the_result_the_state_keeps(compiled):
    _check_the_result_a_state_keeps()


def test_the_python_absorb_keeps_its_result_as_the_compiled_one_does():
    with python_kernels():
        _check_the_result_a_state_keeps()


def _store(width, blocks, block_rows, frames, stride):
    """A history store of ``blocks`` blocks of ``block_rows`` rows of
    ``width``, ``frames`` frames and ``stride`` row ids, every entry 5:
    (blocks, slots), the blocks and the slots each a view of the start of
    one array with room to spare, and those arrays, so a kernel that
    overruns the store changes them rather than other memory."""
    rows = np.full((blocks * block_rows + 8, width), 5.0)
    slots = np.full((frames + 8) * (stride + 8), 5, dtype=np.int64)
    views = tuple(rows[b * block_rows : (b + 1) * block_rows] for b in range(blocks))
    return (views, slots[: frames * stride].reshape(frames, stride)), (rows, slots)


def test_compiled_kernels_refuse_a_store_without_room(compiled):
    # frame 0 of two rows into one result row: room for 1 + 2 rows, 1 frame
    # and 1 + 2 row ids, in the slots and in the order.  Without it the
    # answer is None, the call for more room, with nothing written.
    cases = ((2, 1, 1, 3, 0), (1, 2, 1, 3, 0), (0, 4, 1, 3, 0), (3, 1, 0, 3, 0), (3, 1, 1, 2, 0),
             (3, 1, 1, 3, -1), (None,) * 5)
    for blocks, block_rows, frames, stride, spare in cases:
        if spare is None:  # no store, and an order one entry short
            args, buffers = _absorb_args([[0.5, 0.5]], [[0.25, 0.75], [1.0, 0.0]], -1)
            store = ()
        else:
            args, buffers = _absorb_args([[0.5, 0.5]], [[0.25, 0.75], [1.0, 0.0]], spare)
            (views, slots), store = _store(2, blocks, block_rows, frames, stride)
            args[4:8] = views, 1, slots, 0
        before = [array.copy() for array in (*buffers, *store)]
        assert compiled.absorb(*args) is None
        assert all(a.tobytes() == b.tobytes() for a, b in zip((*buffers, *store), before))
    for blocks, block_rows in ((3, 1), (1, 4)):  # just enough room, in one block or across three
        args, buffers = _absorb_args([[0.5, 0.5]], [[0.25, 0.75], [1.0, 0.0]])
        (views, slots), store = _store(2, blocks, block_rows, 1, 3)
        slots[...] = 0  # the slots in use, which the scan reads; the spare room keeps the marker
        args[4:8] = views, 1, slots, 0
        _, merged, (d, g, g_sum, d_sum) = compiled.absorb(*args)
        assert len(merged) >= 3 and g.tolist() == [g_sum] and d.tolist() == [d_sum] and d_sum > 0.0
        assert (store[0][3:] == 5).all() and (store[1][3:] == 5).all()


# the room an absorb of _absorb_call needs, just enough of each
_ROOM = {"order": 4, "frames": 2, "blocks": 5, "block_rows": 1, "stride": 4}


def _absorb_call(order, frames, blocks, block_rows, stride, share=0.5):
    """The ``absorb`` arguments of frame 1, two rows of three classes,
    merged into a result of two rows (row ids 1 and 0, in display order)
    over a history store holding frame 0's two rows (row ids 0 and 1 at
    global rows 1 and 2): an order of ``order`` entries, ``blocks`` blocks
    of ``block_rows`` rows and ``frames`` x ``stride`` slots, the unused
    order entries and rows a marker and the other slots 0, as a state's
    are.  The call needs the room of ``_ROOM``."""
    rng = np.random.default_rng(12)
    result, frame = (np.vstack([rng.dirichlet(np.ones(3), 2), np.eye(1, 3)]) for _ in range(2))
    flat = np.full((blocks * block_rows, 3), 5.0)
    flat[:3] = np.vstack([np.eye(1, 3), rng.dirichlet(np.ones(3), 2)])[: len(flat)]
    store = tuple(flat[b * block_rows : (b + 1) * block_rows].copy() for b in range(blocks))
    slots = np.zeros((frames, stride), dtype=np.int64)
    slots[0, :2] = 1, 2
    ids = np.full(order, 7, dtype=np.int64)
    ids[:2] = 1, 0
    return [result, frame, 0.25, ids, store, 3, slots, 1, share]


def test_both_kernels_answer_an_absorb_call_alike(compiled):
    python = _kernels.reference()
    # the order, the frames, the rows and the slot stride each one short of
    # the room: both answer None, writing nothing
    for short in ("order", "frames", "blocks", "stride"):
        for kernels in (compiled, python):
            args = _absorb_call(**{**_ROOM, short: _ROOM[short] - 1})
            before = _array_bytes(args)
            assert kernels.absorb(*args) is None, short
            assert _array_bytes(args) == before, short
    # with room, in blocks of one row or across two of four, with one share
    # or one per frame: the same cost, merged rows, order, blocks and slots
    # bit for bit, and the kept scan records within 1e-14
    for changes in ({}, {"blocks": 2, "block_rows": 4}, {"share": np.array([0.75, 0.5])}):
        (args, answer), (python_args, python_answer) = (
            (args, kernels.absorb(*args))
            for kernels in (compiled, python) for args in [_absorb_call(**{**_ROOM, **changes})]
        )
        cost, merged, scan = answer
        assert cost.hex() == python_answer[0].hex()
        assert merged.tobytes() == python_answer[1].tobytes()
        assert not merged.flags.writeable and not python_answer[1].flags.writeable
        assert _array_bytes(args) == _array_bytes(python_args)
        steps = len(merged) - 1
        assert sorted(args[3][:steps]) == list(range(steps)) and sorted(args[6][1]) == [0, 0, 3, 4]
        # d, g, the sum of g and the sum of d
        assert not any(a.flags.writeable for a in (*scan[:2], *python_answer[2][:2]))
        for got, want in zip(scan, python_answer[2]):
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def _other_blocks(blocks):
    """(what, blocks that fit no store): a block of other rows, other
    widths, rows not a power of two, a list instead of a tuple."""
    first, *rest = blocks
    yield "other rows", (first, *(np.zeros((2 * len(b), b.shape[1])) for b in rest)), ValueError
    yield "other width", (first, *(np.zeros((len(b), b.shape[1] + 1)) for b in rest)), ValueError
    yield "three rows", tuple(np.zeros((3, b.shape[1])) for b in blocks), ValueError
    yield "wider than the rows", tuple(np.zeros((len(b), b.shape[1] + 1)) for b in blocks), ValueError
    yield "a list", list(blocks), TypeError


@pytest.mark.parametrize("entry", ["absorb"])
def test_the_entry_points_refuse_blocks_that_fit_no_store(compiled, entry):
    position = 4
    for what, blocks, error in _other_blocks(_entry_calls()[entry][0][position]):
        fresh = _entry_calls()[entry][0]
        fresh[position] = blocks
        before = _array_bytes(fresh)
        with pytest.raises(error, match="blocks"):
            getattr(compiled, entry)(*fresh)
        assert _array_bytes(fresh) == before, what


def _state_dump(frames, alphabet, *, track=True):
    """Bytes of everything an absorb leaves, after every absorb of
    ``frames``: the alignment ``align`` gives against the result before it
    (both index lists, cost, inserted, dropped), then the combined rows, the
    row ids and the history."""
    state = CombinerState(alphabet, track_history=track)
    out = []
    for frame in frames:
        out.append(repr(align(frame, state.mean_rows)).encode())
        state.absorb(frame)
        out += [state.mean_rows.tobytes(), repr(state.row_ids).encode()]
        if track:
            out.append(state.contributions.tobytes())
    return out


def _estimate_dump(frames, alphabet):
    """float.hex of base's, a's and b's estimates, aggregates and
    per-candidate distances, under both metrics, after every absorb."""
    state = CombinerState(alphabet, track_history=True)
    out = []
    for n, frame in enumerate(frames, 1):
        state.absorb(frame)
        breakdowns = [estimate_base(state, frames[:n], metric=metric) for metric in MetricKind]
        for b in breakdowns + list(_estimates(state).values()):
            out.append((b.estimate.hex(), b.gld_aggregate.hex(),
                        [d.hex() for d in b.per_candidate or ()]))
    return out


def _absorb_clips():
    rng = random.Random(2718)
    clips = [random_clip(rng, i, weighted=i % 3 == 1) for i in range(60)]
    # zero-row frames: first into an empty state, between rows, last
    empty = make_frame([], num_classes=3)
    frames = [make_frame([[0.2, 0.5, 0.3], [0.9, 0.05, 0.05]]), make_frame([[0.1, 0.1, 0.8]])]
    clips.append(Clip("zero-rows", Alphabet("ABC"), "AB", [empty, frames[0], empty, frames[1], empty]))
    clips.append(Clip("only-zero-rows", Alphabet("ABC"), "", [empty] * 3))
    return clips + [looped_clip(45), late_rows_clip(), growth_clip()]


# blocks of 4 rows, fewer than a frame's, so that frames span blocks, and
# room for one frame and one row id, so that every array grows from the
# first frame on
_TINY_STORE = (4, 1, 1)


def _set_store(monkeypatch, capacity):
    """Build states with the history store sizes ``capacity`` in place of
    ``_STORE_CAPACITY``; None keeps the defaults."""
    if capacity is not None:
        monkeypatch.setattr(combiner, "_STORE_CAPACITY", capacity)


@pytest.mark.parametrize("capacity", [None, _TINY_STORE], ids=["default-store", "tiny-store"])
def test_compiled_absorb_is_the_python_reference_bit_for_bit(compiled, monkeypatch, capacity):
    _set_store(monkeypatch, capacity)
    for clip in _absorb_clips():
        for track in (True, False):
            got = _state_dump(clip.frames, clip.alphabet, track=track)
            with python_kernels():
                assert _state_dump(clip.frames, clip.alphabet, track=track) == got


@pytest.mark.parametrize("capacity", [None, _TINY_STORE], ids=["default-store", "tiny-store"])
def test_compiled_absorb_gives_the_reference_estimates_bit_for_bit(
    compiled, monkeypatch, capacity
):
    # the compiled absorb's kept scan is its replica's in hex, over the
    # store and rows that the reference absorb gives bit for bit
    # (test_compiled_absorb_is_the_python_reference_bit_for_bit), and the
    # estimates only read it
    _set_store(monkeypatch, capacity)
    _check_the_kept_scan(_absorb_clips()[::3])


class _CountingLib:
    """A stand-in for the loaded module that records each call's function
    name and result."""

    def __init__(self, lib):
        self.lib = lib
        self.calls = []

    def __getattr__(self, name):
        fn = getattr(self.lib, name)

        def counted(*args):
            result = fn(*args)
            self.calls.append((name, result))
            return result

        return counted


@pytest.mark.parametrize("capacity", [None, _TINY_STORE], ids=["default-store", "tiny-store"])
def test_a_compiled_absorb_is_one_call(compiled, monkeypatch, capacity):
    _set_store(monkeypatch, capacity)
    counting = _CountingLib(compiled)
    monkeypatch.setattr(_kernels, "lib", counting)
    clip = looped_clip(40)
    grown = appended = 0
    for track in (True, False):
        state = CombinerState(clip.alphabet, track_history=track)
        for frame in clip.frames:
            store = _store_arrays(state)
            counting.calls.clear()
            state.absorb(frame)
            # one call, after the no-room answer where the store grew
            *refused, (name, (_, merged, _)) = counting.calls
            assert name == "absorb" and merged is state._padded
            grew = any(a is not b for a, b in zip(store, _store_arrays(state)))
            assert refused == [("absorb", None)] * grew
            grown += grew
            appended += store[1] is not state._blocks
    assert grown >= (5 if capacity else 1)
    assert appended >= (5 if capacity else 0)


@pytest.mark.parametrize("capacity", [None, _TINY_STORE], ids=["default-store", "tiny-store"])
def test_an_a_or_b_stage_is_one_compiled_call(compiled, monkeypatch, capacity):
    # absorb and estimate, under both metrics: the estimates read the scan
    # the absorb kept and make no call of their own
    _set_store(monkeypatch, capacity)
    counting = _CountingLib(compiled)
    monkeypatch.setattr(_kernels, "lib", counting)
    rng = random.Random(61)
    grown = 0
    for clip in [looped_clip(40), random_clip(rng, 0, weighted=True)]:
        for method in "ab":
            state = CombinerState(clip.alphabet, track_history=method == "a",
                                  track_treaps=method == "b")
            estimate = estimate_method_a if method == "a" else estimate_method_b
            for frame in clip.frames:
                counting.calls.clear()
                state.absorb(frame)
                for metric in MetricKind:
                    estimate(state, metric=metric)
                *refused, (name, answer) = counting.calls
                assert name == "absorb" and answer is not None
                assert refused == [("absorb", None)] * len(refused) and len(refused) <= 1
                grown += len(refused)
    assert grown >= (5 if capacity else 1)  # looped_clip(40) outgrows the default's 32 frames


def _replicated(n):
    """Whether the kept-scan checks replicate stage ``n``: each of the first
    40, then every 40th, so that the Python replica of a 400-stage clip
    costs under a twentieth of what it would at every stage."""
    return n <= 40 or n % 40 == 0


def _check_the_kept_scan(clips):
    """After every absorb of each of ``clips`` into a state with a store,
    weighted or not: what :meth:`CombinerState.candidate_gld` returns is
    the record the absorb kept, its arrays write-protected, and in hex (at
    the stages :func:`_replicated` names) a fresh spread of the same
    store, current rows and shares in the kernel's summation order, at
    the nGLD length 2 S and for GLD (:func:`_replicas`)."""
    for clip in clips:
        state = CombinerState(clip.alphabet, track_history=True)
        for frame in clip.frames:
            state.absorb(frame)
            n, s = state.n, state.num_chars
            scan = state.candidate_gld()
            assert scan is state._scan and state.candidate_gld() is scan
            assert not scan[0].flags.writeable and not scan[1].flags.writeable
            if not _replicated(n):
                continue
            store = _flat_rows(state), state._slots[:n, :s], _current_by_row_id(state)
            shares = merge_share(np.asarray(state.weights), state.weight_total).tolist()
            assert _hex_scan(*scan) == _replicas(*store, shares)


def _kept_scan_clips():
    """``looped_clip(400)``, ``late_rows_clip`` and 40 of ``random_clip``,
    every second one weighted."""
    rng = random.Random(4141)
    return [looped_clip(400), late_rows_clip(),
            *(random_clip(rng, i, weighted=i % 2 == 1) for i in range(40))]


@pytest.mark.parametrize("capacity", [None, _TINY_STORE], ids=["default-store", "tiny-store"])
def test_the_kept_scan_is_a_fresh_spread_in_hex(compiled, monkeypatch, capacity):
    _set_store(monkeypatch, capacity)
    _check_the_kept_scan(_kept_scan_clips())


def test_the_python_absorb_keeps_the_numpy_scan():
    # the Python route keeps its scan as the compiled one does: the same
    # write-protected arrays until the next absorb, with a fresh numpy
    # scan's bits
    rng = random.Random(8)
    with python_kernels():
        for clip in [looped_clip(30), random_clip(rng, 0, weighted=True)]:
            state = CombinerState(clip.alphabet, track_history=True)
            for frame in clip.frames:
                state.absorb(frame)
                s = state.num_chars
                spread = combiner._spread(state._blocks, state._slots[: state.n], state._ids[:s],
                                          state.mean_rows)
                g = spread * merge_share(np.asarray(state.weights), state.weight_total) / 2.0
                d = metrics.normalized(g, 2.0 * s)
                got = state.candidate_gld()
                assert got is state._scan and state.candidate_gld() is got
                assert not got[0].flags.writeable and not got[1].flags.writeable
                assert got[0].tobytes() == d.tobytes() and got[1].tobytes() == g.tobytes()
                assert got[2:] == (float(g.sum()), float(d.sum()))


def test_python_kernels_names_the_python_route_in_status():
    before = _kernels.status()
    with python_kernels():
        assert vars(_kernels.get()) == vars(_kernels.reference())
        assert _kernels.status() == "python: set by python_kernels()"
    assert _kernels.status() == before


def _store_arrays(state):
    """The row ids, the tuple of blocks, which is a new tuple only when a
    block is appended, and the slots."""
    return state._ids, state._blocks, state._slots


def _counting_grown(monkeypatch):
    """Patch ``combiner._grown``, which grows the row ids, to count its
    calls; returns the list of the sizes each call needed."""
    calls = []
    grown = combiner._grown

    def counted(*args, **kwargs):
        calls.append(args[1])
        return grown(*args, **kwargs)

    monkeypatch.setattr(combiner, "_grown", counted)
    return calls


@pytest.mark.parametrize("method", ["a", "b"])
def test_a_criterion_7_clip_allocates_its_store_once(monkeypatch, method):
    calls = _counting_grown(monkeypatch)
    config = SyntheticConfig(
        clip_count=4, text_length=15,
        alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789", frames_per_clip=30,
        p_sub=0.15, p_del=0.05, p_ins=0.05, confusion_mass=0.2, seed=7,
    )
    estimate = estimate_method_a if method == "a" else estimate_method_b
    for clip in generate_synthetic(config):
        calls.clear()
        state = CombinerState(clip.alphabet, track_history=method == "a",
                              track_treaps=method == "b")
        built = _store_arrays(state)
        for frame in clip.frames[:30]:
            state.absorb(frame)
            estimate(state)
            assert all(a is b for a, b in zip(_store_arrays(state), built))
        assert state.n == 30 and calls == []


def test_a_tiny_store_grows_from_the_second_frame(monkeypatch):
    clip = looped_clip(2)
    m, width = clip.frames[0].num_chars, clip.alphabet.size + 1
    more = clip.frames[1].num_chars
    # one frame, m row ids and blocks of the least power of two above the
    # first frame's rows, or above both frames': the first frame fills the
    # store and grows nothing
    for size in (1 << m.bit_length(), 1 << (m + more).bit_length()):
        monkeypatch.setattr(combiner, "_STORE_CAPACITY", (size, 1, m))
        state = CombinerState(clip.alphabet, track_history=True)
        built = _store_arrays(state)
        state.absorb(clip.frames[0])
        ids, blocks, slots = first = _store_arrays(state)
        assert all(a is b for a, b in zip(first, built))
        assert (len(ids), [block.shape for block in blocks], slots.shape) == (
            m, [(size, width)], (1, m)
        )
        kept = blocks[0][: 1 + m].copy(), slots[0].copy()
        state.absorb(clip.frames[1])
        ids, blocks, slots = _store_arrays(state)
        assert ids is not first[0] and slots is not first[2]  # each doubles, or more
        assert slots.shape == (2, max(2 * m, m + more)) and (slots[0, :m] == kept[1]).all()
        # the first block stays, with its rows; a second is appended only past its rows
        assert blocks[0] is first[1][0] and blocks[0][: 1 + m].tobytes() == kept[0].tobytes()
        assert len(blocks) == (1 if size >= 1 + m + more else 2)


@pytest.mark.parametrize("capacity", [None, _TINY_STORE], ids=["default-store", "tiny-store"])
def test_a_zero_row_first_frame_leaves_a_store_that_grows_bit_for_bit(
    compiled, monkeypatch, capacity
):
    _set_store(monkeypatch, capacity)
    clip = looped_clip(40)
    frames = [make_frame([], num_classes=clip.alphabet.size), *clip.frames]
    got = _state_dump(frames, clip.alphabet)
    state = CombinerState(clip.alphabet, track_history=True)
    built = _store_arrays(state)
    state.absorb(frames[0])
    assert all(a is b for a, b in zip(_store_arrays(state), built))  # zero rows grow nothing
    calls = _counting_grown(monkeypatch)
    for frame in frames[1:]:
        state.absorb(frame)
    # the rows go into blocks of the size the state was built with, the
    # tiny store's into many of them, and its row ids grow
    size = combiner._STORE_CAPACITY[0]
    assert all(block.shape == (size, clip.alphabet.size + 1) for block in state._blocks)
    assert state._slots.shape[0] >= len(frames)
    if capacity:
        assert len(state._blocks) >= 5 and len(calls) >= 3
    with python_kernels():
        assert _state_dump(frames, clip.alphabet) == got
    _check_the_kept_scan([Clip("zero-row-first", clip.alphabet, clip.truth, frames)])


def test_any_first_frame_keeps_the_block_size_a_state_is_built_with():
    # a zero-row first frame, growth_clip's 70-row one and criterion 7's
    # 15-row ones fill blocks of the same rows
    clip, growth = looped_clip(30), growth_clip()
    empty = make_frame([], num_classes=clip.alphabet.size)
    for alphabet, frames in [(clip.alphabet, clip.frames), (clip.alphabet, [empty, *clip.frames]),
                             (growth.alphabet, growth.frames)]:
        state = CombinerState(alphabet, track_history=True)
        first = state._blocks[0]
        for frame in frames:
            state.absorb(frame)
        assert state._blocks[0] is first and state._shift == 9
        assert {block.shape for block in state._blocks} == {(512, alphabet.size + 1)}
    assert len(state._blocks) == 2  # growth_clip's 830 rows


# weight sequences for the merge share: a zero weight into a zero total,
# weights at and above 2**1023 (merge_share's halving), subnormal weights
_SHARE_WEIGHTS = {
    "zero": [0.0, -0.0, 0.0, 2.0, 0.0, -0.0, 2.0],
    "common-zero": [0.0, -0.0, 0.0, -0.0],
    "at-2**1023": [2.0**1023, 1.0, 1.0, 0.0],
    "common-2**1022": [2.0**1022] * 3,
    "above-2**1023": [1.5 * 2.0**1023, 1e300, 1.0],
    "subnormal": [5e-324, 5e-324, 2.0**-1070, 1e-310, 5e-324],
    "common-subnormal": [5e-324] * 4,
    "unit": [1.0] * 5,
}


@pytest.mark.parametrize("route", ["compiled", "python"])
@pytest.mark.parametrize("weights", [*_SHARE_WEIGHTS, "weighted-clip"])
def test_the_absorb_factor_and_the_candidate_share_are_merge_share(
    request, monkeypatch, route, weights
):
    if weights == "weighted-clip":
        clip = random_clip(random.Random(90), 0, max_frames=8, weighted=True)
    else:
        rng = np.random.default_rng(5)
        frames = [make_frame(rng.dirichlet(np.ones(3), 2), w) for w in _SHARE_WEIGHTS[weights]]
        clip = Clip(weights, Alphabet("ABC"), "AB", frames)
    calls = []  # what each kernel absorb was given: the factor and the share

    def recording(kernel):
        def absorb(*args):
            calls.append((args[2], args[8]))
            return kernel(*args)
        return absorb

    if route == "compiled":
        lib = request.getfixturevalue("compiled")
        monkeypatch.setattr(_kernels, "lib", SimpleNamespace(absorb=recording(lib.absorb)))
        routing = contextlib.nullcontext
    else:  # python_kernels() reads combiner._absorb as it starts
        monkeypatch.setattr(combiner, "_absorb", recording(combiner._absorb))
        routing = python_kernels
    state = CombinerState(clip.alphabet, track_history=True)
    seen = []
    with routing():
        for frame in clip.frames:
            total = state.weight_total
            state.absorb(frame)
            seen.append(frame.weight)
            factor, share = calls.pop()
            assert factor.hex() == merge_share(frame.weight, total).hex()
            if isinstance(share, float):
                assert all(share.hex() == merge_share(w, state.weight_total).hex() for w in seen)
            else:
                want = merge_share(np.asarray(seen), state.weight_total)
                assert share.tobytes() == want.tobytes()
                assert len(set(seen)) > 1
            state.candidate_gld()
    assert state.n == len(clip.frames) and not calls


def test_a_failed_absorb_leaves_the_grown_state_as_it_was(compiled, monkeypatch):
    # the store grows after the call's no-room answer, so it has grown when
    # the call made again fails
    clip = looped_clip(12)
    state = CombinerState(clip.alphabet, track_history=True)
    for frame in clip.frames[:6]:
        state.absorb(frame)
    before = state.mean_rows, state.row_ids, state.contributions, estimate_method_a(state)
    ids, blocks, slots = arrays = _store_arrays(state)
    kept = [block.tobytes() for block in blocks]
    # more rows than the row ids, the frames or the blocks have room for
    m = max(len(ids), len(slots), len(blocks) * len(blocks[0]))
    wide = make_frame(np.random.default_rng(6).dirichlet(np.ones(clip.alphabet.size), m))
    answers = []

    def no_memory(*args):
        if answers:
            raise MemoryError("set by the test")
        answers.append(compiled.absorb(*args))
        return answers[-1]

    monkeypatch.setattr(_kernels, "lib", SimpleNamespace(absorb=no_memory))
    with pytest.raises(MemoryError):
        state.absorb(wide)
    assert answers == [None]
    grown = _store_arrays(state)
    assert all(a is not b for a, b in zip(arrays, grown))
    # the blocks are the same, bytes and all, followed by new ones
    assert len(grown[1]) > len(blocks) and all(a is b for a, b in zip(blocks, grown[1]))
    assert [block.tobytes() for block in blocks] == kept
    after = state.mean_rows, state.row_ids, state.contributions, estimate_method_a(state)
    assert after[0].tobytes() == before[0].tobytes() and after[1] == before[1]
    assert after[2].tobytes() == before[2].tobytes() and after[3] == before[3]


def test_an_array_from_candidate_gld_outlives_later_calls(compiled):
    clip = looped_clip(40)
    state = CombinerState(clip.alphabet, track_history=True, track_treaps=True)
    kept = []
    for frame in clip.frames:
        state.absorb(frame)
        for array in state.candidate_gld()[:2]:  # d and g
            kept.append((array, array.tobytes()))
        estimate_method_a(state, metric=MetricKind.NGLD)
        estimate_method_b(state)
        gc.collect()
    assert all(array.tobytes() == want for array, want in kept)


def test_copies_and_pickles_read_their_own_arrays(compiled):
    clip = looped_clip(12)
    state = CombinerState(clip.alphabet, track_history=True)
    for frame in clip.frames[:6]:
        state.absorb(frame)
    estimate_method_a(state)  # the scan's addresses are now cached
    copies = [copy.deepcopy(state), pickle.loads(pickle.dumps(state))]
    frames = [pickle.loads(pickle.dumps(frame)) for frame in clip.frames[6:]]
    del state
    gc.collect()
    want = CombinerState(clip.alphabet, track_history=True)
    for frame in clip.frames:
        want.absorb(frame)
    for duplicate in copies:
        for frame in frames:
            duplicate.absorb(frame)
        assert duplicate.mean_rows.tobytes() == want.mean_rows.tobytes()
        assert duplicate.contributions.tobytes() == want.contributions.tobytes()
        assert estimate_method_a(duplicate) == estimate_method_a(want)


def _block_cases():
    """(name, frames, alphabet, capacity) of the history-block checks: the
    tiny store, a zero-row first frame into blocks of 16 rows, frames of
    more rows than a block of 64, and 400 looped stages."""
    clip = looped_clip(40)
    rng = np.random.default_rng(64)
    alphabet = Alphabet("AB")
    with warnings.catch_warnings():  # Dirichlet rows sum to 1 within rounding
        warnings.simplefilter("ignore")
        wide = [make_frame(rng.dirichlet(np.ones(2), m), num_classes=2)
                for m in (1, 20, 150, 3, 70, 0, 64)]
    yield "tiny-store", clip.frames, clip.alphabet, _TINY_STORE
    yield "zero-row-first-frame", [make_frame([], num_classes=clip.alphabet.size), *clip.frames], clip.alphabet, (16, 32, 64)
    yield "frame-past-a-block", wide, alphabet, (64, 32, 64)
    looped = looped_clip(400)
    yield "looped-400", looped.frames, looped.alphabet, None


@pytest.mark.parametrize("route", ["compiled", "python"])
@pytest.mark.parametrize(
    "case", ["tiny-store", "zero-row-first-frame", "frame-past-a-block", "looped-400"]
)
def test_history_blocks_stay_put_and_hold_at_most_one_spare_block(
    request, monkeypatch, route, case
):
    (frames, alphabet, capacity), = [rest for name, *rest in _block_cases() if name == case]
    _set_store(monkeypatch, capacity)
    if route == "compiled":
        request.getfixturevalue("compiled")
    state = CombinerState(alphabet, track_history=True)
    kept, spanned = [], 0
    with python_kernels() if route == "python" else contextlib.nullcontext():
        for frame in frames:
            used = state._used
            state.absorb(frame)
            blocks, size = state._blocks, 1 << state._shift
            # every block the state had is still there, at its place, its rows in use unchanged
            assert all(blocks[b] is block for b, (block, _) in enumerate(kept))
            assert all(block[:rows].tobytes() == data for block, (rows, data) in kept)
            assert all(block.shape == (size, alphabet.size + 1) for block in blocks)
            # at most the rows in use plus one block, and no block more than that needs
            assert len(blocks) * size < state._used + size
            assert state._used == used + frame.num_chars
            spanned += (state._used - 1) // size > used // size  # the frame ran on into a block
            kept = [
                (block, (rows, block[:rows].tobytes()))
                for b, block in enumerate(blocks)
                for rows in [min(size, state._used - b * size)]
            ]
        # the rows the store gives back are the frames' own, in absorb order
        rows = np.concatenate([frame.rows for frame in frames])
        stored = combiner._gather(state._blocks, np.arange(1, state._used))
        assert stored.tobytes() == rows.tobytes()
    assert spanned >= 2
    # _gather reads the blocks as one flat store, whole rows or one class
    # (as cell reads them), for the indices of the scan's slices, of
    # contributions, of no row, of nothing at all and of rows at random
    blocks = state._blocks
    flat = np.concatenate(blocks)
    s, slots = state.num_chars, state._slots[: state.n]
    indices = [
        *(slots[f : f + combiner._SCAN_FRAMES, :s] for f in range(0, state.n, combiner._SCAN_FRAMES)),
        slots[:, state._ids[:s]], np.zeros((3, 2), dtype=np.int64),
        np.zeros((0, s), dtype=np.int64), np.random.default_rng(7).integers(state._used, size=(5, 7)),
    ]
    for index in indices:
        assert combiner._gather(blocks, index).tobytes() == flat[index].tobytes()
        for k in (0, alphabet.size):
            assert combiner._gather(blocks, index, k).tobytes() == flat[index][..., k].tobytes()


@pytest.fixture
def spare(monkeypatch):
    """The spare history blocks that freed states leave, empty for the test
    and restored after it."""
    monkeypatch.setattr(combiner._SPARE, "blocks", {})
    monkeypatch.setattr(combiner._SPARE, "held", 0)
    return combiner._SPARE


def _absorbed(frames, alphabet):
    state = CombinerState(alphabet, track_history=True)
    for frame in frames:
        state.absorb(frame)
    return state


def _kept(spare):
    return [block for blocks in spare.blocks.values() for block in blocks]


@pytest.mark.parametrize("route", ["compiled", "python"])
def test_a_state_built_after_another_is_freed_takes_its_blocks(request, spare, route):
    clip = looped_clip(400)
    with kernel_route(request, route):
        state = _absorbed(clip.frames, clip.alphabet)
        freed = [weakref.ref(block) for block in state._blocks]
        assert len(freed) > 1
        del state
        assert [block is ref() for block, ref in zip(_kept(spare), freed)] == [True] * len(freed)
        assert spare.held == sum(ref().nbytes for ref in freed)
        state = _absorbed(clip.frames, clip.alphabet)
        assert sorted(map(id, state._blocks)) == sorted(id(ref()) for ref in freed)
        assert _kept(spare) == [] and spare.held == 0


def _poison(spare):
    """Fill every spare block with NaN, which no row a store reads may hold."""
    for block in _kept(spare):
        block.fill(np.nan)


@pytest.mark.parametrize("capacity", [None, _TINY_STORE], ids=["default-store", "tiny-store"])
@pytest.mark.parametrize("route", ["compiled", "python"])
def test_reused_blocks_give_the_bits_of_new_ones(request, monkeypatch, spare, route, capacity):
    _set_store(monkeypatch, capacity)
    clips = _absorb_clips()[::3]

    def dumps(clip):
        return _state_dump(clip.frames, clip.alphabet), _estimate_dump(clip.frames, clip.alphabet)

    with kernel_route(request, route):
        monkeypatch.setattr(spare, "cap", 0)  # no block kept: every state's blocks are new
        want = [dumps(clip) for clip in clips]
        assert _kept(spare) == []
        monkeypatch.setattr(spare, "cap", combiner._SPARE_BYTES)
        rows, reused = combiner._STORE_CAPACITY[0], []
        for clip, expected in zip(clips, want):
            _poison(spare)
            reused.append(bool(spare.blocks.get((rows, clip.alphabet.size + 1))))
            assert dumps(clip) == expected, clip.id
        assert sum(reused) >= len(clips) // 2  # blocks of the clip's own shape were there


@pytest.mark.parametrize("route", ["compiled", "python"])
def test_a_shallow_copy_or_a_held_view_keeps_its_blocks_from_other_states(request, spare, route):
    clip = looped_clip(120)
    half = clip.frames[:60]  # two blocks' rows
    with kernel_route(request, route):
        want = _absorbed(clip.frames, clip.alphabet)
        state = _absorbed(half, clip.alphabet)
        twin = copy.copy(state)  # shares the state's tuple of blocks
        del state
        assert _kept(spare) == []
        viewed = _absorbed(half, clip.alphabet)
        assert len(viewed._blocks) == 2
        view, free = viewed._blocks[1][3:7], weakref.ref(viewed._blocks[0])
        held = view.copy()
        del viewed
        assert [block is free() for block in _kept(spare)] == [True]  # not the viewed block
        other = _absorbed(clip.frames, clip.alphabet)  # takes the free block and writes it
        assert other._blocks[0] is free()
        for frame in clip.frames[60:]:
            twin.absorb(frame)
        for got in (twin, other):
            assert got.mean_rows.tobytes() == want.mean_rows.tobytes()
            assert got.contributions.tobytes() == want.contributions.tobytes()
            for metric in MetricKind:
                got_a, want_a = (estimate_method_a(x, metric=metric) for x in (got, want))
                assert got_a == want_a
        assert view.tobytes() == held.tobytes()


def test_the_spare_blocks_never_hold_more_than_their_cap(monkeypatch, spare):
    # blocks of 2**16 rows of K+1 = 4 classes, 2 MiB, of which only row 0 is written
    big = (1 << 16, 32, 64)
    cap, alphabet = combiner._SPARE_BYTES, Alphabet("ABC")
    frame = make_frame([[0.2, 0.5, 0.3]])
    states = []
    for capacity in (big, _TINY_STORE) * 6:
        monkeypatch.setattr(combiner, "_STORE_CAPACITY", capacity)
        states.append(_absorbed([frame], alphabet))
    assert sum(block.nbytes for state in states for block in state._blocks) > cap
    while states:
        states.pop()
        assert spare.held == sum(block.nbytes for block in _kept(spare)) <= cap
        for shape, blocks in spare.blocks.items():
            assert all(block.shape == shape for block in blocks)
    assert set(spare.blocks) == {(1 << 16, 4), (_TINY_STORE[0], 4)}
    assert spare.held > cap - (1 << 21)  # full up to the last block that fits
    for _ in range(3):  # taking a block frees its bytes
        before = spare.held
        monkeypatch.setattr(combiner, "_STORE_CAPACITY", big)
        states.append(_absorbed([frame], alphabet))
        assert spare.held == before - (1 << 21) == sum(block.nbytes for block in _kept(spare))


def test_threads_never_hand_one_spare_block_to_two_states(monkeypatch, spare):
    # blocks of 4 rows: every state takes and gives back over a hundred of them
    monkeypatch.setattr(combiner, "_STORE_CAPACITY", _TINY_STORE)
    clip = looped_clip(40)
    want = _absorbed(clip.frames, clip.alphabet).contributions.tobytes()
    failures = []

    def work():
        try:
            for _ in range(20):
                if _absorbed(clip.frames, clip.alphabet).contributions.tobytes() != want:
                    failures.append("a state's history was overwritten")
        except Exception as error:  # reported from the test's own thread below
            failures.append(repr(error))

    threads = [threading.Thread(target=work) for _ in range(4)]  # more than the cores here
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert spare.held == sum(block.nbytes for block in _kept(spare)) <= spare.cap


def test_a_failed_init_leaves_nothing_for_del_to_raise(monkeypatch):
    raised = []
    monkeypatch.setattr(sys, "unraisablehook", raised.append)
    with pytest.raises(AttributeError):
        CombinerState(None, track_history=True)  # before any array
    monkeypatch.setattr(combiner, "_STORE_CAPACITY", (4, -1, 1))
    with pytest.raises(ValueError, match="negative"):
        CombinerState(Alphabet("AB"), track_history=True)  # after the first block, at the slots
    gc.collect()
    assert raised == []


EXIT_RUN = """
import sys
sys.path[:0] = sys.argv[1:]
from framestop.combiner import CombinerState
from oracles import looped_clip
clip = looped_clip(60)
kept = []  # states alive at exit: a module global's, a list's and a cycle's
for track in (True, False, True):
    state = CombinerState(clip.alphabet, track_history=track)
    for frame in clip.frames:
        state.absorb(frame)
    kept.append(state)
state.itself = state
print("absorbed")
"""


def test_states_alive_at_interpreter_exit_raise_nothing_from_del():
    paths = [str(combiner.__file__.rsplit("/framestop/", 1)[0]), str(Path(__file__).parent)]
    done = subprocess.run([sys.executable, "-c", EXIT_RUN, *paths], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0 and done.stdout.split() == ["absorbed"], done.stderr
    assert done.stderr == ""
