"""Loader of the compiled kernels in ``_kernels.c``.

On first use :func:`get` compiles the C file with the compiler Python was
built with (``sysconfig``'s ``CC``) and loads it through ``ctypes``.  The
library is cached per user, under ``$XDG_CACHE_HOME/framestop`` or
``~/.cache/framestop``, as ``kernels-<env>-<source>.so``: ``<env>`` hashes
the compiler, the flags and the platform, ``<source>`` the C file, so a
machine builds it once; when that directory cannot be written, or the user
has no home directory, the build goes to a private temporary directory for
the process.  Nothing is written into the source tree.  Once a build into
the cache loads, the builds of the same ``<env>`` with another
``<source>`` are deleted, so a changed source replaces its old library;
other environments' builds are left alone, so two interpreters sharing
the cache do not evict each other; builds named by the earlier one-key
scheme, ``kernels-<16 hex digits>.so``, are deleted too.  The directory
is safe to delete at any time: a library already loaded stays mapped in
the processes using it, and the next process rebuilds.  When there is no compiler, or
compiling or loading fails, :func:`get` returns None and the callers run
their Python kernels, which give the same alignments.

The flags keep the floating-point operations as written: no contraction
into fused multiply-adds and no ``-ffast-math``, either of which would
change the rounding of the alignment table and could flip its ties.

A fresh load also runs :func:`probe`: ``fs_gld`` and ``fs_absorb``
compute the substitution and gap costs of ``metrics.gld`` and
``combiner.align`` in numpy's pairwise summation order, which numpy does
not promise to keep, so they run only while their costs equal numpy's
bit for bit on a fixed probe (:func:`compiled_costs`); otherwise ``gld``,
``align`` and ``CombinerState.absorb`` run their Python references, numpy
costs and Python tables, and :func:`status` says why.  Each compiled
kernel has one route from Python: ``fs_gld`` through :func:`gld` (and
:func:`costs`, which the probe reads), ``fs_absorb`` through
:func:`absorb`, which :func:`align` and ``CombinerState.absorb`` call, and
``fs_spread`` through :class:`Scan`.
"""

import contextlib
import ctypes
import os
import re
import shlex
import shutil
import sysconfig
import tempfile
import zlib
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_kernels.c")
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

_UNSET = object()
lib = _UNSET  # the loaded library, None when the Python kernels run
reason = "not loaded yet"  # why lib is None, or "compiled"
gld_costs = "not probed yet"  # "compiled" once fs_gld's costs pass the probe, else why not

# row widths (K+1) of the load-time probe of fs_gld's costs: each side of
# numpy's 8-term and 128-term thresholds, and the benchmark's 37
PROBE_WIDTHS = (2, 3, 7, 8, 9, 16, 17, 37, 64, 127, 128, 129, 256, 257, 300)

_PTR, _INT = ctypes.c_void_p, ctypes.c_int64
_SIGNATURES = {
    "fs_gld": (ctypes.c_double, [_PTR, _INT, _PTR, _INT, _INT, _PTR]),
    "fs_absorb": (_INT, [_PTR]),
    "fs_spread": (
        None,
        [_PTR, _PTR, _INT, _INT, _PTR, _INT, _INT, _PTR, _PTR, _PTR, ctypes.c_double,
         ctypes.c_double, _PTR],
    ),
}


def compiler():
    """The C compiler command Python was built with, as argv; None if absent."""
    command = sysconfig.get_config_var("CC")
    argv = shlex.split(command) if command else []
    if not argv or shutil.which(argv[0]) is None:
        return None
    return argv


def _cache_dir():
    """The per-user cache directory; None when the user has no home directory."""
    base = os.environ.get("XDG_CACHE_HOME")
    if not base:
        try:
            base = Path.home() / ".cache"
        except RuntimeError:  # no HOME and no passwd entry for the uid
            return None
    return Path(base) / "framestop"


def _writable(directory):
    """Create ``directory`` if needed; whether files can be written there."""
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError:
        return False
    return os.access(directory, os.W_OK)


def _build(argv, target):
    """Compile the source to ``target``, written under a temporary name first."""
    import subprocess  # here, as only a build needs it: 0.5 MB of resident modules

    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        try:
            done = subprocess.run(
                [*argv, *FLAGS, str(SOURCE), "-o", tmp], capture_output=True, text=True,
                timeout=120,
            )
        except subprocess.SubprocessError as exc:
            raise OSError(f"{argv[0]} failed: {exc}") from exc
        if done.returncode != 0:
            lines = done.stderr.strip().splitlines() or [f"exit status {done.returncode}"]
            raise OSError(f"{argv[0]} failed: {lines[0]}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(path):
    handle = ctypes.CDLL(str(path))
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(handle, name)
        fn.restype = restype
        fn.argtypes = argtypes
    return handle


def _digest(blob):
    """16 hex digits of ``blob``: zlib rather than hashlib, whose OpenSSL
    adds 3.6 MB of resident memory."""
    return f"{zlib.crc32(blob):08x}{zlib.adler32(blob):08x}"


# a build named by the earlier one-key scheme, which a build into the cache deletes
_LEGACY_NAME = re.compile(r"kernels-[0-9a-f]{16}\.so")


def _name(argv):
    """``kernels-<env>-<source>.so``, the library's file name for the
    compiler ``argv``."""
    env = b"\0".join((shlex.join([*argv, *FLAGS]).encode(), sysconfig.get_platform().encode()))
    return f"kernels-{_digest(env)}-{_digest(SOURCE.read_bytes())}.so"


def _load():
    """(library or None, reason)."""
    argv = compiler()
    if argv is None:
        return None, f"no C compiler ({sysconfig.get_config_var('CC')!r} not found)"
    try:
        name = _name(argv)
        cache = _cache_dir()
        if cache is not None:
            if (cache / name).is_file():
                return _open(cache / name), "compiled"
            if _writable(cache):
                _build(argv, cache / name)
                handle = _open(cache / name)
                env = name.rsplit("-", 1)[0]
                for stale in cache.glob("kernels-*.so"):
                    if stale.name != name and (
                        stale.name.startswith(env + "-") or _LEGACY_NAME.fullmatch(stale.name)
                    ):
                        with contextlib.suppress(OSError):  # a stale file left is harmless
                            stale.unlink()
                return handle, "compiled"
        private = Path(tempfile.mkdtemp(prefix="framestop-"))
        try:
            _build(argv, private / name)
            # a loaded library stays mapped after its file is removed
            return _open(private / name), "compiled"
        finally:
            shutil.rmtree(private, ignore_errors=True)
    except Exception as exc:  # whatever stops the build or the load, the Python kernels run
        return None, f"{type(exc).__name__}: {exc}"


def get():
    """The compiled kernels, built and loaded on first call; None if unavailable.

    A fresh load also probes fs_gld's costs (:func:`probe`) and sets
    ``gld_costs``.
    """
    global lib, reason, gld_costs
    if lib is _UNSET:
        lib, reason = _load()
        if lib is not None:
            mismatch = probe()
            gld_costs = "compiled" if mismatch is None else f"numpy: {mismatch}"
    return lib


def compiled_costs():
    """Whether ``gld``, ``align`` and ``absorb`` run compiled: the kernels are
    loaded and their costs passed the probe."""
    return get() is not None and gld_costs == "compiled"


def status():
    """"compiled (gld costs: <path>)", or "python: <why>" when the Python kernels run."""
    return f"compiled (gld costs: {gld_costs})" if get() is not None else f"python: {reason}"


def _probe_rows(rng, width):
    """Four rows of one width: Dirichlet(1) (normalised exponentials), the
    same with magnitudes spread over decades (the draws to the fourth
    power), one-hot, and Dirichlet(1) scaled into the subnormal range."""
    def dirichlet(power):
        draws = [rng.expovariate(1.0) ** power for _ in range(width)]
        total = sum(draws)
        return [d / total for d in draws]

    one_hot = [0.0] * width
    one_hot[rng.randrange(width)] = 1.0
    return [dirichlet(1), dirichlet(4), one_hot, [v * 2.0**-1060 for v in dirichlet(1)]]


def probe():
    """None when fs_gld's substitution and gap costs equal numpy's
    ``metrics.pairwise_costs`` / ``gap_costs`` bit for bit on a fixed seeded
    probe at every width of ``PROBE_WIDTHS``; else where they first differ.

    fs_gld copies numpy's summation order, which numpy does not promise to
    keep, so ``metrics.gld`` uses fs_gld only after this passes.
    """
    import random

    from . import metrics  # here: metrics imports this module

    rng = random.Random(20200)
    for width in PROBE_WIDTHS:
        x = np.array(_probe_rows(rng, width))
        y = np.array(_probe_rows(rng, width))
        *got, _ = costs(x, y)
        want = metrics.pairwise_costs(x, y), metrics.gap_costs(x), metrics.gap_costs(y)
        if any(a.tobytes() != b.tobytes() for a, b in zip(got, want)):
            return f"probe mismatch at K+1={width}"
    return None


def _rows(x, y):
    """(S, M, width, x, y): both row sets as C-contiguous float64 of one width."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError(f"expected 2-D row sets, got shapes {x.shape} and {y.shape}")
    s, m = len(x), len(y)
    width = x.shape[1] if s else y.shape[1]
    if (s and m and x.shape[1] != y.shape[1]) or ((s or m) and not width):
        raise ValueError(f"rows of shapes {x.shape} and {y.shape} do not fit the kernel")
    return s, m, width, x, y


def _work_size(s, m):
    return s * m + s + m + (s + 1) * (m + 1)


def gld(x, y):
    """``metrics.gld`` of two row sets, the costs computed in C: one call."""
    s, m, width, x, y = _rows(x, y)
    work = (ctypes.c_double * _work_size(s, m))()
    return lib.fs_gld(x.ctypes.data, s, y.ctypes.data, m, width, work)


def costs(x, y):
    """(sub, gap_rows, gap_cols, gld) as fs_gld computes them: the
    arrays ``metrics.pairwise_costs(x, y)``, ``gap_costs(x)`` and
    ``gap_costs(y)`` would give, and the GLD."""
    s, m, width, x, y = _rows(x, y)
    work = np.empty(_work_size(s, m))
    cost = lib.fs_gld(x.ctypes.data, s, y.ctypes.data, m, width, work.ctypes.data)
    return work[: s * m].reshape(s, m), work[s * m : s * m + s], work[s * m + s : s * m + s + m], cost


# fs_absorb's failure codes (FS_* in _kernels.c)
NO_PATH, GROW, NO_MEMORY = -1, -2, -3


class AbsorbArgs(ctypes.Structure):
    """The arguments of ``fs_absorb``, field for field ``struct
    fs_absorb_args`` in ``_kernels.c``, which documents them.  Addresses are
    ints, 0 for NULL."""

    _fields_ = [
        ("result", _PTR), ("s", _INT), ("frame", _PTR), ("m", _INT), ("width", _INT),
        ("path", _PTR), ("cost", ctypes.c_double), ("inserted", _INT),
        ("factor", ctypes.c_double), ("merged", _PTR), ("order", _PTR), ("next_id", _INT),
        ("rows", _PTR), ("used", _INT), ("capacity", _INT), ("slots", _PTR),
        ("frame_index", _INT), ("frames", _INT), ("stride", _INT), ("current", _PTR),
    ]

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.at = ctypes.addressof(self)  # what fs_absorb takes, read once


def absorb(args):
    """One ``fs_absorb`` call over ``args``, an :class:`AbsorbArgs`: the
    number of steps, or ``GROW`` when the history store has no room for the
    frame, with nothing written.  Raises ValueError when the costs hold a
    NaN, so no path exists, and MemoryError when the work buffer cannot be
    allocated."""
    steps = lib.fs_absorb(args.at)
    if steps == NO_PATH:
        raise ValueError("alignment costs hold a NaN: rows must be finite")
    if steps == NO_MEMORY:
        raise MemoryError("no memory for the alignment table")
    return steps


def address(array):
    """The address of a writable array's data, through ctypes' buffer
    interface: a third of the time ``array.ctypes.data`` takes."""
    return ctypes.addressof(ctypes.c_char.from_buffer(array))


def align(x, y):
    """(result_rows, frame_rows, cost) of the alignment ``combiner.align``
    reads off between the result rows ``x`` and the frame rows ``y``, from
    one :func:`absorb` call with no merge and no store; the cost may be
    NaN or infinite."""
    s, m, width, x, y = _rows(x, y)
    room = s + m
    path = (ctypes.c_int64 * (2 * room or 1))()
    args = AbsorbArgs(x.ctypes.data, s, y.ctypes.data, m, width, ctypes.addressof(path))
    steps = absorb(args)
    return tuple(path[:steps]), tuple(path[room : room + steps]), args.cost


class Scan:
    """The history store as fs_spread reads it, with the scan's buffers.

    Checks that ``rows`` is a C-contiguous float64 (capacity, width) array,
    ``slots`` a C-contiguous int64 (frames, row ids) array and ``current``,
    the current rows by row id, a C-contiguous float64 (row ids, width)
    array.  fs_spread trusts every slot to index a row below the capacity,
    and the first ``s`` rows of ``current`` to hold the current rows; the
    caller keeps both.  Beside them: ``empty``, each current row's
    distance to the empty row, which every call writes; ``out``, one entry
    per frame; and ``sums``.  Their addresses stay valid while the arrays
    live, so a caller builds a Scan once per grown array rather than once
    per call.
    """

    def __init__(self, rows, slots, current):
        for array, dtype in ((rows, np.float64), (slots, np.int64), (current, np.float64)):
            if array.dtype != dtype or array.ndim != 2 or not array.flags.c_contiguous:
                raise ValueError(f"history array of {array.dtype} {array.shape} does not fit the kernel")
        frames, ids = slots.shape
        if current.shape != (ids, rows.shape[1]):
            raise ValueError(f"current rows {current.shape} do not fit slots {slots.shape}")
        self.rows, self.slots, self.current = rows, slots, current
        self.empty = np.empty(ids)
        self.out = np.empty(frames)
        self.sums = (ctypes.c_double * 2)()
        self.at = (
            address(rows), address(slots), ids, address(current), rows.shape[1],
            address(self.empty), address(self.out),
        )

    def __call__(self, n, s, share, length):
        """``CombinerState.candidate_gld`` from one fs_spread call over the
        first ``n`` frames of the store against the first ``s`` current rows:
        (d, sum of g, sum of d), d a copy of ``out[:n]``.

        ``share`` is the merge share of every candidate, a float, or an
        array of one per frame; ``length`` is the nGLD length sum, None for
        GLD.
        """
        rows_at, slots_at, stride, current_at, width, empty_at, out_at = self.at
        if not (n <= len(self.out) and s <= stride):
            raise ValueError(f"{n} frames of {s} rows do not fit slots {self.slots.shape}")
        shares = None
        if isinstance(share, np.ndarray):
            if share.dtype != np.float64 or share.shape != (n,) or not share.flags.c_contiguous:
                raise ValueError(f"shares of {share.dtype} {share.shape} do not fit {n} frames")
            shares, share = share.ctypes.data, 0.0
        lib.fs_spread(
            rows_at, slots_at, stride, n, current_at, s, width, empty_at, out_at, shares, share,
            -1.0 if length is None else length, self.sums,
        )
        return self.out[:n].copy(), self.sums[0], self.sums[1]
