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
change the rounding of the alignment table and could flip its ties.  The
hot loops run on vectors of four doubles whose lanes are the scalar
order's accumulators, so they round as the scalar code does.  On x86-64
ELF with glibc the C file builds each entry point twice, for AVX2 and for
the baseline, and the dynamic loader picks one through an ifunc
(``target_clones``); elsewhere it builds the baseline alone, and the
compiled kernels still run.

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
``fs_spread`` through :func:`spread`, which ``CombinerState.candidate_gld``
calls.  ``fs_absorb`` and ``fs_spread`` take one pointer to the same
struct, :class:`AbsorbArgs`, the one description of a state's history
store; the state makes room in the store before the call, and a call the
store has no room for is refused as an internal error.
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
# -ffp-contract=off: a fused multiply-add rounds once where the reference
# rounds twice.  No -march=native: the cache name does not name the CPU,
# so a home directory shared between machines could load a build the CPU
# cannot run; the C file's avx2 clone, picked at load, is the only wider
# target, and it carries no FMA.  No -ffast-math, which reorders sums and
# flushes subnormals.
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
    "fs_spread": (_INT, [_PTR]),
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


# the failure codes of fs_absorb and fs_spread (FS_* in _kernels.c)
NO_PATH, NO_ROOM, NO_MEMORY = -1, -2, -3


class AbsorbArgs(ctypes.Structure):
    """The arguments of ``fs_absorb`` and ``fs_spread``, field for field
    ``struct fs_absorb_args`` in ``_kernels.c``, which documents them.
    Addresses are ints, 0 for NULL."""

    _fields_ = [
        ("result", _PTR), ("s", _INT), ("frame", _PTR), ("m", _INT), ("width", _INT),
        ("path", _PTR), ("cost", ctypes.c_double), ("inserted", _INT),
        ("factor", ctypes.c_double), ("merged", _PTR), ("order", _PTR), ("next_id", _INT),
        ("rows", _PTR), ("used", _INT), ("capacity", _INT), ("slots", _PTR),
        ("frame_index", _INT), ("frames", _INT), ("stride", _INT), ("current", _PTR),
        ("n", _INT), ("shares", _PTR), ("share", ctypes.c_double), ("length", ctypes.c_double),
        ("out", _PTR), ("g_sum", ctypes.c_double), ("d_sum", ctypes.c_double),
    ]

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.at = ctypes.addressof(self)  # what the kernels take, read once


def _checked(code):
    """``code``, a kernel's answer, unless it is a failure code: raises
    ValueError for NO_PATH, RuntimeError for NO_ROOM and MemoryError for
    NO_MEMORY."""
    if code == NO_PATH:
        raise ValueError("alignment costs hold a NaN: rows must be finite")
    if code == NO_ROOM:
        raise RuntimeError("internal error: the history store has no room for the call")
    if code == NO_MEMORY:
        raise MemoryError("no memory for the kernel's work buffer")
    return code


def absorb(args):
    """One ``fs_absorb`` call over ``args``, an :class:`AbsorbArgs`: the
    number of steps.  Raises ValueError when the costs hold a NaN, so no
    path exists, RuntimeError, with nothing written, when the history store
    has no room for the frame, and MemoryError when the work buffer cannot
    be allocated."""
    return _checked(lib.fs_absorb(args.at))


def spread(args):
    """``CombinerState.candidate_gld`` from one ``fs_spread`` call over
    ``args``, an :class:`AbsorbArgs` whose ``n`` (at least 1), ``s``,
    ``shares``, ``share`` and ``length`` are set: (d, sum of g, sum of d),
    d a fresh array of ``n`` entries.  Raises RuntimeError, with nothing
    written, when ``n`` is above the store's frames or ``s`` above its row
    ids, and MemoryError when the scratch buffer cannot be allocated."""
    out = np.empty(args.n)
    args.out = address(out)
    _checked(lib.fs_spread(args.at))
    return out, args.g_sum, args.d_sum


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
