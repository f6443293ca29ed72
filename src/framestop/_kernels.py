"""Loader of the compiled kernels in ``_kernels.c``.

On first use :func:`get` compiles the C file with the compiler Python was
built with (``sysconfig``'s ``CC``) and loads it through ``ctypes``.  The
library is cached per user, under ``$XDG_CACHE_HOME/framestop`` or
``~/.cache/framestop``, named by a hash of the source, the compiler, the
flags and the platform, so a machine builds it once; when that directory
cannot be written, or the user has no home directory, the build goes to a
private temporary directory for the process.  Nothing is written into the
source tree.  When there is no compiler, or compiling or loading fails,
:func:`get` returns None and the callers run their Python kernels, which
give the same alignments.

The flags keep the floating-point operations as written: no contraction
into fused multiply-adds and no ``-ffast-math``, either of which would
change the rounding of the alignment table and could flip its ties.
"""

import ctypes
import os
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

_PTR, _INT = ctypes.c_void_p, ctypes.c_int64
_SIGNATURES = {
    "fs_fill": (ctypes.c_double, [_PTR, _PTR, _PTR, _INT, _INT, _PTR]),
    "fs_trace": (_INT, [_PTR, _PTR, _PTR, _INT, _INT, _PTR, _PTR]),
    "fs_spread": (None, [_PTR, _PTR, _INT, _INT, _INT, _PTR, _INT, _INT, _PTR]),
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


def _load():
    """(library or None, reason)."""
    argv = compiler()
    if argv is None:
        return None, f"no C compiler ({sysconfig.get_config_var('CC')!r} not found)"
    try:
        # zlib rather than hashlib, whose OpenSSL adds 3.6 MB of resident memory
        blob = b"\0".join(
            (SOURCE.read_bytes(), shlex.join([*argv, *FLAGS]).encode(), sysconfig.get_platform().encode())
        )
        name = f"kernels-{zlib.crc32(blob):08x}{zlib.adler32(blob):08x}.so"
        cache = _cache_dir()
        if cache is not None:
            if (cache / name).is_file():
                return _open(cache / name), "compiled"
            if _writable(cache):
                _build(argv, cache / name)
                return _open(cache / name), "compiled"
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
    """The compiled kernels, built and loaded on first call; None if unavailable."""
    global lib, reason
    if lib is _UNSET:
        lib, reason = _load()
    return lib


def status():
    """"compiled", or "python: <why>" when the Python kernels run."""
    return "compiled" if get() is not None else f"python: {reason}"


def _costs(sub, gap_rows, gap_cols):
    """(S, M, sub, gap_rows, gap_cols), the arrays C-contiguous float64 of
    shapes (S, M), (S,) and (M,), the layout the kernels read."""
    s, m = len(gap_rows), len(gap_cols)
    sub = np.ascontiguousarray(sub, dtype=np.float64)
    if sub.shape != (s, m):
        raise ValueError(f"expected costs of shape {(s, m)}, got {sub.shape}")
    gap_rows = np.ascontiguousarray(gap_rows, dtype=np.float64)
    gap_cols = np.ascontiguousarray(gap_cols, dtype=np.float64)
    return s, m, sub, gap_rows, gap_cols


def fill(sub, gap_rows, gap_cols):
    """GLD from the backward table over the given costs: ``metrics.cost_table(...)[0][0]``."""
    s, m, sub, gap_rows, gap_cols = _costs(sub, gap_rows, gap_cols)
    table = (ctypes.c_double * ((s + 1) * (m + 1)))()
    return lib.fs_fill(sub.ctypes.data, gap_rows.ctypes.data, gap_cols.ctypes.data, s, m, table)


def path(sub, gap_rows, gap_cols):
    """(result_rows, frame_rows, cost) of the alignment ``combiner.align`` reads off the table."""
    s, m, sub, gap_rows, gap_cols = _costs(sub, gap_rows, gap_cols)
    sub_at, rows_at = sub.ctypes.data, gap_rows.ctypes.data
    table = (ctypes.c_double * ((s + 1) * (m + 1)))()
    cost = lib.fs_fill(sub_at, rows_at, gap_cols.ctypes.data, s, m, table)
    steps = s + m  # room for the longest path; the two index lists share one buffer
    out = (ctypes.c_int64 * (2 * steps))()
    frame_rows_at = ctypes.byref(out, steps * ctypes.sizeof(ctypes.c_int64))
    taken = lib.fs_trace(sub_at, rows_at, table, s, m, out, frame_rows_at)
    if taken < 0:
        raise ValueError("alignment costs hold a NaN: rows must be finite")
    return tuple(out[:taken]), tuple(out[steps : steps + taken]), cost


def spread(blocks, frames_per_block, n, current):
    """``CombinerState.spread`` of ``n`` frames over C-contiguous float64
    blocks of shape (frames_per_block, row capacity, width) and ``current``
    of shape (S, width)."""
    current = np.ascontiguousarray(current, dtype=np.float64)
    s, width = current.shape
    count = len(blocks)
    if not (count - 1) * frames_per_block < n <= count * frames_per_block:
        raise ValueError(f"{count} blocks of {frames_per_block} frames do not hold {n} frames")
    for block in blocks:
        if block.dtype != np.float64 or not block.flags.c_contiguous or (
            block.shape[0] != frames_per_block or block.shape[2] != width
        ):
            raise ValueError(f"history block of shape {block.shape} does not fit the kernel")
    addresses = (ctypes.c_void_p * count)(*[block.ctypes.data for block in blocks])
    widths = (ctypes.c_int64 * count)(*[block.shape[1] for block in blocks])
    out = np.empty(n)
    lib.fs_spread(
        addresses, widths, count, frames_per_block, n, current.ctypes.data, s, width,
        out.ctypes.data,
    )
    return out
