"""Loader of the compiled kernels in ``_kernels.c``.

On first use :func:`get` compiles the C file, a CPython extension module,
with the compiler Python was built with (``sysconfig``'s ``CC``) against
``Python.h`` (``sysconfig``'s include directory) and
``numpy/arrayobject.h`` (under ``numpy.get_include()``), and imports it.
The build is cached per user, under ``$XDG_CACHE_HOME/framestop`` or
``~/.cache/framestop``, as ``kernels-<env>-<source>.so``: ``<env>``
hashes the compile command (compiler, flags, include directories), the
platform, the interpreter's ABI (``EXT_SUFFIX``) and numpy's version,
``<source>`` the C file.  Where that directory cannot be written, or the
user has no home directory, the build goes to a private temporary
directory for the process; nothing is written into the source tree.  A
load from the cache touches the build's mtime and deletes the builds of
its ``<env>`` beyond the ``KEPT_SOURCES`` loaded most recently, and
those of the earlier one-key scheme (``kernels-<16 hex digits>.so``);
other environments' builds stay.  The directory is safe to delete at any
time: a loaded module stays mapped, and the next process rebuilds.

The flags keep the floating-point operations as written: no contraction
into fused multiply-adds and no ``-ffast-math``, either of which would
change the rounding of the alignment table and could flip its ties.  The
hot loops run on vectors of four doubles, each lane doing what the scalar
code does in the same order, so they round as the scalar code does: in
the substitution costs a lane is one cost, four (result row, frame row)
pairs per vector, each summed in numpy's order.  On x86-64
ELF with glibc the C file builds each kernel twice, for AVX2 and for the
baseline, and the dynamic loader picks one through an ifunc
(``target_clones``); elsewhere it builds the baseline alone, and the
compiled kernels still run.

A fresh load also runs :func:`probe`: ``fs_gld`` and ``fs_absorb``
compute the substitution and gap costs of ``metrics.gld`` and
``combiner.align`` in numpy's pairwise summation order, which numpy does
not promise to keep, so the probe checks them against numpy's bit for bit.
That is the one switch: :func:`get` returns the module only once it
builds, imports and passes the probe, and then every kernel runs
compiled.  Otherwise (no compiler or headers, a failed build or load,
or a probe mismatch) it returns None, every kernel runs its Python
reference (numpy costs, Python tables, the numpy scan), which gives the
same alignments, and ``reason`` and :func:`status` say why.

The callers, ``metrics.gld``, ``combiner.align``,
``CombinerState.absorb`` and ``CombinerState.candidate_gld``, each call
:func:`get` once and then the module's entry point itself: ``gld`` into
``fs_gld``, ``align`` and ``absorb`` into ``fs_absorb``, ``spread`` into
``fs_spread``.  The C kernels only compute; each entry point does the
rest, in C.  It checks every argument: C-contiguous aligned float64 or
int64 ndarrays in the machine's byte order, writable where the kernel
writes, and the right count of arguments (TypeError naming the argument
or the function otherwise).  It allocates the kernel's memory, a work
block that also holds the path (MemoryError when its size overflows or
it cannot be allocated), and the arrays it returns.  It derives every
other argument from the arrays' shapes: ``absorb`` numbers the rows it
inserts from S, the result's row count.  It releases the GIL while the
kernel runs and builds the Python result.  ``absorb`` and ``spread``
read the history store through one parser of its blocks, a tuple of
arrays of one shape whose rows are a power of two and of the result's
width (ValueError otherwise), and its slots; ``spread`` reads each row
id's current row from the combined result through the row-id order,
which it first checks is a permutation (ValueError otherwise).
``align`` and ``absorb`` raise ValueError when the costs hold a NaN, so
no path exists; ``absorb`` and ``spread`` refuse a call the history
store has no room for with RuntimeError, as an internal error, writing
nothing (the state makes room before the call).
"""

import contextlib
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
# the extension module's name, which its PyInit__compiled gives
MODULE = "framestop._compiled"
# -ffp-contract=off: a fused multiply-add rounds once where the reference
# rounds twice.  No -march=native: the cache name does not name the CPU,
# so a home directory shared between machines could load a build the CPU
# cannot run; the C file's avx2 clone, picked at load, is the only wider
# target, and it carries no FMA.  No -ffast-math, which reorders sums and
# flushes subnormals.
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

_UNSET = object()
lib = _UNSET  # the loaded and probed module, None when the Python kernels run
reason = "not loaded yet"  # why lib is None, or "compiled"

# row widths (K+1) of the load-time probe of fs_gld's costs: each side of
# numpy's 8-term and 128-term thresholds, and the benchmark's 37
PROBE_WIDTHS = (2, 3, 7, 8, 9, 16, 17, 37, 64, 127, 128, 129, 256, 257, 300)


def compiler():
    """The C compiler command Python was built with, as argv; None if absent."""
    command = sysconfig.get_config_var("CC")
    argv = shlex.split(command) if command else []
    if not argv or shutil.which(argv[0]) is None:
        return None
    return argv


def include_dirs():
    """The header directories of ``Python.h``, ``pyconfig.h`` and
    ``numpy/arrayobject.h``, without repeats."""
    paths = [*(sysconfig.get_path(name) for name in ("include", "platinclude")), np.get_include()]
    return [path for path in dict.fromkeys(paths) if path]


def unbuildable():
    """Why the kernels cannot be built here, or None when they can: no C
    compiler, no ``Python.h``, or no ``numpy/arrayobject.h``."""
    if compiler() is None:
        return f"no C compiler ({sysconfig.get_config_var('CC')!r} not found)"
    for header, include in (("Python.h", sysconfig.get_path("include")),
                            ("numpy/arrayobject.h", np.get_include())):
        if not include or not (Path(include) / header).is_file():
            return f"no {header} in {include}"
    return None


def command(argv):
    """The compile command for the compiler ``argv``, up to the source and
    the output: the flags and the header directories."""
    return [*argv, *FLAGS, *(f"-I{directory}" for directory in include_dirs())]


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
                [*command(argv), str(SOURCE), "-o", tmp], capture_output=True, text=True,
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
    """The extension module built at ``path``, imported without entering
    ``sys.modules``."""
    from importlib.machinery import ExtensionFileLoader
    from importlib.util import module_from_spec, spec_from_file_location

    loader = ExtensionFileLoader(MODULE, str(path))
    module = module_from_spec(spec_from_file_location(MODULE, str(path), loader=loader))
    loader.exec_module(module)
    return module


def _digest(blob):
    """16 hex digits of ``blob``: zlib rather than hashlib, whose OpenSSL
    adds 3.6 MB of resident memory."""
    return f"{zlib.crc32(blob):08x}{zlib.adler32(blob):08x}"


KEPT_SOURCES = 3  # builds per <env>: a few checkouts run in turn each keep theirs

# a build named by the earlier one-key scheme, which a load from the cache deletes
_LEGACY_NAME = re.compile(r"kernels-[0-9a-f]{16}\.so")


def _name(argv):
    """``kernels-<env>-<source>.so``, the module's file name for the
    compiler ``argv``, this interpreter and this numpy (its version, as its
    include directory stays the same across upgrades)."""
    env = b"\0".join(
        part.encode()
        for part in (
            shlex.join(command(argv)), sysconfig.get_platform(),
            sysconfig.get_config_var("EXT_SUFFIX") or "", np.__version__,
        )
    )
    return f"kernels-{_digest(env)}-{_digest(SOURCE.read_bytes())}.so"


def _sweep(cache, name):
    """Touch the build ``name``, just loaded from ``cache``, and delete the
    builds of its ``<env>`` beyond the ``KEPT_SOURCES`` loaded most
    recently, and those of the earlier one-key scheme."""
    env = name.rsplit("-", 1)[0]
    with contextlib.suppress(OSError):  # a file left behind is harmless
        os.utime(cache / name)
        own = sorted(cache.glob(f"{env}-*.so"), key=lambda p: (p.name != name, -p.stat().st_mtime))
        legacy = [path for path in cache.glob("kernels-*.so") if _LEGACY_NAME.fullmatch(path.name)]
        for stale in [*own[KEPT_SOURCES:], *legacy]:
            stale.unlink()


def _load():
    """(module or None, reason)."""
    missing = unbuildable()
    if missing is not None:
        return None, missing
    argv = compiler()
    try:
        name = _name(argv)
        cache = _cache_dir()
        if cache is not None:
            built = (cache / name).is_file()
            if built or _writable(cache):
                if not built:
                    _build(argv, cache / name)
                handle = _open(cache / name)
                _sweep(cache, name)
                return handle, "compiled"
        private = Path(tempfile.mkdtemp(prefix="framestop-"))
        try:
            _build(argv, private / name)
            # a loaded module stays mapped after its file is removed
            return _open(private / name), "compiled"
        finally:
            shutil.rmtree(private, ignore_errors=True)
    except Exception as exc:  # whatever stops the build or the load, the Python kernels run
        return None, f"{type(exc).__name__}: {exc}"


def get():
    """The compiled kernels' module, built, loaded and probed on first call;
    None when the Python kernels run, ``reason`` saying why: no build, no
    load, or a probe mismatch (:func:`probe`)."""
    global lib, reason
    if lib is _UNSET:
        lib, reason = _load()
        if lib is not None:
            mismatch = probe()
            if mismatch is not None:
                lib, reason = None, mismatch
    return lib


def status():
    """"compiled", or "python: <why>" when the Python kernels run."""
    return "compiled" if get() is not None else f"python: {reason}"


# the probe's row counts per side: neither fills whole groups of four
# lanes, so the kernels' partial groups are checked too
PROBE_ROWS = (5, 7)


def _probe_rows(rng, width, count):
    """``count`` rows of one width from the numpy generator ``rng``, of four
    kinds in turn: Dirichlet(1) (normalised exponentials), the same with
    magnitudes spread over decades (the draws to the fourth power),
    one-hot, and Dirichlet(1) scaled into the subnormal range."""
    draws = rng.exponential(size=(count, width))
    draws[1::4] **= 4
    rows = draws / draws.sum(axis=1, keepdims=True)
    rows[2::4] = np.eye(width)[rng.integers(width, size=len(rows[2::4]))]
    rows[3::4] *= 2.0**-1060
    return rows


def probe():
    """None when fs_gld's substitution and gap costs equal numpy's
    ``metrics.pairwise_costs`` / ``gap_costs`` bit for bit on a fixed seeded
    probe at every width of ``PROBE_WIDTHS``; else where they first differ.

    fs_gld and fs_absorb copy numpy's summation order, which numpy does not
    promise to keep, so :func:`get` hands out the module only after this
    passes.
    """
    from . import metrics  # here: metrics imports this module

    rng = np.random.default_rng(20200)
    for width in PROBE_WIDTHS:
        x, y = (_probe_rows(rng, width, count) for count in PROBE_ROWS)
        *got, _ = costs(x, y)
        want = metrics.pairwise_costs(x, y), metrics.gap_costs(x), metrics.gap_costs(y)
        if any(a.tobytes() != b.tobytes() for a, b in zip(got, want)):
            return f"probe mismatch at K+1={width}"
    return None


def costs(x, y):
    """(sub, gap_rows, gap_cols, gld) as fs_gld computes them: the
    arrays ``metrics.pairwise_costs(x, y)``, ``gap_costs(x)`` and
    ``gap_costs(y)`` would give, and the GLD."""
    s, m = len(x), len(y)
    work = np.empty(2 * (s + 1) * (m + 1) - 1)
    cost = lib.gld(x, y, work)
    return work[: s * m].reshape(s, m), work[s * m : s * m + s], work[s * m + s : s * m + s + m], cost
