"""Loader of the compiled kernels in ``_kernels.c``.

On first use :func:`get` compiles the C file, a CPython extension module,
with the compiler Python was built with (``sysconfig``'s ``CC``) against
``Python.h`` (``sysconfig``'s include directory) and
``numpy/arrayobject.h`` (under ``numpy.get_include()``), and imports it.
The build is cached per user, under ``$XDG_CACHE_HOME/framestop``, or
``~/.cache/framestop`` where that variable is unset, empty or relative
(the XDG spec's rule), as ``kernels-<env>-<source>.so``: ``<env>``
hashes the compile command (compiler, flags, include directories), the
platform, the interpreter's ABI (``EXT_SUFFIX``) and numpy's version,
``<source>`` the C file.  Where that directory cannot be written, or the
user has no home directory, the build goes to a private temporary
directory for the process; nothing is written into the source tree.  A
load from the cache touches the build's mtime and deletes the builds of
its ``<env>`` beyond the ``KEPT_SOURCES`` loaded most recently; other
environments' builds stay.  The directory is safe to delete at any
time: a loaded module stays mapped, and the next process rebuilds.

The flags keep the floating-point operations as written: no contraction
into fused multiply-adds and no ``-ffast-math``, either of which would
change the rounding of the alignment table and could flip its ties.  The
hot loops run on vectors of four doubles, each lane doing what the scalar
code does in the same order, so they round as the scalar code does: in
the substitution costs a lane is one cost, four (result row, frame row)
pairs per vector, each summed in framestop's order, which
``metrics._lane_sum`` writes in numpy from element-wise additions.  On
x86-64 ELF with glibc the C file builds each kernel twice, for AVX2 and
for the baseline, and the dynamic loader picks one through an ifunc
(``target_clones``); elsewhere it builds the baseline alone, and the
compiled kernels still run.

:func:`get` returns the compiled module once it builds and imports.
Otherwise (no compiler or headers, or a failed build or load) it returns
the Python kernels (:func:`reference`), which give the same answers, and
``reason`` and :func:`status` say why.

Either way :func:`get` returns a kernel module of three entry points with
one interface, and each caller makes one call of it per answer:
``metrics.gld`` calls ``gld(x, y)``, ``combiner.align`` and
``stoppers.estimate_base``, once per candidate, ``align(x, y)``, and
``CombinerState.absorb`` and ``combine_candidate`` ``absorb(result,
frame, factor, order, blocks, used, slots, frame_index, share)``.  The
Python kernels are ``metrics._cost`` (``metrics.pairwise_costs``,
``gap_costs`` and ``cost_table``), ``combiner._align`` (the same and the
traceback ``combiner._path``) and ``combiner._absorb`` (the room test,
``_align``, ``combiner._merge``, the store write and the numpy scan).  An
``a`` or ``b`` stage is one ``absorb`` call, and
``CombinerState.candidate_gld`` only reads what the state kept.

The compiled kernels only compute; each entry point does the rest, in C.
It checks every argument: C-contiguous aligned float64 or int64 ndarrays
in the machine's byte order, writable where the kernel writes, and the
right count of arguments (TypeError naming the argument or the function
otherwise).  It allocates the kernel's memory, a work block that also
holds the path and, for ``absorb``'s scan, each row id's current row
(MemoryError when its size overflows or it cannot be allocated), and the
arrays it returns.  It derives every other argument from the arrays'
shapes: ``absorb`` numbers the rows it inserts from S, the result's row
count, and reads the history store's blocks, a tuple of arrays of one
shape whose rows are a power of two and of the result's width
(ValueError otherwise), and its slots.  It releases the GIL while the
kernels run and builds the Python result.  The Python kernels check
nothing beyond what numpy does.  On both routes ``align`` and ``absorb``
raise ValueError when the costs hold a NaN, so no path exists, and
``absorb`` also when the path's cost is not finite, with
``combiner.align``'s message, writing nothing.  ``absorb`` returns
``(cost, merged, scan)``: ``merged`` holds the merged rows, one per
step, followed by the empty row, write-protected, so ``CombinerState``
keeps it as its result as it is; with a history store, ``scan`` is the
one record ``(d, g, sum of g, sum of d)``, each candidate's GLD ``g``
and its nGLD ``d`` at the length 2 steps, both write-protected, which
the state keeps until the next absorb as ``candidate_gld``'s answer
(None without a store).  ``absorb`` is the only test of the room: where
the row-id order or the history store has no room for the call it
returns None, writing nothing, and the state makes the room and calls
again.

Both ``absorb`` kernels run the same phases in the same order, one
compiled kernel each (``py_absorb`` in the C file states them): align
(``fs_align``); refuse a NaN or non-finite cost; allocate ``merged`` at
exactly steps + 1 rows; then merge, write the row ids and the store and
scan (``fs_merge``, ``fs_spread``).  So a refusal or a MemoryError for
the result leaves nothing written, and building the answer is the one
step that can fail after the row ids and the store are written.
"""

import contextlib
import os
import shlex
import shutil
import sysconfig
import tempfile
import zlib
from pathlib import Path
from types import SimpleNamespace

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
lib = _UNSET  # the compiled module, loaded, or the Python kernels
reason = "not loaded yet"  # "compiled", or why the Python kernels run


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
    """The per-user cache directory; None when the user has no home directory.
    A relative ``XDG_CACHE_HOME`` is ignored, as the XDG spec says, so no
    build goes under the working directory."""
    base = os.environ.get("XDG_CACHE_HOME")
    if not base or not os.path.isabs(base):
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
    recently."""
    env = name.rsplit("-", 1)[0]
    with contextlib.suppress(OSError):  # a file left behind is harmless
        os.utime(cache / name)
        own = sorted(cache.glob(f"{env}-*.so"), key=lambda p: (p.name != name, -p.stat().st_mtime))
        for stale in own[KEPT_SOURCES:]:
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


def reference():
    """The Python kernels: a namespace of the compiled module's entry
    points, each the Python reference that the compiled one matches, with
    its arguments and answers."""
    from . import combiner, metrics  # here: both import this module

    return SimpleNamespace(gld=metrics._cost, align=combiner._align, absorb=combiner._absorb)


def get():
    """The kernels, chosen on first call: the compiled module, built and
    loaded, or else the Python kernels (:func:`reference`), ``reason``
    saying why there is no build or no load."""
    global lib, reason
    if lib is _UNSET:
        lib, reason = _load()
        if lib is None:
            lib = reference()
    return lib


def status():
    """"compiled", or "python: <why>" when the Python kernels run."""
    get()
    return reason if reason == "compiled" else f"python: {reason}"
