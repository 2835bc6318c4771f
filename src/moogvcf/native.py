"""Build and load the C kernels of _kernels.c, or leave the Python kernels in use.

_kernels.c transcribes integrators._dg_run_python, integrators._rk4_run_python
and lyapunov._energy_rows helper for helper (its quotient is
s * lyapunov.log_cosh_diff(k w, k b, t) / b, its log_cosh_abs, max_abs and
slope are lyapunov._log_cosh_abs, integrators._max_abs and _slope, and its
head lists the rest), so both kernels give the same bits, NaN rows
included, on the rows of the same caller-owned numpy arrays and from the
same per-parameter constants, one row of constants per trajectory (an
(N, 30) table of them for a batch of N, whose members may have different
parameters); C's M_LN2 is math.log(2.0).  Each trajectory
writes its row of an (N, 3) int64 record (its first row that is not finite,
or 0, its stabilized steps and its line-search trials) and NaN from that
row on.  dg_run and rk4_run, called through lib, a ctypes.CDLL handle that
releases the GIL for the call, spread a batch's trajectories over as many
threads as the batch has trajectories and the process's CPU affinity mask
has CPUs, each thread evaluating the energies V of the trajectories it
steps, which changes no bit; nothing else sets the number.  Both return
void: integrators._steps admits 0 < dt < inf alone, and within that domain
no kernel divides by zero (the argument heads _kernels.c), so none can fail.
The third entry, render_rows, writes the CSV text of a float64 table with
the bytes of cli._csv_rows_python: it calls CPython's own repr routine,
PyOS_double_to_string, and PyMem_Free, whose addresses it is passed, so it
is called through a second handle on the library, a ctypes.PyDLL, which
holds the GIL.  On first import the library is compiled with the
system C compiler (the CC environment variable, else sysconfig's CC) and
the flags of FLAGS: -ffp-contract=off keeps multiplies and adds from
fusing into FMAs, which round once instead of twice.  The
library is cached in $XDG_CACHE_HOME/moogvcf (~/.cache/moogvcf), under a
name keyed by the sha256 of the source, the compiler, the flags and the
platform, and loaded through ctypes.  Each load refreshes the library's
mtime, and a cache miss keeps the CACHE_KEEP most recently loaded libraries
and deletes the rest, so checkouts that share the cache keep their own.
The cache directory must belong to the user and be writable by no one else,
since a library planted there would run as the user.

Any failure (no compiler, a compile error or timeout, a cache directory that
fails its check, a library that does not load) leaves lib and render_rows
None, and the Python kernels and renderer run.  If the library loaded but
the interpreter's two routines cannot be found, render_rows alone is None.
KERNEL names the kernel in use, "native" or "python"; DEBUG records on the
"moogvcf" logger give the library path, the compile time on a cache miss
and the reason for a fallback.
"""

import contextlib
import ctypes
import functools
import logging
import os
import shlex
import sys
import sysconfig
import time
import types
from pathlib import Path

import numpy as np

from . import model

# hashlib loads OpenSSL, several MB of resident memory, so the builtin module
# comes first, as random does: _sha256 up to Python 3.11, _sha2 from 3.12
try:
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

SOURCE = Path(__file__).with_name("_kernels.c")
FLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-pthread", "-fPIC", "-shared")
COMPILE_TIMEOUT = 120.0  # seconds
CACHE_KEEP = 4  # libraries a cache miss keeps, the most recently loaded

_log = logging.getLogger("moogvcf")
# A kernel call's arrays (constants, states, stage values, energies and the
# int64 record) and the line search are passed as ctypes scalars (from_buffer
# of a writable, C-ordered array, or a ctypes array), whose address ctypes
# takes without the 1.5-2.5 us of an ndarray.ctypes.data read.
_double, _long = ctypes.c_double, ctypes.c_long
_doubles, _longs = ctypes.POINTER(_double), ctypes.POINTER(_long)
# render_rows' function pointers, to PyOS_double_to_string (its string
# returned as an address, which only C reads) and to PyMem_Free
_DoubleToString = ctypes.CFUNCTYPE(ctypes.c_void_p, _double, ctypes.c_char, ctypes.c_int,
                                   ctypes.c_int, ctypes.POINTER(ctypes.c_int))
_MemFree = ctypes.CFUNCTYPE(None, ctypes.c_void_p)
_SIGNATURES = {
    "dg_run": (None, [_doubles, _double, _long, _long, _long, _double, _double, _double,
                      _double, _doubles, _long, _doubles, _doubles, _doubles, _longs]),
    "rk4_run": (None, [_doubles, _double, _long, _long, _doubles, _doubles, _doubles, _longs]),
    "render_rows": (_long, [_DoubleToString, _MemFree, _doubles, _long, _long,
                            ctypes.POINTER(ctypes.c_char), _long]),
}


def check_private(path: Path) -> None:
    """OSError unless path belongs to this user and no one else may write it."""
    st = os.stat(path)
    if st.st_uid != os.getuid():
        raise OSError(f"{path} belongs to uid {st.st_uid}, not to uid {os.getuid()}")
    if st.st_mode & 0o022:
        raise OSError(f"{path} is group- or world-writable (mode {st.st_mode & 0o777:o})")


def compile_library(cc: list, target: Path, timeout: float = COMPILE_TIMEOUT) -> None:
    """Compile SOURCE into target through a temporary file in its directory,
    moved in with os.replace.  The compiler runs in a session of its own and
    is always waited on; on a timeout or an interrupt the whole session (the
    compiler and the passes it started) is killed first."""
    import signal
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(suffix=".so", prefix=".build-", dir=target.parent)
    os.close(fd)
    try:
        with subprocess.Popen([*cc, *FLAGS, "-o", tmp, str(SOURCE), "-lm"],
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, start_new_session=True) as proc:
            try:
                out, _ = proc.communicate(timeout=timeout)
            except BaseException:
                with contextlib.suppress(ProcessLookupError):  # the session may have ended
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise
        if proc.returncode:
            raise OSError(f"{shlex.join(cc)} exited with status {proc.returncode}: "
                          f"{out.decode(errors='replace').strip()[-500:]}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load() -> ctypes.CDLL:
    """The library for SOURCE from the cache directory, compiled there on a miss."""
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "moogvcf"
    cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")
    key = sha256(SOURCE.read_bytes())
    key.update(repr((cc, FLAGS, sysconfig.get_platform())).encode())
    target = cache / f"_kernels-{key.hexdigest()[:32]}.so"
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    check_private(cache)
    if not target.exists():
        start = time.perf_counter()
        compile_library(cc, target)
        _log.debug("compiled %s in %.3f s", target, time.perf_counter() - start)
        loaded = {}  # the libraries of every key, by when each was last loaded
        for library in cache.glob("_kernels-*.so"):
            with contextlib.suppress(FileNotFoundError):  # deleted by another loader
                loaded[library] = library.stat().st_mtime_ns
        for stale in sorted(loaded, key=loaded.get, reverse=True)[CACHE_KEEP:]:
            stale.unlink(missing_ok=True)
    check_private(target)
    with contextlib.suppress(OSError):  # the mtime only orders the cleanup above
        os.utime(target)
    lib = ctypes.CDLL(str(target))
    for name in ("dg_run", "rk4_run"):  # render_rows is bound by load_renderer alone
        _bind(lib, name)
    _log.debug("native kernels loaded from %s", target)
    return lib


def _bind(handle: ctypes.CDLL, name: str):
    """The entry name of handle, with its restype and argtypes set."""
    fn = getattr(handle, name)
    fn.restype, fn.argtypes = _SIGNATURES[name]
    return fn


def load_renderer(lib: ctypes.CDLL):
    """render_rows of lib, called through a ctypes.PyDLL handle on the same
    library, which holds the GIL, with ctypes.pythonapi's
    PyOS_double_to_string and PyMem_Free bound as its first two arguments;
    AttributeError unless the interpreter exports both."""
    api = ctypes.pythonapi
    to_string = _DoubleToString(("PyOS_double_to_string", api))
    release = _MemFree(("PyMem_Free", api))
    return functools.partial(_bind(ctypes.PyDLL(lib._name), "render_rows"), to_string, release)


@model.per_params
def constants(p: model.FilterParams) -> np.ndarray:
    """The per-parameter constants of both kernels, a read-only row of 30
    float64 values that the C kernels read and the Python kernels unpack: the
    stage table's rows, d, feedback_coeff, the feedback-ratio bounds (1, 1 at
    r = 0), omega0, feedback_gain and the diagonal of model.scaling_matrix."""
    bounds = model.feedback_ratio_bounds(p) if p.r != 0.0 else (1.0, 1.0)
    row = np.array([*np.ravel(model.stage_table(p)).tolist(), p.d, p.feedback_coeff, *bounds,
                    p.omega0, p.feedback_gain, *model.scaling_matrix(p.d).diagonal().tolist()])
    row.setflags(write=False)
    return row


@functools.lru_cache(maxsize=16)
def doubles(values: tuple) -> ctypes.Array:
    """The floats of the tuple values as a ctypes array of doubles, made once
    per tuple (integrators' line search); the kernels only read it."""
    return (_double * len(values))(*values)


try:
    lib = load()
except Exception as err:  # any failure: the Python kernels run
    lib = None
    _log.debug("native kernels unavailable, the Python kernels run: %s", err)
render_rows = None
if lib is not None:
    try:
        render_rows = load_renderer(lib)
    except (AttributeError, OSError) as err:  # the kernels stay native
        _log.debug("native renderer unavailable, the Python renderer runs: %s", err)
_KERNEL = "python" if lib is None else "native"


class _Module(types.ModuleType):
    @property
    def KERNEL(self) -> str:
        """"native" if the C kernels loaded at import, else "python"."""
        return _KERNEL


sys.modules[__name__].__class__ = _Module
