"""The six BLAS and LAPACK routines of module A, called without the interpreter lock.

SciPy's f2py wrappers (``scipy.linalg.blas.dsyrk`` and the rest) hold the
interpreter lock while the routine runs, so a second Python thread cannot
run BLAS beside them.  SciPy also exports each routine as a C function
pointer: ``scipy.linalg.cython_blas`` and ``cython_lapack`` list them in
``__pyx_capi__``, one capsule each, whose name is the C signature.  This
module calls those pointers through ``ctypes.CFUNCTYPE``, which releases the
lock for the call.  Each function here runs one routine on float64 arrays in
place and returns LAPACK's ``info`` where the routine has one; the bits are
the f2py wrapper's, since both call the same routine.

Every matrix argument is Fortran-ordered: a whole array or a column block or
sub-block of one (unit row stride, columns ``lda`` floats apart).  Nothing
is copied or checked for finiteness.  Only the lower triangle of a
triangular or symmetric operand is read or written, and every triangular
operand has a non-unit diagonal.

At import each capsule's signature is checked against the one these calls
assume, 32-bit ``int *`` sizes included; a SciPy whose BLAS takes other
arguments fails the import with ``ImportError`` instead of a wrong call.

``one_thread`` runs a block with both OpenBLAS copies of the process on
one thread per call: numpy's, which runs its matrix products, and SciPy's,
which runs the routines here.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager

import numpy as np
from scipy.linalg import cython_blas, cython_lapack

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath

# each routine's arguments: "c" a char, "i" an int, "d" a double, all by pointer
SIGNATURES = {
    "dsyrk": (cython_blas, "cciiddiddi"),
    "dgemm": (cython_blas, "cciiiddididdi"),
    "dtrmm": (cython_blas, "cccciiddidi"),
    "dpotrf": (cython_lapack, "cidii"),
    "dpotrs": (cython_lapack, "ciididii"),
    "dtrtri": (cython_lapack, "ccidii"),
}

_capsule_name = ctypes.pythonapi.PyCapsule_GetName
_capsule_name.restype = ctypes.c_char_p
_capsule_name.argtypes = [ctypes.py_object]
_capsule_pointer = ctypes.pythonapi.PyCapsule_GetPointer
_capsule_pointer.restype = ctypes.c_void_p
_capsule_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]


def c_signature(module, args: str) -> str:
    """The capsule name Cython gives a void function of ``args`` in ``module``."""
    parts = module.__name__.split(".")
    double = "__pyx_t_" + "_".join(f"{len(p)}{p}" for p in parts) + "_d *"
    types = {"c": "char *", "i": "int *", "d": double}
    return "void (" + ", ".join(types[a] for a in args) + ")"


def bind(signatures: dict) -> dict:
    """A ctypes function per name, each a capsule of its module's ``__pyx_capi__``.

    Every argument is passed as an address (a Python int), the cheapest
    conversion ctypes has.  Raises ``ImportError`` naming the routine when a
    capsule's signature is not the one given.
    """
    funcs = {}
    for name, (module, args) in signatures.items():
        capsule = module.__pyx_capi__[name]
        got = _capsule_name(capsule).decode()
        want = c_signature(module, args)
        if got != want:
            raise ImportError(f"glmamp.blas: {module.__name__}.{name} has the C signature "
                              f"{got!r}, not {want!r}; this SciPy's BLAS/LAPACK "
                              "cannot be called directly")
        proto = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * len(args))
        funcs[name] = proto(_capsule_pointer(capsule, got.encode()))
    return funcs


_F = bind(SIGNATURES)

# read-only arguments, shared by every call and thread: the option letters
# and the scalars 1 and 0
_LETTERS = ctypes.create_string_buffer(b"LNTR")
_L, _N, _T, _R = (ctypes.addressof(_LETTERS) + i for i in range(4))
_SCALARS = (ctypes.c_double * 2)(1.0, 0.0)
_ONE, _ZERO = ctypes.addressof(_SCALARS), ctypes.addressof(_SCALARS) + 8


def _thread_count(module, suffix=""):
    """OpenBLAS's thread-count (getter, setter) in the library ``module`` links, or None."""
    lib = ctypes.CDLL(module.__file__)
    get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
    put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
    if get is None or put is None:
        return None
    put.restype = None
    return get, put


# numpy's OpenBLAS (64-bit integers), then SciPy's
_COUNTS = (_thread_count(_multiarray_umath, "64_"), _thread_count(cython_blas))


@contextmanager
def one_thread():
    """Run the block with each OpenBLAS copy on one thread per call.

    Yields whether both copies were pinned; one without a thread-count
    setter (another BLAS) is left as it is.  On exit, by return or raise,
    each count is set back to what it was on entry.  The count is the
    process's, not the thread's: blocks running at once in one process
    share it, and the first to exit restores it for all.
    """
    counts = [count for count in _COUNTS if count is not None]
    start = [get() for get, _ in counts]
    for _, put in counts:
        put(1)
    try:
        yield len(counts) == len(_COUNTS)
    finally:
        for (_, put), threads in zip(counts, start):
            put(threads)


def _ld(a: np.ndarray) -> int:
    """``a``'s leading dimension: its column stride in floats.

    Raises ``ValueError`` unless ``a`` is float64 with unit row stride and
    columns at least a column's length apart (a vector is one column).
    """
    rows = a.shape[0]
    ld = a.strides[1] // 8 if a.ndim == 2 and a.shape[1] > 1 else rows
    if a.dtype != np.float64 or (rows > 1 and a.strides[0] != 8) or ld < rows:
        raise ValueError("expected a Fortran-ordered float64 array or block")
    return max(1, ld)


def _ints(*values):
    """The values as C ints, and the address of each; keep the first alive."""
    ints = (ctypes.c_int * len(values))(*values)
    base = ctypes.addressof(ints)
    return ints, range(base, base + 4 * len(values), 4)


def dsyrk(a, c) -> None:
    """c's lower triangle := a a^T, a of shape (n, k); c is not read."""
    keep, (n, k, lda, ldc) = _ints(*a.shape, _ld(a), _ld(c))
    _F["dsyrk"](_L, _N, n, k, _ONE, a.ctypes.data, lda, _ZERO, c.ctypes.data, ldc)


def dgemm(a, b, c) -> None:
    """c := a b^T, a of shape (m, k) and b of shape (n, k); c is not read."""
    keep, (m, n, k, lda, ldb, ldc) = _ints(a.shape[0], b.shape[0], a.shape[1],
                                           _ld(a), _ld(b), _ld(c))
    _F["dgemm"](_N, _T, m, n, k, _ONE, a.ctypes.data, lda, b.ctypes.data, ldb,
                _ZERO, c.ctypes.data, ldc)


def dtrmm(a, b, alpha=1.0, right=False) -> None:
    """b := alpha a b, or alpha b a if ``right``, a lower triangular."""
    keep, (m, n, lda, ldb) = _ints(*b.shape, _ld(a), _ld(b))
    scale = ctypes.c_double(alpha)
    _F["dtrmm"](_R if right else _L, _L, _N, _N, m, n, ctypes.addressof(scale),
                a.ctypes.data, lda, b.ctypes.data, ldb)


def dpotrf(a) -> int:
    """Cholesky factor L written over a's lower triangle; returns ``info``."""
    keep, (n, lda, info) = _ints(a.shape[0], _ld(a), 0)
    _F["dpotrf"](_L, n, a.ctypes.data, lda, info)
    return keep[2]


def dpotrs(a, b) -> int:
    """b := (L L^T)^-1 b for the factor L in a's lower triangle; returns ``info``."""
    keep, (n, nrhs, lda, ldb, info) = _ints(a.shape[0], b.shape[1] if b.ndim == 2 else 1,
                                            _ld(a), _ld(b), 0)
    _F["dpotrs"](_L, n, nrhs, a.ctypes.data, lda, b.ctypes.data, ldb, info)
    return keep[4]


def dtrtri(a) -> int:
    """a's lower triangle := its inverse; returns ``info``."""
    keep, (n, lda, info) = _ints(a.shape[0], _ld(a), 0)
    _F["dtrtri"](_L, _N, n, a.ctypes.data, lda, info)
    return keep[2]
