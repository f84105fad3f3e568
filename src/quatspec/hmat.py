"""Quaternionic n x n matrices acting on H^n, stored as a complex pair.

A matrix with quaternion entries w + x*i + y*j + z*k is kept as two complex
arrays (a1, a2) with entry = a1 + a2*j, i.e. a1 = w + x*i and a2 = y + z*i.
The complex adjoint representation

    chi(A) = [[a1, -a2], [conj(a2), conj(a1)]]          (2n x 2n complex)

is an injective real-algebra homomorphism, and the companion vectorization
vec(x1 + x2*j) = (x1, conj(x2)) of H^n into C^(2n) is an isometry with
chi(A) @ vec(x) = vec(A x).  Operator norms, inverses and (elsewhere)
spectra are computed through chi, which makes them equal to the native
quaternionic quantities because vec is a bijective isometry.

A QMatrix is immutable (its arrays are read-only), and op_norm stores the
operator norm on the matrix after one SVD, so every later ||A|| is that
same float.

Matrices act on column vectors from the left, so they are right-linear:
A(x*q) = (A x)*q.  The product of an operator with a quaternion scalar is
entrywise: (A*q) has entries A_ik * q (the operator x -> A(q x)) and (q*A)
has entries q * A_ik.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, SingularOperator
from .quatcore import Quaternion

# A matrix whose smallest singular value does not exceed this fraction of
# its largest is treated as singular throughout the package (see
# nonsingular).
SINGULAR_REL_TOL = 1e-10


def _scalar_pair(q: Quaternion):
    return complex(q.w, q.x), complex(q.y, q.z)


# The pair_* functions are the QMatrix arithmetic on raw component arrays.
# They broadcast like numpy, so a stack of shape (k, n, n) and per-matrix
# scalars of shape (k, 1, 1) give k results that equal the one-matrix
# results bit for bit; resolvent bundles and the series engine work on
# stacks through them.

def scalar_pairs(pts: np.ndarray):
    """The pairs (w + x*i, y + z*i) of the rows of a (k, 4) float array.

    The parts are assigned, not summed, so signed zeros survive as they do
    in complex(w, x).
    """
    c1 = np.empty(len(pts), dtype=complex)
    c2 = np.empty(len(pts), dtype=complex)
    c1.real, c1.imag, c2.real, c2.imag = pts.T
    return c1, c2


def pair_matmul(a1, a2, b1, b2):
    """The product (a1 + a2*j) @ (b1 + b2*j) as a complex pair."""
    return a1 @ b1 - a2 @ np.conj(b2), a1 @ b2 + a2 @ np.conj(b1)


def pair_scale_right(a1, a2, c1, c2):
    """The entrywise right product (a1 + a2*j) * (c1 + c2*j)."""
    return a1 * c1 - a2 * np.conj(c2), a1 * c2 + a2 * np.conj(c1)


def pair_scale_left(c1, c2, a1, a2):
    """The entrywise left product (c1 + c2*j) * (a1 + a2*j)."""
    return c1 * a1 - c2 * np.conj(a2), c1 * a2 + c2 * np.conj(a1)


class QMatrix:
    """Square quaternionic matrix as the complex pair a1 + a2*j.

    The component arrays are read-only, so the norm op_norm stores stays
    valid; a complex ndarray argument is kept as is and becomes read-only.
    """

    __slots__ = ("a1", "a2", "_norm")

    def __init__(self, a1, a2):
        a1 = np.asarray(a1, dtype=complex)
        a2 = np.asarray(a2, dtype=complex)
        if a1.ndim != 2 or a1.shape[0] != a1.shape[1] or a1.shape != a2.shape:
            raise InputError("QMatrix components must be square and congruent")
        a1.setflags(write=False)
        a2.setflags(write=False)
        self.a1 = a1
        self.a2 = a2
        self._norm = None

    @property
    def n(self) -> int:
        return self.a1.shape[0]

    @classmethod
    def zeros(cls, n: int) -> "QMatrix":
        return cls(np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex))

    @classmethod
    def from_entries(cls, entries) -> "QMatrix":
        """Build from an (n, n, 4) array-like of components [w, x, y, z]."""
        arr = np.asarray(entries, dtype=float)
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 4:
            raise InputError("matrix entries must form an (n, n, 4) array")
        return cls(arr[:, :, 0] + 1j * arr[:, :, 1], arr[:, :, 2] + 1j * arr[:, :, 3])

    @classmethod
    def diag(cls, values) -> "QMatrix":
        """Diagonal matrix from a sequence of Quaternions."""
        pairs = np.array([_scalar_pair(q) for q in values],
                         dtype=complex).reshape(-1, 2)
        return cls(np.diag(pairs[:, 0]), np.diag(pairs[:, 1]))

    def to_entries(self) -> np.ndarray:
        """The (n, n, 4) array of components [w, x, y, z]."""
        return np.stack([self.a1.real, self.a1.imag, self.a2.real, self.a2.imag],
                        axis=-1)

    def entry(self, i: int, k: int) -> Quaternion:
        return Quaternion(float(self.a1[i, k].real), float(self.a1[i, k].imag),
                          float(self.a2[i, k].real), float(self.a2[i, k].imag))

    def __add__(self, other):
        return QMatrix(self.a1 + other.a1, self.a2 + other.a2)

    def __sub__(self, other):
        return QMatrix(self.a1 - other.a1, self.a2 - other.a2)

    def __neg__(self):
        return QMatrix(-self.a1, -self.a2)

    def __matmul__(self, other):
        if self.n != other.n:
            raise InputError("matrix dimensions do not match")
        return QMatrix(*pair_matmul(self.a1, self.a2, other.a1, other.a2))

    def __mul__(self, c):
        c = float(c)
        return QMatrix(self.a1 * c, self.a2 * c)

    __rmul__ = __mul__

    def scale_right(self, q: Quaternion) -> "QMatrix":
        """Entrywise right product A_ik * q (the operator x -> A(q x))."""
        return QMatrix(*pair_scale_right(self.a1, self.a2, *_scalar_pair(q)))

    def scale_left(self, q: Quaternion) -> "QMatrix":
        """Entrywise left product q * A_ik."""
        return QMatrix(*pair_scale_left(*_scalar_pair(q), self.a1, self.a2))

    def adjoint(self) -> "QMatrix":
        """Conjugate transpose (quaternionic adjoint)."""
        return QMatrix(np.conj(self.a1).T, -self.a2.T)


class HVector:
    """Column vector in H^n as the complex pair x1 + x2*j."""

    __slots__ = ("x1", "x2")

    def __init__(self, x1, x2):
        x1 = np.asarray(x1, dtype=complex)
        x2 = np.asarray(x2, dtype=complex)
        if x1.ndim != 1 or x1.shape != x2.shape:
            raise InputError("HVector components must be congruent 1-d arrays")
        self.x1 = x1
        self.x2 = x2

    @property
    def n(self) -> int:
        return self.x1.shape[0]

    def __add__(self, other):
        return HVector(self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other):
        return HVector(self.x1 - other.x1, self.x2 - other.x2)

    def scale_right(self, q: Quaternion) -> "HVector":
        return HVector(*pair_scale_right(self.x1, self.x2, *_scalar_pair(q)))

    def scale_left(self, q: Quaternion) -> "HVector":
        return HVector(*pair_scale_left(*_scalar_pair(q), self.x1, self.x2))

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.x1) ** 2 + np.abs(self.x2) ** 2)))


def matvec(A: QMatrix, x: HVector) -> HVector:
    """Left action (A x)_i = sum_k A_ik x_k; right-linear by construction."""
    if A.n != x.n:
        raise InputError("matrix and vector dimensions do not match")
    return HVector(*pair_matmul(A.a1, A.a2, x.x1, x.x2))


def vec(x: HVector) -> np.ndarray:
    """Isometric vectorization of H^n into C^(2n): (x1, conj(x2))."""
    return np.concatenate([x.x1, np.conj(x.x2)])


def chi(A: QMatrix) -> np.ndarray:
    """The complex adjoint representation of A as a 2n x 2n complex matrix."""
    return pair_chi(A.a1, A.a2)


def pair_chi(a1, a2) -> np.ndarray:
    """chi of the pair (a1, a2), stacked along any leading axes."""
    n = a1.shape[-1]
    M = np.empty(a1.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    M[..., :n, :n] = a1
    np.negative(a2, out=M[..., :n, n:])
    np.conjugate(a2, out=M[..., n:, :n])
    np.conjugate(a1, out=M[..., n:, n:])
    return M


def from_chi(M: np.ndarray) -> QMatrix:
    """Inverse of chi (averaging the redundant blocks)."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2:
        raise InputError("a chi image must be square with even dimension")
    return QMatrix(*pair_from_chi(M))


def pair_from_chi(M: np.ndarray):
    """from_chi as a complex pair, stacked along any leading axes."""
    n = M.shape[-1] // 2
    return (0.5 * (M[..., :n, :n] + np.conj(M[..., n:, n:])),
            0.5 * (np.conj(M[..., n:, :n]) - M[..., :n, n:]))


def op_norm(A: QMatrix) -> float:
    """Operator norm sup{||A x|| : ||x|| <= 1} = largest singular value of chi(A).

    The first call takes one SVD and stores the value on A; later calls
    return that float.
    """
    if A._norm is None:
        A._norm = float(np.linalg.svd(chi(A), compute_uv=False)[0])
    return A._norm


def pair_op_norms(a1, a2):
    """op_norm of each matrix of a (k, n, n) stacked pair, in order.

    An iterator of floats.  The matrices before the first non-finite one
    take one stacked SVD; each later one takes its own SVD when it is
    reached, as op_norm would, so one that fails the SVD raises only then.
    """
    finite = np.isfinite(a1).all(axis=(1, 2)) & np.isfinite(a2).all(axis=(1, 2))
    f = len(finite) if finite.all() else int(np.argmin(finite))
    yield from np.linalg.svd(pair_chi(a1[:f], a2[:f]),
                             compute_uv=False)[:, 0].tolist()
    for i in range(f, len(finite)):
        yield float(np.linalg.svd(pair_chi(a1[i], a2[i]), compute_uv=False)[0])


def smallest_singular(A: QMatrix) -> float:
    """Smallest singular value of chi(A); zero iff A is not invertible."""
    sv = np.linalg.svd(chi(A), compute_uv=False)
    return float(sv[-1])


def nonsingular(sv):
    """The package singularity test, smallest > SINGULAR_REL_TOL * largest.

    `sv` holds singular values in descending order along its last axis, so
    a stack of them gives one verdict per matrix.  NaN values fail.
    """
    return sv[..., -1] > SINGULAR_REL_TOL * sv[..., 0]


def qmat_inverse(A: QMatrix) -> QMatrix:
    """Inverse computed through chi; the inverse of a chi image is one too."""
    M = chi(A)
    sv = np.linalg.svd(M, compute_uv=False)
    if not nonsingular(sv):
        raise SingularOperator(
            "matrix is numerically singular (smallest singular value "
            f"{sv[-1]:.3e})", smallest_singular=float(sv[-1]))
    return from_chi(np.linalg.inv(M))


def random_qmatrix(n: int, rng) -> QMatrix:
    """Random matrix with all entry components uniform on [-1, 1]."""
    return QMatrix.from_entries(rng.uniform(-1.0, 1.0, size=(n, n, 4)))


def random_hvector(n: int, rng) -> HVector:
    comps = rng.uniform(-1.0, 1.0, size=(n, 4))
    return HVector(comps[:, 0] + 1j * comps[:, 1], comps[:, 2] + 1j * comps[:, 3])


def qmatrix_to_json_dict(A: QMatrix) -> dict:
    """The interchange form {"n": n, "entries": [[[w,x,y,z], ...], ...]}."""
    return {"n": A.n, "entries": A.to_entries().tolist()}


def qmatrix_from_json_dict(data) -> QMatrix:
    """Parse and validate the interchange form; raises InputError."""
    if not isinstance(data, dict):
        raise InputError("matrix document must be a JSON object")
    try:
        n = int(data["n"])
        entries = data["entries"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"matrix document missing usable 'n'/'entries': {exc}")
    if n < 1:
        raise InputError("matrix dimension must be >= 1")
    try:
        arr = np.asarray(entries, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"matrix entries are not numeric: {exc}")
    if arr.shape != (n, n, 4):
        raise InputError(f"matrix entries must have shape ({n}, {n}, 4), "
                         f"got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError("matrix entries must be finite")
    return QMatrix.from_entries(arr)
