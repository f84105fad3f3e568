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


class QMatrix:
    """Square quaternionic matrix as the complex pair a1 + a2*j."""

    __slots__ = ("a1", "a2")

    def __init__(self, a1, a2):
        a1 = np.asarray(a1, dtype=complex)
        a2 = np.asarray(a2, dtype=complex)
        if a1.ndim != 2 or a1.shape[0] != a1.shape[1] or a1.shape != a2.shape:
            raise InputError("QMatrix components must be square and congruent")
        self.a1 = a1
        self.a2 = a2

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
        vals = list(values)
        n = len(vals)
        out = cls.zeros(n)
        for i, q in enumerate(vals):
            c1, c2 = _scalar_pair(q)
            out.a1[i, i] = c1
            out.a2[i, i] = c2
        return out

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
        return QMatrix(self.a1 @ other.a1 - self.a2 @ np.conj(other.a2),
                       self.a1 @ other.a2 + self.a2 @ np.conj(other.a1))

    def __mul__(self, c):
        c = float(c)
        return QMatrix(self.a1 * c, self.a2 * c)

    __rmul__ = __mul__

    def scale_right(self, q: Quaternion) -> "QMatrix":
        """Entrywise right product A_ik * q (the operator x -> A(q x))."""
        c1, c2 = _scalar_pair(q)
        return QMatrix(self.a1 * c1 - self.a2 * np.conj(c2),
                       self.a1 * c2 + self.a2 * np.conj(c1))

    def scale_left(self, q: Quaternion) -> "QMatrix":
        """Entrywise left product q * A_ik."""
        c1, c2 = _scalar_pair(q)
        return QMatrix(c1 * self.a1 - c2 * np.conj(self.a2),
                       c1 * self.a2 + c2 * np.conj(self.a1))

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

    @classmethod
    def from_quaternions(cls, quats) -> "HVector":
        pairs = [_scalar_pair(q) for q in quats]
        return cls(np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))

    def to_quaternions(self):
        return [Quaternion(float(self.x1[i].real), float(self.x1[i].imag),
                           float(self.x2[i].real), float(self.x2[i].imag))
                for i in range(self.n)]

    def __add__(self, other):
        return HVector(self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other):
        return HVector(self.x1 - other.x1, self.x2 - other.x2)

    def scale_right(self, q: Quaternion) -> "HVector":
        c1, c2 = _scalar_pair(q)
        return HVector(self.x1 * c1 - self.x2 * np.conj(c2),
                       self.x1 * c2 + self.x2 * np.conj(c1))

    def scale_left(self, q: Quaternion) -> "HVector":
        c1, c2 = _scalar_pair(q)
        return HVector(c1 * self.x1 - c2 * np.conj(self.x2),
                       c1 * self.x2 + c2 * np.conj(self.x1))

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.x1) ** 2 + np.abs(self.x2) ** 2)))


def matvec(A: QMatrix, x: HVector) -> HVector:
    """Left action (A x)_i = sum_k A_ik x_k; right-linear by construction."""
    if A.n != x.n:
        raise InputError("matrix and vector dimensions do not match")
    return HVector(A.a1 @ x.x1 - A.a2 @ np.conj(x.x2),
                   A.a1 @ x.x2 + A.a2 @ np.conj(x.x1))


def vec(x: HVector) -> np.ndarray:
    """Isometric vectorization of H^n into C^(2n): (x1, conj(x2))."""
    return np.concatenate([x.x1, np.conj(x.x2)])


def chi(A: QMatrix) -> np.ndarray:
    """The complex adjoint representation of A as a 2n x 2n complex matrix."""
    n = A.n
    M = np.empty((2 * n, 2 * n), dtype=complex)
    M[:n, :n] = A.a1
    np.negative(A.a2, out=M[:n, n:])
    np.conjugate(A.a2, out=M[n:, :n])
    np.conjugate(A.a1, out=M[n:, n:])
    return M


def from_chi(M: np.ndarray) -> QMatrix:
    """Inverse of chi (averaging the redundant blocks)."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2:
        raise InputError("a chi image must be square with even dimension")
    n = M.shape[0] // 2
    a1 = 0.5 * (M[:n, :n] + np.conj(M[n:, n:]))
    a2 = 0.5 * (np.conj(M[n:, :n]) - M[:n, n:])
    return QMatrix(a1, a2)


def op_norm(A: QMatrix) -> float:
    """Operator norm sup{||A x|| : ||x|| <= 1} = largest singular value of chi(A)."""
    sv = np.linalg.svd(chi(A), compute_uv=False)
    return float(sv[0])


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
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"matrix document missing usable 'n'/'entries': {exc}")
    if n < 1:
        raise InputError("matrix dimension must be >= 1")
    try:
        arr = np.asarray(entries, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"matrix entries are not numeric: {exc}")
    if arr.shape != (n, n, 4):
        raise InputError(f"matrix entries must have shape ({n}, {n}, 4), "
                         f"got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError("matrix entries must be finite")
    return QMatrix.from_entries(arr)
