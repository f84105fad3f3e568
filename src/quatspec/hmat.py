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
operator norm on the matrix after one call of the norm kernel
top_singular (op_norms: one stacked call for a list), so every later ||A||
is that same float.  The kernel takes sigma_max from the largest
eigenvalue of the Gram matrix of each chi image, scaled by its own power
of two; np.linalg.svd runs only where every singular value is needed,
on the pencils (their sigma_min and the singularity test nonsingular)
and on chi(A) - z0*I, whose sigma_min spectrum.center_certified reads.

Matrices act on column vectors from the left, so they are right-linear:
A(x*q) = (A x)*q.  The product of an operator with a quaternion scalar is
entrywise: (A*q) has entries A_ik * q (the operator x -> A(q x)) and (q*A)
has entries q * A_ik.
"""

from __future__ import annotations

import functools

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
    """The pairs (w + x*i, y + z*i) of the rows of a (..., 4) float array,
    each of shape (...).

    The pairs are the rows' own bits read as complex numbers, not sums,
    so signed zeros survive as they do in complex(w, x).
    """
    pair = np.ascontiguousarray(pts, dtype=float).view(complex)
    return pair[..., 0], pair[..., 1]


def pair_matmul(a1, a2, b1, b2):
    """The product (a1 + a2*j) @ (b1 + b2*j) as a complex pair."""
    return a1 @ b1 - a2 @ np.conj(b2), a1 @ b2 + a2 @ np.conj(b1)


def pair_scale_right(a1, a2, c1, c2):
    """The entrywise right product (a1 + a2*j) * (c1 + c2*j)."""
    return a1 * c1 - a2 * np.conj(c2), a1 * c2 + a2 * np.conj(c1)


def pair_scale_left(c1, c2, a1, a2):
    """The entrywise left product (c1 + c2*j) * (a1 + a2*j)."""
    return c1 * a1 - c2 * np.conj(a2), c1 * a2 + c2 * np.conj(a1)


def pair_add(a1, a2, b1, b2):
    """The sum (a1 + a2*j) + (b1 + b2*j) as a complex pair."""
    return a1 + b1, a2 + b2


def pair_sub(a1, a2, b1, b2):
    """The difference (a1 + a2*j) - (b1 + b2*j) as a complex pair."""
    return a1 - b1, a2 - b2


def stack_scalars(qs):
    """The quaternions qs as (k, 1, 1) scalar pairs: scalar i acts on
    matrix i of a (k, n, n) stack."""
    c1, c2 = scalar_pairs(np.array(qs, dtype=float).reshape(-1, 4))
    return c1[:, None, None], c2[:, None, None]


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


@functools.lru_cache(maxsize=16)
def identity(n: int) -> QMatrix:
    """The n x n identity, one shared QMatrix per n (it is read-only)."""
    return QMatrix.identity(n)


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
    # Halving each block before the sum is exact for normal numbers and
    # keeps a sum of two large blocks from overflowing.
    return (0.5 * M[..., :n, :n] + 0.5 * np.conj(M[..., n:, n:]),
            0.5 * np.conj(M[..., n:, :n]) - 0.5 * M[..., :n, n:])


def op_norm(A: QMatrix) -> float:
    """Operator norm sup{||A x|| : ||x|| <= 1} = largest singular value of chi(A).

    The one-matrix case of op_norms: the first call takes the norm kernel
    (top_singular) and stores the value on A; later calls return that
    float.  A matrix that is not finite raises LinAlgError before LAPACK
    sees it: on an inf, LAPACK would print to file descriptor 1, past
    sys.stdout, and return nan.
    """
    if A._norm is None:
        op_norms([A])
    return A._norm


def op_norms(mats) -> list:
    """op_norm of each QMatrix in mats (all of one size), in order.

    The norms not stored yet take one pair_op_norms call and are stored in
    order; a matrix that is not finite raises LinAlgError as op_norm would.
    """
    todo = list({id(A): A for A in mats if A._norm is None}.values())
    if todo:
        # np.array stacks a list of equal-shaped arrays, as np.stack
        # does, at a fifth of its fixed cost
        norms = pair_op_norms(np.array([A.a1 for A in todo]),
                              np.array([A.a2 for A in todo]))
        for A, norm in zip(todo, norms):
            A._norm = norm
    return [A._norm for A in mats]


def finite_rows(a1, a2) -> int:
    """How many leading matrices of a (k, n, n) stacked pair are finite."""
    if np.isfinite(a1).all() and np.isfinite(a2).all():
        return len(a1)
    finite = np.isfinite(a1).all(axis=(1, 2)) & np.isfinite(a2).all(axis=(1, 2))
    return len(finite) if finite.all() else int(np.argmin(finite))


# top_singular scales a chi image whose largest real or imaginary part,
# its top, lies outside [2**-UNSCALED_EXPONENT, 2**UNSCALED_EXPONENT) by a
# power of two, and leaves the others as they are: their Gram entries lie
# between 2**-404 and 2**409 for n <= 8, inside the range where LAPACK's
# eigvalsh works without scaling of its own, and the parts more than
# 2**874 below the top that underflow in them move no norm by a rounding.
UNSCALED_EXPONENT = 200


def top_singular(a1, a2) -> np.ndarray:
    """The largest singular value of chi of each matrix of a (k, n, n)
    stacked pair, up to its first matrix that is not finite.

    The norm kernel: sigma_max = sqrt(lambda_max(M^H M)), with M the chi
    image, from one stacked eigvalsh.  The product M^H M rounds each entry
    by at most gamma_2n * (|M|^H |M|) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, section 3.5), at most about
    4n**2 * eps * sigma_max**2 in norm and far less in practice, so
    lambda_max keeps its relative accuracy; the small singular values do
    not survive the squaring, which is why the pencils' sigma_min (and
    every test that needs all singular values) keeps its SVD.

    Each M is scaled by its own power of two 2**-e before M^H M is formed,
    and the root scaled back by 2**e, both exact (ldexp): e = 0 while its
    top (largest real or imaginary part) lies in the unscaled range of
    UNSCALED_EXPONENT, and otherwise 2**(e-1) <= top < 2**e, so that M^H
    M neither overflows nor loses its top to underflow from subnormal
    entries to 1.8e308.  The scale is decided per matrix, so a matrix gets
    the same bits in any stack, and a stack whose matrices all lie in the
    unscaled range takes no ldexp.  The same max reduction over each
    matrix's parts tests finiteness: a NaN or inf makes it fail, and the
    norms stop before that matrix, whose rows no LAPACK call sees.  Norms
    past the float range come back as inf without a warning, as the SVD
    gave them.
    """
    M = pair_chi(a1, a2)
    v = M.view(float)
    k, rows, cols = v.shape
    top = np.abs(v).reshape(k, rows * cols).max(axis=1)
    lo, hi = 2.0 ** -UNSCALED_EXPONENT, 2.0 ** UNSCALED_EXPONENT
    # NaN fails both comparisons, inf the second
    scaled = not (lo <= top.min(initial=np.inf) and top.max(initial=0.0) < hi)
    if scaled:
        fits = top < np.inf
        if not fits.all():
            f = int(np.argmin(fits))
            M, v, top = M[:f], v[:f], top[:f]
        e = np.frexp(top)[1]
        e[(lo <= top) & (top < hi)] = 0
        np.ldexp(v, -e[:, None, None], out=v)
    root = np.sqrt(np.linalg.eigvalsh(M.mT.conj() @ M)[:, -1])
    if not scaled:
        return root
    with np.errstate(over="ignore"):
        return np.ldexp(root, e)


def pair_op_norms(a1, a2):
    """op_norm of each matrix of a (k, n, n) stacked pair, in order.

    An iterator of floats.  The matrices before the first non-finite one
    take one top_singular call; that one raises LinAlgError, as in
    op_norm, when it is reached.
    """
    norms = top_singular(a1, a2)
    yield from norms.tolist()
    if len(norms) < len(a1):
        raise np.linalg.LinAlgError(
            "a matrix that is not finite has no operator norm")


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
