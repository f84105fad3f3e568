"""The pencil Delta_q(A), its inverse, S-resolvents, and identity residuals.

For a bounded right-linear operator A on H^n and a quaternion q the
second-order pencil

    delta_op(A, q) = A@A - 2*Re(q)*A + |q|**2 * I

has real coefficients, so it depends on q only through the sphere of q.
When it is invertible, q belongs to the S-resolvent set and the bundle of
associated operators is

    Q       = delta_op(A, q)^(-1)          (pseudo-resolvent),
    S_left  = Q * conj(q) - A @ Q          (left  S-resolvent),
    S_right = (conj(q)*I - A) @ Q          (right S-resolvent).

resolvent_bundles builds all of them at k points, with each pencil and
its smallest singular value, from A@A taken once, one stacked SVD and one
stacked inverse; resolvent_bundle is its one-point case.  ||Q|| takes one
more SVD per bundle, only when it is first read.  Everything that reads
the resolvent at a point takes a bundle.  The residual_* operations
evaluate on bundles, in the operator norm, the exact identities these
objects satisfy:

  * two-point identity of left S-resolvents:
        S_left(p) - S_left(q)
            = Q(q)*(q - p) + Q(q) @ S_left(p) * triangle(q, p);
  * two-point identity of pseudo-resolvents (both factor orderings; the
    factors commute):
        Q(p) - Q(q) = (Delta_q - Delta_p) @ Q(p) @ Q(q);
  * mixed right/left product identity, valid off the sphere of q:
        S_right(q) @ S_left(p)
            = [ (S_right(q) - S_left(p))*p
                - conj(q)*(S_right(q) - S_left(p)) ] * triangle(q, p)^(-1);
  * the shift pairing A @ S_left(p) = S_left(p)*p - I.

All residuals are returned as absolute operator norms; relative-tolerance
policy belongs to the caller.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import hmat
from .errors import DegenerateConfiguration, NotInResolventSet, QuatspecError
from .hmat import QMatrix
from .quatcore import Quaternion, qinv, triangle

# Two points count as spectrally degenerate (same sphere) when |triangle|
# falls below this times (1 + |p|**2 + |q|**2).
DEGENERATE_REL_TOL = 1e-12

# pencil_svals decomposes at most this many bytes of pencils per stacked
# SVD (64 points at n = 8, 1024 at n = 2), which bounds its working memory.
PENCIL_BLOCK_BYTES = 1 << 18

# How overflow messages name the pencil.
PENCIL = "A@A - 2*Re(q)*A + |q|**2*I"


def _check_finite(finite, points, what: str) -> None:
    """Refuse the points at which `what` is not finite: the pencil overflows.

    `finite` holds one flag per point (or one for a single point).
    """
    if not np.all(finite):
        w, x, y, z = np.reshape(points, (-1, 4))[np.argmin(finite)]
        raise QuatspecError(
            f"the pencil overflows: {what} is not finite at "
            f"q = ({w:g}, {x:g}, {y:g}, {z:g})")


def _identity_pair(n: int):
    """The components of the n x n identity."""
    return np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex)


def _pencils(A: QMatrix, pts: np.ndarray, eye):
    """The pencils at the rows of pts, checked in order.

    Returns (D1, D2, k): each pencil is (A@A - 2*Re(q)*A) + |q|**2*I, with
    `eye` the components of I, entry by entry the arithmetic of the QMatrix
    expression (whose real scalars numpy casts to complex), with A@A taken
    once, and the first k points have finite pencils.  The point after
    them overflows: _raise_overflow(pts, k) names it.
    """
    w, x, y, z = pts.T
    with np.errstate(over="ignore", invalid="ignore"):
        abs2 = w * w + x * x + y * y + z * z
        AA1, AA2 = hmat.pair_matmul(A.a1, A.a2, A.a1, A.a2)
        tw = (2.0 * w).astype(complex)[:, None, None]
        s2 = abs2.astype(complex)[:, None, None]
        D1 = AA1 - tw * A.a1 + s2 * eye[0]
        D2 = AA2 - tw * A.a2 + s2 * eye[1]
    if np.isfinite(D1).all() and np.isfinite(D2).all():
        return D1, D2, len(pts)
    finite = (np.isfinite(D1).all(axis=(1, 2))
              & np.isfinite(D2).all(axis=(1, 2)))
    return D1, D2, int(np.argmin(finite))


def _raise_overflow(pts: np.ndarray, k: int) -> None:
    """Raise the overflow error of the point pts[k]."""
    w, x, y, z = pts[k].tolist()
    _check_finite(math.isfinite(w * w + x * x + y * y + z * z), pts[k],
                  "|q|**2")
    _check_finite(False, pts[k], PENCIL)


def delta_op(A: QMatrix, q: Quaternion) -> QMatrix:
    """The pencil A@A - 2*Re(q)*A + |q|**2*I (real coefficients)."""
    pts = np.array([q], dtype=float)
    D1, D2, k = _pencils(A, pts, _identity_pair(A.n))
    if k == 0:
        _raise_overflow(pts, 0)
    return QMatrix(D1[0], D2[0])


def pencil_svals(A: QMatrix, points) -> np.ndarray:
    """Singular values of chi(delta_op(A, q)) for each point q, shape (k, 2n).

    `points` is a sequence of Quaternions (or of [w, x, y, z] rows).  The
    stack chi(A@A) - 2*Re(q)*chi(A) + |q|**2*I repeats delta_op's
    arithmetic entry by entry (signs of zero entries aside), so each row
    agrees with the SVD of that point's own pencil to rounding.  Each
    stacked SVD takes at most PENCIL_BLOCK_BYTES of pencils.  Rows are in
    descending order.
    """
    # fromiter skips the per-row objects np.asarray builds from tuples.
    pts = np.fromiter(itertools.chain.from_iterable(points), float,
                      count=4 * len(points)).reshape(-1, 4)
    w, x, y, z = pts.T
    with np.errstate(over="ignore"):
        abs2 = w * w + x * x + y * y + z * z
    _check_finite(np.isfinite(abs2), pts, "|q|**2")
    C = hmat.chi(A)
    with np.errstate(over="ignore", invalid="ignore"):
        C2 = hmat.chi(A @ A)
    m = 2 * A.n
    block = max(1, PENCIL_BLOCK_BYTES // C.nbytes)
    out = np.empty((len(pts), m))
    for lo in range(0, len(pts), block):
        blk = slice(lo, lo + block)
        with np.errstate(over="ignore", invalid="ignore"):
            stack = np.multiply((2.0 * w[blk])[:, None, None], C)
            np.subtract(C2, stack, out=stack)
            stack.reshape(-1, m * m)[:, ::m + 1] += abs2[blk, None]
        _check_finite(np.isfinite(stack).all(axis=(1, 2)), pts[blk], PENCIL)
        out[blk] = np.linalg.svd(stack, compute_uv=False)
    return out


@dataclass(frozen=True)
class ResolventBundle:
    """Everything the package needs at one resolvent-set point."""

    q: Quaternion
    pencil: QMatrix
    Q: QMatrix
    S_left: QMatrix
    S_right: QMatrix
    pencil_smallest_singular: float

    @property
    def norm_Q(self) -> float:
        """||Q||, through hmat.op_norm: one SVD on the first read."""
        return hmat.op_norm(self.Q)


def resolvent_bundles(A: QMatrix, points) -> list:
    """The resolvent_bundle of every point, from one SVD and one inverse.

    `points` is a sequence of Quaternions.  A@A is taken once; the k
    pencils, their chi images, one stacked SVD and one stacked inverse then
    repeat the arithmetic of a single point entry by entry, and so do both
    S-resolvents, so each bundle equals its one-point bundle bit for bit.
    The SVD decides membership and gives each pencil's smallest singular
    value; the same chi arrays are inverted, so Q equals
    hmat.qmat_inverse(pencil) bit for bit.  Points are checked in order,
    and the first that fails raises what its own call would: QuatspecError
    when its |q|**2 or its pencil overflows, NotInResolventSet (carrying
    the smallest singular value) when its pencil fails hmat.nonsingular.
    """
    points = list(points)
    pts = np.fromiter(itertools.chain.from_iterable(points), float,
                      count=4 * len(points)).reshape(-1, 4)
    eye = _identity_pair(A.n)
    D1, D2, ok = _pencils(A, pts, eye)
    M = hmat.pair_chi(D1[:ok], D2[:ok])
    sv = np.linalg.svd(M, compute_uv=False)
    regular = hmat.nonsingular(sv)
    if not regular.all():
        i = int(np.argmin(regular))
        raise NotInResolventSet(
            f"point {tuple(points[i])} is numerically in the S-spectrum "
            f"(pencil smallest singular value {sv[i, -1]:.3e})",
            smallest_singular=float(sv[i, -1]))
    if ok < len(pts):
        _raise_overflow(pts, ok)
    Q1, Q2 = hmat.pair_from_chi(np.linalg.inv(M))
    # conj(q) = conj(c1) - c2*j at each point, as scalars of shape (k, 1, 1)
    c1, c2 = hmat.scalar_pairs(pts)
    c1 = np.conj(c1)[:, None, None]
    c2 = np.negative(c2)[:, None, None]
    # S_left = Q*conj(q) - A@Q and S_right = (conj(q)*I - A) @ Q
    r1, r2 = hmat.pair_scale_right(Q1, Q2, c1, c2)
    aq1, aq2 = hmat.pair_matmul(A.a1, A.a2, Q1, Q2)
    L1, L2 = r1 - aq1, r2 - aq2
    r1, r2 = hmat.pair_scale_left(c1, c2, *eye)
    R1, R2 = hmat.pair_matmul(r1 - A.a1, r2 - A.a2, Q1, Q2)
    return [ResolventBundle(q=q, pencil=QMatrix(D1[i], D2[i]),
                            Q=QMatrix(Q1[i], Q2[i]),
                            S_left=QMatrix(L1[i], L2[i]),
                            S_right=QMatrix(R1[i], R2[i]),
                            pencil_smallest_singular=float(sv[i, -1]))
            for i, q in enumerate(points)]


def resolvent_bundle(A: QMatrix, q: Quaternion) -> ResolventBundle:
    """Invert the pencil at q and assemble both S-resolvents.

    The one-point case of resolvent_bundles: one SVD and one inverse.
    """
    return resolvent_bundles(A, [q])[0]


def residual_resolvent_eq(bp: ResolventBundle, bq: ResolventBundle) -> float:
    """Residual norm of the two-point identity of left S-resolvents."""
    p, q = bp.q, bq.q
    lhs = bp.S_left - bq.S_left
    rhs = bq.Q.scale_right(q - p) + (bq.Q @ bp.S_left).scale_right(triangle(q, p))
    return hmat.op_norm(lhs - rhs)


def residual_q_eq(bp: ResolventBundle, bq: ResolventBundle):
    """Residual norms of the pseudo-resolvent two-point identity.

    Returns the pair for the factor orderings Q(p)@Q(q) and Q(q)@Q(p);
    both vanish in exact arithmetic because the factors commute.
    """
    lhs = bp.Q - bq.Q
    ddiff = bq.pencil - bp.pencil
    r_pq = hmat.op_norm(lhs - ddiff @ (bp.Q @ bq.Q))
    r_qp = hmat.op_norm(lhs - ddiff @ (bq.Q @ bp.Q))
    return r_pq, r_qp


def residual_mixed_eq(bp: ResolventBundle, bq: ResolventBundle) -> float:
    """Residual norm of the mixed right/left S-resolvent product identity.

    Raises DegenerateConfiguration when p lies on the sphere of q, where
    the scalar factor triangle(q, p) is not invertible.
    """
    p, q = bp.q, bq.q
    tri = triangle(q, p)
    if abs(tri) <= DEGENERATE_REL_TOL * (1.0 + p.abs2() + q.abs2()):
        raise DegenerateConfiguration(
            "p lies on the sphere of q: the mixed identity degenerates")
    diff = bq.S_right - bp.S_left
    lhs = bq.S_right @ bp.S_left
    bracket = diff.scale_right(p) - diff.scale_left(q.conj())
    rhs = bracket.scale_right(qinv(tri))
    return hmat.op_norm(lhs - rhs)


def residual_AS_identity(A: QMatrix, b: ResolventBundle) -> float:
    """Residual norm of A @ S_left(p) - S_left(p)*p + I at p = b.q."""
    expr = A @ b.S_left - b.S_left.scale_right(b.q) + QMatrix.identity(A.n)
    return hmat.op_norm(expr)


def random_resolvent_point(A: QMatrix, rng,
                           require_nonreal: bool = False) -> Quaternion:
    """Rejection-sample a quaternion at which the pencil is well conditioned.

    Components are uniform on [-box, box] with box = 2*(1 + ||A||), which
    keeps a healthy fraction of draws outside the spectral spheres; with
    require_nonreal, draws with |Im q| < 0.1 are skipped.  A draw is
    accepted when the pencil's smallest singular value exceeds 1e-6 times
    its largest; after 10000 draws NotInResolventSet is raised.
    """
    box = 2.0 * (1.0 + hmat.op_norm(A))
    for _ in range(10000):
        c = rng.uniform(-box, box, size=4)
        q = Quaternion(float(c[0]), float(c[1]), float(c[2]), float(c[3]))
        if require_nonreal and q.im_norm() < 0.1:
            continue
        sv = pencil_svals(A, [q])[0]
        if sv[-1] > 1e-6 * sv[0]:
            return q
    raise NotInResolventSet("failed to sample a well-conditioned resolvent point")
