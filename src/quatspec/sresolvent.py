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

resolvent_bundle builds all of them, with the pencil and its smallest
singular value, from one SVD and one inverse; ||Q|| takes one more SVD,
only when it is first read.  Everything that reads the resolvent at a
point takes the bundle.  The residual_* operations
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


def delta_op(A: QMatrix, q: Quaternion) -> QMatrix:
    """The pencil A@A - 2*Re(q)*A + |q|**2*I (real coefficients)."""
    abs2 = q.abs2()
    _check_finite(np.isfinite(abs2), q, "|q|**2")
    with np.errstate(over="ignore", invalid="ignore"):
        D = A @ A - (2.0 * q.w) * A + abs2 * QMatrix.identity(A.n)
    _check_finite(np.isfinite(D.a1).all() and np.isfinite(D.a2).all(), q,
                  PENCIL)
    return D


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


def resolvent_bundle(A: QMatrix, q: Quaternion) -> ResolventBundle:
    """Invert the pencil at q and assemble both S-resolvents.

    One SVD of chi(pencil) decides membership and gives the pencil's
    smallest singular value; the same chi array is then inverted, so Q
    equals hmat.qmat_inverse(pencil) bit for bit.  Raises
    NotInResolventSet (carrying the smallest singular value) when the
    pencil fails hmat.nonsingular.
    """
    D = delta_op(A, q)
    M = hmat.chi(D)
    sv = np.linalg.svd(M, compute_uv=False)
    if not hmat.nonsingular(sv):
        raise NotInResolventSet(
            f"point {tuple(q)} is numerically in the S-spectrum "
            f"(pencil smallest singular value {sv[-1]:.3e})",
            smallest_singular=float(sv[-1]))
    Q = hmat.from_chi(np.linalg.inv(M))
    qc = q.conj()
    S_left = Q.scale_right(qc) - A @ Q
    S_right = (QMatrix.identity(A.n).scale_left(qc) - A) @ Q
    return ResolventBundle(q=q, pencil=D, Q=Q, S_left=S_left,
                           S_right=S_right,
                           pencil_smallest_singular=float(sv[-1]))


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
