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

Every pencil is built one way: _pencils takes A@A once and forms the
pencils of a block of points on the complex pair, and each block's chi
images take one stacked SVD.  pencil_svals returns those singular values,
resolvent_bundles adds one stacked inverse and the S-resolvents, and
delta_op and resolvent_bundle are the one-point cases, so every reader of
a pencil at q sees the same singular values bit for bit; a bundle reads
||Q|| = 1/sigma_min and the radius ||Q||**(-1/2) = sqrt(sigma_min) off
them.  Everything that reads the resolvent at a point takes a bundle.
The residual_* operations evaluate on bundles, in the operator norm, the
exact identities these objects satisfy:

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

# A stacked SVD takes at most this many bytes of chi images (64 pencils at
# n = 8, 1024 at n = 2), which bounds the working memory of pencil_svals,
# resolvent_bundles and the series engine; block_rows turns it into rows.
PENCIL_BLOCK_BYTES = 1 << 18

# How overflow messages name the pencil.
PENCIL = "A@A - 2*Re(q)*A + |q|**2*I"


def block_rows(n: int) -> int:
    """How many n x n matrices one stacked block holds: the number of
    2n x 2n complex chi images in PENCIL_BLOCK_BYTES, at least one."""
    return max(1, PENCIL_BLOCK_BYTES // (16 * (2 * n) ** 2))


def _rows(points) -> np.ndarray:
    """The (k, 4) float array of a sequence of Quaternions or [w, x, y, z]."""
    # fromiter skips the per-row objects np.asarray builds from tuples.
    return np.fromiter(itertools.chain.from_iterable(points), float,
                       count=4 * len(points)).reshape(-1, 4)


def _overflow(q) -> QuatspecError:
    """The overflow error of the point q: |q|**2, else its pencil."""
    w, x, y, z = q.tolist()
    what = PENCIL if math.isfinite(w * w + x * x + y * y + z * z) else "|q|**2"
    return QuatspecError(f"the pencil overflows: {what} is not finite at "
                         f"q = ({w:g}, {x:g}, {y:g}, {z:g})")


def _pencils(A: QMatrix, pts: np.ndarray):
    """The pencils at the rows of pts, block_rows(A.n) points at a time.

    Yields (lo, D1, D2): the pencils of the points lo, lo + 1, ... as two
    stacked component arrays.  Each pencil is (A@A - 2*Re(q)*A) +
    |q|**2*I, with I the identity's components, entry by entry the
    arithmetic of the QMatrix expression (whose real scalars numpy casts
    to complex), and A@A is taken once.  Points are checked in order: a
    block ends before the first point whose pencil is not finite, and
    resuming the generator then raises that point's overflow error.
    """
    eye = QMatrix.identity(A.n)
    with np.errstate(over="ignore", invalid="ignore"):
        AA1, AA2 = hmat.pair_matmul(A.a1, A.a2, A.a1, A.a2)
    step = block_rows(A.n)
    for lo in range(0, len(pts), step):
        w, x, y, z = pts[lo:lo + step].T
        with np.errstate(over="ignore", invalid="ignore"):
            abs2 = w * w + x * x + y * y + z * z
            tw = (2.0 * w).astype(complex)[:, None, None]
            s2 = abs2.astype(complex)[:, None, None]
            D1 = AA1 - tw * A.a1 + s2 * eye.a1
            D2 = AA2 - tw * A.a2 + s2 * eye.a2
        finite = (np.isfinite(D1).all(axis=(1, 2))
                  & np.isfinite(D2).all(axis=(1, 2)))
        k = len(finite) if finite.all() else int(np.argmin(finite))
        if k:
            yield lo, D1[:k], D2[:k]
        if k < len(finite):
            raise _overflow(pts[lo + k])


def delta_op(A: QMatrix, q: Quaternion) -> QMatrix:
    """The pencil A@A - 2*Re(q)*A + |q|**2*I (real coefficients)."""
    _, D1, D2 = next(_pencils(A, np.array([q], dtype=float)))
    return QMatrix(D1[0], D2[0])


def pencil_svals(A: QMatrix, points) -> np.ndarray:
    """Singular values of chi(delta_op(A, q)) for each point q, shape (k, 2n).

    `points` is a sequence of Quaternions (or of [w, x, y, z] rows).  Each
    block of pencils takes one stacked SVD of its chi images, so every row
    equals the SVD of that point's own chi(delta_op(A, q)) bit for bit.
    Rows are in descending order.  Points are checked in order, and the
    first whose pencil overflows raises QuatspecError.
    """
    pts = _rows(points)
    out = np.empty((len(pts), 2 * A.n))
    for lo, D1, D2 in _pencils(A, pts):
        out[lo:lo + len(D1)] = np.linalg.svd(hmat.pair_chi(D1, D2),
                                             compute_uv=False)
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
        """||Q|| = 1/sigma_min of the pencil; takes no SVD."""
        return 1.0 / self.pencil_smallest_singular

    @property
    def radius(self) -> float:
        """The localization radius ||Q||**(-1/2) = sqrt(sigma_min)."""
        return math.sqrt(self.pencil_smallest_singular)


def resolvent_bundles(A: QMatrix, points) -> list:
    """The resolvent_bundle of every point, a block of pencils at a time.

    `points` is a sequence of Quaternions.  Each block of pencils from
    _pencils takes one stacked SVD of its chi images, which decides
    membership and gives each pencil's smallest singular value, and one
    stacked inverse of the same arrays, so Q equals
    hmat.qmat_inverse(pencil) bit for bit; both S-resolvents repeat the
    arithmetic of a single point entry by entry, so each bundle equals its
    one-point bundle bit for bit.  Points are checked in order, and the
    first that fails raises what its own call would: QuatspecError when
    its |q|**2 or its pencil overflows, NotInResolventSet (carrying the
    smallest singular value) when its pencil fails hmat.nonsingular, and
    QuatspecError when its 1/sigma_min overflows (sigma_min subnormal).
    """
    points = list(points)
    pts = _rows(points)
    eye = QMatrix.identity(A.n)
    bundles = []
    for lo, D1, D2 in _pencils(A, pts):
        M = hmat.pair_chi(D1, D2)
        sv = np.linalg.svd(M, compute_uv=False)
        with np.errstate(divide="ignore", over="ignore"):
            ok = hmat.nonsingular(sv) & np.isfinite(1.0 / sv[:, -1])
        if not ok.all():
            i = int(np.argmin(ok))
            if hmat.nonsingular(sv[i]):
                raise QuatspecError(f"||Q|| = 1/{sv[i, -1]:.3e} overflows at "
                                    f"point {tuple(points[lo + i])}")
            raise NotInResolventSet(
                f"point {tuple(points[lo + i])} is numerically in the "
                f"S-spectrum (pencil smallest singular value "
                f"{sv[i, -1]:.3e})", smallest_singular=float(sv[i, -1]))
        Q1, Q2 = hmat.pair_from_chi(np.linalg.inv(M))
        # conj(q) = conj(c1) - c2*j at each point, as scalars (k, 1, 1)
        c1, c2 = hmat.scalar_pairs(pts[lo:lo + len(M)])
        c1 = np.conj(c1)[:, None, None]
        c2 = np.negative(c2)[:, None, None]
        # S_left = Q*conj(q) - A@Q and S_right = (conj(q)*I - A) @ Q
        r1, r2 = hmat.pair_scale_right(Q1, Q2, c1, c2)
        aq1, aq2 = hmat.pair_matmul(A.a1, A.a2, Q1, Q2)
        L1, L2 = r1 - aq1, r2 - aq2
        r1, r2 = hmat.pair_scale_left(c1, c2, eye.a1, eye.a2)
        R1, R2 = hmat.pair_matmul(r1 - A.a1, r2 - A.a2, Q1, Q2)
        bundles += [ResolventBundle(q=q, pencil=QMatrix(D1[i], D2[i]),
                                    Q=QMatrix(Q1[i], Q2[i]),
                                    S_left=QMatrix(L1[i], L2[i]),
                                    S_right=QMatrix(R1[i], R2[i]),
                                    pencil_smallest_singular=float(sv[i, -1]))
                    for i, q in enumerate(points[lo:lo + len(M)])]
    return bundles


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
