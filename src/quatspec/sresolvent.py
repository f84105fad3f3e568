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
pencils of a block of points on the complex pair, and pencil_chis yields
each block's chi images.  pencil_svals takes one stacked SVD of each
block, resolvent_bundles adds one stacked inverse and the S-resolvents,
and delta_op and resolvent_bundle are the one-point cases, so every
reader of a pencil's singular values at q sees them bit for bit (the
membership mask of spectrum.resolvent_mask needs them only for the
pencils its determinant certificate leaves undecided); a bundle reads
||Q|| = 1/sigma_min and the radius ||Q||**(-1/2) = sqrt(sigma_min) off
them.  localization_radius reads the same radius off the pencil's SVD
alone and refuses a point with the bundle's error.  Everything else that
reads the resolvent at a point takes a bundle.  Random resolvent points
come from one sampler, random_resolvent_points, which tests each stack
of draws in one pencil_svals call.
The residual_* operations evaluate on bundles the exact identities these
objects satisfy, as lhs - rhs:

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

Each residual is returned as an operator whose norm is the absolute
residual; the norms (hmat.op_norms) and the tolerance belong to the caller.
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

# Two points count as spectrally degenerate (same sphere) in the mixed
# identity when they are not off_sphere at this tolerance.
DEGENERATE_REL_TOL = 1e-12

# random_resolvent_points accepts a draw when its pencil's smallest
# singular value exceeds this fraction of its largest.
WELL_CONDITIONED_RATIO = 1e-6

# It draws a point flagged non-real again while |Im q| is below this.
NONREAL_MIN_IMAG = 0.1

# It gives up after this many draws.
SAMPLE_DRAWS = 10000

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
    """The (k, 4) float array of a sequence of Quaternions or [w, x, y, z].

    A (k, 4) float array, such as spectrum.sample_cassini_ball returns,
    is passed through as it is.
    """
    if isinstance(points, np.ndarray):
        if points.ndim != 2 or points.shape[1] != 4 or points.dtype != float:
            raise ValueError(f"points must be a (k, 4) float array, not "
                             f"{points.dtype} of shape {points.shape}")
        return points
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
        k = hmat.finite_rows(D1, D2)
        if k:
            yield lo, D1[:k], D2[:k]
        if k < len(D1):
            raise _overflow(pts[lo + k])


def delta_op(A: QMatrix, q: Quaternion) -> QMatrix:
    """The pencil A@A - 2*Re(q)*A + |q|**2*I (real coefficients)."""
    _, D1, D2 = next(_pencils(A, np.array([q], dtype=float)))
    return QMatrix(D1[0], D2[0])


def pencil_chis(A: QMatrix, points):
    """The chi images of the pencils at `points`, a block at a time.

    `points` is a sequence of Quaternions (or of [w, x, y, z] rows).
    Yields (lo, M): the stacked chi(delta_op(A, q)) of the points lo,
    lo + 1, ...  Points are checked in order, and the first whose pencil
    overflows raises QuatspecError once the blocks before it are taken.
    """
    for lo, D1, D2 in _pencils(A, _rows(points)):
        yield lo, hmat.pair_chi(D1, D2)


def pencil_svals(A: QMatrix, points) -> np.ndarray:
    """Singular values of chi(delta_op(A, q)) for each point q, shape (k, 2n).

    Each block of pencil_chis takes one stacked SVD, so every row equals
    the SVD of that point's own chi(delta_op(A, q)) bit for bit.  Rows
    are in descending order; an overflowing pencil raises as in
    pencil_chis.
    """
    out = np.empty((len(points), 2 * A.n))
    for lo, M in pencil_chis(A, points):
        out[lo:lo + len(M)] = np.linalg.svd(M, compute_uv=False)
    return out


def _radius(smallest: float) -> float:
    """The localization radius ||Q||**(-1/2) = sqrt(sigma_min)."""
    return math.sqrt(smallest)


def _require_resolvent(points, sv: np.ndarray, lo: int = 0) -> None:
    """Refuse the first of the points lo, lo + 1, ... that is not usable.

    sv holds their pencils' singular values, a row per point.  A point is
    refused with NotInResolventSet (carrying the smallest singular value)
    when its pencil fails hmat.nonsingular, and with QuatspecError when
    its ||Q|| = 1/sigma_min overflows (sigma_min subnormal).
    """
    with np.errstate(divide="ignore", over="ignore"):
        ok = hmat.nonsingular(sv) & np.isfinite(1.0 / sv[:, -1])
    if ok.all():
        return
    i = int(np.argmin(ok))
    point = tuple(points[lo + i])
    if hmat.nonsingular(sv[i]):
        raise QuatspecError(f"||Q|| = 1/{sv[i, -1]:.3e} overflows at "
                            f"point {point}")
    raise NotInResolventSet(
        f"point {point} is numerically in the S-spectrum (pencil smallest "
        f"singular value {sv[i, -1]:.3e})", smallest_singular=float(sv[i, -1]))


def localization_radius(A: QMatrix, q: Quaternion) -> float:
    """The radius ||Q(q)||**(-1/2) = sqrt(sigma_min) of resolvent_bundle(A, q).

    Takes only the pencil's SVD, the one resolvent_bundle takes, and
    refuses q exactly as resolvent_bundle does.
    """
    sv = pencil_svals(A, [q])
    _require_resolvent([q], sv)
    return _radius(float(sv[0, -1]))


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
        return _radius(self.pencil_smallest_singular)


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
    its |q|**2 or its pencil overflows, else the refusal of
    _require_resolvent.
    """
    points = list(points)
    pts = _rows(points)
    eye = QMatrix.identity(A.n)
    bundles = []
    for lo, D1, D2 in _pencils(A, pts):
        M = hmat.pair_chi(D1, D2)
        sv = np.linalg.svd(M, compute_uv=False)
        _require_resolvent(points, sv, lo)
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


def residual_resolvent_eq(bp: ResolventBundle, bq: ResolventBundle) -> QMatrix:
    """Residual operator of the two-point identity of left S-resolvents."""
    p, q = bp.q, bq.q
    lhs = bp.S_left - bq.S_left
    rhs = bq.Q.scale_right(q - p) + (bq.Q @ bp.S_left).scale_right(triangle(q, p))
    return lhs - rhs


def residual_q_eq(bp: ResolventBundle, bq: ResolventBundle):
    """Residual operators of the pseudo-resolvent two-point identity.

    Returns the pair for the factor orderings Q(p)@Q(q) and Q(q)@Q(p);
    both vanish in exact arithmetic because the factors commute.
    """
    lhs = bp.Q - bq.Q
    ddiff = bq.pencil - bp.pencil
    return lhs - ddiff @ (bp.Q @ bq.Q), lhs - ddiff @ (bq.Q @ bp.Q)


def off_sphere(q: Quaternion, p: Quaternion, tol: float) -> bool:
    """Whether p is off the sphere of q: |triangle(q, p)| exceeds tol times
    (1 + |p|**2 + |q|**2)."""
    return abs(triangle(q, p)) > tol * (1.0 + p.abs2() + q.abs2())


def residual_mixed_eq(bp: ResolventBundle, bq: ResolventBundle) -> QMatrix:
    """Residual operator of the mixed right/left S-resolvent product identity.

    Raises DegenerateConfiguration when p lies on the sphere of q at
    DEGENERATE_REL_TOL, where the scalar factor triangle(q, p) is not
    invertible.
    """
    p, q = bp.q, bq.q
    if not off_sphere(q, p, DEGENERATE_REL_TOL):
        raise DegenerateConfiguration(
            "p lies on the sphere of q: the mixed identity degenerates")
    diff = bq.S_right - bp.S_left
    lhs = bq.S_right @ bp.S_left
    bracket = diff.scale_right(p) - diff.scale_left(q.conj())
    rhs = bracket.scale_right(qinv(triangle(q, p)))
    return lhs - rhs


def residual_AS_identity(A: QMatrix, b: ResolventBundle) -> QMatrix:
    """Residual operator A @ S_left(p) - S_left(p)*p + I at p = b.q."""
    return A @ b.S_left - b.S_left.scale_right(b.q) + QMatrix.identity(A.n)


def certified_real_point(A: QMatrix) -> Quaternion:
    """The real point 2*(1 + ||A||), always in the resolvent set.

    At a real center r the pencil is (A - r*I)**2, and r exceeds ||A|| by
    at least 2, so the pencil's smallest singular value is at least 4.
    It is also the half-width of random_resolvent_points' box, which keeps
    a healthy fraction of draws outside the spectral spheres.
    """
    return Quaternion(2.0 * (1.0 + hmat.op_norm(A)))


def well_conditioned(sv):
    """Whether sigma_min > WELL_CONDITIONED_RATIO * sigma_max, per row of
    pencil_svals (a bool array; a single row gives a numpy bool)."""
    return sv[..., -1] > WELL_CONDITIONED_RATIO * sv[..., 0]


def random_resolvent_points(A: QMatrix, rng, nonreal, fixed=()):
    """Rejection-sample points at which the pencil is well conditioned.

    Draws one point per flag of `nonreal`, in order, uniform on the box
    [-b, b]**4 with b = certified_real_point(A).w, and draws a flagged
    point again until |Im q| >= NONREAL_MIN_IMAG.  One pencil_svals call
    tests the drawn points, then the `fixed` ones; while any drawn point
    fails well_conditioned, all are drawn again.  Returns (points, that
    call's singular values); NotInResolventSet after SAMPLE_DRAWS draws.
    """
    box = certified_real_point(A).w
    points = []
    for _ in range(SAMPLE_DRAWS):
        q = Quaternion(*rng.uniform(-box, box, size=4).tolist())
        if nonreal[len(points)] and q.im_norm() < NONREAL_MIN_IMAG:
            continue
        points.append(q)
        if len(points) == len(nonreal):
            sv = pencil_svals(A, points + list(fixed))
            if well_conditioned(sv[:len(points)]).all():
                return points, sv
            points = []
    raise NotInResolventSet("failed to sample a well-conditioned resolvent point")


def random_resolvent_point(A: QMatrix, rng,
                           require_nonreal: bool = False) -> Quaternion:
    """The one point of random_resolvent_points(A, rng, [require_nonreal])."""
    return random_resolvent_points(A, rng, [require_nonreal])[0][0]
