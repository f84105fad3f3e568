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
pencils of a block of points on the complex pair, for one matrix or for
a stack of them with a row-to-matrix index, and pencil_chis yields each
block's chi images.  pencil_svals takes one stacked SVD of each block,
resolvent_arrays adds one stacked inverse and the S-resolvents (as
stacked arrays, whose rows BundleStack.bundle wraps), and delta_op and
resolvent_bundle are the one-point cases, so every reader of a pencil's
singular values at q sees them bit for bit (the membership mask of
spectrum.resolvent_mask needs them only for the pencils its center
certificate leaves undecided, and resolvent_arrays takes them from a
caller that has them); a bundle reads ||Q|| = 1/sigma_min and the
radius ||Q||**(-1/2) = sqrt(sigma_min) off them.
localization_radius reads the same radius off the pencil's SVD alone
and refuses a point with the bundle's error.  Everything else that reads
the resolvent at a point takes a bundle.  Random resolvent points come
from one sampler, random_resolvent_points, which draws for one or many
matrices, each from its own generator, and tests each round of their
draws in one pencil_svals call.
The *_rows operations evaluate the exact identities these objects
satisfy, as lhs - rhs, on the rows of BundleStacks with per-row points
(verify takes every trial of a chunk in one call), and the residual_*
operations are their one-bundle cases:

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

Each residual is returned as an operator (a stacked pair for *_rows)
whose norm is the absolute residual; the norms (hmat.op_norms,
hmat.pair_op_norms) and the tolerance belong to the caller.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

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
# resolvent_arrays and the series engine; block_rows turns it into rows.
PENCIL_BLOCK_BYTES = 1 << 18

# How overflow messages name the pencil.
PENCIL = "A@A - 2*Re(q)*A + |q|**2*I"


def block_rows(n: int) -> int:
    """How many n x n matrices one stacked block holds: the number of
    2n x 2n complex chi images in PENCIL_BLOCK_BYTES, at least one."""
    return max(1, PENCIL_BLOCK_BYTES // (16 * (2 * n) ** 2))


def point_rows(points) -> np.ndarray:
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


def _pencils(A, pts: np.ndarray, owner=None):
    """The pencils at the rows of pts, block_rows(n) points at a time.

    A is one QMatrix, or with owner a stacked pair (a1, a2) of (T, n, n)
    component arrays, owner[i] the index of the matrix of point i.
    Yields (lo, D1, D2): the pencils of the points lo, lo + 1, ... as two
    stacked component arrays.  Each pencil is
    (A@A - 2*Re(q)*A) + |q|**2*I, with I the identity's components, entry
    by entry the arithmetic of the QMatrix expression (whose real scalars
    numpy casts to complex), and A@A is taken once per matrix, all of them
    in one stacked product; a stack gathers each block's rows of A and
    A@A by owner, which changes no bit.  Points are checked in order: a
    block ends before the first point whose pencil is not finite, and
    resuming the generator then raises that point's overflow error.  No
    points yield nothing, and take no A@A.
    """
    if not len(pts):
        return
    a1, a2 = (A.a1, A.a2) if owner is None else A
    n = a1.shape[-1]
    eye = hmat.identity(n)
    with np.errstate(over="ignore", invalid="ignore"):
        AA1, AA2 = hmat.pair_matmul(a1, a2, a1, a2)
    step = block_rows(n)
    for lo in range(0, len(pts), step):
        w, x, y, z = pts[lo:lo + step].T
        if owner is None:
            b1, b2, c1, c2 = a1, a2, AA1, AA2
        else:
            rows = owner[lo:lo + step]
            b1, b2, c1, c2 = a1[rows], a2[rows], AA1[rows], AA2[rows]
        with np.errstate(over="ignore", invalid="ignore"):
            abs2 = w * w + x * x + y * y + z * z
            tw = (2.0 * w).astype(complex)[:, None, None]
            s2 = abs2.astype(complex)[:, None, None]
            D1 = c1 - tw * b1 + s2 * eye.a1
            D2 = c2 - tw * b2 + s2 * eye.a2
        k = hmat.finite_rows(D1, D2)
        if k:
            yield lo, D1[:k], D2[:k]
        if k < len(D1):
            raise _overflow(pts[lo + k])


def delta_op(A: QMatrix, q: Quaternion) -> QMatrix:
    """The pencil A@A - 2*Re(q)*A + |q|**2*I (real coefficients)."""
    _, D1, D2 = next(_pencils(A, np.array([q], dtype=float)))
    return QMatrix(D1[0], D2[0])


def pencil_chis(A, points, owner=None):
    """The chi images of the pencils at `points`, a block at a time.

    `points` is a sequence of Quaternions (or of [w, x, y, z] rows), and
    A one QMatrix or a stacked pair with owner as in _pencils.  Yields
    (lo, M): the stacked chi(delta_op(A, q)) of the points lo, lo + 1, ...
    Points are checked in order, and the first whose pencil overflows
    raises QuatspecError once the blocks before it are taken.
    """
    for lo, D1, D2 in _pencils(A, point_rows(points), owner):
        yield lo, hmat.pair_chi(D1, D2)


def pencil_svals(A, points, owner=None) -> np.ndarray:
    """Singular values of chi(delta_op(A, q)) for each point q, shape (k, 2n).

    Each block of pencil_chis takes one stacked SVD, so every row equals
    the SVD of that point's own chi(delta_op(A, q)) bit for bit, whether
    A is one QMatrix or a stacked pair with owner as in _pencils.  Rows
    are in descending order; an overflowing pencil raises as in
    pencil_chis.
    """
    n = (A.a1 if owner is None else A[0]).shape[-1]
    out = np.empty((len(points), 2 * n))
    for lo, M in pencil_chis(A, points, owner):
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


class BundleStack(NamedTuple):
    """The bundles of a sequence of points as stacked arrays, row i the
    bundle of point i: pencil, Q, S_left and S_right are complex pairs
    (a1, a2) of (k, n, n) arrays, smallest the pencils' smallest singular
    values."""

    pencil: tuple
    Q: tuple
    S_left: tuple
    S_right: tuple
    smallest: np.ndarray

    def rows(self, lo: int, hi: int) -> "BundleStack":
        """The bundles of rows lo..hi - 1, as views."""
        return BundleStack(*((a1[lo:hi], a2[lo:hi]) for a1, a2 in self[:4]),
                           self.smallest[lo:hi])

    def bundle(self, i: int, q: Quaternion) -> ResolventBundle:
        """Row i as the ResolventBundle of its point q."""
        return ResolventBundle(
            q=q, pencil=QMatrix(self.pencil[0][i], self.pencil[1][i]),
            Q=QMatrix(self.Q[0][i], self.Q[1][i]),
            S_left=QMatrix(self.S_left[0][i], self.S_left[1][i]),
            S_right=QMatrix(self.S_right[0][i], self.S_right[1][i]),
            pencil_smallest_singular=float(self.smallest[i]))


def _stack_of(b: ResolventBundle) -> BundleStack:
    """The one-row BundleStack of a bundle, as views."""
    return BundleStack(*((M.a1[None], M.a2[None])
                         for M in (b.pencil, b.Q, b.S_left, b.S_right)),
                       np.array([b.pencil_smallest_singular]))


def _matrix(pair) -> QMatrix:
    """The one matrix of a one-row stacked pair."""
    return QMatrix(pair[0][0], pair[1][0])


def _bundle_blocks(A, points, owner=None, sv=None):
    """The BundleStack of each block of pencils, as (lo, stack).

    A is one QMatrix, or a stacked pair with owner as in _pencils.  Each
    block takes one stacked SVD of its chi images, which decides
    membership and gives each pencil's smallest singular value (or reads
    the points' rows of sv, their pencil_svals, when the caller has
    them), and one stacked inverse of the same arrays, so Q equals
    hmat.qmat_inverse(pencil) bit for bit; both S-resolvents repeat the
    arithmetic of a single point entry by entry, so each row equals its
    one-point bundle bit for bit.  Points are checked in order, and the
    first that fails raises what its own call would: QuatspecError when
    its |q|**2 or its pencil overflows, the refusal of _require_resolvent,
    or QuatspecError when Q, S_left or S_right is not finite (the
    S-resolvents are assembled without warnings).
    """
    pts = point_rows(points)
    a1, a2 = (A.a1, A.a2) if owner is None else A
    eye = hmat.identity(a1.shape[-1])
    for lo, D1, D2 in _pencils(A, pts, owner):
        M = hmat.pair_chi(D1, D2)
        hi = lo + len(M)
        rows = (np.linalg.svd(M, compute_uv=False) if sv is None
                else sv[lo:hi])
        _require_resolvent(points, rows, lo)
        Q1, Q2 = hmat.pair_from_chi(np.linalg.inv(M))
        b1, b2 = (a1, a2) if owner is None else (a1[owner[lo:hi]],
                                                 a2[owner[lo:hi]])
        # conj(q) = conj(c1) - c2*j at each point, as scalars (k, 1, 1)
        c1, c2 = hmat.scalar_pairs(pts[lo:hi])
        c1 = np.conj(c1)[:, None, None]
        c2 = np.negative(c2)[:, None, None]
        with np.errstate(over="ignore", invalid="ignore"):
            # S_left = Q*conj(q) - A@Q and S_right = (conj(q)*I - A) @ Q
            r1, r2 = hmat.pair_scale_right(Q1, Q2, c1, c2)
            aq1, aq2 = hmat.pair_matmul(b1, b2, Q1, Q2)
            L1, L2 = r1 - aq1, r2 - aq2
            r1, r2 = hmat.pair_scale_left(c1, c2, eye.a1, eye.a2)
            R1, R2 = hmat.pair_matmul(r1 - b1, r2 - b2, Q1, Q2)
            # a finite sum has finite terms; an entry of Q that is not
            # finite makes its row and column of both S-resolvents so
            total = (L1 + L2 + R1 + R2).sum()
        if not cmath.isfinite(total):
            k = min(hmat.finite_rows(L1, L2), hmat.finite_rows(R1, R2))
            if k < len(M):
                w, x, y, z = pts[lo + k].tolist()
                raise QuatspecError(
                    f"the resolvent overflows: Q, S_left or S_right is not "
                    f"finite at q = ({w:g}, {x:g}, {y:g}, {z:g})")
        yield lo, BundleStack((D1, D2), (Q1, Q2), (L1, L2), (R1, R2),
                              rows[:, -1])


def resolvent_arrays(A, points, owner=None, sv=None) -> BundleStack:
    """The bundles of one or more points as one BundleStack (see
    _bundle_blocks).

    A is one QMatrix, or a stacked pair with owner as in _pencils; points
    of many matrices take one stacked SVD (none when sv holds their
    pencil_svals rows) and one stacked inverse per block of pencils.  No
    points give a stack of (0, n, n) pairs and a (0,) smallest.
    """
    blocks = [stack for _, stack in _bundle_blocks(A, points, owner, sv)]
    if not blocks:
        n = (A.a1 if owner is None else A[0]).shape[-1]
        empty = np.empty((0, n, n), dtype=complex)
        return BundleStack(*[(empty, empty)] * 4, np.empty(0))
    if len(blocks) == 1:
        return blocks[0]
    pairs = [tuple(map(np.concatenate, zip(*(b[f] for b in blocks))))
             for f in range(4)]
    return BundleStack(*pairs, np.concatenate([b.smallest for b in blocks]))


def resolvent_bundle(A: QMatrix, q: Quaternion) -> ResolventBundle:
    """Invert the pencil at q and assemble both S-resolvents.

    The one-point row of resolvent_arrays: one SVD and one inverse.
    """
    return resolvent_arrays(A, [q]).bundle(0, q)


def off_sphere(q: Quaternion, p: Quaternion, tol: float) -> bool:
    """Whether p is off the sphere of q: |triangle(q, p)| exceeds tol times
    (1 + |p|**2 + |q|**2)."""
    return abs(triangle(q, p)) > tol * (1.0 + p.abs2() + q.abs2())


def resolvent_eq_rows(bp: BundleStack, bq: BundleStack, p, q):
    """Residual operators of the two-point identity of left S-resolvents,
    row i that of row i of bp, the bundles at the points p, and of bq, the
    bundles at q."""
    lhs = hmat.pair_sub(*bp.S_left, *bq.S_left)
    rhs = hmat.pair_add(
        *hmat.pair_scale_right(*bq.Q, *hmat.stack_scalars(
            [y - x for x, y in zip(p, q)])),
        *hmat.pair_scale_right(*hmat.pair_matmul(*bq.Q, *bp.S_left),
                               *hmat.stack_scalars([triangle(y, x)
                                                    for x, y in zip(p, q)])))
    return hmat.pair_sub(*lhs, *rhs)


def q_eq_rows(bp: BundleStack, bq: BundleStack):
    """Residual operators of the pseudo-resolvent two-point identity, per
    row of the bundles bp at p and bq at q.

    Returns the stacks for the factor orderings Q(p)@Q(q) and Q(q)@Q(p);
    both vanish in exact arithmetic because the factors commute.
    """
    lhs = hmat.pair_sub(*bp.Q, *bq.Q)
    ddiff = hmat.pair_sub(*bq.pencil, *bp.pencil)
    return tuple(hmat.pair_sub(*lhs, *hmat.pair_matmul(*ddiff, *hmat.pair_matmul(
        *first, *second))) for first, second in ((bp.Q, bq.Q), (bq.Q, bp.Q)))


def mixed_eq_rows(bp: BundleStack, bq: BundleStack, p, q):
    """Residual operators of the mixed right/left S-resolvent product
    identity, per row of the bundles bp at p and bq at q.

    Raises DegenerateConfiguration for the first row whose p lies on the
    sphere of its q at DEGENERATE_REL_TOL, where the scalar factor
    triangle(q, p) is not invertible.
    """
    for x, y in zip(p, q):
        if not off_sphere(y, x, DEGENERATE_REL_TOL):
            raise DegenerateConfiguration(
                "p lies on the sphere of q: the mixed identity degenerates")
    diff = hmat.pair_sub(*bq.S_right, *bp.S_left)
    lhs = hmat.pair_matmul(*bq.S_right, *bp.S_left)
    bracket = hmat.pair_sub(
        *hmat.pair_scale_right(*diff, *hmat.stack_scalars(p)),
        *hmat.pair_scale_left(*hmat.stack_scalars([y.conj() for y in q]),
                              *diff))
    rhs = hmat.pair_scale_right(*bracket, *hmat.stack_scalars(
        [qinv(triangle(y, x)) for x, y in zip(p, q)]))
    return hmat.pair_sub(*lhs, *rhs)


def AS_identity_rows(A, b: BundleStack, p):
    """Residual operators A @ S_left(p) - S_left(p)*p + I, per row of the
    bundles b at the points p.

    A is a stacked pair of each row's matrix, or the component arrays of
    one matrix for every row.  The terms can overflow where S_left is
    finite (A @ S_left past the float range); the first row whose residual
    is not finite raises QuatspecError naming its p, and no warning.
    """
    S = b.S_left
    eye = hmat.identity(S[0].shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        r1, r2 = hmat.pair_matmul(*A, *S)
        s1, s2 = hmat.pair_scale_right(*S, *hmat.stack_scalars(p))
        out1, out2 = r1 - s1 + eye.a1, r2 - s2 + eye.a2
    k = hmat.finite_rows(out1, out2)
    if k < len(out1):
        w, x, y, z = p[k]
        raise QuatspecError(f"the shift-pairing residual overflows at "
                            f"q = ({w:g}, {x:g}, {y:g}, {z:g})")
    return out1, out2


def residual_resolvent_eq(bp: ResolventBundle, bq: ResolventBundle) -> QMatrix:
    """Residual operator of the two-point identity of left S-resolvents:
    the one-row resolvent_eq_rows."""
    return _matrix(resolvent_eq_rows(_stack_of(bp), _stack_of(bq), [bp.q],
                                     [bq.q]))


def residual_q_eq(bp: ResolventBundle, bq: ResolventBundle):
    """Residual operators of the pseudo-resolvent two-point identity, for
    the orderings Q(p)@Q(q) and Q(q)@Q(p): the one-row q_eq_rows."""
    return tuple(map(_matrix, q_eq_rows(_stack_of(bp), _stack_of(bq))))


def residual_mixed_eq(bp: ResolventBundle, bq: ResolventBundle) -> QMatrix:
    """Residual operator of the mixed right/left S-resolvent product
    identity: the one-row mixed_eq_rows, which refuses p on the sphere of
    q."""
    return _matrix(mixed_eq_rows(_stack_of(bp), _stack_of(bq), [bp.q],
                                 [bq.q]))


def residual_AS_identity(A: QMatrix, b: ResolventBundle) -> QMatrix:
    """Residual operator A @ S_left(p) - S_left(p)*p + I at p = b.q: the
    one-row AS_identity_rows, which refuses its overflow."""
    return _matrix(AS_identity_rows((A.a1, A.a2), _stack_of(b), [b.q]))


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


def _draws(A: QMatrix, rng, nonreal):
    """The candidate points of random_resolvent_points for A, one list
    per next(): one point per flag of `nonreal`, in order, uniform on the
    box [-b, b]**4 with b = certified_real_point(A).w, a flagged point
    drawn again until |Im q| >= NONREAL_MIN_IMAG.  Raises
    NotInResolventSet once SAMPLE_DRAWS points have been drawn."""
    box = certified_real_point(A).w
    points = []
    for _ in range(SAMPLE_DRAWS):
        q = Quaternion(*rng.uniform(-box, box, size=4).tolist())
        if nonreal[len(points)] and q.im_norm() < NONREAL_MIN_IMAG:
            continue
        points.append(q)
        if len(points) == len(nonreal):
            yield points
            points = []
    raise NotInResolventSet("failed to sample a well-conditioned resolvent point")


def random_resolvent_points(As, rngs, nonreal, fixed):
    """Rejection-sample points at which the pencils are well conditioned.

    Matrix As[t] draws its points from its own generator rngs[t], as
    _draws does.  One pencil_svals call tests the drawn points of every
    matrix still sampling, each matrix's followed by its points fixed[t];
    a matrix whose drawn points all pass well_conditioned is done, and
    every other one draws all of its points again.  Returns, per matrix,
    (points, its rows of the call that accepted them), the same as a
    call for that matrix alone; its generator is left where its last
    accepted draw left it.
    """
    pair = (np.stack([A.a1 for A in As]), np.stack([A.a2 for A in As]))
    draws = [_draws(A, rng, nonreal) for A, rng in zip(As, rngs)]
    todo = {t: next(d) for t, d in enumerate(draws)}
    out = [None] * len(As)
    while todo:
        batch = [(t, drawn + list(fixed[t])) for t, drawn in todo.items()]
        owner = np.repeat([t for t, _ in batch], [len(pts) for _, pts in batch])
        sv = pencil_svals(pair, [q for _, pts in batch for q in pts], owner)
        lo = 0
        for t, pts in batch:
            rows, lo = sv[lo:lo + len(pts)], lo + len(pts)
            if well_conditioned(rows[:len(nonreal)]).all():
                out[t] = todo.pop(t), rows
            else:
                todo[t] = next(draws[t])
    return out


def random_resolvent_point(A: QMatrix, rng,
                           require_nonreal: bool = False) -> Quaternion:
    """The one point of random_resolvent_points for A alone."""
    return random_resolvent_points([A], [rng], [require_nonreal], [()])[0][0][0]
