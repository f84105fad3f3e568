"""S-spectrum computation, Cassini-distance geometry, and localization checks.

The S-spectrum of a quaternionic matrix is the axially symmetric set of
quaternions q at which the pencil delta_op(A, q) fails to be invertible.
For matrices it is computed from the eigenvalues of the complex adjoint
representation chi(A): each eigenvalue lambda contributes the sphere
(Re(lambda), |Im(lambda)|), conjugate pairs folding onto the same sphere.
The pencil-singularity criterion is kept alongside as an independent
brute-force oracle, and the localization utilities quantify how the
Cassini distance from a resolvent point to the spectrum is bounded below
by the reciprocal square root of the pseudo-resolvent norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hmat
from .errors import InputError, QuatspecError
from .hmat import QMatrix
from .quatcore import (CassiniBall, Quaternion, SpherePoint,
                       boundary_rotations, cassini_points_rotated,
                       cassini_u_axial, sphere_of)
from .sresolvent import ResolventBundle, pencil_svals, point_rows

# Two eigenvalue-derived spheres merge when both coordinates agree to this
# times (1 + ||A||); eigenvalue clustering noise sits far below it.
CLUSTER_REL_TOL = 1e-8

# sample_cassini_ball draws at most this many rejection candidates at a time.
SAMPLE_BLOCK = 4096

# center_certified decides a sample where its bound on the pencil's
# sigma_min/sigma_max exceeds CERTIFIED_RATIO, four orders of magnitude
# above hmat.SINGULAR_REL_TOL.  It widens that bound by CENTER_SLACK of
# the scale ||A|| + |z0| + |q|, and decides only where ||A|| + |q| lies
# in CENTER_U_RANGE (its square in [2**-960, 2**1000]).
CERTIFIED_RATIO = 1e4 * hmat.SINGULAR_REL_TOL
CENTER_SLACK = 2.0 ** -30
CENTER_U_RANGE = (2.0 ** -480, 2.0 ** 500)


@dataclass(frozen=True)
class SpectrumResult:
    """Spectral spheres (r, s) with multiplicities; s >= 0 throughout."""

    spheres: tuple

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.spheres)

    def to_json_dict(self) -> dict:
        return {"spheres": [{"r": sp.r, "s": sp.s, "mult": m}
                            for sp, m in self.spheres]}


def s_spectrum(A: QMatrix) -> SpectrumResult:
    """Spectral spheres of A from the eigenvalues of chi(A).

    The 2n eigenvalues of chi(A) come in conjugate pairs; folding each
    onto (Re, |Im|) and clustering leaves each sphere counted once, with
    multiplicities summing to n.
    """
    lam = np.linalg.eigvals(hmat.chi(A))
    pts = sorted((float(v.real), abs(float(v.imag))) for v in lam)
    tol = CLUSTER_REL_TOL * (1.0 + hmat.op_norm(A))
    clusters = []
    for r, s in pts:
        if clusters:
            cr, cs, cnt = clusters[-1]
            if abs(r - cr / cnt) <= tol and abs(s - cs / cnt) <= tol:
                clusters[-1] = (cr + r, cs + s, cnt + 1)
                continue
        clusters.append((r, s, 1))
    spheres = []
    for cr, cs, cnt in clusters:
        if cnt % 2:
            raise QuatspecError("eigenvalue folding failed to pair a conjugate")
        spheres.append((SpherePoint(cr / cnt, cs / cnt), cnt // 2))
    return SpectrumResult(spheres=tuple(spheres))


def center_certified(A: QMatrix, q0: Quaternion,
                     pts: np.ndarray) -> np.ndarray:
    """Per row q of a (k, 4) float array of points: whether one SVD of
    chi(A) - z0*I proves that hmat.nonsingular holds for the pencil at q.

    With X = chi(A), z0 = Re(q0) + i*|Im(q0)| and zeta = Re(q) + i*|Im(q)|,
    the pencil's chi image is (X - zeta)(X - conj(zeta)).  conj(X) =
    J X J^-1 with J = [[0, -I], [I, 0]], so X - conj(zeta) has the
    singular values of X - zeta, and by Weyl's perturbation bound for
    singular values each of those is within |zeta - z0| of the one of
    X - z0*I (Higham, Accuracy and Stability of Numerical Algorithms,
    2002).  With gamma = sigma_min(X - z0*I), the pencil's singular
    values therefore satisfy

        sigma_min >= (gamma - |zeta - z0|)**2,
        sigma_max <= (||A|| + |q|)**2,

    and a row is certified when g = gamma - |zeta - z0| - slack exceeds
    sqrt(CERTIFIED_RATIO) * u, with u = (||A|| + |q|) * (1 + CENTER_SLACK)
    and slack = CENTER_SLACK * (||A|| + |z0| + |q|), so that its ratio
    sigma_min/sigma_max exceeds CERTIFIED_RATIO.  The slack covers each
    rounding of the bound, every one a small multiple of 2n*eps of that
    scale at n <= 8, far below CENTER_SLACK (about 4e6*eps): the SVD that
    gives gamma (backward stable), forming X - z0*I (the diagonal rounds
    once), the kernel's ||A|| (top_singular), and |Im q|, |q| and
    |zeta - z0| (hypot, after one rounded difference each).  The
    computed pencil and its SVD differ from the exact ones by a like
    multiple of eps*u**2, which CERTIFIED_RATIO leaves room for.

    False means undecided, never singular.  A row is decided only where
    u lies in CENTER_U_RANGE, so u**2 is a normal double with room to
    spare: each entry of its pencil, and each partial sum that forms one,
    is at most 4*u**2, so no certified pencil overflows and its
    underflows shift it by far less than CERTIFIED_RATIO * u**2.  A
    point that is not finite is not certified.
    """
    X = hmat.chi(A)
    a, b = q0.w, q0.im_norm()
    z0 = complex(a, b)
    X.reshape(-1)[::len(X) + 1] -= z0
    gamma = float(np.linalg.svd(X, compute_uv=False)[-1])
    norm = hmat.op_norm(A)
    w, x, y, z = pts.T
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.hypot(np.hypot(x, y), z)
        mod = np.hypot(w, s)
        dist = np.hypot(w - a, s - b)
        u = (norm + mod) * (1.0 + CENTER_SLACK)
        g = gamma - dist - CENTER_SLACK * (norm + abs(z0) + mod)
    lo, hi = CENTER_U_RANGE
    return (g > math.sqrt(CERTIFIED_RATIO) * u) & (lo <= u) & (u <= hi)


def resolvent_mask(A: QMatrix, points, center: Quaternion | None = None
                   ) -> np.ndarray:
    """Per point: whether the pencil is invertible at the package threshold.

    The verdict is hmat.nonsingular(pencil_svals(A, points)) row for row,
    decided in two tiers.  Given the center the points were drawn around,
    center_certified first decides rows from one SVD of chi(A) - z0*I for
    all of them.  The rows it leaves, every row without a center, take
    pencil_svals, one stacked SVD per block of pencils, in point order and
    with its overflow refusal.  A certified row's pencil cannot overflow,
    so the first point whose pencil does is refused as without a center.
    """
    pts = point_rows(points)
    out = np.zeros(len(pts), dtype=bool)
    if center is not None:
        out = center_certified(A, center, pts)
    rest = np.flatnonzero(~out)
    out[rest] = hmat.nonsingular(pencil_svals(A, pts[rest]))
    return out


def in_resolvent(A: QMatrix, q: Quaternion) -> bool:
    """Whether the pencil at q is invertible at the package threshold, as
    resolvent_mask decides it without a center: one SVD."""
    return bool(resolvent_mask(A, [q])[0])


def cassini_dist(q0: Quaternion, spec: SpectrumResult) -> float:
    """Cassini distance from q0 to the nearest spectral sphere."""
    s0 = sphere_of(q0)
    return min((cassini_u_axial(s0, sp) for sp, _ in spec.spheres),
               default=math.inf)


def cor1_check(A: QMatrix, bundle: ResolventBundle):
    """The pair (Cassini distance to the spectrum, ||Q||**(-1/2)) at bundle.q.

    The bound is bundle.radius; the distance can never fall below it, and
    equality is attained e.g. for A = [i] at q0 = 2.
    """
    return cassini_dist(bundle.q, s_spectrum(A)), bundle.radius


def cassini_box(b: float, radius: float):
    """The bounding box (h, s_lo, s_hi) of the folded planar Cassini region.

    With (a, b) the axial representative of the center, x = r - a and
    s >= 0, the region {u < radius} is
    u**4 = (x**2 + s**2 + b**2)**2 - 4*s**2*b**2 < radius**4.  Its least
    value over x is (s**2 - b**2)**2, so s**2 lies within radius**2 of
    b**2; its least value over s**2 >= 0 is 4*x**2*b**2 while |x| <= b and
    (x**2 + b**2)**2 beyond, so |x| <= h = radius**2/(2b) for
    radius <= sqrt(2)*b and h = sqrt(radius**2 - b**2) otherwise.  Every
    bound is attained, and each is formed without squaring a coordinate,
    so none overflows or underflows before the answer does.  Where radius
    is far below b, both s bounds round to about b, and s_lo is held at
    most s_hi.
    """
    s_hi = math.hypot(b, radius)
    s_lo = math.sqrt(b - radius) * math.sqrt(b + radius) if radius < b else 0.0
    if radius <= math.sqrt(2.0) * b:
        h = radius * (radius / (2.0 * b))
    else:
        h = math.sqrt(radius - b) * math.sqrt(radius + b)
    return h, min(s_lo, s_hi), s_hi


def sample_cassini_ball(q0: Quaternion, radius: float, count: int,
                        rng) -> np.ndarray:
    """count points uniform in the Cassini ball {u(., q0) < radius}.

    Returns a (count, 4) float array of rows (w, x, y, z), which
    resolvent_mask and the other pencil readers take as they are.

    Sampling is by rejection on cassini_box, the exact bounding box of the
    planar region {|z - z0|*|z - conj(z0)| < radius**2} folded to s >= 0
    (z0 the axial representative of q0); the planar point is rotated by a
    uniformly random imaginary direction.  The region fills at least 0.70
    of its box (pi/4 for a real center, 1/sqrt(2) at the lemniscate
    radius = |Im q0|), so each block draws twice the points still missing,
    at most SAMPLE_BLOCK.  Candidates are accepted by
    CassiniBall.contains_axial on the axial coordinates of the rotated
    point, exactly as CassiniBall.contains would accept it.
    """
    if radius <= 0.0:
        raise InputError("Cassini ball radius must be positive")
    a, b = q0.w, q0.im_norm()
    h, s_lo, s_hi = cassini_box(b, radius)
    ball = CassiniBall(q0, radius)
    kept = [np.empty((0, 4))]
    found = drawn = 0
    while found < count:
        if drawn >= 100000 * count:
            raise QuatspecError("Cassini ball rejection sampling stalled")
        block = min(SAMPLE_BLOCK, 2 * (count - found))
        drawn += block
        r = a + rng.uniform(-h, h, size=block)
        s = rng.uniform(s_lo, s_hi, size=block)
        v = rng.normal(size=(block, 3))
        vn = np.sqrt(np.sum(v * v, axis=1))
        x, y, z = (s[:, None] * (v / vn[:, None])).T
        # As with Python floats, a factor that overflows rejects silently.
        with np.errstate(over="ignore", invalid="ignore"):
            ok = (vn > 1e-6) & ball.contains_axial(
                r, np.sqrt(x * x + y * y + z * z))
        kept.append(np.stack([r, x, y, z], axis=1)[ok])
        found += len(kept[-1])
    return np.concatenate(kept)[:count]


def boundary_polyline(q0: Quaternion, radius: float,
                      count: int = 181) -> np.ndarray:
    """Planar polyline tracing {u(., q0) = radius} for plotting.

    A (count, 2) float array of rows (r, s): the cassini_points at the
    count angles of boundary_rotations, evenly spaced over [0, 2*pi],
    shifted by Re(q0); each lies on the Cassini boundary.  For a real
    center the curve is the circle of radius `radius`; for a radius below
    |Im(q0)| it is the oval about q0, with s > 0.
    """
    if count < 2:
        raise InputError("a polyline needs at least two points")
    x, s = cassini_points_rotated(q0.im_norm(), radius,
                                  boundary_rotations(count))
    return np.stack([q0.w + x, s], axis=1)
