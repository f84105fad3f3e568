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
from .quatcore import (CassiniBall, Quaternion, SpherePoint, cassini_u_axial,
                       radial_offset_roots, sphere_of)
from .sresolvent import ResolventBundle, pencil_svals

# Two eigenvalue-derived spheres merge when both coordinates agree to this
# times (1 + ||A||); eigenvalue clustering noise sits far below it.
CLUSTER_REL_TOL = 1e-8

# sample_cassini_ball draws this many rejection candidates at a time.
SAMPLE_BLOCK = 4096


@dataclass(frozen=True)
class SpectrumResult:
    """Spectral spheres (r, s) with multiplicities; s >= 0 throughout."""

    spheres: tuple

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.spheres)

    def contains(self, q: Quaternion, tol: float = 1e-8) -> bool:
        sq = sphere_of(q)
        return any(abs(sp.r - sq.r) <= tol and abs(sp.s - sq.s) <= tol
                   for sp, _ in self.spheres)

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


def resolvent_mask(A: QMatrix, points) -> np.ndarray:
    """Per point: whether the pencil is invertible at the package threshold."""
    return hmat.nonsingular(pencil_svals(A, points))


def in_resolvent(A: QMatrix, q: Quaternion) -> bool:
    """Whether the pencil at q is invertible at the package threshold."""
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


def blowup_probe(A: QMatrix, target: Quaternion, steps: int):
    """Pseudo-resolvent norms along a Cassini-convergent approach to target.

    Probes p_m = target + 2**(-m), m = 1..steps, approach the sphere of
    target along the real direction.  The norm ||Q(p_m)|| is evaluated as
    the reciprocal smallest singular value of the pencil, which stays
    finite and exact arbitrarily close to the spectrum (no inversion is
    attempted).  Raises InputError when target is not in the spectrum at
    the package tolerance.
    """
    if steps < 1:
        raise InputError("blowup_probe needs at least one step")
    if in_resolvent(A, target):
        raise InputError("blow-up probe target must lie in the S-spectrum")
    probes = [target + Quaternion(2.0 ** -m) for m in range(1, steps + 1)]
    smallest = pencil_svals(A, probes)[:, -1]
    return [(p, math.inf if sv == 0.0 else 1.0 / float(sv))
            for p, sv in zip(probes, smallest)]


def sample_cassini_ball(q0: Quaternion, radius: float, count: int, rng):
    """count points uniform in the Cassini ball {u(., q0) < radius}.

    Sampling is by rejection on a bounding box of the planar region
    {|z - z0|*|z - conj(z0)| < radius**2} (z0 the axial representative of
    q0), after which the planar point is folded to s >= 0 and rotated by a
    uniformly random imaginary direction.  Candidates are drawn
    SAMPLE_BLOCK at a time and accepted by CassiniBall.contains_axial on
    the axial coordinates of the rotated point, exactly as
    CassiniBall.contains would accept it.
    """
    if radius <= 0.0:
        raise InputError("Cassini ball radius must be positive")
    a, b = q0.w, q0.im_norm()
    dmax = b + math.sqrt(b * b + radius * radius)
    ball = CassiniBall(q0, radius)
    kept = [np.empty((0, 4))]
    found = drawn = 0
    while found < count:
        if drawn >= 100000 * count:
            raise QuatspecError("Cassini ball rejection sampling stalled")
        drawn += SAMPLE_BLOCK
        r = a + rng.uniform(-dmax, dmax, size=SAMPLE_BLOCK)
        s = np.abs(rng.uniform(-(b + dmax), b + dmax, size=SAMPLE_BLOCK))
        v = rng.normal(size=(SAMPLE_BLOCK, 3))
        vn = np.sqrt(np.sum(v * v, axis=1))
        x, y, z = (s[:, None] * (v / vn[:, None])).T
        # As with Python floats, a quartic that overflows rejects silently.
        with np.errstate(over="ignore", invalid="ignore"):
            ok = (vn > 1e-6) & ball.contains_axial(
                r, np.sqrt(x * x + y * y + z * z))
        kept.append(np.stack([r, x, y, z], axis=1)[ok])
        found += len(kept[-1])
    cols = np.concatenate(kept)[:count].T.tolist()
    return [Quaternion(*c) for c in zip(*cols)]


def boundary_polyline(q0: Quaternion, radius: float, count: int = 181):
    """Planar polyline (r, s) tracing {u(., q0) = radius} for plotting.

    Points are taken along rays from the axial representative (a, b) of
    q0; each is at radial offset solving the exact quartic level-set
    equation, so every emitted point lies on the Cassini boundary.  For a
    real center the curve is the circle of radius `radius`.
    """
    if count < 2:
        raise InputError("a polyline needs at least two points")
    a, b = q0.w, q0.im_norm()
    angles = [2.0 * math.pi * m / (count - 1) for m in range(count)]
    sines = [math.sin(ang) for ang in angles]
    cosines = [math.cos(ang) for ang in angles]
    t = radial_offset_roots(b, radius, sines).tolist()
    return [(a + tm * cm, b + tm * sm)
            for tm, cm, sm in zip(t, cosines, sines)]
