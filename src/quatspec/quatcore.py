"""Scalar quaternion arithmetic, the Cassini pseudo-metric, spherical powers.

Quaternions q = w + x*i + y*j + z*k are stored as four doubles with the
Hamilton product (ij = k, jk = i, ki = j).  On top of the algebra this
module provides the degree-two axial polynomial

    triangle(q, p) = p**2 - 2*Re(q)*p + |q|**2,

which vanishes exactly when p lies on the sphere Re(q) + |Im(q)|*S of q,
the Cassini pseudo-metric u(p, q) = |triangle(q, p)|**(1/2) built from it,
and the spherical power basis (with its spherical derivatives) used by the
resolvent series expansion, both element by element and as streams.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import QuatspecError

# Absolute tolerance for deciding that two axial pairs (Re, |Im|) coincide.
SAME_SPHERE_TOL = 1e-12

# Below this imaginary radius (relative to 1 + |q|) the difference-quotient
# form of the spherical derivative is abandoned for the exact real-axis
# derivative: the quotient loses all significant digits as Im(q) -> 0.
REAL_AXIS_CUTOFF = 1e-7


class Quaternion(NamedTuple):
    """A quaternion w + x*i + y*j + z*k of four doubles.

    >>> QI * QJ == QK
    True
    >>> Quaternion(1.0, 1.0) * Quaternion(1.0, 0.0, 1.0, 0.0)
    Quaternion(w=1.0, x=1.0, y=1.0, z=1.0)
    """

    w: float
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __add__(self, other):
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return qmul(self, other)
        if not isinstance(other, (int, float)):
            return NotImplemented
        c = float(other)
        return Quaternion(self.w * c, self.x * c, self.y * c, self.z * c)

    def __rmul__(self, other):
        # Real scalars commute with every quaternion.
        if not isinstance(other, (int, float)):
            return NotImplemented
        c = float(other)
        return Quaternion(self.w * c, self.x * c, self.y * c, self.z * c)

    def __truediv__(self, other):
        c = float(other)
        return Quaternion(self.w / c, self.x / c, self.y / c, self.z / c)

    def conj(self):
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def abs2(self):
        """Squared norm w**2 + x**2 + y**2 + z**2 (= q * conj(q))."""
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def __abs__(self):
        return math.sqrt(self.abs2())

    def im_norm(self):
        # Fixed slot order keeps the value bit-stable under sign flips.
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def im(self):
        return Quaternion(0.0, self.x, self.y, self.z)

    def is_real(self, tol=0.0):
        return self.im_norm() <= tol

    def to_list(self):
        return [self.w, self.x, self.y, self.z]

    @classmethod
    def from_seq(cls, seq):
        w, x, y, z = (float(c) for c in seq)
        return cls(w, x, y, z)


ONE = Quaternion(1.0)
ZERO = Quaternion(0.0)
QI = Quaternion(0.0, 1.0, 0.0, 0.0)
QJ = Quaternion(0.0, 0.0, 1.0, 0.0)
QK = Quaternion(0.0, 0.0, 0.0, 1.0)


def qmul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product p*q.

    >>> qmul(QI, QJ) == QK and qmul(QJ, QK) == QI and qmul(QK, QI) == QJ
    True
    """
    return Quaternion(
        p.w * q.w - p.x * q.x - p.y * q.y - p.z * q.z,
        p.w * q.x + p.x * q.w + p.y * q.z - p.z * q.y,
        p.w * q.y - p.x * q.z + p.y * q.w + p.z * q.x,
        p.w * q.z + p.x * q.y - p.y * q.x + p.z * q.w,
    )


def qinv(q: Quaternion) -> Quaternion:
    """Multiplicative inverse conj(q) / |q|**2.

    >>> qinv(Quaternion(2.0))
    Quaternion(w=0.5, x=-0.0, y=-0.0, z=-0.0)
    """
    n2 = q.abs2()
    if n2 == 0.0:
        raise ZeroDivisionError("the zero quaternion has no inverse")
    return Quaternion(q.w / n2, -q.x / n2, -q.y / n2, -q.z / n2)


def qpow(q: Quaternion, k: int) -> Quaternion:
    """k-th power by repeated multiplication (k >= 0)."""
    out = ONE
    for _ in range(k):
        out = qmul(out, q)
    return out


def triangle(q: Quaternion, p: Quaternion) -> Quaternion:
    """The axial polynomial of q evaluated at p: p**2 - 2*Re(q)*p + |q|**2.

    Only Re(q) and |q| enter, so triangle(q, p) == triangle(conj(q), p)
    exactly, and the value vanishes precisely when p and q share a sphere.
    """
    out = qmul(p, p) - (2.0 * q.w) * p
    return Quaternion(out.w + q.abs2(), out.x, out.y, out.z)


class SpherePoint(NamedTuple):
    """Axial coordinates (r, s) of the sphere r + s*S, with s >= 0."""

    r: float
    s: float


def sphere_of(q: Quaternion) -> SpherePoint:
    return SpherePoint(q.w, q.im_norm())


def same_sphere(p: Quaternion, q: Quaternion, tol: float = SAME_SPHERE_TOL) -> bool:
    sp, sq = sphere_of(p), sphere_of(q)
    return abs(sp.r - sq.r) <= tol and abs(sp.s - sq.s) <= tol


def cassini_quartic(pr, ps, qr, qs):
    """u**4 between the spheres (pr, ps) and (qr, qs): the product m1*m2.

    The planar factorization |triangle|**2 = m1*m2 with
    m1 = (pr-qr)**2 + (ps-qs)**2 and m2 = (pr-qr)**2 + (ps+qs)**2 is
    symmetric bit-for-bit and exactly zero iff the axial pairs coincide
    exactly.  Works elementwise on floats and numpy arrays alike.
    """
    dr = pr - qr
    m1 = dr * dr + (ps - qs) * (ps - qs)
    m2 = dr * dr + (ps + qs) * (ps + qs)
    return m1 * m2


def cassini_u_axial(p: SpherePoint, q: SpherePoint) -> float:
    """Cassini pseudo-metric between two spheres given in axial coordinates."""
    return cassini_quartic(p.r, p.s, q.r, q.s) ** 0.25


def cassini_u(p: Quaternion, q: Quaternion) -> float:
    """Cassini pseudo-metric u(p, q) = |triangle(q, p)|**(1/2).

    >>> cassini_u(QI, QJ)
    0.0
    """
    return cassini_u_axial(sphere_of(p), sphere_of(q))


class CassiniBall(NamedTuple):
    """The axially symmetric region {p : u(p, center) < radius}."""

    center: Quaternion
    radius: float

    def contains(self, p: Quaternion) -> bool:
        ps = sphere_of(p)
        return self.contains_axial(ps.r, ps.s)

    def contains_axial(self, r, s):
        """contains() for points with axial coordinates (r, s).

        u < radius iff u**4 < radius**4; comparing the quartics avoids the
        fractional powers.  Floats give a bool, arrays a boolean mask.
        """
        cs = sphere_of(self.center)
        r2 = self.radius * self.radius
        return cassini_quartic(r, s, cs.r, cs.s) < r2 * r2


def spherical_power(q0: Quaternion, n: int, q: Quaternion) -> Quaternion:
    """Element n of the expansion basis adapted to the center q0.

    Even n = 2k gives triangle(q0, q)**k; odd n = 2k+1 gives
    (q - q0) * triangle(q0, q)**k.
    """
    if n < 0:
        raise QuatspecError("spherical_power index must be >= 0")
    k, odd = divmod(n, 2)
    tk = qpow(triangle(q0, q), k)
    if odd:
        return qmul(q - q0, tk)
    return tk


def spherical_powers(q0: Quaternion, q: Quaternion):
    """The endless stream spherical_power(q0, n, q) for n = 0, 1, 2, ...

    One qmul per element.  The powers of triangle(q0, q) are built left to
    right from ONE exactly as qpow builds them, so every element equals
    spherical_power(q0, n, q) bit for bit.
    """
    t = triangle(q0, q)
    dq = q - q0
    tk = ONE
    while True:
        yield tk
        yield qmul(dq, tk)
        tk = qmul(tk, t)


def sderiv_by_quotient(q: Quaternion) -> bool:
    """Whether spherical derivatives at q use the difference quotient."""
    return q.im_norm() > REAL_AXIS_CUTOFF * (1.0 + abs(q))


def spherical_power_sderivs(q0: Quaternion, q: Quaternion):
    """The endless stream spherical_power_sderiv(q0, n, q), n = 0, 1, 2, ...

    Off the real axis the difference quotient runs over two spherical_powers
    streams, at q and at conj(q); near it the closed form is evaluated per
    n.  Either way every element equals spherical_power_sderiv(q0, n, q)
    bit for bit.
    """
    yield ZERO
    if sderiv_by_quotient(q):
        inv = qinv(q - q.conj())
        pairs = zip(spherical_powers(q0, q), spherical_powers(q0, q.conj()))
        next(pairs)
        for fq, fqc in pairs:
            yield qmul(fq - fqc, inv)
    else:
        for n in itertools.count(1):
            yield spherical_power_sderiv(q0, n, q)


def spherical_power_sderiv(q0: Quaternion, n: int, q: Quaternion) -> Quaternion:
    """Spherical derivative of spherical_power(q0, n, .) at q.

    Off the real axis this is the symmetric difference quotient
    (f(q) - f(conj(q))) * (q - conj(q))**(-1).  Near and on the axis the
    quotient degenerates, so the exact derivative of the real-axis
    restriction is used instead:

        d/dr t(r)**k             = k * t(r)**(k-1) * (2r - 2*Re(q0)),
        d/dr (r - q0) * t(r)**k  = t(r)**k
                                   + (r - q0) * k * t(r)**(k-1) * (2r - 2*Re(q0)),

    where t(r) = r**2 - 2*Re(q0)*r + |q0|**2.
    """
    if n < 0:
        raise QuatspecError("spherical_power index must be >= 0")
    if n == 0:
        return ZERO
    if sderiv_by_quotient(q):
        fq = spherical_power(q0, n, q)
        fqc = spherical_power(q0, n, q.conj())
        return qmul(fq - fqc, qinv(q - q.conj()))
    r = q.w
    k, odd = divmod(n, 2)
    t = r * r - 2.0 * q0.w * r + q0.abs2()
    dt = 2.0 * r - 2.0 * q0.w
    if not odd:
        return Quaternion(k * t ** (k - 1) * dt)
    if k == 0:
        return ONE
    return Quaternion(t ** k) + (Quaternion(r) - q0) * (k * t ** (k - 1) * dt)


def radial_offset_roots(b, dist, sin_a) -> np.ndarray:
    """Smallest t >= 0 with t**2*((t + 2b*sin_a)**2 + (2b*cos_a)**2) = dist**4.

    This is the radial offset, within a slice half-plane, from the axial
    representative (a, b) of a center to a point at Cassini distance `dist`
    along the planar direction with sine `sin_a`.  A root always exists in
    [0, dist + 2b]; for b = 0 it is exactly t = dist.

    The arguments broadcast against each other into arrays of at least one
    dimension, and every element is bisected at once with the float
    operations of a scalar 200-step bisection.  The loop stops early once
    no bracket (lo, hi) can change any more, so the roots are those of the
    full 200 steps bit for bit.  As with Python floats, overflow to inf
    passes silently.
    """
    b, dist, sin_a = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (b, dist, sin_a)))
    with np.errstate(over="ignore", invalid="ignore"):
        target = (dist * dist) * (dist * dist)
        one_minus = 1.0 - sin_a * sin_a
        cos2 = np.where(one_minus > 0.0, one_minus, 0.0)
        shift = 2.0 * b * sin_a
        lift = 4.0 * b * b * cos2

        def g(t):
            u = t + shift
            return t * t * (u * u + lift)

        hi = dist + 2.0 * b
        # For steep downward directions g is not monotone; bracket the
        # smallest root by the local maximum when the dip would otherwise
        # be skipped.
        disc = 9.0 * sin_a * sin_a - 8.0
        steep = (sin_a < 0.0) & (disc >= 0.0)
        t_peak = 0.5 * b * (-3.0 * sin_a - np.sqrt(np.where(steep, disc, 0.0)))
        hi = np.where(steep & (g(t_peak) >= target), t_peak, hi)
        closed_form = (dist == 0.0) | (b == 0.0)
        lo = np.zeros_like(hi)
        hi = np.where(closed_form, 0.0, hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            # Once every mid repeats an end of its bracket, the update
            # below leaves brackets that no later step changes.
            settled = ((mid == lo) | (mid == hi)).all()
            below = g(mid) < target
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
            if settled:
                break
        return np.where(dist == 0.0, 0.0,
                        np.where(b == 0.0, dist, 0.5 * (lo + hi)))


def point_at_cassini_distance(q0: Quaternion, dist: float,
                              direction: Quaternion, angle: float) -> Quaternion:
    """A quaternion q with cassini_u(q, q0) equal to dist (up to rounding).

    The point lies in the half-plane spanned by the real axis and the unit
    imaginary quaternion `direction`: with (a, b) the axial coordinates of
    q0 and t >= 0 the solution of t**2*(t**2 + 4*b*t*sin(angle) + 4*b**2)
    = dist**4,

        q = (a + t*cos(angle)) + (b + t*sin(angle)) * direction.

    For a real center (b = 0) the offset is t = dist exactly.
    """
    if dist < 0.0:
        raise QuatspecError("Cassini distance must be >= 0")
    a, b = q0.w, q0.im_norm()
    sin_a, cos_a = math.sin(angle), math.cos(angle)
    t = float(radial_offset_roots(b, dist, sin_a)[0])
    s = b + t * sin_a
    return Quaternion(a + t * cos_a, s * direction.x, s * direction.y,
                      s * direction.z)


def random_unit_imag(rng) -> Quaternion:
    """A uniformly random point of the unit imaginary sphere S."""
    while True:
        v = rng.normal(size=3)
        n = math.sqrt(float(v[0]) ** 2 + float(v[1]) ** 2 + float(v[2]) ** 2)
        if n > 1e-6:
            return Quaternion(0.0, float(v[0]) / n, float(v[1]) / n,
                              float(v[2]) / n)
