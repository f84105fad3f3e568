"""Scalar quaternion arithmetic, the Cassini pseudo-metric, spherical powers.

Quaternions q = w + x*i + y*j + z*k are stored as four doubles with the
Hamilton product (ij = k, jk = i, ki = j).  On top of the algebra this
module provides the degree-two axial polynomial

    triangle(q, p) = p**2 - 2*Re(q)*p + |q|**2,

which vanishes exactly when p lies on the sphere Re(q) + |Im(q)|*S of q,
the Cassini pseudo-metric u(p, q) = |triangle(q, p)|**(1/2) built from it,
and the spherical power basis used by the resolvent series expansion,
element by element and as a stream, with the stream of its spherical
derivatives.  Each stream is one recurrence on plain floats, which the
series engine reads straight into its arrays.  The derivatives come
from t**k = A_k + D_k*Im(q), t = triangle(q0, q), and the real
recurrence D_{k+1} = A_k*D_1 + D_k*A_1, with no division by Im(q).
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import QuatspecError


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
        return self * other

    def __truediv__(self, other):
        c = float(other)
        return Quaternion(self.w / c, self.x / c, self.y / c, self.z / c)

    def conj(self):
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def abs2(self):
        """Squared norm w**2 + x**2 + y**2 + z**2 (= q * conj(q))."""
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def __abs__(self):
        # A sum of squares that over- or underflowed takes hypot, which
        # forms no square; a normal sum keeps sqrt of it, bit for bit.
        n2 = self.abs2()
        normal = sys.float_info.min <= n2 < math.inf
        return math.sqrt(n2) if normal else math.hypot(*self)

    def im_norm(self):
        # Fixed slot order keeps the value bit-stable under sign flips.
        n2 = self.x * self.x + self.y * self.y + self.z * self.z
        normal = sys.float_info.min <= n2 < math.inf
        return math.sqrt(n2) if normal else math.hypot(*self[1:])


ONE = Quaternion(1.0)
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

    Where |q|**2 is not a normal double (it overflowed, or its squares
    underflowed) and q is finite, q is first divided by 2**e, e the
    binary exponent of its largest component, which is exact, and the
    inverse multiplied by 2**-e; a normal |q|**2 gives conj(q) / |q|**2
    as it stands.

    >>> qinv(Quaternion(2.0))
    Quaternion(w=0.5, x=-0.0, y=-0.0, z=-0.0)
    """
    n2 = q.abs2()
    if sys.float_info.min <= n2 < math.inf or not all(map(math.isfinite, q)):
        return Quaternion(q.w / n2, -q.x / n2, -q.y / n2, -q.z / n2)
    if not any(q):
        raise ZeroDivisionError("the zero quaternion has no inverse")
    e = math.frexp(max(map(abs, q)))[1]
    s = Quaternion(*(math.ldexp(c, -e) for c in q))
    n2 = s.abs2()
    # 2**-e in two factors, each a normal double: an inverse past the
    # float range is inf, as the division would give it
    f1, f2 = 2.0 ** (-e // 2), 2.0 ** (-e - (-e // 2))
    return Quaternion(*(c / n2 * f1 * f2 for c in s.conj()))


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


def cassini_factors(pr, ps, qr, qs):
    """The factors (m1, m2) of u**4 between the spheres (pr, ps), (qr, qs).

    The planar factorization |triangle|**2 = m1*m2 with
    m1 = (pr-qr)**2 + (ps-qs)**2 and m2 = (pr-qr)**2 + (ps+qs)**2 is
    symmetric bit-for-bit and exactly zero iff the axial pairs coincide
    exactly.  Works elementwise on floats and numpy arrays alike.  Its
    readers never form m1*m2; they take u**2 = sqrt(m1)*sqrt(m2).  That
    holds for coordinates whose squares are normal doubles, about 1e-154
    to 1e154 in modulus, and there scaling every coordinate by 2**k scales
    u**2 by exactly 4**k.  Where a factor overflows, which ps + qs near
    1e154 can make it do, they take u = sqrt(h1)*sqrt(h2) from
    cassini_hypots instead.
    """
    dr = pr - qr
    return dr * dr + (ps - qs) * (ps - qs), dr * dr + (ps + qs) * (ps + qs)


def cassini_hypots(pr, ps, qr, qs):
    """sqrt of the cassini_factors, (h1, h2), each taken by hypot.

    hypot forms no square, so neither overflows while the distances
    |z - z0| and |z - conj(z0)| of the planar points are finite, and
    u = sqrt(h1)*sqrt(h2) is finite with them.  A distance past the float
    range gives inf without a warning: u = inf, the point is outside
    every ball.
    """
    with np.errstate(over="ignore"):
        dr = pr - qr
        return np.hypot(dr, ps - qs), np.hypot(dr, ps + qs)


def cassini_u_axial(p: SpherePoint, q: SpherePoint) -> float:
    """Cassini pseudo-metric between two spheres given in axial coordinates."""
    m1, m2 = cassini_factors(p.r, p.s, q.r, q.s)
    u2 = math.sqrt(m1) * math.sqrt(m2)
    if math.isfinite(u2):
        return math.sqrt(u2)
    h1, h2 = cassini_hypots(p.r, p.s, q.r, q.s)
    return float(np.sqrt(h1) * np.sqrt(h2))


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
        return bool(self.contains_axial(ps.r, ps.s))

    def contains_axial(self, r, s):
        """contains() for points with axial coordinates (r, s).

        u < radius iff u**2 = sqrt(m1)*sqrt(m2) < radius**2, with (m1, m2)
        the cassini_factors, and where that product is not finite iff
        sqrt(h1)*sqrt(h2) < radius, with (h1, h2) the cassini_hypots.
        Floats give a numpy bool, arrays a boolean mask.
        """
        cs = sphere_of(self.center)
        with np.errstate(over="ignore", invalid="ignore"):
            m1, m2 = cassini_factors(r, s, cs.r, cs.s)
            u2 = np.sqrt(m1) * np.sqrt(m2)
            inside = u2 < self.radius * self.radius
            over = ~np.isfinite(u2)
            if over.any():
                h1, h2 = cassini_hypots(r, s, cs.r, cs.s)
                by_hypot = np.sqrt(h1) * np.sqrt(h2) < self.radius
                inside = np.where(over, by_hypot, inside)[()]
        return inside


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


def spherical_power_floats(q0: Quaternion, q: Quaternion):
    """The endless stream spherical_power(q0, n, q) for n = 0, 1, 2, ... as
    plain floats, four per element: w, x, y, z of element 0, then of
    element 1, and so on.

    One quaternion product per element, written out on floats with the
    expressions of qmul in its order.  The powers of triangle(q0, q) are
    built left to right from ONE exactly as qpow builds them, so every
    element equals spherical_power(q0, n, q) bit for bit.
    """
    tw, tx, ty, tz = triangle(q0, q)
    dw, dx, dy, dz = q - q0
    w, x, y, z = ONE
    while True:
        yield w
        yield x
        yield y
        yield z
        # qmul(q - q0, t**k)
        yield dw * w - dx * x - dy * y - dz * z
        yield dw * x + dx * w + dy * z - dz * y
        yield dw * y - dx * z + dy * w + dz * x
        yield dw * z + dx * y - dy * x + dz * w
        # t**(k+1) = qmul(t**k, t)
        w, x, y, z = (w * tw - x * tx - y * ty - z * tz,
                      w * tx + x * tw + y * tz - z * ty,
                      w * ty - x * tz + y * tw + z * tx,
                      w * tz + x * ty - y * tx + z * tw)


def spherical_power_sderiv_floats(q0: Quaternion, q: Quaternion):
    """The spherical derivatives of spherical_power(q0, n, .) at q, as the
    endless stream n = 0, 1, 2, ... of plain floats, four per element.

    In the slice of q the powers of t = triangle(q0, q) are
    t**k = A_k + D_k*Im(q) with real A_k, D_k, so sderiv t**k = D_k and
    sderiv (q - q0)*t**k = A_k + (Re(q) - q0)*D_k.  A_k is the real part of
    the power qmul builds; D_0 = 0, D_1 = 2*(Re(q) - Re(q0)) and
    D_{k+1} = A_k*D_1 + D_k*A_1.  Nothing divides by Im(q), so one stream
    serves the real axis and the rest of the space alike.  Each element
    takes the expressions of Quaternion arithmetic in its order, so it
    equals Quaternion(D_k) and Quaternion(A_k) + dq*D_k, dq =
    Quaternion(Re(q)) - q0, bit for bit, signed zeros included.
    """
    tw, tx, ty, tz = triangle(q0, q)
    d1 = 2.0 * (q.w - q0.w)
    dw, dx, dy, dz = Quaternion(q.w) - q0
    w, x, y, z = ONE
    dk = 0.0
    while True:
        yield dk
        yield 0.0
        yield 0.0
        yield 0.0
        yield w + dw * dk
        yield 0.0 + dx * dk
        yield 0.0 + dy * dk
        yield 0.0 + dz * dk
        w, x, y, z, dk = (w * tw - x * tx - y * ty - z * tz,
                          w * tx + x * tw + y * tz - z * ty,
                          w * ty - x * tz + y * tw + z * tx,
                          w * tz + x * ty - y * tx + z * tw,
                          w * d1 + dk * tw)


def cassini_points(b: float, radius: float, angle):
    """Points (x, s) of the planar Cassini oval |w**2 + b**2| = radius**2.

    In a slice plane, with z0 = a + b*i the axial point of a center and
    z = a + w, w = x + s*i, triangle(z0, z) = w**2 + b**2: this oval is
    the level set u = radius.  With rot = exp(i*angle), each angle gives
    w = rot*sqrt(radius**2 - b**2*conj(rot)**2), where triangle =
    radius**2*rot**2, for radius >= b (exactly radius*rot at b = 0), and
    otherwise w = i*sqrt(b**2 - radius**2*rot), where triangle =
    radius**2*rot, on the oval about z0 (s > 0).  Angles over [0, 2*pi)
    trace the oval once.  (b, radius) are divided by 2**e, e the binary
    exponent of max(b, radius), and the points multiplied back, exactly:
    scaling (b, radius) by 2**k scales every normal point by 2**k, and a
    point that overflows is inf, silently.  Each point is within a few
    units of eps*max(b, radius)**2/radius, the doubles' spacing there, of
    the level set.
    """
    return cassini_points_rotated(b, radius, _rotations(angle))


def _rotations(angle) -> np.ndarray:
    """exp(i*angle) per angle as a complex array, from math's cos and
    sin, which the real-center points have always used."""
    return np.array([complex(math.cos(t), math.sin(t))
                     for t in np.atleast_1d(angle).tolist()])


@functools.lru_cache(maxsize=8)
def boundary_rotations(count: int) -> np.ndarray:
    """exp(i*angle) at the count >= 2 angles 2*pi*m/(count - 1), m = 0, 1,
    ..., count - 1, evenly spaced over [0, 2*pi].

    Taken once per count and read-only, so every caller shares one table.
    """
    rot = _rotations([2.0 * math.pi * m / (count - 1) for m in range(count)])
    rot.flags.writeable = False
    return rot


def cassini_points_rotated(b: float, radius: float, rot: np.ndarray):
    """cassini_points at the angles whose rotations exp(i*angle) are rot."""
    e = math.frexp(max(b, radius))[1]
    b, radius = math.ldexp(b, -e), math.ldexp(radius, -e)
    if radius >= b:
        w = rot * np.sqrt(radius * radius - b * b * np.conj(rot) ** 2)
    else:
        w = 1j * np.sqrt(b * b - radius * radius * rot)
    with np.errstate(over="ignore"):
        return np.ldexp(w.real, e), np.ldexp(w.imag, e)


def point_at_cassini_distance(q0: Quaternion, dist: float,
                              direction: Quaternion, angle: float) -> Quaternion:
    """A quaternion q with cassini_u(q, q0) equal to dist (up to rounding).

    The point lies in the half-plane spanned by the real axis and the unit
    imaginary quaternion `direction`: with (a, b) the axial coordinates of
    q0 and (x, s) = cassini_points(b, dist, angle),

        q = (a + x) + s * direction.

    For dist >= b, `angle` is half the argument of triangle(q0, q), and
    for a real center (b = 0) the point is a + dist*(cos(angle) +
    sin(angle)*direction) exactly.  For dist < b, `angle` is the argument
    of triangle(q0, q) itself, and q lies on the oval about q0 (s > 0).
    """
    if dist < 0.0:
        raise QuatspecError("Cassini distance must be >= 0")
    x, s = (float(c[0]) for c in cassini_points(q0.im_norm(), dist, angle))
    return Quaternion(q0.w + x, s * direction.x, s * direction.y,
                      s * direction.z)


def random_unit_imag(rng) -> Quaternion:
    """A uniformly random point of the unit imaginary sphere S."""
    while True:
        v = rng.normal(size=3)
        n = math.sqrt(float(v[0]) ** 2 + float(v[1]) ** 2 + float(v[2]) ** 2)
        if n > 1e-6:
            return Quaternion(0.0, float(v[0]) / n, float(v[1]) / n,
                              float(v[2]) / n)
