import math
import struct
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import chain, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatspec.errors import QuatspecError
from quatspec.quatcore import (ONE, QI, QJ, QK, CassiniBall, Quaternion,
                               SpherePoint, boundary_rotations, cassini_points,
                               cassini_points_rotated, cassini_u,
                               cassini_u_axial, point_at_cassini_distance,
                               qinv, qmul, qpow, random_unit_imag,
                               sphere_of, spherical_power,
                               spherical_power_floats,
                               spherical_power_sderiv_floats, triangle)
from quatspec.hmat import QMatrix
from quatspec.series import _Series, series_init

from oracles import spherical_power_sderiv

TOL = 1e-12
EPS = sys.float_info.epsilon


def rand_quat(rng, box=2.0):
    c = rng.uniform(-box, box, size=4)
    return Quaternion(float(c[0]), float(c[1]), float(c[2]), float(c[3]))


def test_unit_table():
    assert QI * QJ == QK
    assert QJ * QK == QI
    assert QK * QI == QJ
    assert QJ * QI == -QK
    assert QI * QI == -ONE
    assert QJ * QJ == -ONE
    assert QK * QK == -ONE


def test_mul_associative_and_norm_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b, c = (rand_quat(rng) for _ in range(3))
        lhs = qmul(qmul(a, b), c)
        rhs = qmul(a, qmul(b, c))
        assert abs(lhs - rhs) <= 1e-13 * (1.0 + abs(a) * abs(b) * abs(c))
        assert abs(abs(qmul(a, b)) - abs(a) * abs(b)) <= \
            1e-13 * (1.0 + abs(a) * abs(b))


def test_conj_antihomomorphism():
    rng = np.random.default_rng(12)
    for _ in range(100):
        a, b = rand_quat(rng), rand_quat(rng)
        assert abs(qmul(a, b).conj() - qmul(b.conj(), a.conj())) <= 1e-13 * (
            1.0 + abs(a) * abs(b))


def test_qinv():
    rng = np.random.default_rng(13)
    for _ in range(100):
        q = rand_quat(rng)
        if abs(q) < 1e-3:
            continue
        assert abs(qmul(q, qinv(q)) - ONE) <= 1e-13
        assert abs(qmul(qinv(q), q) - ONE) <= 1e-13
    with pytest.raises(ZeroDivisionError):
        qinv(Quaternion(0.0))


def exact_inverse(q):
    """conj(q) / |q|**2 in exact rational arithmetic."""
    c = [Fraction(v) for v in q]
    n2 = sum(v * v for v in c)
    return [c[0] / n2] + [-v / n2 for v in c[1:]]


@pytest.mark.parametrize("q", [
    Quaternion(1e-170, 1e-170), Quaternion(1e160, 1e160),
    Quaternion(0.0, 3e-200, -1e-180, 2e-175), Quaternion(-1e200, 0.0, 3e199),
    Quaternion(1.5e-160, 0.0, 0.0, -2.5e-160)])
def test_qinv_outside_the_squares_range(q):
    # |q|**2 underflows or overflows, yet q has a normal inverse: the
    # scaled quotient is within a few units in the last place of it
    assert not sys.float_info.min <= q.abs2() < math.inf
    got = qinv(q)
    want = exact_inverse(q)
    scale = max(abs(v) for v in want)
    for g, w in zip(got, want):
        assert abs(Fraction(g) - w) <= 4 * EPS * scale


def test_qinv_inside_the_squares_range_is_unchanged():
    # where |q|**2 is a normal double the quotient is conj(q) / |q|**2 bit
    # for bit, also near either end of the range
    rng = np.random.default_rng(14)
    for scale in (1e-150, 1e-3, 1.0, 1e5, 1e150):
        for _ in range(50):
            q = rand_quat(rng, box=scale)
            n2 = q.abs2()
            assert qinv(q) == Quaternion(q.w / n2, -q.x / n2, -q.y / n2,
                                         -q.z / n2)


def test_triangle_example():
    # center 2j, argument 1+i
    got = triangle(Quaternion(0, 0, 2, 0), Quaternion(1, 1, 0, 0))
    assert got == Quaternion(4.0, 2.0, 0.0, 0.0)


def test_triangle_vanishes_at_center():
    # the characteristic value of a point on its own sphere is zero
    rng = np.random.default_rng(14)
    for _ in range(500):
        q = rand_quat(rng, box=5.0)
        assert abs(triangle(q, q)) <= 1e-13 * (1.0 + abs(q)) ** 2


def test_triangle_depends_only_on_sphere_of_center():
    rng = np.random.default_rng(15)
    for _ in range(100):
        q, p = rand_quat(rng), rand_quat(rng)
        assert triangle(q, p) == triangle(q.conj(), p)


def test_cassini_symmetry_bitwise():
    rng = np.random.default_rng(16)
    for _ in range(300):
        p, q = rand_quat(rng, 4.0), rand_quat(rng, 4.0)
        assert cassini_u(p, q) == cassini_u(q, p)


def test_cassini_same_sphere_vanishes_exactly():
    # exact same-sphere companions: conjugation, sign flips of imaginary
    # slots, and the x<->y swap all preserve (Re, |Im|) bit-for-bit
    rng = np.random.default_rng(17)
    for _ in range(200):
        q = rand_quat(rng, 3.0)
        for p in (q, q.conj(), Quaternion(q.w, -q.x, q.y, -q.z),
                  Quaternion(q.w, q.y, q.x, q.z)):
            assert cassini_u(p, q) == 0.0
            assert sphere_of(p) == sphere_of(q)


def test_cassini_example():
    assert abs(cassini_u(Quaternion(1, 1, 0, 0), Quaternion(0, 0, 2, 0))
               - 20.0 ** 0.25) <= 1e-14


def test_cassini_matches_triangle_modulus():
    rng = np.random.default_rng(18)
    for _ in range(300):
        p, q = rand_quat(rng, 4.0), rand_quat(rng, 4.0)
        assert abs(cassini_u(p, q) ** 2 - abs(triangle(q, p))) <= 1e-11 * (
            1.0 + abs(triangle(q, p)))


def test_cassini_triangle_inequality():
    rng = np.random.default_rng(19)
    for _ in range(2000):
        a, b, c = (rand_quat(rng, 4.0) for _ in range(3))
        assert cassini_u(a, c) <= cassini_u(a, b) + cassini_u(b, c) + TOL


def test_sphere_point_and_membership():
    q = Quaternion(1.0, 0.0, 3.0, 4.0)
    assert sphere_of(q) == SpherePoint(1.0, 5.0)
    ball = CassiniBall(Quaternion(2.0), 1.0)
    assert ball.contains(Quaternion(2.5))
    assert not ball.contains(Quaternion(3.5))
    # membership agrees with the metric near the boundary
    rng = np.random.default_rng(20)
    center = Quaternion(1.0, 0.5, -0.25, 0.0)
    ball = CassiniBall(center, 1.5)
    for _ in range(300):
        p = rand_quat(rng, 3.0)
        u = cassini_u(p, center)
        if abs(u - 1.5) > 1e-9:
            assert ball.contains(p) == (u < 1.5)
    # the array form decides every point as contains() does
    pts = [rand_quat(rng, 3.0) for _ in range(300)]
    mask = ball.contains_axial(np.array([p.w for p in pts]),
                               np.array([p.im_norm() for p in pts]))
    assert mask.tolist() == [ball.contains(p) for p in pts]


def test_spherical_power_against_direct_products():
    rng = np.random.default_rng(21)
    for _ in range(50):
        q0, q = rand_quat(rng), rand_quat(rng)
        t = triangle(q0, q)
        for k in range(4):
            even = spherical_power(q0, 2 * k, q)
            odd = spherical_power(q0, 2 * k + 1, q)
            assert abs(even - qpow(t, k)) == 0.0
            assert abs(odd - qmul(q - q0, qpow(t, k))) == 0.0
    assert spherical_power(Quaternion(1.0), 0, Quaternion(2.0)) == ONE
    with pytest.raises(QuatspecError):
        spherical_power(ONE, -1, ONE)


def bits(q):
    return struct.pack("4d", *q)


def quaternions(floats, m):
    """The first m elements of a float stream of quatcore as Quaternions."""
    it = islice(floats, 4 * m)
    return [Quaternion(*v) for v in zip(it, it, it, it)]


def test_basis_streams_are_bit_identical_to_the_pointwise_basis():
    rng = np.random.default_rng(25)
    points = [(rand_quat(rng), rand_quat(rng)) for _ in range(20)]
    # real points and a point where a difference quotient would have lost
    # its digits take the same recurrence as every other point
    points += [(Quaternion(0.3, 0.8), Quaternion(1.7)),
               (Quaternion(2.0), Quaternion(1.2, 1e-9, 0.0, 0.0)),
               (Quaternion(-1.0), Quaternion(-0.5, -0.0, 0.0, -0.0))]
    for q0, q in points:
        got = quaternions(spherical_power_floats(q0, q), 40)
        assert [bits(v) for v in got] == [
            bits(spherical_power(q0, n, q)) for n in range(40)]
        got = quaternions(spherical_power_sderiv_floats(q0, q), 40)
        assert [bits(v) for v in got] == [
            bits(spherical_power_sderiv(q0, n, q)) for n in range(40)]


def int64_bits(values):
    """The bits of a flat stream of floats, or of quaternions, as int64."""
    return np.array(list(values), dtype=float).reshape(-1).view(
        np.int64).tolist()


SIGNED_ZEROS = st.sampled_from([0.0, -0.0])
MODERATE = st.floats(-3.0, 3.0)
# moderate, near 1e+-150 (where |q|**2 over- or underflows) and subnormal
COMPONENTS = st.one_of(
    SIGNED_ZEROS, MODERATE,
    st.floats(1e149, 1e151), st.floats(-1e151, -1e149),
    st.floats(1e-151, 1e-149), st.floats(-1e-149, -1e-151),
    st.floats(-sys.float_info.min, sys.float_info.min))
# real, non-real, and non-real with every component moderate, where the
# order of a sum of products shows in its rounding
BASIS_POINTS = st.one_of(
    st.builds(Quaternion, COMPONENTS, SIGNED_ZEROS, SIGNED_ZEROS,
              SIGNED_ZEROS),
    st.builds(Quaternion, COMPONENTS, COMPONENTS, COMPONENTS, COMPONENTS),
    st.builds(Quaternion, MODERATE, MODERATE, MODERATE, MODERATE))


def test_float_streams_are_the_pointwise_basis():
    # the float streams and a _Series block (taken in two parts, which
    # may split a pair of elements) hold the bits of the pointwise basis:
    # spherical_power, whose powers are qpow's, and the pointwise
    # spherical derivative
    seen = {"real": 0, "nonreal": 0, "not_finite": 0, "blocks": 0}

    @settings(max_examples=300, deadline=None)
    @given(q0=BASIS_POINTS, q=BASIS_POINTS, m=st.integers(1, 16),
           cut=st.integers(1, 16))
    def check(q0, q, m, cut):
        parts = [min(cut, m), m - min(cut, m)]
        powers = [spherical_power(q0, n, q) for n in range(m)]
        assert int64_bits(powers[::2]) == int64_bits(
            qpow(triangle(q0, q), k) for k in range((m + 1) // 2))
        sderivs = [spherical_power_sderiv(q0, n, q) for n in range(m)]
        for floats, want in ((spherical_power_floats, powers),
                             (spherical_power_sderiv_floats, sderivs)):
            assert int64_bits(islice(floats(q0, q), 4 * m)) == int64_bits(want)
        try:
            state = series_init(QMatrix.zeros(1), q0)
        except QuatspecError:   # |q0|**2 is zero, subnormal or not finite
            pass
        else:
            for derivative, want in ((False, powers), (True, sderivs)):
                run = _Series(state, q, derivative)
                pts = np.concatenate([run.take(k)[2] for k in parts if k])
                assert pts.shape == (m, 4)
                assert pts.view(np.int64).reshape(-1).tolist() == int64_bits(
                    want)
            seen["blocks"] += 1
        seen["real" if q.im_norm() == 0.0 else "nonreal"] += 1
        seen["not_finite"] += not all(map(math.isfinite,
                                          chain.from_iterable(powers)))

    check()
    assert all(seen.values()), seen


def test_sderiv_quadratic_example():
    # n = 2: the derivative collapses to 2*Re(q) - 2*Re(q0) for every q
    rng = np.random.default_rng(22)
    for _ in range(100):
        q0, q = rand_quat(rng), rand_quat(rng)
        got = spherical_power_sderiv(q0, 2, q)
        want = Quaternion(2.0 * q.w - 2.0 * q0.w)
        assert abs(got - want) <= 1e-11 * (1.0 + abs(q) + abs(q0))


def test_sderiv_is_real_valued_slice_invariant():
    # the spherical derivative of a slice-preserving polynomial takes the
    # same value at every point of a sphere
    rng = np.random.default_rng(23)
    for _ in range(50):
        q0 = rand_quat(rng)
        r, s = 0.7, 1.3
        for n in range(6):
            vals = []
            for direction in (QI, QJ, random_unit_imag(rng)):
                q = Quaternion(r, s * direction.x, s * direction.y,
                               s * direction.z)
                vals.append(spherical_power_sderiv(q0, n, q))
            for v in vals[1:]:
                assert abs(v - vals[0]) <= 1e-10 * (1.0 + abs(vals[0]))


def test_sderiv_continuous_across_axis_gate():
    # one recurrence on and off the real axis, at Im(q) = 1e-8 and 3e-7,
    # either side of where a difference quotient loses its digits: the
    # exact derivative moves with Im(q)**2 only, by at most 1e-13 relative
    # here (at Im(q) = 1e-6 by 1.1e-12)
    q0 = Quaternion(0.3, 0.8, 0.0, 0.0)
    r = 1.7
    for n in range(1, 8):
        on_axis = spherical_power_sderiv(q0, n, Quaternion(r))
        for im in (1e-8, 3e-7):
            near = spherical_power_sderiv(q0, n, Quaternion(r, im, 0, 0))
            assert abs(near - on_axis) <= 1e-12 * (1.0 + abs(on_axis))
    assert spherical_power_sderiv(q0, 0, Quaternion(r)) == Quaternion(0.0)
    assert spherical_power_sderiv(q0, 1, Quaternion(r)) == ONE


def exact_sderivs(q0, q, count):
    """The spherical derivatives of the basis at q, in exact rationals.

    Off the real axis the exact difference quotient of the basis at q and
    conj(q); on it the derivative of the real restriction r -> p_n(r).
    """
    def mul(p, q):
        return (p[0] * q[0] - p[1] * q[1] - p[2] * q[2] - p[3] * q[3],
                p[0] * q[1] + p[1] * q[0] + p[2] * q[3] - p[3] * q[2],
                p[0] * q[2] - p[1] * q[3] + p[2] * q[0] + p[3] * q[1],
                p[0] * q[3] + p[1] * q[2] - p[2] * q[1] + p[3] * q[0])

    def basis(p):
        pp, a2 = mul(p, p), 2 * z0[0]
        t = (pp[0] - a2 * p[0] + sum(c * c for c in z0),
             *(pp[i] - a2 * p[i] for i in (1, 2, 3)))
        tk, out = (Fraction(1),) + (Fraction(0),) * 3, []
        while len(out) < count:
            out += [tk, mul(tuple(x - y for x, y in zip(p, z0)), tk)]
            tk = mul(tk, t)
        return out[:count]

    z0, cq = tuple(map(Fraction, q0)), tuple(map(Fraction, q))
    if any(cq[1:]):
        im2 = sum(c * c for c in cq[1:])
        inv = (Fraction(0),) + tuple(-c / (2 * im2) for c in cq[1:])
        conj = (cq[0],) + tuple(-c for c in cq[1:])
        return [mul(tuple(x - y for x, y in zip(f, g)), inv)
                for f, g in zip(basis(cq), basis(conj))]
    r = cq[0]
    t = r * r - 2 * z0[0] * r + sum(c * c for c in z0)
    out = []
    for n in range(count):
        k, odd = divmod(n, 2)
        d = k * t ** (k - 1) * (2 * r - 2 * z0[0]) if k else Fraction(0)
        out.append((t ** k + (r - z0[0]) * d, -z0[1] * d, -z0[2] * d,
                    -z0[3] * d) if odd else (d, 0, 0, 0))
    return out


def test_sderivs_against_exact_rationals():
    # Im(q) runs from 0 through 1e-7, where a difference quotient has lost
    # about nine digits, to 1; the scale is the larger of the exact value
    # and the majorant in series._tails' docstring
    rng = np.random.default_rng(26)
    centers = [Quaternion(float(rng.uniform(-3, 3))) for _ in range(2)]
    centers += [rand_quat(rng, 3.0) for _ in range(2)]
    for q0 in centers:
        for im in (0.0, 1e-14, 1e-12, 1e-10, 1e-8, 1.2e-7, 3e-7, 1e-6,
                   1e-3, 1.0):
            d = random_unit_imag(rng)
            q = Quaternion(float(rng.uniform(-3, 3)), im * d.x, im * d.y,
                           im * d.z)
            c0, t = abs(q) + abs(q0), abs(triangle(q0, q))
            exact = exact_sderivs(q0, q, 40)
            got = quaternions(spherical_power_sderiv_floats(q0, q), 40)
            for n, (g, e) in enumerate(zip(got, exact)):
                k, odd = divmod(n, 2)
                majorant = 2 * k * c0 * t ** (k - 1) if k else 0.0
                if odd:
                    majorant = t ** k + c0 * majorant
                err = math.sqrt(sum((Fraction(x) - y) ** 2
                                    for x, y in zip(g, e)))
                size = math.sqrt(sum(y * y for y in e))
                assert err <= 1e-12 * max(size, majorant), (q0, q, n)


def test_point_at_cassini_distance_real_center_exact():
    q0 = Quaternion(2.0)
    got = point_at_cassini_distance(q0, 0.75, QJ, 0.0)
    assert got == Quaternion(2.75)
    got = point_at_cassini_distance(q0, 0.75, QJ, math.pi / 2.0)
    assert got.w == 2.0 and got.y == 0.75


def test_point_at_cassini_distance_lands_on_level_set():
    rng = np.random.default_rng(24)
    for _ in range(300):
        q0 = rand_quat(rng, 2.0)
        d = float(rng.uniform(0.05, 3.0))
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        p = point_at_cassini_distance(q0, d, random_unit_imag(rng), ang)
        assert abs(cassini_u(p, q0) - d) <= 1e-9 * (1.0 + d + abs(q0)) ** 2


def test_cassini_points_at_a_real_center_are_exact():
    # b = 0: the point is radius*(cos, sin)(angle) bit for bit, the point
    # every real-center caller (verify's q_in among them) has always used
    rng = np.random.default_rng(25)
    angle = rng.uniform(0.0, 2.0 * math.pi, 400).tolist()
    for radius in (1e-150, 1e-20, 0.37, 1.0, 3.0, 1e40, 1e150):
        x, s = cassini_points(0.0, radius, angle)
        assert x.tolist() == [radius * math.cos(a) for a in angle]
        assert s.tolist() == [radius * math.sin(a) for a in angle]


def level_error(b, radius, x, s):
    """|u - radius| at the point (x, s), in units of eps*max(b, radius)**2/radius.

    u = |w**2 + b**2|**(1/2) with w = x + s*i, taken in exact rational
    arithmetic and rounded to 60 digits; the unit is the spacing of the
    doubles near the point, carried over to u.
    """
    xf, sf, bf = Fraction(x), Fraction(s), Fraction(b)
    mod2 = (xf * xf - sf * sf + bf * bf) ** 2 + 4 * xf * xf * sf * sf
    with localcontext() as ctx:
        ctx.prec = 60
        u = (Decimal(mod2.numerator) / Decimal(mod2.denominator)).sqrt().sqrt()
        unit = Decimal(sys.float_info.epsilon) * Decimal(max(b, radius)) ** 2
        return float(abs(u - Decimal(radius)) * Decimal(radius) / unit)


@pytest.mark.parametrize("b", [1e-100, 1e-30, 1.0, 1e30])
def test_cassini_points_lie_on_the_level_set(b):
    # radius/b from 1e-200 to 1e200, both regimes and the lemniscate
    # radius = b between them, within a few units of the doubles' spacing
    rng = np.random.default_rng(26)
    ratio = np.concatenate([10.0 ** np.arange(-200, 201, 10.0),
                            10.0 ** rng.uniform(-3, 3, 20),
                            1.0 + np.array([-1e-9, -1e-15, 0.0, 1e-15, 1e-9])])
    for radius in (b * ratio).tolist():
        angle = rng.uniform(0.0, 2.0 * math.pi, 24)
        angle[:4] = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)
        x, s = cassini_points(b, radius, angle)
        if radius < b:
            assert (s > 0.0).all()
        assert max(level_error(b, radius, xi, si)
                   for xi, si in zip(x.tolist(), s.tolist())) <= 4.0
    # the example a 200-step bisection once cut short
    x, s = cassini_points(1.0, 1e-80, 0.3)
    assert level_error(1.0, 1e-80, x[0], s[0]) <= 4.0


@pytest.mark.parametrize("count", [2, 5, 181])
def test_boundary_rotations_are_one_read_only_table(count):
    boundary_rotations.cache_clear()
    cold = boundary_rotations(count)
    cold_bytes = cold.tobytes()
    warm = boundary_rotations(count)
    assert warm.tobytes() == cold_bytes
    angles = [2.0 * math.pi * m / (count - 1) for m in range(count)]
    want = [complex(math.cos(t), math.sin(t)) for t in angles]
    # bit for bit, signed zeros included
    assert cold_bytes == np.array(want, dtype=complex).tobytes()
    assert not warm.flags.writeable
    with pytest.raises(ValueError):
        warm[0] = 0.0
    # the table gives the points cassini_points gives at its angles
    for b, radius in ((0.0, 1.0), (1.0, 0.5), (1.0, 3.0)):
        for got, ref in zip(cassini_points_rotated(b, radius, warm),
                            cassini_points(b, radius, angles)):
            assert got.tobytes() == ref.tobytes()


def test_cassini_points_far_below_the_center_scale_are_finite():
    # radius/b below the smallest double: the point is the center itself,
    # where the bisection's bracket overflowed to inf
    x, s = cassini_points(1e300, 1e-300, [0.0, 0.5, 4.0])
    assert x.tolist() == [0.0] * 3 and s.tolist() == [1e300] * 3


@pytest.mark.parametrize("scale", [1e-150, 1e-90, 1.0, 1e90, 1e150])
def test_cassini_geometry_scales_past_the_quartic_range(scale):
    # u and ball membership scale with the coordinates, also where u**4
    # would underflow or overflow
    want = cassini_u_axial(SpherePoint(3.0, 0.5), SpherePoint(0.25, 1.0))
    p = SpherePoint(3.0 * scale, 0.5 * scale)
    u = cassini_u_axial(p, SpherePoint(0.25 * scale, 1.0 * scale))
    assert abs(u / scale - want) <= 1e-14 * want
    center = Quaternion(0.25 * scale, 0.0, scale, 0.0)
    for factor, inside in ((1.0 + 1e-9, True), (1.0 - 1e-9, False)):
        ball = CassiniBall(center, want * scale * factor)
        assert bool(ball.contains_axial(p.r, p.s)) is inside
        assert ball.contains(Quaternion(p.r, 0.0, 0.0, p.s)) is inside


def quartic_root(p, q):
    """u(p, q) = (m1*m2)**(1/4) in exact rational arithmetic, rounded."""
    dr, dm, dp = (Fraction(p.r) - Fraction(q.r), Fraction(p.s) - Fraction(q.s),
                  Fraction(p.s) + Fraction(q.s))
    u4 = (dr * dr + dm * dm) * (dr * dr + dp * dp)
    with localcontext() as ctx:
        ctx.prec = 60
        return float((Decimal(u4.numerator) / Decimal(u4.denominator))
                     .sqrt().sqrt())


def test_cassini_geometry_where_a_factor_overflows():
    # |Im| near 1e154: (ps + qs)**2 overflows, while u and radius**2 do not
    b = 1e154
    q = SpherePoint(0.0, b)
    for p, u in ((SpherePoint(1.0, b), math.sqrt(2e154)),
                 (SpherePoint(0.0, b), 0.0),
                 (SpherePoint(3.0, 2.0 * b), None),
                 (SpherePoint(-1e150, 0.5 * b), None)):
        got = cassini_u_axial(p, q)
        assert math.isfinite(got)
        assert abs(got - quartic_root(p, q)) <= 4 * EPS * got
        if u is not None:
            assert got == u
    center = Quaternion(0.0, b)
    r, s = np.array([1.0, 1.0, 0.0, 2.0]), np.array([b, 1.0, 0.0, b])
    # u = sqrt(2e154), 1e154, 1e154 and sqrt(4e154) = 2e77
    assert CassiniBall(center, 1.5e77).contains_axial(r, s).tolist() == [
        True, False, False, False]
    for radius, inside in ((1.5e77, True), (1.4e77, False)):
        ball = CassiniBall(center, radius)
        assert ball.contains_axial(1.0, b) == inside
        assert type(ball.contains_axial(1.0, b)) is np.bool_
        assert ball.contains(Quaternion(1.0, 0.0, b)) is inside


# Multiples of 2**-30 up to 2**10 in modulus: every square and sum of
# squares the geometry forms stays a normal double under any 2**k scaling
# with |k| <= 450.
grid = st.integers(-2 ** 40, 2 ** 40).map(lambda m: math.ldexp(m, -30))


@settings(max_examples=300, deadline=None)
@given(pr=grid, ps=grid.map(abs), qr=grid, qs=grid.map(abs),
       radius=grid.map(abs).filter(bool), k=st.integers(-450, 450),
       angle=st.integers(0, 7 * 2 ** 30).map(lambda m: math.ldexp(m, -30)))
def test_cassini_geometry_is_exactly_homogeneous(pr, ps, qr, qs, radius, k,
                                                 angle):
    # scaling every coordinate by 2**k scales u and every level-set point
    # by exactly 2**k and keeps every ball membership
    p, q = SpherePoint(pr, ps), SpherePoint(qr, qs)
    p_k, q_k = (SpherePoint(math.ldexp(v.r, k), math.ldexp(v.s, k))
                for v in (p, q))
    assert cassini_u_axial(p_k, q_k) == math.ldexp(cassini_u_axial(p, q), k)
    ball = CassiniBall(Quaternion(qr, 0.0, qs, 0.0), radius)
    ball_k = CassiniBall(Quaternion(q_k.r, 0.0, q_k.s, 0.0),
                         math.ldexp(radius, k))
    assert bool(ball_k.contains_axial(p_k.r, p_k.s)) \
        is bool(ball.contains_axial(pr, ps))
    for got, want in zip(cassini_points(q_k.s, ball_k.radius, angle),
                         cassini_points(qs, radius, angle)):
        assert got.tolist() == np.ldexp(want, k).tolist()


def test_axial_metric_zero_iff_same_axial_pair():
    a = SpherePoint(0.25, 1.5)
    assert cassini_u_axial(a, a) == 0.0
    assert cassini_u_axial(a, SpherePoint(0.25, 1.5 + 1e-9)) > 0.0
    assert cassini_u_axial(a, SpherePoint(0.25 + 1e-9, 1.5)) > 0.0
