import math
import struct
import sys
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatspec.errors import QuatspecError
from quatspec.quatcore import (BISECTION_STEPS, ONE, QI, QJ, QK,
                               CassiniBall, Quaternion, SpherePoint,
                               cassini_u, cassini_u_axial,
                               point_at_cassini_distance, qinv, qmul, qpow,
                               radial_offset_roots, random_unit_imag,
                               same_sphere, sphere_of,
                               spherical_power, spherical_power_sderiv,
                               spherical_power_sderivs, spherical_powers,
                               triangle)

TOL = 1e-12


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
            assert same_sphere(p, q)


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


def test_basis_streams_are_bit_identical_to_the_pointwise_basis():
    rng = np.random.default_rng(25)
    points = [(rand_quat(rng), rand_quat(rng)) for _ in range(20)]
    # real points and a point below the real-axis cutoff take the closed
    # form of the spherical derivative
    points += [(Quaternion(0.3, 0.8), Quaternion(1.7)),
               (Quaternion(2.0), Quaternion(1.2, 1e-9, 0.0, 0.0)),
               (Quaternion(-1.0), Quaternion(-0.5, -0.0, 0.0, -0.0))]
    for q0, q in points:
        got = list(islice(spherical_powers(q0, q), 40))
        assert [bits(v) for v in got] == [
            bits(spherical_power(q0, n, q)) for n in range(40)]
        got = list(islice(spherical_power_sderivs(q0, q), 40))
        assert [bits(v) for v in got] == [
            bits(spherical_power_sderiv(q0, n, q)) for n in range(40)]


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
    # quotient branch just above the cutoff vs exact real-axis branch
    q0 = Quaternion(0.3, 0.8, 0.0, 0.0)
    r = 1.7
    for n in range(1, 8):
        on_axis = spherical_power_sderiv(q0, n, Quaternion(r))
        near = spherical_power_sderiv(q0, n, Quaternion(r, 1e-6, 0, 0))
        assert abs(near - on_axis) <= 1e-4 * (1.0 + abs(on_axis))
    assert spherical_power_sderiv(q0, 0, Quaternion(r)) == Quaternion(0.0)
    assert spherical_power_sderiv(q0, 1, Quaternion(r)) == ONE


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


def radial_offset_root_reference(b, dist, sin_a):
    """The scalar bisection radial_offset_roots must reproduce.

    It bisects on t * hypot(t + 2b*sin_a, 2b*cos_a) < dist**2 until the
    bracket settles (a midpoint equal to one of its ends), at most
    BISECTION_STEPS times, with (b, dist) divided by 2**e, e the binary
    exponent of dist, and its root multiplied back by 2**e.  np.hypot, not
    math.hypot: the two differ in the last bit now and then.
    """
    if dist == 0.0:
        return 0.0
    e = math.frexp(dist)[1]
    # np.ldexp, unlike math.ldexp, overflows to inf as a product does
    with np.errstate(over="ignore"):
        b, dist = float(np.ldexp(b, -e)), float(np.ldexp(dist, -e))
    if b == 0.0:
        return math.ldexp(dist, e)
    target = dist * dist
    shift = 2.0 * b * sin_a
    lift = 2.0 * b * math.sqrt(max(0.0, 1.0 - sin_a * sin_a))

    def g(t):
        return t * float(np.hypot(t + shift, lift))

    hi = dist + 2.0 * b
    disc = 9.0 * sin_a * sin_a - 8.0
    if sin_a < 0.0 and disc >= 0.0:
        t_peak = 0.5 * b * (-3.0 * sin_a - math.sqrt(disc))
        if g(t_peak) >= target:
            hi = t_peak
    lo = 0.0
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        settled = mid in (lo, hi)
        if g(mid) < target:
            lo = mid
        else:
            hi = mid
        if settled:
            break
    return math.ldexp(0.5 * (lo + hi), e)


def test_radial_offset_roots_match_scalar_bisection_bit_for_bit():
    rng = np.random.default_rng(25)
    k = 3000
    b = rng.uniform(0.0, 3.0, k)
    dist = rng.uniform(0.0, 3.0, k)
    sin_a = np.array([math.sin(a) for a in rng.uniform(0, 2 * math.pi, k)])
    b[::7] = 0.0
    dist[::11] = 0.0
    sin_a[::5] = -rng.uniform(math.sqrt(8.0) / 3.0, 1.0, len(sin_a[::5]))
    dist[::13] = 10.0 ** rng.uniform(-150, 150, len(dist[::13]))
    b[::17] = 10.0 ** rng.uniform(-150, 150, len(b[::17]))
    # both coordinates scaled far below the quartic's underflow
    tiny = 10.0 ** rng.uniform(-150, -80, len(b[::19]))
    b[::19] *= tiny
    dist[::19] *= tiny
    steep = (sin_a < 0) & (9.0 * sin_a * sin_a >= 8.0) & (b > 0) & (dist > 0)
    assert steep.sum() > 100
    want = [radial_offset_root_reference(*args)
            for args in zip(b.tolist(), dist.tolist(), sin_a.tolist())]
    got = radial_offset_roots(b, dist, sin_a)
    assert got.tolist() == want
    assert np.signbit(got).tolist() == [math.copysign(1, w) < 0 for w in want]
    # the root is homogeneous of degree one in (b, dist): scaled by 2**k,
    # every row whose root is a normal double before and after keeps it
    # times 2**k exactly
    for k in (-300, 300):
        scaled = radial_offset_roots(np.ldexp(b, k), np.ldexp(dist, k), sin_a)
        want_scaled = np.ldexp(got, k)
        normal = ((np.abs(got) >= sys.float_info.min)
                  & (np.abs(want_scaled) >= sys.float_info.min))
        assert normal.sum() > 2500
        assert scaled[normal].tolist() == want_scaled[normal].tolist()
    # scalars broadcast to a batch of one
    for i in range(0, k, 97):
        assert radial_offset_roots(b[i], dist[i], sin_a[i]).tolist() \
            == [want[i]]


@pytest.mark.parametrize("dist", [1e-100, 1e-30, 1.0, 1e30])
def test_radial_offset_roots_solve_the_quartic_for_b_far_above_dist(dist):
    # b/dist from 1 to 1e200: the root's quartic equals dist**4, compared
    # as the square root t * |(t + 2b*sin_a, 2b*cos_a)| against dist**2,
    # which neither overflows nor underflows here
    rng = np.random.default_rng(26)
    ratio = 10.0 ** np.concatenate([np.arange(0, 201, 5.0),
                                    rng.uniform(0, 200, 200)])
    b = dist * ratio
    sin_a = np.array([math.sin(a) for a in rng.uniform(0, 2 * math.pi,
                                                       len(b))])
    sin_a[::4] = -rng.uniform(math.sqrt(8.0) / 3.0, 1.0, len(sin_a[::4]))
    sin_a[1::9] = -1.0
    t = radial_offset_roots(b, dist, sin_a)
    assert (t > 0.0).all()
    for ti, bi, si in zip(t.tolist(), b.tolist(), sin_a.tolist()):
        ci = math.sqrt(max(0.0, 1.0 - si * si))
        root = ti * math.hypot(ti + 2.0 * bi * si, 2.0 * bi * ci)
        assert abs(root / dist - dist) <= 1e-14 * dist
    # the root of the example once cut short after 200 bisection steps
    got = radial_offset_roots(1.0, 1e-80, 0.3)[0]
    assert abs(got * math.hypot(got + 0.6, 2.0 * math.sqrt(0.91))
               - 1e-160) <= 1e-174


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


# Multiples of 2**-30 up to 2**10 in modulus: every square and sum of
# squares the geometry forms stays a normal double under any 2**k scaling
# with |k| <= 450.
grid = st.integers(-2 ** 40, 2 ** 40).map(lambda m: math.ldexp(m, -30))


@settings(max_examples=300, deadline=None)
@given(pr=grid, ps=grid.map(abs), qr=grid, qs=grid.map(abs),
       radius=grid.map(abs).filter(bool), k=st.integers(-450, 450))
def test_cassini_geometry_is_exactly_homogeneous(pr, ps, qr, qs, radius, k):
    # scaling every coordinate by 2**k scales u by exactly 2**k and keeps
    # every ball membership
    p, q = SpherePoint(pr, ps), SpherePoint(qr, qs)
    p_k, q_k = (SpherePoint(math.ldexp(v.r, k), math.ldexp(v.s, k))
                for v in (p, q))
    assert cassini_u_axial(p_k, q_k) == math.ldexp(cassini_u_axial(p, q), k)
    ball = CassiniBall(Quaternion(qr, 0.0, qs, 0.0), radius)
    ball_k = CassiniBall(Quaternion(q_k.r, 0.0, q_k.s, 0.0),
                         math.ldexp(radius, k))
    assert bool(ball_k.contains_axial(p_k.r, p_k.s)) \
        is bool(ball.contains_axial(pr, ps))


def test_axial_metric_zero_iff_same_axial_pair():
    a = SpherePoint(0.25, 1.5)
    assert cassini_u_axial(a, a) == 0.0
    assert cassini_u_axial(a, SpherePoint(0.25, 1.5 + 1e-9)) > 0.0
    assert cassini_u_axial(a, SpherePoint(0.25 + 1e-9, 1.5)) > 0.0
