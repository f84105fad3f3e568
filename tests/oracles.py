"""Oracles the tests read and the package does not use.

Each is a direct computation of a quantity the tests check against; it is
kept here, beside the tests, rather than in the package's public API.
"""

import math
from typing import Callable, NamedTuple

from quatspec import hmat, sresolvent, verify
from quatspec.errors import (DegenerateConfiguration, InputError,
                             NotInResolventSet, QuatspecError)
from quatspec.hmat import QMatrix
from quatspec.quatcore import Quaternion, qpow, triangle
from quatspec.series import (SeriesState, _partial_through, _tails,
                             require_inside)
from quatspec.sliceanalysis import _check_unit_imag, slice_point
from quatspec.spectrum import in_resolvent
from quatspec.sresolvent import (certified_real_point, off_sphere,
                                 pencil_svals, resolvent_bundle,
                                 well_conditioned)

# real_axis_sderiv's central differences take the step FD_STEP * (1 + |q|).
FD_STEP = 1e-5


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


def spherical_power_sderiv(q0: Quaternion, n: int, q: Quaternion) -> Quaternion:
    """The spherical derivative of spherical_power(q0, n, .) at q, pointwise.

    In the slice of q, t**k = A_k + D_k*Im(q) with t = triangle(q0, q) and
    A_k the real part of qpow(t, k); D_0 = 0, D_1 = 2*(Re(q) - Re(q0)) and
    D_{k+1} = A_k*D_1 + D_k*A_1.  The derivative of t**k is D_k, that of
    (q - q0)*t**k is A_k + (Re(q) - q0)*D_k.
    """
    if n < 0:
        raise QuatspecError("spherical_power index must be >= 0")
    k, odd = divmod(n, 2)
    t = triangle(q0, q)
    d1 = 2.0 * (q.w - q0.w)
    a1 = qpow(t, 1).w
    dk = 0.0
    for j in range(k):
        dk = qpow(t, j).w * d1 + dk * a1
    if not odd:
        return Quaternion(dk)
    return Quaternion(qpow(t, k).w) + (Quaternion(q.w) - q0) * dk


def sequential_resolvent_point(A: QMatrix, rng,
                               require_nonreal: bool = False) -> Quaternion:
    """random_resolvent_point as one draw and one pencil SVD at a time.

    Draws q uniform on the box of random_resolvent_points, skips it when
    require_nonreal and |Im q| < NONREAL_MIN_IMAG, and returns the first
    draw whose pencil is well_conditioned; NotInResolventSet after
    SAMPLE_DRAWS draws.
    """
    box = certified_real_point(A).w
    for _ in range(sresolvent.SAMPLE_DRAWS):
        c = rng.uniform(-box, box, size=4)
        q = Quaternion(float(c[0]), float(c[1]), float(c[2]), float(c[3]))
        if require_nonreal and q.im_norm() < sresolvent.NONREAL_MIN_IMAG:
            continue
        if well_conditioned(pencil_svals(A, [q])[0]):
            return q
    raise NotInResolventSet("failed to sample a well-conditioned resolvent point")


def sequential_off_sphere_pair(A: QMatrix, rng):
    """Resolvent points (p, q), p drawn again until off the sphere of q.

    q and then p are sequential_resolvent_point draws; p is drawn at most
    5 times, off_sphere at verify.OFF_SPHERE_REL_TOL.
    """
    q = sequential_resolvent_point(A, rng)
    for _ in range(5):
        p = sequential_resolvent_point(A, rng)
        if off_sphere(q, p, verify.OFF_SPHERE_REL_TOL):
            return p, q
    raise DegenerateConfiguration(
        "could not sample a pair off each other's spheres")


def eval_series_Q(state: SeriesState, q: Quaternion, N: int):
    """Partial sum of the derivative series through index N, with tail bound."""
    if N < 0:
        raise InputError("truncation index must be >= 0")
    require_inside(state, q)
    return _partial_through(state, q, True, N), _tails(state, q, True)(N)


def real_axis_sderiv(f: Callable[[Quaternion], QMatrix],
                     q: Quaternion) -> QMatrix:
    """The derivative of the real-axis restriction of f at Re(q).

    Richardson-extrapolated central differences of steps h and h/2, with
    h = FD_STEP * (1 + |q|): the spherical derivative on the real axis,
    where sliceanalysis.sderiv_operator's difference quotient is refused.
    """
    r = q.w
    h = FD_STEP * (1.0 + abs(q))

    def central(step):
        up = f(Quaternion(r + step))
        dn = f(Quaternion(r - step))
        return (up - dn) * (0.5 / step)

    return (central(0.5 * h) * 4.0 - central(h)) * (1.0 / 3.0)


class StemPair(NamedTuple):
    """Stem component values (F1, F2) at one slice point."""

    F1: QMatrix
    F2: QMatrix


def s_resolvent_map(A: QMatrix) -> Callable[[Quaternion], QMatrix]:
    """The left S-resolvent of A as a map on its resolvent set.

    One bundle per evaluation: its pencil SVD is also the domain test.
    """
    def s_left(q: Quaternion) -> QMatrix:
        try:
            return resolvent_bundle(A, q).S_left
        except NotInResolventSet as exc:
            raise InputError(
                f"evaluation point {tuple(q)} is outside the domain") from exc

    return s_left


def stem_decompose(f: Callable[[Quaternion], QMatrix], z: complex,
                   j: Quaternion) -> StemPair:
    """Stem components F1 = (f(z) + f(conj z))/2, F2 = -(f(z) - f(conj z))*j/2
    of f at z on the slice of j; f(r + s*j') = F1 + F2*j' for every j'."""
    _check_unit_imag(j)
    fp = f(slice_point(z, j))
    fm = f(slice_point(z.conjugate(), j))
    return StemPair(F1=(fp + fm) * 0.5, F2=((fm - fp) * 0.5).scale_right(j))


def stem_reconstruct(pair: StemPair, j: Quaternion) -> QMatrix:
    """Slice value F1 + F2 * j reconstructed in the direction j."""
    return pair.F1 + pair.F2.scale_right(j)


def cr_residual(f: Callable[[Quaternion], QMatrix], z: complex,
                j: Quaternion, h: float) -> float:
    """Norm of the Cauchy–Riemann defect of f_j at z, by central differences.

    Approximates || d(f_j)/dr + (d(f_j)/ds) * j ||; the value is O(h**2)
    exactly when f is right slice regular near the point.
    """
    _check_unit_imag(j)
    if h <= 0.0:
        raise InputError("finite-difference step must be positive")
    r, s = z.real, z.imag
    dr = (f(slice_point(complex(r + h, s), j))
          - f(slice_point(complex(r - h, s), j))) * (0.5 / h)
    ds = (f(slice_point(complex(r, s + h), j))
          - f(slice_point(complex(r, s - h), j))) * (0.5 / h)
    return hmat.op_norm(dr + ds.scale_right(j))


def taylor_eval(coeffs, z0: complex, z: complex, j: Quaternion) -> QMatrix:
    """Evaluate sum_n (z - z0)**n * a_n with the slice right action."""
    _check_unit_imag(j)
    if not coeffs:
        raise InputError("need at least one coefficient")
    out = QMatrix.zeros(coeffs[0].n)
    w = complex(1.0, 0.0)
    for a in coeffs:
        out = out + a.scale_right(slice_point(w, j))
        w = w * (z - z0)
    return out
