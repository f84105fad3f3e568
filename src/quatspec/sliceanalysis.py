"""Slice-function tools: stem decomposition, spherical derivatives of
operator-valued maps, Cauchy–Riemann residuals, and contour Taylor
coefficients on a slice.

An operator-valued map f on an axially symmetric domain restricts, for each
unit imaginary j, to a map f_j(r + s*i) = f(r + s*j) on a complex
half-plane.  Its stem components

    F1(z) = (f(r+sj) + f(r-sj)) / 2,
    F2(z) = -(f(r+sj) - f(r-sj)) * j / 2

are even/odd under conjugation of z and reconstruct every slice value as
f(r + s*j') = F1 + F2*j'.  Slice regularity of f is certified numerically
through the Cauchy–Riemann residual of f_j, and slice Taylor coefficients
are recovered by trapezoidal contour quadrature, with complex scalars
acting on operator samples by right multiplication with r + s*j.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import hmat
from .errors import InputError
from .hmat import QMatrix
from .quatcore import Quaternion, qinv, sderiv_by_quotient
from .sresolvent import resolvent_bundle
from .spectrum import in_resolvent

# Unit imaginary directions are validated to this absolute tolerance.
UNIT_IMAG_TOL = 1e-12

# Central-difference step for the real-axis spherical derivative, relative
# to 1 + |q|; one level of Richardson extrapolation is applied on top.
FD_STEP = 1e-5


@dataclass(frozen=True)
class SliceEvaluator:
    """An operator-valued map on an axially symmetric set, plus its domain."""

    eval: Callable[[Quaternion], QMatrix]
    domain: Callable[[Quaternion], bool] = field(default=lambda q: True)


class StemPair(NamedTuple):
    """Stem component values (F1, F2) at one slice point."""

    F1: QMatrix
    F2: QMatrix


def s_resolvent_map(A: QMatrix) -> SliceEvaluator:
    """The left S-resolvent of A as a slice evaluator on its resolvent set."""
    return SliceEvaluator(
        eval=lambda q: resolvent_bundle(A, q).S_left,
        domain=lambda q: in_resolvent(A, q))


def _check_unit_imag(j: Quaternion) -> None:
    if abs(j.w) > UNIT_IMAG_TOL or abs(j.im_norm() - 1.0) > UNIT_IMAG_TOL:
        raise InputError("slice direction must be a unit imaginary quaternion")


def slice_point(z: complex, j: Quaternion) -> Quaternion:
    """The embedding of the complex number z into the slice of j."""
    return Quaternion(z.real, z.imag * j.x, z.imag * j.y, z.imag * j.z)


def _eval_at(f: SliceEvaluator, q: Quaternion) -> QMatrix:
    if not f.domain(q):
        raise InputError(f"evaluation point {tuple(q)} is outside the domain")
    return f.eval(q)


def stem_decompose(f: SliceEvaluator, z: complex, j: Quaternion) -> StemPair:
    """Stem component values of f at z on the slice of j."""
    _check_unit_imag(j)
    fp = _eval_at(f, slice_point(z, j))
    fm = _eval_at(f, slice_point(z.conjugate(), j))
    half = 0.5
    return StemPair(F1=(fp + fm) * half,
                    F2=((fm - fp) * half).scale_right(j))


def stem_reconstruct(pair: StemPair, j: Quaternion) -> QMatrix:
    """Slice value F1 + F2 * j reconstructed in the direction j."""
    return pair.F1 + pair.F2.scale_right(j)


def sderiv_operator(f: SliceEvaluator, q: Quaternion) -> QMatrix:
    """Spherical derivative of f at q.

    Off the real axis this is (f(q) - f(conj(q))) * (q - conj(q))**(-1).
    Below quatcore.REAL_AXIS_CUTOFF, the cutoff of the series basis, the
    quotient has lost its digits, and the derivative of the real-axis
    restriction at Re(q) is used instead, approximated by
    Richardson-extrapolated central differences.
    """
    if sderiv_by_quotient(q):
        diff = _eval_at(f, q) - _eval_at(f, q.conj())
        return diff.scale_right(qinv(q - q.conj()))
    r = q.w
    h = FD_STEP * (1.0 + abs(q))

    def central(step):
        up = _eval_at(f, Quaternion(r + step))
        dn = _eval_at(f, Quaternion(r - step))
        return (up - dn) * (0.5 / step)

    d1 = central(h)
    d2 = central(0.5 * h)
    return (d2 * 4.0 - d1) * (1.0 / 3.0)


def cr_residual(f: SliceEvaluator, z: complex, j: Quaternion, h: float) -> float:
    """Norm of the Cauchy–Riemann defect of f_j at z, by central differences.

    Approximates || d(f_j)/dr + (d(f_j)/ds) * j ||; the value is O(h**2)
    exactly when f is right slice regular near the point.
    """
    _check_unit_imag(j)
    if h <= 0.0:
        raise InputError("finite-difference step must be positive")
    r, s = z.real, z.imag
    dr = (_eval_at(f, slice_point(complex(r + h, s), j))
          - _eval_at(f, slice_point(complex(r - h, s), j))) * (0.5 / h)
    ds = (_eval_at(f, slice_point(complex(r, s + h), j))
          - _eval_at(f, slice_point(complex(r, s - h), j))) * (0.5 / h)
    return hmat.op_norm(dr + ds.scale_right(j))


def cauchy_coeffs(f: SliceEvaluator, j: Quaternion, z0: complex, delta: float,
                  M: int, nmax: int):
    """Slice Taylor coefficients of f at z0 by trapezoidal contour quadrature.

    Averages f over M equispaced nodes of the counterclockwise circle of
    radius delta about z0,

        a_n = (1/M) * sum_m f(z_m) * psi_j(delta**(-n) * exp(-i*n*theta_m)),

    where psi_j embeds complex weights into the slice of j acting by right
    multiplication.  The quadrature is spectrally accurate for maps that
    are holomorphic on a neighborhood of the closed disk.  Requires
    M >= 8*(nmax+1); returns [a_0, ..., a_nmax].
    """
    _check_unit_imag(j)
    if delta <= 0.0:
        raise InputError("contour radius must be positive")
    if nmax < 0:
        raise InputError("coefficient count must be >= 0")
    if M < 8 * (nmax + 1):
        raise InputError(f"need at least {8 * (nmax + 1)} quadrature nodes "
                         f"for {nmax + 1} coefficients, got {M}")
    thetas = [2.0 * math.pi * m / M for m in range(M)]
    samples = [_eval_at(f, slice_point(z0 + delta * cmath.exp(1j * th), j))
               for th in thetas]
    n_side = samples[0].n
    coeffs = []
    inv_m = 1.0 / M
    for n in range(nmax + 1):
        acc = QMatrix.zeros(n_side)
        for th, g in zip(thetas, samples):
            w = delta ** (-n) * cmath.exp(-1j * n * th) * inv_m
            acc = acc + g.scale_right(slice_point(w, j))
        coeffs.append(acc)
    return coeffs


def taylor_eval(coeffs, z0: complex, z: complex, j: Quaternion) -> QMatrix:
    """Evaluate sum_n (z - z0)**n * a_n with the slice right action."""
    _check_unit_imag(j)
    if not coeffs:
        raise InputError("need at least one coefficient")
    n_side = coeffs[0].n
    out = QMatrix.zeros(n_side)
    w = complex(1.0, 0.0)
    for a in coeffs:
        out = out + a.scale_right(slice_point(w, j))
        w = w * (z - z0)
    return out
