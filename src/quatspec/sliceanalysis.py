"""Slice-function tools: the spherical derivative of an operator-valued
map and contour Taylor coefficients on a slice.

An operator-valued map f, here any function from a Quaternion to a QMatrix,
on an axially symmetric domain restricts, for each unit imaginary j, to a
map f_j(r + s*i) = f(r + s*j) on a complex half-plane.  Its spherical
derivative is the difference quotient of f across the sphere of a point,
and its slice Taylor coefficients are recovered by trapezoidal contour
quadrature, with complex scalars acting on operator samples by right
multiplication with r + s*j.  verify reads the spherical derivative of the
left S-resolvent, for every trial of a chunk in one sderiv_rows call.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

from . import hmat
from .errors import InputError
from .hmat import QMatrix
from .quatcore import Quaternion, qinv

# Unit imaginary directions are validated to this absolute tolerance.
UNIT_IMAG_TOL = 1e-12

# At or below the imaginary radius REAL_AXIS_CUTOFF, relative to 1 + |q|,
# the difference quotient of sderiv_operator has lost its digits.
REAL_AXIS_CUTOFF = 1e-7


def _check_unit_imag(j: Quaternion) -> None:
    if abs(j.w) > UNIT_IMAG_TOL or abs(j.im_norm() - 1.0) > UNIT_IMAG_TOL:
        raise InputError("slice direction must be a unit imaginary quaternion")


def slice_point(z: complex, j: Quaternion) -> Quaternion:
    """The embedding of the complex number z into the slice of j."""
    return Quaternion(z.real, z.imag * j.x, z.imag * j.y, z.imag * j.z)


def sderiv_factor(q: Quaternion) -> Quaternion:
    """The factor (q - conj(q))**(-1) of sderiv_operator's quotient at q.

    A point with |Im(q)| <= REAL_AXIS_CUTOFF * (1 + |q|), where the
    quotient has lost its digits, raises InputError.
    """
    if not q.im_norm() > REAL_AXIS_CUTOFF * (1.0 + abs(q)):
        raise InputError(
            f"the spherical derivative at {tuple(q)} needs |Im q| above "
            f"{REAL_AXIS_CUTOFF:g} * (1 + |q|): closer to the real axis the "
            "difference quotient has lost its digits")
    return qinv(q - q.conj())


def sderiv_rows(fq, fqc, factors):
    """Spherical derivatives (f(q) - f(conj(q))) * factor, per row.

    fq and fqc are stacked pairs of the values of f at points q and at
    their conjugates, and factors[i] the sderiv_factor of point i.
    """
    return hmat.pair_scale_right(*hmat.pair_sub(*fq, *fqc),
                                 *hmat.stack_scalars(factors))


def sderiv_operator(f: Callable[[Quaternion], QMatrix],
                    q: Quaternion) -> QMatrix:
    """Spherical derivative (f(q) - f(conj(q))) * (q - conj(q))**(-1) of f:
    the one-row sderiv_rows.

    f is a black box, so nothing avoids the division by Im(q): a point
    refused by sderiv_factor raises InputError before f is called.
    """
    factor = sderiv_factor(q)
    a, b = f(q), f(q.conj())
    d1, d2 = sderiv_rows((a.a1[None], a.a2[None]), (b.a1[None], b.a2[None]),
                         [factor])
    return QMatrix(d1[0], d2[0])


def cauchy_coeffs(f: Callable[[Quaternion], QMatrix], j: Quaternion,
                  z0: complex, delta: float, M: int, nmax: int):
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
    samples = [f(slice_point(z0 + delta * cmath.exp(1j * th), j))
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
