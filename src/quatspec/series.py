"""Spherical series expansion of the left S-resolvent around a center q0.

With B_1 = S_left(q0), B_2 = Q(q0) and the recurrence B_{n+2} = Q(q0) @ B_n
(so B_{2k} = Q^k and B_{2k+1} = Q^k @ S_left(q0)), the left S-resolvent
admits the expansion

    S_left(q) = sum_{n>=0} (-1)**n * B_{n+1} * spherical_power(q0, n, q),

absolutely convergent on the Cassini ball of radius R = ||Q(q0)||**(-1/2)
around q0, and the pseudo-resolvent is its negated spherical derivative:

    Q(q) = sum_{n>=0} (-1)**(n+1) * B_{n+1} * spherical_power_sderiv(q0, n, q).

Truncations come with a posteriori geometric tail bounds driven by
rho = ||Q(q0)|| * |triangle(q0, q)| = (u(q, q0)/R)**2 < 1, and the
truncation error itself has the exact closed form

    S_left(q) - partial_sum(2N+1)
        = Q(q0)^(N+1) @ S_left(q) * triangle(q0, q)**(N+1),

whose norm never exceeds ||S_left(q)|| * rho**(N+1).

One engine produces every term: terms_S and terms_Q stream
(n, term, partial sum through n) over the basis streams of quatcore, one
quaternion product and one coefficient per index, so a run through N
costs O(N) and its partial sums equal those of the term-by-term
definition bit for bit.  Two stopping rules read the S stream:

- the library rule (tail_rule, used by converge_series_S/Q): stop at the
  first N with tail_bound(N) <= rtol * (1 + ||partial_N||).  It needs no
  direct resolvent at q, and its SVD runs only when a Frobenius majorant
  of ||partial_N|| lets the test pass;
- the report rule (residual_report, behind `quatspec series`): stop at
  the first N with ||partial_N - S_left(q)|| <= tol against the directly
  inverted S_left(q).  Each row takes two SVDs: that residual and the
  norm of term N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import hmat
from .errors import InputError, OutsideConvergenceDomain, QuatspecError
from .hmat import QMatrix
from .quatcore import (Quaternion, cassini_u, qpow, spherical_power_sderivs,
                       spherical_powers, triangle)
from .sresolvent import ResolventBundle, resolvent_bundle

# Default cap for adaptive truncation; exceeding it flags non-convergence
# instead of raising, so near-boundary evaluations degrade gracefully.
DEFAULT_NMAX = 200

# Relative inflation of the Frobenius majorant in tail_rule.  For a rank-one
# matrix the majorant equals the operator norm, and the SVD may round above
# it; the margin is far above that rounding for chi images up to 16 x 16.
SCREEN_MARGIN = 1e-12


@dataclass
class SeriesState:
    """Expansion center data: resolvent bundle, radius, coefficient cache."""

    A: QMatrix
    q0: Quaternion
    bundle0: ResolventBundle
    R: float
    coeffs: list = field(default_factory=list)  # coeffs[i] is B_{i+1}

    def coeff(self, n: int) -> QMatrix:
        """B_n (1-indexed), extending the cached recurrence as needed."""
        if n < 1:
            raise InputError("series coefficients are indexed from 1")
        while len(self.coeffs) < n:
            k = len(self.coeffs)
            if k == 0:
                self.coeffs.append(self.bundle0.S_left)
            elif k == 1:
                self.coeffs.append(self.bundle0.Q)
            else:
                self.coeffs.append(self.bundle0.Q @ self.coeffs[k - 2])
        return self.coeffs[n - 1]


def certified_real_point(A: QMatrix) -> Quaternion:
    """The real point 2*(1 + ||A||), always in the resolvent set.

    At a real center r the pencil is (A - r*I)**2, and r exceeds ||A|| by
    at least 2, so the pencil's smallest singular value is at least 4.
    """
    return Quaternion(2.0 * (1.0 + hmat.op_norm(A)))


def series_init(A: QMatrix, q0: Quaternion, N: int) -> SeriesState:
    """Prepare an expansion around q0 with coefficients through B_{N+1}."""
    if N < 0:
        raise InputError("coefficient count must be >= 0")
    bundle0 = resolvent_bundle(A, q0)
    state = SeriesState(A=A, q0=q0, bundle0=bundle0,
                        R=bundle0.norm_Q ** -0.5)
    state.coeff(max(N + 1, 1))
    return state


def _accumulate(state: SeriesState, basis, odd_negative: bool):
    """(n, term, partial) for n = 0, 1, ... over one basis stream.

    term is the unsigned B_{n+1} * basis[n]; the partial sum through n
    subtracts the odd-indexed terms if odd_negative, else the even ones.
    """
    partial = QMatrix.zeros(state.A.n)
    for n, p in enumerate(basis):
        term = state.coeff(n + 1).scale_right(p)
        if (n % 2 == 1) == odd_negative:
            partial = partial - term
        else:
            partial = partial + term
        yield n, term, partial


def terms_S(state: SeriesState, q: Quaternion):
    """The resolvent series at q as an endless (n, term, partial) stream.

    term = B_{n+1} * spherical_power(q0, n, q) and partial is the
    alternating sum of the terms 0..n.  No domain gate.
    """
    return _accumulate(state, spherical_powers(state.q0, q), True)


def terms_Q(state: SeriesState, q: Quaternion):
    """The derivative series at q as an endless (n, term, partial) stream.

    term = B_{n+1} * spherical_power_sderiv(q0, n, q); the partial sum
    carries the sign (-1)**(n+1).  No domain gate.
    """
    return _accumulate(state, spherical_power_sderivs(state.q0, q), False)


def _through(terms, N: int) -> QMatrix:
    """The partial sum of a term stream through index N >= 0."""
    for n, _, partial in terms:
        if n == N:
            return partial


def require_inside(state: SeriesState, q: Quaternion) -> float:
    """u(q, q0); raises OutsideConvergenceDomain unless it is below R."""
    u = cassini_u(q, state.q0)
    if not u < state.R:
        raise OutsideConvergenceDomain(
            f"u(q, q0) = {u:.6g} is not inside the convergence radius "
            f"R = {state.R:.6g}")
    return u


def tail_bound_S(state: SeriesState, q: Quaternion, N: int) -> float:
    """Geometric majorant of the resolvent-series tail beyond index N.

    Even terms satisfy ||B_{2k+1} * p_{2k}|| <= c1 * rho**k and odd terms
    ||B_{2k+2} * p_{2k+1}|| <= c2 * rho**k with c1 = ||S_left(q0)||,
    c2 = ||Q|| * |q - q0| and rho = ||Q|| * |triangle(q0, q)|; summing each
    parity class from its first omitted index gives the bound.
    """
    nq = state.bundle0.norm_Q
    rho = nq * abs(triangle(state.q0, q))
    if rho >= 1.0:
        return float("inf")
    c1 = hmat.op_norm(state.bundle0.S_left)
    c2 = nq * abs(q - state.q0)
    ke = N // 2 + 1          # first omitted even term has k = ke
    ko = (N + 1) // 2        # first omitted odd  term has k = ko
    return (c1 * rho ** ke + c2 * rho ** ko) / (1.0 - rho)


def tail_bound_Q(state: SeriesState, q: Quaternion, N: int) -> float:
    """Majorant of the derivative-series tail beyond index N.

    The spherical derivatives grow at most polynomially against the
    geometric decay:  |sderiv p_{2k}| <= 2k*c0*t**(k-1)  and
    |sderiv p_{2k+1}| <= t**k + 2k*c0**2*t**(k-1)  with c0 = |q| + |q0|
    and t = |triangle(q0, q)| (valid on and off the real axis), so the
    tail is a combination of geometric and arithmetico-geometric sums.
    """
    nq = state.bundle0.norm_Q
    rho = nq * abs(triangle(state.q0, q))
    if rho >= 1.0:
        return float("inf")
    c0 = abs(q) + abs(state.q0)
    c1 = hmat.op_norm(state.bundle0.S_left)

    def geo(m):  # sum_{k>=m} rho**k
        return rho ** m / (1.0 - rho)

    def arith_geo(m):  # sum_{k>=m} k * rho**(k-1)
        return rho ** (m - 1) * (m - (m - 1) * rho) / (1.0 - rho) ** 2

    ke = N // 2 + 1
    ko = (N + 1) // 2
    return (2.0 * c1 * c0 * nq * arith_geo(ke)
            + nq * geo(ko)
            + 2.0 * c0 * c0 * nq * nq * arith_geo(max(ko, 1)))


def eval_series_S(state: SeriesState, q: Quaternion, N: int):
    """Partial sum of the resolvent series through index N, with tail bound.

    Requires q strictly inside the Cassini ball of convergence; raises
    OutsideConvergenceDomain otherwise.
    """
    if N < 0:
        raise InputError("truncation index must be >= 0")
    require_inside(state, q)
    return _through(terms_S(state, q), N), tail_bound_S(state, q, N)


def eval_series_Q(state: SeriesState, q: Quaternion, N: int):
    """Partial sum of the derivative series through index N, with tail bound."""
    if N < 0:
        raise InputError("truncation index must be >= 0")
    require_inside(state, q)
    return _through(terms_Q(state, q), N), tail_bound_Q(state, q, N)


def remainder_exact(state: SeriesState, bq: ResolventBundle, N: int):
    """Norms of the truncation error after the partial sum to 2N+1.

    Returns (closed form, summed): the closed form is
    ||Q(q0)^(N+1) @ S_left(q) * triangle(q0, q)**(N+1)|| at q = bq.q with
    the directly inverted S_left(q) of the bundle, the summed one is
    ||S_left(q) - partial sum||.  The two are checked against each other,
    and the closed form against its majorant
    ||S_left(q)|| * (||Q|| * |triangle|)**(N+1); a failure of either
    internal consistency check raises QuatspecError.
    """
    if N < 0:
        raise InputError("truncation index must be >= 0")
    q = bq.q
    tri = triangle(state.q0, q)
    rem_op = (state.coeff(2 * N + 2) @ bq.S_left).scale_right(qpow(tri, N + 1))
    rem = hmat.op_norm(rem_op)

    partial = _through(terms_S(state, q), 2 * N + 1)
    direct_err = hmat.op_norm(bq.S_left - partial)
    norm_sq = hmat.op_norm(bq.S_left)
    scale = 1.0 + norm_sq + hmat.op_norm(partial) + rem
    if abs(direct_err - rem) > 1e-10 * scale:
        raise QuatspecError(
            f"closed-form truncation error {rem:.6g} disagrees with the "
            f"summed truncation error {direct_err:.6g}")
    bound = norm_sq * (abs(tri) * state.bundle0.norm_Q) ** (N + 1)
    if rem > bound + 1e-12 * scale:
        raise QuatspecError(
            f"truncation error {rem:.6g} exceeds its majorant {bound:.6g}")
    return rem, direct_err


def tail_rule(t: float, rtol: float, partial: QMatrix) -> bool:
    """The library stopping rule t <= rtol * (1 + ||partial||).

    ||partial|| takes an SVD, so it is screened first by the majorant
    sqrt(||a1||_F**2 + ||a2||_F**2) >= ||partial||: chi(partial) has its
    singular values in equal pairs, so twice the largest one squared is
    at most its squared Frobenius norm 2 * (||a1||_F**2 + ||a2||_F**2).
    The majorant is inflated by SCREEN_MARGIN so that rounding in either
    norm never skips a test that the exact norm would pass; the verdict
    is the unscreened one.
    """
    frob = math.hypot(np.linalg.norm(partial.a1), np.linalg.norm(partial.a2))
    if t > rtol * (1.0 + (1.0 + SCREEN_MARGIN) * frob):
        return False
    return t <= rtol * (1.0 + hmat.op_norm(partial))


def _converge(state, q, rtol, nmax, terms, tail):
    """Consume terms until the tail rule holds for tail(state, q, N).

    Returns (partial, tail, N, converged); hitting the cap nmax flags
    non-convergence instead of raising, so near-boundary evaluations
    degrade gracefully.
    """
    require_inside(state, q)
    partial = QMatrix.zeros(state.A.n)
    t = float("inf")
    for n, _, partial in islice(terms, max(nmax + 1, 0)):
        t = tail(state, q, n)
        if tail_rule(t, rtol, partial):
            return partial, t, n, True
    return partial, t, nmax, False


def converge_series_S(state: SeriesState, q: Quaternion, rtol: float,
                      nmax: int = DEFAULT_NMAX):
    """Smallest-N resolvent-series evaluation at relative tolerance rtol."""
    return _converge(state, q, rtol, nmax, terms_S(state, q), tail_bound_S)


def converge_series_Q(state: SeriesState, q: Quaternion, rtol: float,
                      nmax: int = DEFAULT_NMAX):
    """Smallest-N derivative-series evaluation at relative tolerance rtol."""
    return _converge(state, q, rtol, nmax, terms_Q(state, q), tail_bound_Q)


def residual_report(state: SeriesState, q: Quaternion, direct: QMatrix,
                    tol: float, nmax: int):
    """Rows [N, ||term_N||, tail_bound_S(N), ||partial_N - direct||].

    The report rule: rows run from N = 0 until the residual against the
    directly inverted resolvent `direct` drops to tol, or through nmax.
    Returns (rows, converged).  Two SVDs per row; no domain gate.
    """
    rows = []
    for n, term, partial in islice(terms_S(state, q), max(nmax + 1, 0)):
        residual = hmat.op_norm(partial - direct)
        rows.append([n, hmat.op_norm(term), tail_bound_S(state, q, n),
                     residual])
        if residual <= tol:
            return rows, True
    return rows, False


def term_norms(state: SeriesState, q: Quaternion, N: int):
    """Norms of the unsigned series terms for n = 0..N (decay diagnostics)."""
    return [hmat.op_norm(term)
            for _, term, _ in islice(terms_S(state, q), max(N + 1, 0))]
