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

One block engine produces every term, for every reader of the series
(converge_series_S/Q, residual_report, eval_series_S/Q, remainder_exact
and term_norms).  B_1, B_2, ... are two stacked complex arrays on the
SeriesState, extended two at a time with the QMatrix product formula on
raw arrays.  A block of indices takes its basis quaternions from the
streams of quatcore (one quaternion product per index), its terms from
one broadcast scale_right over per-index scalars, and its partial sums
from a cumulative sum of the signed terms carried on from the previous
block, so a run through N costs O(N) and its partial sums equal those
of the term-by-term definition bit for bit.  A block holds as many
indices as a block of pencils (sresolvent.block_rows).  The tail bounds
stay scalar loops over N with their constants hoisted: np.power can
differ from Python's ** in the last bit.  Two stopping rules read the
series:

- the library rule (used by converge_series_S/Q): stop at the first N
  with tail_bound(N) <= rtol * (1 + ||partial_N||), checked at every N in
  order.  It needs no direct resolvent at q; a Frobenius majorant of
  ||partial_N||, taken over the whole block, decides which N get an SVD,
  and those take one stacked SVD;
- the report rule (residual_report, behind `quatspec series`): stop at
  the first N with ||partial_N - S_left(q)|| <= tol against the directly
  inverted S_left(q).  Each block takes two stacked SVDs: the residuals
  and the term norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from . import hmat
from .errors import InputError, OutsideConvergenceDomain, QuatspecError
from .hmat import QMatrix
from .quatcore import (Quaternion, cassini_u, qpow, spherical_power_sderivs,
                       spherical_powers, triangle)
from .sresolvent import ResolventBundle, block_rows, resolvent_bundle

# Default cap for adaptive truncation; exceeding it flags non-convergence
# instead of raising, so near-boundary evaluations degrade gracefully.
DEFAULT_NMAX = 200

# Relative inflation of the Frobenius majorant in the tail rule's screen.
# For a rank-one matrix the majorant equals the operator norm, and the SVD
# may round above it; the margin is far above that rounding for chi images
# up to 16 x 16.
SCREEN_MARGIN = 1e-12


@dataclass
class SeriesState:
    """Expansion center data: the center's resolvent bundle, R and B_n.

    B_1, B_2, ... are kept as two stacked complex arrays, B_n at row n - 1,
    extended two rows at a time by the recurrence.
    """

    A: QMatrix
    bundle0: ResolventBundle
    q0: Quaternion = field(init=False)
    R: float = field(init=False)

    def __post_init__(self):
        self.q0 = self.bundle0.q
        self.R = self.bundle0.radius
        self._b1 = self._b2 = np.empty((0, self.A.n, self.A.n), dtype=complex)
        self._count = 0

    def coeff(self, n: int) -> QMatrix:
        """B_n (1-indexed), extending the stored recurrence as needed."""
        if n < 1:
            raise InputError("series coefficients are indexed from 1")
        b1, b2 = self.coeff_rows(n, n)
        return QMatrix(b1[0], b2[0])

    def coeff_rows(self, lo: int, hi: int):
        """B_lo..B_hi as two stacked (hi - lo + 1, n, n) arrays.

        The arrays are views of the stored rows: read them, never write.
        """
        if hi > self._count:
            self._extend(hi)
        return self._b1[lo - 1:hi], self._b2[lo - 1:hi]

    def _extend(self, m: int) -> None:
        """Store B_1..B_m: B_1 = S_left(q0), B_2 = Q, B_{k+2} = Q @ B_k."""
        k = self._count
        if m > len(self._b1):
            cap = max(m, 2 * len(self._b1))
            grown = []
            for old in (self._b1, self._b2):
                new = np.empty((cap,) + old.shape[1:], dtype=complex)
                new[:k] = old[:k]
                grown.append(new)
            self._b1, self._b2 = grown
        b1, b2 = self._b1, self._b2
        Q = self.bundle0.Q
        for i, B in ((0, self.bundle0.S_left), (1, Q)):
            if k == i < m:
                b1[i], b2[i] = B.a1, B.a2
                k += 1
        while k < m:
            j = min(k + 2, m)
            b1[k:j], b2[k:j] = hmat.pair_matmul(Q.a1, Q.a2, b1[k - 2:j - 2],
                                                b2[k - 2:j - 2])
            k = j
        self._count = k


def certified_real_point(A: QMatrix) -> Quaternion:
    """The real point 2*(1 + ||A||), always in the resolvent set.

    At a real center r the pencil is (A - r*I)**2, and r exceeds ||A|| by
    at least 2, so the pencil's smallest singular value is at least 4.
    """
    return Quaternion(2.0 * (1.0 + hmat.op_norm(A)))


def series_init(A: QMatrix, q0: Quaternion) -> SeriesState:
    """Prepare an expansion around q0; B_n are computed as they are read."""
    return SeriesState(A, resolvent_bundle(A, q0))


def _blocks(state: SeriesState, q: Quaternion, derivative: bool, last: int,
            ends=lambda lo, hi: hi):
    """The series at q through index last, block by block.

    Yields (lo, t1, t2, p1, p2) for consecutive blocks n = lo..hi: (t1, t2)
    stacks the unsigned terms B_{n+1} * basis[n], one broadcast scale_right
    over per-index scalars, and (p1, p2) the partial sums through each n,
    a cumulative sum of the signed terms on top of the previous block's
    last partial.  The resolvent series (basis spherical_powers) subtracts
    the odd-indexed terms, the derivative series (derivative=True, basis
    spherical_power_sderivs) the even ones.  Adding a negated term is
    subtracting it in IEEE arithmetic, and np.add.accumulate adds in index
    order, so every partial equals the term-by-term sum bit for bit.

    A block takes at most sresolvent.block_rows(n) indices, the rule the
    pencils follow, which bounds the working memory whatever `last` is;
    ends(lo, hi) may end it sooner.
    Rows past a stopping index are computed, so overflow in them is not
    warned about.  No domain gate.
    """
    basis = (spherical_power_sderivs if derivative else spherical_powers)(
        state.q0, q)
    n = state.A.n
    cap = block_rows(n)
    carry = (np.zeros((n, n), dtype=complex),) * 2
    lo = 0
    while lo <= last:
        hi = ends(lo, min(last, lo + cap - 1))
        m = hi + 1 - lo
        pts = np.fromiter(chain.from_iterable(islice(basis, m)), float,
                          count=4 * m).reshape(m, 4)
        c1, c2 = (c[:, None, None] for c in hmat.scalar_pairs(pts))
        neg = slice((lo + (not derivative)) % 2, None, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = hmat.pair_scale_right(*state.coeff_rows(lo + 1, hi + 1),
                                          c1, c2)
            partials = tuple(t.copy() for t in terms)
            for p, c in zip(partials, carry):
                np.negative(p[neg], out=p[neg])
                p[0] += c
                np.add.accumulate(p, axis=0, out=p)
        carry = (partials[0][-1], partials[1][-1])
        yield (lo, *terms, *partials)
        lo = hi + 1


def _partial_through(state: SeriesState, q: Quaternion, derivative: bool,
                     N: int) -> QMatrix:
    """The partial sum of a series through index N >= 0."""
    for _, _, _, p1, p2 in _blocks(state, q, derivative, N):
        pass
    return QMatrix(p1[-1], p2[-1])


def require_inside(state: SeriesState, q: Quaternion) -> float:
    """u(q, q0); raises OutsideConvergenceDomain unless it is below R."""
    u = cassini_u(q, state.q0)
    if not u < state.R:
        raise OutsideConvergenceDomain(
            f"u(q, q0) = {u:.6g} is not inside the convergence radius "
            f"R = {state.R:.6g}")
    return u


def _tails_S(state: SeriesState, q: Quaternion):
    """tail_bound_S(state, q, .) as a function of N, constants hoisted."""
    nq = state.bundle0.norm_Q
    rho = nq * abs(triangle(state.q0, q))
    if rho >= 1.0:
        return lambda N: math.inf
    c1 = hmat.op_norm(state.bundle0.S_left)
    c2 = nq * abs(q - state.q0)
    d = 1.0 - rho

    def tail(N):
        # the first omitted even term has k = N // 2 + 1, odd k = (N + 1) // 2
        return (c1 * rho ** (N // 2 + 1) + c2 * rho ** ((N + 1) // 2)) / d
    return tail


def tail_bound_S(state: SeriesState, q: Quaternion, N: int) -> float:
    """Geometric majorant of the resolvent-series tail beyond index N.

    Even terms satisfy ||B_{2k+1} * p_{2k}|| <= c1 * rho**k and odd terms
    ||B_{2k+2} * p_{2k+1}|| <= c2 * rho**k with c1 = ||S_left(q0)||,
    c2 = ||Q|| * |q - q0| and rho = ||Q|| * |triangle(q0, q)|; summing each
    parity class from its first omitted index gives the bound.
    """
    return _tails_S(state, q)(N)


def _tails_Q(state: SeriesState, q: Quaternion):
    """tail_bound_Q(state, q, .) as a function of N, constants hoisted."""
    nq = state.bundle0.norm_Q
    rho = nq * abs(triangle(state.q0, q))
    if rho >= 1.0:
        return lambda N: math.inf
    c0 = abs(q) + abs(state.q0)
    c1 = hmat.op_norm(state.bundle0.S_left)
    d = 1.0 - rho
    d2 = d ** 2
    even = 2.0 * c1 * c0 * nq
    odd = 2.0 * c0 * c0 * nq * nq

    def arith_geo(m):  # sum_{k>=m} k * rho**(k-1)
        return rho ** (m - 1) * (m - (m - 1) * rho) / d2

    def tail(N):
        ke = N // 2 + 1
        ko = (N + 1) // 2
        return (even * arith_geo(ke) + nq * (rho ** ko / d)
                + odd * arith_geo(max(ko, 1)))
    return tail


def tail_bound_Q(state: SeriesState, q: Quaternion, N: int) -> float:
    """Majorant of the derivative-series tail beyond index N.

    The spherical derivatives grow at most polynomially against the
    geometric decay:  |sderiv p_{2k}| <= 2k*c0*t**(k-1)  and
    |sderiv p_{2k+1}| <= t**k + 2k*c0**2*t**(k-1)  with c0 = |q| + |q0|
    and t = |triangle(q0, q)| (valid on and off the real axis), so the
    tail is a combination of geometric and arithmetico-geometric sums.
    """
    return _tails_Q(state, q)(N)


def _scan(tail, tails: list, lo: int, hi: int, bar: float) -> int:
    """Append tail(N) for N = lo..hi to tails, stopping at one <= bar.

    Returns the last N appended.
    """
    for N in range(lo, hi + 1):
        tails.append(tail(N))
        if tails[-1] <= bar:
            return N
    return hi


def eval_series_S(state: SeriesState, q: Quaternion, N: int):
    """Partial sum of the resolvent series through index N, with tail bound.

    Requires q strictly inside the Cassini ball of convergence; raises
    OutsideConvergenceDomain otherwise.
    """
    if N < 0:
        raise InputError("truncation index must be >= 0")
    require_inside(state, q)
    return _partial_through(state, q, False, N), tail_bound_S(state, q, N)


def eval_series_Q(state: SeriesState, q: Quaternion, N: int):
    """Partial sum of the derivative series through index N, with tail bound."""
    if N < 0:
        raise InputError("truncation index must be >= 0")
    require_inside(state, q)
    return _partial_through(state, q, True, N), tail_bound_Q(state, q, N)


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

    partial = _partial_through(state, q, False, 2 * N + 1)
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


def tail_rule(t: np.ndarray, rtol: float, p1, p2):
    """The library stopping rule t <= rtol * (1 + ||partial||) on a block.

    Rows are stacked partial sums (p1, p2) with their tail bounds t;
    returns the first row that passes, or None.  Each ||partial|| takes
    an SVD, so rows are screened first by the majorant
    sqrt(||a1||_F**2 + ||a2||_F**2) >= ||partial||: chi(partial) has its
    singular values in equal pairs, so twice the largest one squared is
    at most its squared Frobenius norm 2 * (||a1||_F**2 + ||a2||_F**2).
    The majorant is inflated by SCREEN_MARGIN so that rounding in either
    norm never skips a row that the exact norm would pass; the rows left
    take one stacked SVD, and the verdict is the unscreened one.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        frob = np.sqrt(np.sum(p1.real ** 2 + p1.imag ** 2 + p2.real ** 2
                              + p2.imag ** 2, axis=(1, 2)))
    rows = np.flatnonzero(~(t > rtol * (1.0 + (1.0 + SCREEN_MARGIN) * frob)))
    for i, norm in zip(rows.tolist(),
                       hmat.pair_op_norms(p1[rows], p2[rows])):
        if t[i] <= rtol * (1.0 + norm):
            return i
    return None


def _converge(state, q, rtol, nmax, derivative):
    """Sum terms until the tail rule holds for the series' tail bound.

    Returns (partial, tail, N, converged); hitting the cap nmax flags
    non-convergence instead of raising, so near-boundary evaluations
    degrade gracefully.  The rule is checked at every N in order, a block
    of partial sums at a time.  ||partial_N|| is at most
    ||B_1|| + tail(0), so the first block ends where the rule could first
    pass; every later block ends where tail(N) <= rtol, where it must.
    """
    require_inside(state, q)
    if nmax < 0:
        return QMatrix.zeros(state.A.n), math.inf, nmax, False
    tail = (_tails_Q if derivative else _tails_S)(state, q)
    tails = []
    first = rtol * (1.0 + hmat.op_norm(state.bundle0.S_left) + tail(0))

    def ends(lo, hi):
        return _scan(tail, tails, lo, hi, rtol if lo else first)

    for lo, _, _, p1, p2 in _blocks(state, q, derivative, nmax, ends):
        i = tail_rule(np.array(tails[lo:]), rtol, p1, p2)
        if i is not None:
            return QMatrix(p1[i], p2[i]), tails[lo + i], lo + i, True
    return QMatrix(p1[-1], p2[-1]), tails[nmax], nmax, False


def converge_series_S(state: SeriesState, q: Quaternion, rtol: float,
                      nmax: int = DEFAULT_NMAX):
    """Smallest-N resolvent-series evaluation at relative tolerance rtol."""
    return _converge(state, q, rtol, nmax, False)


def converge_series_Q(state: SeriesState, q: Quaternion, rtol: float,
                      nmax: int = DEFAULT_NMAX):
    """Smallest-N derivative-series evaluation at relative tolerance rtol."""
    return _converge(state, q, rtol, nmax, True)


def residual_report(state: SeriesState, q: Quaternion, direct: QMatrix,
                    tol: float, nmax: int):
    """Rows [N, ||term_N||, tail_bound_S(N), ||partial_N - direct||].

    The report rule: rows run from N = 0 until the residual against the
    directly inverted resolvent `direct` drops to tol, or through nmax.
    Returns (rows, converged).  The residual is at most about
    tail_bound_S(N), so the first block ends where that reaches tol, and
    each later block doubles the rows so far.  Two stacked SVDs per block;
    no domain gate.
    """
    rows = []
    if nmax < 0:
        return rows, False
    tail = _tails_S(state, q)
    tails = []

    def ends(lo, hi):
        if lo:
            return _scan(tail, tails, lo, min(hi, 2 * lo), -math.inf)
        return _scan(tail, tails, lo, hi, tol)

    for lo, t1, t2, p1, p2 in _blocks(state, q, False, nmax, ends):
        norms = hmat.pair_op_norms(t1, t2)
        for n, residual in enumerate(
                hmat.pair_op_norms(p1 - direct.a1, p2 - direct.a2), lo):
            rows.append([n, next(norms), tails[n], residual])
            if residual <= tol:
                return rows, True
    return rows, False


def term_norms(state: SeriesState, q: Quaternion, N: int):
    """Norms of the unsigned series terms for n = 0..N (decay diagnostics)."""
    out = []
    for _, t1, t2, _, _ in _blocks(state, q, False, N):
        out += hmat.pair_op_norms(t1, t2)
    return out
