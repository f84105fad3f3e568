"""Spherical series expansion of the left S-resolvent around a center q0.

With B_1 = S_left(q0), B_2 = Q(q0) and the recurrence B_{n+2} = Q(q0) @ B_n
(so B_{2k} = Q^k and B_{2k+1} = Q^k @ S_left(q0)), the left S-resolvent
admits the expansion

    S_left(q) = sum_{n>=0} (-1)**n * B_{n+1} * spherical_power(q0, n, q),

absolutely convergent on the Cassini ball of radius R = ||Q(q0)||**(-1/2)
around q0, and the pseudo-resolvent is its negated spherical derivative:

    Q(q) = sum_{n>=0} (-1)**(n+1) * B_{n+1} * d_n,

with d_n element n of quatcore.spherical_power_sderivs(q0, q).

Truncations come with a posteriori geometric tail bounds driven by
rho = ||Q(q0)|| * u * u = (u/R)**2 < 1 with u = cassini_u(q, q0), a product
that overflows only when rho does, unlike |triangle(q0, q)| = u**2, and the
truncation error itself has the exact closed form

    S_left(q) - partial_sum(2N+1)
        = Q(q0)^(N+1) @ S_left(q) * triangle(q0, q)**(N+1),

whose norm never exceeds ||S_left(q)|| * rho**(N+1).

One block engine produces every term, for every reader of the series
(converge_series_S/Q, residual_report, remainder_exact, and the
diagnostics eval_series_S and term_norms).  B_1, B_2, ... are two stacked
complex arrays on the SeriesState, extended two at a time with the QMatrix
product formula on raw arrays.  A block of indices takes its basis
quaternions from the streams of quatcore (one quaternion product per
index), its terms from one broadcast scale_right over per-index scalars,
and its partial sums from a cumulative sum of the signed terms carried on
from the previous block, so a run through N costs O(N) and its partial
sums equal those of the term-by-term definition bit for bit.  A block
holds as many indices as a block of pencils (sresolvent.block_rows).
One function, _tails, gives both series' tail bounds as scalar loops
over N with their constants hoisted (np.power can differ from Python's
** in the last bit), and the remainder's majorant reads the same rho.
Two stopping rules read the series:

- the library rule (used by converge_series_S/Q): stop at the first N
  whose tail bound is <= rtol * (1 + ||partial_N||), checked at every N in
  order.  It needs no direct resolvent at q; a Frobenius majorant of
  ||partial_N||, taken over the whole block, decides which N get an SVD,
  and those take one stacked SVD;
- the report rule (residual_report, behind `quatspec series`): stop at
  the first N with ||partial_N - S_left(q)|| <= tol against the directly
  inverted S_left(q).  Each block takes two stacked SVDs, the residuals
  and the term norms: the Frobenius majorant of each residual ends the
  residual SVD at the first row it proves <= tol, and the first residual
  <= tol ends the term SVD, so only printed rows take a term norm.
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
# certified_real_point is also read as series.certified_real_point.
from .sresolvent import (ResolventBundle, block_rows, certified_real_point,
                         resolvent_bundle)

# Default cap for adaptive truncation; exceeding it flags non-convergence
# instead of raising, so near-boundary evaluations degrade gracefully.
DEFAULT_NMAX = 200

# Relative inflation of the Frobenius majorant in the screens of the tail
# rule and of the residual report.  For a rank-one matrix the majorant
# equals the operator norm, and the SVD may round above it; the margin is
# far above that rounding for chi images up to 16 x 16.
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


def _rho(state: SeriesState, q: Quaternion) -> float:
    """rho = ||Q(q0)|| * u(q, q0)**2, the tail bounds' ratio."""
    u = cassini_u(q, state.q0)
    return state.bundle0.norm_Q * u * u


def _tails(state: SeriesState, q: Quaternion, derivative: bool):
    """Majorant of the tail beyond index N of a series at q.

    Returns the bound as a function of N, its constants hoisted (inf
    everywhere outside the convergence domain); c1 = ||S_left(q0)|| and
    rho = _rho(state, q).  Resolvent series: even terms satisfy
    ||B_{2k+1} * p_{2k}|| <= c1 * rho**k and odd terms
    ||B_{2k+2} * p_{2k+1}|| <= c2 * rho**k with c2 = ||Q|| * |q - q0|;
    summing each parity class from its first omitted index gives the
    bound.  Derivative series (derivative=True): the spherical derivatives
    grow at most polynomially against the geometric decay:
    |sderiv p_{2k}| <= 2k*c0*t**(k-1)  and
    |sderiv p_{2k+1}| <= t**k + 2k*c0**2*t**(k-1)  with c0 = |q| + |q0|
    and t = |triangle(q0, q)| (valid on and off the real axis), so the
    tail is a combination of geometric and arithmetico-geometric sums.
    """
    nq = state.bundle0.norm_Q
    rho = _rho(state, q)
    if rho >= 1.0:
        return lambda N: math.inf
    c1 = hmat.op_norm(state.bundle0.S_left)
    d = 1.0 - rho
    if not derivative:
        c2 = nq * abs(q - state.q0)

        def tail(N):  # first omitted k: N // 2 + 1 even, (N + 1) // 2 odd
            return (c1 * rho ** (N // 2 + 1) + c2 * rho ** ((N + 1) // 2)) / d
        return tail
    c0 = abs(q) + abs(state.q0)
    d2 = d ** 2
    even = 2.0 * c1 * c0 * nq
    # c0 * nq before squaring: c0**2 overflows at |q| near 1e154 while
    # the product stays small
    odd = 2.0 * (c0 * nq) * (c0 * nq)

    def arith_geo(m):  # sum_{k>=m} k * rho**(k-1)
        return rho ** (m - 1) * (m - (m - 1) * rho) / d2

    def tail(N):
        ke = N // 2 + 1
        ko = (N + 1) // 2
        return (even * arith_geo(ke) + nq * (rho ** ko / d)
                + odd * arith_geo(max(ko, 1)))
    return tail


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
    return _partial_through(state, q, False, N), _tails(state, q, False)(N)


def remainder_operators(state: SeriesState, bq: ResolventBundle, N: int):
    """The operators remainder_exact takes the norms of, in its order.

    Returns (closed form, summed error, S_left(q), partial sum to 2N+1) at
    q = bq.q: the closed form is Q(q0)^(N+1) @ S_left(q) *
    triangle(q0, q)**(N+1) with the directly inverted S_left(q) of the
    bundle, the summed error is S_left(q) - partial sum.
    """
    if N < 0:
        raise InputError("truncation index must be >= 0")
    q = bq.q
    tri = triangle(state.q0, q)
    rem_op = (state.coeff(2 * N + 2) @ bq.S_left).scale_right(qpow(tri, N + 1))
    partial = _partial_through(state, q, False, 2 * N + 1)
    return rem_op, bq.S_left - partial, bq.S_left, partial


def check_remainder(state: SeriesState, q: Quaternion, N: int, ops):
    """remainder_exact's checks on the norms of its remainder_operators.

    Takes the norms of ops with hmat.op_norms, so norms already stored
    cost nothing, and returns (closed form, summed) after both checks of
    remainder_exact.
    """
    rem, direct_err, norm_sq, norm_partial = hmat.op_norms(ops)
    scale = 1.0 + norm_sq + norm_partial + rem
    if abs(direct_err - rem) > 1e-10 * scale:
        raise QuatspecError(
            f"closed-form truncation error {rem:.6g} disagrees with the "
            f"summed truncation error {direct_err:.6g}")
    bound = norm_sq * _rho(state, q) ** (N + 1)
    if rem > bound + 1e-12 * scale:
        raise QuatspecError(
            f"truncation error {rem:.6g} exceeds its majorant {bound:.6g}")
    return rem, direct_err


def remainder_exact(state: SeriesState, bq: ResolventBundle, N: int):
    """Norms of the truncation error after the partial sum to 2N+1.

    Returns (closed form, summed): the closed form is
    ||Q(q0)^(N+1) @ S_left(q) * triangle(q0, q)**(N+1)|| at q = bq.q with
    the directly inverted S_left(q) of the bundle, the summed one is
    ||S_left(q) - partial sum||.  The two are checked against each other,
    and the closed form against its majorant
    ||S_left(q)|| * rho**(N+1); a failure of either
    internal consistency check raises QuatspecError.  The four norms
    (remainder_operators) take one stacked SVD; a caller with more norms
    to take can stack them with its own and call check_remainder.
    """
    return check_remainder(state, bq.q, N, remainder_operators(state, bq, N))


def _majorants(a1, a2) -> np.ndarray:
    """(1 + SCREEN_MARGIN) * sqrt(||a1||_F**2 + ||a2||_F**2) per matrix.

    Each is at least the operator norm of its matrix of the stacked pair
    (see tail_rule) while the squares of the entries are normal doubles;
    a square that overflows gives inf, and squares of entries below about
    1e-154 lose precision or vanish, so a majorant may then fall short.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return (1.0 + SCREEN_MARGIN) * np.sqrt(np.sum(
            a1.real ** 2 + a1.imag ** 2 + a2.real ** 2 + a2.imag ** 2,
            axis=(1, 2)))


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
    rows = np.flatnonzero(~(t > rtol * (1.0 + _majorants(p1, p2))))
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
    The run also stops, unconverged, before the first partial sum that is
    not finite (a term that is not finite makes its partial sum so), and
    returns the last finite one: partial_0 = B_1 is finite, or its norm
    would have failed above.
    """
    require_inside(state, q)
    if nmax < 0:
        return QMatrix.zeros(state.A.n), math.inf, nmax, False
    tail = _tails(state, q, derivative)
    tails = []
    first = rtol * (1.0 + hmat.op_norm(state.bundle0.S_left) + tail(0))

    def ends(lo, hi):
        return _scan(tail, tails, lo, hi, rtol if lo else first)

    for lo, _, _, p1, p2 in _blocks(state, q, derivative, nmax, ends):
        k = hmat.finite_rows(p1, p2)
        i = tail_rule(np.array(tails[lo:lo + k]), rtol, p1[:k], p2[:k])
        if i is not None:
            return QMatrix(p1[i], p2[i]), tails[lo + i], lo + i, True
        if k:
            last = lo + k - 1, p1[k - 1], p2[k - 1]
        if k < len(p1):
            break
    N, a1, a2 = last
    return QMatrix(a1, a2), tails[N], N, False


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
    """Rows [N, ||term_N||, _tails(state, q, False)(N), ||partial_N - direct||].

    The report rule: rows run from N = 0 until the residual against the
    directly inverted resolvent `direct` drops to tol, or through nmax.
    Returns (rows, converged).  The residual is at most about that tail
    bound, so the first block ends where that reaches tol, and
    each later block doubles the rows so far.

    A block takes two stacked SVDs, the residuals and the term norms.  Its
    residuals are screened by their Frobenius majorants (see tail_rule):
    the first row whose majorant is <= tol has a residual <= tol, so the
    residual SVD runs through that row, and the term SVD through the
    first residual <= tol among them.  Where squares of tiny entries
    underflow, a majorant can pass a row that the SVD does not; the
    block then takes the residuals of its remaining rows before it
    decides.  Every number is the row's own stacked SVD, whatever the
    screen decides.  No domain gate.  The rows also end, unconverged,
    before the first residual that is not finite, which a term or partial
    sum that is not finite makes so: no SVD is taken of such a matrix.
    """
    rows = []
    if nmax < 0:
        return rows, False
    tail = _tails(state, q, False)
    tails = []

    def ends(lo, hi):
        if lo:
            return _scan(tail, tails, lo, min(hi, 2 * lo), -math.inf)
        return _scan(tail, tails, lo, hi, tol)

    for lo, t1, t2, p1, p2 in _blocks(state, q, False, nmax, ends):
        with np.errstate(over="ignore", invalid="ignore"):
            d1, d2 = p1 - direct.a1, p2 - direct.a2
        # A term that is not finite makes its partial sum, and so its
        # residual, not finite: rows before k are finite throughout.
        k = hmat.finite_rows(d1, d2)
        if not k:
            break
        passed = np.flatnonzero(_majorants(d1[:k], d2[:k]) <= tol)
        cut = int(passed[0]) + 1 if len(passed) else k
        residuals = list(hmat.pair_op_norms(d1[:cut], d2[:cut]))
        if cut < k and not min(residuals) <= tol:
            residuals += hmat.pair_op_norms(d1[cut:k], d2[cut:k])
        m = next((i + 1 for i, r in enumerate(residuals) if r <= tol), k)
        rows += ([n, norm, tails[n], r] for n, norm, r in zip(
            range(lo, lo + m), hmat.pair_op_norms(t1[:m], t2[:m]),
            residuals))
        if rows[-1][3] <= tol:
            return rows, True
        if k < len(d1):
            break
    return rows, False


def term_norms(state: SeriesState, q: Quaternion, N: int):
    """Norms of the unsigned series terms for n = 0..N (decay diagnostics)."""
    out = []
    for _, t1, t2, _, _ in _blocks(state, q, False, N):
        out += hmat.pair_op_norms(t1, t2)
    return out
