"""Spherical series expansion of the left S-resolvent around a center q0.

With B_1 = S_left(q0), B_2 = Q(q0), B_{2k} = Q^k and B_{2k+1} =
Q^k @ S_left(q0), the left S-resolvent admits the expansion

    S_left(q) = sum_{n>=0} (-1)**n * B_{n+1} * spherical_power(q0, n, q),

absolutely convergent on the Cassini ball of radius R = ||Q(q0)||**(-1/2)
around q0, and the pseudo-resolvent is its negated spherical derivative:

    Q(q) = sum_{n>=0} (-1)**(n+1) * B_{n+1} * d_n,

with d_n the spherical derivative of spherical_power(q0, n, .) at q
(quatcore.spherical_power_sderiv_floats).

Truncations come with a posteriori geometric tail bounds driven by
rho = ||Q(q0)|| * u * u = (u/R)**2 < 1 with u = cassini_u(q, q0), a product
that overflows only when rho does, unlike |triangle(q0, q)| = u**2, and the
truncation error itself has the exact closed form

    S_left(q) - partial_sum(2N+1)
        = Q(q0)^(N+1) @ S_left(q) * triangle(q0, q)**(N+1),

whose norm never exceeds ||S_left(q)|| * rho**(N+1).

One block arithmetic produces every term, for every reader of the series
(converge_series_S/Q, residual_report, remainder_exact, verify, and the
diagnostics eval_series_S and term_norms).  B_1, B_2, ... are two stacked
complex arrays, extended by doubling, B_n = B_h @ B_{n-h} with h the
largest power of two below n, so the indices h+1..2h are one stacked
QMatrix product on raw arrays and B_1..B_m take about log2(m) products,
for one expansion or many at once (series_states); B_n has the
same bits however the store was extended.  One stepper, _Series,
advances every series: it holds the series' basis stream of quatcore
(one quaternion product per index, in plain floats that a block reads
straight into its array), its sign parity, its carried partial sum and
its cursor.  A block takes its terms from one broadcast scale_right
over per-index scalars and its partial sums from a cumulative sum of
the signed terms carried on from the previous block, so a run through N
costs O(N) and its partial sums equal those of the term-by-term
definition bit for bit (_block_sums, for one block or a stack).  The
report rule runs one _Series a block at a time (_blocks), a block
holding as many indices as a block of pencils
(sresolvent.block_rows); the library rule runs a stack (_stack_block),
each series with its own tail bound and stop, all advanced together a
round at a time, one block of each per round, so a stack takes the
norms of a round's screens, and its arithmetic, once for all of them.
Every norm is one stacked call of the norm kernel
(hmat.top_singular, an eigvalsh of scaled Gram matrices).  The exact
remainder's operators (remainder_rows) are likewise formed for a stack
of expansions at once, remainder_exact being the one-expansion case.
One function, _tails, gives both series' tail bounds as scalar loops
over N with their constants hoisted (np.power can differ from Python's
** in the last bit), and the remainder's majorant reads the same rho.
Two stopping rules read the series:

- the library rule (_converge, behind converge_series_S/Q and verify):
  stop at the first N whose tail bound is <= rtol * (1 + ||partial_N||),
  checked at every N in order.  It needs no direct resolvent at q; a
  Frobenius majorant of ||partial_N||, taken over the whole round,
  decides which N get a norm, and those take one kernel call;
- the report rule (residual_report, behind `quatspec series`): stop at
  the first N with ||partial_N - S_left(q)|| <= tol against the directly
  inverted S_left(q).  Each block takes two kernel calls, the residuals
  and the term norms: the Frobenius majorant of each residual ends the
  residual norms at the first row it proves <= tol, and the first
  residual <= tol ends the term norms, so only printed rows take a term
  norm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import hmat
from .errors import InputError, OutsideConvergenceDomain, QuatspecError
from .hmat import QMatrix
from .quatcore import (Quaternion, cassini_u, qpow, spherical_power_floats,
                       spherical_power_sderiv_floats, triangle)
# certified_real_point is also read as series.certified_real_point.
from .sresolvent import (ResolventBundle, block_rows, certified_real_point,
                         resolvent_bundle)

# Default cap for adaptive truncation; exceeding it flags non-convergence
# instead of raising, so near-boundary evaluations degrade gracefully.
DEFAULT_NMAX = 200

# A round of _converge holds at most this many times block_rows(n)
# indices in all, and each series at most block_rows(n) of them, so each
# of its stacked pairs (half a chi image a row) takes at most twice
# PENCIL_BLOCK_BYTES.  One block in all would give verify's 2n series at
# n = 8 a few indices a round, and more rounds.
ROUND_BLOCKS = 4

# Relative inflation of the Frobenius majorant in the screens of the tail
# rule and of the residual report.  For a rank-one matrix the majorant
# equals the operator norm, and the norm kernel may round above it; the
# margin is far above that rounding for chi images up to 16 x 16.
SCREEN_MARGIN = 1e-12


class _Coefficients:
    """B_1, B_2, ... of T expansions, extended together.

    Kept as two stacked (count, T, n, n) complex arrays, B_n of expansion
    t at [n - 1, t], a lone expansion being T = 1.  B_1 = S_left(q0) and
    B_2 = Q are stored when the store is made; for n > 2, B_n = B_h @
    B_{n-h} with h the largest power of two below n (B_h = Q^(h/2)), so
    the indices h+1..2h are one stacked product of B_h with B_1..B_h for
    all T at once, and B_1..B_m take about log2(m) products.  B_n is a
    function of n alone: each matrix of a stacked product equals its own
    product bit for bit, so extending one index at a time, to m in one
    call, or for a stack of expansions gives the same bits.  A B_n past
    the float range is stored as it comes, without a warning: the series
    readers check their terms and partial sums for finiteness.
    """

    def __init__(self, bundles):
        self.b1 = np.array([[b.S_left.a1 for b in bundles],
                            [b.Q.a1 for b in bundles]])
        self.b2 = np.array([[b.S_left.a2 for b in bundles],
                            [b.Q.a2 for b in bundles]])
        self.count = 2

    def rows(self, m: int):
        """The stored arrays, holding at least B_1..B_m of every expansion."""
        if m > self.count:
            self._extend(m)
        return self.b1, self.b2

    def _extend(self, m: int) -> None:
        k = self.count
        if m > len(self.b1):
            cap = max(m, 2 * len(self.b1))
            grown = []
            for old in (self.b1, self.b2):
                new = np.empty((cap,) + old.shape[1:], dtype=complex)
                new[:k] = old[:k]
                grown.append(new)
            self.b1, self.b2 = grown
        b1, b2 = self.b1, self.b2
        with np.errstate(over="ignore", invalid="ignore"):
            while k < m:
                # row k holds B_(k+1); h is the largest power of two <= k
                h = 1 << (k.bit_length() - 1)
                j = min(2 * h, m)
                b1[k:j], b2[k:j] = hmat.pair_matmul(
                    b1[h - 1], b2[h - 1], b1[k - h:j - h], b2[k - h:j - h])
                k = j
        self.count = k


@dataclass
class SeriesState:
    """Expansion center data: the center's resolvent bundle, R and B_n.

    B_1, B_2, ... are expansion `row` of a coefficient store
    (_Coefficients), which series_states makes for one expansion or
    shares among many.
    """

    A: QMatrix
    bundle0: ResolventBundle
    store: _Coefficients = field(repr=False, compare=False)
    row: int = 0
    q0: Quaternion = field(init=False)
    R: float = field(init=False)

    def __post_init__(self):
        self.q0 = self.bundle0.q
        self.R = self.bundle0.radius

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
        b1, b2 = self.store.rows(hi)
        return b1[lo - 1:hi, self.row], b2[lo - 1:hi, self.row]


def series_init(A: QMatrix, q0: Quaternion) -> SeriesState:
    """Prepare an expansion around q0; B_n are computed as they are read."""
    return series_states([A], [resolvent_bundle(A, q0)])[0]


def series_states(As, bundles) -> list:
    """The SeriesState of each matrix of As (all of one size) about its
    bundle's point, their B_n in one store: reading any one's extends all
    of them, one stacked product per power of two."""
    store = _Coefficients(bundles)
    return [SeriesState(A, b, store, t)
            for t, (A, b) in enumerate(zip(As, bundles))]


class _Series:
    """One series at its own point, carried on a block at a time.

    The series of `state` at q (derivative=True: the derivative series)
    takes its basis quaternions from its own float stream of quatcore (one
    quaternion product and four floats per index), negates every other
    term, and carries its last partial sum from one of its blocks to the
    next; lo is the first index not yet taken.
    """

    def __init__(self, state: SeriesState, q: Quaternion, derivative: bool):
        self.state = state
        self.basis = (spherical_power_sderiv_floats if derivative
                      else spherical_power_floats)(state.q0, q)
        # the resolvent series subtracts its odd-indexed terms, the
        # derivative series its even ones
        self.odd = int(not derivative)
        self.lo = 0
        self.carry = (np.zeros((state.A.n, state.A.n), dtype=complex),) * 2

    def take(self, m: int):
        """The inputs of _block_sums for the next m indices, lo..lo+m-1:
        their coefficient rows (b1, b2), their (m, 4) basis quaternions and
        the column of _parity(m) that their signs read.  Advances lo."""
        lo = self.lo
        self.lo += m
        pts = np.fromiter(islice(self.basis, 4 * m), float,
                          count=4 * m).reshape(m, 4)
        return (*self.state.coeff_rows(lo + 1, lo + m), pts,
                (lo + self.odd) % 2)

    def block(self, m: int):
        """The _block_sums of the next m indices, on (m, n, n) arrays."""
        b1, b2, pts, col = self.take(m)
        out = _block_sums(b1, b2, pts, _parity(m)[:, col], self.carry)
        self.carry = out[2][-1], out[3][-1]
        return out


def _stack_block(runs, sizes):
    """The next block of each _Series of runs, sizes[j] indices of runs[j],
    as the _block_sums of one call, each (len(runs), max(sizes), n, n):
    row [j, i] holds index i of the block of runs[j], a zero term past its
    size.  One series takes its own block; a stack pads its series' inputs
    into (m, k, ...) arrays, index axis first, and hands each its carry.
    """
    if len(runs) == 1:
        return tuple(a[None] for a in runs[0].block(sizes[0]))
    m, k = max(sizes), len(runs)
    n = runs[0].state.A.n
    b1, b2 = (np.zeros((m, k, n, n), dtype=complex) for _ in (0, 1))
    pts = np.zeros((m, k, 4))
    carry = tuple(np.array(c) for c in zip(*(run.carry for run in runs)))
    cols = []
    for j, (run, size) in enumerate(zip(runs, sizes)):
        b1[:size, j], b2[:size, j], pts[:size, j], col = run.take(size)
        cols.append(col)
    out = _block_sums(b1, b2, pts, _parity(m)[:, cols], carry)
    # copies, so a series that stops keeps no block of the stack
    last = tuple(p[np.array(sizes) - 1, np.arange(k)] for p in out[2:])
    for j, run in enumerate(runs):
        run.carry = last[0][j], last[1][j]
    return tuple(a.swapaxes(0, 1) for a in out)


@functools.lru_cache(maxsize=64)
def _parity(m: int) -> np.ndarray:
    """The (m, 2, 1, 1) masks of the rows i < m with i % 2 == 0 (column 0)
    and i % 2 == 1 (column 1)."""
    return (np.arange(m)[:, None] % 2 == np.arange(2))[:, :, None, None]


def _block_sums(b1, b2, pts, neg, carry):
    """The terms and partial sums of one block of one series or a stack.

    Row i of the (m, n, n) pair (b1, b2) holds the coefficient B_{n+1},
    and of the (m, 4) array pts the basis quaternion, of index i of the
    block; the series negates the rows i where the (m, 1, 1) mask neg (a
    column of _parity(m)) is set, and starts from its carried partial
    sum, the pair carry.  A stack of k series puts an axis of length k
    after the index axis of every array, (m, k, n, n), neg (m, k, 1, 1)
    and carry (k, n, n) included, column j holding series j.  Returns (t1,
    t2, p1, p2), shaped like (b1, b2): (t1, t2) the unsigned terms
    B_{n+1} * basis[n], one broadcast scale_right over per-index scalars,
    and (p1, p2) the partial sums through each index, a cumulative sum of
    the signed terms.  Adding a negated term is subtracting it in IEEE
    arithmetic, and np.add.accumulate adds in index order, so every
    partial equals the term-by-term sum bit for bit, whatever the blocks
    and the stack.  Rows past a stopping index are computed, so overflow
    in them is not warned about.
    """
    c1, c2 = (c[..., None, None] for c in hmat.scalar_pairs(pts))
    with np.errstate(over="ignore", invalid="ignore"):
        terms = hmat.pair_scale_right(b1, b2, c1, c2)
        partials = tuple(t.copy() for t in terms)
        for p, c in zip(partials, carry):
            np.negative(p, out=p, where=neg)
            p[0] += c
            np.add.accumulate(p, axis=0, out=p)
    return (*terms, *partials)


def _blocks(state: SeriesState, q: Quaternion, derivative: bool, last: int,
            ends=lambda lo, hi: hi):
    """The series at q through index last, block by block: the one-series
    path of the report rule, term_norms and _partial_through.

    Yields (lo, t1, t2, p1, p2) for consecutive blocks n = lo..hi, the
    _Series.block of the one series: (t1, t2) stacks the unsigned terms
    and (p1, p2) the partial sums through each n.  A block takes at most
    sresolvent.block_rows(n) indices, the rule the pencils follow, which
    bounds the working memory whatever `last` is; ends(lo, hi) may end it
    sooner.  No domain gate.
    """
    run = _Series(state, q, derivative)
    cap = block_rows(state.A.n)
    while run.lo <= last:
        lo = run.lo
        hi = ends(lo, min(last, lo + cap - 1))
        yield (lo, *run.block(hi + 1 - lo))


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


def check_remainder(state: SeriesState, q: Quaternion, N: int, norms):
    """remainder_exact's checks on the norms it takes.

    norms are those of the closed form and the summed error of
    remainder_rows, of S_left(q) and of the partial sum to 2N+1 at q, in
    that order; returns (closed form, summed) after both checks of
    remainder_exact.
    """
    rem, direct_err, norm_sq, norm_partial = norms
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


def remainder_rows(states, S, qs, N: int, partial):
    """The truncation errors after the partial sum to 2N+1, per row.

    Row t is the expansion states[t] at the point q = qs[t]; S stacks the
    directly inverted S_left(q) and partial the partial sums to 2N+1 at
    these points, as complex pairs.  Returns the stacked pairs of the
    closed form Q(q0)^(N+1) @ S_left(q) * triangle(q0, q)**(N+1), that is
    B_{2N+2} @ S_left(q) * triangle(q0, q)**(N+1), and of the summed error
    S_left(q) - partial.
    """
    k = 2 * N + 2
    B = tuple(np.stack([state.coeff_rows(k, k)[c][0] for state in states])
              for c in (0, 1))
    closed = hmat.pair_scale_right(
        *hmat.pair_matmul(*B, *S), *hmat.stack_scalars(
            [qpow(triangle(state.q0, q), N + 1) for state, q in zip(states, qs)]))
    return closed, hmat.pair_sub(*S, *partial)


def remainder_exact(state: SeriesState, bq: ResolventBundle, N: int):
    """Norms of the truncation error after the partial sum to 2N+1.

    Returns (closed form, summed) of remainder_rows at q = bq.q, with the
    directly inverted S_left(q) of the bundle.  The two are checked
    against each other, and the closed form against its majorant
    ||S_left(q)|| * rho**(N+1) (check_remainder); a failure of either
    internal consistency check raises QuatspecError.  The four norms take
    one kernel call.
    """
    if N < 0:
        raise InputError("truncation index must be >= 0")
    q, S = bq.q, (bq.S_left.a1[None], bq.S_left.a2[None])
    p = _partial_through(state, q, False, 2 * N + 1)
    partial = (p.a1[None], p.a2[None])
    ops = (*remainder_rows([state], S, [q], N, partial), S, partial)
    return check_remainder(state, q, N, list(hmat.pair_op_norms(
        *(np.concatenate(part) for part in zip(*ops)))))


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


def tail_rule(t: np.ndarray, rtol: float, p1, p2) -> np.ndarray:
    """The library stopping rule t <= rtol * (1 + ||partial||), per row.

    Rows are stacked partial sums (p1, p2) with their tail bounds t;
    returns whether each passes.  Each ||partial|| takes a norm, so rows
    are screened first by the majorant
    sqrt(||a1||_F**2 + ||a2||_F**2) >= ||partial||: chi(partial) has its
    singular values in equal pairs, so twice the largest one squared is
    at most its squared Frobenius norm 2 * (||a1||_F**2 + ||a2||_F**2).
    The majorant is inflated by SCREEN_MARGIN so that rounding in either
    norm never skips a row that the exact norm would pass; the rows left
    take one kernel call, and the verdict is the unscreened one.
    """
    rows = np.flatnonzero(~(t > rtol * (1.0 + _majorants(p1, p2))))
    norms = np.fromiter(hmat.pair_op_norms(p1[rows], p2[rows]), float,
                        count=len(rows))
    passed = np.zeros(len(t), dtype=bool)
    passed[rows] = t[rows] <= rtol * (1.0 + norms)
    return passed


def _converge(runs, rtol, nmax, through=-1):
    """Sum each series of a stack until the tail rule holds for its tail
    bound.

    `runs` holds (state, q, derivative) per series, all states of one
    size.  Returns (results, kept): per series, results holds
    (partial, tail, N, converged), the partial a complex pair, and kept
    its partial sum through index `through` (None when through < 0).
    Hitting the cap nmax flags non-convergence instead of raising, so
    near-boundary evaluations degrade gracefully; a series still runs
    through `through` whatever nmax is.  The rule is checked at every N
    in order, a block of partial sums at a time, each series in its own
    blocks, and a block ends where tail(N) <= rtol, where the rule must
    pass.  A series also stops, unconverged, before its first partial sum
    that is not finite (a term that is not finite makes its partial sum
    so), and returns the last finite one: partial_0 is finite, or the
    norm of B_1 would have failed first.  The series advance together:
    each round takes one block of every series still running, at most
    block_rows(n) indices each and ROUND_BLOCKS * block_rows(n) in all,
    and the rows the screens of a round leave take one kernel call, so a
    series' N, partial and tail do not depend on the stack.
    """
    for state, q, _ in runs:
        require_inside(state, q)
    n = runs[0][0].A.n
    results = [None] * len(runs)
    kept = [None] * len(runs)
    if nmax < 0:
        zero = np.zeros((n, n), dtype=complex)
        results = [((zero, zero), math.inf, nmax, False)] * len(runs)
    else:
        hmat.op_norms([state.bundle0.S_left for state, _, _ in runs])
        tail = [_tails(state, q, derivative) for state, q, derivative in runs]
    tails = [[] for _ in runs]
    last = [None] * len(runs)
    cap = max(1, min(ROUND_BLOCKS, len(runs)) * block_rows(n) // len(runs))
    runs = [_Series(*run) for run in runs]
    active = [s for s in range(len(runs)) if results[s] is None or through >= 0]
    while active:
        sizes = []
        for s in active:
            lo = runs[s].lo
            if results[s] is None:
                hi = _scan(tail[s], tails[s], lo, min(nmax, lo + cap - 1), rtol)
            else:
                hi = min(through, lo + cap - 1)
            sizes.append(hi + 1 - lo)
        t1, t2, p1, p2 = _stack_block([runs[s] for s in active], sizes)
        # the rule reads each undecided series' rows up to its first one
        # that is not finite
        rows = np.logical_and.accumulate(
            np.isfinite(p1).all(axis=(2, 3)) & np.isfinite(p2).all(axis=(2, 3))
            & (np.arange(p1.shape[1]) < np.array(sizes)[:, None]), axis=1)
        t = np.zeros(rows.shape)
        for j, s in enumerate(active):
            if results[s] is None:
                end = runs[s].lo
                t[j, :sizes[j]] = tails[s][end - sizes[j]:end]
            else:
                rows[j] = False
        passed = np.zeros(rows.shape, dtype=bool)
        passed[rows] = tail_rule(t[rows], rtol, p1[rows], p2[rows])
        for j, s in enumerate(active):
            end = runs[s].lo
            lo = end - sizes[j]
            # copies, so a finished series keeps no block of the stack
            if lo <= through < end:
                kept[s] = p1[j, through - lo].copy(), p2[j, through - lo].copy()
            if results[s] is not None:
                continue
            if passed[j].any():
                i = int(np.argmax(passed[j]))
                results[s] = ((p1[j, i].copy(), p2[j, i].copy()),
                              tails[s][lo + i], lo + i, True)
                continue
            k = int(rows[j].sum())
            if k:
                last[s] = lo + k - 1, p1[j, k - 1].copy(), p2[j, k - 1].copy()
            if k < sizes[j] or end - 1 == nmax:
                N, a1, a2 = last[s]
                results[s] = (a1, a2), tails[s][N], N, False
        active = [s for s in active if results[s] is None or runs[s].lo <= through]
    return results, kept


def converge_series_S(state: SeriesState, q: Quaternion, rtol: float,
                      nmax: int = DEFAULT_NMAX):
    """Smallest-N resolvent-series evaluation at relative tolerance rtol."""
    (a1, a2), *rest = _converge([(state, q, False)], rtol, nmax)[0][0]
    return (QMatrix(a1, a2), *rest)


def converge_series_Q(state: SeriesState, q: Quaternion, rtol: float,
                      nmax: int = DEFAULT_NMAX):
    """Smallest-N derivative-series evaluation at relative tolerance rtol."""
    (a1, a2), *rest = _converge([(state, q, True)], rtol, nmax)[0][0]
    return (QMatrix(a1, a2), *rest)


def residual_report(state: SeriesState, q: Quaternion, direct: QMatrix,
                    tol: float, nmax: int):
    """Rows [N, ||term_N||, _tails(state, q, False)(N), ||partial_N - direct||].

    The report rule: rows run from N = 0 until the residual against the
    directly inverted resolvent `direct` drops to tol, or through nmax.
    Returns (rows, converged).  The residual is at most about that tail
    bound, so the first block ends where that reaches tol, and
    each later block doubles the rows so far.

    A block takes two kernel calls, the residuals and the term norms.
    Its residuals are screened by their Frobenius majorants (see
    tail_rule): the first row whose majorant is <= tol has a residual <=
    tol, so the residual norms run through that row, and the term norms
    through the first residual <= tol among them.  Where squares of tiny
    entries underflow, a majorant can pass a row that the norm does not;
    the block then takes the residuals of its remaining rows before it
    decides.  Every number is the row's own norm, the same bits in any
    stack, whatever the screen decides.  No domain gate.  The rows also
    end, unconverged, before the first residual that is not finite, which
    a term or partial sum that is not finite makes so: no norm is taken
    of such a matrix.
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
