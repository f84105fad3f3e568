"""Oracles the tests read and the package does not use.

Each is a direct computation of a quantity the tests check against; it is
kept here, beside the tests, rather than in the package's public API.
"""

import math
from typing import Callable, NamedTuple

import numpy as np

from quatspec import hmat, series, sresolvent, verify
from quatspec.errors import (DegenerateConfiguration, InputError,
                             NotInResolventSet, QuatspecError)
from quatspec.hmat import QMatrix, op_norm, op_norms
from quatspec.quatcore import (Quaternion, point_at_cassini_distance, qpow,
                               random_unit_imag, triangle)
from quatspec.series import (SeriesState, _partial_through, _tails,
                             require_inside, series_states)
from quatspec.sliceanalysis import (_check_unit_imag, sderiv_operator,
                                    slice_point)
from quatspec.spectrum import cor1_check, in_resolvent
from quatspec.sresolvent import (certified_real_point, off_sphere,
                                 pencil_svals, random_resolvent_points,
                                 resolvent_arrays, resolvent_bundle,
                                 residual_AS_identity, residual_mixed_eq,
                                 residual_q_eq, residual_resolvent_eq,
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


def svd_op_norms(a1, a2) -> np.ndarray:
    """The operator norm of each matrix of a (k, n, n) stacked pair as the
    largest singular value of its chi image from a full SVD, the way
    every norm was taken before hmat.top_singular; inf where it is past
    the float range.  The matrices must be finite."""
    with np.errstate(over="ignore"):
        return np.linalg.svd(hmat.pair_chi(a1, a2), compute_uv=False)[:, 0]


def count_linalg(monkeypatch) -> dict:
    """The shapes of the arrays handed to np.linalg.svd, eigvalsh (the norm
    kernel's), inv and slogdet from here on, one list per function.

    The length of a list counts its function's calls, and linalg_rows of
    it the matrices they took.
    """
    shapes = {"svd": [], "eigvalsh": [], "inv": [], "slogdet": []}

    def counted(fn, seen):
        def wrapper(a, *args, **kwargs):
            seen.append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapper

    for name, seen in shapes.items():
        monkeypatch.setattr(np.linalg, name,
                            counted(getattr(np.linalg, name), seen))
    return shapes


def linalg_rows(shapes) -> int:
    """How many matrices a list of count_linalg shapes holds: a stack of k
    matrices counts k, a single matrix 1."""
    return sum(math.prod(shape[:-2]) for shape in shapes)


def sequential_coefficients(state: SeriesState, m: int):
    """B_1..B_m of an expansion as two (m, n, n) arrays, by the two-index
    recurrence B_1 = S_left(q0), B_2 = Q(q0), B_(k+2) = Q(q0) @ B_k, one
    product per index: the way series extended its coefficients before
    it doubled them."""
    b = state.bundle0
    out = [(b.S_left.a1, b.S_left.a2), (b.Q.a1, b.Q.a2)]
    with np.errstate(over="ignore", invalid="ignore"):
        while len(out) < m:
            out.append(hmat.pair_matmul(b.Q.a1, b.Q.a2, *out[-2]))
    return tuple(np.stack(part) for part in zip(*out[:m]))


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


def sequential_suite(n: int, trials: int, tol: float, seed: int,
                     nmax: int = series.DEFAULT_NMAX) -> list:
    """verify.run_identity_suite as a loop over trials, one trial at a time.

    Each trial runs sequential_trial_residuals; the first trial that
    raises ends the loop with its error.  Returns (name, max_residual,
    worst_trial, passed) rows in table order.
    """
    worst = {}
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        A = hmat.random_qmatrix(n, rng)
        for name, value in sequential_trial_residuals(A, rng, tol,
                                                      nmax).items():
            if value > worst.setdefault(name, (-1.0, -1))[0]:
                worst[name] = (value, t)
    return [(name, value, trial, value <= tol)
            for name, (value, trial) in worst.items()]


def sequential_trial_residuals(A: QMatrix, rng, tol: float, nmax: int) -> dict:
    """The relative residuals of one verify trial, computed on bundles.

    The per-trial table verify ran before its trials were stacked: the
    sampler and one resolvent_arrays call for the trial's seven points,
    the residual_* operations of sresolvent, sderiv_operator, cor1_check,
    one converge_series_S and one converge_series_Q pass and a separate
    partial sum for the exact remainder; one op_norms stack takes the
    table's norms and the four of the exact remainder.
    """
    r0 = certified_real_point(A)
    for _ in range(5):
        ((q, p, qd), sv), = random_resolvent_points(
            [A], [rng], (False, False, True), [[r0]])
        if off_sphere(q, p, verify.OFF_SPHERE_REL_TOL):
            break
    else:
        raise DegenerateConfiguration(
            "could not sample a pair off each other's spheres")
    R = math.sqrt(float(sv[3, -1]))
    q_in = point_at_cassini_distance(
        q0=r0, dist=0.5 * R, direction=random_unit_imag(rng),
        angle=float(rng.uniform(0.0, 2.0 * np.pi)))
    points = [p, q, q.conj(), r0, qd, qd.conj(), q_in]
    stack = resolvent_arrays(A, points)
    bp, bq, bqc, br, bd, bdc, b_in = (stack.bundle(i, x)
                                      for i, x in enumerate(points))
    state = series_states([A], [br])[0]
    tri = abs(triangle(q, p))
    r_pq, r_qp = residual_q_eq(bp, bq)
    ddiff = bq.pencil - bp.pencil

    def q_scale(dd):
        return 1.0 + bp.norm_Q + bq.norm_Q + dd * bp.norm_Q * bq.norm_Q

    deriv = sderiv_operator({qd: bd.S_left, qd.conj(): bdc.S_left}.__getitem__,
                            qd)
    u_dist, bound = cor1_check(A, bp)

    rtol = verify.SERIES_RTOL_FRACTION * tol
    s_sum = series.converge_series_S(state, q_in, rtol, nmax)[0]
    q_sum = series.converge_series_Q(state, q_in, rtol, nmax)[0]
    order = verify.REMAINDER_ORDER
    partial = _partial_through(state, q_in, False, 2 * order + 1)
    rem_ops = [(state.coeff(2 * order + 2) @ b_in.S_left).scale_right(
                   qpow(triangle(state.q0, q_in), order + 1)),
               b_in.S_left - partial, b_in.S_left, partial]
    table = (
        ("left_resolvent_two_point", residual_resolvent_eq(bp, bq),
         (bp.S_left, bq.S_left), lambda sp, sq: 1.0 + sp + sq + bq.norm_Q * (
             abs(q - p) + sp * tri)),
        ("pseudo_resolvent_pq", r_pq, (ddiff,), q_scale),
        ("pseudo_resolvent_qp", r_qp, (ddiff,), q_scale),
        ("mixed_two_point", residual_mixed_eq(bp, bq),
         (bq.S_right, bp.S_left, bq.S_right - bp.S_left),
         lambda sr, sp, diff: 1.0 + sr * sp + diff * (abs(p) + abs(q)) / tri),
        ("shift_pairing", residual_AS_identity(A, bp), (bp.S_left, A),
         lambda sp, a: 2.0 + sp * (a + abs(p))),
        ("pseudo_commute", A @ bq.Q - bq.Q @ A, (A,),
         lambda a: 1.0 + a * bq.norm_Q),
        ("pencil_commute", bp.Q @ bq.Q - bq.Q @ bp.Q, (),
         lambda: 1.0 + bp.norm_Q * bq.norm_Q),
        ("conjugate_pair_match", bq.Q - bqc.Q, (),
         lambda: 1.0 + bq.norm_Q),
        ("real_point_left_right", br.S_left - br.S_right, (br.S_left,),
         lambda s: 1.0 + s),
        ("derivative_of_resolvent", deriv + bd.Q, (),
         lambda: 1.0 + bd.norm_Q),
        ("spectrum_distance_bound", max(0.0, bound - u_dist), (),
         lambda: 1.0 + bound),
        ("resolvent_series_match", s_sum - b_in.S_left, (b_in.S_left,),
         lambda s: 1.0 + s),
        ("series_derivative_match", q_sum - b_in.Q, (),
         lambda: 1.0 + b_in.norm_Q),
    )
    op_norms([M for _, res, mats, _ in table
              for M in (res, *mats) if isinstance(M, QMatrix)] + rem_ops)
    rem, direct_err = series.check_remainder(state, q_in, order,
                                             op_norms(rem_ops))
    table += (("truncation_remainder", abs(direct_err - rem), (b_in.S_left,),
               lambda s: 1.0 + s),)
    return {name: (op_norm(res) if isinstance(res, QMatrix) else res)
            / scale(*map(op_norm, mats))
            for name, res, mats, scale in table}
