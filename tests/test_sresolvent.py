import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatspec import sresolvent
from quatspec.errors import (DegenerateConfiguration, NotInResolventSet,
                             QuatspecError)
from quatspec.hmat import (QMatrix, chi, op_norm, qmat_inverse, random_qmatrix,
                           smallest_singular)
from quatspec.quatcore import QI, QJ, Quaternion, qinv, triangle
from quatspec.series import certified_real_point
from quatspec.spectrum import in_resolvent, s_spectrum
from quatspec.sresolvent import (delta_op, pencil_svals,
                                 random_resolvent_point, resolvent_arrays,
                                 resolvent_bundle, residual_AS_identity,
                                 residual_mixed_eq, residual_q_eq,
                                 residual_resolvent_eq)

from oracles import blowup_probe, count_linalg

EPS = np.finfo(float).eps


def test_zero_operator_closed_forms():
    # for the zero operator the pencil is |q|^2 I and both S-resolvents
    # act as left multiplication by q^{-1}
    q = Quaternion(1.0, 1.0, 0.0, 0.0)
    b = resolvent_bundle(QMatrix.zeros(2), q)
    assert abs(b.norm_Q - 1.0 / q.abs2()) <= 1e-14
    inv = qinv(q)
    for i in range(2):
        assert abs(b.S_left.entry(i, i) - inv) <= 1e-14
        assert abs(b.S_right.entry(i, i) - inv) <= 1e-14
    assert op_norm(b.S_left - b.S_right) <= 1e-14


def test_spectral_point_refused():
    A = QMatrix.from_entries([[[0, 1, 0, 0]]])
    with pytest.raises(NotInResolventSet) as info:
        resolvent_bundle(A, QI)
    assert info.value.smallest_singular <= 1e-12
    # the same sphere from a different direction is refused too
    with pytest.raises(NotInResolventSet):
        resolvent_bundle(A, QJ)


def test_pencil_has_real_coefficients():
    rng = np.random.default_rng(50)
    A = random_qmatrix(3, rng)
    q = Quaternion(0.5, 1.5, -0.25, 0.75)
    D1 = delta_op(A, q)
    D2 = delta_op(A, q.conj())
    assert op_norm(D1 - D2) == 0.0


def test_two_point_resolvent_identity():
    rng = np.random.default_rng(51)
    for n in (1, 2, 4):
        for _ in range(10):
            A = random_qmatrix(n, rng)
            p = random_resolvent_point(A, rng)
            q = random_resolvent_point(A, rng)
            bp = resolvent_bundle(A, p)
            bq = resolvent_bundle(A, q)
            scale = 1.0 + op_norm(bp.S_left) + op_norm(bq.S_left) + \
                bq.norm_Q * (abs(q - p) +
                             op_norm(bp.S_left) * abs(triangle(q, p)))
            assert op_norm(residual_resolvent_eq(bp, bq)) <= 1e-12 * scale


def test_pseudo_resolvent_identity_both_orderings():
    rng = np.random.default_rng(52)
    for n in (1, 3, 5):
        for _ in range(10):
            A = random_qmatrix(n, rng)
            p = random_resolvent_point(A, rng)
            q = random_resolvent_point(A, rng)
            bp = resolvent_bundle(A, p)
            bq = resolvent_bundle(A, q)
            dd = op_norm(delta_op(A, q) - delta_op(A, p))
            scale = 1.0 + bp.norm_Q + bq.norm_Q + dd * bp.norm_Q * bq.norm_Q
            r_pq, r_qp = map(op_norm, residual_q_eq(bp, bq))
            assert r_pq <= 1e-12 * scale
            assert r_qp <= 1e-12 * scale


def test_pseudo_resolvent_scalar_example():
    # zero operator, p = 1, q = 2:  1 - 1/4  =  (4 - 1) * 1 * (1/4)
    Z = QMatrix.zeros(1)
    r_pq, r_qp = map(op_norm,
                     residual_q_eq(resolvent_bundle(Z, Quaternion(1.0)),
                                   resolvent_bundle(Z, Quaternion(2.0))))
    assert r_pq <= 1e-15
    assert r_qp <= 1e-15


def test_mixed_identity_scalar_example():
    # zero operator, p = 1, q = 2: both sides reduce to 1/2
    Z = QMatrix.zeros(1)
    assert op_norm(residual_mixed_eq(resolvent_bundle(Z, Quaternion(1.0)),
                                     resolvent_bundle(Z, Quaternion(2.0)))) \
        <= 1e-15


def test_mixed_identity_random():
    rng = np.random.default_rng(53)
    for n in (1, 2, 4):
        for _ in range(10):
            A = random_qmatrix(n, rng)
            p = random_resolvent_point(A, rng)
            q = random_resolvent_point(A, rng)
            if abs(triangle(q, p)) < 1e-6:
                continue
            bp = resolvent_bundle(A, p)
            bq = resolvent_bundle(A, q)
            diff = op_norm(bq.S_right - bp.S_left)
            scale = 1.0 + op_norm(bq.S_right) * op_norm(bp.S_left) + \
                diff * (abs(p) + abs(q)) / abs(triangle(q, p))
            assert op_norm(residual_mixed_eq(bp, bq)) <= 1e-12 * scale


def test_mixed_identity_degenerate_pairs():
    A = QMatrix.zeros(1)
    with pytest.raises(DegenerateConfiguration):
        residual_mixed_eq(resolvent_bundle(A, QI),
                          resolvent_bundle(A, QJ))
    rng = np.random.default_rng(54)
    for _ in range(20):
        c = rng.uniform(-2, 2, size=4)
        q = Quaternion(float(c[0]), float(c[1]), float(c[2]), float(c[3]))
        # same-sphere companions constructed without re-rounding the radius
        for p in (q.conj(), Quaternion(q.w, -q.x, q.y, q.z),
                  Quaternion(q.w, q.y, q.x, q.z)):
            if p == q:
                continue
            with pytest.raises(DegenerateConfiguration):
                residual_mixed_eq(resolvent_bundle(A, p),
                                  resolvent_bundle(A, q))


def test_shift_pairing():
    rng = np.random.default_rng(55)
    for n in (1, 2, 4, 6):
        A = random_qmatrix(n, rng)
        for _ in range(5):
            p = random_resolvent_point(A, rng)
            b = resolvent_bundle(A, p)
            scale = 2.0 + op_norm(b.S_left) * (op_norm(A) + abs(p))
            assert op_norm(residual_AS_identity(A, b)) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_bundle_matches_reference_functions(n, seed):
    # one SVD and one inverse per bundle give exactly what the reference
    # functions compute from the pencil on their own
    rng = np.random.default_rng(seed)
    A = random_qmatrix(n, rng)
    for q in (random_resolvent_point(A, rng),
              random_resolvent_point(A, rng, require_nonreal=True)):
        D = delta_op(A, q)
        b = resolvent_bundle(A, q)
        ref = qmat_inverse(D)
        assert np.array_equal(b.Q.a1, ref.a1)
        assert np.array_equal(b.Q.a2, ref.a2)
        assert b.pencil_smallest_singular == smallest_singular(D)
        assert b.norm_Q == 1.0 / b.pencil_smallest_singular
        assert b.radius == math.sqrt(b.pencil_smallest_singular)
        # ||Q|| of the computed inverse differs from 1/sigma_min by the
        # inverse's rounding, a few eps * cond(pencil) relative (at most
        # 3.6 eps * cond over 6000 sampled points at n = 1..8)
        cond = op_norm(D) * b.norm_Q
        assert abs(b.norm_Q - op_norm(ref)) <= 32 * EPS * cond * b.norm_Q


def test_bundle_takes_one_svd_and_one_inverse(monkeypatch):
    # reading ||Q|| or the localization radius takes no further SVD
    A = random_qmatrix(3, np.random.default_rng(59))
    q = random_resolvent_point(A, np.random.default_rng(60))
    shapes = count_linalg(monkeypatch)
    b = resolvent_bundle(A, q)
    assert (len(shapes["svd"]), len(shapes["inv"])) == (1, 1)
    assert b.norm_Q > 0.0 and b.radius > 0.0
    assert (len(shapes["svd"]), len(shapes["inv"])) == (1, 1)


def test_localization_radius_is_the_bundle_radius():
    rng = np.random.default_rng(97)
    for n in (1, 3, 8):
        A = random_qmatrix(n, rng)
        q = random_resolvent_point(A, rng)
        radius = sresolvent.localization_radius(A, q)
        assert radius == resolvent_bundle(A, q).radius


@pytest.mark.parametrize("entry, q", [
    (1.0, Quaternion(0.0, 1.0)),          # on the spectrum
    (1e-160, Quaternion(3e-160)),         # 1/sigma_min overflows
    (1.0, Quaternion(1e200)),             # |q|**2 overflows
    (1e160, Quaternion(1.0))])            # the pencil overflows
def test_localization_radius_refuses_as_the_bundle_does(entry, q):
    A = QMatrix.from_entries([[[0, entry, 0, 0]]])
    with pytest.raises(QuatspecError) as want:
        resolvent_bundle(A, q)
    with pytest.raises(QuatspecError) as got:
        sresolvent.localization_radius(A, q)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert (getattr(got.value, "smallest_singular", None)
            == getattr(want.value, "smallest_singular", None))


def test_blowup_probe_reads_the_bundle_norm():
    # both read ||Q|| as 1/sigma_min of the same pencil SVD
    A = QMatrix.from_entries([[[0, 1, 0, 0]]])
    for p, norm_q in blowup_probe(A, QI, 12):
        assert resolvent_bundle(A, p).norm_Q == norm_q
    B = random_qmatrix(3, np.random.default_rng(64))
    lam = Quaternion(*s_spectrum(B).spheres[0][0])
    for p, norm_q in blowup_probe(B, lam, 8):
        assert resolvent_bundle(B, p).norm_Q == norm_q


def test_random_resolvent_point_is_deterministic():
    A = random_qmatrix(3, np.random.default_rng(56))
    p1 = random_resolvent_point(A, np.random.default_rng(99))
    p2 = random_resolvent_point(A, np.random.default_rng(99))
    assert p1 == p2


def test_resolvent_point_nonreal_option():
    A = random_qmatrix(2, np.random.default_rng(57))
    rng = np.random.default_rng(58)
    for _ in range(10):
        p = random_resolvent_point(A, rng, require_nonreal=True)
        assert p.im_norm() >= 0.1


def per_point_svals(A, points):
    return np.array([np.linalg.svd(chi(delta_op(A, q)), compute_uv=False)
                     for q in points])


def random_points(rng, k):
    """k points in [-3, 3]**4; every third one real."""
    c = rng.uniform(-3.0, 3.0, size=(k, 4))
    c[::3, 1:] = 0.0
    return [Quaternion(*row) for row in c.tolist()]


# A 3 x 3 diagonal at whose certified real point 2*(1 + ||A||) the sum
# chi(A@A) - 2*Re(q)*chi(A) + |q|**2*I, formed on chi images, gives a
# smallest singular value one ulp from that of chi(delta_op(A, q)).
DIAG3 = QMatrix.diag([
    Quaternion(0.28689560901488065, 0.14730107892785216, 0.6527741016265896,
               -0.6565165822341401),
    Quaternion(-0.7590845659126866, 0.018554406223467046, 0.7049571902061125,
               0.5385003696955362),
    Quaternion(-0.23047201181721433, -0.7326173935077758, 0.3932309592427117,
               -0.9272079589484712)])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), k=st.integers(4, 12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pencil_svals_match_per_point_svds(n, k, seed):
    rng = np.random.default_rng(seed)
    A = random_qmatrix(n, rng)
    points = random_points(rng, k)
    want = per_point_svals(A, points)
    # three pencils per stacked SVD, so every batch spans several blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sresolvent, "PENCIL_BLOCK_BYTES", 3 * chi(A).nbytes)
        shapes = count_linalg(mp)
        got = pencil_svals(A, points)
    assert len(shapes["svd"]) == -(-k // 3) > 1
    assert got.shape == (k, 2 * n)
    assert np.array_equal(got, want)


def test_pencil_svals_default_blocks_and_edges(monkeypatch):
    rng = np.random.default_rng(56)
    A = random_qmatrix(8, rng)
    points = random_points(rng, 150)  # 64 + 64 + 22 points at n = 8
    want = per_point_svals(A, points)
    shapes = count_linalg(monkeypatch)
    got = pencil_svals(A, points)
    assert len(shapes["svd"]) == 3
    assert np.array_equal(got, want)
    for B in (DIAG3, QMatrix(DIAG3.a1.real, np.zeros((3, 3)))):
        q = certified_real_point(B)
        assert np.array_equal(pencil_svals(B, [q]), per_point_svals(B, [q]))
    assert pencil_svals(A, []).shape == (0, 16)
    with pytest.raises(QuatspecError, match="overflows"):
        pencil_svals(A, [Quaternion(1.0), Quaternion(0.0, 1e200)])
    with pytest.raises(QuatspecError, match="overflows"):
        delta_op(A, Quaternion(1e155))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["random", "on_sphere", "near_sphere"]))
def test_one_membership_verdict(n, seed, kind):
    # in_resolvent, the pencil_svals rows and the bundles read one pencil
    rng = np.random.default_rng(seed)
    A = random_qmatrix(n, rng)
    if kind == "random":
        q = random_points(rng, 1)[0]
    else:
        spheres = s_spectrum(A).spheres
        sp = spheres[int(rng.integers(len(spheres)))][0]
        if kind == "near_sphere":
            sp = sp._replace(s=sp.s * (1.0 + float(rng.uniform(-1e-9, 1e-9))))
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        q = Quaternion(sp.r, *(sp.s * v).tolist())
    sv = pencil_svals(A, [q])[0]
    try:
        b = resolvent_bundle(A, q)
    except NotInResolventSet as exc:
        assert not in_resolvent(A, q)
        assert exc.smallest_singular == sv[-1]
    else:
        assert in_resolvent(A, q)
        assert b.pencil_smallest_singular == sv[-1]


# --- stacked bundles ---------------------------------------------------------

def same_matrix(P, R):
    return P.a1.tobytes() == R.a1.tobytes() and P.a2.tobytes() == R.a2.tobytes()


def stacked_bundles(A, points):
    """The rows of resolvent_arrays(A, points) as ResolventBundles."""
    stack = resolvent_arrays(A, points)
    return [stack.bundle(i, q) for i, q in enumerate(points)]


@pytest.mark.parametrize("n, real", [(1, True), (1, False), (2, False),
                                     (4, True), (4, False), (8, False)])
def test_stacked_bundles_equal_one_point_bundles(n, real):
    # real entries leave zero a2 components, whose signs must match too
    rng = np.random.default_rng(61 + n)
    A = random_qmatrix(n, rng)
    if real:
        A = QMatrix(A.a1.real, np.zeros((n, n)))
    points = [random_resolvent_point(A, rng) for _ in range(4)]
    points += [points[0].conj(), Quaternion(points[1].w),
               random_resolvent_point(A, rng, require_nonreal=True)]
    stacked = stacked_bundles(A, points)
    assert [b.q for b in stacked] == points
    # three pencils per block: the rows of three blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sresolvent, "PENCIL_BLOCK_BYTES", 3 * chi(A).nbytes)
        split = stacked_bundles(A, points)
    for q, b, s in zip(points, stacked, split):
        one = resolvent_bundle(A, q)
        for name in ("pencil", "Q", "S_left", "S_right"):
            assert same_matrix(getattr(b, name), getattr(one, name)), name
            assert same_matrix(getattr(s, name), getattr(one, name)), name
        assert s.pencil_smallest_singular == one.pencil_smallest_singular
        assert b.pencil_smallest_singular == one.pencil_smallest_singular
        assert b.norm_Q == one.norm_Q
        # the QMatrix expressions the stacked arithmetic repeats
        qc = q.conj()
        assert same_matrix(b.pencil, A @ A - (2.0 * q.w) * A
                           + q.abs2() * QMatrix.identity(n))
        assert same_matrix(b.S_left, b.Q.scale_right(qc) - A @ b.Q)
        assert same_matrix(
            b.S_right, (QMatrix.identity(n).scale_left(qc) - A) @ b.Q)


def test_stacked_bundles_refuse_the_first_spectral_point():
    A = QMatrix.from_entries([[[0, 1, 0, 0]]])
    with pytest.raises(NotInResolventSet) as one:
        resolvent_bundle(A, QJ)
    with pytest.raises(NotInResolventSet) as stacked:
        resolvent_arrays(A, [Quaternion(3.0), QJ, QI, Quaternion(0.0, 2.0)])
    assert str(stacked.value) == str(one.value)
    assert stacked.value.smallest_singular == one.value.smallest_singular


def test_stacked_bundles_refuse_an_overflowing_point_in_order():
    A = random_qmatrix(2, np.random.default_rng(63))
    big, huge = Quaternion(0.0, 1e200), Quaternion(1e155)
    for bad in (big, huge):
        with pytest.raises(QuatspecError) as one:
            resolvent_bundle(A, bad)
        with pytest.raises(QuatspecError, match="the pencil overflows") as got:
            resolvent_arrays(A, [Quaternion(9.0), bad, Quaternion(8.0)])
        assert str(got.value) == str(one.value)
    # |q|**2 is finite here, but A@A is not
    B = QMatrix.from_entries([[[1e160, 0, 0, 0]]])
    with pytest.raises(QuatspecError, match=r"A@A .* is not finite at q = "
                                            r"\(2, 0, 0, 0\)"):
        resolvent_arrays(B, [Quaternion(2.0), Quaternion(3.0)])
    # a point that is refused earlier in the list is the one reported
    Z = QMatrix.zeros(1)
    with pytest.raises(NotInResolventSet):
        resolvent_arrays(Z, [Quaternion(1.0), Quaternion(0.0), big])
    with pytest.raises(QuatspecError, match="overflows"):
        resolvent_arrays(Z, [Quaternion(1.0), big, Quaternion(0.0)])


@pytest.mark.parametrize("scale", [1e-155, 1e-160])
def test_bundles_refuse_a_point_whose_norm_Q_overflows(scale):
    # sigma_min is subnormal at 3x the scale of [scale*i]: 1/sigma_min
    # is not finite, and the refusal names the first such point
    A = QMatrix.from_entries([[[0, scale, 0, 0]]])
    bad = Quaternion(3 * scale)
    with pytest.raises(QuatspecError) as one:
        resolvent_bundle(A, bad)
    assert not isinstance(one.value, NotInResolventSet)
    assert str(one.value).startswith("||Q|| = 1/")
    assert str(one.value).endswith(f"overflows at point {tuple(bad)}")
    with pytest.raises(QuatspecError) as got:
        resolvent_arrays(A, [Quaternion(1.0), bad, Quaternion(5 * scale)])
    assert str(got.value) == str(one.value)
    # a spectral point earlier in the list is the one reported
    with pytest.raises(NotInResolventSet):
        resolvent_arrays(QMatrix.zeros(1), [Quaternion(0.0), bad])
    # at 3x a normal-range scale the bundle is built
    b = resolvent_bundle(QMatrix.from_entries([[[0, 1e-150, 0, 0]]]),
                         Quaternion(3e-150))
    assert math.isfinite(b.norm_Q) and b.radius > 0.0


# --- stacked residuals -------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 4])
def test_residual_rows_equal_their_one_bundle_residuals(n):
    # row t of a stack of several matrices' bundles gives matrix t its
    # one-bundle residuals bit for bit, and these repeat the QMatrix
    # expressions of the identities
    rng = np.random.default_rng(71 + n)
    As = [random_qmatrix(n, rng) for _ in range(3)]
    p = [random_resolvent_point(A, rng) for A in As]
    q = [random_resolvent_point(A, rng, require_nonreal=True) for A in As]
    pair = (np.stack([A.a1 for A in As]), np.stack([A.a2 for A in As]))
    b = sresolvent.resolvent_arrays(pair, p + q, np.tile(np.arange(3), 2))
    bp, bq = b.rows(0, 3), b.rows(3, 6)
    eq = sresolvent.resolvent_eq_rows(bp, bq, p, q)
    r_pq, r_qp = sresolvent.q_eq_rows(bp, bq)
    mixed = sresolvent.mixed_eq_rows(bp, bq, p, q)
    shift = sresolvent.AS_identity_rows(pair, bp, p)
    eye = QMatrix.identity(n)
    for t, (A, x, y) in enumerate(zip(As, p, q)):
        P, R = resolvent_bundle(A, x), resolvent_bundle(A, y)
        one_pq, one_qp = residual_q_eq(P, R)
        for got, one in ((eq, residual_resolvent_eq(P, R)), (r_pq, one_pq),
                         (r_qp, one_qp), (mixed, residual_mixed_eq(P, R)),
                         (shift, residual_AS_identity(A, P))):
            assert same_matrix(QMatrix(got[0][t], got[1][t]), one)
        assert same_matrix(residual_resolvent_eq(P, R), (
            P.S_left - R.S_left) - (R.Q.scale_right(y - x) + (
                R.Q @ P.S_left).scale_right(triangle(y, x))))
        lhs, ddiff = P.Q - R.Q, R.pencil - P.pencil
        assert same_matrix(one_pq, lhs - ddiff @ (P.Q @ R.Q))
        assert same_matrix(one_qp, lhs - ddiff @ (R.Q @ P.Q))
        diff = R.S_right - P.S_left
        assert same_matrix(residual_mixed_eq(P, R), R.S_right @ P.S_left - (
            diff.scale_right(x) - diff.scale_left(y.conj())).scale_right(
                qinv(triangle(y, x))))
        assert same_matrix(residual_AS_identity(A, P),
                           A @ P.S_left - P.S_left.scale_right(x) + eye)


def test_residual_rows_refuse_their_first_failing_row():
    A = random_qmatrix(2, np.random.default_rng(73))
    x, y = Quaternion(3.0, 1.0), Quaternion(2.0, 0.5, 0.5)
    # row 0 is off the sphere, row 1 (p = conj(q)) is on it
    with pytest.raises(DegenerateConfiguration, match="degenerates"):
        sresolvent.mixed_eq_rows(sresolvent.resolvent_arrays(A, [x, x]),
                                 sresolvent.resolvent_arrays(A, [y, x.conj()]),
                                 [x, x], [y, x.conj()])
    # rows 1 and 2 overflow: the shift pairing names row 1, as its
    # one-bundle case does
    big = QMatrix.from_entries([[[1, 1, 1e-8, 1e154]]])
    small = QMatrix.from_entries([[[1, 1, 0, 0]]])
    far = Quaternion(1.0, 0.0, 0.0, -1e154)
    pts = [Quaternion(5.0), far, Quaternion(1.0, 0.0, 1e100, -1e154)]
    pair = (np.stack([small.a1, big.a1, big.a1]),
            np.stack([small.a2, big.a2, big.a2]))
    rows = sresolvent.resolvent_arrays(pair, pts, np.arange(3))
    with pytest.raises(QuatspecError) as got:
        sresolvent.AS_identity_rows(pair, rows, pts)
    with pytest.raises(QuatspecError) as one:
        residual_AS_identity(big, resolvent_bundle(big, far))
    assert str(got.value) == str(one.value) == (
        "the shift-pairing residual overflows at q = (1, 0, 0, -1e+154)")


@pytest.mark.parametrize("n", [1, 4])
def test_resolvent_arrays_of_no_points(n, monkeypatch):
    # no points give an empty stack, for one matrix or a stacked pair, and
    # take no SVD and no inverse
    A = random_qmatrix(n, np.random.default_rng(74 + n))
    pair = (A.a1[None], A.a2[None])
    shapes = count_linalg(monkeypatch)
    for b in (sresolvent.resolvent_arrays(A, []),
              sresolvent.resolvent_arrays(pair, [], np.arange(0))):
        for a1, a2 in b[:4]:
            assert a1.shape == a2.shape == (0, n, n)
            assert a1.dtype == a2.dtype == complex
        assert b.smallest.shape == (0,)
        assert len(b.rows(0, 0).smallest) == 0
    assert shapes["svd"] == shapes["inv"] == []


@pytest.mark.parametrize("T", [2, 3])
def test_stacked_matrices_across_pencil_blocks(T, monkeypatch):
    # T matrices whose points interleave their owners, three pencils a
    # block: every block past the first reads its rows of A and A@A by
    # owner, and each row equals its own matrix's one-point row bit for bit
    rng = np.random.default_rng(80 + T)
    As = [random_qmatrix(2, rng) for _ in range(T)]
    owner = np.array([2, 0, 1, 1, 2, 0, 0, 1, 2, 2, 0]) % T
    points = [random_resolvent_point(As[t], rng) for t in owner]
    pair = (np.array([A.a1 for A in As]), np.array([A.a2 for A in As]))
    monkeypatch.setattr(sresolvent, "PENCIL_BLOCK_BYTES", 3 * chi(As[0]).nbytes)
    shapes = count_linalg(monkeypatch)
    sv = pencil_svals(pair, points, owner)
    stack = resolvent_arrays(pair, points, owner)
    # four blocks: an SVD each for pencil_svals, an SVD and an inverse
    # each for resolvent_arrays
    assert (len(shapes["svd"]), len(shapes["inv"])) == (8, 4)
    assert np.array_equal(sv, np.concatenate(
        [per_point_svals(As[t], [q]) for t, q in zip(owner, points)]))
    read = resolvent_arrays(pair, points, owner, sv)
    for i, (t, q) in enumerate(zip(owner, points)):
        one = resolvent_bundle(As[t], q)
        for b in (stack.bundle(i, q), read.bundle(i, q)):
            for name in ("pencil", "Q", "S_left", "S_right"):
                assert same_matrix(getattr(b, name), getattr(one, name)), name
            assert b.pencil_smallest_singular == one.pencil_smallest_singular

    # a QMatrix and its stack of one, every point owned by matrix 0, give
    # the same rows
    for t, A in enumerate(As):
        own = [q for s, q in zip(owner, points) if s == t]
        one = (np.array([A.a1]), np.array([A.a2]))
        zeros = np.zeros(len(points), dtype=int)
        assert np.array_equal(pencil_svals(A, points),
                              pencil_svals(one, points, zeros))
        got = resolvent_arrays(one, own, zeros[:len(own)])
        for f, (a1, a2) in enumerate(resolvent_arrays(A, own)[:4]):
            assert a1.tobytes() == got[f][0].tobytes()
            assert a2.tobytes() == got[f][1].tobytes()

    # a spectral point of the first block is refused, with its one-point
    # message, before a later block's pencil overflows; without it the
    # overflow is refused with its one-point message
    D = QMatrix.diag([QI, Quaternion(2.0)])  # j lies on the sphere of i
    pair = (np.array([As[0].a1, D.a1]), np.array([As[0].a2, D.a2]))
    big = Quaternion(0.0, 1e200)
    points = [Quaternion(5.0), QJ, Quaternion(6.0), Quaternion(7.0), big]
    owner = np.array([0, 1, 1, 0, 1])
    with pytest.raises(NotInResolventSet) as one:
        resolvent_bundle(D, QJ)
    with pytest.raises(NotInResolventSet) as got:
        resolvent_arrays(pair, points, owner)
    assert str(got.value) == str(one.value)
    assert got.value.smallest_singular == one.value.smallest_singular
    with pytest.raises(QuatspecError) as one:
        resolvent_bundle(D, big)
    for call in (lambda: pencil_svals(pair, points, owner),
                 lambda: resolvent_arrays(pair, points[:1] + points[2:],
                                          np.delete(owner, 1))):
        with pytest.raises(QuatspecError, match="the pencil overflows") as got:
            call()
        assert str(got.value) == str(one.value)
