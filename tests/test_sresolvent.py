import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatspec import sresolvent
from quatspec.errors import (DegenerateConfiguration, NotInResolventSet,
                             QuatspecError)
from quatspec.hmat import (QMatrix, chi, op_norm, qmat_inverse, random_qmatrix,
                           smallest_singular)
from quatspec.quatcore import QI, QJ, Quaternion, qinv, triangle
from quatspec.sresolvent import (delta_op, pencil_svals,
                                 random_resolvent_point, resolvent_bundle,
                                 residual_AS_identity, residual_mixed_eq,
                                 residual_q_eq, residual_resolvent_eq)


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
            assert residual_resolvent_eq(bp, bq) <= 1e-12 * scale


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
            r_pq, r_qp = residual_q_eq(bp, bq)
            assert r_pq <= 1e-12 * scale
            assert r_qp <= 1e-12 * scale


def test_pseudo_resolvent_scalar_example():
    # zero operator, p = 1, q = 2:  1 - 1/4  =  (4 - 1) * 1 * (1/4)
    Z = QMatrix.zeros(1)
    r_pq, r_qp = residual_q_eq(resolvent_bundle(Z, Quaternion(1.0)),
                               resolvent_bundle(Z, Quaternion(2.0)))
    assert r_pq <= 1e-15
    assert r_qp <= 1e-15


def test_mixed_identity_scalar_example():
    # zero operator, p = 1, q = 2: both sides reduce to 1/2
    Z = QMatrix.zeros(1)
    assert residual_mixed_eq(resolvent_bundle(Z, Quaternion(1.0)),
                             resolvent_bundle(Z, Quaternion(2.0))) <= 1e-15


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
            assert residual_mixed_eq(bp, bq) <= 1e-12 * scale


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
            assert residual_AS_identity(A, b) <= 1e-12 * scale


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
        assert b.norm_Q == op_norm(ref)


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


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), k=st.integers(1, 12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pencil_svals_match_per_point_svds(n, k, seed):
    rng = np.random.default_rng(seed)
    A = random_qmatrix(n, rng)
    points = random_points(rng, k)
    want = per_point_svals(A, points)
    # three pencils per stacked SVD, so most batches span several blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sresolvent, "PENCIL_BLOCK_BYTES", 3 * chi(A).nbytes)
        got = pencil_svals(A, points)
    assert got.shape == (k, 2 * n)
    assert np.all(np.abs(got - want) <= 1e-12 * want[:, :1])


def test_pencil_svals_default_blocks_and_edges():
    rng = np.random.default_rng(56)
    A = random_qmatrix(8, rng)
    points = random_points(rng, 150)  # three blocks at n = 8
    want = per_point_svals(A, points)
    got = pencil_svals(A, points)
    assert np.all(np.abs(got - want) <= 1e-12 * want[:, :1])
    assert pencil_svals(A, []).shape == (0, 16)
    with pytest.raises(QuatspecError, match="overflows"):
        pencil_svals(A, [Quaternion(1.0), Quaternion(0.0, 1e200)])
    with pytest.raises(QuatspecError, match="overflows"):
        delta_op(A, Quaternion(1e155))
