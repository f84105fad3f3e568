import numpy as np
import pytest

from quatspec.errors import InputError
from quatspec.hmat import QMatrix, op_norm, random_qmatrix
from quatspec.quatcore import Quaternion, random_unit_imag
from quatspec.series import certified_real_point, series_init
from quatspec.sliceanalysis import (REAL_AXIS_CUTOFF, cauchy_coeffs,
                                    sderiv_operator, slice_point)
from quatspec.sresolvent import random_resolvent_point, resolvent_bundle

from oracles import (cr_residual, real_axis_sderiv, s_resolvent_map,
                     stem_decompose, stem_reconstruct, taylor_eval)

I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)


def conj_map(q):
    # q -> conj(q) as a 1x1 operator map; the classic example that is not
    # slice regular
    return QMatrix.from_entries([[[q.w, -q.x, -q.y, -q.z]]])


def test_slice_point_embedding():
    p = slice_point(1.0 + 2.0j, J)
    assert p == Quaternion(1.0, 0.0, 2.0, 0.0)
    # real axis stays on the real axis regardless of direction
    assert slice_point(3.0 + 0.0j, I) == Quaternion(3.0)


def test_stem_of_inverse_map_pinned():
    # for the zero operator the resolvent map is q -> q^{-1} * I; at
    # z = 1 + 2i the stem parts are 1/5 and -2/5
    f = s_resolvent_map(QMatrix.zeros(1))
    pair = stem_decompose(f, 1.0 + 2.0j, I)
    assert abs(pair.F1.entry(0, 0) - Quaternion(0.2)) <= 1e-15
    assert abs(pair.F2.entry(0, 0) - Quaternion(-0.4)) <= 1e-15


def test_stem_reconstruct_changes_direction():
    rng = np.random.default_rng(81)
    A = random_qmatrix(2, rng)
    f = s_resolvent_map(A)
    z = complex(2.0 * (1.0 + op_norm(A)), 0.7)
    pair = stem_decompose(f, z, I)
    for _ in range(4):
        jp = random_unit_imag(rng)
        direct = f(slice_point(z, jp))
        rebuilt = stem_reconstruct(pair, jp)
        assert op_norm(rebuilt - direct) <= 1e-10 * (1.0 + op_norm(direct))


def test_stem_parity_under_conjugation():
    rng = np.random.default_rng(82)
    A = random_qmatrix(2, rng)
    f = s_resolvent_map(A)
    z = complex(2.0 * (1.0 + op_norm(A)), 0.9)
    up = stem_decompose(f, z, I)
    dn = stem_decompose(f, z.conjugate(), I)
    # swapping the two evaluation points preserves F1 and negates F2
    # exactly, since the same two floats are combined either way
    assert op_norm(up.F1 - dn.F1) == 0.0
    assert op_norm(up.F2 + dn.F2) == 0.0


def test_cr_residual_detects_regularity():
    rng = np.random.default_rng(83)
    A = random_qmatrix(2, rng)
    z = complex(2.0 * (1.0 + op_norm(A)), 0.5)
    r_good = cr_residual(s_resolvent_map(A), z, I, 1e-5)
    assert r_good <= 1e-8
    r_bad = cr_residual(conj_map, 1.0 + 2.0j, I, 1e-5)
    assert abs(r_bad - 2.0) <= 1e-9
    with pytest.raises(InputError):
        cr_residual(conj_map, 1.0 + 2.0j, I, 0.0)


def test_sderiv_is_negative_q_part():
    rng = np.random.default_rng(84)
    for n in (1, 2, 4):
        A = random_qmatrix(n, rng)
        f = s_resolvent_map(A)
        q = random_resolvent_point(A, rng, require_nonreal=True)
        b = resolvent_bundle(A, q)
        got = sderiv_operator(f, q)
        assert op_norm(got + b.Q) <= 1e-10 * (1.0 + b.norm_Q)


def test_sderiv_real_axis_branch():
    rng = np.random.default_rng(85)
    A = random_qmatrix(3, rng)
    f = s_resolvent_map(A)
    q = certified_real_point(A)
    b = resolvent_bundle(A, q)
    # the difference quotient is refused on the real axis
    with pytest.raises(InputError, match="lost its digits"):
        sderiv_operator(f, q)
    # finite differences with Richardson: a few digits below the exact
    # quotient but still tight
    got = real_axis_sderiv(f, q)
    assert op_norm(got + b.Q) <= 1e-8 * (1.0 + b.norm_Q)


def test_sderiv_near_the_real_axis():
    # the difference quotient loses digits as Im q -> 0: at or below
    # REAL_AXIS_CUTOFF it is refused, and the real-axis differences stay
    # accurate there
    rng = np.random.default_rng(86)
    for _ in range(3):
        A = random_qmatrix(4, rng)
        f = s_resolvent_map(A)
        r = certified_real_point(A).w
        for im in (1e-6, 1e-9, 1e-11):
            q = Quaternion(r, 0.0, im, 0.0)
            b = resolvent_bundle(A, q)
            if im > REAL_AXIS_CUTOFF * (1.0 + abs(q)):
                got = sderiv_operator(f, q)
            else:
                with pytest.raises(InputError):
                    sderiv_operator(f, q)
                got = real_axis_sderiv(f, q)
            assert op_norm(got + b.Q) <= 1e-10 * (1.0 + b.norm_Q)


def test_cauchy_coeffs_alternating_pinned():
    f = s_resolvent_map(QMatrix.zeros(1))
    coeffs = cauchy_coeffs(f, I, 1.0 + 0.0j, 0.5, 256, 10)
    for n, a in enumerate(coeffs):
        ref = Quaternion((-1.0) ** n)
        assert abs(a.entry(0, 0) - ref) <= 1e-10


def test_cauchy_taylor_roundtrip():
    rng = np.random.default_rng(86)
    A = random_qmatrix(3, rng)
    st = series_init(A, certified_real_point(A))
    z0 = complex(st.q0.w, 0.0)
    delta = 0.3 * st.R
    f = s_resolvent_map(A)
    coeffs = cauchy_coeffs(f, J, z0, delta, 256, 20)
    for k in range(6):
        z = z0 + 0.5 * delta * np.exp(1j * (0.3 + k))
        direct = f(slice_point(z, J))
        approx = taylor_eval(coeffs, z0, z, J)
        assert op_norm(approx - direct) <= 1e-9 * (1.0 + op_norm(direct))


def test_cauchy_matches_expansion_coefficients():
    # contour coefficients around a real center recover the expansion
    # coefficients up to the alternating sign that the slice restriction
    # introduces
    rng = np.random.default_rng(87)
    A = random_qmatrix(2, rng)
    st = series_init(A, certified_real_point(A))
    z0 = complex(st.q0.w, 0.0)
    coeffs = cauchy_coeffs(s_resolvent_map(A), I, z0, 0.3 * st.R, 256, 4)
    for n, a in enumerate(coeffs):
        ref = st.coeff(n + 1)
        if n % 2 == 1:
            ref = -ref
        assert op_norm(a - ref) <= 1e-9 * (1.0 + op_norm(ref))


def test_input_gates():
    f = s_resolvent_map(QMatrix.zeros(1))
    with pytest.raises(InputError):
        cauchy_coeffs(f, I, 1.0 + 0.0j, 0.5, 64, 10)  # too few nodes
    with pytest.raises(InputError):
        cauchy_coeffs(f, I, 1.0 + 0.0j, 0.0, 256, 10)
    with pytest.raises(InputError):
        cauchy_coeffs(f, I, 1.0 + 0.0j, 0.5, 256, -1)
    with pytest.raises(InputError):
        stem_decompose(f, 1.0 + 2.0j, Quaternion(0.0, 0.5, 0.0, 0.0))
    with pytest.raises(InputError):
        stem_decompose(f, 1.0 + 2.0j, Quaternion(0.1, 1.0, 0.0, 0.0))
    with pytest.raises(InputError):
        taylor_eval([], 0.0 + 0.0j, 1.0 + 0.0j, I)


def test_domain_gate_blocks_spectral_points():
    A = QMatrix.from_entries([[[0, 1, 0, 0]]])
    f = s_resolvent_map(A)
    # z = i lands exactly on the spectral sphere of [i]
    with pytest.raises(InputError):
        stem_decompose(f, 0.0 + 1.0j, I)


def test_unit_direction_tolerance():
    # a direction off unit length by < 1e-12 is accepted
    f = s_resolvent_map(QMatrix.zeros(1))
    j = Quaternion(0.0, 1.0 + 1e-13, 0.0, 0.0)
    pair = stem_decompose(f, 1.0 + 2.0j, j)
    assert abs(pair.F1.entry(0, 0) - Quaternion(0.2)) <= 1e-10


def test_polynomial_map_coefficients():
    # an explicit quadratic with operator coefficients: coefficients are
    # recovered exactly (up to quadrature error) including the
    # non-commuting ones
    rng = np.random.default_rng(88)
    C0 = random_qmatrix(2, rng)
    C1 = random_qmatrix(2, rng)
    C2 = random_qmatrix(2, rng)

    def poly(q):
        return C0 + C1.scale_right(q) + C2.scale_right(q).scale_right(q)

    coeffs = cauchy_coeffs(poly, J, 0.0 + 0.0j, 1.0, 256, 3)
    scale = 1.0 + op_norm(C0) + op_norm(C1) + op_norm(C2)
    assert op_norm(coeffs[0] - C0) <= 1e-12 * scale
    assert op_norm(coeffs[1] - C1) <= 1e-12 * scale
    assert op_norm(coeffs[2] - C2) <= 1e-12 * scale
    assert op_norm(coeffs[3]) <= 1e-12 * scale
