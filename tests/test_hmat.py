import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatspec.errors import InputError, SingularOperator
from quatspec.hmat import (QMatrix, chi, from_chi, op_norm, op_norms,
                           pair_chi, pair_from_chi, pair_matmul,
                           pair_op_norms, pair_scale_right, qmat_inverse,
                           qmatrix_from_json_dict, qmatrix_to_json_dict,
                           random_qmatrix, scalar_pairs, smallest_singular,
                           top_singular)
from quatspec.quatcore import Quaternion, qmul

from oracles import count_linalg, svd_op_norms

TOL = 1e-12


# ### Column vectors of H^n as complex pairs x1 + x2*j, for checking chi
# against the action of a QMatrix on vectors.

class HVector:
    """Column vector in H^n as the complex pair x1 + x2*j."""

    def __init__(self, x1, x2):
        self.x1 = np.asarray(x1, dtype=complex)
        self.x2 = np.asarray(x2, dtype=complex)

    def scale_right(self, q: Quaternion) -> "HVector":
        return HVector(*pair_scale_right(self.x1, self.x2,
                                         complex(q.w, q.x), complex(q.y, q.z)))

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.x1) ** 2 + np.abs(self.x2) ** 2)))


def matvec(A: QMatrix, x: HVector) -> HVector:
    """Left action (A x)_i = sum_k A_ik x_k; right-linear by construction."""
    if A.n != len(x.x1):
        raise InputError("matrix and vector dimensions do not match")
    return HVector(*pair_matmul(A.a1, A.a2, x.x1, x.x2))


def vec(x: HVector) -> np.ndarray:
    """Isometric vectorization of H^n into C^(2n): (x1, conj(x2))."""
    return np.concatenate([x.x1, np.conj(x.x2)])


def random_hvector(n: int, rng) -> HVector:
    comps = rng.uniform(-1.0, 1.0, size=(n, 4))
    return HVector(comps[:, 0] + 1j * comps[:, 1], comps[:, 2] + 1j * comps[:, 3])


# ### A from-scratch operator-norm oracle in plain quaternion arithmetic.
# No chi embedding, no numpy linear algebra: power iteration on the
# self-adjoint composition (adjoint A) . A acting on quaternion columns.

def _entries_of(A):
    return [[A.entry(i, k) for k in range(A.n)] for i in range(A.n)]


def _apply(rows, v):
    out = []
    for i in range(len(rows)):
        acc = Quaternion(0.0)
        for k, q in enumerate(rows[i]):
            acc = acc + qmul(q, v[k])
        out.append(acc)
    return out


def _adjoint_rows(rows):
    n = len(rows)
    return [[rows[k][i].conj() for k in range(n)] for i in range(n)]


def _vnorm(v):
    return math.sqrt(sum(q.abs2() for q in v))


def power_iteration_norm(A, iters=5000):
    rows = _entries_of(A)
    rows_star = _adjoint_rows(rows)
    v = [Quaternion(1.0 + 0.1 * k, 0.2, -0.1, 0.05 * k) for k in range(A.n)]
    nv = _vnorm(v)
    v = [q / nv for q in v]
    lam = 0.0
    for _ in range(iters):
        w = _apply(rows_star, _apply(rows, v))
        nw = _vnorm(w)
        if nw == 0.0:
            return 0.0
        if abs(nw - lam) <= 1e-14 * nw:
            lam = nw
            break
        lam = nw
        v = [q / nw for q in w]
    return math.sqrt(lam)


def test_chi_pinned_one_by_one():
    Ai = QMatrix.from_entries([[[0, 1, 0, 0]]])
    np.testing.assert_allclose(chi(Ai), np.array([[1j, 0], [0, -1j]]), atol=0)
    Aj = QMatrix.from_entries([[[0, 0, 1, 0]]])
    np.testing.assert_allclose(chi(Aj), np.array([[0, -1], [1, 0]]), atol=0)


def test_chi_is_an_algebra_homomorphism():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 5):
        A = random_qmatrix(n, rng)
        B = random_qmatrix(n, rng)
        np.testing.assert_allclose(chi(A @ B), chi(A) @ chi(B),
                                   atol=1e-12, rtol=0)
        np.testing.assert_allclose(chi(A + B), chi(A) + chi(B), atol=0)
        np.testing.assert_allclose(chi(A.adjoint()), chi(A).conj().T, atol=0)


def test_chi_intertwines_matvec():
    rng = np.random.default_rng(32)
    for n in (1, 2, 4):
        A = random_qmatrix(n, rng)
        x = random_hvector(n, rng)
        np.testing.assert_allclose(chi(A) @ vec(x), vec(matvec(A, x)),
                                   atol=1e-13)


def test_matvec_right_scaling_commutes():
    # right linearity: A(x*q) = (Ax)*q
    rng = np.random.default_rng(33)
    A = random_qmatrix(3, rng)
    x = random_hvector(3, rng)
    q = Quaternion(0.3, -1.2, 0.5, 0.9)
    lhs = matvec(A, x.scale_right(q))
    rhs = matvec(A, x).scale_right(q)
    assert np.max(np.abs(vec(lhs) - vec(rhs))) <= 1e-13


def test_entry_roundtrip_and_scale_ops():
    rng = np.random.default_rng(34)
    A = random_qmatrix(3, rng)
    q = Quaternion(0.7, 0.1, -0.4, 1.1)
    R = A.scale_right(q)
    L = A.scale_left(q)
    for i in range(3):
        for k in range(3):
            assert abs(R.entry(i, k) - qmul(A.entry(i, k), q)) <= TOL
            assert abs(L.entry(i, k) - qmul(q, A.entry(i, k))) <= TOL


def test_op_norm_against_power_iteration():
    rng = np.random.default_rng(35)
    for n in (2, 3, 4):
        for _ in range(5):
            A = random_qmatrix(n, rng)
            got = op_norm(A)
            want = power_iteration_norm(A)
            assert abs(got - want) <= 1e-8 * (1.0 + want)


def test_op_norm_scalar_diag():
    D = QMatrix.diag([Quaternion(3, -4, 0, 0), Quaternion(1, 0, 0, 0)])
    assert abs(op_norm(D) - 5.0) <= 1e-14
    assert abs(smallest_singular(D) - 1.0) <= 1e-14


def test_qmatrix_is_immutable():
    A = random_qmatrix(2, np.random.default_rng(31))
    for arr in (A.a1, A.a2):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_op_norm_is_stored_on_the_matrix(monkeypatch):
    A = random_qmatrix(3, np.random.default_rng(32))
    shapes = count_linalg(monkeypatch)
    first = op_norm(A)
    assert op_norm(A) == first
    assert shapes == {"svd": [], "eigvalsh": [(1, 6, 6)], "inv": [],
                      "slogdet": []}


@pytest.mark.parametrize("n", range(1, 9))
def test_op_norms_equal_op_norm_bit_for_bit(n, monkeypatch):
    rng = np.random.default_rng(40 + n)
    mats = [QMatrix.from_entries(rng.uniform(-1, 1, (n, n, 4))
                                 * 10.0 ** rng.uniform(-150, 150))
            for _ in range(40)]
    mats += [QMatrix.zeros(n), QMatrix.identity(n)]
    want = [op_norm(QMatrix(A.a1, A.a2)) for A in mats]
    shapes = count_linalg(monkeypatch)
    assert op_norms(mats) == want
    assert shapes == {"svd": [], "eigvalsh": [(len(mats), 2 * n, 2 * n)],
                      "inv": [], "slogdet": []}
    # stored on the matrices: reading them again takes no kernel call
    assert [op_norm(A) for A in mats] == want
    assert op_norms(mats) == want
    assert len(shapes["eigvalsh"]) == 1


def test_op_norms_keep_a_stored_norm(monkeypatch):
    rng = np.random.default_rng(39)
    A, B = random_qmatrix(3, rng), random_qmatrix(3, rng)
    stored, want = op_norm(A), op_norm(QMatrix(B.a1, B.a2))
    shapes = count_linalg(monkeypatch)
    # A is stored and B appears twice: one kernel call on one matrix
    assert op_norms([B, A, B]) == [want, stored, want]
    assert shapes == {"svd": [], "eigvalsh": [(1, 6, 6)], "inv": [],
                      "slogdet": []}
    assert op_norm(A) == stored and op_norm(B) == want
    assert len(shapes["eigvalsh"]) == 1


def test_op_norms_raise_where_op_norm_raises(monkeypatch):
    rng = np.random.default_rng(38)
    A, C = random_qmatrix(3, rng), random_qmatrix(3, rng)
    a1 = np.array(A.a1)
    a1[1, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        op_norm(QMatrix(a1, A.a2))
    with pytest.raises(np.linalg.LinAlgError):
        op_norms([A, QMatrix(a1, A.a2), C])
    # the norm before the failing matrix was stored
    want = op_norm(QMatrix(A.a1, A.a2))
    shapes = count_linalg(monkeypatch)
    assert op_norm(A) == want
    assert shapes == {"svd": [], "eigvalsh": [], "inv": [], "slogdet": []}


# The norm kernel (hmat.top_singular) agrees with a full SVD's largest
# singular value within KERNEL_TOL_N * n * eps, relative; 20000 random and
# structured matrices over n = 1..8 and every scale below came within
# 4.3 * n * eps.
KERNEL_TOL_N = 8


def kernel_stack(kind, n, size, scale, rng):
    """A (size, n, n, 4) stack of entry components of one kind, times
    2**scale (subnormal below 2**-1022)."""
    a = rng.uniform(-1.0, 1.0, (size, n, n, 4))
    if kind == "units":  # components from {-1, 0, 1}
        a = np.round(a)
    elif kind == "rank_one":
        a = (rng.uniform(-1.0, 1.0, (size, n, 1, 1))
             * rng.uniform(-1.0, 1.0, (size, 1, n, 1))
             * rng.uniform(-1.0, 1.0, (size, 1, 1, 4)))
    elif kind == "spread":  # entries over 60 binades
        a = np.ldexp(a, rng.integers(-60, 1, (size, n, n, 1)))
    return np.ldexp(a, scale)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 8), size=st.integers(1, 4),
       scale=st.integers(-1070, 1020),
       kind=st.sampled_from(["uniform", "units", "rank_one", "spread"]),
       bad=st.sampled_from([None, np.nan, np.inf, -np.inf]),
       at=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_norm_kernel_agrees_with_the_svd(n, size, scale, kind, bad, at, seed):
    rng = np.random.default_rng(seed)
    a = kernel_stack(kind, n, size, scale, rng)
    a1, a2 = scalar_pairs(a)
    got = top_singular(a1, a2)
    want = svd_op_norms(a1, a2)
    eps = np.finfo(float).eps
    for g, w in zip(got.tolist(), want.tolist()):
        if math.isinf(w):  # past the float range: inf, as the SVD gives
            assert g == math.inf
        else:
            assert abs(g - w) <= KERNEL_TOL_N * n * eps * w
    # each matrix takes its own scale, so its norm has the same bits in
    # any stack: alone, in the stack reversed, and beside a zero matrix,
    # which sends the stack through the scaling
    alone = [top_singular(a1[i:i + 1], a2[i:i + 1])[0] for i in range(size)]
    assert np.array_equal(np.array(alone), got)
    assert np.array_equal(top_singular(a1[::-1], a2[::-1])[::-1], got)
    z1, z2 = scalar_pairs(np.concatenate([a, np.zeros_like(a[:1])]))
    assert np.array_equal(top_singular(z1, z2), np.append(got, 0.0))
    if bad is None:
        return
    # a NaN or inf in matrix j: the norms before it are stored, and then
    # op_norms raises
    j = at % size
    a[j, rng.integers(n), rng.integers(n), rng.integers(4)] = bad
    mats = [QMatrix(*scalar_pairs(e)) for e in a]
    with pytest.raises(np.linalg.LinAlgError):
        op_norms(mats)
    assert [A._norm for A in mats[:j]] == got[:j].tolist()
    assert all(A._norm is None for A in mats[j:])


@pytest.mark.parametrize("n", range(1, 9))
def test_norm_kernel_near_the_top_of_the_float_range(n):
    # a rank-one matrix of equal entries, each of modulus 2 * part, has
    # the norm 2 * n * part: the finite 1.7e308 at part = 0.85e308 / n,
    # and past the float range (inf, no warning) at twice that
    tol = KERNEL_TOL_N * n * np.finfo(float).eps * 1.7e308
    a1, a2 = scalar_pairs(np.full((1, n, n, 4), 0.85e308 / n))
    norm = top_singular(a1, a2)[0]
    assert abs(norm - 1.7e308) <= tol
    assert abs(norm - svd_op_norms(a1, a2)[0]) <= tol
    a1, a2 = scalar_pairs(np.full((1, n, n, 4), 1.7e308 / n))
    assert top_singular(a1, a2)[0] == math.inf


def test_an_infinite_matrix_raises_before_lapack_prints(capfd):
    # LAPACK's DLASCL would print its complaint about an inf on fd 1, past
    # sys.stdout, and return nan
    rng = np.random.default_rng(41)
    A = random_qmatrix(3, rng)
    a2 = np.array(A.a2)
    a2[0, 1] = np.inf
    with pytest.raises(np.linalg.LinAlgError):
        op_norm(QMatrix(A.a1, a2))
    with pytest.raises(np.linalg.LinAlgError):
        op_norms([A, QMatrix(A.a1, a2)])
    with pytest.raises(np.linalg.LinAlgError):
        list(pair_op_norms(np.stack([A.a1, A.a1]), np.stack([A.a2, a2])))
    assert capfd.readouterr().out == ""


def test_smallest_singular_pinned():
    D = QMatrix.from_entries([[[3, -4, 0, 0]]])
    assert abs(smallest_singular(D) - 5.0) <= 1e-14


def test_inverse_roundtrip():
    rng = np.random.default_rng(36)
    for n in (1, 2, 4, 6):
        A = random_qmatrix(n, rng) + 3.0 * QMatrix.identity(n)
        Ainv = qmat_inverse(A)
        I = QMatrix.identity(n)
        assert op_norm(A @ Ainv - I) <= 1e-12 * op_norm(A)
        assert op_norm(Ainv @ A - I) <= 1e-12 * op_norm(A)


def test_singular_matrix_refused():
    with pytest.raises(SingularOperator) as info:
        qmat_inverse(QMatrix.zeros(3))
    assert info.value.smallest_singular == 0.0
    # rank-deficient non-zero matrix
    A = QMatrix.from_entries([[[1, 0, 0, 0], [1, 0, 0, 0]],
                              [[1, 0, 0, 0], [1, 0, 0, 0]]])
    with pytest.raises(SingularOperator):
        qmat_inverse(A)


def test_from_chi_roundtrip():
    rng = np.random.default_rng(37)
    A = random_qmatrix(4, rng)
    B = from_chi(chi(A))
    assert op_norm(A - B) <= 1e-14
    with pytest.raises(InputError):
        from_chi(np.zeros((3, 3)))


def test_from_chi_halves_each_block_before_the_sum():
    # 1e308 + 1e308 overflows, so each block is halved first
    a1 = np.array([[1e308 + 1e308j]])
    a2 = np.array([[-1e308 + 0.5e308j]])
    with np.errstate(all="raise"):
        b1, b2 = pair_from_chi(pair_chi(a1, a2))
    assert np.array_equal(b1, a1) and np.array_equal(b2, a2)


def test_json_roundtrip_and_validation():
    rng = np.random.default_rng(38)
    A = random_qmatrix(3, rng)
    doc = qmatrix_to_json_dict(A)
    B = qmatrix_from_json_dict(doc)
    assert op_norm(A - B) == 0.0
    with pytest.raises(InputError):
        qmatrix_from_json_dict([1, 2, 3])
    with pytest.raises(InputError):
        qmatrix_from_json_dict({"n": 2, "entries": [[[0, 0, 0, 0]]]})
    with pytest.raises(InputError):
        qmatrix_from_json_dict({"n": 0, "entries": []})
    with pytest.raises(InputError):
        qmatrix_from_json_dict({"n": 1, "entries": [[[0, 0, 0, "x"]]]})
    with pytest.raises(InputError):
        qmatrix_from_json_dict({"n": 1, "entries": [[[0, 0, 0, math.inf]]]})
    with pytest.raises(InputError):   # beyond float range
        qmatrix_from_json_dict({"n": 1, "entries": [[[10 ** 400, 0, 0, 0]]]})
    with pytest.raises(InputError):
        qmatrix_from_json_dict({"n": math.inf, "entries": [[[0, 0, 0, 0]]]})


def test_shape_errors():
    with pytest.raises(InputError):
        QMatrix.from_entries([[[0, 0, 0, 0], [0, 0, 0, 0]]])
    rng = np.random.default_rng(39)
    A = random_qmatrix(2, rng)
    B = random_qmatrix(3, rng)
    with pytest.raises(InputError):
        A @ B
    with pytest.raises(InputError):
        matvec(A, random_hvector(3, rng))


def test_vector_norm_matches_vec_embedding():
    rng = np.random.default_rng(40)
    x = random_hvector(5, rng)
    assert abs(x.norm() - np.linalg.norm(vec(x))) <= 1e-13
