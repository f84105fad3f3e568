import json
import math

import numpy as np
import pytest

from quatspec import hmat, series, sresolvent, verify
from quatspec.cli import main
from quatspec.errors import InputError, OutsideConvergenceDomain
from quatspec.hmat import (QMatrix, op_norm, qmatrix_to_json_dict,
                           random_qmatrix)
from quatspec.quatcore import (Quaternion, cassini_u,
                               point_at_cassini_distance, random_unit_imag,
                               spherical_power)
from quatspec.series import (DEFAULT_NMAX, _tails, certified_real_point,
                             converge_series_Q, converge_series_S,
                             eval_series_S, remainder_exact, residual_report,
                             series_init, tail_rule, term_norms)
from quatspec.sliceanalysis import cauchy_coeffs
from quatspec.sresolvent import resolvent_arrays, resolvent_bundle

from oracles import (count_linalg, eval_series_Q, linalg_rows,
                     s_resolvent_map, sequential_coefficients,
                     spherical_power_sderiv, stem_decompose)


def sample_inside(state, rng, fraction=0.5):
    return point_at_cassini_distance(
        state.q0, fraction * state.R, random_unit_imag(rng),
        float(rng.uniform(0.0, 2.0 * math.pi)))


def test_radius_pinned_example():
    # 1x1 operator [i] around the real center 2: pencil value 3 - 4i,
    # modulus 5, so the certified radius is sqrt(5)
    A = QMatrix.from_entries([[[0, 1, 0, 0]]])
    st = series_init(A, Quaternion(2.0))
    assert abs(st.R - math.sqrt(5.0)) <= 1e-14


def test_scalar_series_values():
    st = series_init(QMatrix.zeros(1), Quaternion(1.0))
    assert st.R == 1.0
    pS, tS = eval_series_S(st, Quaternion(0.5), 60)
    pQ, tQ = eval_series_Q(st, Quaternion(0.5), 60)
    assert abs(pS.entry(0, 0) - Quaternion(2.0)) <= 1e-12
    assert abs(pQ.entry(0, 0) - Quaternion(4.0)) <= 1e-10
    assert tS >= 0.0 and tQ >= 0.0


def test_scalar_remainder_exact_value():
    Z = QMatrix.zeros(1)
    st = series_init(Z, Quaternion(1.0))
    rem, summed = remainder_exact(st, resolvent_bundle(Z, Quaternion(0.5)), 3)
    assert abs(rem - 2.0 * 0.25 ** 4) <= 1e-16
    assert abs(summed - 2.0 * 0.25 ** 4) <= 1e-16


def test_series_matches_direct_resolvent():
    rng = np.random.default_rng(70)
    for n in (1, 2, 4):
        for _ in range(5):
            A = random_qmatrix(n, rng)
            st = series_init(A, certified_real_point(A))
            q = sample_inside(st, rng)
            b = resolvent_bundle(A, q)
            partial, tail, N, conv = converge_series_S(st, q, 1e-10)
            assert conv and N <= 80
            assert op_norm(partial - b.S_left) <= 1e-9 * (
                1.0 + op_norm(b.S_left))
            partial, tail, N, conv = converge_series_Q(st, q, 1e-10)
            assert conv
            assert op_norm(partial - b.Q) <= 1e-9 * (1.0 + b.norm_Q)


def test_neumann_reduction_oracle():
    """Complex-slice reduction: for a matrix with entries in the i-slice
    and points on that slice, the whole construction collapses to the
    classical complex resolvent and its Taylor series, computed here with
    plain numpy and no quaternion machinery."""
    rng = np.random.default_rng(71)
    for n in (2, 3):
        M = rng.uniform(-1, 1, size=(n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        entries = np.zeros((n, n, 4))
        entries[:, :, 0] = M.real
        entries[:, :, 1] = M.imag
        A = QMatrix.from_entries(entries)
        r0 = certified_real_point(A)
        z0 = complex(r0.w, 0.0)
        st = series_init(A, r0)

        # direct check on S at a slice point
        z = z0 + 0.3 * st.R * np.exp(0.7j)
        q = Quaternion(z.real, z.imag, 0.0, 0.0)
        classical = np.linalg.inv(z * np.eye(n) - M)
        b = resolvent_bundle(A, q)
        got = b.S_left.a1
        assert np.max(np.abs(got - classical)) <= 1e-12
        assert np.max(np.abs(b.S_left.a2)) <= 1e-12

        # termwise: partial sums agree with the classical Taylor expansion
        # sum (-1)^k (z - z0)^k (z0 I - M)^{-(k+1)}
        base = np.linalg.inv(z0 * np.eye(n) - M)
        acc = np.zeros((n, n), dtype=complex)
        factor = base.copy()
        for N in range(12):
            acc = acc + (-1.0) ** N * (z - z0) ** N * factor
            partial, _ = eval_series_S(st, q, N)
            assert np.max(np.abs(partial.a1 - acc)) <= 1e-12
            assert np.max(np.abs(partial.a2)) <= 1e-12
            factor = factor @ base


def test_geometric_term_decay():
    # scaled terms decay at worst like rho^(1/2) per index: two indices
    # combine to a factor rho
    rng = np.random.default_rng(72)
    for _ in range(10):
        A = random_qmatrix(3, rng)
        st = series_init(A, certified_real_point(A))
        q = sample_inside(st, rng)
        rho = st.bundle0.norm_Q * cassini_u(q, st.q0) ** 2
        tn = term_norms(st, q, 40)
        for i in range(len(tn) - 2):
            assert tn[i + 2] <= rho * tn[i] + 1e-12


def test_tail_bounds_majorize_true_tails():
    rng = np.random.default_rng(73)
    for _ in range(8):
        A = random_qmatrix(2, rng)
        st = series_init(A, certified_real_point(A))
        q = sample_inside(st, rng, fraction=0.6)
        b = resolvent_bundle(A, q)
        sS, _, _, _ = converge_series_S(st, q, 1e-13)
        sQ, _, _, _ = converge_series_Q(st, q, 1e-13)
        for N in range(0, 25):
            pS, tS = eval_series_S(st, q, N)
            pQ, tQ = eval_series_Q(st, q, N)
            assert op_norm(sS - pS) <= tS + 1e-10 * (1.0 + op_norm(sS))
            assert op_norm(sQ - pQ) <= tQ + 1e-10 * (1.0 + op_norm(sQ))
        # the remainder identity is consistent with the directly summed err
        for N in (0, 1, 3):
            rem, summed = remainder_exact(st, b, N)
            p, _ = eval_series_S(st, q, 2 * N + 1)
            assert summed == op_norm(b.S_left - p)
            assert abs(summed - rem) <= 1e-10 * (1.0 + op_norm(b.S_left))


def test_domain_gate():
    st = series_init(QMatrix.zeros(1), Quaternion(1.0))
    with pytest.raises(OutsideConvergenceDomain):
        eval_series_S(st, Quaternion(3.0), 5)
    with pytest.raises(OutsideConvergenceDomain):
        eval_series_Q(st, Quaternion(-1.0), 5)
    with pytest.raises(OutsideConvergenceDomain):
        converge_series_S(st, Quaternion(0.0), 1e-8)  # u = R exactly
    # tail bounds themselves report divergence as infinity
    assert _tails(st, Quaternion(3.0), False)(4) == math.inf
    assert _tails(st, Quaternion(3.0), True)(4) == math.inf
    with pytest.raises(InputError):
        eval_series_S(st, Quaternion(0.5), -1)


def test_certified_real_point_always_resolvent():
    rng = np.random.default_rng(74)
    for n in (1, 3, 6, 8):
        A = random_qmatrix(n, rng)
        r0 = certified_real_point(A)
        b = resolvent_bundle(A, r0)
        # the pencil (A - r0)^2 keeps its smallest singular value >= 4
        assert b.norm_Q <= 0.25 + 1e-12
        assert b.radius >= 2.0 - 1e-12


def test_convergence_cap_flags_not_converged():
    st = series_init(QMatrix.zeros(1), Quaternion(1.0))
    partial, tail, N, conv = converge_series_S(st, Quaternion(0.5), 1e-30,
                                               nmax=10)
    assert not conv and N == 10
    assert tail > 1e-30


@pytest.mark.parametrize("rows", [None, 20, 32])
def test_series_stops_before_its_first_non_finite_row(monkeypatch, rows):
    # on [1e-10 i] around 3e-10, B_n = Q**k overflows near n = 32 while the
    # spherical powers underflow, so term 32 is not finite; both rules stop
    # at N = 31, and no SVD or norm kernel call ever sees a matrix that is
    # not finite.  Blocks of 20 rows put row 32 inside a block, of 32 rows
    # at its start.
    if rows:
        rows_per_block(monkeypatch, 1, rows)
    A = QMatrix.from_entries([[[0, 1e-10, 0, 0]]])
    st = series_init(A, Quaternion(3e-10))
    q = Quaternion(3.1e-10)

    def finite_only(fn):
        def wrapper(a, *args, **kwargs):
            assert np.isfinite(a).all()
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("svd", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name,
                            finite_only(getattr(np.linalg, name)))
    rows_out, converged = residual_report(
        st, q, resolvent_bundle(A, q).S_left, 1e-8, DEFAULT_NMAX)
    assert not converged
    assert [row[0] for row in rows_out] == list(range(32))
    assert np.isfinite(rows_out).all()
    for converge, evaluate in ((converge_series_S, eval_series_S),
                               (converge_series_Q, eval_series_Q)):
        partial, tail, N, conv = converge(st, q, 1e-60)
        assert (N, conv) == (31, False) and math.isfinite(tail)
        want, _ = evaluate(st, q, 31)
        assert np.array_equal(partial.a1, want.a1)
        assert np.array_equal(partial.a2, want.a2)


def test_expansion_center_off_axis():
    # centers need not be real: expanding around 1 + j still reproduces
    # the resolvent inside the certified ball
    rng = np.random.default_rng(75)
    A = random_qmatrix(2, rng)
    q0 = Quaternion(2.0 * (1.0 + op_norm(A)), 0.0, 1.0, 0.0)
    st = series_init(A, q0)
    q = sample_inside(st, rng, fraction=0.4)
    b = resolvent_bundle(A, q)
    partial, tail, N, conv = converge_series_S(st, q, 1e-11)
    assert conv
    assert op_norm(partial - b.S_left) <= 1e-9 * (1.0 + op_norm(b.S_left))
    partial, tail, N, conv = converge_series_Q(st, q, 1e-11)
    assert conv
    assert op_norm(partial - b.Q) <= 1e-9 * (1.0 + b.norm_Q)


# --- the coefficients by doubling -----------------------------------------

# B_m by doubling and by the two-index recurrence (oracles) round
# differently; they agree within COEFF_TOL_N * m * n * eps times the
# product of B_m's factors' norms, ||Q||**(m // 2) * ||S_left||**(m % 2),
# in the Frobenius norm of the pair.  Ten matrices at each n = 1, 2, 4, 8
# came within 0.27 * m * n * eps of it.
COEFF_TOL_N = 2


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_coefficients_by_doubling(n):
    rng = np.random.default_rng(130 + n)
    # ||A|| = 1 about the real center 2.4, so 0.09 <= ||Q|| <= 0.51 and
    # B_300 stays far inside the normal doubles
    As = [random_qmatrix(n, rng) for _ in range(3)]
    As = [A * (1.0 / op_norm(A)) for A in As]
    bundles = [resolvent_bundle(A, Quaternion(2.4)) for A in As]
    m = 300
    # B_n is a function of n alone: the same bits extended to m in one
    # call, one index at a time, or for a stack of expansions
    one_call = [series.series_states([A], [b])[0].coeff_rows(1, m)
                for A, b in zip(As, bundles)]
    for A, b, (w1, w2) in zip(As, bundles, one_call):
        state = series.series_states([A], [b])[0]
        for k in range(m):
            B = state.coeff(k + 1)
            assert B.a1.tobytes() == w1[k].tobytes()
            assert B.a2.tobytes() == w2[k].tobytes()
    for state, (w1, w2) in zip(series.series_states(As, bundles), one_call):
        r1, r2 = state.coeff_rows(1, m)
        assert r1.tobytes() == w1.tobytes() and r2.tobytes() == w2.tobytes()
    eps = np.finfo(float).eps
    for state, (w1, w2) in zip(series.series_states(As, bundles), one_call):
        s1, s2 = sequential_coefficients(state, m)
        nq, ns = state.bundle0.norm_Q, op_norm(state.bundle0.S_left)
        diff = np.sqrt(np.sum(np.abs(w1 - s1) ** 2 + np.abs(w2 - s2) ** 2,
                              axis=(1, 2)))
        for i, d in enumerate(diff.tolist(), start=1):
            factors = nq ** (i // 2) * ns ** (i % 2)
            assert d <= COEFF_TOL_N * i * n * eps * factors


@pytest.mark.parametrize("T", [1, 3])
def test_fresh_coefficient_store_reads_empty_rows(T):
    # B_1 and B_2 are stored when the store is made, so a state whose
    # coefficients were never read gives empty rows for hi < lo, and a
    # series' first take of no indices reads nothing
    rng = np.random.default_rng(29)
    As = [random_qmatrix(2, rng) for _ in range(T)]
    bundles = [resolvent_bundle(A, certified_real_point(A)) for A in As]
    for state in series.series_states(As, bundles):
        b1, b2 = state.coeff_rows(1, 0)
        assert b1.shape == b2.shape == (0, 2, 2)
        b1, b2, pts, _ = series._Series(state, Quaternion(0.5), False).take(0)
        assert b1.shape == b2.shape == (0, 2, 2) and pts.shape == (0, 4)
        B = state.coeff(2)
        assert np.array_equal(B.a1, state.bundle0.Q.a1)
        assert np.array_equal(B.a2, state.bundle0.Q.a2)


# --- the incremental engine against the term-by-term definition ----------

def reference_partials(state, q, N, derivative=False):
    """(term, partial) for n = 0..N, every term built from scratch."""
    partial = QMatrix.zeros(state.A.n)
    out = []
    for n in range(N + 1):
        if derivative:
            term = state.coeff(n + 1).scale_right(
                spherical_power_sderiv(state.q0, n, q))
            partial = partial + term if n % 2 else partial - term
        else:
            term = state.coeff(n + 1).scale_right(
                spherical_power(state.q0, n, q))
            partial = partial - term if n % 2 else partial + term
        out.append((term, partial))
    return out


def reference_converge(state, q, rtol, nmax, derivative=False):
    """The tail rule on the reference partial sums, unscreened."""
    tail = _tails(state, q, derivative)
    for n, (_, partial) in enumerate(
            reference_partials(state, q, nmax, derivative)):
        t = tail(n)
        if t <= rtol * (1.0 + op_norm(partial)):
            return partial, t, n, True
    return partial, t, nmax, False


def same_bits(P, R):
    return P.a1.tobytes() == R.a1.tobytes() and P.a2.tobytes() == R.a2.tobytes()


def reference_rows(A, q0, q, tol, nmax):
    """CSV rows of `quatspec series` from the term-by-term definition."""
    state = series_init(A, q0)
    direct = resolvent_bundle(A, q).S_left
    rows = []
    for n, (term, partial) in enumerate(reference_partials(state, q, nmax)):
        residual = op_norm(partial - direct)
        rows.append(",".join([str(n)] + [
            format(x, ".17g") for x in (op_norm(term),
                                        _tails(state, q, False)(n), residual)]))
        if residual <= tol:
            break
    return rows


def cli_csv_rows(capsys, argv):
    assert main(argv + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[lines.index("N,term_norm,tail_bound,residual_vs_direct") + 1:]


def test_series_report_bit_identical_at_a_long_real_expansion(capsys):
    # the scalar reference run: N = 299
    rows = cli_csv_rows(capsys, ["series", "--q0", "1", "--q", "1.9",
                                 "--tol", "1e-14", "--nmax", "400"])
    assert len(rows) == 300
    assert rows == reference_rows(QMatrix.zeros(1), Quaternion(1.0),
                                  Quaternion(1.9), 1e-14, 400)


@pytest.mark.parametrize("n", [2, 4])
def test_engine_bit_identical_at_nonreal_points(n, tmp_path, capsys):
    rng = np.random.default_rng(76 + n)
    A = random_qmatrix(n, rng)
    centers = [certified_real_point(A),
               Quaternion(2.0 * (1.0 + op_norm(A)), 0.0, 1.0, 0.0)]
    for q0 in centers:
        st = series_init(A, q0)
        q = sample_inside(st, rng, fraction=0.6)
        assert q.im_norm() > 0.0
        ref_S = reference_partials(st, q, 30)
        ref_Q = reference_partials(st, q, 30, derivative=True)
        for N in (0, 1, 2, 7, 30):
            assert same_bits(eval_series_S(st, q, N)[0], ref_S[N][1])
            assert same_bits(eval_series_Q(st, q, N)[0], ref_Q[N][1])
        assert [op_norm(t) for t, _ in ref_S] == term_norms(st, q, 30)
        for derivative, converge in ((False, converge_series_S),
                                     (True, converge_series_Q)):
            for rtol, nmax in ((1e-12, 200), (1e-30, 12)):
                got = converge(st, q, rtol, nmax)
                want = reference_converge(st, q, rtol, nmax, derivative)
                assert same_bits(got[0], want[0])
                assert got[1:] == want[1:]

    path = tmp_path / "A.json"
    path.write_text(json.dumps(qmatrix_to_json_dict(A)))
    q0 = centers[1]
    q = sample_inside(series_init(A, q0), rng, fraction=0.5)
    rows = cli_csv_rows(capsys, ["series", "--input", str(path),
                                 "--q0=" + ",".join(map(repr, q0)),
                                 "--q=" + ",".join(map(repr, q)),
                                 "--tol", "1e-12"])
    assert rows == reference_rows(A, q0, q, 1e-12, 200)


def test_derivative_engine_near_the_real_axis():
    # at Im(q) = 1e-9 a difference quotient would have lost its digits; the
    # engine's basis stream and the pointwise basis are one recurrence
    A = random_qmatrix(2, np.random.default_rng(79))
    st = series_init(A, certified_real_point(A))
    q = Quaternion(st.q0.w - 0.5 * st.R, 1e-9, 0.0, 0.0)
    ref = reference_partials(st, q, 20, derivative=True)
    for N in (0, 1, 5, 20):
        assert same_bits(eval_series_Q(st, q, N)[0], ref[N][1])


def rows_per_block(monkeypatch, n, rows):
    """Cap every block at `rows` indices for n x n inputs.

    Patches the byte budget where the one block rule reads it, and returns
    a list that collects (lo, size) for every block that one series
    (series._Series.block) runs from here on: the report rule's, and the
    library rule's for a single series, so a test can see that its runs
    span more than one block.
    """
    monkeypatch.setattr(sresolvent, "PENCIL_BLOCK_BYTES",
                        rows * 16 * (2 * n) ** 2)
    assert sresolvent.block_rows(n) == rows
    ran = []
    block = series._Series.block

    def recorded(self, m):
        ran.append((self.lo, m))
        return block(self, m)

    monkeypatch.setattr(series._Series, "block", recorded)
    return ran


def check_blocks(ran, rows, spans, last=None):
    """The blocks recorded in ran (see rows_per_block) since it was last
    cleared: each holds at most `rows` indices (no check when rows is
    None), some block starts past index 0 exactly when `spans`, and with
    `last` given they run through index last and no further.  Clears ran.
    """
    if rows is not None:
        assert max(size for _, size in ran) <= rows
        assert (max(lo for lo, _ in ran) > 0) == spans
    if last is not None:
        assert max(lo + size for lo, size in ran) == last + 1
    ran.clear()


def reference_report(state, q, direct, tol, nmax):
    """residual_report's rows from the term-by-term definition."""
    rows = []
    for n, (term, partial) in enumerate(reference_partials(state, q, nmax)):
        residual = op_norm(partial - direct)
        rows.append([n, op_norm(term), _tails(state, q, False)(n), residual])
        if residual <= tol:
            return rows, True
    return rows, False


@pytest.mark.parametrize("rows", [1, 3, 7, None])
def test_engine_bit_identical_across_blocks(rows, monkeypatch):
    # with small blocks every stopping index falls after the first block
    rng = np.random.default_rng(81)
    A = random_qmatrix(2, rng)
    ran = rows_per_block(monkeypatch, 2, rows) if rows else []
    st = series_init(A, certified_real_point(A))
    q = sample_inside(st, rng, fraction=0.7)
    direct = resolvent_bundle(A, q).S_left
    # both rules run their blocks at most `rows` indices long, and past
    # the first one
    for derivative, converge in ((False, converge_series_S),
                                 (True, converge_series_Q)):
        got = converge(st, q, 1e-13, 200)
        want = reference_converge(st, q, 1e-13, 200, derivative)
        assert got[2:] == (want[2], True) and got[2] > 7
        assert same_bits(got[0], want[0]) and got[1] == want[1]
        check_blocks(ran, rows, True)
    got = residual_report(st, q, direct, 1e-13, 200)
    assert got == reference_report(st, q, direct, 1e-13, 200)
    assert got[1] and len(got[0]) > 8
    check_blocks(ran, rows, True)


@pytest.mark.parametrize("nmax", [0, 1, 2, 3, 5, 6, 10])
def test_engine_stops_at_nmax_anywhere_in_a_block(nmax, monkeypatch):
    # three indices per block: nmax = 2 and 5 end a full block, 1, 3, 6
    # and 10 cut one short, 0 is the first index
    rng = np.random.default_rng(82)
    A = random_qmatrix(3, rng)
    ran = rows_per_block(monkeypatch, 3, 3)
    st = series_init(A, certified_real_point(A))
    q = sample_inside(st, rng, fraction=0.8)
    direct = resolvent_bundle(A, q).S_left
    # every run of either rule past index 2 spans more than one block, and
    # runs through nmax and no further
    for derivative, converge in ((False, converge_series_S),
                                 (True, converge_series_Q)):
        got = converge(st, q, 1e-30, nmax)
        want = reference_converge(st, q, 1e-30, nmax, derivative)
        assert got[2:] == (nmax, False) == want[2:]
        assert same_bits(got[0], want[0]) and got[1] == want[1]
        check_blocks(ran, 3, nmax > 2, nmax)
    got = residual_report(st, q, direct, -1.0, nmax)
    assert got == reference_report(st, q, direct, -1.0, nmax)
    assert len(got[0]) == nmax + 1 and not got[1]
    check_blocks(ran, 3, nmax > 2, nmax)
    assert term_norms(st, q, nmax) == [op_norm(t) for t, _ in
                                       reference_partials(st, q, nmax)]
    assert same_bits(eval_series_Q(st, q, nmax)[0],
                     reference_partials(st, q, nmax, True)[-1][1])
    check_blocks(ran, 3, nmax > 2, nmax)


def reference_tail_S(state, q, N):
    nq = state.bundle0.norm_Q
    u = cassini_u(q, state.q0)
    rho = nq * u * u
    if rho >= 1.0:
        return math.inf
    c1 = op_norm(state.bundle0.S_left)
    c2 = nq * abs(q - state.q0)
    return (c1 * rho ** (N // 2 + 1) + c2 * rho ** ((N + 1) // 2)) / (1.0 - rho)


def reference_tail_Q(state, q, N):
    nq = state.bundle0.norm_Q
    u = cassini_u(q, state.q0)
    rho = nq * u * u
    if rho >= 1.0:
        return math.inf
    c0 = abs(q) + abs(state.q0)
    c1 = op_norm(state.bundle0.S_left)

    def arith_geo(m):
        return rho ** (m - 1) * (m - (m - 1) * rho) / (1.0 - rho) ** 2

    ke, ko = N // 2 + 1, (N + 1) // 2
    return (2.0 * c1 * c0 * nq * arith_geo(ke)
            + nq * (rho ** ko / (1.0 - rho))
            + 2.0 * (c0 * nq) * (c0 * nq) * arith_geo(max(ko, 1)))


def test_engine_tails_equal_the_closed_forms():
    # the hoisted constants change no bit of any tail bound
    rng = np.random.default_rng(83)
    for n in (1, 2, 4):
        A = random_qmatrix(n, rng)
        st = series_init(A, certified_real_point(A))
        q = sample_inside(st, rng, fraction=0.9)
        nmax = 60
        rows, _ = residual_report(st, q, QMatrix.zeros(n), -1.0, nmax)
        assert [row[2] for row in rows] == [
            reference_tail_S(st, q, N) for N in range(nmax + 1)]
        for N in range(nmax + 1):
            assert _tails(st, q, False)(N) == reference_tail_S(st, q, N)
            assert _tails(st, q, True)(N) == reference_tail_Q(st, q, N)
        for N in (0, 1, 17, nmax):
            assert converge_series_Q(st, q, 1e-30, N)[1] == \
                reference_tail_Q(st, q, N)


def test_derivative_tail_where_c0_squared_overflows():
    # on [i] around 1e154, c0 = |q| + |q0| squared overflows, while
    # odd = 2 * (c0 * ||Q||)**2 is about 8e-308 and rho about 1e-292
    A = QMatrix.from_entries([[[0, 1, 0, 0]]])
    st = series_init(A, Quaternion(1e154))
    for k in (1.0, -1.0, 3.0):
        q = Quaternion(1e154, 0.0, 0.0, 1e8 * k)
        assert math.isfinite(_tails(st, q, True)(0))
        partial, tail, N, conv = converge_series_Q(st, q, 1e-3)
        assert (N, conv) == (0, True)
        assert 0.0 < tail <= 1e-300 and np.isfinite(partial.a1).all()


def test_report_screen_falls_back_where_squares_underflow():
    # q has a j-part of 1e-170 and `direct` is a partial sum the series
    # reaches exactly, so from N = 53 on the residual's complex part is
    # zero and its j-part at most 1.2e-184: every square of its entries
    # underflows and the Frobenius majorant reads 0 <= tol, yet the
    # residual stays above tol until the j-part is reached at N = 58
    st = series_init(QMatrix.zeros(1), Quaternion(1.0))
    q = Quaternion(0.5, 0.0, 1e-170, 0.0)
    direct, _ = eval_series_S(st, q, 200)
    tol = 1e-200
    got = residual_report(st, q, direct, tol, 200)
    assert got == reference_report(st, q, direct, tol, 200)
    rows, converged = got
    assert converged and rows[-1][3] == 0.0
    screened = [N for N, (_, partial) in enumerate(
                    reference_partials(st, q, rows[-1][0]))
                if series._majorants((partial - direct).a1[None],
                                     (partial - direct).a2[None])[0] <= tol]
    assert rows[screened[0]][3] > tol


def test_tail_rule_screen_never_skips_a_passing_test():
    # for rank-one matrices the Frobenius majorant equals the operator
    # norm, so only the screen's margin absorbs the rounding of either
    rng = np.random.default_rng(80)
    for n in (1, 2, 3, 8):
        for _ in range(50):
            u = rng.normal(size=n) + 1j * rng.normal(size=n)
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            P = QMatrix(np.outer(u, v.conj()), np.zeros((n, n)))
            rtol = 10.0 ** rng.uniform(-14, -2)
            t = rtol * (1.0 + op_norm(P))
            # a row of P just failing the rule, then one just passing it
            t2 = np.array([np.nextafter(t, np.inf) * 1.001, t])
            p1, p2 = np.stack([P.a1, P.a1]), np.stack([P.a2, P.a2])
            assert tail_rule(t2, rtol, p1, p2).tolist() == [False, True]
            assert tail_rule(t2[:1], rtol, p1[:1], p2[:1]).tolist() == [False]


def test_majorants_bound_the_operator_norms():
    # the Frobenius majorant counts all four parts of a1 + a2*j: on random
    # stacks, and on rank-one matrices x @ y^H (where it meets the norm up
    # to its margin), whose a1 and a2 both have nonzero imaginary parts
    rng = np.random.default_rng(82)
    for n in (1, 2, 3, 8):
        def parts(k):
            return (rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n)),
                    rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n)))
        a1, a2 = parts(40)
        x1, x2 = parts(40)
        y1, y2 = parts(40)
        x1[:, :, 1:] = x2[:, :, 1:] = y1[:, :, 1:] = y2[:, :, 1:] = 0.0
        r1, r2 = hmat.pair_matmul(x1, x2, *hmat.pair_from_chi(
            hmat.pair_chi(y1, y2).conj().mT))
        for b1, b2 in ((a1, a2), (r1, r2), (0.1 * a1, 1j * a2.imag)):
            assert (b1.imag != 0).any(axis=(1, 2)).all()
            assert (b2.imag != 0).any(axis=(1, 2)).all()
            norms = hmat.top_singular(b1, b2)
            assert (series._majorants(b1, b2) >= norms).all()


# --- work gates: these ceilings may be lowered, never raised ---------------

MAT2 = {"n": 2, "entries": [[[0.5, 1, 0, 0], [0.25, 0, 0.5, 0]],
                            [[0, 0, 0, -0.5], [-1, 0, 0.75, 0]]]}


def count_calls(monkeypatch):
    """Record SVDs, norm kernel calls (np.linalg.eigvalsh, see
    hmat.top_singular), inverses, determinants and resolvent bundles from
    here on; calls() of the record counts them.

    The record is count_linalg's, with the bundles of each block under
    "bundle".  Every SVD left is a stack of pencils (their sigma_min and
    singularity test); every operator norm is a kernel call.  Every
    bundle, a ResolventBundle or a row of resolvent_arrays, is a row of a
    block of sresolvent._bundle_blocks, so counting those rows counts
    bundles whichever module asks for them.
    """
    record = count_linalg(monkeypatch)
    record["bundle"] = []
    blocks = sresolvent._bundle_blocks

    def counted_blocks(*args, **kwargs):
        for lo, stack in blocks(*args, **kwargs):
            record["bundle"].append(len(stack.smallest))
            yield lo, stack
    monkeypatch.setattr(sresolvent, "_bundle_blocks", counted_blocks)
    return record


def calls(record) -> dict:
    """The counts of a count_calls record."""
    return {"svd": len(record["svd"]), "eigvalsh": len(record["eigvalsh"]),
            "inv": len(record["inv"]), "det": len(record["slogdet"]),
            "bundle": sum(record["bundle"])}


def count_work(monkeypatch, capsys, argv):
    """Run one command; count its SVDs, norm kernel calls, inverses,
    determinants and resolvent bundles."""
    record = count_calls(monkeypatch)
    rc = main(argv)
    report = json.loads(capsys.readouterr().out)
    return rc, report, calls(record)


def test_series_report_takes_two_svds_per_block(monkeypatch, capsys):
    argv = ["series", "--q0", "1", "--q", "1.9", "--tol", "1e-14",
            "--nmax", "400"]
    record = count_calls(monkeypatch)
    rc = main(argv)
    rep = json.loads(capsys.readouterr().out)
    assert rc == 0 and rep["N"] == 299
    # one stacked pass takes the center bundle, whose ||Q(q0)|| is
    # 1/sigma_min, and the direct bundle: one SVD and one inverse of the
    # two 2 x 2 chi images (was one call of one row each); ||S_left(q0)||
    # (one kernel call), then two stacked kernel calls per block: all 300
    # rows fit in the first (4096 rows at n = 1).  Was at most 3 + 2 * 1
    # SVDs.
    assert record["svd"] == record["inv"] == [(2, 2, 2)]
    assert linalg_rows(record["svd"]) == linalg_rows(record["inv"]) == 2
    assert calls(record) == {"svd": 1, "eigvalsh": 1 + 2 * 1, "inv": 1,
                             "det": 0, "bundle": 2}
    # at 64 rows per block the 300 rows take five blocks (was at most
    # 3 + 2 * 5 SVDs)
    ran = rows_per_block(monkeypatch, 1, 64)
    rc, rep, work = count_work(monkeypatch, capsys, argv)
    assert rc == 0 and rep["N"] == 299
    assert [lo for lo, _ in ran] == [0, 64, 128, 192, 256]
    assert work == {"svd": 1, "eigvalsh": 1 + 2 * 5, "inv": 1, "det": 0,
                    "bundle": 2}


def test_report_kernel_row_gate_across_doubling_blocks(monkeypatch):
    # `direct` is 1e-4 off the series' limit, so no residual reaches tol:
    # the first block ends where the tail bound does (N = 4), each later
    # one doubles the rows so far until the 16-row cap binds, and every
    # block takes two kernel calls of its full length, the residuals
    # (no Frobenius majorant passes) and the term norms
    rng = np.random.default_rng(83)
    A = random_qmatrix(2, rng)
    st = series_init(A, certified_real_point(A))
    q = point_at_cassini_distance(st.q0, 0.1 * st.R, random_unit_imag(rng),
                                  1.0)
    direct = resolvent_bundle(A, q).S_left + QMatrix.identity(2) * 1e-4
    op_norm(st.bundle0.S_left)
    ran = rows_per_block(monkeypatch, 2, 16)
    shapes = count_linalg(monkeypatch)
    got = residual_report(st, q, direct, 1e-5, 60)
    assert ran == [(0, 5), (5, 6), (11, 12), (23, 16), (39, 16), (55, 6)]
    assert [linalg_rows([shape]) for shape in shapes["eigvalsh"]] == [
        5, 5, 6, 6, 12, 12, 16, 16, 16, 16, 6, 6]
    assert shapes["svd"] == []
    assert got == reference_report(st, q, direct, 1e-5, 60)
    assert not got[1] and len(got[0]) == 61


def count_coefficient_products(monkeypatch):
    """Count the stacked pair_matmul calls that extend series coefficients
    (series._Coefficients._extend) from here on."""
    products, inside = [0], [0]
    extend, matmul = series._Coefficients._extend, series.hmat.pair_matmul

    def counted_extend(self, m):
        inside[0] += 1
        try:
            return extend(self, m)
        finally:
            inside[0] -= 1

    def counted_matmul(*args):
        products[0] += inside[0] > 0
        return matmul(*args)

    monkeypatch.setattr(series._Coefficients, "_extend", counted_extend)
    monkeypatch.setattr(series.hmat, "pair_matmul", counted_matmul)
    return products


@pytest.mark.parametrize("n, most", [(1, 603), (8, 611)])
def test_series_report_svd_row_gate(n, most, monkeypatch, capsys):
    # the 300 rows print 600 norms and ||S_left(q0)|| takes one, all from
    # the norm kernel; the center bundle and the direct bundle take one
    # pencil SVD each.  At n = 8 the residual norms of blocks of 64 rows
    # run a few rows past the first passing one, to the first row whose
    # Frobenius majorant passes.  `most` is the former pin on SVD rows,
    # when every norm took an SVD.
    shapes = count_linalg(monkeypatch)
    rc = main(["series", "--n", str(n), "--q0", "1", "--q", "1.9",
               "--tol", "1e-14", "--nmax", "400"])
    assert rc == 0 and json.loads(capsys.readouterr().out)["N"] == 299
    rows = {key: linalg_rows(shapes[key]) for key in ("svd", "eigvalsh")}
    assert rows == {"svd": 2, "eigvalsh": {1: 601, 8: 609}[n]}
    assert rows["svd"] + rows["eigvalsh"] <= most


@pytest.mark.parametrize("n, want", [(1, 8), (8, 9)])
def test_series_report_coefficient_product_gate(n, want, monkeypatch,
                                                capsys):
    # B_1..B_301 by doubling: the indices h+1..2h are one stacked product
    # for each power of two h = 2..256, 8 in all when the 300 rows fit one
    # block (n = 1); at n = 8 blocks of 64 rows split the last power's
    # indices over two calls.  The two-index recurrence took about 150.
    products = count_coefficient_products(monkeypatch)
    rc = main(["series", "--n", str(n), "--q0", "1", "--q", "1.9",
               "--tol", "1e-14", "--nmax", "400"])
    assert rc == 0 and json.loads(capsys.readouterr().out)["N"] == 299
    assert products[0] == want


def test_verify_svd_count_gate(monkeypatch, capsys):
    rc, rep, work = count_work(monkeypatch, capsys, [
        "verify", "--n", "4", "--trials", "50", "--seed", "42"])
    assert rc == 0 and rep["all_passed"]
    # two chunks of at most 32 trials; per chunk: one pencil SVD per round
    # of the sampler (which also gives the bundles their pencils' singular
    # values) and one for the series points' pencils, and norm kernel
    # calls for the matrices' norms, the series centers' ||S_left||, each
    # round of the series screens, and every norm the row table and the
    # exact remainders read; no pencil is certified.  Was at most 13 SVDs.
    assert (work["svd"], work["eigvalsh"]) == (4, 9)
    assert work["det"] == 0


def test_verify_bundle_count_gate(monkeypatch, capsys):
    rc, rep, work = count_work(monkeypatch, capsys, [
        "verify", "--n", "4", "--trials", "50", "--seed", "42"])
    assert rc == 0 and rep["all_passed"]
    # seven bundles per trial, one call per chunk: p, q, conj(q), the real
    # center, the derivative point and its conjugate, and the series point
    assert work["bundle"] <= 350


def test_verify_inverse_count_gate(monkeypatch, capsys):
    rc, rep, work = count_work(monkeypatch, capsys, [
        "verify", "--n", "4", "--trials", "50", "--seed", "42"])
    assert rc == 0 and rep["all_passed"]
    # one stacked inverse per chunk: the series points are placed from the
    # sampling stack's radii, so all bundles of a chunk take one call
    assert work["inv"] <= 2


@pytest.mark.parametrize("n", [2, 4, 8])
def test_verify_work_grows_by_chunks_not_by_trials(n, monkeypatch, capsys):
    # one trial, one full chunk and three chunks and a bit: the calls grow
    # with the number of chunks, never by a call per trial.  Two pencil
    # SVDs per chunk, and the norm kernel calls of each run below; SVDs
    # and kernel calls together were at most 8 per chunk.
    kernel = {2: [4, 4, 16], 4: [4, 5, 19], 8: [4, 4, 16]}[n]
    size = verify.chunk_trials(n)
    assert size > 1
    for trials, calls in zip((1, size, 3 * size + 1), kernel):
        chunks = -(-trials // size)
        rc, rep, work = count_work(monkeypatch, capsys, [
            "verify", "--n", str(n), "--trials", str(trials)])
        assert rc == 0 and rep["all_passed"]
        assert work["inv"] == chunks
        assert work["bundle"] == 7 * trials
        assert (work["svd"], work["eigvalsh"]) == (2 * chunks, calls)
        assert work["svd"] + work["eigvalsh"] <= 8 * chunks


@pytest.mark.parametrize("k", [1, 6, 40])
def test_stacked_bundles_take_one_svd_and_one_inverse(k, monkeypatch):
    rng = np.random.default_rng(89)
    A = random_qmatrix(4, rng)
    points = [certified_real_point(A) + Quaternion(*rng.uniform(0, 1, 4))
              for _ in range(k)]
    record = count_calls(monkeypatch)
    resolvent_arrays(A, points)
    assert calls(record) == {"svd": 1, "eigvalsh": 0, "inv": 1, "det": 0,
                             "bundle": k}


def test_cassini_svd_count_gate(monkeypatch, capsys, tmp_path):
    # ||A|| (one kernel call, stored, read twice) and the pencil at q0,
    # whose SVD gives the bound with no bundle and no inverse; then one
    # SVD of chi(A) - z0*I certifies every sample, however many there are
    # (spectrum.center_certified), and no sample needs a determinant or an
    # SVD of its own.  Was 1 SVD and 1 determinant (the determinant
    # certificate), and 2 SVDs before it.
    path = tmp_path / "m.json"
    path.write_text(json.dumps(MAT2))
    svds, kernels, invs, dets, bundles = [], [], [], [], []
    for trials in (100, 1000):
        rc, rep, work = count_work(monkeypatch, capsys, [
            "cassini", "--input", str(path), "--trials", str(trials)])
        assert rc == 0 and rep["samples_inside"] == trials
        svds.append(work["svd"])
        kernels.append(work["eigvalsh"])
        invs.append(work["inv"])
        dets.append(work["det"])
        bundles.append(work["bundle"])
    assert svds == [2, 2]
    assert kernels == [1, 1]
    assert invs == [0, 0]
    assert dets == [0, 0]
    assert bundles == [0, 0]


NONNORMAL = {"n": 2, "entries": [[[1, 0, 0, 0], [1000, 0, 0, 0]],
                                 [[0, 0, 0, 0], [1.5, 0.5, 0, 0]]]}


def test_cassini_nonnormal_svd_count_gate(monkeypatch, capsys, tmp_path):
    # a strongly non-normal 2x2 input at a non-real center where the
    # center certificate decides none of the 1000 samples: ||A|| (one
    # kernel call), the SVD of the pencil at q0, the one of chi(A) - z0*I,
    # and one stacked SVD of every sample's pencil (1024 rows fit one
    # block at n = 2); no determinant, no inverse and no bundle.  Was 2
    # SVDs and 1 determinant, which certified every sample.
    path = tmp_path / "m.json"
    path.write_text(json.dumps(NONNORMAL))
    rc, rep, work = count_work(monkeypatch, capsys, [
        "cassini", "--input", str(path), "--q0=1.5,0.9,0,0",
        "--trials", "1000"])
    assert rc == 0 and rep["samples_inside"] == 1000
    assert work == {"svd": 3, "eigvalsh": 1, "inv": 0, "det": 0,
                    "bundle": 0}


def test_spectrum_svd_count_gate(monkeypatch, capsys, tmp_path):
    # ||A|| once (one kernel call, stored, read three times) and one
    # stacked pencil SVD for the spheres and the off-sphere probe (was
    # 2 SVDs)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(MAT2))
    rc, rep, work = count_work(monkeypatch, capsys, [
        "spectrum", "--input", str(path)])
    assert rc == 0 and rep["oracle_validation"]["agrees"]
    assert work == {"svd": 1, "eigvalsh": 1, "inv": 0, "det": 0, "bundle": 0}


def test_resolvent_work_gate(monkeypatch, capsys, tmp_path):
    # the bundle's pencil SVD, which also gives ||Q|| and the radius, then
    # one stacked kernel call for ||S_left||, ||S_right|| and the
    # shift-pairing residual (was 2 SVDs); the bundle inverts the pencil
    # once
    path = tmp_path / "m.json"
    path.write_text(json.dumps(MAT2))
    rc, rep, work = count_work(monkeypatch, capsys, [
        "resolvent", "--input", str(path), "--q", "0.5,1,0,0"])
    assert rc == 0
    assert work == {"svd": 1, "eigvalsh": 1, "inv": 1, "det": 0, "bundle": 1}


def test_slice_resolvent_map_takes_one_svd_per_point(monkeypatch):
    # each evaluation is one bundle: its pencil SVD is the domain test, and
    # the bundle inverts the same array
    A = random_qmatrix(3, np.random.default_rng(88))
    z0 = complex(certified_real_point(A).w, 0.0)
    f = s_resolvent_map(A)
    record = count_calls(monkeypatch)
    cauchy_coeffs(f, Quaternion(0.0, 1.0), z0, 0.1, 16, 1)
    assert calls(record) == {"svd": 16, "eigvalsh": 0, "inv": 16, "det": 0,
                             "bundle": 16}
    for seen in record.values():
        seen.clear()
    stem_decompose(f, z0 + 0.1j, Quaternion(0.0, 0.0, 1.0))
    assert calls(record) == {"svd": 2, "eigvalsh": 0, "inv": 2, "det": 0,
                             "bundle": 2}
