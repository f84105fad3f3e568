import json
import math

import numpy as np
import pytest

from quatspec import series, sresolvent
from quatspec.cli import main
from quatspec.errors import InputError, OutsideConvergenceDomain
from quatspec.hmat import (QMatrix, op_norm, qmatrix_to_json_dict,
                           random_qmatrix)
from quatspec.quatcore import (Quaternion, cassini_u,
                               point_at_cassini_distance, random_unit_imag,
                               spherical_power, spherical_power_sderiv,
                               triangle)
from quatspec.series import (certified_real_point, converge_series_Q,
                             converge_series_S, eval_series_Q, eval_series_S,
                             remainder_exact, residual_report, series_init,
                             tail_bound_Q, tail_bound_S, tail_rule,
                             term_norms)
from quatspec.sliceanalysis import (cauchy_coeffs, s_resolvent_map,
                                    stem_decompose)
from quatspec.sresolvent import resolvent_bundle, resolvent_bundles


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
    assert tail_bound_S(st, Quaternion(3.0), 4) == math.inf
    assert tail_bound_Q(st, Quaternion(3.0), 4) == math.inf
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
    tail = tail_bound_Q if derivative else tail_bound_S
    for n, (_, partial) in enumerate(
            reference_partials(state, q, nmax, derivative)):
        t = tail(state, q, n)
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
                                        tail_bound_S(state, q, n), residual)]))
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
        assert not q.is_real()
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
    # below the real-axis cutoff the closed form is used, as pointwise
    A = random_qmatrix(2, np.random.default_rng(79))
    st = series_init(A, certified_real_point(A))
    q = Quaternion(st.q0.w - 0.5 * st.R, 1e-9, 0.0, 0.0)
    ref = reference_partials(st, q, 20, derivative=True)
    for N in (0, 1, 5, 20):
        assert same_bits(eval_series_Q(st, q, N)[0], ref[N][1])


def rows_per_block(monkeypatch, n, rows):
    """Cap every block at `rows` indices for n x n inputs.

    Patches the byte budget where the one block rule reads it, and returns
    a list that collects (lo, size) for every series block run from here
    on, so a test can see that its runs span more than one block.
    """
    monkeypatch.setattr(sresolvent, "PENCIL_BLOCK_BYTES",
                        rows * 16 * (2 * n) ** 2)
    assert sresolvent.block_rows(n) == rows
    ran = []
    blocks = series._blocks

    def recorded(*args, **kwargs):
        for block in blocks(*args, **kwargs):
            ran.append((block[0], len(block[1])))
            yield block

    monkeypatch.setattr(series, "_blocks", recorded)
    return ran


def reference_report(state, q, direct, tol, nmax):
    """residual_report's rows from the term-by-term definition."""
    rows = []
    for n, (term, partial) in enumerate(reference_partials(state, q, nmax)):
        residual = op_norm(partial - direct)
        rows.append([n, op_norm(term), tail_bound_S(state, q, n), residual])
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
    for derivative, converge in ((False, converge_series_S),
                                 (True, converge_series_Q)):
        got = converge(st, q, 1e-13, 200)
        want = reference_converge(st, q, 1e-13, 200, derivative)
        assert got[2:] == (want[2], True) and got[2] > 7
        assert same_bits(got[0], want[0]) and got[1] == want[1]
    got = residual_report(st, q, direct, 1e-13, 200)
    assert got == reference_report(st, q, direct, 1e-13, 200)
    assert got[1] and len(got[0]) > 8
    if rows:
        assert max(size for _, size in ran) <= rows
        assert max(lo for lo, _ in ran) > 0


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
    for derivative, converge in ((False, converge_series_S),
                                 (True, converge_series_Q)):
        got = converge(st, q, 1e-30, nmax)
        want = reference_converge(st, q, 1e-30, nmax, derivative)
        assert got[2:] == (nmax, False) == want[2:]
        assert same_bits(got[0], want[0]) and got[1] == want[1]
    got = residual_report(st, q, direct, -1.0, nmax)
    assert got == reference_report(st, q, direct, -1.0, nmax)
    assert len(got[0]) == nmax + 1 and not got[1]
    assert term_norms(st, q, nmax) == [op_norm(t) for t, _ in
                                       reference_partials(st, q, nmax)]
    assert same_bits(eval_series_Q(st, q, nmax)[0],
                     reference_partials(st, q, nmax, True)[-1][1])
    # every run past index 2 spans more than one block
    assert max(size for _, size in ran) <= 3
    assert (max(lo for lo, _ in ran) > 0) == (nmax > 2)


def reference_tail_S(state, q, N):
    nq = state.bundle0.norm_Q
    rho = nq * abs(triangle(state.q0, q))
    if rho >= 1.0:
        return math.inf
    c1 = op_norm(state.bundle0.S_left)
    c2 = nq * abs(q - state.q0)
    return (c1 * rho ** (N // 2 + 1) + c2 * rho ** ((N + 1) // 2)) / (1.0 - rho)


def reference_tail_Q(state, q, N):
    nq = state.bundle0.norm_Q
    rho = nq * abs(triangle(state.q0, q))
    if rho >= 1.0:
        return math.inf
    c0 = abs(q) + abs(state.q0)
    c1 = op_norm(state.bundle0.S_left)

    def arith_geo(m):
        return rho ** (m - 1) * (m - (m - 1) * rho) / (1.0 - rho) ** 2

    ke, ko = N // 2 + 1, (N + 1) // 2
    return (2.0 * c1 * c0 * nq * arith_geo(ke)
            + nq * (rho ** ko / (1.0 - rho))
            + 2.0 * c0 * c0 * nq * nq * arith_geo(max(ko, 1)))


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
            assert tail_bound_S(st, q, N) == reference_tail_S(st, q, N)
            assert tail_bound_Q(st, q, N) == reference_tail_Q(st, q, N)
        for N in (0, 1, 17, nmax):
            assert converge_series_Q(st, q, 1e-30, N)[1] == \
                reference_tail_Q(st, q, N)


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
            assert tail_rule(t2, rtol, p1, p2) == 1
            assert tail_rule(t2[:1], rtol, p1[:1], p2[:1]) is None


# --- work gates: these ceilings may be lowered, never raised ---------------

MAT2 = {"n": 2, "entries": [[[0.5, 1, 0, 0], [0.25, 0, 0.5, 0]],
                            [[0, 0, 0, -0.5], [-1, 0, 0.75, 0]]]}


def count_calls(monkeypatch):
    """Count SVDs, inverses and resolvent bundles from here on.

    Every bundle is built through sresolvent.ResolventBundle, so counting
    that name counts bundles whichever module asks for one.
    """
    calls = {"svd": 0, "inv": 0, "bundle": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key, owner, name in (("svd", np.linalg, "svd"),
                             ("inv", np.linalg, "inv"),
                             ("bundle", sresolvent, "ResolventBundle")):
        monkeypatch.setattr(owner, name, counted(getattr(owner, name), key))
    return calls


def count_work(monkeypatch, capsys, argv):
    """Run one command; count its SVDs, inverses and resolvent bundles."""
    calls = count_calls(monkeypatch)
    rc = main(argv)
    report = json.loads(capsys.readouterr().out)
    return rc, report, calls


def test_series_report_takes_two_svds_per_block(monkeypatch, capsys):
    argv = ["series", "--q0", "1", "--q", "1.9", "--tol", "1e-14",
            "--nmax", "400"]
    rc, rep, work = count_work(monkeypatch, capsys, argv)
    assert rc == 0 and rep["N"] == 299
    # the center bundle, whose ||Q(q0)|| is 1/sigma_min, the direct
    # bundle and ||S_left(q0)|| (3 SVDs), then two stacked SVDs per block:
    # all 300 rows fit in the first (4096 rows at n = 1)
    assert work["svd"] <= 3 + 2 * 1
    # at 64 rows per block the 300 rows take five blocks
    ran = rows_per_block(monkeypatch, 1, 64)
    rc, rep, work = count_work(monkeypatch, capsys, argv)
    assert rc == 0 and rep["N"] == 299
    assert [lo for lo, _ in ran] == [0, 64, 128, 192, 256]
    assert work["svd"] <= 3 + 2 * 5


def test_verify_svd_count_gate(monkeypatch, capsys):
    rc, rep, work = count_work(monkeypatch, capsys, [
        "verify", "--n", "4", "--trials", "50", "--seed", "42"])
    assert rc == 0 and rep["all_passed"]
    assert work["svd"] <= 1504


def test_verify_bundle_count_gate(monkeypatch, capsys):
    rc, rep, work = count_work(monkeypatch, capsys, [
        "verify", "--n", "4", "--trials", "50", "--seed", "42"])
    assert rc == 0 and rep["all_passed"]
    # seven bundles per trial: p, q, conj(q), the real center, the
    # derivative point and its conjugate, and the series point
    assert work["bundle"] <= 350


def test_verify_inverse_count_gate(monkeypatch, capsys):
    rc, rep, work = count_work(monkeypatch, capsys, [
        "verify", "--n", "4", "--trials", "50", "--seed", "42"])
    assert rc == 0 and rep["all_passed"]
    # two stacked inverses per trial: the six points known before the
    # series center, then the series point
    assert work["inv"] <= 100


@pytest.mark.parametrize("k", [1, 6, 40])
def test_stacked_bundles_take_one_svd_and_one_inverse(k, monkeypatch):
    rng = np.random.default_rng(89)
    A = random_qmatrix(4, rng)
    points = [certified_real_point(A) + Quaternion(*rng.uniform(0, 1, 4))
              for _ in range(k)]
    work = count_calls(monkeypatch)
    resolvent_bundles(A, points)
    assert work == {"svd": 1, "inv": 1, "bundle": k}


def test_cassini_svd_count_gate(monkeypatch, capsys, tmp_path):
    # ||A|| (stored, read twice) and the bundle at q0, whose pencil SVD
    # gives the bound, then one stacked SVD tests every sample, however
    # many there are
    path = tmp_path / "m.json"
    path.write_text(json.dumps(MAT2))
    counts = []
    for trials in (100, 1000):
        rc, rep, work = count_work(monkeypatch, capsys, [
            "cassini", "--input", str(path), "--trials", str(trials)])
        assert rc == 0 and rep["samples_inside"] == trials
        counts.append(work["svd"])
    assert counts == [3, 3]


def test_spectrum_svd_count_gate(monkeypatch, capsys, tmp_path):
    # ||A|| once (stored, read three times) and one stacked SVD for the
    # spheres and the off-sphere probe
    path = tmp_path / "m.json"
    path.write_text(json.dumps(MAT2))
    rc, rep, work = count_work(monkeypatch, capsys, [
        "spectrum", "--input", str(path)])
    assert rc == 0 and rep["oracle_validation"]["agrees"]
    assert work == {"svd": 2, "inv": 0, "bundle": 0}


def test_resolvent_work_gate(monkeypatch, capsys, tmp_path):
    # the bundle's pencil SVD, which also gives ||Q|| and the radius, then
    # ||S_left||, ||S_right|| and the shift-pairing residual; the bundle
    # inverts the pencil once
    path = tmp_path / "m.json"
    path.write_text(json.dumps(MAT2))
    rc, rep, work = count_work(monkeypatch, capsys, [
        "resolvent", "--input", str(path), "--q", "0.5,1,0,0"])
    assert rc == 0
    assert work == {"svd": 4, "inv": 1, "bundle": 1}


def test_slice_resolvent_map_takes_one_svd_per_point(monkeypatch):
    # each evaluation is one bundle: its pencil SVD is the domain test, and
    # the bundle inverts the same array
    A = random_qmatrix(3, np.random.default_rng(88))
    z0 = complex(certified_real_point(A).w, 0.0)
    f = s_resolvent_map(A)
    work = count_calls(monkeypatch)
    cauchy_coeffs(f, Quaternion(0.0, 1.0), z0, 0.1, 16, 1)
    assert work == {"svd": 16, "inv": 16, "bundle": 16}
    work.update(svd=0, inv=0, bundle=0)
    stem_decompose(f, z0 + 0.1j, Quaternion(0.0, 0.0, 1.0))
    assert work == {"svd": 2, "inv": 2, "bundle": 2}
