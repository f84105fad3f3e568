"""End-to-end acceptance checks, one test per required behavior.

Each test is self-contained: it draws its own seeded instances, computes
both sides of the identity under test (or an independent oracle), and
asserts the pinned tolerance.  Run with ``pytest -v tests/test_acceptance.py``
to get one pass/fail line per check.
"""

import math
import statistics

import numpy as np
import pytest

from quatspec.errors import DegenerateConfiguration
from quatspec.hmat import QMatrix, chi, op_norm, random_qmatrix
from quatspec.quatcore import (Quaternion, cassini_u,
                               point_at_cassini_distance, random_unit_imag,
                               sphere_of, triangle)
from quatspec.series import (certified_real_point, converge_series_Q,
                             converge_series_S, eval_series_S, series_init,
                             term_norms)
from quatspec.sliceanalysis import (cauchy_coeffs, s_resolvent_map,
                                    sderiv_operator, slice_point, taylor_eval)
from quatspec.spectrum import (blowup_probe, cassini_dist, cor1_check,
                               in_resolvent, s_spectrum, sample_cassini_ball)
from quatspec.sresolvent import (delta_op, random_resolvent_point,
                                 residual_mixed_eq, residual_q_eq,
                                 residual_resolvent_eq, resolvent_bundle)

I = Quaternion(0.0, 1.0, 0.0, 0.0)
SIZES = (1, 2, 4, 6)


def rand_quat(rng, lo=-3.0, hi=3.0):
    c = rng.uniform(lo, hi, size=4)
    return Quaternion(float(c[0]), float(c[1]), float(c[2]), float(c[3]))


def smallest_pencil_sv(A, q):
    sv = np.linalg.svd(chi(delta_op(A, q)), compute_uv=False)
    return float(sv[-1])


def test_resolvent_two_point_identity_at_desk_scale():
    # 100 seeded instances across sizes 1, 2, 4, 6; relative residual of
    # the two-point identity for the left resolvent stays below 1e-10
    rng = np.random.default_rng(1001)
    worst = 0.0
    for t in range(100):
        A = random_qmatrix(SIZES[t % 4], rng)
        p = random_resolvent_point(A, rng)
        q = random_resolvent_point(A, rng)
        bp = resolvent_bundle(A, p)
        bq = resolvent_bundle(A, q)
        scale = (1.0 + op_norm(bp.S_left) + op_norm(bq.S_left)
                 + bq.norm_Q * (abs(q - p)
                                + op_norm(bp.S_left) * abs(triangle(q, p))))
        worst = max(worst, residual_resolvent_eq(bp, bq) / scale)
    assert worst <= 1e-10


def test_pseudo_resolvent_identity_both_orderings():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for t in range(100):
        A = random_qmatrix(SIZES[t % 4], rng)
        p = random_resolvent_point(A, rng)
        q = random_resolvent_point(A, rng)
        bp = resolvent_bundle(A, p)
        bq = resolvent_bundle(A, q)
        dnorm = op_norm(delta_op(A, q) - delta_op(A, p))
        scale = 1.0 + bp.norm_Q + bq.norm_Q + dnorm * bp.norm_Q * bq.norm_Q
        r_pq, r_qp = residual_q_eq(bp, bq)
        worst = max(worst, r_pq / scale, r_qp / scale)
    assert worst <= 1e-10


def test_mixed_identity_off_sphere_and_degenerate_guard():
    rng = np.random.default_rng(1003)
    worst = 0.0
    checked = 0
    for t in range(100):
        A = random_qmatrix(SIZES[t % 4], rng)
        q = random_resolvent_point(A, rng)
        p = random_resolvent_point(A, rng)
        tri = triangle(q, p)
        if abs(tri) <= 1e-6 * (1.0 + p.abs2() + q.abs2()):
            continue  # essentially same-sphere draws are tested below
        bp = resolvent_bundle(A, p)
        bq = resolvent_bundle(A, q)
        prod = op_norm(bq.S_right) * op_norm(bp.S_left)
        diff = op_norm(bq.S_right - bp.S_left)
        scale = 1.0 + prod + diff * (abs(p) + abs(q)) / abs(tri)
        worst = max(worst, residual_mixed_eq(bp, bq) / scale)
        checked += 1
    assert checked >= 95
    assert worst <= 1e-10

    # constructed same-sphere pairs must trip the degeneracy guard
    rng = np.random.default_rng(1004)
    for _ in range(10):
        A = random_qmatrix(2, rng)
        q = random_resolvent_point(A, rng, require_nonreal=True)
        sp = sphere_of(q)
        d = random_unit_imag(rng)
        mate = Quaternion(sp.r, sp.s * d.x, sp.s * d.y, sp.s * d.z)
        bq = resolvent_bundle(A, q)
        with pytest.raises(DegenerateConfiguration):
            residual_mixed_eq(bq, resolvent_bundle(A, mate))
        with pytest.raises(DegenerateConfiguration):
            residual_mixed_eq(bq, resolvent_bundle(A, q.conj()))


def test_series_convergence_and_term_ratio():
    # expanding around the certified real center and evaluating halfway
    # to the boundary: the sum matches the direct resolvent within 60
    # terms and the measured two-step term ratio sits near 1/4
    rng = np.random.default_rng(1005)
    for t in range(24):
        A = random_qmatrix((t % 4) + 1, rng)
        st = series_init(A, certified_real_point(A))
        q = point_at_cassini_distance(st.q0, 0.5 * st.R,
                                      random_unit_imag(rng),
                                      float(rng.uniform(0.0, 2 * math.pi)))
        b = resolvent_bundle(A, q)
        partial, tail, N, conv = converge_series_S(st, q, 1e-9)
        assert conv and N <= 60
        assert op_norm(partial - b.S_left) <= 1e-8 * (
            1.0 + op_norm(b.S_left))
        tn = term_norms(st, q, max(N, 20))
        ratios = [tn[k + 2] / tn[k] for k in range(2, len(tn) - 2)
                  if tn[k] > 0.0]
        r = statistics.median(ratios)
        assert 0.2 <= r <= 0.3


def test_partial_sum_plus_exact_remainder():
    from quatspec.quatcore import qpow
    from quatspec.series import remainder_exact
    rng = np.random.default_rng(1006)
    for t in range(100):
        A = random_qmatrix((t % 4) + 1, rng)
        st = series_init(A, certified_real_point(A))
        q = point_at_cassini_distance(st.q0,
                                      float(rng.uniform(0.3, 0.7)) * st.R,
                                      random_unit_imag(rng),
                                      float(rng.uniform(0.0, 2 * math.pi)))
        N = t % 7  # truncation orders 0..6
        b = resolvent_bundle(A, q)
        tri = triangle(st.q0, q)
        rem_op = (st.coeff(2 * N + 2) @ b.S_left).scale_right(
            qpow(tri, N + 1))
        partial, _ = eval_series_S(st, q, 2 * N + 1)
        scale = 1.0 + op_norm(b.S_left) + op_norm(partial) + op_norm(rem_op)
        assert op_norm(b.S_left - partial - rem_op) <= 1e-10 * scale
        # the closed-form majorant dominates the true remainder
        rem, _ = remainder_exact(st, b, N)
        bound = op_norm(b.S_left) * (abs(tri) * st.bundle0.norm_Q) ** (N + 1)
        assert rem <= bound + 1e-12 * scale


def test_pseudo_resolvent_series_accuracy():
    rng = np.random.default_rng(1007)
    for t in range(24):
        A = random_qmatrix((t % 4) + 1, rng)
        st = series_init(A, certified_real_point(A))
        q = point_at_cassini_distance(st.q0, 0.5 * st.R,
                                      random_unit_imag(rng),
                                      float(rng.uniform(0.0, 2 * math.pi)))
        b = resolvent_bundle(A, q)
        partial, tail, N, conv = converge_series_Q(st, q, 1e-9)
        assert conv and N <= 60
        assert op_norm(partial - b.Q) <= 1e-8 * (1.0 + b.norm_Q)


def test_localization_ball_stays_in_resolvent_set():
    # 50 instances; in each, 100 draws from the ball of radius 0.99R about
    # a random resolvent point all stay in the resolvent set
    rng = np.random.default_rng(1008)
    for t in range(50):
        A = random_qmatrix(SIZES[t % 4], rng)
        q0 = random_resolvent_point(A, rng)
        R = resolvent_bundle(A, q0).radius
        pts = sample_cassini_ball(q0, 0.99 * R, 100, rng)
        assert len(pts) == 100
        assert all(in_resolvent(A, p) for p in pts)


def test_spectrum_distance_lower_bound_tightness():
    rng = np.random.default_rng(1009)
    for t in range(50):
        A = random_qmatrix(SIZES[t % 4], rng)
        q0 = random_resolvent_point(A, rng)
        u_dist, bound = cor1_check(A, resolvent_bundle(A, q0))
        assert u_dist >= bound - 1e-10
    # exact tightness for the unit-imaginary 1x1 operator probed from 2
    A = QMatrix.from_entries([[[0, 1, 0, 0]]])
    u_dist, bound = cor1_check(A, resolvent_bundle(A, Quaternion(2.0)))
    assert abs(u_dist - math.sqrt(5.0)) <= 1e-12
    assert abs(bound - math.sqrt(5.0)) <= 1e-12


def test_norm_blowup_approaching_spectrum():
    # zero operator: the pseudo-resolvent norm quadruples at every halving
    # step toward the spectrum, exactly
    probe = blowup_probe(QMatrix.zeros(1), Quaternion(0.0), 20)
    for m, (p, norm_q) in enumerate(probe, start=1):
        assert p == Quaternion(2.0 ** -m)
        assert abs(norm_q - 4.0 ** m) <= 1e-12 * 4.0 ** m
    # unit-imaginary operator: norms cross 1e6 within 24 steps
    A = QMatrix.from_entries([[[0, 1, 0, 0]]])
    probe = blowup_probe(A, I, 24)
    assert max(norm_q for _, norm_q in probe) > 1e6


def test_spherical_derivative_equals_negative_pseudo_resolvent():
    rng = np.random.default_rng(1010)
    for t in range(20):
        A = random_qmatrix(SIZES[t % 4], rng)
        f = s_resolvent_map(A)
        q = random_resolvent_point(A, rng, require_nonreal=True)
        b = resolvent_bundle(A, q)
        scale = 1.0 + b.norm_Q
        assert op_norm(sderiv_operator(f, q) + b.Q) <= 1e-10 * scale
        # real-axis branch runs on finite differences: looser tolerance
        r = certified_real_point(A)
        br = resolvent_bundle(A, r)
        scale_r = 1.0 + br.norm_Q
        assert op_norm(sderiv_operator(f, r) + br.Q) <= 1e-6 * scale_r


def test_eigenvalue_spectrum_agrees_with_singularity_oracle():
    # the eigenvalue route and the pencil-singularity route must agree:
    # smallest singular value collapses on every reported sphere and stays
    # away from zero at Cassini distance >= 0.1 from all spheres
    rng = np.random.default_rng(1011)
    for t in range(50):
        n = (t % 3) + 2
        A = random_qmatrix(n, rng)
        spec = s_spectrum(A)
        gate = 1e-8 * (1.0 + op_norm(A)) ** 2
        assert spec.total_multiplicity() == n
        for sp, _mult in spec.spheres:
            d = random_unit_imag(rng)
            q = Quaternion(sp.r, sp.s * d.x, sp.s * d.y, sp.s * d.z)
            assert smallest_pencil_sv(A, q) <= gate
        for _ in range(3):
            probe = rand_quat(rng)
            tries = 0
            while cassini_dist(probe, spec) < 0.1:
                probe = rand_quat(rng)
                tries += 1
                assert tries < 500
            assert smallest_pencil_sv(A, probe) > gate


def test_contour_coefficients_and_disk_reconstruction():
    # pinned case: coefficients of the inverse map alternate sign exactly
    f0 = s_resolvent_map(QMatrix.zeros(1))
    coeffs = cauchy_coeffs(f0, I, 1.0 + 0.0j, 0.5, 256, 10)
    for n, a in enumerate(coeffs):
        assert abs(a.entry(0, 0) - Quaternion((-1.0) ** n)) <= 1e-10
    # random 3x3 instance: the recovered coefficients rebuild the slice
    # restriction on the half-radius disk
    rng = np.random.default_rng(1012)
    A = random_qmatrix(3, rng)
    f = s_resolvent_map(A)
    z0 = complex(certified_real_point(A).w, 0.0)
    coeffs = cauchy_coeffs(f, I, z0, 0.5, 256, 30)
    for k in range(12):
        z = z0 + 0.25 * float(rng.uniform(0.2, 1.0)) * np.exp(
            1j * float(rng.uniform(0.0, 2 * math.pi)))
        direct = f(slice_point(z, I))
        assert op_norm(taylor_eval(coeffs, z0, z, I) - direct) <= 1e-8


def test_cassini_pseudo_metric_axioms():
    rng = np.random.default_rng(1013)
    # symmetry and the triangle inequality over 10^4 random triples
    for _ in range(10_000):
        a, b, c = rand_quat(rng), rand_quat(rng), rand_quat(rng)
        assert abs(cassini_u(a, b) - cassini_u(b, a)) <= 1e-12
        assert cassini_u(a, c) <= cassini_u(a, b) + cassini_u(b, c) + 1e-12
    # same-sphere pairs are at distance exactly zero
    for _ in range(100):
        q = rand_quat(rng)
        for mate in (q.conj(), Quaternion(q.w, -q.x, q.y, -q.z),
                     Quaternion(q.w, q.y, q.x, q.z)):
            assert cassini_u(q, mate) == 0.0
