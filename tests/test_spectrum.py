import math

import numpy as np
import pytest

from quatspec.errors import InputError
from quatspec.hmat import QMatrix, chi, op_norm, random_qmatrix, smallest_singular
from quatspec.quatcore import (QI, Quaternion, cassini_u_axial,
                               point_at_cassini_distance, random_unit_imag,
                               sphere_of)
from quatspec.spectrum import (SpectrumResult, blowup_probe,
                               boundary_polyline, cassini_dist, cor1_check,
                               in_resolvent, s_spectrum, sample_cassini_ball)
from quatspec.sresolvent import delta_op


def mat_i():
    return QMatrix.from_entries([[[0, 1, 0, 0]]])


def test_spectrum_zero_operator():
    for n in (1, 2, 5):
        spec = s_spectrum(QMatrix.zeros(n))
        assert spec.spheres == ((sphere_of(Quaternion(0.0)), n),)
        assert spec.total_multiplicity() == n


def test_spectrum_single_imaginary_unit():
    spec = s_spectrum(mat_i())
    assert len(spec.spheres) == 1
    sp, mult = spec.spheres[0]
    assert mult == 1
    assert abs(sp.r) <= 1e-14 and abs(sp.s - 1.0) <= 1e-14
    # every point of the sphere is recognized, independent of direction
    rng = np.random.default_rng(60)
    for _ in range(10):
        j = random_unit_imag(rng)
        assert spec.contains(j)
    assert not spec.contains(Quaternion(0.5))


def test_spectrum_real_diagonal():
    D = QMatrix.diag([Quaternion(1.0), Quaternion(2.0)])
    spec = s_spectrum(D)
    got = sorted((sp.r, sp.s, m) for sp, m in spec.spheres)
    assert len(got) == 2
    assert abs(got[0][0] - 1.0) <= 1e-14 and got[0][1] <= 1e-14
    assert abs(got[1][0] - 2.0) <= 1e-14 and got[1][1] <= 1e-14
    assert got[0][2] == 1 and got[1][2] == 1


def test_spectrum_multiplicity_clusters():
    # two copies of the same spectral sphere merge with multiplicity 2
    D = QMatrix.diag([QI, Quaternion(0, 0, 1, 0)])
    spec = s_spectrum(D)
    assert len(spec.spheres) == 1
    sp, mult = spec.spheres[0]
    assert mult == 2
    assert abs(sp.s - 1.0) <= 1e-14


def test_total_multiplicity_is_dimension():
    rng = np.random.default_rng(61)
    for n in (1, 2, 4, 6, 8):
        A = random_qmatrix(n, rng)
        assert s_spectrum(A).total_multiplicity() == n


def test_spectrum_matches_pencil_singularity_oracle():
    # the independent characterization: the pencil loses invertibility
    # exactly on the spectral spheres
    rng = np.random.default_rng(62)
    for _ in range(10):
        A = random_qmatrix(4, rng)
        spec = s_spectrum(A)
        gate = 1e-8 * (1.0 + op_norm(A)) ** 2
        for sp, _ in spec.spheres:
            rep = Quaternion(sp.r, sp.s, 0.0, 0.0)
            assert smallest_singular(delta_op(A, rep)) <= gate
        # probe points pushed away from every sphere stay invertible
        for sp, _ in spec.spheres:
            rep = Quaternion(sp.r, sp.s, 0.0, 0.0)
            off = point_at_cassini_distance(rep, 0.5, QI,
                                            float(rng.uniform(0, 2 * math.pi)))
            if cassini_dist(off, spec) >= 0.1:
                assert smallest_singular(delta_op(A, off)) > gate


def test_in_resolvent():
    A = mat_i()
    assert not in_resolvent(A, QI)
    assert not in_resolvent(A, Quaternion(0, 0, 0, 1))
    assert in_resolvent(A, Quaternion(2.0))
    assert in_resolvent(A, Quaternion(0.0))  # 0 is off the unit sphere


def test_cassini_dist():
    spec = SpectrumResult(spheres=((sphere_of(QI), 1),))
    d = cassini_dist(Quaternion(2.0), spec)
    assert abs(d - math.sqrt(5.0)) <= 1e-12
    assert cassini_dist(QI, spec) == 0.0


def test_spectrum_distance_bound_tight_case():
    u_dist, bound = cor1_check(mat_i(), Quaternion(2.0))
    assert abs(u_dist - math.sqrt(5.0)) <= 1e-10
    assert abs(bound - math.sqrt(5.0)) <= 1e-10
    assert u_dist >= bound - 1e-12


def test_spectrum_distance_bound_never_beats_distance():
    rng = np.random.default_rng(63)
    for _ in range(25):
        A = random_qmatrix(3, rng)
        c = rng.uniform(-4, 4, size=4)
        q0 = Quaternion(float(c[0]), float(c[1]), float(c[2]), float(c[3]))
        if not in_resolvent(A, q0):
            continue
        u_dist, bound = cor1_check(A, q0)
        assert u_dist >= bound - 1e-10 * (1.0 + bound)


def test_blowup_zero_operator_exact_powers():
    probe = blowup_probe(QMatrix.zeros(1), Quaternion(0.0), 20)
    for m, (p, norm_q) in enumerate(probe, start=1):
        assert p == Quaternion(2.0 ** -m)
        assert abs(norm_q - 4.0 ** m) <= 1e-12 * 4.0 ** m


def test_blowup_reaches_million_before_25():
    probe = blowup_probe(mat_i(), QI, 25)
    crossed = [m for m, (_, norm_q) in enumerate(probe, start=1)
               if norm_q > 1e6]
    assert crossed and crossed[0] < 25


def test_blowup_rejects_resolvent_target():
    with pytest.raises(InputError):
        blowup_probe(mat_i(), Quaternion(3.0), 5)
    with pytest.raises(InputError):
        blowup_probe(QMatrix.zeros(1), Quaternion(0.0), 0)


def test_sample_cassini_ball():
    rng = np.random.default_rng(64)
    q0 = Quaternion(1.0, 0.0, 1.5, 0.0)
    pts = sample_cassini_ball(q0, 1.25, 200, rng)
    assert len(pts) == 200
    from quatspec.quatcore import CassiniBall, cassini_u
    ball = CassiniBall(q0, 1.25)
    for p in pts:
        assert type(p) is Quaternion
        assert ball.contains(p)
        assert cassini_u(p, q0) < 1.25
    assert sample_cassini_ball(q0, 1.25, 0, rng) == []
    # deterministic under the same generator state
    pts2 = sample_cassini_ball(q0, 1.25, 200, np.random.default_rng(64))
    pts1 = sample_cassini_ball(q0, 1.25, 200, np.random.default_rng(64))
    assert pts1 == pts2


def test_boundary_polyline_on_level_set():
    for q0 in (Quaternion(2.0), Quaternion(0.5, 1.0, 0.0, 0.0),
               Quaternion(-1.0, 0.2, 0.3, 0.6)):
        radius = 0.8
        pts = boundary_polyline(q0, radius, count=73)
        assert len(pts) == 73
        c = sphere_of(q0)
        for r, s in pts:
            u = cassini_u_axial(sphere_of(Quaternion(r, abs(s), 0, 0)),
                                c) if s >= 0 else \
                cassini_u_axial(sphere_of(Quaternion(r, -s, 0, 0)), c)
            assert abs(u - radius) <= 1e-9 * (1.0 + radius + abs(q0))
    # real center: the curve is the circle of the given radius
    pts = boundary_polyline(Quaternion(2.0), 0.5, count=5)
    for r, s in pts:
        assert abs(math.hypot(r - 2.0, s) - 0.5) <= 1e-12


def test_chi_eigenvalues_pair_up():
    # eigenvalues of the complex representation come in conjugate pairs,
    # which is what the folding step relies on
    rng = np.random.default_rng(65)
    A = random_qmatrix(5, rng)
    lam = np.linalg.eigvals(chi(A))
    for v in lam:
        assert np.min(np.abs(lam - np.conj(v))) <= 1e-10 * (1.0 + op_norm(A))
