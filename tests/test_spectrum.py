import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatspec import cli, hmat, sresolvent
from quatspec.errors import InputError, NotInResolventSet, QuatspecError
from quatspec.hmat import QMatrix, chi, op_norm, random_qmatrix, smallest_singular
from quatspec.quatcore import (QI, CassiniBall, Quaternion, SpherePoint,
                               cassini_u, cassini_u_axial,
                               point_at_cassini_distance, random_unit_imag,
                               sphere_of)
from quatspec.series import certified_real_point
from quatspec.spectrum import (SpectrumResult, boundary_polyline,
                               cassini_box, cassini_dist, center_certified,
                               cor1_check, in_resolvent, resolvent_mask,
                               s_spectrum, sample_cassini_ball)
from quatspec.sresolvent import (delta_op, localization_radius,
                                 pencil_svals, resolvent_bundle)

from oracles import blowup_probe, count_linalg
from perfbench import gen


def mat_i():
    return QMatrix.from_entries([[[0, 1, 0, 0]]])


def test_spectrum_zero_operator():
    for n in (1, 2, 5):
        spec = s_spectrum(QMatrix.zeros(n))
        assert spec.spheres == ((sphere_of(Quaternion(0.0)), n),)
        assert spec.total_multiplicity() == n


def spectrum_contains(spec, q, tol=1e-8):
    """Whether q lies within tol of a sphere of spec, in both coordinates."""
    sq = sphere_of(q)
    return any(abs(sp.r - sq.r) <= tol and abs(sp.s - sq.s) <= tol
               for sp, _ in spec.spheres)


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
        assert spectrum_contains(spec, j)
    assert not spectrum_contains(spec, Quaternion(0.5))


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


def mask_case(kind, n, rng):
    """A matrix of the kind and the spheres (r, s) of its spectrum."""
    if kind == "random":
        A = random_qmatrix(n, rng)
        return A, [sp for sp, _ in s_spectrum(A).spheres]
    if kind == "jordan":
        # lam*I plus ones above the diagonal: one sphere, a Jordan block
        lam = Quaternion(*rng.uniform(-2.0, 2.0, size=4).tolist())
        A = (QMatrix.diag([lam] * n)
             + QMatrix(np.eye(n, k=1), np.zeros((n, n))))
        return A, [sphere_of(lam)]
    if kind == "nonnormal":
        # triangular, with entries up to 1e3 above the diagonal: the
        # spheres of its diagonal entries are its spectrum
        diag = [Quaternion(*rng.uniform(-2.0, 2.0, size=4).tolist())
                for _ in range(n)]
        upper = np.triu(rng.uniform(-1e3, 1e3, size=(n, n)), k=1)
        A = QMatrix.diag(diag) + QMatrix(upper, np.zeros((n, n)))
        return A, [sphere_of(d) for d in diag]
    d = rng.uniform(-2.0, 2.0, size=n)   # a real diagonal
    return QMatrix(np.diag(d), np.zeros((n, n))), [SpherePoint(float(r), 0.0)
                                                 for r in d]


def on_sphere(sp, rel, rng):
    """A point of the sphere sp in a random imaginary direction, moved
    rel*(1 + |r| + s) along the real axis."""
    v = rng.normal(size=3)
    v *= sp.s / np.linalg.norm(v)
    q = Quaternion(sp.r, *v.tolist())
    if rel:
        q = q + Quaternion(rel * (1.0 + abs(sp.r) + sp.s))
    return q


def test_resolvent_mask_is_the_svd_verdict():
    # without a center, resolvent_mask is hmat.nonsingular's verdict on
    # pencil_svals row for row; the drawn cases reach either verdict and
    # an exactly singular pencil, with an exact zero on its diagonal
    seen = {"svd_true": 0, "svd_false": 0, "zero_pivot": 0}

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["random", "jordan", "real_diagonal"]),
           n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
           where=st.lists(st.one_of(st.just("random"), st.just(0),
                                    st.integers(2, 14)),
                          min_size=1, max_size=8),
           block=st.sampled_from([None, 1, 3]))
    def check(kind, n, seed, where, block):
        rng = np.random.default_rng(seed)
        A, spheres = mask_case(kind, n, rng)
        box = 2.0 * (1.0 + op_norm(A))
        points = []
        for w in where:
            if w == "random":
                points.append(Quaternion(*rng.uniform(-box, box, 4).tolist()))
            else:   # on a sphere (0) or 10**-w off it
                sp = spheres[int(rng.integers(len(spheres)))]
                points.append(on_sphere(sp, 10.0 ** -w if w else 0.0, rng))
        if kind == "real_diagonal":
            # the pencil (A - d)**2 has an exact zero on its diagonal
            d = float(A.a1[0, 0].real)
            assert delta_op(A, Quaternion(d)).a1[0, 0] == 0.0
            points.insert(int(rng.integers(len(points) + 1)), Quaternion(d))
            seen["zero_pivot"] += 1
        with pytest.MonkeyPatch.context() as mp:
            if block:
                mp.setattr(sresolvent, "PENCIL_BLOCK_BYTES",
                           block * chi(A).nbytes)
            mask = resolvent_mask(A, points)
        want = hmat.nonsingular(pencil_svals(A, points))
        assert np.array_equal(mask, want)
        seen["svd_true"] += int(np.count_nonzero(want))
        seen["svd_false"] += int(np.count_nonzero(~want))

    check()
    assert all(seen.values()), seen


def mask_center(A, spheres, where, rng):
    """A center for resolvent_mask and its localization bound: the
    certified real point, a real point near a sphere of the spectrum, or
    a non-real one; the certified real point where the one drawn is not
    in the resolvent set."""
    sp = spheres[int(rng.integers(len(spheres)))]
    offset = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 1.0) * (1.0 + sp.s)
    if where == "real":
        q0 = Quaternion(sp.r + offset)
    elif where == "nonreal":
        q0 = Quaternion(sp.r + offset, sp.s + rng.uniform(0.1, 1.0))
    else:
        q0 = certified_real_point(A)
    try:
        return q0, localization_radius(A, q0)
    except NotInResolventSet:
        q0 = certified_real_point(A)
        return q0, localization_radius(A, q0)


def test_resolvent_mask_with_a_center_is_the_svd_verdict():
    # given the center, the mask is still hmat.nonsingular's verdict row
    # for row; the drawn cases reach both tiers (the center's SVD, the
    # pencils' SVD of either verdict), and a point whose pencil overflows
    # is refused with the error and at the point it would be without a
    # center
    seen = {"center": 0, "svd_true": 0, "svd_false": 0, "overflow": 0}

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["random", "nonnormal", "real_diagonal"]),
           n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
           center=st.sampled_from(["certified", "real", "nonreal"]),
           where=st.lists(st.one_of(st.sampled_from(["inside", "outside"]),
                                    st.just(0), st.integers(2, 14)),
                          min_size=1, max_size=8),
           overflow=st.lists(st.integers(0, 8), max_size=2),
           block=st.sampled_from([None, 1, 3]))
    def check(kind, n, seed, center, where, overflow, block):
        rng = np.random.default_rng(seed)
        A, spheres = mask_case(kind, n, rng)
        q0, bound = mask_center(A, spheres, center, rng)
        points = []
        for w in where:
            if w in ("inside", "outside"):
                dist = bound * (rng.uniform(0.0, 0.99) if w == "inside"
                                else rng.uniform(1.0, 4.0))
                points.append(point_at_cassini_distance(
                    q0, dist, random_unit_imag(rng),
                    float(rng.uniform(0.0, 2.0 * math.pi))))
            else:   # on a sphere (0) or 10**-w off it
                sp = spheres[int(rng.integers(len(spheres)))]
                points.append(on_sphere(sp, 10.0 ** -w if w else 0.0, rng))
        pts = np.array(points, dtype=float)
        with pytest.MonkeyPatch.context() as mp:
            if block:
                mp.setattr(sresolvent, "PENCIL_BLOCK_BYTES",
                           block * chi(A).nbytes)
            if overflow:
                # the first of these in point order is the one named
                big = np.array([[1e160, 0, 0, 0], [0, 0, 1e155, 0]])
                assert not center_certified(A, q0, big).any()
                far = pts
                for i, row in zip(overflow, big):
                    far = np.insert(far, min(i, len(far)), row, axis=0)
                with pytest.raises(QuatspecError) as got:
                    resolvent_mask(A, far, q0)
                with pytest.raises(QuatspecError) as want:
                    pencil_svals(A, far)
                assert str(got.value) == str(want.value)
                assert "overflows" in str(got.value)
                seen["overflow"] += 1
            mask = resolvent_mask(A, pts, q0)
            by_center = center_certified(A, q0, pts)
        want = hmat.nonsingular(pencil_svals(A, pts))
        assert np.array_equal(mask, want)
        assert want[by_center].all()
        svd = want[~by_center]
        seen["center"] += int(np.count_nonzero(by_center))
        seen["svd_true"] += int(np.count_nonzero(svd))
        seen["svd_false"] += int(np.count_nonzero(~svd))

    check()
    assert all(seen.values()), seen


def test_center_certificate_decides_the_cassini_pool(monkeypatch, capsys,
                                                     tmp_path):
    # the benchmark's cassini pool at seeds 7, 8 and 9: 312 commands of
    # 100 samples, 195 at real centers and 117 at non-real ones.  Every
    # verdict is the SVD's, and the center's SVD decides at least 95% of
    # the samples (97.1%: all of the real centers' and about 92% of the
    # non-real ones'); the rest go to the pencils' SVD.
    decided = []

    def checked(A, points, center=None):
        mask = resolvent_mask(A, points, center)
        assert np.array_equal(mask, hmat.nonsingular(pencil_svals(A, points)))
        decided.append(int(np.count_nonzero(
            center_certified(A, center, points))))
        return mask

    monkeypatch.setattr(cli, "resolvent_mask", checked)
    for seed in (7, 8, 9):
        for cmd in gen.generate("cassini", seed, str(tmp_path / str(seed))):
            assert cli.main(list(cmd.argv)) == 0
            capsys.readouterr()
    assert len(decided) == 312
    assert sum(decided) >= 0.95 * 312 * 100


def test_mixed_scale_pencil_is_not_certified():
    # the pencil of diag(1e-85 i, 1e-145 i) at 0 is diag(-1e-170, -1e-290),
    # sigma ratio 1e-120: the squares of its entries underflow, and the
    # center certificate leaves it to the SVD, about a center at the
    # point itself or far from it
    A = QMatrix(np.diag([1e-85j, 1e-145j]), np.zeros((2, 2)))
    q = Quaternion(0.0)
    assert not in_resolvent(A, q)
    for q0 in (q, Quaternion(1.0)):
        assert not center_certified(A, q0, np.array([q], dtype=float))[0]
        assert not resolvent_mask(A, [q], q0)[0]
    assert not hmat.nonsingular(pencil_svals(A, [q]))[0]


def test_a_center_or_matrix_that_is_not_finite_certifies_nothing(
        capfd, monkeypatch):
    # chi(A) - z0*I that is not finite (a NaN or inf center or matrix, or
    # a shift past the float range) takes no SVD: LAPACK would print about
    # an inf on fd 1 and fail to converge on a NaN.  The center decides no
    # row, and resolvent_mask gives what it gives without the center,
    # verdicts or refusal.
    rng = np.random.default_rng(44)
    A = random_qmatrix(3, rng)
    pts = rng.uniform(-3.0, 3.0, (12, 4))
    poisoned = []
    for bad in (np.inf, np.nan):
        a1 = np.array(A.a1)
        a1[1, 1] = bad
        poisoned.append(QMatrix(a1, A.a2))
    big = QMatrix.from_entries([[[1.5e308, 0, 0, 0]]])
    cases = [(A, pts, Quaternion(bad)) for bad in (np.inf, -np.inf, np.nan)]
    cases += [(A, pts, Quaternion(1.0, 0.0, np.inf, 0.0)),
              (A, pts, Quaternion(0.5, np.nan, 0.0, 0.0)),
              (big, pts[:2], Quaternion(-1.5e308))]
    cases += [(B, pts, q0) for B in poisoned
              for q0 in (Quaternion(1.0), Quaternion(np.inf))]
    refused = 0
    for M, points, q0 in cases:
        shapes = count_linalg(monkeypatch)
        assert not center_certified(M, q0, points).any()
        assert shapes == {"svd": [], "eigvalsh": [], "inv": [], "slogdet": []}
        try:
            want = resolvent_mask(M, points)
        except QuatspecError as exc:
            with pytest.raises(QuatspecError) as got:
                resolvent_mask(M, points, q0)
            assert str(got.value) == str(exc)
            refused += 1
        else:
            assert np.array_equal(resolvent_mask(M, points, q0), want)
    assert refused == 5
    assert capfd.readouterr().out == ""


@pytest.mark.parametrize("n", [1, 2, 8, 9, 12])
def test_resolvent_mask_takes_no_determinant(monkeypatch, n):
    # membership is the center's SVD and the pencils' SVD alone: the rows
    # the center leaves, and every row without a center, take one stacked
    # SVD, with and without a center and one point at a time
    # (in_resolvent) alike, and no determinant at any n.  A real diagonal
    # A has exactly singular pencils on its spheres at every n (at n = 1
    # a pencil's two singular values are equal unless it is zero)
    rng = np.random.default_rng(n)
    A, spheres = mask_case("real_diagonal", n, rng)
    q0, bound = mask_center(A, spheres, "nonreal", rng)
    points = [point_at_cassini_distance(q0, bound * f, random_unit_imag(rng),
                                        float(rng.uniform(0.0, 2 * math.pi)))
              for f in (0.1, 0.5, 0.9, 1.5, 3.0)]
    points += [on_sphere(sp, rel, rng) for sp in spheres[:3]
               for rel in (0.0, 1e-12, 1e-3)]
    shapes = count_linalg(monkeypatch)
    plain = resolvent_mask(A, points)
    centered = resolvent_mask(A, points, q0)
    single = [in_resolvent(A, q) for q in points]
    # one SVD without a center, two with it (of chi(A) - z0*I and of the
    # rows it leaves) and one per in_resolvent call
    assert shapes["slogdet"] == []
    assert len(shapes["svd"]) == 1 + 2 + len(points)
    monkeypatch.undo()
    want = hmat.nonsingular(pencil_svals(A, points))
    assert want.any() and not want.all()
    assert np.array_equal(plain, want)
    assert np.array_equal(centered, want)
    assert single == want.tolist()


def test_cassini_dist():
    spec = SpectrumResult(spheres=((sphere_of(QI), 1),))
    d = cassini_dist(Quaternion(2.0), spec)
    assert abs(d - math.sqrt(5.0)) <= 1e-12
    assert cassini_dist(QI, spec) == 0.0


def test_spectrum_distance_bound_tight_case():
    A = mat_i()
    u_dist, bound = cor1_check(A, resolvent_bundle(A, Quaternion(2.0)))
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
        u_dist, bound = cor1_check(A, resolvent_bundle(A, q0))
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
    assert type(pts) is np.ndarray
    assert pts.dtype == float and pts.shape == (200, 4)
    ball = CassiniBall(q0, 1.25)
    for p in map(Quaternion._make, pts.tolist()):
        assert ball.contains(p)
        assert cassini_u(p, q0) < 1.25
    empty = sample_cassini_ball(q0, 1.25, 0, rng)
    assert empty.dtype == float and empty.shape == (0, 4)
    # deterministic under the same generator state
    pts2 = sample_cassini_ball(q0, 1.25, 200, np.random.default_rng(64))
    pts1 = sample_cassini_ball(q0, 1.25, 200, np.random.default_rng(64))
    assert pts1.tobytes() == pts2.tobytes()


# (|Im q0|, radius) at unit scale: a real center, radius below |Im q0|,
# the lemniscate radius = |Im q0|, between it and sqrt(2)*|Im q0|, where
# the two forms of the box's half-width meet, and far beyond.
BOX_SHAPES = [(0.0, 1.0), (1.0, 0.5), (1.0, 1.0), (1.0, 1.2),
              (1.0, math.sqrt(2.0)), (1.0, 1000.0)]
BOX_SCALES = [1e-80, 1.0, 1e150]


def box_centers():
    """(q0, radius) over BOX_SHAPES x BOX_SCALES, centers off the axis."""
    for scale in BOX_SCALES:
        for b, radius in BOX_SHAPES:
            q0 = Quaternion(0.7 * scale, 0.6 * b * scale, 0.0, 0.8 * b * scale)
            yield q0, radius * scale


def test_cassini_box_is_the_exact_bounding_box():
    for q0, radius in box_centers():
        a, b = q0.w, q0.im_norm()
        h, s_lo, s_hi = cassini_box(b, radius)
        pts = np.array(boundary_polyline(q0, radius, count=4001))
        x, s = np.abs(pts[:, 0] - a), np.abs(pts[:, 1])
        slack = 1e-12 * s_hi
        assert x.max() <= h + slack
        assert s.min() >= s_lo - slack and s.max() <= s_hi + slack
        # every side of the box is touched by the region; at s_lo = 0 the
        # polyline crosses the real axis between two rays, or touches it
        assert x.max() >= (1.0 - 1e-6) * h
        assert pts[:, 1].min() <= s_lo + 1e-6 * s_hi
        assert s.max() >= (1.0 - 1e-6) * s_hi


def test_cassini_box_far_below_the_center_scale():
    # radius/|Im q0| near 1e-85: both s bounds round to about |Im q0|,
    # the lower one is held at the upper, and the sampler still draws
    q0 = Quaternion(-1.0, 1e8, 1.0, 1e8)
    b, radius = q0.im_norm(), 1.4000714267493641e-77
    h, s_lo, s_hi = cassini_box(b, radius)
    assert s_lo == s_hi == b
    pts = sample_cassini_ball(q0, radius, 10, np.random.default_rng(66))
    ball = CassiniBall(q0, radius)
    assert all(ball.contains(Quaternion(*p)) for p in pts.tolist())


def loose_box_sample(q0, radius, count, rng):
    """Axial (r, s) of count points by rejection from a loose box.

    The box |r - a| <= d, s <= b + d with d = b + sqrt(b**2 + radius**2)
    holds the planar region around (a, b); an independent reference for
    the distribution of sample_cassini_ball.
    """
    a, b = q0.w, q0.im_norm()
    d = b + math.hypot(b, radius)
    ball = CassiniBall(q0, radius)
    r_kept, s_kept = [], []
    while sum(map(len, r_kept)) < count:
        r = a + rng.uniform(-d, d, size=4096)
        s = rng.uniform(0.0, b + d, size=4096)
        ok = ball.contains_axial(r, s)
        r_kept.append(r[ok])
        s_kept.append(s[ok])
    return np.concatenate(r_kept)[:count], np.concatenate(s_kept)[:count]


def ks_pvalue(x, y):
    """Asymptotic p-value of the two-sample Kolmogorov-Smirnov test."""
    x, y = np.sort(x), np.sort(y)
    both = np.concatenate([x, y])
    d = np.max(np.abs(np.searchsorted(x, both, side="right") / len(x)
                      - np.searchsorted(y, both, side="right") / len(y)))
    ne = len(x) * len(y) / (len(x) + len(y))
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
    p = 2.0 * sum((-1) ** (j - 1) * math.exp(-2.0 * (j * lam) ** 2)
                  for j in range(1, 101))
    return min(1.0, max(0.0, p))


def test_sampler_matches_loose_box_rejection():
    # the exact box changes which points are drawn, not their law
    for seed, (b, radius) in enumerate(BOX_SHAPES):
        q0 = Quaternion(0.7, 0.6 * b, 0.0, 0.8 * b)
        pts = sample_cassini_ball(q0, radius, 2000,
                                  np.random.default_rng(300 + seed))
        r, s = loose_box_sample(q0, radius, 2000,
                                np.random.default_rng(400 + seed))
        pts = list(map(Quaternion._make, pts.tolist()))
        assert ks_pvalue([p.w for p in pts], r) > 0.01
        assert ks_pvalue([p.im_norm() for p in pts], s) > 0.01


class CountingGenerator:
    """A numpy Generator that counts the candidates the sampler draws.

    Each candidate takes one normal 3-vector for its direction.
    """

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.candidates = 0

    def normal(self, size):
        self.candidates += size[0]
        return self.rng.normal(size=size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_sampler_draw_count_gate():
    # the region fills at least 0.70 of its box, so the first block of
    # 2 * count candidates nearly always suffices; lower this bound only
    count = 100
    for seed, (q0, radius) in enumerate(box_centers()):
        rng = CountingGenerator(500 + seed)
        pts = sample_cassini_ball(q0, radius, count, rng)
        assert pts.shape == (count, 4)
        ball = CassiniBall(q0, radius)
        assert all(ball.contains(Quaternion(*p)) for p in pts.tolist())
        assert rng.candidates <= 3 * count


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
