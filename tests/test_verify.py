import numpy as np
import pytest

from quatspec import hmat, series, sresolvent, verify
from quatspec.errors import QuatspecError
from quatspec.hmat import random_qmatrix
from quatspec.sresolvent import (off_sphere, pencil_svals,
                                 random_resolvent_point, resolvent_bundle,
                                 well_conditioned)
from quatspec.verify import _trial_residuals, run_identity_suite

from oracles import (sequential_off_sphere_pair, sequential_resolvent_point,
                     sequential_suite)


@pytest.mark.parametrize("n, trials, seed", [(1, 8, 3), (2, 12, 5),
                                             (5, 12, 17)])
def test_each_row_reruns_alone_from_its_worst_trial(n, trials, seed):
    # (seed, worst_trial) alone reproduces a row's max residual exactly
    tol = 1e-8
    rows = run_identity_suite(n, trials, tol, seed)
    assert len({row.name for row in rows}) == len(rows) == 14
    for row in rows:
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, row.worst_trial]))
        A = random_qmatrix(n, rng)
        alone = _trial_residuals(A, rng, tol, series.DEFAULT_NMAX)
        assert list(alone) == [r.name for r in rows]
        assert alone[row.name] == row.max_residual


@pytest.fixture
def redraws(monkeypatch):
    """Count the calls of pencil_svals from here on: one per stack of
    drawn points random_resolvent_points tests."""
    calls = [0]
    svals = sresolvent.pencil_svals

    def counted(*args):
        calls[0] += 1
        return svals(*args)
    monkeypatch.setattr(sresolvent, "pencil_svals", counted)
    return calls


def seeded(seed):
    return np.random.default_rng(np.random.SeedSequence([seed, 0]))


def sample(A, rng):
    """verify's points (p, q, qd, r0, R) for the one trial (A, rng)."""
    (points,), _ = verify._sample_points([A], [rng])
    return points


def sampler_redraws(seeds, calls, check) -> int:
    """Run verify's sampler for n = 1..8 and each seed.

    check(A, rng, points, reference_rng) asserts on each call's points
    (p, q, qd, r0, R); reference_rng is a second generator at the
    state rng had before the call.  Returns how many calls drew their
    points more than once.
    """
    redrawn = 0
    for n in range(1, 9):
        for seed in seeds:
            rngs = [seeded(seed) for _ in range(2)]
            A = random_qmatrix(n, rngs[0])
            random_qmatrix(n, rngs[1])
            before = calls[0]
            points = sample(A, rngs[0])
            redrawn += calls[0] > before + 1
            check(A, rngs[0], points, rngs[1])
    return redrawn


def test_stacked_sampler_matches_the_sequential_samplers(redraws):
    # the first draws pass every test, so one stack decides: p, q and qd
    # are those of the sequential samplers, the generator is left in
    # their state, and R is the radius of the bundle at r0 bit for bit
    def check(A, rng, points, ref):
        p, q, qd, r0, R = points
        ref_p, ref_q = sequential_off_sphere_pair(A, ref)
        ref_qd = sequential_resolvent_point(A, ref, require_nonreal=True)
        assert (p, q, qd) == (ref_p, ref_q, ref_qd)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert R == resolvent_bundle(A, r0).radius

    assert sampler_redraws(range(200), redraws, check) == 0


@pytest.mark.parametrize("require_nonreal", [False, True])
@pytest.mark.parametrize("ratio", [sresolvent.WELL_CONDITIONED_RATIO, 0.5])
def test_random_resolvent_point_matches_the_sequential_loop(
        require_nonreal, ratio, monkeypatch):
    # at the stricter ratio 0.5 about one call in ten draws again
    monkeypatch.setattr(sresolvent, "WELL_CONDITIONED_RATIO", ratio)
    for n in range(1, 9):
        for seed in range(200):
            rngs = [seeded(seed) for _ in range(2)]
            A = random_qmatrix(n, rngs[0])
            random_qmatrix(n, rngs[1])
            q = random_resolvent_point(A, rngs[0], require_nonreal)
            ref = sequential_resolvent_point(A, rngs[1], require_nonreal)
            assert q == ref
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@pytest.mark.parametrize("module, name, value", [
    (sresolvent, "WELL_CONDITIONED_RATIO", 0.5),
    (verify, "OFF_SPHERE_REL_TOL", 0.2)])
def test_stacked_sampler_redraws(module, name, value, monkeypatch, redraws):
    # a stricter test rejects some first draws, and the sampler draws
    # again until every point passes its tests; a second call from the
    # same (seed, trial) returns the same points
    monkeypatch.setattr(module, name, value)

    def check(A, rng, points, ref):
        p, q, qd, r0, R = points
        assert well_conditioned(pencil_svals(A, [p, q, qd])).all()
        assert off_sphere(q, p, verify.OFF_SPHERE_REL_TOL)
        assert qd.im_norm() >= sresolvent.NONREAL_MIN_IMAG
        assert R == resolvent_bundle(A, r0).radius
        again = sample(A, ref)
        assert again == points
        assert rng.bit_generator.state == ref.bit_generator.state

    assert sampler_redraws(range(200), redraws, check) >= 100


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("trials", [1, 2, 7])
def test_stacked_suite_equals_the_loop_over_trials(n, trials, monkeypatch):
    # every row, its worst trial and its verdict bit for bit, in chunks of
    # the default size and, crossing chunk boundaries, of three trials
    want = sequential_suite(n, trials, 1e-8, 11 + n)
    assert [tuple(row) for row in run_identity_suite(
        n, trials, 1e-8, 11 + n)] == want
    monkeypatch.setattr(verify, "CHUNK_TRIALS", 3)
    assert [tuple(row) for row in run_identity_suite(
        n, trials, 1e-8, 11 + n)] == want


def test_stacked_suite_equals_the_loop_where_trials_draw_again(monkeypatch):
    # stricter tests make some trials of a chunk draw again, in rounds they
    # share with the trials still drawing, and others land p on the
    # sphere of q and draw their triple again
    monkeypatch.setattr(sresolvent, "WELL_CONDITIONED_RATIO", 0.5)
    monkeypatch.setattr(verify, "OFF_SPHERE_REL_TOL", 0.2)
    for n in (1, 2, 4, 8):
        assert [tuple(row) for row in run_identity_suite(
            n, 12, 1e-8, 6)] == sequential_suite(n, 12, 1e-8, 6)


def test_stacked_suite_equals_the_loop_where_series_stop_early():
    # at an unreachable tolerance the series run to nmax, and at a loose
    # one they stop at N = 0, before the remainder's partial sum 7
    for tol, nmax in ((1e-300, 3), (1e-300, 0), (1e300, 200)):
        assert [tuple(row) for row in run_identity_suite(
            3, 5, tol, 2, nmax)] == sequential_suite(3, 5, tol, 2, nmax)


def fail_in(monkeypatch, sampling, remainder):
    """Make the trials in `sampling` fail while sampling (their matrices
    are scaled so far that the pencils overflow), and the trials in
    `remainder` in check_remainder."""
    draw, check = hmat.random_qmatrix, series.check_remainder
    late = set()

    def random_qmatrix(n, rng):
        A = draw(n, rng)
        trial = int(rng.bit_generator.seed_seq.entropy[1])
        if trial in sampling:
            return A * 1e200
        if trial in remainder:
            late.add(A.a1.tobytes())
        return A

    def check_remainder(state, q, N, norms):
        if state.A.a1.tobytes() in late:
            raise QuatspecError(f"the remainder check failed at q = {q}")
        return check(state, q, N, norms)

    monkeypatch.setattr(hmat, "random_qmatrix", random_qmatrix)
    monkeypatch.setattr(series, "check_remainder", check_remainder)


@pytest.mark.parametrize("sampling, remainder, first", [
    ({1}, {0}, "remainder"), ({0}, {1}, "overflows"),
    ({1, 2}, {3}, "overflows"), (set(), {2, 3}, "remainder")])
def test_stacked_suite_raises_the_first_failing_trials_error(
        sampling, remainder, first, monkeypatch):
    # trial 0 failing late and trial 1 early raises trial 0's error, with
    # its message, as the loop over trials does
    fail_in(monkeypatch, sampling, remainder)
    with pytest.raises(QuatspecError) as stacked:
        run_identity_suite(2, 4, 1e-8, 5)
    with pytest.raises(QuatspecError) as loop:
        sequential_suite(2, 4, 1e-8, 5)
    assert str(stacked.value) == str(loop.value)
    assert first in str(stacked.value)
