import numpy as np
import pytest

from quatspec import series, sresolvent, verify
from quatspec.hmat import random_qmatrix
from quatspec.sresolvent import random_resolvent_point, resolvent_bundle
from quatspec.verify import _trial_residuals, run_identity_suite


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
def fallbacks(monkeypatch):
    """Count the calls of the sequential pair sampler from here on."""
    calls = [0]
    pair = verify._sample_off_sphere_pair

    def counted(*args):
        calls[0] += 1
        return pair(*args)
    monkeypatch.setattr(verify, "_sample_off_sphere_pair", counted)
    return calls


def sampler_fallbacks(seeds, calls) -> int:
    """Check the one-stack sampler against the sequential samplers.

    For n = 1..8 and each seed, it must return the p, q and qd of
    _sample_off_sphere_pair followed by random_resolvent_point(...,
    require_nonreal=True), leave the generator in their state, and give
    the radius of the bundle at r0 bit for bit.  Returns how many of its
    calls fell back to the sequential samplers.
    """
    fell_back = 0
    for n in range(1, 9):
        for seed in seeds:
            rngs = [np.random.default_rng(np.random.SeedSequence([seed, 0]))
                    for _ in range(2)]
            A = random_qmatrix(n, rngs[0])
            random_qmatrix(n, rngs[1])
            before = calls[0]
            p, q, qd, r0, R = verify._sample_points(A, rngs[0])
            fell_back += calls[0] > before
            ref_p, ref_q = verify._sample_off_sphere_pair(A, rngs[1])
            ref_qd = random_resolvent_point(A, rngs[1], require_nonreal=True)
            assert (p, q, qd) == (ref_p, ref_q, ref_qd)
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
            assert R == resolvent_bundle(A, r0).radius
    return fell_back


def test_stacked_sampler_matches_the_sequential_samplers(fallbacks):
    # the first draws pass every test, so the stack alone decides
    assert sampler_fallbacks(range(200), fallbacks) == 0


@pytest.mark.parametrize("module, name, value", [
    (sresolvent, "WELL_CONDITIONED_RATIO", 0.5),
    (verify, "OFF_SPHERE_REL_TOL", 0.2)])
def test_stacked_sampler_falls_back_to_the_sequential_samplers(
        module, name, value, monkeypatch, fallbacks):
    # a stricter test rejects some first draws: the generator goes back
    # and the sequential samplers draw again, as they would have
    monkeypatch.setattr(module, name, value)
    assert sampler_fallbacks(range(200), fallbacks) >= 100
