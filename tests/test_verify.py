import numpy as np
import pytest

from quatspec import series
from quatspec.hmat import random_qmatrix
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
