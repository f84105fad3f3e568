"""Seeded numerical verification suite for every operator identity.

Each trial draws a fresh random matrix and well-conditioned evaluation
points, evaluates both sides of every identity the package implements,
and records the relative residual.  The suite reports, per identity, the
maximum residual over all trials together with the trial index attaining
it, so a failure is reproducible from (seed, trial) alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hmat, series, sliceanalysis
from .errors import DegenerateConfiguration, InputError
from .hmat import QMatrix, op_norm
from .quatcore import point_at_cassini_distance, random_unit_imag, triangle
from .spectrum import cor1_check
from .sresolvent import (random_resolvent_point, resolvent_bundle,
                         resolvent_bundles, residual_AS_identity,
                         residual_mixed_eq, residual_q_eq,
                         residual_resolvent_eq)

# Fixed emission order of the suite rows.
ROW_NAMES = (
    "left_resolvent_two_point",
    "pseudo_resolvent_pq",
    "pseudo_resolvent_qp",
    "mixed_two_point",
    "shift_pairing",
    "pseudo_commute",
    "pencil_commute",
    "conjugate_pair_match",
    "real_point_left_right",
    "derivative_of_resolvent",
    "spectrum_distance_bound",
    "resolvent_series_match",
    "series_derivative_match",
    "truncation_remainder",
)

# The convergent-series rows stop at this fraction of the requested
# tolerance, leaving headroom between truncation error and the gate.
SERIES_RTOL_FRACTION = 0.05

# Truncation order for the exact-remainder row (partial sum to 2N+1).
REMAINDER_ORDER = 3


@dataclass(frozen=True)
class SuiteRow:
    """Max relative residual of one identity over all trials."""

    name: str
    max_residual: float
    worst_trial: int
    passed: bool

    def to_json_dict(self) -> dict:
        return {"name": self.name, "max_residual": self.max_residual,
                "worst_trial": self.worst_trial, "passed": self.passed}


def _sample_off_sphere_pair(A, rng):
    """Two resolvent points with p off the sphere of q (retry on collision)."""
    q = random_resolvent_point(A, rng)
    for _ in range(5):
        p = random_resolvent_point(A, rng)
        tri = triangle(q, p)
        if abs(tri) > 1e-9 * (1.0 + p.abs2() + q.abs2()):
            return p, q
    raise DegenerateConfiguration(
        "could not sample a pair off each other's spheres")


def _trial_residuals(A: QMatrix, rng, tol: float, nmax: int) -> dict:
    """Relative residuals of every identity on one random instance."""
    out = {}
    p, q = _sample_off_sphere_pair(A, rng)
    qd = random_resolvent_point(A, rng, require_nonreal=True)
    r0 = series.certified_real_point(A)
    bp, bq, bqc, br, bd, bdc = resolvent_bundles(
        A, [p, q, q.conj(), r0, qd, qd.conj()])
    state = series.SeriesState(A, br)
    norm_sp = op_norm(bp.S_left)

    scale = 1.0 + norm_sp + op_norm(bq.S_left) + bq.norm_Q * (
        abs(q - p) + norm_sp * abs(triangle(q, p)))
    out["left_resolvent_two_point"] = residual_resolvent_eq(bp, bq) / scale

    ddiff = op_norm(bq.pencil - bp.pencil)
    scale = 1.0 + bp.norm_Q + bq.norm_Q + ddiff * bp.norm_Q * bq.norm_Q
    r_pq, r_qp = residual_q_eq(bp, bq)
    out["pseudo_resolvent_pq"] = r_pq / scale
    out["pseudo_resolvent_qp"] = r_qp / scale

    diff_norm = op_norm(bq.S_right - bp.S_left)
    scale = 1.0 + op_norm(bq.S_right) * norm_sp + (
        diff_norm * (abs(p) + abs(q)) / abs(triangle(q, p)))
    out["mixed_two_point"] = residual_mixed_eq(bp, bq) / scale

    scale = 2.0 + norm_sp * (op_norm(A) + abs(p))
    out["shift_pairing"] = residual_AS_identity(A, bp) / scale

    scale = 1.0 + op_norm(A) * bq.norm_Q
    out["pseudo_commute"] = op_norm(A @ bq.Q - bq.Q @ A) / scale

    scale = 1.0 + bp.norm_Q * bq.norm_Q
    out["pencil_commute"] = op_norm(bp.Q @ bq.Q - bq.Q @ bp.Q) / scale

    # The pencil depends on q only through (Re q, |q|**2), so the bundle at
    # the conjugate point reuses bit-identical inputs and Q matches exactly.
    out["conjugate_pair_match"] = op_norm(bq.Q - bqc.Q) / (1.0 + bq.norm_Q)

    out["real_point_left_right"] = op_norm(br.S_left - br.S_right) / (
        1.0 + op_norm(br.S_left))

    deriv = sliceanalysis.sderiv_operator(
        {qd: bd.S_left, qd.conj(): bdc.S_left}.__getitem__, qd)
    out["derivative_of_resolvent"] = op_norm(deriv + bd.Q) / (1.0 + bd.norm_Q)

    u_dist, bound = cor1_check(A, bp)
    out["spectrum_distance_bound"] = max(0.0, bound - u_dist) / (1.0 + bound)

    q_in = point_at_cassini_distance(
        q0=r0, dist=0.5 * state.R, direction=random_unit_imag(rng),
        angle=float(rng.uniform(0.0, 2.0 * np.pi)))
    b_in = resolvent_bundle(A, q_in)
    rtol = SERIES_RTOL_FRACTION * tol
    partial, _, _, _ = series.converge_series_S(state, q_in, rtol, nmax)
    out["resolvent_series_match"] = op_norm(partial - b_in.S_left) / (
        1.0 + op_norm(b_in.S_left))
    partial, _, _, _ = series.converge_series_Q(state, q_in, rtol, nmax)
    out["series_derivative_match"] = op_norm(partial - b_in.Q) / (
        1.0 + b_in.norm_Q)

    N = REMAINDER_ORDER
    rem, direct_err = series.remainder_exact(state, b_in, N)
    out["truncation_remainder"] = abs(direct_err - rem) / (
        1.0 + op_norm(b_in.S_left))
    return out


def run_identity_suite(n: int = 4, trials: int = 50, tol: float = 1e-8,
                       seed: int = 42,
                       nmax: int = series.DEFAULT_NMAX) -> list:
    """Max relative residual of each identity over seeded random trials.

    Trial t uses the generator seeded with (seed, t), so any row's
    (worst_trial, seed) pair reproduces its residual in isolation.
    Returns SuiteRow entries in the fixed ROW_NAMES order.
    """
    if n < 1:
        raise InputError("matrix dimension must be >= 1")
    if trials < 1:
        raise InputError("need at least one trial")
    if tol <= 0.0:
        raise InputError("tolerance must be positive")
    worst = {name: (-1.0, -1) for name in ROW_NAMES}
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        A = hmat.random_qmatrix(n, rng)
        for name, value in _trial_residuals(A, rng, tol, nmax).items():
            if value > worst[name][0]:
                worst[name] = (value, t)
    return [SuiteRow(name=name, max_residual=worst[name][0],
                     worst_trial=worst[name][1],
                     passed=worst[name][0] <= tol)
            for name in ROW_NAMES]
