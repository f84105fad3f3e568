"""quatspec: numerically verified quaternionic operator theory.

Quaternions and Cassini geometry (quatcore), quaternionic matrices over
their complex adjoint representation (hmat), pseudo-resolvents and left/
right S-resolvents with their two-point identities (sresolvent), the
S-spectrum with localization bounds (spectrum), spherical series
expansions with certified tails (series), the spherical derivative and
contour Taylor coefficients of slice functions (sliceanalysis), a seeded
identity suite (verify), and a CLI (cli).
"""

from .errors import (DegenerateConfiguration, InputError, NotInResolventSet,
                     OutsideConvergenceDomain, QuatspecError)
from .hmat import (QMatrix, chi, from_chi, op_norm, op_norms,
                   qmatrix_from_json_dict, qmatrix_to_json_dict,
                   random_qmatrix)
from .quatcore import (QI, QJ, QK, CassiniBall, Quaternion, SpherePoint,
                       cassini_u, point_at_cassini_distance, qinv, qmul, qpow,
                       sphere_of, triangle)
from .series import (SeriesState, certified_real_point, converge_series_Q,
                     converge_series_S, remainder_exact, series_init)
from .sliceanalysis import cauchy_coeffs, sderiv_operator, slice_point
from .spectrum import (SpectrumResult, boundary_polyline, cassini_dist,
                       cor1_check, in_resolvent, s_spectrum,
                       sample_cassini_ball)
from .sresolvent import (ResolventBundle, delta_op, resolvent_bundle,
                         residual_AS_identity, residual_mixed_eq,
                         residual_q_eq, residual_resolvent_eq)
from .verify import SuiteRow, run_identity_suite

__version__ = "0.1.0"

__all__ = [
    "CassiniBall", "DegenerateConfiguration", "InputError",
    "NotInResolventSet", "OutsideConvergenceDomain", "QI", "QJ", "QK",
    "QMatrix", "Quaternion", "QuatspecError", "ResolventBundle",
    "SeriesState", "SpectrumResult", "SpherePoint", "SuiteRow",
    "boundary_polyline", "cassini_dist", "cassini_u", "cauchy_coeffs",
    "certified_real_point", "chi", "converge_series_Q", "converge_series_S",
    "cor1_check", "delta_op", "from_chi", "in_resolvent", "op_norm",
    "op_norms", "point_at_cassini_distance", "qinv",
    "qmatrix_from_json_dict", "qmatrix_to_json_dict", "qmul", "qpow",
    "random_qmatrix", "remainder_exact", "resolvent_bundle",
    "residual_AS_identity", "residual_mixed_eq", "residual_q_eq",
    "residual_resolvent_eq", "run_identity_suite",
    "s_spectrum", "sample_cassini_ball", "sderiv_operator",
    "series_init", "slice_point", "sphere_of", "triangle",
]
