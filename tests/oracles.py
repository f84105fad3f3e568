"""Oracles the tests read and the package does not use.

Each is a direct computation of a quantity the tests check against; it is
kept here, beside the tests, rather than in the package's public API.
"""

import math

from quatspec.errors import InputError
from quatspec.hmat import QMatrix
from quatspec.quatcore import Quaternion
from quatspec.spectrum import in_resolvent
from quatspec.sresolvent import pencil_svals


def blowup_probe(A: QMatrix, target: Quaternion, steps: int):
    """Pseudo-resolvent norms along a Cassini-convergent approach to target.

    Probes p_m = target + 2**(-m), m = 1..steps, approach the sphere of
    target along the real direction.  The norm ||Q(p_m)|| is evaluated as
    the reciprocal smallest singular value of the pencil, which stays
    finite and exact arbitrarily close to the spectrum (no inversion is
    attempted).  Raises InputError when target is not in the spectrum at
    the package tolerance.
    """
    if steps < 1:
        raise InputError("blowup_probe needs at least one step")
    if in_resolvent(A, target):
        raise InputError("blow-up probe target must lie in the S-spectrum")
    probes = [target + Quaternion(2.0 ** -m) for m in range(1, steps + 1)]
    smallest = pencil_svals(A, probes)[:, -1]
    return [(p, math.inf if sv == 0.0 else 1.0 / float(sv))
            for p, sv in zip(probes, smallest)]
