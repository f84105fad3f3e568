"""Seeded input generator: matrix JSON files and command lists.

``generate(workload, seed, workdir)`` writes every matrix the workload
needs into ``workdir`` and returns its command pool, a list of
``Command``.  The same (workload, seed) always gives byte-identical files
and the same commands.  Only numpy is used; Cassini distances, pencil
margins and the expected report values come from ``oracle``.

Quaternion flags are always passed as ``--q=W,X,Y,Z``: argparse takes a
separate value that starts with '-' for a flag and exits 2.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import oracle

WORKLOADS = ("verify", "series", "cassini", "query")

# verify: trials per command; few, so that one command stays ~50 ms.
VERIFY_TRIALS = 2
VERIFY_POOL = 102

# series: tolerance, the truncation indices N the points are placed for
# (the centers of ten log-uniform bins over SERIES_N: the CLI's cost grows
# as N**2, so an N that the seed draws would make the timing depend on the
# seed), and the Cassini fractions u(q, q0)/R allowed for them.
SERIES_TOL = 1e-12
SERIES_N = (20, 115)
SERIES_FRACTIONS = (0.2, 0.85)
SERIES_POOL = 40

# cassini: samples per command, and CASSINI_NONREAL of every 8 commands
# use a non-real center (not 4 of 8: with two cost populations of equal
# size the median falls in the gap between them and jumps between seeds).
# A non-real center sits at Cassini distance CASSINI_NEAR x s from the
# spectral sphere (r, s) of largest s, placed so that its localization
# bound over |Im q0| hits one of 8 fixed targets spread over
# CASSINI_RATIO.  The sampler's acceptance rate is a function of that
# ratio alone (1.4% to 3.6% here, against 79% for a real center); below
# the band it falls as its fourth power and one command can take seconds.
CASSINI_TRIALS = 100
CASSINI_NONREAL = 3
CASSINI_NEAR = (0.3, 3.0)
CASSINI_RATIO = (0.7, 0.9)
CASSINI_POOL = 104

# query: matrices (each gets one spectrum and one resolvent command) and
# the range of log10 of the point's Cassini distance / (1 + ||A||).
QUERY_MATRICES = 60
QUERY_LOG_DIST = (-2.0, 0.0)

# Every generated evaluation point keeps the pencil's smallest singular
# value above this fraction of its largest (resolvent set with margin).
PENCIL_MARGIN = 1e-6


@dataclass(frozen=True)
class Command:
    """One CLI invocation with the oracle's expectations for its report."""

    argv: tuple
    kind: str
    fmt: str
    expect: dict


def quat_flag(name: str, q) -> str:
    return f"--{name}=" + ",".join(repr(float(c)) for c in q)


def _unit_imag(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _random_entries(n: int, rng) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=(n, n, 4))


def _unitary_chi(n: int, rng) -> np.ndarray:
    """chi of a random quaternionic unitary: the polar factor of chi(M)."""
    W, _, Vh = np.linalg.svd(oracle.entries_chi(_random_entries(n, rng)))
    return W @ Vh


def _diag_unit_chi(n: int, rng) -> np.ndarray:
    """chi of a diagonal matrix of random unit quaternions."""
    u = rng.normal(size=(n, 4))
    u /= np.linalg.norm(u, axis=1)[:, None]
    return oracle.entries_chi(np.einsum("ik,ij->ijk", u, np.eye(n)))


def _similar(T: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Components of U @ T @ U* for complex upper-triangular T (a2 = 0)."""
    n = T.shape[0]
    Tc = np.block([[T, np.zeros((n, n))], [np.zeros((n, n)), np.conj(T)]])
    return oracle.from_chi(U @ Tc @ U.conj().T)


def _eig_value(rng) -> complex:
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(0.2, 1.0))


def repeated_entries(rng) -> np.ndarray:
    """Normal matrix with one eigenvalue sphere repeated 2..n-1 times."""
    n = int(rng.integers(3, 7))
    k = int(rng.integers(2, n))
    lam, mu = _eig_value(rng), _eig_value(rng)
    others = [_eig_value(rng) for _ in range(n - k - 1)]
    return _similar(np.diag([lam] * k + [mu] + others), _unitary_chi(n, rng))


def clustered_entries(rng, interleaved: bool) -> np.ndarray:
    """Spheres (c, a), (c + d1, b), (c + d2, a) with d1, d2 ~ 1e-9.

    The first and last are one sphere at the package tolerance.  When
    ``interleaved`` the middle one sorts between them (d1 < d2), which is
    the input s_spectrum clusters wrongly today.
    """
    c = rng.uniform(-1.0, 1.0)
    a = rng.uniform(0.3, 0.8)
    b = a + rng.uniform(0.3, 1.0)
    d2 = rng.uniform(1.0, 5.0) * 1e-9
    d1 = d2 * (rng.uniform(0.2, 0.8) if interleaved else rng.uniform(1.5, 3.0))
    vals = [complex(c, a), complex(c + d1, b), complex(c + d2, a)]
    vals += [_eig_value(rng) for _ in range(int(rng.integers(0, 3)))]
    return _similar(np.diag(vals), _unitary_chi(len(vals), rng))


def jordan_entries(rng) -> np.ndarray:
    """A 2x2 Jordan block (real or non-real eigenvalue) plus up to two
    simple eigenvalues, under a diagonal unit-quaternion similarity."""
    lam = _eig_value(rng)
    if rng.uniform() < 0.5:
        lam = complex(lam.real, 0.0)
    extra = [_eig_value(rng) for _ in range(int(rng.integers(0, 3)))]
    T = np.diag([lam, lam] + extra)
    T[0, 1] = 1.0
    return _similar(T, _diag_unit_chi(T.shape[0], rng))


def radial_offset(b: float, dist: float, sin_a: float) -> float:
    """Smallest t >= 0 with t**2 * (t**2 + 4*b*t*sin_a + 4*b**2) = dist**4.

    Moving t from the axial point (a, b) along the planar direction with
    sine sin_a reaches Cassini distance dist from the sphere (a, b).
    """
    roots = np.roots([1.0, 4.0 * b * sin_a, 4.0 * b * b, 0.0, -dist ** 4])
    real = roots[np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots))].real
    return float(real[real >= 0.0].min())


def point_near(r: float, s: float, dist: float, rng, ang=None,
               direction=None) -> tuple:
    """A quaternion at Cassini distance dist from the sphere (r, s), in a
    random (or the given) planar direction ang and imaginary direction."""
    if ang is None:
        ang, direction = rng.uniform(0.0, 2.0 * math.pi), _unit_imag(rng)
    t = radial_offset(s, dist, math.sin(ang))
    w, im = r + t * math.cos(ang), s + t * math.sin(ang)
    return (float(w), *(float(c) for c in im * direction))


def well_conditioned(C: np.ndarray, q) -> bool:
    sv = oracle.svals(oracle.pencil(C, q))
    return bool(sv[-1] > PENCIL_MARGIN * sv[0])


class _Files:
    """Writes numbered matrix documents into one directory."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0
        os.makedirs(workdir, exist_ok=True)

    def write(self, entries: np.ndarray) -> str:
        path = os.path.join(self.workdir, f"m{self.count:03d}.json")
        self.count += 1
        doc = {"n": int(entries.shape[0]), "entries": entries.tolist()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path


def _fmt(i: int) -> str:
    return ("json", "csv")[i % 2]


def _verify(rng, files) -> list:
    out = []
    for i in range(VERIFY_POOL):
        n, fmt = (2, 4, 8)[i % 3], _fmt(i // 3)
        seed = int(rng.integers(0, 2 ** 32))
        argv = ("verify", "--n", str(n), "--trials", str(VERIFY_TRIALS),
                "--seed", str(seed), "--format", fmt)
        out.append(Command(argv, "verify", fmt, {}))
    return out


def series_index(C: np.ndarray, q, tol: float, stop: int) -> int:
    """Predicted truncation index N at which the CLI's series residual
    first reaches tol (capped at stop), from the closed-form remainder

        S - partial(2k+1) = Q0**(k+1) @ S * t**(k+1),
        S - partial(2k)   = Q0**(k+1) @ (S * t - (q - q0)) * t**k,

    with S = S_left(q), Q0 the pseudo-resolvent at the default real
    center q0 and t = triangle(q0, q).  Frobenius norms stand in for
    operator norms (within a factor sqrt(2n)), which is close enough to
    place a point in its bin.
    """
    n = C.shape[0] // 2
    q0 = oracle.certified_real_point(C)
    Q0 = np.linalg.inv(oracle.pencil(C, (q0, 0.0, 0.0, 0.0)))
    Qq = np.linalg.inv(oracle.pencil(C, q))
    S = Qq @ oracle.scalar_chi((q[0], -q[1], -q[2], -q[3]), n) - C @ Qq
    w, v = q[0] - q0, np.asarray(q[1:])
    t = (q[0] ** 2 - float(v @ v) - 2.0 * q0 * q[0] + q0 * q0, *(2.0 * w * v))
    odd = Q0 @ S
    even = Q0 @ (S @ oracle.scalar_chi(t, n) - oracle.scalar_chi((w, *v), n))
    tk = 1.0
    abs_t = oracle.triangle_abs((q0, 0.0, 0.0, 0.0), q)
    for k in range(stop // 2 + 1):
        if np.linalg.norm(even) * tk <= tol:
            return 2 * k
        tk *= abs_t
        if np.linalg.norm(odd) * tk <= tol:
            return 2 * k + 1
        odd, even = Q0 @ odd, Q0 @ even
    return stop


def _crossing(below, lo: float, hi: float, steps: int = 12):
    """Bisect for where below(x) turns False on [lo, hi]; None when it
    does not change between the ends."""
    if not below(lo) or below(hi):
        return None
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return hi


def series_point(C: np.ndarray, target: int, rng):
    """A point whose expansion needs about `target` terms, or None when no
    Cassini fraction in SERIES_FRACTIONS gets there."""
    q0 = oracle.certified_real_point(C)
    R = math.sqrt(oracle.svals(oracle.pencil(C, (q0, 0.0, 0.0, 0.0)))[-1])
    ang, direction = rng.uniform(0.0, 2.0 * math.pi), _unit_imag(rng)

    def point(frac):
        return point_near(q0, 0.0, frac * R, rng, ang, direction)

    frac = _crossing(
        lambda f: series_index(C, point(f), SERIES_TOL, target) < target,
        *SERIES_FRACTIONS)
    return None if frac is None else point(frac)


def _series(rng, files) -> list:
    lo, hi = SERIES_N
    out = []
    for i in range(SERIES_POOL):
        n, fmt = (1, 2, 4, 8)[i % 4], _fmt(i // 4)
        level = ((i // 4 + i % 4) % 10 + 0.5) / 10.0
        target = round(lo * (hi / lo) ** level)
        q = None
        while q is None:
            entries = _random_entries(n, rng)
            C = oracle.entries_chi(entries)
            q = series_point(C, target, rng)
        argv = ("series", "--input", files.write(entries), quat_flag("q", q),
                "--tol", repr(SERIES_TOL), "--format", fmt)
        out.append(Command(argv, "series", fmt,
                           oracle.expect_series(entries, q, SERIES_TOL)))
    return out


def cassini_center(C: np.ndarray, ratio: float, rng) -> tuple:
    """A non-real center near the spectral sphere (r, s) of largest s whose
    localization bound is `ratio` times its imaginary part."""
    pts = oracle.eigen_points(C)
    r, s = pts[np.argmax(pts[:, 1])]

    def below(q0):
        bound = math.sqrt(oracle.svals(oracle.pencil(C, q0))[-1])
        return bound < ratio * np.linalg.norm(q0[1:])

    for _ in range(100):
        ang, direction = rng.uniform(0.0, 2.0 * math.pi), _unit_imag(rng)

        def point(frac):
            return point_near(r, s, frac * s, rng, ang, direction)

        frac = _crossing(lambda f: below(point(f)), *CASSINI_NEAR)
        if frac is not None:
            return point(frac)
    raise RuntimeError("no non-real Cassini center at the requested ratio")


def _cassini(rng, files) -> list:
    lo, hi = CASSINI_RATIO
    out = []
    nonreal = 0
    for i in range(CASSINI_POOL):
        n, fmt = i % 8 + 1, _fmt(i // 8)
        entries = _random_entries(n, rng)
        argv = ("cassini", "--input", files.write(entries),
                "--trials", str(CASSINI_TRIALS), "--format", fmt)
        q0 = None
        if (i % 8 + i // 8) % 8 < CASSINI_NONREAL:
            ratio = lo + (hi - lo) * (nonreal % 8 + 0.5) / 8.0
            q0 = cassini_center(oracle.entries_chi(entries), ratio, rng)
            argv += (quat_flag("q0", q0),)
            nonreal += 1
        out.append(Command(argv, "cassini", fmt,
                           oracle.expect_cassini(entries, q0, CASSINI_TRIALS)))
    return out


def _query_matrix(i: int, rng) -> np.ndarray:
    kind = i % 12
    if kind < 8:
        return _random_entries(kind + 1, rng)
    if kind == 8:
        return repeated_entries(rng)
    if kind in (9, 10):
        return clustered_entries(rng, interleaved=kind == 9)
    return jordan_entries(rng)


def _query(rng, files) -> list:
    lo, hi = QUERY_LOG_DIST
    out = []
    for i in range(QUERY_MATRICES):
        entries = _query_matrix(i, rng)
        C = oracle.entries_chi(entries)
        scale = 1.0 + oracle.svals(C)[0]
        pts = oracle.eigen_points(C)
        while True:
            r, s = pts[rng.integers(len(pts))]
            q = point_near(r, s, scale * 10.0 ** rng.uniform(lo, hi), rng)
            if well_conditioned(C, q):
                break
        path = files.write(entries)
        fmt = _fmt(i + i // 12)
        out.append(Command(("spectrum", "--input", path, "--format", fmt),
                           "spectrum", fmt, oracle.expect_spectrum(entries)))
        fmt = _fmt(i + i // 12 + 1)
        out.append(Command(("resolvent", "--input", path, quat_flag("q", q),
                            "--format", fmt),
                           "resolvent", fmt,
                           oracle.expect_resolvent(entries, q)))
    return out


_GENERATORS = {"verify": _verify, "series": _series, "cassini": _cassini,
               "query": _query}


def generate(workload: str, seed: int, workdir: str) -> list:
    """Write the inputs of one workload and return its command pool."""
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, WORKLOADS.index(workload)]))
    return _GENERATORS[workload](rng, _Files(workdir))
