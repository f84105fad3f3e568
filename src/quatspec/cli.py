"""Command-line surface: spectra, resolvent queries, series-convergence
reports, Cassini localization reports, and the full identity suite.

Every command is deterministic given (input file, seed, flags): random
draws always come from generators seeded with explicit SeedSequence
entropy, reports are assembled in fixed key order, and CSV numbers are
printed with 17 significant digits so doubles round-trip exactly.

Exit codes: 0 success, 1 verification/domain failure, 2 input/config
error.  Nothing else is ever returned.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import hmat, series, verify
from .errors import InputError, OutsideConvergenceDomain, QuatspecError
from .hmat import QMatrix
from .quatcore import (Quaternion, cassini_u, point_at_cassini_distance,
                       random_unit_imag)
from .spectrum import (boundary_polyline, cor1_check, resolvent_mask,
                       s_spectrum, sample_cassini_ball)
from .sresolvent import pencil_svals, resolvent_bundle, residual_AS_identity

# Per-command stream indices fed to SeedSequence([seed, stream]) so that
# different commands never share a random stream for the same seed.
STREAM_SERIES = 1
STREAM_CASSINI = 2

# Fraction of the convergence radius at which cmd_series samples q when
# none is supplied.
SAMPLE_FRACTION = 0.5

# cmd_cassini samples inside this fraction of the certified radius.
BALL_FRACTION = 0.99

# On-sphere pencil singular values must fall below this times
# (1 + ||A||)**2 for the spectrum oracle cross-check to agree.
ORACLE_REL_TOL = 1e-8


def parse_quaternion(text: str) -> Quaternion:
    """Parse "w,x,y,z" (or a bare real "w") of finite numbers."""
    parts = [part.strip() for part in text.split(",")]
    if len(parts) not in (1, 4):
        raise argparse.ArgumentTypeError(
            f"expected 'w' or 'w,x,y,z', got {text!r}")
    try:
        vals = [float(part) for part in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"quaternion components must be numbers, got {text!r}")
    if not all(math.isfinite(v) for v in vals):
        raise argparse.ArgumentTypeError(
            f"quaternion components must be finite, got {text!r}")
    return Quaternion(*vals)


def _fmt(x) -> str:
    """CSV number: 17 significant digits, '.' separator, no locale."""
    return format(float(x), ".17g")


def _quat_list(q: Quaternion) -> list:
    return [q.w, q.x, q.y, q.z]


def _emit(cfg: argparse.Namespace, text: str) -> None:
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(cfg: argparse.Namespace, report: dict) -> None:
    _emit(cfg, json.dumps(report, indent=2) + "\n")


def _load_matrix(cfg: argparse.Namespace) -> QMatrix:
    if not cfg.input:
        raise InputError(f"'{cfg.command}' requires --input FILE "
                         "(matrix JSON: {\"n\": ..., \"entries\": ...})")
    with open(cfg.input, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError and UnicodeDecodeError;
            # RecursionError is how the decoder refuses very deep nesting.
            raise InputError(str(exc)) from exc
    return hmat.qmatrix_from_json_dict(data)


def _load_matrix_or_zero(cfg: argparse.Namespace) -> QMatrix:
    """The input matrix, or the zero matrix of size --n (default 1)."""
    if cfg.input:
        return _load_matrix(cfg)
    return QMatrix.zeros(cfg.n if cfg.n is not None else 1)


def cmd_spectrum(cfg: argparse.Namespace) -> int:
    """Spectral spheres plus a pencil-singularity cross-check of each."""
    A = _load_matrix(cfg)
    result = s_spectrum(A)
    # A product, not ** 2: float ** raises OverflowError where * gives inf.
    scale = 1.0 + hmat.op_norm(A)
    threshold = ORACLE_REL_TOL * (scale * scale)
    # One batch: every sphere, then the off-sphere probe.
    points = [Quaternion(sp.r, sp.s) for sp, _ in result.spheres]
    points.append(series.certified_real_point(A))
    smallest = pencil_svals(A, points)[:, -1].tolist()
    on_svs, off_sv = smallest[:-1], smallest[-1]
    agrees = (max(on_svs) <= threshold and off_sv > threshold
              and result.total_multiplicity() == A.n)
    report = {
        "n": A.n,
        "spheres": result.to_json_dict()["spheres"],
        "oracle_validation": {
            "pencil_sv_on_spheres": on_svs,
            "pencil_sv_off_sphere_probe": off_sv,
            "threshold": threshold,
            "agrees": agrees,
        },
    }
    if cfg.format == "json":
        _emit_json(cfg, report)
    else:
        lines = [f"# n={A.n}",
                 f"# threshold={_fmt(threshold)}",
                 f"# off_sphere_probe_sv={_fmt(off_sv)}",
                 f"# agrees={'true' if agrees else 'false'}",
                 "r,s,mult"]
        lines += [f"{_fmt(sp.r)},{_fmt(sp.s)},{m}" for sp, m in result.spheres]
        _emit(cfg, "\n".join(lines) + "\n")
    if not agrees:
        print("error: eigenvalue spheres disagree with the pencil-"
              "singularity oracle", file=sys.stderr)
        return 1
    return 0


def cmd_resolvent(cfg: argparse.Namespace) -> int:
    """Resolvent bundle norms and the shift-pairing residual at one point."""
    A = _load_matrix(cfg)
    if cfg.q is None:
        raise InputError("'resolvent' requires --q (evaluation point)")
    bundle = resolvent_bundle(A, cfg.q)
    report = {
        "n": A.n,
        "q": _quat_list(cfg.q),
        "pencil_smallest_singular": bundle.pencil_smallest_singular,
        "norm_Q": bundle.norm_Q,
        "norm_S_left": hmat.op_norm(bundle.S_left),
        "norm_S_right": hmat.op_norm(bundle.S_right),
        "localization_radius": bundle.norm_Q ** -0.5,
        "shift_pairing_residual": residual_AS_identity(A, bundle),
    }
    if cfg.format == "json":
        _emit_json(cfg, report)
    else:
        lines = ["key,value", f"n,{A.n}",
                 f"q_w,{_fmt(cfg.q.w)}", f"q_x,{_fmt(cfg.q.x)}",
                 f"q_y,{_fmt(cfg.q.y)}", f"q_z,{_fmt(cfg.q.z)}"]
        for key in ("pencil_smallest_singular", "norm_Q", "norm_S_left",
                    "norm_S_right", "localization_radius",
                    "shift_pairing_residual"):
            lines.append(f"{key},{_fmt(report[key])}")
        _emit(cfg, "\n".join(lines) + "\n")
    return 0


def cmd_series(cfg: argparse.Namespace) -> int:
    """Per-order series truncation report against the direct resolvent.

    Without --input the operator is the zero matrix of size --n (default
    1), which makes the scalar geometric case runnable from flags alone.
    q defaults to a seeded sample at half the convergence radius.
    """
    A = _load_matrix_or_zero(cfg)
    q0 = cfg.q0 if cfg.q0 is not None else series.certified_real_point(A)
    state = series.series_init(A, q0, 1)
    if cfg.q is not None:
        q = cfg.q
    else:
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, STREAM_SERIES]))
        q = point_at_cassini_distance(
            q0, SAMPLE_FRACTION * state.R, random_unit_imag(rng),
            float(rng.uniform(0.0, 2.0 * np.pi)))
    u = cassini_u(q, q0)
    if not u < state.R:
        raise OutsideConvergenceDomain(
            f"u(q, q0) = {u:.6g} is not inside the convergence radius "
            f"R = {state.R:.6g}")
    direct = resolvent_bundle(A, q).S_left
    rows, converged = series.residual_report(state, q, direct, cfg.tol,
                                             cfg.nmax)
    last = rows[-1]
    report = {
        "q0": _quat_list(q0),
        "R": state.R,
        "q": _quat_list(q),
        "u": u,
        "N": last[0],
        "tail_bound": last[2],
        "residual_vs_direct": last[3],
        "converged": converged,
        "rows": rows,
    }
    if cfg.format == "json":
        _emit_json(cfg, report)
    else:
        lines = [f"# q0={','.join(_fmt(c) for c in _quat_list(q0))}",
                 f"# q={','.join(_fmt(c) for c in _quat_list(q))}",
                 f"# R={_fmt(state.R)}",
                 f"# u={_fmt(u)}",
                 f"# converged={'true' if converged else 'false'}",
                 "N,term_norm,tail_bound,residual_vs_direct"]
        lines += [f"{r[0]},{_fmt(r[1])},{_fmt(r[2])},{_fmt(r[3])}"
                  for r in rows]
        _emit(cfg, "\n".join(lines) + "\n")
    if not converged:
        print(f"error: residual {last[3]:.6g} did not reach tol {cfg.tol:g} "
              f"within nmax = {cfg.nmax} terms", file=sys.stderr)
        return 1
    return 0


def cmd_cassini(cfg: argparse.Namespace) -> int:
    """Localization report: distance bound, ball sampling, boundary curve."""
    A = _load_matrix(cfg)
    q0 = cfg.q0 if cfg.q0 is not None else series.certified_real_point(A)
    u_dist, bound = cor1_check(A, resolvent_bundle(A, q0))
    trials = cfg.trials if cfg.trials is not None else 100
    if trials < 0:
        raise InputError("--trials must be >= 0")
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, STREAM_CASSINI]))
    samples = sample_cassini_ball(q0, BALL_FRACTION * bound, trials, rng)
    inside = int(np.count_nonzero(resolvent_mask(A, samples)))
    bound_holds = u_dist >= bound - 1e-10 * (1.0 + bound)
    ok = bound_holds and inside == trials
    boundary = boundary_polyline(q0, bound)
    report = {
        "q0": _quat_list(q0),
        "u_dist": u_dist,
        "bound": bound,
        "bound_holds": bound_holds,
        "samples_total": trials,
        "samples_inside": inside,
        "boundary": [[r, s] for r, s in boundary],
    }
    if cfg.format == "json":
        _emit_json(cfg, report)
    else:
        lines = [f"# q0={','.join(_fmt(c) for c in _quat_list(q0))}",
                 f"# u_dist={_fmt(u_dist)}",
                 f"# bound={_fmt(bound)}",
                 f"# bound_holds={'true' if bound_holds else 'false'}",
                 f"# samples_inside={inside}/{trials}",
                 "r,s"]
        lines += [f"{_fmt(r)},{_fmt(s)}" for r, s in boundary]
        _emit(cfg, "\n".join(lines) + "\n")
    if not ok:
        print("error: localization check failed "
              f"(bound_holds={bound_holds}, inside={inside}/{trials})",
              file=sys.stderr)
        return 1
    return 0


def cmd_verify(cfg: argparse.Namespace) -> int:
    """Full identity suite over seeded random instances."""
    n = cfg.n if cfg.n is not None else 4
    trials = cfg.trials if cfg.trials is not None else 50
    rows = verify.run_identity_suite(n=n, trials=trials, tol=cfg.tol,
                                     seed=cfg.seed, nmax=cfg.nmax)
    all_passed = all(row.passed for row in rows)
    report = {
        "n": n,
        "trials": trials,
        "tol": cfg.tol,
        "seed": cfg.seed,
        "rows": [row.to_json_dict() for row in rows],
        "all_passed": all_passed,
    }
    if cfg.format == "json":
        _emit_json(cfg, report)
    else:
        lines = [f"# n={n}", f"# trials={trials}", f"# tol={_fmt(cfg.tol)}",
                 f"# seed={cfg.seed}",
                 f"# all_passed={'true' if all_passed else 'false'}",
                 "name,max_residual,worst_trial,passed"]
        lines += [f"{row.name},{_fmt(row.max_residual)},{row.worst_trial},"
                  f"{'true' if row.passed else 'false'}" for row in rows]
        _emit(cfg, "\n".join(lines) + "\n")
    if not all_passed:
        for row in rows:
            if not row.passed:
                print(f"error: identity {row.name} reached residual "
                      f"{row.max_residual:.6g} at trial {row.worst_trial} "
                      f"(seed {cfg.seed})", file=sys.stderr)
        return 1
    return 0


COMMANDS = {
    "spectrum": cmd_spectrum,
    "resolvent": cmd_resolvent,
    "series": cmd_series,
    "cassini": cmd_cassini,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    """The one parser: a command name and the flags every command takes."""
    parser = argparse.ArgumentParser(
        prog="quatspec",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Quaternionic resolvent toolkit: spectra, series "
                    "expansions,\nand identity verification.",
        epilog="commands:\n" + "\n".join(
            f"  {name:<10} {fn.__doc__.splitlines()[0]}"
            for name, fn in COMMANDS.items()))
    parser.add_argument("command", choices=COMMANDS, metavar="command",
                        help="one of the commands listed below")
    parser.add_argument("--input", metavar="FILE",
                        help="matrix JSON file {\"n\": ..., \"entries\": ...}")
    parser.add_argument("--output", metavar="FILE",
                        help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--q0", type=parse_quaternion, metavar="W[,X,Y,Z]",
                        help="expansion center / localization center")
    parser.add_argument("--q", type=parse_quaternion, metavar="W[,X,Y,Z]",
                        help="evaluation point")
    parser.add_argument("--n", type=int, help="matrix dimension where no "
                        "input file applies (verify, series without input)")
    parser.add_argument("--nmax", type=int, default=series.DEFAULT_NMAX,
                        help="series truncation cap (default 200)")
    parser.add_argument("--trials", type=int,
                        help="random instances / samples (command default)")
    parser.add_argument("--tol", type=float, default=1e-8,
                        help="acceptance tolerance (default 1e-8)")
    parser.add_argument("--seed", type=int, default=42,
                        help="root seed of every random draw (default 42)")
    return parser


PARSER = build_parser()


def _validate(cfg: argparse.Namespace) -> None:
    """Reject flag values that parse but lie outside their range."""
    if not (math.isfinite(cfg.tol) and cfg.tol > 0.0):
        raise InputError("--tol must be positive and finite")
    if cfg.nmax < 0:
        raise InputError("--nmax must be >= 0")
    if cfg.n is not None and cfg.n < 1:
        raise InputError("--n must be >= 1")
    if not 0 <= cfg.seed < 2 ** 64:
        raise InputError("--seed must be a non-negative 64-bit integer")


# Flags whose value is a quaternion; "-0.5,1,0,0" after one of them is
# its value, although argparse would read it as an unknown flag.
POINT_FLAGS = ("--q0", "--q")


def _is_number_list(text: str) -> bool:
    try:
        [float(part) for part in text.split(",")]
    except ValueError:
        return False
    return True


def _attach_point_values(argv: list) -> list:
    """Rewrite '--q -0.5,1,0,0' as '--q=-0.5,1,0,0' for every point flag."""
    out = []
    for arg in argv:
        if (out and out[-1] in POINT_FLAGS and arg.startswith("-")
                and _is_number_list(arg)):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cfg = PARSER.parse_args(_attach_point_values(argv))
    try:
        _validate(cfg)
        return COMMANDS[cfg.command](cfg)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuatspecError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
