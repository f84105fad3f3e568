"""Command-line surface: spectra, resolvent queries, series-convergence
reports, Cassini localization reports, and the full identity suite.

Every command is deterministic given (input file, seed, flags): random
draws always come from generators seeded with explicit SeedSequence
entropy, reports are assembled in fixed key order, and CSV numbers are
printed with 17 significant digits so doubles round-trip exactly.

Each command returns a Report and writes nothing.  `main` is the only
writer: it renders the report as JSON or CSV to stdout or --output,
prints one `error:` line per failed check or raised error, and is the
only code that chooses the exit code: 0 success, 1 verification/domain
failure, 2 input/config error (including a size that cannot be
allocated).  Nothing else is ever returned.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from . import hmat, series, verify
from .errors import InputError, QuatspecError
from .hmat import QMatrix
from .quatcore import Quaternion, point_at_cassini_distance, random_unit_imag
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


class Report(NamedTuple):
    """One command's result, before it is rendered.

    `doc` is the JSON document; the CSV form is the `# key=value` lines of
    `comments` ((key, value) pairs), a header of `columns` and one line per
    entry of `rows`.  `failures` holds one message per failed check; the
    report is written in full either way.
    """

    doc: dict
    comments: tuple
    columns: tuple
    rows: list
    failures: list


def _cell(value) -> str:
    """CSV cell: 17 significant digits, '.' separator, no locale."""
    if isinstance(value, float):  # most cells; tested first for speed
        return format(value, ".17g")
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    if isinstance(value, Quaternion):
        return ",".join(_cell(float(c)) for c in value)
    return format(float(value), ".17g")


def _render(fmt: str, report: Report) -> str:
    if fmt == "json":
        return json.dumps(report.doc, indent=2) + "\n"
    lines = [f"# {key}={_cell(value)}" for key, value in report.comments]
    lines.append(",".join(report.columns))
    lines += [",".join(map(_cell, row)) for row in report.rows]
    return "\n".join(lines) + "\n"


def _quat_list(q: Quaternion) -> list:
    return [q.w, q.x, q.y, q.z]


def _emit(cfg: argparse.Namespace, text: str) -> None:
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def cmd_spectrum(cfg: argparse.Namespace) -> Report:
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
    doc = {
        "n": A.n,
        "spheres": result.to_json_dict()["spheres"],
        "oracle_validation": {
            "pencil_sv_on_spheres": on_svs,
            "pencil_sv_off_sphere_probe": off_sv,
            "threshold": threshold,
            "agrees": agrees,
        },
    }
    return Report(
        doc,
        (("n", A.n), ("threshold", threshold), ("off_sphere_probe_sv", off_sv),
         ("agrees", agrees)),
        ("r", "s", "mult"),
        [(sp.r, sp.s, m) for sp, m in result.spheres],
        [] if agrees else ["eigenvalue spheres disagree with the pencil-"
                           "singularity oracle"])


def cmd_resolvent(cfg: argparse.Namespace) -> Report:
    """Resolvent bundle norms and the shift-pairing residual at one point."""
    A = _load_matrix(cfg)
    if cfg.q is None:
        raise InputError("'resolvent' requires --q (evaluation point)")
    bundle = resolvent_bundle(A, cfg.q)
    values = {
        "pencil_smallest_singular": bundle.pencil_smallest_singular,
        "norm_Q": bundle.norm_Q,
        "norm_S_left": hmat.op_norm(bundle.S_left),
        "norm_S_right": hmat.op_norm(bundle.S_right),
        "localization_radius": bundle.radius,
        "shift_pairing_residual": residual_AS_identity(A, bundle),
    }
    return Report(
        {"n": A.n, "q": _quat_list(cfg.q), **values},
        (),
        ("key", "value"),
        [("n", A.n), *zip(("q_w", "q_x", "q_y", "q_z"), cfg.q),
         *values.items()],
        [])


def cmd_series(cfg: argparse.Namespace) -> Report:
    """Per-order series truncation report against the direct resolvent.

    Without --input the operator is the zero matrix of size --n (default
    1), which makes the scalar geometric case runnable from flags alone.
    q defaults to a seeded sample at half the convergence radius.
    """
    A = _load_matrix_or_zero(cfg)
    q0 = cfg.q0 if cfg.q0 is not None else series.certified_real_point(A)
    state = series.series_init(A, q0)
    if cfg.q is not None:
        q = cfg.q
    else:
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, STREAM_SERIES]))
        q = point_at_cassini_distance(
            q0, SAMPLE_FRACTION * state.R, random_unit_imag(rng),
            float(rng.uniform(0.0, 2.0 * np.pi)))
    u = series.require_inside(state, q)
    direct = resolvent_bundle(A, q).S_left
    rows, converged = series.residual_report(state, q, direct, cfg.tol,
                                             cfg.nmax)
    last = rows[-1]
    doc = {
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
    return Report(
        doc,
        (("q0", q0), ("q", q), ("R", state.R), ("u", u),
         ("converged", converged)),
        ("N", "term_norm", "tail_bound", "residual_vs_direct"),
        rows,
        [] if converged else [f"residual {last[3]:.6g} did not reach tol "
                              f"{cfg.tol:g} within nmax = {cfg.nmax} terms"])


def cmd_cassini(cfg: argparse.Namespace) -> Report:
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
    doc = {
        "q0": _quat_list(q0),
        "u_dist": u_dist,
        "bound": bound,
        "bound_holds": bound_holds,
        "samples_total": trials,
        "samples_inside": inside,
        "boundary": [[r, s] for r, s in boundary_polyline(q0, bound)],
    }
    return Report(
        doc,
        (("q0", q0), ("u_dist", u_dist), ("bound", bound),
         ("bound_holds", bound_holds),
         ("samples_inside", f"{inside}/{trials}")),
        ("r", "s"),
        doc["boundary"],
        [] if ok else [f"localization check failed (bound_holds="
                       f"{bound_holds}, inside={inside}/{trials})"])


def cmd_verify(cfg: argparse.Namespace) -> Report:
    """Full identity suite over seeded random instances."""
    n = cfg.n if cfg.n is not None else 4
    trials = cfg.trials if cfg.trials is not None else 50
    rows = verify.run_identity_suite(n=n, trials=trials, tol=cfg.tol,
                                     seed=cfg.seed, nmax=cfg.nmax)
    all_passed = all(row.passed for row in rows)
    doc = {
        "n": n,
        "trials": trials,
        "tol": cfg.tol,
        "seed": cfg.seed,
        "rows": [row.to_json_dict() for row in rows],
        "all_passed": all_passed,
    }
    return Report(
        doc,
        (("n", n), ("trials", trials), ("tol", cfg.tol), ("seed", cfg.seed),
         ("all_passed", all_passed)),
        ("name", "max_residual", "worst_trial", "passed"),
        [(row.name, row.max_residual, row.worst_trial, row.passed)
         for row in rows],
        [f"identity {row.name} reached residual {row.max_residual:.6g} at "
         f"trial {row.worst_trial} (seed {cfg.seed})"
         for row in rows if not row.passed])


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
        report = COMMANDS[cfg.command](cfg)
        _emit(cfg, _render(cfg.format, report))
    except (InputError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuatspecError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for message in report.failures:
        print(f"error: {message}", file=sys.stderr)
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
