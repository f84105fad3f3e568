import argparse
import contextlib
import io
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import types
import warnings
from pathlib import Path

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quatspec
from quatspec import cli, series
from quatspec.cli import COMMANDS, PARSER, Report, main, parse_quaternion
from quatspec.errors import QuatspecError
from quatspec.hmat import qmatrix_from_json_dict, smallest_singular
from quatspec.quatcore import (Quaternion, SpherePoint, cassini_u_axial,
                               sphere_of)
from quatspec.series import certified_real_point
from quatspec.sresolvent import delta_op, resolvent_arrays, resolvent_bundle


def write_matrix(tmp_path, name, entries):
    p = tmp_path / name
    p.write_text(json.dumps({"n": len(entries), "entries": entries}))
    return str(p)


def mat_i(tmp_path):
    return write_matrix(tmp_path, "mat_i.json", [[[0, 1, 0, 0]]])


def reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(text):
    """json.loads that refuses Infinity, -Infinity and NaN."""
    return json.loads(text, parse_constant=reject_constant)


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, strict_json(out)


def csv_lines(text):
    # data portion of a csv report: everything after the '#' context lines
    return [ln for ln in text.strip().splitlines() if not ln.startswith("#")]


def test_parse_quaternion_forms():
    assert parse_quaternion("2") == Quaternion(2.0)
    assert parse_quaternion("1,2,3,4") == Quaternion(1.0, 2.0, 3.0, 4.0)
    with pytest.raises(Exception):
        parse_quaternion("1,2")


def test_spectrum_unit_imag(tmp_path, capsys):
    rc, rep = run_json(capsys, ["spectrum", "--input", mat_i(tmp_path)])
    assert rc == 0
    assert rep["spheres"] == [{"r": 0.0, "s": 1.0, "mult": 1}]
    assert rep["oracle_validation"]["agrees"] is True


def test_spectrum_real_diagonal(tmp_path, capsys):
    path = write_matrix(tmp_path, "diag.json",
                        [[[1, 0, 0, 0], [0, 0, 0, 0]],
                         [[0, 0, 0, 0], [2, 0, 0, 0]]])
    rc, rep = run_json(capsys, ["spectrum", "--input", path])
    assert rc == 0
    got = sorted((s["r"], s["s"], s["mult"]) for s in rep["spheres"])
    assert got == [(1.0, 0.0, 1), (2.0, 0.0, 1)]


def test_spectrum_corrupt_input(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("this is not json {")
    assert main(["spectrum", "--input", str(p)]) == 2
    assert main(["spectrum", "--input", str(tmp_path / "missing.json")]) == 2
    assert main(["spectrum"]) == 2  # no input at all
    capsys.readouterr()


def test_resolvent_pinned_values(tmp_path, capsys):
    path = write_matrix(tmp_path, "zero.json", [[[0, 0, 0, 0]]])
    rc, rep = run_json(capsys, ["resolvent", "--input", path, "--q", "2"])
    assert rc == 0
    assert abs(rep["pencil_smallest_singular"] - 4.0) <= 1e-12
    assert abs(rep["norm_Q"] - 0.25) <= 1e-14
    assert abs(rep["norm_S_left"] - 0.5) <= 1e-14
    assert abs(rep["norm_S_right"] - 0.5) <= 1e-14
    assert abs(rep["localization_radius"] - 2.0) <= 1e-12
    assert rep["shift_pairing_residual"] <= 1e-14
    assert main(["resolvent", "--input", path]) == 2  # missing --q
    capsys.readouterr()


def test_resolvent_spectral_point_fails(tmp_path, capsys):
    rc = main(["resolvent", "--input", mat_i(tmp_path), "--q", "0,1,0,0"])
    assert rc == 1
    capsys.readouterr()


def test_series_geometric_case(capsys):
    rc, rep = run_json(capsys, ["series", "--q0", "1", "--q", "0.5"])
    assert rc == 0
    assert rep["converged"] is True
    assert rep["N"] == 27
    assert abs(rep["residual_vs_direct"] - 2.0 ** -27) <= 1e-18
    rows = rep["rows"]
    # per index pair the running term norm drops by exactly 1/4
    for k in range(len(rows) - 2):
        assert abs(rows[k + 2][1] / rows[k][1] - 0.25) <= 1e-12


def test_series_outside_domain_exits_one(capsys):
    assert main(["series", "--q0", "1", "--q", "2.2"]) == 1
    capsys.readouterr()


def test_series_center_in_spectrum_exits_one(capsys):
    assert main(["series", "--q0", "0", "--q", "0.5"]) == 1
    capsys.readouterr()


def test_series_csv_17_digits(capsys):
    rc = main(["series", "--q0", "1", "--q", "0.5", "--format", "csv"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = csv_lines(out)
    assert lines[0] == "N,term_norm,tail_bound,residual_vs_direct"
    assert "7.4505805969238281e-09" in lines[-1]


def test_cassini_tight_case(tmp_path, capsys):
    rc, rep = run_json(capsys,
                       ["cassini", "--input", mat_i(tmp_path), "--q0", "2"])
    assert rc == 0
    assert abs(rep["u_dist"] - math.sqrt(5.0)) <= 1e-10
    assert abs(rep["bound"] - math.sqrt(5.0)) <= 1e-10
    assert rep["bound_holds"] is True
    assert rep["samples_inside"] == rep["samples_total"] == 100


@pytest.mark.parametrize("entry, args", [
    (1.0, ["--q0", "1e78"]),
    (1.0, ["--q0", "1e80"]),
    (1.0, ["--q0", "1e150"]),
    (1.0, ["--q0", "1e78,1e78,0,0"]),
    (1e100, [])])
def test_cassini_beyond_quartic_overflow(tmp_path, capsys, entry, args):
    # u**4 and radius**4 would overflow here; the geometry never forms them
    check_cassini_one_by_one(tmp_path, capsys, entry, args)


@pytest.mark.parametrize("entry, args", [
    (1e-90, ["--q0", "3e-90"]),
    (1e-90, ["--q0=3e-90,1e-90,0,0"]),
    (1e-120, ["--q0", "3e-120"]),
    (1e-150, ["--q0", "3e-150"])])
def test_cassini_below_quartic_underflow(tmp_path, capsys, entry, args):
    # u**4 and radius**4 would fall below the smallest normal double here;
    # the geometry never forms them
    check_cassini_one_by_one(tmp_path, capsys, entry, args)


def check_cassini_one_by_one(tmp_path, capsys, entry, args):
    """cassini on the 1 x 1 input [entry * i] passes and is exact."""
    path = write_matrix(tmp_path, "m.json", [[[0, entry, 0, 0]]])
    rc, rep = run_json(capsys, ["cassini", "--input", path] + args)
    assert rc == 0
    # for a 1 x 1 input the distance and the bound agree in exact arithmetic
    u_dist, bound = rep["u_dist"], rep["bound"]
    assert abs(u_dist - bound) <= 1e-14 * bound
    assert rep["samples_inside"] == rep["samples_total"] == 100
    center = sphere_of(Quaternion(*rep["q0"]))
    for r, s in rep["boundary"]:
        u = cassini_u_axial(SpherePoint(r, abs(s)), center)
        assert abs(u - bound) <= 1e-12 * bound


@pytest.mark.parametrize("entry", [1e-160, 1e-155])
def test_subnormal_pencil_is_refused_at_its_point(tmp_path, capsys, entry):
    # at 3x the entry's scale sigma_min is subnormal and ||Q|| = 1/sigma_min
    # is not finite: each command names the point in one error line
    path = write_matrix(tmp_path, "tiny.json", [[[0, entry, 0, 0]]])
    q0, q = repr(3 * entry), repr(3.1 * entry)
    for argv in (["resolvent", "--q", q0], ["series", "--q0", q0, "--q", q],
                 ["cassini", "--q0", q0]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv + ["--input", path])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ||Q|| = 1/")
        assert captured.err.endswith(
            f" overflows at point ({q0}, 0.0, 0.0, 0.0)\n")
        assert captured.err.count("\n") == 1


def test_resolvent_where_chi_blocks_sum_past_the_float_range(tmp_path,
                                                             capsys):
    # on [1e-154 k] at 0, ||Q|| = 1e308 is finite but the two blocks of
    # chi(Q) that from_chi averages sum to inf; halving each first keeps
    # every norm finite
    path = write_matrix(tmp_path, "k.json", [[[0, 0, 0, 1e-154]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, rep = run_json(capsys, ["resolvent", "--input", path,
                                    "--q=0,0,0,0"])
    assert rc == 0
    assert rep["norm_Q"] == 1e308
    assert rep["norm_S_left"] == rep["norm_S_right"] == 1e154
    assert rep["localization_radius"] == 1e-154


@pytest.mark.parametrize("entries, q, what", [
    ([[[1e-8, 1e154, 1e-154, 1e8]]], "1e-08,0,0,1e154",
     "the resolvent overflows: Q, S_left or S_right is not finite"),
    ([[[1, 1, 1e-8, 1e154]]], "1,0,0,-1e154",
     "the shift-pairing residual overflows")])
def test_resolvent_refuses_what_overflows_without_warnings(
        tmp_path, capsys, entries, q, what):
    # an S-resolvent, or the shift-pairing residual of finite ones, past
    # the float range: exit 1 with the point named, and no numpy warning
    path = write_matrix(tmp_path, "m.json", entries)
    w, x, y, z = (float(c) for c in q.split(","))
    for fmt in ("json", "csv"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["resolvent", "--input", path, "--q=" + q,
                       "--format", fmt])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == (f"error: {what} at q = "
                                f"({w:g}, {x:g}, {y:g}, {z:g})\n")


def test_cassini_center_is_refused_as_its_bundle_is(tmp_path, capsys):
    # the bound reads the pencil's SVD alone, with no bundle, and refuses
    # the center in the words resolvent_bundle uses, in either format
    path = write_matrix(tmp_path, "tiny.json", [[[0, 1e-160, 0, 0]]])
    want = ("error: ||Q|| = 1/1.000e-319 overflows at point "
            "(3e-160, 0.0, 0.0, 0.0)\n")
    for fmt in ("json", "csv"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["cassini", "--input", path, "--q0", "3e-160",
                       "--format", fmt])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == want


def test_series_that_overflows_reports_its_finite_rows(tmp_path, capsys):
    # the residual floor sits above the absolute --tol, and the rows run on
    # until the series overflows after N = 31: the report stops before
    # that row and the error names where the series stopped being finite,
    # not nmax and not a failed SVD
    path = write_matrix(tmp_path, "tiny.json", [[[0, 1e-10, 0, 0]]])
    rc = main(["series", "--input", path, "--q0", "3e-10", "--q", "3.1e-10"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: residual ")
    assert captured.err.endswith(" did not reach tol 1e-08: the series "
                                 "stopped being finite after N = 31\n")
    assert captured.err.count("\n") == 1
    rep = strict_json(captured.out)
    assert rep["converged"] is False and rep["N"] == 31
    assert [row[0] for row in rep["rows"]] == list(range(32))
    # rows that run through nmax end at the cap, and the error says so
    rc = main(["series", "--input", path, "--q0", "3e-10", "--q", "3.1e-10",
               "--nmax", "12"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: residual ")
    assert captured.err.endswith(" did not reach tol 1e-08 within nmax = 12 "
                                 "terms\n")
    assert strict_json(captured.out)["N"] == 12


def test_series_tail_bound_where_the_triangle_overflows(tmp_path, capsys):
    # triangle(q0, q) forms q*q - 2*Re(q0)*q, which overflows, although its
    # value is only -1e16; in the second case |q - q0| is about 1.4e154,
    # but the squares of its components sum past the float range.  The
    # tail ratio ||Q|| * u * u does not overflow, no warning escapes, and
    # each report is strict JSON
    far = write_matrix(tmp_path, "far.json", [[[1e-154, 0, 1e8, -1]]])
    for argv in (["--input", mat_i(tmp_path), "--q0=1e154",
                  "--q=1e154,0,0,1e8", "--tol", "1e-3", "--nmax", "5"],
                 ["--input", far, "--q0=-1e-154,0,-1e154,-1e-8",
                  "--q=1,1e154,1e8,0", "--tol", "1e-12"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, rep = run_json(capsys, ["series"] + argv)
        assert rc == 0
        assert rep["converged"] is True and rep["N"] == 0
        assert math.isfinite(rep["tail_bound"])
        assert rep["rows"][0][2] == rep["tail_bound"]


def test_series_point_past_the_float_range_is_outside(tmp_path, capsys):
    # the distances of q from the sphere of q0 overflow: u = inf, which is
    # outside the ball, and exit 1 with no numpy warning (hypot used to
    # warn of its overflow)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["series", "--input", mat_i(tmp_path), "--q0", "3",
                   "--q=1.7e308,0,1.7e308,0"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "is not inside the convergence radius" in captured.err


def one_point_order(A, q0, q):
    """cmd_series' center bundle, domain gate and direct bundle taken one
    point at a time, in that order: the oracle of its stacked pass."""
    state = series.series_init(A, q0)
    u = series.require_inside(state, q)
    return state, u, resolvent_bundle(A, q).S_left


# diag(1, 10): at q0 = 0 the radius is R = 1, and the sphere of 10 lies
# outside the ball
DIAG_1_10 = [[[1, 0, 0, 0], [0, 0, 0, 0]], [[0, 0, 0, 0], [10, 0, 0, 0]]]


@pytest.mark.parametrize("q0, q, stacked, message", [
    # q0 in the S-spectrum: both orders refuse the center
    ("1", "0.5", "numerically in the S-spectrum",
     "numerically in the S-spectrum"),
    # q outside R with a singular pencil: the stacked pass refuses q's
    # pencil, the command q's distance
    ("0", "10", "numerically in the S-spectrum",
     "is not inside the convergence radius"),
    # |q|**2 overflows: the stacked pass refuses it, the command again
    # refuses q's distance
    ("0", "1e200,0,1e200,0", "|q|**2", "is not inside the convergence radius"),
    # q inside R: the stacked pass runs and the report is written
    ("0", "0.5,0.25,0,0", None, None),
])
def test_series_error_order_is_the_one_point_order(tmp_path, monkeypatch,
                                                   q0, q, stacked, message):
    argv = ["series", "--input", write_matrix(tmp_path, "m.json", DIAG_1_10),
            "--q0", q0, "--q", q]
    A = qmatrix_from_json_dict({"n": 2, "entries": DIAG_1_10})
    points = [parse_quaternion(q0), parse_quaternion(q)]
    if stacked:
        with pytest.raises(QuatspecError) as refused:
            resolvent_arrays(A, points)
        assert stacked in str(refused.value)
    else:
        resolvent_arrays(A, points)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_captured(argv)
        monkeypatch.setattr(cli, "_series_pair", one_point_order)
        want = run_captured(argv)
    assert got == want
    rc, out, err = got
    if message:
        assert rc == 1 and out == "" and err.count("\n") == 1
        assert err.startswith("error: ") and message in err
    else:
        assert rc == 0 and err == "" and strict_json(out)["converged"]


def test_series_tail_bound_where_the_squares_underflow(capsys):
    # q is 1e-170 from the center: the squares of q - q0 underflow to 0,
    # so |q - q0| takes hypot and the tail bound is no smaller than the
    # residual on any row (row 0 used to read a tail bound of 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["series", "--q0", "1", "--q=1,0,1e-170,0", "--tol",
                   "1e-300", "--nmax", "3", "--format", "csv"])
    rows = [[float(x) for x in ln.split(",")]
            for ln in csv_lines(capsys.readouterr().out)[1:]]
    assert rc == 0 and rows
    for _, _, tail, residual in rows:
        assert tail >= residual


def test_cassini_spectral_center_exits_one(tmp_path, capsys):
    rc = main(["cassini", "--input", mat_i(tmp_path), "--q0", "0,1,0,0"])
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize("entry, q0", [
    # the spectrum and the center near |Im| = 1e154, where (ps + qs)**2
    # overflows although u does not: u_dist and the ball test take hypot
    ([1.0, -1e-8, -1e154, 1e8], "1e-154,1e-154,1e8,1e154"),
    ([1e-8, 1e154, 1e-154, -1e-154], "1e-8,0,0,1e154"),
    # the bound far below |Im q0|: the s bounds of the box round to about
    # |Im q0|, and the lower one must not pass the upper
    ([-1.0, -1e8, 1e8, -1e-154], "-1,1e8,1,1e8")])
def test_cassini_at_the_edge_of_the_normal_squares(tmp_path, capsys, entry,
                                                   q0):
    path = write_matrix(tmp_path, "m.json", [[entry]])
    for trials in ("0", "100"):
        rc, rep = run_json(capsys, ["cassini", "--input", path, "--q0=" + q0,
                                    "--trials", trials])
        assert rc == 0
        assert rep["bound_holds"] is True
        assert rep["samples_inside"] == rep["samples_total"] == int(trials)


# cassini on 1 x 1 to 3 x 3 inputs whose components, and those of a given
# center, come from values at the unit scale, at 1e+-8 and at 1e+-154,
# where the squares of the coordinates reach the edge of the normal doubles
CASSINI_VALUES = st.sampled_from([0.0, 1.0, -1.0, 1e8, -1e8, 1e-8, -1e-8,
                                  1e154, -1e154, 1e-154, -1e-154])
CASSINI_INPUTS = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.lists(CASSINI_VALUES, min_size=4, max_size=4),
             min_size=n, max_size=n), min_size=n, max_size=n))
CASSINI_CENTERS = st.one_of(
    st.none(), st.lists(CASSINI_VALUES, min_size=4, max_size=4))
FORMATS = st.sampled_from(["json", "csv"])


def flags(**values):
    """'--name=value' for each value that is not None; a list is a point."""
    return [f"--{name}=" + (",".join(map(repr, value))
                            if isinstance(value, list) else repr(value))
            for name, value in values.items() if value is not None]


# Each command's arguments: (matrix entries, or None where the command
# takes no --input, and the argv without --input and --format).
CASSINI_ARGS = st.builds(
    lambda entries, q0, trials: (entries,
                                 ["cassini"] + flags(q0=q0, trials=trials)),
    CASSINI_INPUTS, CASSINI_CENTERS, st.sampled_from([None, 0, 1, 10]))
SPECTRUM_ARGS = CASSINI_INPUTS.map(lambda entries: (entries, ["spectrum"]))
SERIES_ARGS = st.builds(
    lambda entries, q0, q, tol, nmax: (
        entries, ["series"] + flags(q=q, tol=tol, nmax=nmax, q0=q0)),
    CASSINI_INPUTS, CASSINI_CENTERS,
    st.lists(CASSINI_VALUES, min_size=4, max_size=4),
    st.sampled_from([1e-300, 1e-12, 1.0, 1e300, 0.0, -1.0, math.nan,
                     math.inf]),
    st.sampled_from([-1, 0, 3, 200]))
RESOLVENT_ARGS = st.builds(
    lambda entries, q: (entries, ["resolvent"] + flags(q=q)),
    CASSINI_INPUTS,
    st.lists(st.one_of(CASSINI_VALUES, st.sampled_from([1.7e308, -1.7e308])),
             min_size=4, max_size=4))
VERIFY_ARGS = st.builds(
    lambda n, trials, tol, seed, nmax: (
        None, ["verify"] + flags(n=n, trials=trials, tol=tol, seed=seed,
                                 nmax=nmax)),
    st.integers(1, 8), st.integers(1, 4),
    st.sampled_from([1e-300, 1e300, 0.0, -1.0, math.nan, math.inf]),
    st.integers(0, 2 ** 70), st.sampled_from([-1, 0, 3, 200]))


def command_argv(work, args):
    """The argv of drawn command arguments, its matrix written in work."""
    entries, argv = args
    if entries is None:
        return argv
    return [argv[0], "--input", write_matrix(work, "m.json", entries),
            *argv[1:]]


def run_captured(argv):
    """main(argv) with stdout and stderr captured: (rc, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def check_report_contract(work, argv, fmt):
    """argv in format fmt exits 0, 1 or 2 with no traceback, prints strict
    JSON on success, gives the same bytes when repeated, and --output
    writes the stdout bytes."""
    argv = argv + ["--format", fmt]
    rc, out, err = run_captured(argv)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
    assert (rc == 0) == (err == "")
    if rc == 0 and fmt == "json":
        strict_json(out)
    assert run_captured(argv) == (rc, out, err)
    target = work / "out.txt"
    assert run_captured(argv + ["--output", str(target)]) == (rc, "", err)
    if out:
        assert target.read_bytes() == out.encode("utf-8")
    else:
        assert not target.exists()


@settings(max_examples=150, deadline=None)
@given(args=CASSINI_ARGS, fmt=FORMATS)
def test_cassini_keeps_the_report_contract(tmp_path_factory, args, fmt):
    work = tmp_path_factory.mktemp("cassini")
    check_report_contract(work, command_argv(work, args), fmt)


@settings(max_examples=150, deadline=None)
@given(args=SPECTRUM_ARGS, fmt=FORMATS)
def test_spectrum_keeps_the_report_contract(tmp_path_factory, args, fmt):
    work = tmp_path_factory.mktemp("spectrum")
    check_report_contract(work, command_argv(work, args), fmt)


@settings(max_examples=200, deadline=None)
@given(args=SERIES_ARGS, fmt=FORMATS)
def test_series_keeps_the_report_contract(tmp_path_factory, args, fmt):
    work = tmp_path_factory.mktemp("series")
    check_report_contract(work, command_argv(work, args), fmt)


@settings(max_examples=150, deadline=None)
@given(args=RESOLVENT_ARGS, fmt=FORMATS)
def test_resolvent_keeps_the_report_contract(tmp_path_factory, args, fmt):
    work = tmp_path_factory.mktemp("resolvent")
    check_report_contract(work, command_argv(work, args), fmt)


@settings(max_examples=300, deadline=None)
@given(args=VERIFY_ARGS, fmt=FORMATS)
def test_verify_keeps_the_report_contract(tmp_path_factory, args, fmt):
    check_report_contract(tmp_path_factory.mktemp("verify"),
                          command_argv(None, args), fmt)


@settings(max_examples=300, deadline=None)
@given(args=st.one_of(SPECTRUM_ARGS, RESOLVENT_ARGS, SERIES_ARGS,
                      CASSINI_ARGS, VERIFY_ARGS), fmt=FORMATS)
def test_warnings_filter_changes_no_report(tmp_path_factory, args, fmt):
    # a warning turned into an error must not change a report: no command
    # lets a numpy warning reach the filter, and none of them reads it
    argv = command_argv(tmp_path_factory.mktemp("warnings"), args)
    argv += ["--format", fmt]
    runs = []
    for action in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            rc, out, _ = run_captured(argv)
        runs.append((rc, out))
    assert runs[0] == runs[1]


# Malformed flag values: not-a-number, infinities (1.8e308 and 1e400
# round to inf), the smallest subnormal, empty text, hex and underscored
# numbers, and plain text.
MALFORMED = ["nan", "inf", "-inf", "5e-324", "1.8e308", "-1.8e308", "1e400",
             "", "0x10", "1_000", "text"]


def either(valid, malformed):
    """A value from `valid` or from `malformed`, at even odds."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(malformed))


# Every run gives --n, --trials and --nmax, so it stays short: int() reads
# "1_000" as 1000, so these flags draw "1_0" (10) and "0_3" (3) instead.
COUNT_MALFORMED = [v for v in MALFORMED if v != "1_000"]
COUNT_FLAGS = st.fixed_dictionaries({
    "--n": either(["1", "2", "4"], COUNT_MALFORMED + ["0", "-1", "0_3"]),
    "--trials": either(["0", "1", "3", "20"], COUNT_MALFORMED + ["-1", "1_0"]),
    "--nmax": either(["0", "3", "50"], COUNT_MALFORMED + ["-1", "1_0"])})
POINT_VALUE = st.one_of(
    either(["2", "-0.5", "0.25", "1,0.5,0,0", "-3,0,1,0"], MALFORMED),
    st.lists(st.sampled_from(MALFORMED + ["0", "1", "-3"]), min_size=2,
             max_size=4).map(",".join))
OTHER_FLAGS = st.fixed_dictionaries({}, optional={
    "--q0": POINT_VALUE, "--q": POINT_VALUE,
    "--tol": either(["1e-8", "1e-300"], MALFORMED + ["-1", "0"]),
    "--seed": either(["0", "7"], MALFORMED + ["-1", str(2 ** 64)]),
    "--format": either(["json", "csv"], ["xml", ""])})
# Matrix documents, well formed and broken: a wrong n, ragged or
# non-numeric entries, NaN and infinite entries, JSON that is not an
# object, and text that is not JSON.
DOCUMENTS = either([
    '{"n": 1, "entries": [[[0, 1, 0, 0]]]}',
    '{"n": 2, "entries": [[[0.5, 1, 0, 0], [0.25, 0, 0.5, 0]], '
    '[[0, 0, 0, -0.5], [-1, 0, 0.75, 0]]]}'], [
    '{"n": 2, "entries": [[[0, 1, 0, 0]]]}',
    '{"n": 0, "entries": []}',
    '{"n": -1, "entries": [[[0, 1, 0, 0]]]}',
    '{"n": "one", "entries": [[[0, 1, 0, 0]]]}',
    '{"n": 1.5, "entries": [[[0, 1, 0, 0]]]}',
    '{"n": 1e400, "entries": [[[0, 1, 0, 0]]]}',
    '{"n": 2, "entries": [[[0, 1, 0, 0], [1, 0, 0, 0]], [[0, 1, 0, 0]]]}',
    '{"n": 1, "entries": [[[0, 1, 0]]]}',
    '{"n": 1, "entries": [[["a", 1, 0, 0]]]}',
    '{"n": 1, "entries": [[[null, 1, 0, 0]]]}',
    '{"n": 1, "entries": [[[NaN, 1, 0, 0]]]}',
    '{"n": 1, "entries": [[[Infinity, 1, 0, 0]]]}',
    '{"n": 1, "entries": [[[-Infinity, 1, 0, 0]]]}',
    '{"n": 1, "entries": [[[1e400, 1, 0, 0]]]}',
    '{"n": 1}', '{"entries": [[[0, 1, 0, 0]]]}',
    '[[[0, 1, 0, 0]]]', '1', '"matrix"', 'null', '', '{"n": 1, '])


def run_contract(argv):
    """main(argv) captured, argparse's SystemExit read as its exit code:
    (rc, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=250, deadline=None)
@given(command=st.sampled_from([*COMMANDS, "frobnicate", None]),
       counts=COUNT_FLAGS, others=OTHER_FLAGS,
       document=st.one_of(st.none(), DOCUMENTS), spelled=st.booleans(),
       before=st.integers(0, 8))
def test_malformed_argv_and_documents_keep_the_exit_contract(
        tmp_path_factory, command, counts, others, document, spelled, before):
    # drawn commands, flag values and matrix documents: every run exits 0,
    # 1 or 2 (argparse's own usage error is SystemExit(2)), prints no
    # traceback, and repeats byte for byte; the first `before` flags go
    # before the command, each as --flag=value or as two arguments
    flags = [[f"{flag}={value}"] if spelled else [flag, value]
             for flag, value in {**counts, **others}.items()]
    if document is not None:
        path = tmp_path_factory.mktemp("malformed") / "m.json"
        path.write_text(document)
        flags.append(["--input", str(path)])
    argv = ([arg for pair in flags[:before] for arg in pair]
            + ([command] if command else [])
            + [arg for pair in flags[before:] for arg in pair])
    rc, out, err = run_contract(argv)
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err
    assert run_contract(argv) == (rc, out, err)


def test_negative_trials_are_a_usage_error_before_any_work(tmp_path, capsys):
    # checked with the other flag ranges, ahead of the spectral center
    # that would make the command exit 1
    rc = main(["cassini", "--input", mat_i(tmp_path), "--q0", "0,1,0,0",
               "--trials", "-1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: --trials must be >= 0\n"


def test_cassini_csv_polyline(tmp_path, capsys):
    rc = main(["cassini", "--input", mat_i(tmp_path), "--q0", "2",
               "--format", "csv", "--trials", "0"])
    assert rc == 0
    lines = csv_lines(capsys.readouterr().out)
    assert lines[0] == "r,s"
    assert len(lines) == 1 + 181
    r0, s0 = map(float, lines[1].split(","))
    rn, sn = map(float, lines[-1].split(","))
    # closed polyline
    assert abs(r0 - rn) <= 1e-9 and abs(s0 - sn) <= 1e-9


def test_verify_default_passes(capsys):
    rc, rep = run_json(capsys, ["verify"])
    assert rc == 0
    assert rep["all_passed"] is True
    assert rep["n"] == 4 and rep["trials"] == 50
    assert len(rep["rows"]) >= 10
    for row in rep["rows"]:
        assert row["passed"] is True
        assert row["max_residual"] <= 1e-8


def test_verify_impossible_tolerance(capsys):
    rc = main(["verify", "--tol", "1e-16"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error: identity" in captured.err


def test_verify_zero_trials_rejected(capsys):
    assert main(["verify", "--trials", "0"]) == 2
    capsys.readouterr()


def test_verify_csv_header(capsys):
    rc = main(["verify", "--n", "2", "--trials", "3", "--format", "csv"])
    assert rc == 0
    lines = csv_lines(capsys.readouterr().out)
    assert lines[0] == "name,max_residual,worst_trial,passed"
    assert all(line.count(",") == 3 for line in lines[1:])


def test_output_file_and_determinism(tmp_path, capsys):
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    argv = ["verify", "--n", "2", "--trials", "4"]
    assert main(argv + ["--output", str(f1)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv + ["--output", str(f2)]) == 0
    capsys.readouterr()
    b1, b2 = f1.read_bytes(), f2.read_bytes()
    assert b1 == b2 and len(b1) > 0
    strict_json(b1)  # file content is valid json


def test_seed_changes_output(tmp_path, capsys):
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    main(["verify", "--n", "2", "--trials", "4", "--output", str(f1)])
    main(["verify", "--n", "2", "--trials", "4", "--seed", "7",
          "--output", str(f2)])
    capsys.readouterr()
    assert f1.read_bytes() != f2.read_bytes()


def test_flags_are_spelled_out_in_full(capsys):
    # an abbreviation of a flag is a usage error, not that flag
    for argv in (["verify", "--trial", "3"], ["verify", "--se", "7"],
                 ["series", "--q0", "1", "--q", "0.5", "--form", "csv"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: quatspec ")
        assert f"unrecognized arguments: {argv[-2]}" in err


def test_bad_flag_values(tmp_path, capsys):
    for argv in (["series", "--q", "not-a-quaternion"], ["frobnicate"],
                 ["resolvent", "--q", "nan"], ["series", "--q0", "1,0,inf,0"],
                 ["series", "--q", "-inf"], ["cassini", "--q0=-nan"],
                 ["spectrum", "--p", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    for tol in ("-1", "nan", "inf"):
        assert main(["verify", "--tol", tol]) == 2
    assert main(["series", "--q0", "1", "--q", "0.5", "--tol", "nan"]) == 2
    assert main(["verify", "--n", "0"]) == 2
    capsys.readouterr()
    # an input file that is not UTF-8, holds a number beyond float range,
    # or nests too deep for the decoder is an input error: one line, exit 2
    for name, data in (
            ("utf8.json", b"\xff\xfe"),
            ("huge.json", b'{"n": 1, "entries": [[[1' + b"0" * 400
             + b', 0, 0, 0]]]}'),
            ("deep.json", b"[" * 100000 + b"]" * 100000)):
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["spectrum", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    # so is a size that cannot be allocated: these ask for 1.4-2.8 PiB,
    # beyond the x86-64 user address space, so they fail at once
    for argv in (["verify", "--n", "10000000", "--trials", "1"],
                 ["series", "--n", "10000000"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    # a finite point whose pencil overflows is a numeric failure named as
    # such, with no numpy warning on the way
    path = mat_i(tmp_path)
    for argv in (["resolvent", "--input", path, "--q", "1e200"],
                 ["resolvent", "--input", path, "--q", "1e155"],
                 ["cassini", "--input", path, "--q0", "1e200"],
                 ["cassini", "--input", path, "--q0", "1e160"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("error: the pencil overflows: |q|**2 is not "
                              "finite at q = (1e+")
    # so is a finite input whose pencil overflows, at any point
    for entry in (1e160, 1e300):
        path = write_matrix(tmp_path, "big.json", [[[entry, 0, 0, 0]]])
        for argv in (["spectrum", "--input", path],
                     ["resolvent", "--input", path, "--q", "1"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(argv) == 1
            err = capsys.readouterr().err.splitlines()[-1]
            assert err.startswith("error: the pencil overflows: ")


def test_spectrum_batch_matches_per_point_svds(tmp_path, capsys):
    # one stacked SVD gives, bit for bit, each sphere's and the probe's
    # smallest pencil singular value
    rng = np.random.default_rng(40)
    cases = [rng.uniform(-1.0, 1.0, size=(n, n, 4)).tolist()
             for n in range(1, 9)]
    cases.append([[[1, 0.5, 0, 0], [0, 0, 0, 0]],
                  [[0, 0, 0, 0], [2, 0, -1, 0]]])   # zero off the diagonal
    cases.append([[[0, 1, 0, 0], [1, 0, 0, 0]],
                  [[0, 0, 0, 0], [0, 1, 0, 0]]])    # a Jordan block at i
    for entries in cases:
        path = write_matrix(tmp_path, "m.json", entries)
        _, rep = run_json(capsys, ["spectrum", "--input", path])
        A = qmatrix_from_json_dict({"n": len(entries), "entries": entries})
        oracle = rep["oracle_validation"]
        want = [smallest_singular(delta_op(A, Quaternion(sp["r"], sp["s"])))
                for sp in rep["spheres"]]
        assert oracle["pencil_sv_on_spheres"] == want
        assert oracle["pencil_sv_off_sphere_probe"] == smallest_singular(
            delta_op(A, certified_real_point(A)))


def test_negative_point_after_flag(tmp_path, capsys):
    path = mat_i(tmp_path)
    outs = []
    for argv in (["resolvent", "--input", path, "--q", "-0.5,1,0,0"],
                 ["resolvent", "--input", path, "--q=-0.5,1,0,0"],
                 ["series", "--q0", "-1", "--q", "-1.5,0.25,0,0"],
                 ["series", "--q0=-1", "--q=-1.5,0.25,0,0"]):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[2] == outs[3]
    assert strict_json(outs[0])["q"] == [-0.5, 1.0, 0.0, 0.0]


def child_env():
    """The environment in which a child process imports the package from
    where this process found it."""
    src = os.path.dirname(os.path.dirname(quatspec.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_console_script_entry(tmp_path):
    exe = shutil.which("quatspec")
    if exe is not None:
        cmd = [exe]
    else:
        cmd = [sys.executable, "-m", "quatspec.cli"]
    out = subprocess.run(cmd + ["spectrum", "--input", mat_i(tmp_path)],
                         capture_output=True, text=True, env=child_env())
    assert out.returncode == 0
    rep = strict_json(out.stdout)
    assert rep["spheres"][0]["mult"] == 1


def test_main_builds_no_parser(monkeypatch, capsys):
    # the parser is built once, at import; a command only parses with it
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["series", "--q0", "1", "--q", "0.5"]) == 0
    assert main(["verify", "--n", "1", "--trials", "1"]) == 0
    assert main(["spectrum"]) == 2
    capsys.readouterr()
    assert built == []


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name, fn in COMMANDS.items():
        assert name in out
        assert fn.__doc__.splitlines()[0] in out


def test_flags_before_or_after_the_command(capsys):
    outs = []
    for argv in (["--seed", "7", "verify", "--n", "2", "--trials", "2"],
                 ["verify", "--n", "2", "--trials", "2", "--seed", "7"]):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert strict_json(outs[0])["seed"] == 7


def readme_blocks():
    """The README's matrix JSON block, its `quatspec` command lines and its
    python code."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    matrix, examples, python, fence = [], [], [], None
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fence = None if fence is not None else line[3:]
        elif fence == "json":
            matrix.append(line)
        elif fence == "python":
            python.append(line)
        elif fence is not None and line.startswith("quatspec "):
            examples.append(line)
    return "\n".join(matrix), examples, "\n".join(python)


def readme_matrix_dir(tmp_path, monkeypatch):
    """Work in tmp_path, which holds the README's matrix as mat.json."""
    (tmp_path / "mat.json").write_text(readme_blocks()[0])
    monkeypatch.chdir(tmp_path)


def test_readme_examples_parse(tmp_path, monkeypatch, capsys):
    # every command line shown in the README runs and exits 0 on the
    # README's own matrix
    readme_matrix_dir(tmp_path, monkeypatch)
    examples = readme_blocks()[1]
    assert len(examples) >= 6
    for line in examples:
        assert main(shlex.split(line)[1:]) == 0, line
        assert capsys.readouterr().err == ""


def test_readme_quick_tour_runs():
    # the library tour is the public surface the package keeps: it runs in
    # a fresh interpreter, with every warning an error
    out = subprocess.run([sys.executable, "-W", "error", "-c",
                          readme_blocks()[2]], capture_output=True,
                         text=True, env=child_env())
    assert (out.returncode, out.stderr) == (0, "")


# One run of each command on the README's matrix.
README_RUNS = {
    "spectrum": ["--input", "mat.json"],
    "resolvent": ["--input", "mat.json", "--q", "3"],
    "series": ["--input", "mat.json", "--q", "5,0.3,0,0"],
    "cassini": ["--input", "mat.json", "--q0", "3", "--trials", "10"],
    "verify": ["--n", "2", "--trials", "2"],
}


def test_commands_return_reports_and_write_nothing(tmp_path, monkeypatch,
                                                   capsys):
    readme_matrix_dir(tmp_path, monkeypatch)
    assert set(README_RUNS) == set(COMMANDS)
    for name, args in README_RUNS.items():
        report = COMMANDS[name](PARSER.parse_args([name] + args))
        assert isinstance(report, Report)
        assert report.failures == []
        assert capsys.readouterr() == ("", "")


def csv_expected(name, doc):
    """The (comments, header, rows) that the CSV report of `name` holds,
    read off its JSON report."""
    if name == "spectrum":
        ov = doc["oracle_validation"]
        return ({"n": doc["n"], "threshold": ov["threshold"],
                 "off_sphere_probe_sv": ov["pencil_sv_off_sphere_probe"],
                 "agrees": ov["agrees"]},
                ["r", "s", "mult"],
                [[sp["r"], sp["s"], sp["mult"]] for sp in doc["spheres"]])
    if name == "resolvent":
        rows = [["n", doc["n"]]]
        rows += [["q_" + c, v] for c, v in zip("wxyz", doc["q"])]
        rows += [[k, v] for k, v in doc.items() if k not in ("n", "q")]
        return {}, ["key", "value"], rows
    if name == "series":
        return ({k: doc[k] for k in ("q0", "q", "R", "u", "converged")},
                ["N", "term_norm", "tail_bound", "residual_vs_direct"],
                doc["rows"])
    if name == "cassini":
        inside = f"{doc['samples_inside']}/{doc['samples_total']}"
        return ({"q0": doc["q0"], "u_dist": doc["u_dist"],
                 "bound": doc["bound"], "bound_holds": doc["bound_holds"],
                 "samples_inside": inside},
                ["r", "s"], doc["boundary"])
    return ({k: doc[k] for k in ("n", "trials", "tol", "seed", "all_passed")},
            ["name", "max_residual", "worst_trial", "passed"],
            [[r["name"], r["max_residual"], r["worst_trial"], r["passed"]]
             for r in doc["rows"]])


def same_cell(cell, value):
    """Whether a CSV cell holds the JSON value exactly."""
    if isinstance(value, bool):
        return cell == ("true" if value else "false")
    if isinstance(value, str):
        return cell == value
    if isinstance(value, list):  # a quaternion, w,x,y,z
        return [float(c) for c in cell.split(",")] == value
    return float(cell) == value


def test_csv_report_matches_json_report(tmp_path, monkeypatch, capsys):
    readme_matrix_dir(tmp_path, monkeypatch)
    for name, args in README_RUNS.items():
        rc, doc = run_json(capsys, [name] + args)
        assert rc == 0
        assert main([name] + args + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        comments = dict(ln[2:].split("=", 1) for ln in lines
                        if ln.startswith("# "))
        header, *rows = [ln.split(",") for ln in csv_lines("\n".join(lines))]
        want_comments, want_header, want_rows = csv_expected(name, doc)
        assert list(comments) == list(want_comments), name
        assert all(same_cell(comments[k], v) for k, v in want_comments.items())
        assert header == want_header and len(rows) == len(want_rows), name
        for row, want in zip(rows, want_rows):
            assert len(row) == len(want), name
            assert all(map(same_cell, row, want)), (name, row)


def test_failed_check_still_writes_the_full_report(tmp_path, capsys):
    argv = ["verify", "--n", "2", "--trials", "2", "--nmax", "0",
            "--format", "csv"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    rows = [ln.split(",") for ln in csv_lines(out)[1:]]
    assert len(rows) == 14
    failed = [row[0] for row in rows if row[3] == "false"]
    assert failed == ["resolvent_series_match", "series_derivative_match"]
    assert "# all_passed=false" in out.splitlines()
    lines = err.splitlines()
    assert len(lines) == 2
    for line, name in zip(lines, failed):
        assert line.startswith(f"error: identity {name} reached residual ")
    path = tmp_path / "report.csv"
    assert main(argv + ["--output", str(path)]) == 1
    assert capsys.readouterr() == ("", err)
    assert path.read_text(encoding="utf-8") == out


# JSON values as the reports hold them: numbers (non-finite ones too),
# strings with escapes and non-ASCII, and nested lists, tuples and dicts,
# among them tables of equally long number rows.
JSON_NUMBERS = st.one_of(st.floats(), st.integers(-2 ** 70, 2 ** 70))
JSON_LEAVES = st.one_of(st.none(), st.booleans(), JSON_NUMBERS, st.text())
JSON_TABLES = st.integers(1, 4).flatmap(lambda width: st.lists(
    st.lists(JSON_NUMBERS, min_size=width, max_size=width), max_size=6))
JSON_VALUES = st.recursive(
    st.one_of(JSON_LEAVES, JSON_TABLES),
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.lists(inner, max_size=5).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_json_writer_matches_the_stdlib(value):
    assert cli._json(value) == json.dumps(value, indent=2)


def test_json_writer_edge_values():
    for value in ([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324],
                  [[1, float("nan")], [2.5, -float("inf")]], [[1.0], [2.0, 3.0]],
                  [[1.0, True]], [[], []], [np.float64(2.5), 1.0],
                  [[np.float64(-1e300)]], np.float64("nan"), {"": {}}):
        assert cli._json(value) == json.dumps(value, indent=2)
    for value in ([np.int64(1)], {1: 2}, {"a": {1.5}}):
        with pytest.raises(TypeError):
            cli._json(value)


# CSV cells as the reports hold them: floats (non-finite, negative zero,
# subnormal and numpy ones too), ints, bools, strings and quaternions.
# Each column draws from floats, ints or any cell, so rows of one printf
# spelling per column and rows that need _cell both occur.
CSV_FLOATS = st.one_of(st.floats(), st.floats().map(np.float64))
CSV_INTS = st.integers(-2 ** 70, 2 ** 70)
CSV_CELLS = st.one_of(CSV_FLOATS, CSV_INTS, st.booleans(), st.text(),
                      st.builds(Quaternion, *[st.floats()] * 4))
CSV_ROWS = st.lists(st.sampled_from([CSV_FLOATS, CSV_INTS, CSV_CELLS]),
                    min_size=1, max_size=4).flatmap(
    lambda columns: st.lists(st.tuples(*columns), max_size=6))


def csv_lines_by_cell(rows):
    return [",".join(map(cli._cell, row)) for row in rows]


@settings(max_examples=300, deadline=None)
@given(CSV_ROWS)
def test_csv_rows_render_as_cell_by_cell(rows):
    assert cli._csv_lines(rows) == csv_lines_by_cell(rows)


def test_csv_rows_edge_values():
    special = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324,
               np.float64(-0.0), np.float64("nan"), np.float64(2.5e-310),
               0.1, 1e300, 2 ** 70, -3]
    for rows in ([special], [[x, x] for x in special], [[1.0, 2], [3.0, 4]],
                 [[1.0, True]], [[1, 2.0], [2.0, 1]], [[1.0], [2.0, 3.0]],
                 [[np.int64(7), 1.0]], [[np.float32(0.1), 1.0]],
                 [["x", 1.0]], [[Quaternion(1.0, -0.0, 5e-324, 2.0)]],
                 [[]], []):
        assert cli._csv_lines(rows) == csv_lines_by_cell(rows), rows


def test_json_reports_render_as_the_stdlib(tmp_path, monkeypatch, capsys):
    readme_matrix_dir(tmp_path, monkeypatch)
    for name, args in README_RUNS.items():
        report = COMMANDS[name](PARSER.parse_args([name] + args))
        assert main([name] + args) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(report.doc, indent=2) + "\n", name


def test_csv_reports_render_cell_by_cell(tmp_path, monkeypatch, capsys):
    readme_matrix_dir(tmp_path, monkeypatch)
    for name, args in README_RUNS.items():
        report = COMMANDS[name](PARSER.parse_args([name] + args))
        assert main([name] + args + ["--format", "csv"]) == 0
        out = capsys.readouterr().out
        body = out.splitlines()[len(report.comments) + 1:]
        assert body == csv_lines_by_cell(report.rows), name


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


needs_glibc = pytest.mark.skipif(
    resource is None or not cli._on_glibc(),
    reason="counts the page faults of glibc's allocator")


# n = 8 commands whose temporaries (the norm kernel's chi and Gram stacks,
# the stacked series blocks, verify's norm stack) pass glibc's default
# 128 KiB mmap threshold: with glibc's defaults a repeat takes 450 to 1340
# minor page faults
FAULTING_COMMANDS = [
    ["series", "--n", "8", "--q0", "1", "--q", "1.9", "--tol", "1e-14",
     "--nmax", "400"],
    ["verify", "--n", "8", "--trials", "9"],
    ["verify", "--n", "4", "--trials", "50"],
]


@needs_glibc
@pytest.mark.parametrize("argv", FAULTING_COMMANDS)
def test_a_repeated_command_keeps_its_heap(argv):
    first = run_captured(argv)
    before = minor_faults()
    again = run_captured(argv)
    faults = minor_faults() - before
    assert first[0] == 0 and again == first
    assert faults <= 32


# Ten norm kernel calls on 64 matrices of size 8: each maps and unmaps its
# 256 KiB chi stack while the allocator keeps its defaults.
NORM_LOOP = """
import contextlib, io, resource
import numpy as np
from quatspec import cli, hmat
rng = np.random.default_rng(0)
a1, a2 = rng.normal(size=(2, 64, 8, 8)) + 1j * rng.normal(size=(2, 64, 8, 8))
def loop_faults():
    hmat.top_singular(a1, a2)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        hmat.top_singular(a1, a2)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
library = loop_faults()
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["verify", "--n", "1", "--trials", "1"])
print(library, loop_faults())
"""


@needs_glibc
def test_only_the_cli_changes_the_allocator():
    # importing quatspec and calling the library leave glibc's defaults;
    # the first main call raises the thresholds for the whole process
    out = subprocess.run([sys.executable, "-W", "error", "-c", NORM_LOOP],
                         capture_output=True, text=True, env=child_env())
    assert (out.returncode, out.stderr) == (0, "")
    library, after_main = map(int, out.stdout.split())
    assert library >= 10  # at least one fault per call
    assert after_main < 10


@pytest.fixture
def mallopt_calls(monkeypatch):
    """The mallopt calls main makes, recorded instead of made; the first
    main call after the test makes them again."""
    calls = []
    libc = types.SimpleNamespace(mallopt=lambda *args: calls.append(args))
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    cli._keep_heap_resident.cache_clear()
    yield calls
    cli._keep_heap_resident.cache_clear()


def test_main_sets_the_thresholds_once(monkeypatch, capsys, mallopt_calls):
    monkeypatch.setattr(cli.os, "confstr", lambda name: "glibc 2.36")
    for _ in range(3):
        assert main(["verify", "--n", "1", "--trials", "1"]) == 0
    capsys.readouterr()
    assert mallopt_calls == [(cli.M_MMAP_THRESHOLD, 4 << 20),
                             (cli.M_TRIM_THRESHOLD, 8 << 20)]


def no_confstr(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("confstr", [lambda name: "musl", lambda name: None,
                                     no_confstr, None],
                         ids=["musl", "empty", "unknown_name", "no_confstr"])
def test_off_glibc_main_leaves_the_allocator(monkeypatch, capsys,
                                             mallopt_calls, confstr):
    if confstr is None:
        monkeypatch.delattr(cli.os, "confstr", raising=False)
    else:
        monkeypatch.setattr(cli.os, "confstr", confstr)
    assert main(["verify", "--n", "1", "--trials", "1"]) == 0
    capsys.readouterr()
    assert mallopt_calls == []
