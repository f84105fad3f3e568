import argparse
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import quatspec
from quatspec.cli import COMMANDS, PARSER, Report, main, parse_quaternion
from quatspec.hmat import qmatrix_from_json_dict, smallest_singular
from quatspec.quatcore import (Quaternion, SpherePoint, cassini_u_axial,
                               sphere_of)
from quatspec.series import certified_real_point
from quatspec.sresolvent import delta_op


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
    # u**4 and radius**4 overflow here; the geometry compares u**2 instead
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


def test_cassini_spectral_center_exits_one(tmp_path, capsys):
    rc = main(["cassini", "--input", mat_i(tmp_path), "--q0", "0,1,0,0"])
    assert rc == 1
    capsys.readouterr()


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


def test_console_script_entry(tmp_path):
    exe = shutil.which("quatspec")
    if exe is not None:
        cmd = [exe]
    else:
        cmd = [sys.executable, "-m", "quatspec.cli"]
    # the child imports the package from where this process found it
    src = os.path.dirname(os.path.dirname(quatspec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(cmd + ["spectrum", "--input", mat_i(tmp_path)],
                         capture_output=True, text=True, env=env)
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
    """The README's matrix JSON block and its `quatspec` command lines."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    matrix, examples, fence = [], [], None
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fence = None if fence is not None else line[3:]
        elif fence == "json":
            matrix.append(line)
        elif fence is not None and line.startswith("quatspec "):
            examples.append(line)
    return "\n".join(matrix), examples


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
