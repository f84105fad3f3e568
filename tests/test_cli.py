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
from quatspec.cli import COMMANDS, PARSER, main, parse_quaternion
from quatspec.hmat import qmatrix_from_json_dict, smallest_singular
from quatspec.quatcore import Quaternion
from quatspec.series import certified_real_point
from quatspec.sresolvent import delta_op


def write_matrix(tmp_path, name, entries):
    p = tmp_path / name
    p.write_text(json.dumps({"n": len(entries), "entries": entries}))
    return str(p)


def mat_i(tmp_path):
    return write_matrix(tmp_path, "mat_i.json", [[[0, 1, 0, 0]]])


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


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
    json.loads(b1)  # file content is valid json


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
    # a finite point whose pencil overflows is a numeric failure named as
    # such, with no numpy warning on the way
    path = mat_i(tmp_path)
    for argv in (["resolvent", "--input", path, "--q", "1e200"],
                 ["resolvent", "--input", path, "--q", "1e155"],
                 ["cassini", "--input", path, "--q0", "1e200"]):
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
    assert json.loads(outs[0])["q"] == [-0.5, 1.0, 0.0, 0.0]


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
    rep = json.loads(out.stdout)
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
    assert json.loads(outs[0])["seed"] == 7


def test_readme_examples_parse():
    # every command line shown in the README is accepted by the parser
    readme = Path(__file__).resolve().parents[1] / "README.md"
    examples, in_block = [], False
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("quatspec "):
            examples.append(line)
    assert len(examples) >= 6
    for line in examples:
        PARSER.parse_args(shlex.split(line)[1:])
