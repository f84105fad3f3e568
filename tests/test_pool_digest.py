import importlib.util
import json
import os
import sys

import quatspec.cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_pool_digest():
    spec = importlib.util.spec_from_file_location(
        "pool_digest", os.path.join(ROOT, "tools", "pool_digest.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_fails_on_an_exit_code_outside_the_contract(tmp_path,
                                                           monkeypatch,
                                                           capsys):
    pd = load_pool_digest()
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(pd, "pool_commands", lambda: [])
    monkeypatch.setattr(pd, "extra_commands",
                        lambda: [["spectrum"], ["verify", "--n", "0"]])
    out = tmp_path / "digest.jsonl"
    assert pd.digest(os.path.join(ROOT, "src"), str(out)) == 0
    assert [json.loads(line)["rc"] for line in out.read_text().splitlines()] \
        == [2, 2]

    def crash(argv):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(quatspec.cli, "main", crash)
    assert pd.digest(os.path.join(ROOT, "src"), str(out)) == 1
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [rec["rc"] for rec in records] == ["uncaught ZeroDivisionError: "
                                              "boom"] * 2
    assert "exit code 'uncaught ZeroDivisionError: boom': spectrum" in \
        capsys.readouterr().out


def test_compare_names_the_json_keys_and_csv_lines_that_differ(tmp_path,
                                                               capsys):
    pd = load_pool_digest()

    def record(argv, stdout, rc=0):
        return {"argv": argv, "rc": rc, "stderr": "", "stdout": stdout,
                "stdout_sha256": pd.hashlib.sha256(
                    stdout.encode("utf-8")).hexdigest(),
                "output_sha256": None}

    def write(name, records):
        path = tmp_path / name
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return str(path)

    doc = {"q0": [0.0, 1.0, 0.0, 0.0], "bound": 2.0, "boundary": [[1, 2]]}
    moved = {**doc, "bound": 2.5, "boundary": [[1, 3]]}
    csv = "# bound,2\nr,s\n1,2\n3,4\n5,6\n"
    a = [record(["spectrum"], "same\n"),
         record(["cassini"], json.dumps(doc)),
         record(["cassini", "--format", "csv"], csv),
         record(["verify"], "", rc=2)]
    b = [record(["spectrum"], "same\n"),
         record(["cassini"], json.dumps(moved)),
         record(["cassini", "--format", "csv"],
                csv.replace("3,4", "3,5").replace("5,6\n", "5,7\n7,8\n")),
         record(["verify"], "", rc=1)]
    path_a, path_b = write("a.jsonl", a), write("b.jsonl", b)
    assert pd.compare(path_a, path_a) == 0
    assert capsys.readouterr().out == "0 of 4 commands differ\n"
    assert pd.compare(path_a, path_b) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs in stdout, stdout_sha256 (JSON keys bound, boundary): "
        "cassini",
        "differs in stdout, stdout_sha256 (3 CSV lines): cassini --format csv",
        "differs in rc: verify",
        "3 of 4 commands differ"]
