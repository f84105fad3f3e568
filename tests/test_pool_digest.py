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
