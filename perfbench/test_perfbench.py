"""Tests of the benchmark itself: generator, oracle, closed loop, tracer."""

import json
import math
import os

import numpy as np
import pytest

import quatspec.cli as cli
from perfbench import gen, oracle, run, tracer


def _files(workdir):
    return {name: (workdir / name).read_bytes()
            for name in sorted(os.listdir(workdir))}


def _argv(commands, workdir):
    return [tuple(a.replace(str(workdir), "DIR") for a in c.argv)
            for c in commands]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_in_the_seed(tmp_path, workload):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    first = gen.generate(workload, 7, str(a))
    again = gen.generate(workload, 7, str(b))
    other = gen.generate(workload, 8, str(c))
    assert _argv(first, a) == _argv(again, b)
    assert [x.expect for x in first] == [x.expect for x in again]
    assert _files(a) == _files(b)
    assert _argv(first, a) != _argv(other, c)


def _matrix(cmd):
    with open(cmd.argv[cmd.argv.index("--input") + 1]) as fh:
        return oracle.entries_chi(json.load(fh)["entries"])


def _quat(cmd, flag):
    for arg in cmd.argv:
        if arg.startswith(f"--{flag}="):
            return [float(c) for c in arg.split("=", 1)[1].split(",")]
    return None


@pytest.mark.parametrize("seed", [1, 2])
def test_generated_points_are_valid(tmp_path, seed):
    series = gen.generate("series", seed, str(tmp_path / "s"))
    lo, hi = gen.SERIES_FRACTIONS
    for cmd in series:
        exp = cmd.expect
        assert lo * (1 - 1e-9) <= exp["u"] / exp["R"] <= hi * (1 + 1e-9)

    for cmd in gen.generate("query", seed, str(tmp_path / "q")):
        C = _matrix(cmd)
        if cmd.kind == "resolvent":
            assert gen.well_conditioned(C, _quat(cmd, "q"))
        else:
            assert cmd.expect["spheres"] is not None
            assert sum(m for _, _, m in cmd.expect["spheres"]) == cmd.expect["n"]

    lo, hi = gen.CASSINI_RATIO
    for cmd in gen.generate("cassini", seed, str(tmp_path / "c")):
        q0 = _quat(cmd, "q0")
        if q0 is not None:
            C = _matrix(cmd)
            assert gen.well_conditioned(C, q0)
            ratio = cmd.expect["bound"] / math.sqrt(sum(c * c for c in q0[1:]))
            assert lo <= ratio <= hi


def test_point_near_lands_at_the_stated_cassini_distance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r, s, d = rng.uniform(-1, 1), rng.uniform(0, 2), rng.uniform(0.01, 3)
        q = gen.point_near(r, s, d, rng)
        got = oracle.cassini_u_axial(r, s, q[0], math.sqrt(q[1]**2 + q[2]**2
                                                            + q[3]**2))
        assert got == pytest.approx(d, rel=1e-9)


def test_a_timed_run_issues_at_least_min_commands(tmp_path):
    commands = gen.generate("query", 3, str(tmp_path))
    judge = run.Judge()
    runs = run.timed_loop(cli.main, commands, 0.0, judge)
    assert len(runs) == judge.attempted >= run.MIN_COMMANDS
    assert judge.failed == []
    assert judge.known_defects  # the interleaved clustered inputs


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_the_loop_never_stops_short_of_min_commands(workload, tmp_path):
    commands = gen.generate(workload, 3, str(tmp_path))[:2]
    judge = run.Judge()
    runs = run.timed_loop(lambda argv: 0, commands, 0.0, judge)
    assert len(runs) == run.MIN_COMMANDS


TRACE_SIZES = {"verify": 3, "series": 2, "cassini": 4, "query": 24}


def _counts(metrics):
    return {k: v for k, v in metrics.items()
            if not k.endswith(".self_s") and k != "trace.overhead_ratio"}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_traced_counts_repeat_exactly(tmp_path, workload):
    commands = gen.generate(workload, 5, str(tmp_path))[:TRACE_SIZES[workload]]
    originals = (cli.resolvent_bundle, cli.COMMANDS["verify"], np.linalg.svd)
    runs = []
    for i in range(2):
        judge = run.Judge()
        runs.append(run.traced(cli, commands, 0.0, judge,
                               str(tmp_path / f"spans{i}.csv")))
        assert judge.failed == []
    assert _counts(runs[0]) == _counts(runs[1])
    assert runs[0]["cli.cmd.calls"] == len(commands)
    assert runs[0]["trace.overhead_ratio"] > 0
    # every wrapper is gone again
    restored = (cli.resolvent_bundle, cli.COMMANDS["verify"], np.linalg.svd)
    assert all(a is b for a, b in zip(originals, restored))
    with open(tmp_path / "spans0.csv") as fh:
        assert sum(1 for _ in fh) == runs[0]["trace.spans"] + 1


def _report(cmd):
    rc, out, _, _ = run.invoke(cli.main, cmd.argv)
    assert oracle.check(cmd.kind, cmd.fmt, cmd.expect, rc, out) == oracle.OK
    return out


def _json_cmd(commands, kind):
    return next(c for c in commands if c.kind == kind and c.fmt == "json")


def _corrupt(cmd, out, edit):
    rep = json.loads(out)
    edit(rep)
    return oracle.check(cmd.kind, cmd.fmt, cmd.expect, 0, json.dumps(rep))


def _scale(key, factor):
    def edit(rep):
        rep[key] *= factor
    return edit


def test_oracle_rejects_corrupted_reports(tmp_path):
    query = gen.generate("query", 4, str(tmp_path / "q"))
    cmd = _json_cmd(query, "resolvent")
    out = _report(cmd)
    for key in ("norm_Q", "pencil_smallest_singular", "norm_S_left",
                "localization_radius"):
        assert _corrupt(cmd, out, _scale(key, 1 + 1e-5)) == oracle.FAILED

    cmd = _json_cmd(query, "spectrum")
    out = _report(cmd)

    def bump_mult(rep):
        rep["spheres"][0]["mult"] += 1
    assert _corrupt(cmd, out, bump_mult) == oracle.FAILED

    def shift_sphere(rep):
        rep["spheres"][-1]["s"] += 1e-6
    assert _corrupt(cmd, out, shift_sphere) == oracle.FAILED

    cassini = gen.generate("cassini", 4, str(tmp_path / "c"))
    cmd = _json_cmd(cassini, "cassini")
    out = _report(cmd)
    assert _corrupt(cmd, out, _scale("bound", 1 + 1e-5)) == oracle.FAILED

    def move_boundary(rep):
        rep["boundary"][7][1] *= 1.001
    assert _corrupt(cmd, out, move_boundary) == oracle.FAILED

    series = gen.generate("series", 4, str(tmp_path / "s"))
    cmd = _json_cmd(series, "series")
    out = _report(cmd)
    assert _corrupt(cmd, out, _scale("R", 1 + 1e-5)) == oracle.FAILED

    def not_converged(rep):
        rep["converged"] = False
    assert _corrupt(cmd, out, not_converged) == oracle.FAILED

    verify = gen.generate("verify", 4, str(tmp_path / "v"))
    cmd = _json_cmd(verify, "verify")
    out = _report(cmd)

    def failed_identity(rep):
        rep["all_passed"] = False
    assert _corrupt(cmd, out, failed_identity) == oracle.FAILED

    assert oracle.check(cmd.kind, cmd.fmt, cmd.expect, 1, out) == oracle.FAILED
    assert oracle.check(cmd.kind, cmd.fmt, cmd.expect, 0, "{") == oracle.FAILED


def test_csv_reports_are_checked_too(tmp_path):
    query = gen.generate("query", 6, str(tmp_path))
    cmd = next(c for c in query if c.kind == "resolvent" and c.fmt == "csv")
    out = _report(cmd)
    line = next(ln for ln in out.splitlines() if ln.startswith("norm_Q,"))
    value = float(line.split(",")[1])
    bad = out.replace(line, f"norm_Q,{value * (1 + 1e-5)!r}")
    assert oracle.check(cmd.kind, cmd.fmt, cmd.expect, 0, bad) == oracle.FAILED


def test_interleaved_cluster_is_the_known_defect_and_nothing_else(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "m.json"
    entries = gen.clustered_entries(rng, interleaved=True)
    path.write_text(json.dumps({"n": len(entries), "entries": entries.tolist()}))
    cmd = gen.Command(("spectrum", "--input", str(path)), "spectrum", "json",
                      oracle.expect_spectrum(entries))
    rc, out, _, _ = run.invoke(cli.main, cmd.argv)
    assert oracle.check("spectrum", "json", cmd.expect, rc, out) \
        == oracle.KNOWN_DEFECT
    rep = json.loads(out)
    rep["spheres"][0]["r"] += 1e-6
    assert oracle.check("spectrum", "json", cmd.expect, rc,
                        json.dumps(rep)) == oracle.FAILED


def test_benchmark_json_lists_every_metric(tmp_path):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    commands = gen.generate("query", 1, str(tmp_path))[:2]
    layer = run.traced(cli, commands, 0.0, run.Judge(),
                       str(tmp_path / "spans.csv"))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == {name: run.layer_unit(name) for name in layer}


def test_without_sources_the_run_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "query", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) != 0
    assert "{" not in capsys.readouterr().out


def test_quantile_and_speed_correction():
    x = np.random.default_rng(1).normal(size=4001)
    assert run.quantile(x, 0.9) == pytest.approx(np.percentile(x, 90), abs=0.03)
    assert run.quantile([2.5] * 7, 0.9) == pytest.approx(2.5)
    assert run.quantile([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)
    refs = np.full(20, 2 * run.REF_NOMINAL_S)  # a machine at half speed
    assert np.allclose(run.corrected(np.ones(20), refs), 0.5)
