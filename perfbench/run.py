"""Closed-loop benchmark of the quatspec CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload {verify,series,cassini,query}
                             --seed N --seconds S --trace {0,1}

One client in one process calls ``quatspec.cli.main(argv)`` in-process;
each command starts only after the previous one returned, and nothing
runs in threads.  Stdout and stderr are captured in memory, and every
report is checked against the numpy oracle (perfbench/oracle.py) and for
byte-identical output on repeats.  The program under test sees only the
generated matrix files and flags.

--trace 0 measures the end-to-end metrics for S seconds of command time,
with every time corrected to a reference machine speed (see REF_*).
--trace 1 runs a fixed command list untraced and then traced (in pairs
until S seconds have passed) and reports per-layer calls and self times
from the first traced pass, plus the traced/untraced wall-time ratio.
The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.

The BLAS thread count is pinned to 1.  Only this process is measured:
no page-cache dropping, no machine-wide tracing.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    # Before numpy loads its BLAS; the package is imported from ROOT.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.path.insert(0, ROOT)

import argparse  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from perfbench import gen, oracle, tracer  # noqa: E402

# Set-up (import, generation, warm-up) is repeated this often per run and
# its median reported.
SETUP_REPEATS = 3
# The warm-up pass runs the first WARMUP commands of the pool once.
WARMUP = 4
# Every timed run issues at least this many commands, so the p90 latency
# has at least ten samples beyond it.
MIN_COMMANDS = 100
# The traced run uses the first TRACE_COMMANDS[workload] commands of the
# pool, about a second untraced each.
TRACE_COMMANDS = {"verify": 30, "series": 12, "cassini": 24, "query": 120}
# At most this many failing or known-defect commands are listed.
SHOW = 5

# Times are corrected to a reference machine speed.  The speed of the same
# code drifts by up to 2x over seconds to minutes on shared cores, and CPU
# time drifts with wall time, so it is not descheduling.  A fixed piece of
# reference work is timed before every command; a command's latency is
# divided by the median reference time of the REF_WINDOW commands on either
# side and multiplied by REF_NOMINAL_S.  This cut the run-to-run spread of
# series throughput from 15-28% to 3%.
REF_MATRIX = np.random.default_rng(0).normal(size=(8, 16)).view(complex)
REF_NOMINAL_S = 5e-4
REF_WINDOW = 4

END_TO_END_UNITS = {"setup_s": "s", "cmd_per_s": "1/s", "cmd_p50_ms": "ms",
                    "cmd_p90_ms": "ms", "peak_rss_mb": "MB"}


def invoke(main, argv) -> tuple:
    """Run one command in-process: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    t0 = perf_counter()
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a traceback is a failed command, not a crash
        rc = f"uncaught {type(exc).__name__}: {exc}"
    finally:
        elapsed = perf_counter() - t0
        sys.stdout, sys.stderr = saved
    return rc, out.getvalue(), err.getvalue(), elapsed


class Judge:
    """Oracle verdicts plus the byte-identical-repeat check."""

    def __init__(self):
        self.first_stdout = {}
        self.attempted = 0
        self.failed = []
        self.known_defects = []
        self.series_terms = 0

    def remember(self, cmd, stdout: str) -> None:
        self.first_stdout.setdefault(cmd.argv, stdout)

    def judge(self, cmd, rc, stdout: str, stderr: str) -> None:
        self.attempted += 1
        verdict = oracle.check(cmd.kind, cmd.fmt, cmd.expect, rc, stdout)
        if self.first_stdout.setdefault(cmd.argv, stdout) != stdout:
            verdict = oracle.FAILED
        if verdict == oracle.FAILED:
            self.failed.append((cmd.argv, rc, stderr.strip()[:200]))
        elif verdict == oracle.KNOWN_DEFECT:
            self.known_defects.append(cmd.argv)
        if verdict != oracle.FAILED and cmd.kind == "series":
            self.series_terms += oracle.series_terms(cmd.kind, cmd.fmt, stdout)


def reference_seconds() -> float:
    """Time of a fixed piece of numpy and Python work that quatspec does not
    run, used as the machine's speed at this moment."""
    t0 = perf_counter()
    acc = 0.0
    for _ in range(20):
        acc += float(np.linalg.svd(REF_MATRIX, compute_uv=False)[0])
        acc += sum(i * 0.5 for i in range(40))
    return perf_counter() - t0


def corrected(seconds, refs) -> np.ndarray:
    """Times scaled to the reference speed: each divided by the median
    reference time of the REF_WINDOW runs on either side of it, over
    REF_NOMINAL_S."""
    refs = np.asarray(refs)
    local = np.array([np.median(refs[max(0, j - REF_WINDOW):j + REF_WINDOW + 1])
                      for j in range(len(refs))])
    return np.asarray(seconds) * (REF_NOMINAL_S / local)


def setup(workload: str, seed: int, workdir: str):
    """Import quatspec afresh, generate the inputs, run the warm-up pass.

    Returns the set-up time corrected to the reference speed (reference
    work timed around it), the cli module, the pool and the warm-up runs.
    """
    for name in [m for m in sys.modules
                 if m == "quatspec" or m.startswith("quatspec.")]:
        del sys.modules[name]
    refs = [reference_seconds() for _ in range(REF_WINDOW)]
    t0 = perf_counter()
    cli = importlib.import_module("quatspec.cli")
    commands = gen.generate(workload, seed, workdir)
    warm = [(cmd, invoke(cli.main, cmd.argv)) for cmd in commands[:WARMUP]]
    elapsed = perf_counter() - t0
    refs += [reference_seconds() for _ in range(REF_WINDOW)]
    return (elapsed * REF_NOMINAL_S / statistics.median(refs), cli, commands,
            warm)


def timed_loop(main, commands, seconds: float, judge: Judge) -> list:
    """Closed loop cycling through the pool until `seconds` of command time
    and at least MIN_COMMANDS commands.  Returns one (pool index, latency,
    reference time) triple per command run."""
    runs = []
    busy = 0.0
    while busy < seconds or len(runs) < MIN_COMMANDS:
        k = len(runs) % len(commands)
        ref = reference_seconds()
        rc, out, err, dt = invoke(main, commands[k].argv)
        runs.append((k, dt, ref))
        busy += dt
        judge.judge(commands[k], rc, out, err)
    return runs


def quantile(values, p: float, grid: int = 10_000) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density.  One or two
    order statistics, as np.percentile uses, jump when commands of similar
    cost swap ranks between seeds (series p90 spread 14% against 4%)."""
    x = np.sort(np.asarray(values))
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    t = (np.arange(grid) + 0.5) / grid
    logw = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    w = np.bincount((t * n).astype(int), weights=np.exp(logw - logw.max()),
                    minlength=n)
    return float(w @ x / w.sum())


def end_to_end(cli, commands, seconds, judge, setup_times) -> dict:
    """Latency metrics over each pool command's median corrected latency."""
    index, latency, refs = map(np.array, zip(*timed_loop(
        cli.main, commands, seconds, judge)))
    norm = corrected(latency, refs)
    per_cmd = np.array([np.median(norm[index == k]) for k in np.unique(index)])
    return {
        "setup_s": statistics.median(setup_times),
        "cmd_per_s": len(per_cmd) / float(per_cmd.sum()),
        "cmd_p50_ms": quantile(per_cmd, 0.5) * 1e3,
        "cmd_p90_ms": quantile(per_cmd, 0.9) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(cli, commands, seconds, judge, span_path) -> dict:
    """Per-layer metrics from a traced pass of a fixed command list."""
    tr = tracer.Tracer()
    ratios, first = [], None
    start = perf_counter()
    while first is None or perf_counter() - start < seconds:
        plain = sum(run_list(cli, commands, judge, None))
        terms_before = judge.series_terms
        tr.install()
        try:
            spanned = sum(run_list(cli, commands, judge, tr))
        finally:
            tr.uninstall()
        ratios.append(spanned / plain)
        if first is None:
            first = tr.metrics(judge.series_terms - terms_before)
            tr.write(span_path)
        tr.reset()
    first["trace.overhead_ratio"] = statistics.median(ratios)
    return first


def run_list(cli, commands, judge, tr) -> list:
    """Each command once; with a tracer, spans carry the command's index."""
    times = []
    for i, cmd in enumerate(commands):
        if tr is not None:
            tr.cmd, tr.active = i, True
        try:
            rc, out, err, dt = invoke(cli.main, cmd.argv)
        finally:
            if tr is not None:
                tr.active = False
        times.append(dt)
        judge.judge(cmd, rc, out, err)
    return times


def blas_threads():
    """Threads of the loaded OpenBLAS, or None where it cannot be asked."""
    import ctypes
    import glob
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                return getattr(lib, name)()
    return None


def environment() -> list:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"blas {blas.get('name')} {blas.get('version')}",
        f"blas threads {blas_threads()} (OPENBLAS_NUM_THREADS="
        f"{os.environ.get('OPENBLAS_NUM_THREADS')}), nproc {os.cpu_count()}, "
        f"affinity {len(os.sched_getaffinity(0))}",
        "measured: this process only (perf_counter, ru_maxrss); no cache "
        "dropping, no machine-wide tracing",
    ]


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".calls") or name == "trace.spans":
        return "count"
    return "ratio"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "quatspec", "cli.py")):
        print(f"error: no quatspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, "perfbench", ".work",
                           f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        elapsed, cli, commands, warm = setup(args.workload, args.seed, workdir)
        setup_times.append(elapsed)
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported quatspec from {cli.__file__}", file=sys.stderr)
        return 2
    judge = Judge()
    for cmd, (rc, out, err, _) in warm:
        judge.remember(cmd, out)

    if args.trace:
        values = traced(cli, commands[:TRACE_COMMANDS[args.workload]],
                        args.seconds, judge, os.path.join(workdir, "spans.csv"))
        metrics = {name: {"value": v, "unit": layer_unit(name)}
                   for name, v in sorted(values.items())}
    else:
        values = end_to_end(cli, commands, args.seconds, judge, setup_times)
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}

    for line in environment():
        print(f"# {line}")
    print(f"# workload {args.workload}, seed {args.seed}, pool "
          f"{len(commands)} commands, attempted {judge.attempted}, failed "
          f"{len(judge.failed)} (failed_ratio "
          f"{len(judge.failed) / judge.attempted:.4g}), known defect "
          f"{len(judge.known_defects)}")
    for argv, rc, err in judge.failed[:SHOW]:
        print(f"# failed: rc={rc} {' '.join(argv)} {err}")
    for argv in list(dict.fromkeys(judge.known_defects))[:SHOW]:
        print("# known defect (s_spectrum merges only sort-adjacent "
              f"eigenvalues): {' '.join(argv)}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": not judge.failed,
                      "attempted": judge.attempted,
                      "failed": len(judge.failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
