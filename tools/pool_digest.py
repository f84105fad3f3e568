"""Digest of what the CLI prints for every benchmark pool command.

Usage, from the repository root:

    python3 tools/pool_digest.py SRC OUT
    python3 tools/pool_digest.py --compare A B

The first form imports quatspec from the source directory SRC (``src``,
or the ``src`` of a second checkout), generates the command pool of every
perfbench workload at seeds 3, 11, 19 and 29 with ``perfbench.gen``, and
adds a fixed list of extra commands: ``verify`` at n = 1, 2, 3, 4 and 8
in both formats, failing checks, ``--output`` files, an unwritable
``--output`` path, ``series`` and ``cassini`` on 1x1 inputs scaled far
below 1, ``series`` and ``cassini`` at centers far above 1, ``cassini``
at non-real centers whose boundary is two ovals, an abbreviated flag and
a 10000-sample ``cassini``.  Each command runs in-process through
``quatspec.cli.main``; OUT receives one JSON record per command with its
argv, exit code, stderr, stdout, and the sha256 of stdout and of the
``--output`` file (null when none was written).  An uncaught exception
is recorded as a string exit code.  After writing OUT,
the first form exits 1 when any command's exit code is not 0, 1 or 2,
the README's exit-code contract, and lists those commands.

The second form compares two digests and exits 1 when any command
differs, listing the differing commands with the fields that differ; for
a differing stdout it names the top-level JSON keys that differ, or the
number of differing lines of a CSV report.  Two checkouts give equal
digests exactly when their CLI output is byte-identical on all of them.

Matrix files are written into a temporary directory that is also the
working directory, and every path in an argv is relative to it, so the
digest does not depend on where it was taken.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SEEDS = (3, 11, 19, 29)
OUTPUT = "out.txt"

# The README's 2x2 example and the 1x1 operator [i].
README_MATRIX = {"n": 2, "entries": [[[0, 1, 0, 0], [0, 0, 0, 0]],
                                     [[0, 0, 0, 0], [2, 0, 0, 0]]]}
MAT_I = {"n": 1, "entries": [[[0, 1, 0, 0]]]}


def pool_commands() -> list:
    """Every pool command of every workload and seed, paths relative."""
    from perfbench import gen

    argvs = []
    for seed in SEEDS:
        for workload in gen.WORKLOADS:
            workdir = os.path.join(f"s{seed}", workload)
            argvs += [list(cmd.argv)
                      for cmd in gen.generate(workload, seed, workdir)]
    return argvs


def extra_commands() -> list:
    """Small inputs, failing checks and --output targets."""
    for name, doc in (("mat.json", README_MATRIX), ("mat_i.json", MAT_I),
                      ("mat_i_1e-10.json",
                       {"n": 1, "entries": [[[0, 1e-10, 0, 0]]]}),
                      ("mat_i_1e-90.json",
                       {"n": 1, "entries": [[[0, 1e-90, 0, 0]]]})):
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    argvs = []
    for seed in SEEDS:
        for fmt in ("json", "csv"):
            tail = ["--seed", str(seed), "--format", fmt]
            argvs += [["verify", "--n", str(n), "--trials", "5"] + tail
                      for n in (1, 2, 3, 4, 8)]
            argvs.append(["verify", "--n", "2", "--trials", "2",
                          "--nmax", "0"] + tail)
    for fmt in ("json", "csv"):
        tail = ["--format", fmt]
        argvs += [
            ["spectrum", "--input", "mat.json"] + tail,
            ["resolvent", "--input", "mat.json", "--q", "3"] + tail,
            ["resolvent", "--input", "mat.json", "--q", "2"] + tail,
            ["series", "--q0", "1", "--q", "0.5"] + tail,
            ["series", "--input", "mat.json", "--q", "5,0.3,0,0"] + tail,
            ["series", "--input", "mat.json", "--q", "1.5,0.3,0,0"] + tail,
            ["series", "--q0", "1", "--q", "1.9", "--nmax", "5"] + tail,
            ["cassini", "--input", "mat.json", "--q0", "3"] + tail,
            ["cassini", "--input", "mat_i.json", "--q0", "0,1,0,0"] + tail,
            ["verify", "--n", "2", "--trials", "2", "--nmax", "0",
             "--output", OUTPUT] + tail,
            ["spectrum", "--input", "mat.json", "--output", OUTPUT] + tail,
            ["series", "--q0", "1", "--q", "1.9", "--nmax", "5",
             "--output", OUTPUT] + tail,
            ["spectrum", "--input", "mat.json",
             "--output", os.path.join("missing", OUTPUT)] + tail,
        ]
    argvs += [
        # the series overflows after N = 31, short of the absolute --tol
        ["series", "--input", "mat_i_1e-10.json", "--q0", "3e-10",
         "--q", "3.1e-10"],
        # triangle(q0, q) overflows on the way to -1e16; the tail bound
        # does not
        ["series", "--input", "mat_i.json", "--q0=1e154",
         "--q=1e154,0,0,1e8", "--tol", "1e-3", "--nmax", "5"],
        # fourth powers of the coordinates fall below the smallest normal
        # double; the squares the geometry forms do not
        ["cassini", "--input", "mat_i_1e-90.json", "--q0", "3e-90"],
        ["cassini", "--input", "mat_i_1e-90.json", "--q0=3e-90,1e-90,0,0"],
        # fourth powers of the coordinates overflow, their squares do not;
        # at 1e154 the squared modulus of the samples does, and the
        # command exits 1
        ["cassini", "--input", "mat_i.json", "--q0", "1e78"],
        ["cassini", "--input", "mat_i.json", "--q0", "1e150"],
        ["cassini", "--input", "mat_i.json", "--q0=1e78,1e78,0,0"],
        ["cassini", "--input", "mat_i.json", "--q0", "1e154"],
        # the bound is below |Im q0|: the boundary is the oval about q0
        ["cassini", "--input", "mat_i.json", "--q0=0,1e150,0,0"],
        ["cassini", "--input", "mat_i_1e-90.json", "--q0=0,3e-90,0,0"],
        # an abbreviated flag is a usage error
        ["verify", "--trial", "3"],
        # a non-real center whose samples take several blocks
        ["cassini", "--input", "mat.json", "--q0", "3,1,0,0",
         "--trials", "10000"],
    ]
    return argvs


def run(main, argv: list) -> dict:
    """One command in-process: exit code, stderr, stdout and digests."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a traceback is recorded, not fatal
        rc = f"uncaught {type(exc).__name__}: {exc}"
    finally:
        sys.stdout, sys.stderr = saved
    written = None
    if os.path.exists(OUTPUT):
        with open(OUTPUT, "rb") as fh:
            written = hashlib.sha256(fh.read()).hexdigest()
        os.remove(OUTPUT)
    return {"argv": argv, "rc": rc, "stderr": err.getvalue(),
            "stdout": out.getvalue(),
            "stdout_sha256": hashlib.sha256(
                out.getvalue().encode("utf-8")).hexdigest(),
            "output_sha256": written}


def digest(src: str, out_path: str) -> int:
    out_path = os.path.abspath(out_path)
    sys.path[:0] = [os.path.abspath(src), ROOT]
    from quatspec import cli

    records = []
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for argv in pool_commands() + extra_commands():
                records.append(run(cli.main, argv))
        finally:
            os.chdir(cwd)
    with open(out_path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    print(f"{len(records)} commands digested from {cli.__file__}")
    broken = [rec for rec in records if rec["rc"] not in (0, 1, 2)]
    for rec in broken:
        print(f"exit code {rec['rc']!r}: {' '.join(rec['argv'])}")
    return 1 if broken else 0


def stdout_change(a: str, b: str) -> str:
    """Where two reports differ: top-level JSON keys, or CSV line count."""
    try:
        doc_a, doc_b = json.loads(a), json.loads(b)
    except ValueError:
        lines_a, lines_b = a.splitlines(), b.splitlines()
        count = (sum(x != y for x, y in zip(lines_a, lines_b))
                 + abs(len(lines_a) - len(lines_b)))
        return f"{count} CSV lines"
    missing = object()
    keys = [k for k in {**doc_a, **doc_b}
            if doc_a.get(k, missing) != doc_b.get(k, missing)]
    return f"JSON keys {', '.join(keys)}"


def compare(a_path: str, b_path: str) -> int:
    def load(path):
        with open(path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh]

    a, b = load(a_path), load(b_path)
    if [r["argv"] for r in a] != [r["argv"] for r in b]:
        print("the two digests hold different command lists")
        return 1
    differ = [(ra, rb) for ra, rb in zip(a, b) if ra != rb]
    for ra, rb in differ:
        keys = [k for k in ra if ra[k] != rb.get(k)]
        where = (f" ({stdout_change(ra['stdout'], rb['stdout'])})"
                 if "stdout" in keys and "stdout" in rb else "")
        print(f"differs in {', '.join(keys)}{where}: {' '.join(ra['argv'])}")
    print(f"{len(differ)} of {len(a)} commands differ")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two digest files")
    parser.add_argument("paths", nargs="*", metavar="SRC OUT")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if len(args.paths) != 2:
        parser.error("expected SRC OUT, or --compare A B")
    return digest(*args.paths)


if __name__ == "__main__":
    # Before numpy loads its BLAS, as in perfbench/run.py.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
