"""Span tracing around the calls into each quatspec layer.

``Tracer.install`` replaces each traced function with a wrapper in every
``quatspec`` module that holds it (a from-import binds the same function
under the importer's own name, so ``resolvent_bundle`` is rebound in cli,
verify, series, spectrum and sliceanalysis as well as sresolvent).  It
also patches three methods on their classes and three ``numpy.linalg``
functions.  ``uninstall`` puts every original back.

A span records a name, start, end, parent span and command id.  Spans are
kept in flat in-memory arrays and written out once at the end.  Functions
listed as counters only have their calls counted, which keeps the
overhead of the per-scalar layers (``qmul``) small.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name); "Class.method" patches the class.
SPANS = (
    ("quatspec.cli", "main", "cli.main"),
    ("quatspec.cli", "build_parser", "cli.build_parser"),
    ("quatspec.cli", "cmd_spectrum", "cli.cmd"),
    ("quatspec.cli", "cmd_resolvent", "cli.cmd"),
    ("quatspec.cli", "cmd_series", "cli.cmd"),
    ("quatspec.cli", "cmd_cassini", "cli.cmd"),
    ("quatspec.cli", "cmd_verify", "cli.cmd"),
    ("quatspec.verify", "run_identity_suite", "verify.run_identity_suite"),
    ("quatspec.sresolvent", "resolvent_bundle", "sresolvent.resolvent_bundle"),
    ("quatspec.sresolvent", "delta_op", "sresolvent.delta_op"),
    ("quatspec.sresolvent", "residual_resolvent_eq", "sresolvent.residual"),
    ("quatspec.sresolvent", "residual_q_eq", "sresolvent.residual"),
    ("quatspec.sresolvent", "residual_mixed_eq", "sresolvent.residual"),
    ("quatspec.sresolvent", "residual_AS_identity", "sresolvent.residual"),
    ("quatspec.sresolvent", "random_resolvent_point",
     "sresolvent.random_resolvent_point"),
    ("quatspec.hmat", "qmatrix_from_json_dict", "hmat.qmatrix_from_json_dict"),
    ("quatspec.hmat", "chi", "hmat.chi"),
    ("quatspec.hmat", "QMatrix.__matmul__", "hmat.matmul"),
    ("quatspec.hmat", "op_norm", "hmat.op_norm"),
    ("quatspec.hmat", "smallest_singular", "hmat.smallest_singular"),
    ("quatspec.hmat", "qmat_inverse", "hmat.qmat_inverse"),
    ("numpy.linalg", "svd", "linalg.svd"),
    ("numpy.linalg", "inv", "linalg.inv"),
    ("numpy.linalg", "eigvals", "linalg.eigvals"),
    ("quatspec.spectrum", "s_spectrum", "spectrum.s_spectrum"),
    ("quatspec.spectrum", "in_resolvent", "spectrum.in_resolvent"),
    ("quatspec.spectrum", "sample_cassini_ball", "spectrum.sample_cassini_ball"),
    ("quatspec.spectrum", "boundary_polyline", "spectrum.boundary_polyline"),
    ("quatspec.series", "eval_series_S", "series.eval_series_S"),
    ("quatspec.series", "term_norms", "series.term_norms"),
    ("quatspec.series", "converge_series_S", "series.converge"),
    ("quatspec.series", "converge_series_Q", "series.converge"),
    ("quatspec.sliceanalysis", "sderiv_operator", "sliceanalysis.sderiv_operator"),
)

COUNTERS = (
    ("quatspec.series", "SeriesState.coeff", "series.coeff"),
    ("quatspec.quatcore", "qmul", "quatcore.qmul"),
    ("quatspec.quatcore", "spherical_power", "quatcore.spherical_power"),
    ("quatspec.quatcore", "point_at_cassini_distance",
     "quatcore.point_at_cassini_distance"),
    ("quatspec.quatcore", "CassiniBall.contains", "quatcore.cassini_contains"),
)

# Every span name, in SPANS order without repeats.
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPANS))


class Tracer:
    """In-memory span and call-count recorder; off until ``install``."""

    def __init__(self):
        self.active = False
        self.cmd = -1
        self._stack = [-1]
        self._name_id = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._counts = {name: [0] for _, _, name in COUNTERS}
        self._samples = [0]
        self._undo = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.cmd_of = array("q")

    def reset(self) -> None:
        """Forget every span and count recorded so far."""
        for arr in (self.name, self.start, self.end, self.parent, self.cmd_of):
            del arr[:]
        for box in self._counts.values():
            box[0] = 0
        self._samples[0] = 0

    # -------------------------------------------------------------- wrappers

    def _span(self, fn, name: str):
        nid = self._name_id[name]
        stack, names, starts, ends = self._stack, self.name, self.start, self.end
        parents, cmds = self.parent, self.cmd_of

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(ends)
            names.append(nid)
            parents.append(stack[-1])
            cmds.append(self.cmd)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
        return wrapper

    def _counter(self, fn, name: str):
        box = self._counts[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                box[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _sampler(self, fn):
        """sample_cassini_ball also counts the samples it returns."""
        box = self._samples

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.active:
                box[0] += len(out)
            return out
        return wrapper

    # ------------------------------------------------------- install/restore

    def _rebind(self, module: str, attr: str, make) -> None:
        mod = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, make(orig))
            return
        orig = getattr(mod, attr)
        new = make(orig)
        holders = [mod] if module == "numpy.linalg" else [
            m for key, m in list(sys.modules.items())
            if key == "quatspec" or key.startswith("quatspec.")]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is orig:
                    self._undo.append((holder, key, orig))
                    setattr(holder, key, new)
        commands = getattr(mod, "COMMANDS", None) if module == "quatspec.cli" else None
        for key, value in (commands or {}).items():
            if value is orig:
                self._undo.append((commands, key, orig))
                commands[key] = new

    def install(self) -> None:
        """Wrap every traced function; quatspec.cli must be imported."""
        for module, attr, name in SPANS:
            make = lambda f, n=name: self._span(f, n)
            if attr == "sample_cassini_ball":
                make = lambda f, n=name: self._span(self._sampler(f), n)
            self._rebind(module, attr, make)
        for module, attr, name in COUNTERS:
            self._rebind(module, attr, lambda f, n=name: self._counter(f, n))

    def uninstall(self) -> None:
        """Put back every original function, newest first."""
        while self._undo:
            holder, key, orig = self._undo.pop()
            if isinstance(holder, dict):
                holder[key] = orig
            else:
                setattr(holder, key, orig)

    # ------------------------------------------------------------- analysis

    def write(self, path: str) -> None:
        """All spans as CSV: name, start, end, parent index, command id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,cmd\n")
            for i in range(len(self.end)):
                fh.write(f"{SPAN_NAMES[self.name[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]},{self.cmd_of[i]}\n")

    def _under(self, names: np.ndarray, parents: np.ndarray, target: int,
               ancestor: int) -> int:
        """Spans named ``target`` with a span named ``ancestor`` above them."""
        hits = 0
        for i in np.flatnonzero(names == target):
            p = parents[i]
            while p >= 0 and names[p] != ancestor:
                p = parents[p]
            hits += p >= 0
        return int(hits)

    def metrics(self, series_terms: int) -> dict:
        """Per-layer calls, self seconds and ratios of the recorded spans.

        ``series_terms`` is the sum of N + 1 over the series reports.
        """
        names = np.array(self.name, dtype=np.int64)
        parents = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_s = dur - child
        calls = np.bincount(names, minlength=len(SPAN_NAMES))
        selfs = np.bincount(names, weights=self_s, minlength=len(SPAN_NAMES))
        out = {}
        for nid, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = int(calls[nid])
            out[f"{name}.self_s"] = float(selfs[nid])
        for name, box in self._counts.items():
            out[f"{name}.calls"] = box[0]

        def ratio(num, den):
            return float(num) / den if den else 0.0

        nid = self._name_id
        svd = nid["linalg.svd"]
        out["sresolvent.svd_per_bundle"] = ratio(
            self._under(names, parents, svd, nid["sresolvent.resolvent_bundle"]),
            out["sresolvent.resolvent_bundle.calls"])
        out["sresolvent.random_resolvent_point.accept_ratio"] = ratio(
            out["sresolvent.random_resolvent_point.calls"],
            self._under(names, parents, svd,
                        nid["sresolvent.random_resolvent_point"]))
        out["spectrum.sample_cassini_ball.accept_ratio"] = ratio(
            self._samples[0], out["quatcore.cassini_contains.calls"])
        out["series.term_use_ratio"] = ratio(series_terms,
                                             out["series.coeff.calls"])
        out["trace.spans"] = len(dur)
        return out
