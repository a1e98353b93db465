"""Outside-in spans around the public functions of the lefschetz package.

Tracer.install() replaces each function in WRAPPED by a timing wrapper at
every lefschetz module attribute that holds it, so calls made through any
import path, recursive calls included, open a span.  Spans stay in memory
as flat arrays (name id, parent span, start, end) and are written to an
.npz file at the end; summarize() turns that file into per-layer metrics.
Counts that need an argument or a return value are taken in small hooks at
the same boundary.  Nothing under src/ is edited.
"""

import functools
import importlib
import sys
import time
from array import array

import numpy as np

WRAPPED = {
    "lefschetz.core": ("standard_monomial_table", "minimalize"),
    "lefschetz.series": ("hilbert_series", "ci_series"),
    "lefschetz.analysis": ("is_symmetric", "is_almost_centered", "reflecting_degree"),
    "lefschetz.classify": ("classify_maci", "slp_symmetric", "grid_from_json"),
    "lefschetz.oracle": ("lefschetz_report", "multiplication_matrix", "matrix_rank"),
    "lefschetz.cli": ("survey_rows",),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.tally = {}
        self.ideals = set()
        self.hooks = {
            "standard_monomial_table": self._on_table,
            "matrix_rank": self._on_matrix_rank,
            "lefschetz_report": self._on_report,
        }

    def install(self):
        for home in WRAPPED:
            importlib.import_module(home)
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "lefschetz" or key.startswith("lefschetz.")
        ]
        for home, funcs in WRAPPED.items():
            layer = home.rsplit(".", 1)[1]
            for func in funcs:
                original = getattr(sys.modules[home], func)
                wrapper = self._wrap(f"{layer}.{func}", original, self.hooks.get(func))
                for mod in modules:
                    if getattr(mod, func, None) is original:
                        setattr(mod, func, wrapper)

    def _wrap(self, label, fn, hook):
        self.names.append(label)
        name_id = len(self.names) - 1
        stack, perf_counter = self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.name)
            self.name.append(name_id)
            self.parent.append(stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _add(self, key, value):
        self.tally[key] = self.tally.get(key, 0) + value

    def _on_table(self, args, result):
        self.ideals.add(args[0])

    def _on_matrix_rank(self, args, rank):
        rows = len(args[0])
        cols = len(args[0][0]) if rows else 0
        self._add("oracle.matrix_rank.entries", rows * cols)
        self._add("oracle.matrix_rank.full", int(rank == min(rows, cols)))

    def _on_report(self, args, report):
        for rec in report.maps:
            self._add("oracle.cells", 1)
            self._add("oracle.cells_ranked", int(min(rec.dim_src, rec.dim_tgt) > 0))
            self._add("oracle.cells_deficient", int(not rec.full_rank))
            self._add("oracle.cell_entries", rec.dim_src * rec.dim_tgt)

    def counts(self):
        return {**self.tally, "core.table.distinct": len(self.ideals)}

    def write(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def summarize(path):
    """Per-layer calls, inclusive time (.s) and self time (.self_s) from a span file.

    Self time is a span's duration minus its child spans' durations.  The
    inclusive time of a group counts only its outermost spans, so recursion
    (hilbert_series) and nesting (reflecting_degree -> is_symmetric) are not
    counted twice.
    """
    with np.load(path) as z:
        names = list(z["names"])
        name, parent = z["name"], z["parent"]
        dur = z["end"] - z["start"]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    own = dur - child

    def group(*labels):
        return np.isin(name, [names.index(label) for label in labels])

    def calls(mask):
        return int(mask.sum())

    def inclusive(mask):
        inside_parent = np.zeros_like(mask)
        inside_parent[nested] = mask[parent[nested]]
        return float(dur[mask & ~inside_parent].sum())

    def self_time(mask):
        return float(own[mask].sum())

    report = group("oracle.lefschetz_report")
    mult = group("oracle.multiplication_matrix")
    rank = group("oracle.matrix_rank")
    table = group("core.standard_monomial_table")
    minimal = group("core.minimalize")
    hilbert = group("series.hilbert_series")
    ci = group("series.ci_series")
    analysis = group("analysis.is_symmetric", "analysis.is_almost_centered", "analysis.reflecting_degree")
    maci = group("classify.classify_maci")
    slp = group("classify.slp_symmetric")
    grid = group("classify.grid_from_json")
    return {
        "oracle.report.calls": calls(report),
        "oracle.report.self_s": self_time(report),
        "oracle.multiplication_matrix.calls": calls(mult),
        "oracle.multiplication_matrix.s": inclusive(mult),
        "oracle.matrix_rank.calls": calls(rank),
        "oracle.matrix_rank.s": inclusive(rank),
        "core.table.calls": calls(table),
        "core.table.s": inclusive(table),
        "core.minimalize.calls": calls(minimal),
        "core.minimalize.s": inclusive(minimal),
        "series.hilbert.calls": calls(hilbert),
        "series.hilbert.self_s": self_time(hilbert),
        "series.ci_series.calls": calls(ci),
        "series.ci_series.s": inclusive(ci),
        "series.s": inclusive(hilbert | ci),
        "analysis.calls": calls(analysis),
        "analysis.s": inclusive(analysis),
        "classify.classify_maci.self_s": self_time(maci),
        "classify.slp_symmetric.calls": calls(slp),
        "classify.slp_symmetric.self_s": self_time(slp),
        "classify.grid.s": inclusive(grid),
    }
