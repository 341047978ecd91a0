"""The outside-in layer ledger: timing shims, spans, layer metrics.

Shims are installed from here, never from ``src/``: attribute
replacement on the public method of the owning class, and on every
``repro.*`` module whose globals bind a wrapped function. Each call is
one span — name, start, end, parent — kept in memory and written when
the child ends. A layer's self time is its spans' duration minus the
part their child spans cover, so self times of all spans add up to the
root span exactly; what no shim covers is the root's own self time
(``trace.unattributed_s``).

:func:`layer_metrics` turns spans into the per-layer metrics of
``BENCHMARK.json`` and :func:`coverage_failures` is the guard that
turns a rename inside ``src/`` into a loud failure rather than a
silently empty layer.
"""

from __future__ import annotations

import inspect
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import (Advisor, BanditTuner, CostService, merge_to_k,
                        solve_constrained, solve_lp_rounding,
                        solve_unconstrained)
from repro.sqlengine import WhatIfOptimizer, enumerate_access_paths
from repro.sqlengine.sql import parse, tokenize
from repro.workload import (detect_shifts_from_profiles, iter_trace,
                            summarize_statements)

ROOT_SPAN = "advise"

#: No package ``__init__`` exports ``segment_profile``; it is taken
#: from the module that defines its exported sibling.
segment_profile = inspect.getmodule(
    detect_shifts_from_profiles).segment_profile


class Recorder:
    """Spans of one run, as parallel lists (one entry per call)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_ids: Dict[str, int] = {}
        self.name: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.work: List[int] = []
        self.current = -1
        #: span name -> one key per call, for distinct counts
        self.keys: Dict[str, list] = {}

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.current)
        self.end.append(0.0)
        self.work.append(0)
        self.current = index
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self.current = self.parent[index]

    @contextmanager
    def span(self, name: str):
        index = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn: Callable,
             work: Optional[Callable] = None,
             key: Optional[Callable] = None) -> Callable:
        """``fn`` with one span per call (per ``next()`` for a
        generator function). ``work(args, result)`` may attach an
        integer amount of work to the span; ``key(args, result)``
        a hashable whose distinct values are counted at the end."""
        name_id = self.name_id(name)
        open_span, close_span = self.open, self.close
        keys = self.keys.setdefault(name, []) if key else None

        if inspect.isgeneratorfunction(fn):
            def generator_shim(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    index = open_span(name_id)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        close_span(index)
                    yield item
            return generator_shim

        def shim(*args, **kwargs):
            index = open_span(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(index)
            if work is not None:
                self.work[index] = work(args, result)
            if key is not None:
                keys.append(key(args, result))
            return result
        return shim

    def save(self, path: Path) -> None:
        with path.open("wb") as handle:
            distinct = {name: len(set(keys))
                        for name, keys in self.keys.items()}
            np.savez(handle, names=np.array(self.names),
                     distinct=np.array(json.dumps(distinct)),
                     name=np.array(self.name, dtype=np.int16),
                     start=np.array(self.start),
                     end=np.array(self.end),
                     parent=np.array(self.parent, dtype=np.int32),
                     work=np.array(self.work, dtype=np.int64))


# ----------------------------------------------------------------------
# what is wrapped
# ----------------------------------------------------------------------

def _dp_work(args, _result) -> int:
    matrices, k = args[0], args[1]
    n, c = matrices.exec_matrix.shape
    return n * c * c * (k + 1)


def _path_work(args, _result) -> int:
    n, c = args[0].exec_matrix.shape
    return n * c * c


def _lp_work(args, result) -> int:
    return _path_work(args, result) * result.iterations


def _cells(_args, result) -> int:
    return int(result.size)


def _template_key(_args, result):
    return result.key


def _signature_key(args, result):
    return (args[1].key, result)


#: (owning class, method, span name, work function, key function)
METHODS = (
    (WhatIfOptimizer, "statement_template",
     "whatif.statement_template", None, _template_key),
    (WhatIfOptimizer, "relevance_signature",
     "whatif.relevance_signature", None, _signature_key),
    (WhatIfOptimizer, "estimate_statement",
     "whatif.estimate_statement", None, None),
    (WhatIfOptimizer, "transition_units",
     "whatif.transition_units", None, None),
    (WhatIfOptimizer, "scan_upper_bound",
     "whatif.scan_upper_bound", None, None),
    (CostService, "exec_matrix", "costservice.exec_matrix",
     _cells, None),
    (CostService, "trans_matrix", "costservice.trans_matrix",
     _cells, None),
    (CostService, "exec_cost", "costservice.exec_cost", None, None),
    (CostService, "trans_cost", "costservice.trans_cost", None, None),
    (CostService, "upper_bound_cost",
     "costservice.upper_bound_cost", None, None),
    (Advisor, "recommend", "advisor.recommend", None, None),
    (BanditTuner, "run", "tuner.run", None, None),
)

#: (function, span name, work function)
FUNCTIONS = (
    (iter_trace, "trace.iter_trace", None),
    (tokenize, "sql.tokenize", None),
    (parse, "sql.parse", None),
    (summarize_statements, "summary.summarize_statements", None),
    (enumerate_access_paths, "planner.enumerate_access_paths", None),
    (solve_constrained, "solver.solve_constrained", _dp_work),
    (solve_unconstrained, "solver.solve_unconstrained", _path_work),
    (solve_lp_rounding, "solver.solve_lp_rounding", _lp_work),
    (merge_to_k, "solver.merge_to_k", None),
    (detect_shifts_from_profiles,
     "analysis.detect_shifts_from_profiles", None),
    (segment_profile, "analysis.segment_profile", None),
)

SCALAR_SPANS = ("costservice.exec_cost", "costservice.trans_cost",
                "costservice.upper_bound_cost")
BATCH_SPANS = ("costservice.exec_matrix", "costservice.trans_matrix")
SOLVER_SPANS = tuple(name for _, name, _ in FUNCTIONS
                     if name.startswith("solver."))


def install(recorder: Recorder) -> None:
    """Replace every listed method and function with its shim. The
    child binds some of the functions by name too, so its globals
    (``__main__``) are patched along with ``repro.*``'s."""
    for owner, attribute, name, work, key in METHODS:
        setattr(owner, attribute,
                recorder.wrap(name, getattr(owner, attribute), work,
                              key))
    modules = [module for name, module in list(sys.modules.items())
               if module is not None and
               (name in ("repro", "__main__")
                or name.startswith("repro."))]
    for original, name, work in FUNCTIONS:
        shim = recorder.wrap(name, original, work)
        bound = 0
        for module in modules:
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, shim)
                    bound += 1
        if not bound:
            raise RuntimeError(f"no repro module binds {name}")


class CallCounter:
    """Counts calls of one method — the untraced ``whatif_calls``."""

    def __init__(self, owner, attribute: str):
        self.calls = 0
        original = getattr(owner, attribute)

        def counting(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)
        setattr(owner, attribute, counting)


# ----------------------------------------------------------------------
# spans -> layer metrics
# ----------------------------------------------------------------------

class Spans:
    """Per-name call counts, self and inclusive time of one saved
    trace."""

    def __init__(self, path: Path):
        with np.load(path) as data:
            self.names = [str(n) for n in data["names"]]
            self.distinct = json.loads(str(data["distinct"]))
            name = data["name"].astype(np.int64)
            duration = data["end"] - data["start"]
            parent = data["parent"].astype(np.int64)
            work = data["work"]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent],
                              weights=duration[has_parent],
                              minlength=len(name))
        self._name = name
        self._self = duration - covered
        self._ids = {label: i for i, label in enumerate(self.names)}
        parent_name = np.where(has_parent, name[parent], -1)
        self._in_batch = np.isin(
            parent_name, [self._ids[b] for b in BATCH_SPANS
                          if b in self._ids])
        n = len(self.names)
        self._calls = np.bincount(name, minlength=n)
        self._self_by = np.bincount(name, weights=self._self,
                                    minlength=n)
        self._incl_by = np.bincount(name, weights=duration,
                                    minlength=n)
        self._work_by = np.bincount(name, weights=work, minlength=n)

    def _get(self, table, label: str) -> float:
        index = self._ids.get(label)
        return 0.0 if index is None else float(table[index])

    def calls(self, label: str) -> int:
        return int(self._get(self._calls, label))

    def self_s(self, label: str) -> float:
        return self._get(self._self_by, label)

    def inclusive_s(self, label: str) -> float:
        return self._get(self._incl_by, label)

    def work(self, label: str) -> int:
        return int(self._get(self._work_by, label))

    def split(self, label: str) -> Tuple[int, float, float]:
        """Calls and self time of ``label`` outside a batch span, and
        its self time inside one: ``trans_matrix`` calls
        ``trans_cost`` per cell, and those calls are its fill, not
        scalar use."""
        index = self._ids.get(label)
        if index is None:
            return 0, 0.0, 0.0
        mine = self._name == index
        outer = mine & ~self._in_batch
        return (int(outer.sum()), float(self._self[outer].sum()),
                float(self._self[mine & self._in_batch].sum()))


def layer_metrics(spans: Spans, shapes: int,
                  output: Dict[str, object],
                  untraced_advise_s: float) -> Dict[str, float]:
    """The per-layer metrics, by the names ISSUE 11 fixed.

    Args:
        spans: the traced child's spans.
        shapes: distinct literal-stripped statement shapes in the
            trace file (the denominator of ``sql.parses_per_shape``).
        output: the traced child's output description (atoms,
            observations, switches).
        untraced_advise_s: ``advise_s`` of the untraced rounds, the
            base of ``trace.overhead``.
    """
    calls, self_s, incl = spans.calls, spans.self_s, spans.inclusive_s
    scalar_calls, scalar_s, nested_s = 0, 0.0, 0.0
    for label in SCALAR_SPANS:
        outer_calls, outer_s, inner_s = spans.split(label)
        scalar_calls += outer_calls
        scalar_s += outer_s
        nested_s += inner_s
    estimates = calls("whatif.estimate_statement")
    exec_cells = spans.work("costservice.exec_matrix")
    total = incl(ROOT_SPAN)
    return {
        "trace.read_s": self_s("trace.iter_trace"),
        # the generator's last next() ends the stream and yields nothing
        "trace.statements": max(0, calls("trace.iter_trace") - 1),
        "sql.lex_s": self_s("sql.tokenize"),
        "sql.parse_s": self_s("sql.parse"),
        "sql.parse_calls": calls("sql.parse"),
        "sql.parses_per_shape": calls("sql.parse") / shapes,
        "summary.fold_s": self_s("summary.summarize_statements"),
        "summary.atoms": output.get("atoms", 0),
        "summary.compression": output.get("compression", 0.0),
        "whatif.template_s": self_s("whatif.statement_template"),
        "whatif.template_calls": calls("whatif.statement_template"),
        "whatif.templates":
            spans.distinct.get("whatif.statement_template", 0),
        "whatif.signature_s": self_s("whatif.relevance_signature"),
        "whatif.signature_calls": calls("whatif.relevance_signature"),
        "whatif.signatures":
            spans.distinct.get("whatif.relevance_signature", 0),
        "whatif.estimate_s": self_s("whatif.estimate_statement"),
        "whatif.estimate_calls": estimates,
        "planner.enumerate_s": self_s("planner.enumerate_access_paths"),
        "planner.enumerate_calls":
            calls("planner.enumerate_access_paths"),
        "whatif.trans_s": self_s("whatif.transition_units"),
        "whatif.trans_calls": calls("whatif.transition_units"),
        "whatif.bound_s": self_s("whatif.scan_upper_bound"),
        "whatif.bound_calls": calls("whatif.scan_upper_bound"),
        "costservice.exec_matrix_s": incl("costservice.exec_matrix"),
        "costservice.exec_fill_self_s":
            self_s("costservice.exec_matrix"),
        "costservice.exec_cells": exec_cells,
        "costservice.cells_per_estimate":
            exec_cells / max(1, estimates),
        "costservice.trans_matrix_s": incl("costservice.trans_matrix"),
        "costservice.trans_fill_self_s":
            self_s("costservice.trans_matrix") + nested_s,
        "costservice.trans_cells":
            spans.work("costservice.trans_matrix"),
        "costservice.scalar_s": scalar_s,
        "costservice.scalar_calls": scalar_calls,
        "solver.solve_s": sum(self_s(s) for s in SOLVER_SPANS),
        "solver.solve_calls": sum(calls(s) for s in SOLVER_SPANS),
        "solver.relaxations": sum(spans.work(s) for s in SOLVER_SPANS),
        "advisor.package_self_s": self_s("advisor.recommend"),
        "tuner.run_self_s": self_s("tuner.run"),
        "tuner.observations": output.get("observations", 0),
        "tuner.switches": output.get("switches", 0),
        "analysis.shift_s":
            self_s("analysis.detect_shifts_from_profiles")
            + self_s("analysis.segment_profile"),
        "analysis.shift_calls":
            calls("analysis.detect_shifts_from_profiles"),
        "trace.total_s": total,
        "trace.unattributed_s": self_s(ROOT_SPAN),
        "trace.overhead": total / untraced_advise_s,
    }


#: Disjoint groups of self-time metrics; each workload names the group
#: that must hold its largest share.
LAYER_GROUPS = {
    "front_end": ("trace.read_s", "sql.lex_s", "sql.parse_s",
                  "summary.fold_s", "whatif.template_s"),
    "exec_costing": ("whatif.signature_s", "whatif.estimate_s",
                     "planner.enumerate_s",
                     "costservice.exec_fill_self_s"),
    "trans_fill": ("costservice.trans_fill_self_s", "whatif.trans_s"),
    "solver": ("solver.solve_s",),
    "online": ("analysis.shift_s", "tuner.run_self_s"),
    "scalar": ("costservice.scalar_s", "whatif.bound_s"),
    "packaging": ("advisor.package_self_s",),
}

#: Counts that must be non-zero where the layer works, and the
#: "0 calls" cells, per kind of run.
_BATCH_FIRES = ("trace.statements", "sql.parse_calls", "summary.atoms",
                "whatif.template_calls", "whatif.signature_calls",
                "whatif.estimate_calls", "planner.enumerate_calls",
                "whatif.trans_calls", "costservice.exec_cells",
                "costservice.trans_cells", "solver.solve_calls",
                "solver.relaxations")
_BATCH_ZERO = ("costservice.scalar_calls", "whatif.bound_calls",
               "tuner.observations", "analysis.shift_calls")
_TUNER_FIRES = ("trace.statements", "sql.parse_calls",
                "whatif.template_calls", "whatif.signature_calls",
                "whatif.estimate_calls", "planner.enumerate_calls",
                "whatif.trans_calls", "costservice.scalar_calls",
                "tuner.observations", "tuner.switches",
                "analysis.shift_calls")
_TUNER_ZERO = ("summary.atoms", "costservice.exec_cells",
               "costservice.trans_cells", "solver.solve_calls")

UNATTRIBUTED_LIMIT = 0.15


def group_shares(metrics: Dict[str, float]) -> Dict[str, float]:
    """Each layer group's share of the traced wall time."""
    total = metrics["trace.total_s"]
    return {group: sum(metrics[m] for m in members) / total
            for group, members in LAYER_GROUPS.items()}


def coverage_failures(metrics: Dict[str, float], run_kind: str,
                      expected_layer: Optional[str]) -> List[str]:
    """Why this traced pass cannot be trusted (empty = it can): a shim
    that never fired where its layer works, a "0 calls" cell that is
    not zero, too much time outside every shim, or another layer group
    than the expected one on top (``None`` skips that last check — the
    shares are a property of the full-size workload)."""
    fires, zero = (_TUNER_FIRES, _TUNER_ZERO) if run_kind == "tuner" \
        else (_BATCH_FIRES, _BATCH_ZERO)
    failures = [f"{name} is 0: its shim never fired" for name in fires
                if not metrics[name]]
    failures += [f"{name} = {metrics[name]}, expected 0"
                 for name in zero if metrics[name]]
    if run_kind == "advisor" and not metrics["advisor.package_self_s"]:
        failures.append("advisor.package_self_s is 0: the "
                        "Advisor.recommend shim never fired")
    share = metrics["trace.unattributed_s"] / metrics["trace.total_s"]
    if share > UNATTRIBUTED_LIMIT:
        failures.append(
            f"trace.unattributed_s is {share:.1%} of trace.total_s "
            f"(limit {UNATTRIBUTED_LIMIT:.0%})")
    shares = group_shares(metrics)
    top = max(shares, key=lambda g: shares[g])
    if expected_layer is not None and top != expected_layer:
        failures.append(
            f"largest self-time share is {top} ({shares[top]:.1%}), "
            f"expected {expected_layer} "
            f"({shares[expected_layer]:.1%})")
    return failures
