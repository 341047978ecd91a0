"""Lint-style guard on the solver surface: Definition 1 is written
once — one change counter and one pricing fold on
:class:`~repro.core.costmatrix.CostMatrices`, one stage DP in
:mod:`repro.core.sequence_graph` — and ``repro.core`` exports one
solver per problem, the slow references living in
:mod:`repro.verify.reference`. A second copy of any of them is an API
change that must show up in review."""

import inspect
import re

import pytest

import repro.core
import repro.verify.reference
from repro.core import (SequenceGraph, hybrid, kaware, ktuning,
                        lp_advisor, ranking, robustness)

#: The private copies this surface replaced.
DELETED = ("_changes", "_counted_changes", "_changes_excl_initial",
           "_changes_excluding_initial", "_cost_on", "_design_cost_on",
           "_solve_penalized")


def test_core_exports_no_reference_solver():
    assert not [name for name in repro.core.__all__
                if name.endswith("_reference")]
    assert not hasattr(kaware, "solve_constrained_reference")
    assert not hasattr(repro.core.sequence_graph,
                       "solve_unconstrained_reference")


def test_references_live_under_verify():
    for name in ("reference_unconstrained", "reference_constrained",
                 "graph_shortest_path"):
        assert callable(getattr(repro.verify.reference, name)), name


def test_sequence_graph_is_adjacency_only():
    assert not hasattr(SequenceGraph, "shortest_path")
    assert callable(SequenceGraph.successors)
    assert callable(SequenceGraph.predecessors)


@pytest.mark.parametrize("module", [kaware, ktuning, hybrid, lp_advisor,
                                    ranking, robustness],
                         ids=lambda module: module.__name__)
def test_no_private_counter_or_pricing_fold(module):
    defined = set(re.findall(r"^def (\w+)", inspect.getsource(module),
                             flags=re.MULTILINE))
    assert not defined & set(DELETED)
    assert not [name for name in DELETED if hasattr(module, name)]


def test_design_sequence_has_no_change_counter():
    for name in ("change_count", "change_points",
                 "distinct_configurations"):
        assert not hasattr(repro.core.DesignSequence, name), name


def test_change_count_is_the_only_signature_that_grew():
    parameters = inspect.signature(
        repro.core.CostMatrices.change_count).parameters
    assert list(parameters) == ["self", "assignment",
                                "count_initial_change"]
    assert parameters["count_initial_change"].default is True
