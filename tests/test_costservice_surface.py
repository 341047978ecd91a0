"""Lint-style guard on :class:`~repro.core.costservice.CostService`'s
constructor: one costing path, so a new knob is an API change that
must show up in review, not creep in behind a default."""

import inspect

from repro.core import CostService


def test_constructor_takes_optimizer_and_retry_policy_only():
    parameters = inspect.signature(CostService.__init__).parameters
    assert list(parameters) == ["self", "optimizer", "retry_policy"]
