"""The reactive rule inside ``BanditTuner`` is the per-statement tuner.

``BanditTuner(gate=ReactiveRule(...), observe_every=1)`` runs the
related-work baseline through the bandit's observation loop: its
estimates, ledger, materialization and result. None of that may show:
on random matrix instances its decisions ``(statement_index, new)``
and ``total_cost`` must equal, with ``==``, those of ``reference``
below — the per-statement rule written out plainly, without deferral
or costing instrumentation.

Costs mix small integers (ties everywhere: the strict ``>`` and the
arm order decide the argmax) with arbitrary floats, decay reaches 1,
and cooldown runs past the stream length.
"""

from hypothesis import given, settings, strategies as st

from repro.core import (BanditTuner, Configuration, EMPTY_CONFIGURATION,
                        ReactiveRule)
from repro.sqlengine import IndexDef
from repro.workload import Statement

ARMS = (EMPTY_CONFIGURATION,) + tuple(
    Configuration({IndexDef("t", (column,))}) for column in "abcd")


def reference(arms, exec_rows, trans, decay, build_factor, cooldown):
    """Every arm's benefit decays and gains what it would have saved
    against the incumbent, floored at zero; the best other arm is
    adopted once its benefit beats ``build_factor`` x its switch cost
    and ``cooldown`` statements have passed. A decision's statement
    index is the first statement run under the new arm."""
    current, last = 0, -10 ** 9
    benefit = [0.0] * len(arms)
    exec_cost = trans_cost = 0.0
    decisions = []
    for i, row in enumerate(exec_rows):
        exec_cost += row[current]
        best, best_benefit = None, 0.0
        for a in range(len(arms)):
            benefit[a] = max(0.0, benefit[a] * decay +
                             (row[current] - row[a]))
            if a != current and benefit[a] > best_benefit:
                best, best_benefit = a, benefit[a]
        if best is None or i - last < cooldown:
            continue
        switch = trans[current][best]
        if best_benefit <= build_factor * switch:
            continue
        decisions.append((i + 1, arms[best]))
        trans_cost += switch
        current, last = best, i
        benefit = [0.0] * len(arms)
    return decisions, exec_cost + trans_cost


class MatrixProvider:
    """Statement ``i`` under arm ``a`` costs ``exec_rows[i][a]``."""

    def __init__(self, arms, exec_rows, trans):
        self.index = {arm: a for a, arm in enumerate(arms)}
        self.exec_rows = exec_rows
        self.trans = trans

    def exec_cost(self, segment, config):
        assert len(segment) == 1
        return self.exec_rows[segment.start][self.index[config]]

    def trans_cost(self, old, new):
        return self.trans[self.index[old]][self.index[new]]


costs = st.one_of(st.integers(0, 6).map(float),
                  st.floats(0.0, 100.0, allow_nan=False))


@st.composite
def instances(draw):
    n_arms = draw(st.integers(2, 5))
    n = draw(st.integers(1, 40))
    exec_rows = [draw(st.lists(costs, min_size=n_arms,
                               max_size=n_arms)) for _ in range(n)]
    trans = [[0.0 if a == b else draw(costs) for b in range(n_arms)]
             for a in range(n_arms)]
    knobs = dict(
        decay=draw(st.floats(0.0, 1.0, exclude_min=True)),
        build_factor=draw(st.floats(0.01, 4.0)),
        cooldown=draw(st.integers(0, 45)))
    return ARMS[:n_arms], exec_rows, trans, knobs


@settings(max_examples=300, deadline=None)
@given(instances())
def test_reactive_rule_equals_the_per_statement_reference(instance):
    arms, exec_rows, trans, knobs = instance
    expected_decisions, expected_total = reference(
        arms, exec_rows, trans, **knobs)
    tuner = BanditTuner(
        arms, MatrixProvider(arms, exec_rows, trans),
        gate=ReactiveRule(knobs["build_factor"], knobs["cooldown"]),
        decay=knobs["decay"], observe_every=1)
    result = tuner.run([Statement(f"SELECT a FROM t WHERE a = {i}")
                        for i in range(len(exec_rows))])
    assert [(d.statement_index, d.new) for d in result.decisions] == \
        expected_decisions
    assert result.total_cost == expected_total
    assert result.deferrals == 0
