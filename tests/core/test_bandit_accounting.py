"""The bandit tuner's accounting on W1, pinned bit for bit.

Each observation is one phase summary, folded once and handed to the
profile, every estimate, the bound and the deployment schedule. The
values below were recorded when the tuner still cut raw segments and
every costing call regrouped them: the fold may change how much work
an observation costs, never a cost, a decision or a counter. Both runs
use the real :class:`~repro.core.costservice.CostService`; the faulted
one has transient what-if outages long enough to exhaust the retries,
so degraded estimates, deferrals and pessimistic steps are pinned too.
"""

import numpy as np
import pytest

from repro.core import BanditTuner, CostService, default_arms
from repro.faults import TRANSIENT, FaultInjector, FaultPlan, FaultSpec
from repro.sqlengine import Database, IndexDef
from repro.workload import make_paper_workload, paper_generator

CANDIDATES = [IndexDef("t", ("a",)), IndexDef("t", ("b",)),
              IndexDef("t", ("c",)), IndexDef("t", ("d",)),
              IndexDef("t", ("a", "b")), IndexDef("t", ("c", "d"))]

#: (observation, statement index, old, new, context, reward hex,
#: switch cost hex, fallback) of every decision after the first two —
#: both runs share those.
_SHARED_TAIL = [
    (17, 180, "{I(b)}", "{I(a,b)}", "a", "0x1.45304511053a1p+7",
     "0x1.d8c40da643f81p+5", False),
    (24, 250, "{I(a,b)}", "{I(c,d)}", "c", "0x1.e195cd1426a5fp+6",
     "0x1.d8c40da643f81p+5", False),
    (41, 420, "{I(c,d)}", "{I(a,b)}", "a", "0x1.6e2ffc80e8002p+7",
     "0x1.d8c40da643f81p+5", False),
    (51, 520, "{I(a,b)}", "{I(b)}", "b", "0x1.c57f2a5f518c3p+6",
     "0x1.b8c40da643f81p+5", False),
    (58, 590, "{I(b)}", "{I(a,b)}", "a", "0x1.6a0c57bcf4254p+7",
     "0x1.d8c40da643f81p+5", False),
]

PINNED = {
    "clean": {
        "total": "0x1.bc8c6ab58441fp+12",
        "stayput": "0x1.3ec0000000000p+13",
        "decisions": [
            (1, 20, "{}", "{I(a,b)}", "a", "0x1.48637eaeb1c79p+7",
             "0x1.38c40da643f81p+5", False),
            (15, 160, "{I(a,b)}", "{I(b)}", "b", "0x1.cfefb28885d94p+6",
             "0x1.b8c40da643f81p+5", False),
        ] + _SHARED_TAIL,
        "safety": {"observations": 60, "estimate_calls": 265,
                   "probe_calls": 147, "max_step_probes": 6,
                   "bound_skips": 155, "gate_checks": 8,
                   "gate_blocks": 1, "switches": 7,
                   "shift_resets": 11},
        "costing": {"whatif_calls": 14, "whatif_calls_avoided": 2636,
                    "template_hits": 2620, "signature_hits": 16,
                    "trans_calls": 25, "trans_cache_hits": 669,
                    "unique_templates": 5, "unique_signatures": 14,
                    "cache_hit_rate": 0.9947169811320755},
    },
    "faulted": {
        "total": "0x1.c2ac5c4fd6244p+12",
        "stayput": "0x1.3420000000000p+13",
        "decisions": [
            (2, 30, "{}", "{I(a)}", "a", "0x1.62bf4d7990f62p+7",
             "0x1.18c40da643f81p+5", False),
            (15, 160, "{I(a)}", "{I(b)}", "b", "0x1.48fcf7fc94d82p+7",
             "0x1.b8c40da643f81p+5", False),
        ] + _SHARED_TAIL,
        "safety": {"observations": 60, "estimate_calls": 273,
                   "probe_calls": 156, "max_step_probes": 6,
                   "bound_skips": 136, "deferrals": 2,
                   "degraded_deferrals": 1, "unavailable_deferrals": 1,
                   "degraded_probes": 2, "pessimistic_steps": 2,
                   "gate_checks": 8, "gate_blocks": 1, "switches": 7,
                   "shift_resets": 11},
        "costing": {"whatif_calls": 13, "whatif_calls_avoided": 2713,
                    "template_hits": 2697, "signature_hits": 16,
                    "trans_calls": 30, "trans_cache_hits": 641,
                    "unique_templates": 5, "unique_signatures": 13,
                    "estimate_faults": 24, "estimate_retries": 20,
                    "degraded_estimates": 4, "upper_bound_fallbacks": 4,
                    "cache_hit_rate": 0.9952311078503302},
    },
}


def _database():
    db = Database()
    db.create_table("t", [(column, "INTEGER") for column in "abcd"])
    rng = np.random.default_rng(1234)
    db.bulk_load("t", {column: rng.integers(0, 500_000, 4_000)
                       for column in "abcd"})
    return db


def _run(faulted):
    workload = make_paper_workload("W1", paper_generator(seed=5),
                                   block_size=20)
    optimizer = _database().what_if()
    if faulted:
        optimizer.fault_injector = FaultInjector(FaultPlan(specs=(
            FaultSpec("estimate", TRANSIENT, probability=0.3,
                      duration=6),)), seed=11)
    tuner = BanditTuner(default_arms(CANDIDATES), CostService(optimizer),
                        observe_every=10, seed=3)
    return tuner.run(workload.statements)


@pytest.mark.parametrize("run", ["clean", "faulted"])
def test_accounting_is_pinned(run):
    pinned = PINNED[run]
    result = _run(faulted=run == "faulted")
    assert result.total_cost.hex() == pinned["total"]
    assert result.stayput_cost.hex() == pinned["stayput"]
    assert [(d.observation_index, d.statement_index, d.old.label,
             d.new.label, d.context, d.reward.hex(),
             d.switch_cost.hex(), d.fallback)
            for d in result.decisions] == pinned["decisions"]
    assert {key: value for key, value in result.safety.items()
            if value} == pinned["safety"]
    assert {key: value for key, value in result.costing.items()
            if value and not key.endswith("_seconds")} == \
        pinned["costing"]
    assert len(result.design) == 600
