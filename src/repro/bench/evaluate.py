"""Deploying designs and replaying workloads against the live engine.

This is the measurement side of the reproduction: given a dynamic
design, actually *apply* it — materialize and drop indexes at each
change point — while executing every statement, metering both the
execution cost and the transition cost in the engine's deterministic
cost units. Figure 3's relative execution times come from these
replays.

A cost-model-only fast path (:func:`estimate_replay`) prices a design
without touching the data; the tests cross-check that estimates and
metered replays rank designs the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..core.costmatrix import CostProvider
from ..core.design import DesignSequence
from ..errors import DesignError
from ..sqlengine.database import Database
from ..workload.segmentation import Segment


@dataclass
class SegmentReplay:
    """Metered outcome of one segment under one configuration."""

    segment_index: int
    config_label: str
    exec_units: float
    trans_units: float
    n_statements: int


@dataclass
class ReplayReport:
    """Metered outcome of a full design deployment + workload replay.

    Attributes:
        segments: per-segment breakdown.
        exec_units: total execution cost units.
        trans_units: total design-transition cost units (including the
            final transition when the design pins a final config).
        design_changes: number of configuration changes applied.
    """

    segments: List[SegmentReplay] = field(default_factory=list)
    exec_units: float = 0.0
    trans_units: float = 0.0
    design_changes: int = 0

    @property
    def total_units(self) -> float:
        return self.exec_units + self.trans_units


def replay_design(db: Database, segments: Sequence[Segment],
                  design: DesignSequence,
                  final_config=None) -> ReplayReport:
    """Deploy ``design`` over ``segments`` on the live database.

    Restores the design's initial configuration (not charged), then
    walks the segments in order; whenever the design changes, applies
    the new configuration (real index builds/drops, metered), then
    executes every statement of the segment and accumulates its cost.

    Args:
        db: the database (its current indexes are replaced).
        segments: workload units; must match the design's length.
        design: one configuration per segment.
        final_config: if given, transition to this configuration after
            the last segment (charged as transition cost — the paper's
            pinned empty final design).
    """
    if len(segments) != len(design):
        raise DesignError(
            f"{len(segments)} segments but design has {len(design)}")
    db.apply_configuration(design.initial)
    report = ReplayReport()
    current = design.initial
    for i, segment in enumerate(segments):
        trans_units = 0.0
        config = design[i]
        if config != current:
            transition = db.apply_configuration(set(config))
            trans_units = transition.units(db.params)
            report.design_changes += 1
            current = config
        exec_units = 0.0
        for statement in segment:
            result = db.execute(statement.ast)
            exec_units += result.units(db.params)
        report.segments.append(SegmentReplay(
            segment_index=i, config_label=config.label,
            exec_units=exec_units, trans_units=trans_units,
            n_statements=len(segment)))
        report.exec_units += exec_units
        report.trans_units += trans_units
    if final_config is not None and final_config != current:
        transition = db.apply_configuration(set(final_config))
        report.trans_units += transition.units(db.params)
        report.design_changes += 1
    return report


def estimate_replay(provider: CostProvider, segments: Sequence[Segment],
                    design: DesignSequence,
                    final_config=None) -> ReplayReport:
    """Price a design with the cost model only (no execution)."""
    if len(segments) != len(design):
        raise DesignError(
            f"{len(segments)} segments but design has {len(design)}")
    report = ReplayReport()
    current = design.initial
    for i, segment in enumerate(segments):
        trans_units = 0.0
        config = design[i]
        if config != current:
            trans_units = provider.trans_cost(current, config)
            report.design_changes += 1
            current = config
        exec_units = provider.exec_cost(segment, config)
        report.segments.append(SegmentReplay(
            segment_index=i, config_label=config.label,
            exec_units=exec_units, trans_units=trans_units,
            n_statements=len(segment)))
        report.exec_units += exec_units
        report.trans_units += trans_units
    if final_config is not None and final_config != current:
        report.trans_units += provider.trans_cost(current, final_config)
        report.design_changes += 1
    return report
