"""Workload machinery: statements, generators, the paper's mixes and
workloads, segmentation, and trace files."""

from .generator import (PointQueryGenerator, QueryMix,
                        workload_from_block_mixes)
from .mixes import (MIX_A, MIX_B, MIX_C, MIX_D, PAPER_BLOCK_SIZE,
                    PAPER_COLUMNS, PAPER_MIXES, PAPER_VALUE_RANGE,
                    PAPER_WORKLOAD_BLOCKS, W1_MAJOR_SHIFT_BLOCKS,
                    block_labels, make_paper_workload, paper_generator)
from .analysis import (BlockProfile, ShiftReport, block_profiles,
                       detect_shifts, detect_shifts_from_profiles,
                       detect_summary_shifts, summary_profiles)
from .model import Statement, Workload
from .perturb import jitter_blocks, resample_values
from .segmentation import Segment, iter_segments_by_count, segment_by_count
from .summary import (PhaseSummary, WorkloadSummary, atoms_of,
                      iter_phases, summarize_segment, summarize_segments,
                      summarize_statements)
from .trace import iter_trace, load_trace, save_trace, trace_name

__all__ = [
    "PointQueryGenerator", "QueryMix", "workload_from_block_mixes",
    "MIX_A", "MIX_B", "MIX_C", "MIX_D", "PAPER_BLOCK_SIZE",
    "PAPER_COLUMNS", "PAPER_MIXES", "PAPER_VALUE_RANGE",
    "PAPER_WORKLOAD_BLOCKS", "W1_MAJOR_SHIFT_BLOCKS", "block_labels",
    "make_paper_workload", "paper_generator",
    "BlockProfile", "ShiftReport", "block_profiles", "detect_shifts",
    "detect_shifts_from_profiles", "detect_summary_shifts",
    "summary_profiles",
    "Statement", "Workload",
    "jitter_blocks", "resample_values",
    "Segment", "iter_segments_by_count", "segment_by_count",
    "PhaseSummary", "WorkloadSummary", "atoms_of",
    "iter_phases", "summarize_segment", "summarize_segments",
    "summarize_statements",
    "iter_trace", "load_trace", "save_trace", "trace_name",
]
