"""The embedded SQL engine substrate.

Everything the paper's experiments needed from SQL Server, rebuilt:
page-organized heap storage, sorted indexes priced by B+-tree page
geometry, a SQL subset front end, statistics, a cost model, a single
physical-plan IR shared by the planner / executor / what-if
optimizer, and a metered executor.
"""

from .buffer import BufferManager, IoMetrics
from .costmodel import Cost, CostParams, MeteredCost
from .database import (Database, GroundTruthExecution,
                       TransitionReport)
from .executor import Executor, QueryResult
from .index import Index, IndexDef, IndexGeometry
from .plan import (Aggregate, FetchHeap, Filter, GroupAggregate,
                   PlanNode, PlanRuntime, Project, ScanHeap,
                   ScanIndexLeaf, ScanView, SeekIndex, Sort)
from .planner import (AccessPath, QueryInfo, analyze_select,
                      choose_access_path, enumerate_access_paths)
from .schema import Column, TableSchema
from .sql import parse
from .stats import ColumnStats, EquiDepthHistogram, TableStats
from .storage import HeapTable, PAGE_SIZE_BYTES
from .types import ColumnType, Value
from .views import MaterializedView, ViewDef, ViewGeometry
from .whatif import (PlanEstimate, StatementTemplate,
                     WhatIfOptimizer)

__all__ = [
    "BufferManager", "IoMetrics", "Cost", "CostParams",
    "MeteredCost", "Database", "GroundTruthExecution",
    "TransitionReport", "Executor",
    "QueryResult", "Index", "IndexDef", "IndexGeometry", "PlanNode",
    "PlanRuntime", "ScanHeap", "SeekIndex", "ScanIndexLeaf",
    "ScanView", "Filter", "FetchHeap", "Sort", "Project", "Aggregate",
    "GroupAggregate", "AccessPath",
    "QueryInfo", "analyze_select", "choose_access_path",
    "enumerate_access_paths", "Column", "TableSchema", "parse",
    "ColumnStats", "EquiDepthHistogram", "TableStats", "HeapTable",
    "PAGE_SIZE_BYTES", "ColumnType", "Value", "PlanEstimate",
    "WhatIfOptimizer", "StatementTemplate", "MaterializedView",
    "ViewDef", "ViewGeometry",
]
