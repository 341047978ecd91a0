"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class. Subsystems add narrower classes;
the SQL front end additionally carries source positions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class EngineError(ReproError):
    """Base class for errors raised by the embedded SQL engine."""


class CatalogError(EngineError):
    """A table or index is missing, duplicated, or otherwise misdefined."""


class SchemaError(EngineError):
    """A schema definition is invalid (bad column, duplicate name, ...)."""


class StorageError(EngineError):
    """The storage layer was asked to do something impossible."""


class TransientStorageError(StorageError):
    """A page I/O failed in a way that may succeed if retried.

    The fault-injection layer raises these for transient page faults;
    the buffer manager and the transition machinery retry them under a
    :class:`~repro.faults.retry.RetryPolicy`. ``retryable`` is always
    True — it exists so callers can branch on the attribute instead of
    the class.
    """

    retryable = True


class PermanentStorageError(StorageError):
    """A page I/O failed and will keep failing (a dead page/device).

    Retrying is pointless; the enclosing operation must roll back.
    """

    retryable = False


class TypeMismatchError(EngineError):
    """A value does not match the declared column type."""


class SqlError(EngineError):
    """Base class for SQL front-end errors."""


class ParseError(SqlError):
    """The SQL front end rejected the statement text.

    Attributes:
        statement: the full SQL text being parsed ("" when the failure
            came from a bare tokenize call; :func:`repro.sqlengine.sql.
            parser.parse` fills it in).
        position: character offset into the SQL text where parsing
            failed, or -1 when unknown.
    """

    def __init__(self, message: str, position: int = -1,
                 statement: str = ""):
        super().__init__(message)
        self.position = position
        self.statement = statement

    def excerpt(self) -> str:
        """The statement with a caret under the failure position."""
        if not self.statement or self.position < 0:
            return self.statement
        return self.statement + "\n" + " " * self.position + "^"


class SqlSyntaxError(ParseError):
    """The SQL text could not be tokenized or parsed."""


class SqlUnsupportedError(SqlError):
    """The SQL is valid but uses a feature outside the supported subset."""


class PlanningError(EngineError):
    """No executable plan could be produced for a statement."""


class EstimationUnavailable(EngineError):
    """A what-if cost estimate could not be produced.

    Raised when the fault injector times out or fails an estimation
    call. The :class:`~repro.core.costservice.CostService` catches
    these and degrades (stale epoch, then heap-scan upper bound); the
    online tuner defers design changes while estimates are degraded.

    Attributes:
        retryable: True for transient failures (timeouts) where an
            immediate retry may succeed.
    """

    def __init__(self, message: str, retryable: bool = False):
        super().__init__(message)
        self.retryable = retryable


class DesignError(ReproError):
    """Base class for errors in the physical-design layer."""


class TransitionError(DesignError):
    """A physical-design transition step (an index/view build, or an
    injected ``deploy_step`` fault) failed.

    Raised only after the catalog and buffer state have been rolled
    back to exactly their state before the failing step, so the
    failure is clean: nothing half-built survives.

    Attributes:
        structure: label of the structure whose step failed.
        attempts: build attempts made (including retries) before
            giving up.
        report: the :class:`~repro.sqlengine.database.TransitionReport`
            of the steps completed before the failing one when raised
            from ``Database.transition`` (None otherwise).
    """

    def __init__(self, message: str, structure: str = "",
                 attempts: int = 1):
        super().__init__(message)
        self.structure = structure
        self.attempts = attempts
        self.report = None


class InfeasibleProblemError(DesignError):
    """The design problem has no feasible solution.

    Raised, for example, when the space bound excludes every candidate
    configuration, or the change budget is negative.
    """


class RankingExhaustedError(DesignError):
    """Path ranking hit its enumeration cap before finding a feasible path.

    Attributes:
        paths_examined: how many paths were enumerated before giving up.
        best_infeasible_cost: cost of the cheapest (infeasible) path seen.
    """

    def __init__(self, message: str, paths_examined: int,
                 best_infeasible_cost: float):
        super().__init__(message)
        self.paths_examined = paths_examined
        self.best_infeasible_cost = best_infeasible_cost


class WorkloadError(ReproError):
    """A workload definition or trace file is invalid."""


class VerificationError(ReproError):
    """A differential or invariant check found a disagreement.

    Raised by the verification harness (:mod:`repro.verify`) and by
    the experiment runners' end-of-run verify passes. The message
    carries the formatted failure list.
    """
