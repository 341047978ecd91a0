"""Result types for the verification harness.

A verification run executes many individual assertions grouped into
check *families* (solver equivalence, constrained invariants, cost
service, ground truth). Each family accumulates into a
:class:`CheckResult`; a :class:`VerificationReport` collects the
families, formats a human-readable summary, and converts to a non-zero
exit code when anything disagreed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


#: Maximum failures echoed per family in the formatted report; the
#: counts always reflect every failure.
MAX_SHOWN_FAILURES = 10


@dataclass(frozen=True)
class CheckFailure:
    """One disagreement found by a check.

    Attributes:
        family: the check family that found it.
        instance: which generated/real instance it occurred on
            (e.g. ``"matrices[seed=7] k=2"``).
        message: what disagreed, with both sides' values.
    """

    family: str
    instance: str
    message: str

    def format(self) -> str:
        return f"[{self.family}] {self.instance}: {self.message}"


@dataclass
class CheckResult:
    """Accumulated outcome of one check family.

    Attributes:
        family: short family key (``solvers``, ``invariants``,
            ``costservice``, ``groundtruth``).
        description: one-line summary of what the family verifies.
        checks: number of individual assertions evaluated.
        failures: the assertions that did not hold.
    """

    family: str
    description: str
    checks: int = 0
    failures: List[CheckFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def passed(self, n: int = 1) -> None:
        """Record ``n`` assertions that held."""
        self.checks += n

    def failed(self, instance: str, message: str) -> None:
        """Record one assertion that did not hold."""
        self.checks += 1
        self.failures.append(
            CheckFailure(self.family, instance, message))

    def check(self, condition: bool, instance: str,
              message: str) -> bool:
        """Record one assertion; ``message`` is kept on failure only."""
        if condition:
            self.passed()
        else:
            self.failed(instance, message)
        return condition


@dataclass
class VerificationReport:
    """Everything one verification run found.

    Attributes:
        results: one :class:`CheckResult` per family run.
        seconds: wall time of the whole run.
    """

    results: List[CheckResult] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def total_checks(self) -> int:
        return sum(result.checks for result in self.results)

    @property
    def failures(self) -> List[CheckFailure]:
        return [failure for result in self.results
                for failure in result.failures]

    def result_for(self, family: str) -> CheckResult:
        for result in self.results:
            if result.family == family:
                return result
        raise KeyError(f"no check family {family!r} in this report")

    def format(self, include_timing: bool = True) -> str:
        """Human-readable summary; ``include_timing=False`` drops the
        wall-time suffix so the output is bit-stable across runs
        (``repro chaos`` prints it that way for diffable logs)."""
        width = max((len(r.family) for r in self.results), default=8)
        lines = ["verification report:"]
        for result in self.results:
            status = "ok" if result.ok else \
                f"FAIL ({len(result.failures)})"
            lines.append(
                f"  {result.family:<{width}}  {result.checks:>6} "
                f"checks  {status:<10} {result.description}")
        total = (f"  total: {self.total_checks} checks, "
                 f"{len(self.failures)} failures")
        if include_timing:
            total += f", {self.seconds:.2f}s"
        lines.append(total)
        shown = 0
        for failure in self.failures:
            if shown >= MAX_SHOWN_FAILURES:
                lines.append(
                    f"  ... and {len(self.failures) - shown} more")
                break
            lines.append("  " + failure.format())
            shown += 1
        return "\n".join(lines)
