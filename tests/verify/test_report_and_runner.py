"""Report semantics, the orchestrating runner, and the CLI command."""

import pytest

from repro.cli import main
from repro.verify.report import (CheckResult, VerificationReport)
from repro.verify.runner import run_verification


def _failing_report():
    good = CheckResult("solvers", "good family")
    good.passed(3)
    bad = CheckResult("invariants", "bad family")
    bad.passed()
    bad.failed("instance-1", "cost went up")
    return VerificationReport(results=[good, bad], seconds=0.5)


def test_check_result_accumulates():
    result = CheckResult("solvers", "desc")
    assert result.ok and result.checks == 0
    assert result.check(True, "i", "never stored")
    assert not result.check(False, "i", "stored")
    assert result.checks == 2
    assert not result.ok
    assert result.failures[0].format() == "[solvers] i: stored"


def test_report_aggregation_and_format():
    report = _failing_report()
    assert not report.ok
    assert report.total_checks == 5
    assert len(report.failures) == 1
    text = report.format()
    assert "FAIL (1)" in text
    assert "cost went up" in text
    assert report.result_for("solvers").ok
    with pytest.raises(KeyError):
        report.result_for("nope")


def test_report_truncates_failure_spam():
    result = CheckResult("solvers", "d")
    for i in range(25):
        result.failed(f"i{i}", "boom")
    text = VerificationReport(results=[result]).format()
    assert "... and 15 more" in text


def test_runner_covers_all_families():
    report = run_verification(seed=3, instances=4, quick=True,
                              nrows=1_000, traces=1)
    assert [r.family for r in report.results] == [
        "solvers", "invariants", "costservice", "groundtruth",
        "planidentity", "scaleadvisor", "deployment"]
    assert report.ok
    assert all(r.checks > 0 for r in report.results)
    assert report.seconds > 0


def test_runner_quick_never_shrinks_instances():
    """CI's acceptance criterion: >= 50 randomized solver instances
    even under --quick. The instance count is caller-controlled, so
    the default must not be reduced by the quick flag."""
    import inspect
    from repro.verify.runner import run_verification as rv
    assert inspect.signature(rv).parameters["instances"].default == 50


def test_cli_verify_exits_zero_when_clean(capsys):
    code = main(["verify", "--quick", "--instances", "3",
                 "--rows", "1000", "--traces", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verification report:" in out
    assert "groundtruth" in out


def test_cli_verify_exits_nonzero_on_disagreement(monkeypatch,
                                                  capsys):
    def broken_run_verification(**kwargs):
        bad = CheckResult("solvers", "d")
        bad.failed("instance", "vectorized != reference")
        return VerificationReport(results=[bad])

    import repro.verify
    monkeypatch.setattr(repro.verify, "run_verification",
                        broken_run_verification)
    code = main(["verify", "--quick"])
    out = capsys.readouterr().out
    assert code == 1
    assert "vectorized != reference" in out
