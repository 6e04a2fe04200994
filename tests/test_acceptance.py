from __future__ import annotations

import tempfile
import time

import pytest

from stationwatch import acceptance
from stationwatch.acceptance import ALL_CHECKS

# Generous wall-clock ceilings in seconds, in criterion order.
TIME_BUDGETS_S = (2, 2, 10, 30, 10, 2, 30, 2, 20)

CHECK_IDS = [check.__name__.removeprefix("check_") for _, check in ALL_CHECKS]


@pytest.mark.parametrize("row, budget", zip(ALL_CHECKS, TIME_BUDGETS_S), ids=CHECK_IDS)
def test_acceptance_criterion(row, budget, tmp_path, monkeypatch):
    # A temporary directory that does not exist: a check that writes a
    # file raises instead of passing.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    name, check = row
    started = time.perf_counter()
    detail = check()  # a failing check raises CheckFailed with its detail
    elapsed = time.perf_counter() - started

    print(f"PASS  {name}: {detail}")
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"


def test_every_criterion_is_checked_exactly_once():
    # A criterion's number is its position in ALL_CHECKS, so nine rows mean
    # criteria 1 to 9, each once. No check runs here.
    assert len(ALL_CHECKS) == len(TIME_BUDGETS_S) == 9


def test_run_all_lets_an_unexpected_error_propagate(monkeypatch):
    def broken():
        raise ZeroDivisionError("not a check failure")

    monkeypatch.setattr(acceptance, "ALL_CHECKS", (("broken", broken),))
    with pytest.raises(ZeroDivisionError):
        acceptance.run_all()
