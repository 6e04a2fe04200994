from __future__ import annotations

import time

import pytest

from stationwatch.acceptance import ALL_CHECKS

# Generous wall-clock ceilings per criterion, in seconds.
TIME_BUDGETS_S = {1: 2, 2: 2, 3: 10, 4: 30, 5: 10, 6: 2, 7: 30, 8: 2, 9: 20}

CHECK_IDS = [check.__name__.removeprefix("check_") for check in ALL_CHECKS]


@pytest.mark.parametrize("position, check", enumerate(ALL_CHECKS, start=1), ids=CHECK_IDS)
def test_acceptance_criterion(position, check):
    started = time.perf_counter()
    result = check()
    elapsed = time.perf_counter() - started

    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  criterion {result.criterion}  {result.name}: {result.detail}")

    assert result.criterion == position
    assert result.passed, f"criterion {result.criterion} ({result.name}): {result.detail}"
    budget = TIME_BUDGETS_S[result.criterion]
    assert elapsed < budget, (
        f"criterion {result.criterion} took {elapsed:.2f}s, budget {budget}s"
    )


def test_every_criterion_is_checked_exactly_once():
    # With each check's criterion equal to its position (above), nine
    # checks mean criteria 1 to 9, each once. No check runs here.
    assert len(ALL_CHECKS) == 9
