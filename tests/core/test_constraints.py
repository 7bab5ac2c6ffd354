"""Unit tests for constraint enforcement (E10)."""

import warnings

import pytest

from repro.chronos.duration import Duration
from repro.chronos.timestamp import Timestamp
from repro.core.constraints import (
    MESSAGE_VIOLATIONS,
    ConstraintSet,
    ConstraintViolation,
    EnforcementMode,
)
from repro.core.taxonomy.base import Stamped, Violation
from repro.core.taxonomy.event_inter import GloballyNonDecreasing
from repro.core.taxonomy.event_isolated import DelayedRetroactive, Retroactive


def element(tt: int, vt: int) -> Stamped:
    return Stamped(tt_start=Timestamp(tt), vt=Timestamp(vt))


class TestRejectMode:
    def test_compliant_updates_pass(self):
        constraints = ConstraintSet([Retroactive()])
        assert constraints.observe(element(10, 5)) == []

    def test_violation_raises_with_details(self):
        constraints = ConstraintSet([Retroactive()])
        with pytest.raises(ConstraintViolation) as excinfo:
            constraints.observe(element(10, 20))
        assert "retroactive" in str(excinfo.value)
        assert len(excinfo.value.violations) == 1

    def test_message_lists_a_bounded_prefix_of_many_violations(self):
        violations = [
            Violation(Retroactive(), element(10, 20 + i), f"vt={20 + i} violates retroactive")
            for i in range(1_000)
        ]
        error = ConstraintViolation(violations)
        message = str(error)
        assert message.count("violates retroactive") == MESSAGE_VIOLATIONS
        assert message.endswith("… and 980 more (1000 total)")
        assert len(message) < 4_000
        assert error.violations == violations
        few = str(ConstraintViolation(violations[:MESSAGE_VIOLATIONS]))
        assert few.count("violates retroactive") == MESSAGE_VIOLATIONS
        assert "more" not in few

    def test_multiple_constraints_all_checked(self):
        constraints = ConstraintSet([Retroactive(), GloballyNonDecreasing()])
        constraints.observe(element(10, 5))
        with pytest.raises(ConstraintViolation) as excinfo:
            constraints.observe(element(20, 30))  # not retroactive, but increasing
        assert len(excinfo.value.violations) == 1


class TestWarnAndRecordModes:
    def test_warn_mode_warns_and_records(self):
        constraints = ConstraintSet([Retroactive()], mode=EnforcementMode.WARN)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            found = constraints.observe(element(10, 20))
        assert len(found) == 1
        assert len(caught) == 1
        assert constraints.recorded == found

    def test_record_mode_is_silent(self):
        constraints = ConstraintSet([Retroactive()], mode=EnforcementMode.RECORD)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            constraints.observe(element(10, 20))
        assert not caught
        assert len(constraints.recorded) == 1

    def test_record_mode_accumulates(self):
        constraints = ConstraintSet([Retroactive()], mode=EnforcementMode.RECORD)
        constraints.observe(element(10, 20))
        constraints.observe(element(20, 30))
        constraints.observe(element(30, 25))  # compliant
        assert len(constraints.recorded) == 2


class TestStatefulness:
    def test_inter_element_state_carries_across_updates(self):
        constraints = ConstraintSet([GloballyNonDecreasing()])
        constraints.observe(element(1, 100))
        with pytest.raises(ConstraintViolation):
            constraints.observe(element(2, 50))

    def test_reset_clears_state(self):
        constraints = ConstraintSet([GloballyNonDecreasing()])
        constraints.observe(element(1, 100))
        constraints.reset()
        assert constraints.observe(element(2, 50)) == []

    def test_check_all_does_not_disturb_live_monitors(self):
        constraints = ConstraintSet([GloballyNonDecreasing()])
        constraints.observe(element(1, 100))
        constraints.check_all([element(5, 1), element(6, 2)])
        # Live monitor still remembers vt=100.
        with pytest.raises(ConstraintViolation):
            constraints.observe(element(2, 50))

    def test_check_all_reports_batch_violations(self):
        constraints = ConstraintSet([DelayedRetroactive(Duration(10))])
        found = constraints.check_all([element(100, 95), element(200, 150)])
        assert len(found) == 1


class TestMisc:
    def test_empty_set(self):
        constraints = ConstraintSet()
        assert constraints.is_empty
        assert constraints.observe(element(1, 10**6)) == []

    def test_repr_names_constraints(self):
        constraints = ConstraintSet([Retroactive()])
        assert "retroactive" in repr(constraints)
        assert "reject" in repr(constraints)
