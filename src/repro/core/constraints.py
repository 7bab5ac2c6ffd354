"""Constraint enforcement: attaching specializations to relations.

The paper's first benefit of temporal specialization is design-time
semantics; the operational counterpart is *enforcement*: a relation
declared, say, delayed retroactive must reject (or at least report)
updates whose stamps fall outside the declared region.

A :class:`ConstraintSet` bundles declared specializations with an
:class:`EnforcementMode`:

* ``REJECT`` -- raise :class:`ConstraintViolation` and refuse the update;
* ``WARN`` -- record the violation and emit a warning, but accept;
* ``RECORD`` -- record silently (useful for auditing a candidate design
  against live traffic before committing to it).

Checking is incremental: each specialization contributes one
:class:`~repro.core.taxonomy.base.Monitor`, fed every inserted element
in transaction order, so enforcement costs O(#constraints) per update
(benchmark E10 measures it).
"""

from __future__ import annotations

import copy
import enum
import warnings
from typing import Iterable, List, Sequence, Tuple

from repro.core.taxonomy.base import Monitor, Specialization, StampedElement, Violation
from repro.observability import metrics as _metrics


class EnforcementMode(enum.Enum):
    """What to do when an update violates a declared specialization."""

    REJECT = "reject"
    WARN = "warn"
    RECORD = "record"


#: Violations a :class:`ConstraintViolation` message spells out (it is a
#: client-visible error body, so it must not grow with the batch).
MESSAGE_VIOLATIONS = 20


class ConstraintViolation(Exception):
    """Raised in REJECT mode; ``.violations`` carries every underlying
    violation, the message the first :data:`MESSAGE_VIOLATIONS`."""

    def __init__(self, violations: Sequence[Violation]) -> None:
        self.violations = list(violations)
        details = "; ".join(str(v) for v in self.violations[:MESSAGE_VIOLATIONS])
        hidden = len(self.violations) - MESSAGE_VIOLATIONS
        if hidden > 0:
            details += f"; … and {hidden} more ({len(self.violations)} total)"
        super().__init__(f"temporal specialization violated: {details}")


class ConstraintSet:
    """Declared specializations plus live monitors for one relation."""

    def __init__(
        self,
        specializations: Iterable[Specialization] = (),
        mode: EnforcementMode = EnforcementMode.REJECT,
    ) -> None:
        self.specializations: List[Specialization] = list(specializations)
        self.mode = mode
        self._monitors: List[Tuple[Specialization, Monitor]] = [
            (spec, spec.monitor()) for spec in self.specializations
        ]
        self.recorded: List[Violation] = []

    @property
    def is_empty(self) -> bool:
        return not self.specializations

    def observe(self, element: StampedElement) -> List[Violation]:
        """Feed one inserted element through every monitor, atomically.

        The two-phase monitor protocol makes rejection side-effect
        free: every monitor first *inspects* the prospective element;
        only when the update is accepted (no violations, or a
        non-REJECT mode) do the monitors *commit* it.  A rejected
        update therefore leaves both the relation and the enforcement
        state exactly as they were.
        """
        found: List[Violation] = []
        for _spec, monitor in self._monitors:
            found.extend(monitor.inspect(element))
        if _metrics.enabled():
            registry = _metrics.registry()
            registry.counter("constraints.checks").inc(len(self._monitors))
            if found:
                registry.counter("constraints.violations").inc(len(found))
        if found and self.mode is EnforcementMode.REJECT:
            raise ConstraintViolation(found)
        for _spec, monitor in self._monitors:
            monitor.commit(element)
        if not found:
            return []
        self.recorded.extend(found)
        if self.mode is EnforcementMode.WARN:
            for violation in found:
                warnings.warn(str(violation), stacklevel=3)
        return found

    def observe_batch(self, elements: Sequence[StampedElement]) -> List[Violation]:
        """Feed a whole batch through the monitors in one amortized pass.

        Semantics match calling :meth:`observe` element by element, but
        the cost structure differs: instead of the two-phase
        inspect-then-commit round trip per element, the batch runs
        through *shadow copies* of the live monitors in a single
        inspect+commit pass.  Only when the whole batch is accepted (no
        violations, or a non-REJECT mode) do the shadows replace the
        live monitors -- so a rejected batch leaves the enforcement
        state exactly as it was, with no per-element rollback
        bookkeeping.

        Elements must arrive in non-decreasing ``tt_start`` order (the
        transaction clock guarantees this for a staged batch).
        """
        elements = list(elements)
        if not elements:
            return []
        if not self._monitors:
            return []
        found: List[Violation] = []
        shadows: List[Tuple[Specialization, Monitor]] = []
        for spec, monitor in self._monitors:
            # The memo pins the (immutable) specialization so the shadow
            # keeps reporting violations against the declared instance.
            shadow = copy.deepcopy(monitor, {id(spec): spec})
            for element in elements:
                found.extend(shadow.inspect(element))
                shadow.commit(element)
            shadows.append((spec, shadow))
        if _metrics.enabled():
            registry = _metrics.registry()
            registry.counter("constraints.checks").inc(len(self._monitors) * len(elements))
            if found:
                registry.counter("constraints.violations").inc(len(found))
        if found and self.mode is EnforcementMode.REJECT:
            raise ConstraintViolation(found)
        self._monitors = shadows
        if _metrics.enabled():
            _metrics.registry().counter("constraints.shadow_swaps").inc()
        if not found:
            return []
        self.recorded.extend(found)
        if self.mode is EnforcementMode.WARN:
            for violation in found:
                warnings.warn(str(violation), stacklevel=3)
        return found

    def check_all(self, elements: Iterable[StampedElement]) -> List[Violation]:
        """Batch-validate an existing extension with fresh monitors.

        Does not disturb the live incremental monitors.
        """
        found: List[Violation] = []
        for spec in self.specializations:
            found.extend(spec.violations(list(elements)))
        return found

    def reset(self) -> None:
        """Forget all monitor state (e.g. after a relation is truncated)."""
        self._monitors = [(spec, spec.monitor()) for spec in self.specializations]
        self.recorded.clear()

    def __repr__(self) -> str:
        names = ", ".join(spec.name for spec in self.specializations)
        return f"ConstraintSet([{names}], mode={self.mode.value})"
