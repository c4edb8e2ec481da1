"""Leakage audit: records which subject ids every fitting call saw.

The cross-validation driver activates an audit; any parameter-fitting
entry point (model fit, standardization, PCA) then reports the ids it
consumed. After a run the driver asserts that no test-fold id ever
reached a fit.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass, field

_current: contextvars.ContextVar["LeakageAudit | None"] = contextvars.ContextVar(
    "riskbench_audit", default=None)


@dataclass
class FitEvent:
    name: str
    ids: frozenset[str]
    tag: str


@dataclass
class LeakageAudit:
    events: list[FitEvent] = field(default_factory=list)
    tag: str = ""

    @contextmanager
    def active(self, tag: str = ""):
        prev_tag = self.tag
        self.tag = tag or prev_tag
        token = _current.set(self)
        try:
            yield self
        finally:
            _current.reset(token)
            self.tag = prev_tag

    def record(self, name: str, ids) -> None:
        self.events.append(FitEvent(name, frozenset(ids), self.tag))

    def leaks(self, forbidden_ids, tag: str | None = None) -> list[str]:
        """Names of fits (matching tag, if given) that saw a forbidden id."""
        forbidden = frozenset(forbidden_ids)
        out = []
        for event in self.events:
            if tag is not None and event.tag != tag:
                continue
            if event.ids & forbidden:
                out.append(f"{event.tag or '?'}:{event.name}")
        return out


def record_fit(name: str, ids) -> None:
    """Report a fitting call to the active audit, if any."""
    audit = _current.get()
    if audit is not None:
        audit.record(name, ids)
