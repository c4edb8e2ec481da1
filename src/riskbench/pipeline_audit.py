"""Leakage audit: checks the subject ids every fitting call sees.

The cross-validation driver activates an audit that holds the fold's test
ids; any parameter-fitting entry point (model fit, standardization, PCA)
then reports the ids it consumed. Each report is checked on arrival, and
the audit keeps only the number of fits and the names of those that saw a
test id, so its memory does not grow with the fits or their sizes. After
the fold the driver asserts that no fit saw a test id.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass, field

_current: contextvars.ContextVar["LeakageAudit | None"] = contextvars.ContextVar(
    "riskbench_audit", default=None)


@dataclass
class LeakageAudit:
    forbidden: frozenset[str]
    tag: str = ""
    fits: int = 0
    leaks: list[str] = field(default_factory=list)  # "tag:name" of each fit that leaked

    @contextmanager
    def active(self):
        token = _current.set(self)
        try:
            yield self
        finally:
            _current.reset(token)

    def record(self, name: str, ids) -> None:
        self.fits += 1
        if not self.forbidden.isdisjoint(ids):
            self.leaks.append(f"{self.tag or '?'}:{name}")


def record_fit(name: str, ids) -> None:
    """Report a fitting call to the active audit, if any."""
    audit = _current.get()
    if audit is not None:
        audit.record(name, ids)
