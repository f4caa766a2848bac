"""SimSan: the always-on simulator sanitizer (``python -m repro check``).

Structural invariant checking for simulated MPI jobs (gate lifecycle,
shared-memory partition spans, matcher leaks, event-time monotonicity,
deadlock wait graphs) plus a differential oracle that cross-checks
sanitized collective runs against numpy references and the Section 5
analytical cost model.  See ``docs/sanitizer.md``.

The oracle (:mod:`repro.check.oracle`) is imported lazily by its users
— it pulls in numpy and the runtime, while this package's core must
stay importable from inside the simulation kernel's hooks.
"""

from repro.check.reports import ALL_KINDS, SanitizerReport
from repro.check.sanitizer import Sanitizer, as_sanitizer, env_sanitize

__all__ = [
    "ALL_KINDS",
    "SanitizerReport",
    "Sanitizer",
    "as_sanitizer",
    "env_sanitize",
]
