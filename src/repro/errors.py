"""Exception hierarchy for the repro package.

Every error raised by the simulator, the MPI runtime, or the collective
implementations derives from :class:`ReproError` so callers can catch
package failures with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly or reached an
    inconsistent state (e.g. deadlock with pending processes)."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still blocked.

    This is the simulated equivalent of an MPI job hanging: some rank is
    waiting for a message or a shared-memory flag that nobody will ever
    produce.  The ``blocked`` attribute lists the stuck processes; when
    the run was sanitized (:mod:`repro.check`), ``wait_graph`` maps each
    blocked process to a description of what it was waiting on.
    """

    def __init__(
        self,
        message: str,
        blocked: list | None = None,
        wait_graph: dict | None = None,
    ):
        super().__init__(message)
        self.blocked = list(blocked or [])
        self.wait_graph = dict(wait_graph or {})


class InterruptError(SimulationError):
    """A waiting process was interrupted by another process."""

    def __init__(self, cause: object = None):
        super().__init__(f"process interrupted: {cause!r}")
        self.cause = cause


class MPIError(ReproError):
    """Misuse of the MPI-like runtime (bad rank, mismatched collective,
    invalid communicator operation, ...)."""


class TransportError(MPIError):
    """A transport-level send failed permanently.

    Raised when a link outage outlives the retry budget
    (``FaultPlan.retry_limit``).  Unlike a bare :class:`MPIError`, the
    failure is structured so the resilience layer's failure detector —
    and tests — can match on fields instead of regexes:

    ``rank``
        The world rank whose send exhausted its retries.
    ``edge``
        The failing ``(src_node, dst_node)`` topology edge.
    ``sim_time``
        Simulated time at which the retries exhausted.
    ``attempts``
        How many retries were performed before giving up.

    Subclasses :class:`MPIError` so pre-existing ``except MPIError``
    handlers (and ``pytest.raises(MPIError, match="retry")`` tests)
    keep working unchanged.
    """

    def __init__(
        self,
        message: str,
        *,
        rank: int,
        edge: tuple,
        sim_time: float,
        attempts: int,
    ):
        super().__init__(message)
        self.rank = rank
        self.edge = (int(edge[0]), int(edge[1]))
        self.sim_time = sim_time
        self.attempts = attempts


class RecoveryError(ReproError):
    """The recovery layer hit an unrecoverable condition.

    ``kind`` is one of the closed vocabulary:

    * ``"double-failover"`` — a further failure after the policy's
      ``max_failovers`` budget was already spent;
    * ``"lost-partition"`` — the confirmed-dead set leaves no surviving
      node to re-run the job on;
    * ``"no-suspect"`` — a failure signal arrived but the detector could
      not attribute it to any node (e.g. a wildcard outage with no
      nameable endpoint).

    ``details`` carries structured, JSON-ready context.
    """

    def __init__(self, kind: str, message: str, *, details: dict | None = None):
        super().__init__(message)
        self.kind = kind
        self.details = dict(details or {})


class PayloadError(ReproError):
    """Invalid payload operation (mixing incompatible payloads,
    reducing different lengths, ...)."""


class ConfigError(ReproError):
    """Invalid machine/cluster/algorithm configuration."""


class TuningError(ReproError):
    """The tuning layer was asked for an unknown algorithm or an
    impossible configuration."""


class UnknownAlgorithmError(TuningError, ValueError):
    """The cost model was asked to price an algorithm name it has never
    heard of.

    Distinct from the model returning ``None`` for a *registered* but
    unmodelled algorithm (ring, SHArP offload, the library selectors):
    a name outside the registry is a caller bug — in hybrid-fidelity
    mode a silently unpriced phase would corrupt simulated time, so the
    model refuses loudly.  Subclasses :class:`ValueError` so generic
    argument-validation handlers also catch it.
    """

    def __init__(self, algorithm: str, known):
        self.algorithm = algorithm
        super().__init__(
            f"cost model cannot price unknown algorithm {algorithm!r}; "
            f"registered algorithms: {', '.join(sorted(known))}"
        )


class FaultError(ReproError):
    """Invalid fault-injection plan (unknown fault kind, bad window,
    malformed JSON schema, ...)."""


class TrafficError(ReproError):
    """Invalid multi-tenant traffic input (malformed trace schema,
    unknown placement policy, a job wider than the shared fabric, ...)."""


class SanitizerError(ReproError):
    """A sanitized run finished with invariant violations.

    Raised by :meth:`repro.check.sanitizer.Sanitizer.finalize` in strict
    mode; ``reports`` carries the structured
    :class:`~repro.check.reports.SanitizerReport` records.
    """

    def __init__(self, message: str, reports: list | None = None):
        super().__init__(message)
        self.reports = list(reports or [])
