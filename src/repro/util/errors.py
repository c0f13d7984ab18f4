"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch one base class at API
boundaries. Sub-hierarchies mirror the package layout: configuration,
simulation, file-system, MPI-layer, collective-I/O, fault-injection,
and planning-service errors.

The hierarchy also defines the CLI's **exit-code contract**
(:func:`exit_code_for`): every ``repro`` subcommand maps the error
class it dies with to a stable, documented exit code (see the table in
README), so scripts can branch on *why* a command failed instead of
parsing stderr.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "SpecError",
    "SimulationError",
    "FileSystemError",
    "StripingError",
    "DatatypeError",
    "FileViewError",
    "CommunicatorError",
    "CollectiveIOError",
    "PartitionError",
    "PlacementError",
    "MemoryPressureError",
    "WorkloadError",
    "FaultError",
    "TransientFaultError",
    "PlanVerificationError",
    "CacheError",
    "ServeOverloadError",
    "PlanWorkerError",
    "EXIT_OK",
    "EXIT_FAILURE",
    "EXIT_USAGE",
    "EXIT_SPEC",
    "EXIT_PLAN_VERIFY",
    "EXIT_CACHE",
    "EXIT_TRANSIENT",
    "EXIT_OVERLOAD",
    "EXIT_REPRO",
    "exit_code_for",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """Invalid user-supplied configuration (machine, strategy, workload)."""


#: Public alias: an invalid experiment *specification* — the name the
#: service/client API uses. Same class, so existing ``except
#: ConfigurationError`` handlers keep working.
SpecError = ConfigurationError


class SimulationError(ReproError, RuntimeError):
    """The discrete-event / flow simulation reached an invalid state."""


class FileSystemError(ReproError, RuntimeError):
    """Parallel-file-system level failure (bad handle, out-of-range I/O)."""


class StripingError(FileSystemError, ValueError):
    """Invalid striping layout parameters."""


class DatatypeError(ReproError, ValueError):
    """Malformed MPI derived-datatype construction."""


class FileViewError(ReproError, ValueError):
    """Invalid MPI file-view (displacement/etype/filetype) specification."""


class CommunicatorError(ReproError, RuntimeError):
    """Misuse of the simulated communicator (bad rank, size mismatch)."""


class CollectiveIOError(ReproError, RuntimeError):
    """A collective I/O strategy could not complete the operation."""


class PartitionError(CollectiveIOError):
    """File-domain partitioning produced or received an invalid region."""


class PlacementError(CollectiveIOError):
    """No feasible aggregator placement exists for a file domain."""


class MemoryPressureError(CollectiveIOError):
    """Aggregation buffers cannot fit in any candidate host's memory."""


class WorkloadError(ReproError, ValueError):
    """Invalid benchmark workload specification."""


class FaultError(ReproError, RuntimeError):
    """Invalid fault specification or fault-layer misuse."""


class TransientFaultError(FaultError):
    """An injected transient failure aborted the run.

    Campaign runners treat this as retryable: the same experiment can be
    re-attempted (with a fresh attempt salt feeding the fault schedule)
    rather than recorded as a hard error.
    """


class PlanVerificationError(ReproError, RuntimeError):
    """A collective plan failed static verification.

    Raised when a plan that *must* be sound — a freshly built plan, or a
    plan a caller explicitly asked to be checked — violates the paper's
    invariants. Carries the verifier's per-rule violation counts when
    available. (Cached entries that fail verification are normally
    *purged and replanned*, not raised.)
    """

    def __init__(self, message: str, by_rule: dict[str, int] | None = None) -> None:
        super().__init__(message)
        self.by_rule: dict[str, int] = dict(by_rule or {})


class CacheError(ReproError, RuntimeError):
    """The plan cache is misconfigured or structurally unusable.

    Individual unreadable entries are *misses*, never errors; this class
    covers the cache itself (bad shard count, unwritable root, invalid
    size bound).
    """


class ServeOverloadError(ReproError, RuntimeError):
    """The planning daemon refused a request under admission control.

    The server's bounded planning queue is full; the client should retry
    after ``retry_after_s`` seconds (the daemon's drain-time estimate).
    """

    def __init__(self, message: str, retry_after_s: float = 0.1) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class PlanWorkerError(ReproError, RuntimeError):
    """A planning worker died or raised outside the library's contract.

    The serve daemon's process pool runs the planner out-of-process; a
    worker that segfaults, gets OOM-killed, or raises a non-``ReproError``
    exception is a *server*-side failure — the request was well-formed.
    The daemon answers 500 with the stable ``"worker-failed"`` code so
    clients can distinguish "my spec is bad" from "the server's worker
    crashed; the same request may succeed on retry".
    """
#
# The CLI maps the exception class a subcommand dies with to a stable
# exit code. 0/1/2 follow Unix convention (success / generic failure /
# usage); library error classes get their own codes so callers can
# branch on the failure kind. Documented in README ("Exit codes").

EXIT_OK = 0  #: success
EXIT_FAILURE = 1  #: generic failure (unexpected exception, failed run)
EXIT_USAGE = 2  #: command-line usage error (argparse's own convention)
EXIT_SPEC = 3  #: SpecError/ConfigurationError/FaultError — invalid spec
EXIT_PLAN_VERIFY = 4  #: PlanVerificationError — plan violates invariants
EXIT_CACHE = 5  #: CacheError — plan cache unusable
EXIT_TRANSIENT = 6  #: TransientFaultError — injected transient abort
EXIT_OVERLOAD = 7  #: ServeOverloadError — daemon refused under load
EXIT_REPRO = 8  #: any other ReproError


def exit_code_for(exc: BaseException) -> int:
    """The CLI exit code for ``exc`` (most-specific class wins)."""
    if isinstance(exc, TransientFaultError):
        return EXIT_TRANSIENT
    if isinstance(exc, ServeOverloadError):
        return EXIT_OVERLOAD
    if isinstance(exc, PlanVerificationError):
        return EXIT_PLAN_VERIFY
    if isinstance(exc, CacheError):
        return EXIT_CACHE
    if isinstance(exc, (ConfigurationError, FaultError)):
        return EXIT_SPEC
    if isinstance(exc, ReproError):
        return EXIT_REPRO
    return EXIT_FAILURE
