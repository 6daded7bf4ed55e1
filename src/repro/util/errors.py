"""Exception hierarchy shared by every subsystem of the HMPI reproduction.

The hierarchy mirrors the layering of the library: the cluster simulator,
the MPI substrate, the performance-model language, and the HMPI runtime each
raise their own subclass of :class:`ReproError`, so callers can catch at the
granularity they need (``except MPIError`` for substrate problems, ``except
ReproError`` for anything raised by this package).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "OptionError",
    "ClusterError",
    "MPIError",
    "MPICommError",
    "MPIGroupError",
    "DeadlockError",
    "MachineFailure",
    "RankFailedError",
    "LinkFaultError",
    "OperationTimeoutError",
    "PMDLError",
    "PMDLSyntaxError",
    "PMDLSemanticError",
    "PMDLAnalysisError",
    "PMDLRuntimeError",
    "HMPIError",
    "HMPIStateError",
    "HMPIRepairError",
    "MappingError",
    "CampaignError",
]


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class OptionError(ReproError):
    """An entry-point option (``engine=``, ``ft=``, ...) has an unknown or
    malformed value.

    Raised by the shared option resolvers (see :mod:`repro.util.options`)
    so every entry point — ``run_mpi``, ``run_hmpi``, the session facade,
    the CLI — reports bad configuration the same way.  Domain-specific
    selectors keep their established types (``mapper=`` raises
    :class:`MappingError`, collective ``algorithm=`` raises
    :class:`MPICommError`) but share the same message shape.
    """


class ClusterError(ReproError):
    """Invalid cluster topology or machine/link configuration."""


class MPIError(ReproError):
    """Base class for errors raised by the simulated MPI substrate."""


class MPICommError(MPIError):
    """Invalid communicator usage (bad rank, freed comm, wrong context)."""


class MPIGroupError(MPIError):
    """Invalid group construction or accessor usage."""


class DeadlockError(MPIError):
    """The deadlock watchdog concluded no rank can make progress."""


class MachineFailure(MPIError):
    """Raised inside a rank whose machine failed (fault injection)."""

    def __init__(self, machine: str, vtime: float):
        super().__init__(f"machine {machine!r} failed at virtual time {vtime:.6f}")
        self.machine = machine
        self.vtime = vtime


class RankFailedError(MPIError):
    """A point-to-point or collective operation involved a failed rank.

    This is the *survivor-side* failure signal: the rank that raises it is
    alive, but a peer it communicates with (or waits on) lives on a machine
    that died.  Unlike :class:`DeadlockError` it is local and typed — it
    names the failed world ranks so the application (or the HMPI runtime's
    ``group_repair``) can exclude them and continue.
    """

    def __init__(self, ranks, machine: str | None = None,
                 vtime: float | None = None, op: str = "operation"):
        self.ranks = tuple(sorted(set(ranks)))
        self.machine = machine
        self.vtime = vtime
        where = f" on machine {machine!r}" if machine else ""
        when = f" (failed at virtual time {vtime:.6f})" if vtime is not None else ""
        super().__init__(
            f"{op} involves failed rank(s) {list(self.ranks)}{where}{when}"
        )


class LinkFaultError(MPIError):
    """A transient link fault persisted past the retransmission budget."""

    def __init__(self, src: int, dst: int, attempts: int):
        super().__init__(
            f"message {src}->{dst} dropped {attempts} times; "
            f"retransmission budget exhausted"
        )
        self.src = src
        self.dst = dst
        self.attempts = attempts


class OperationTimeoutError(MPIError):
    """A per-operation virtual-time timeout elapsed before completion."""

    def __init__(self, op: str, timeout: float, deadline: float):
        super().__init__(
            f"{op} timed out after {timeout:g} virtual seconds "
            f"(deadline {deadline:.6f})"
        )
        self.timeout = timeout
        self.deadline = deadline


class PMDLError(ReproError):
    """Base class for performance-model definition language errors."""


class PMDLSyntaxError(PMDLError):
    """Tokenizer/parser error, carrying source position information."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class PMDLSemanticError(PMDLError):
    """Model is syntactically valid but semantically inconsistent."""


class PMDLAnalysisError(PMDLSemanticError):
    """The static analyzer proved a defect in the model.

    Carries the machine-readable :class:`~repro.perfmodel.diagnostics.Diagnostic`
    objects so tooling can report codes/lines without re-parsing the message.
    """

    def __init__(self, message: str, diagnostics: tuple = ()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


class PMDLRuntimeError(PMDLError):
    """Error while evaluating a compiled performance model."""


class HMPIError(ReproError):
    """Base class for HMPI runtime errors."""


class HMPIStateError(HMPIError):
    """An HMPI operation was called in the wrong runtime state."""


class HMPIRepairError(HMPIError):
    """Group repair is impossible (host dead, or too few survivors)."""


class MappingError(HMPIError):
    """No feasible mapping of abstract processors to machines exists."""


class CampaignError(OptionError):
    """A campaign config/spec is malformed (unknown axis, bad driver,
    invalid scenario).  Subclasses :class:`OptionError` so CLI entry
    points surface it as a usage error (exit code 2), not a traceback."""
