"""Session facade: the one-stop import for HMPI programs.

:class:`HMPISession` is a context manager that owns a cluster and a set
of launch options (mapper, fault-tolerance knobs, engine backend,
observability) and runs HMPI applications against them::

    import repro
    from repro.hmpi import session

    with session(repro.cluster.paper_network(), mapper="greedy",
                 engine="events") as hmpi:
        result = hmpi.run(my_app)          # app(handle) per rank
        print(result.makespan)

Inside ``my_app`` the per-rank handle exposes the method-style API —
``handle.recon(...)``, ``handle.timeof(model)``,
``handle.group_create(model)``, ``handle.group_repair(gid, model)``,
``handle.group_free(gid)``, ``handle.is_host()`` … (see
:class:`repro.core.runtime.HMPI`).  The flat C-style ``HMPI_*`` spelling
from the paper's listings stays supported as thin delegates over those
methods and is re-exported here, so either style works from this single
module.  Options are validated eagerly at session creation (bad registry
strings raise :class:`~repro.util.errors.OptionError` and friends before
any rank runs) and every option can be overridden per ``run``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

from .core.api import (  # noqa: F401  (re-exported: flat C-style API)
    HMPI_COMM_WORLD_GROUP,
    HMPI_Admit_machine,
    HMPI_Depart_machine,
    HMPI_Get_comm,
    HMPI_Group_create,
    HMPI_Group_free,
    HMPI_Group_rank,
    HMPI_Group_repair,
    HMPI_Group_size,
    HMPI_Is_free,
    HMPI_Is_host,
    HMPI_Is_member,
    HMPI_Recon,
    HMPI_Release_free,
    HMPI_Timeof,
    HMPI_Wtime,
)
from .core.runtime import HMPI, run_hmpi
from .mpi.launcher import MPIRunResult
from .mpi.scheduler import resolve_engine, resolve_ft
from .util.errors import OptionError

__all__ = [
    "HMPISession",
    "session",
    "connect",
    "HMPI",
    "run_hmpi",
    # flat C-style API, re-exported for one-import convenience
    "HMPI_COMM_WORLD_GROUP",
    "HMPI_Recon",
    "HMPI_Timeof",
    "HMPI_Group_create",
    "HMPI_Group_repair",
    "HMPI_Group_free",
    "HMPI_Group_rank",
    "HMPI_Group_size",
    "HMPI_Get_comm",
    "HMPI_Is_host",
    "HMPI_Is_free",
    "HMPI_Is_member",
    "HMPI_Wtime",
    "HMPI_Release_free",
    "HMPI_Depart_machine",
    "HMPI_Admit_machine",
]

#: Options a session holds; exactly run_hmpi's keyword-only surface, so
#: `HMPISession(cluster, **opts)` and `run_hmpi(app, cluster, **opts)`
#: accept the same names (the uniform-option contract).
_SESSION_OPTIONS = (
    "placement", "nprocs", "mapper", "initial_speeds", "timeout",
    "tracer", "ft", "obs", "engine",
)


class HMPISession:
    """A reusable launch context for HMPI applications.

    Holds the cluster and the launch options; :meth:`run` executes an
    application under them, returning the
    :class:`~repro.mpi.launcher.MPIRunResult`.  Options given to ``run``
    override the session's for that run only.  The session validates
    registry-string options eagerly so a typo fails at construction, not
    mid-campaign.
    """

    def __init__(self, cluster: Any, **options: Any):
        self.cluster = cluster
        for key in options:
            if key not in _SESSION_OPTIONS:
                raise OptionError(
                    f"unknown session option {key!r}; "
                    f"expected one of {', '.join(_SESSION_OPTIONS)}"
                )
        # Fail fast on bad registry strings / malformed FT dicts.
        if "engine" in options:
            options["engine"] = resolve_engine(options["engine"])
        if "ft" in options:
            options["ft"] = resolve_ft(options["ft"])
        self.options = options
        self.results: list[MPIRunResult] = []
        self._closed = False
        self._monitor = None

    # -- context management -------------------------------------------
    def __enter__(self) -> "HMPISession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Mark the session closed; further ``run`` calls are an error."""
        if self._monitor is not None:
            self._monitor.stop()
            self._monitor = None
        self._closed = True

    # -- monitoring ------------------------------------------------------
    def monitor(self, host: str = "127.0.0.1", port: int = 0):
        """Serve this session's observability over HTTP; returns the server.

        Ensures the session carries an :class:`~repro.obs.Observability`
        with a telemetry bus (creating one if the ``obs`` option is
        unset) so subsequent :meth:`run` calls feed ``/metrics``,
        ``/snapshot`` and ``/events``.  The server is stopped by
        :meth:`close`, or earlier via the returned handle's ``stop()``.
        """
        from .obs import EventBus, MonitorServer, Observability

        if self._closed:
            raise OptionError("session is closed")
        if self._monitor is not None:
            return self._monitor
        obs = self.options.get("obs")
        if obs is None:
            obs = Observability(telemetry=True)
            self.options["obs"] = obs
        elif obs.telemetry is None:
            obs.telemetry = EventBus()
        self._monitor = MonitorServer(
            metrics=obs.metrics, telemetry=obs.telemetry,
            snapshot_fn=obs.snapshot, host=host, port=port,
        ).start()
        return self._monitor

    # -- running -------------------------------------------------------
    def run(
        self,
        app: Callable[..., Any],
        *,
        args: tuple = (),
        kwargs: dict | None = None,
        **overrides: Any,
    ) -> MPIRunResult:
        """Run ``app(handle, *args, **kwargs)`` SPMD under this session.

        ``overrides`` accepts any session option (``mapper=``, ``ft=``,
        ``engine=``, ...) for this run only.  The result is returned and
        appended to :attr:`results`.
        """
        if self._closed:
            raise OptionError("session is closed")
        for key in overrides:
            if key not in _SESSION_OPTIONS:
                raise OptionError(
                    f"unknown run option {key!r}; "
                    f"expected one of {', '.join(_SESSION_OPTIONS)}"
                )
        opts = {**self.options, **overrides}
        placement: Sequence[int] | None = opts.pop("placement", None)
        result = run_hmpi(app, self.cluster, placement,
                          args=args, kwargs=kwargs, **opts)
        self.results.append(result)
        return result

    @property
    def last_result(self) -> MPIRunResult | None:
        return self.results[-1] if self.results else None


def session(cluster: Any, **options: Any) -> HMPISession:
    """Open an :class:`HMPISession` (readable spelling for ``with`` use)."""
    return HMPISession(cluster, **options)


def connect(url: str, *, tenant: str = "anonymous", timeout: float = 60.0):
    """Open a client for a running ``repro serve`` endpoint.

    The served counterpart of :func:`session`: instead of owning a
    cluster in-process, predictions and selections are answered by a job
    server — bitwise-identical to the local calls (docs/SERVING.md)::

        client = connect("http://127.0.0.1:8080", tenant="team-a")
        t = client.timeof(MODEL_SOURCE, params={...}, cluster="paper")
    """
    from .serve.client import ServeClient

    return ServeClient(url, tenant=tenant, timeout=timeout)
