"""Communicators: the per-rank handle tying group + context + engine.

API style follows mpi4py's lowercase object interface (per the HPC-Python
guides): ``send``/``recv`` move NumPy arrays natively and arbitrary
picklable objects otherwise; collectives are methods.  Ranks appearing in
the API are always **communicator ranks**; translation to world ranks
happens inside.

Communicator creation (``split``, ``dup``, ``create``) is collective and
allocates context ids deterministically, so two messages can never
cross-match between communicators.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any

from ..util.errors import MPICommError
from . import collectives as _coll
from .datatypes import decode_payload
from .engine import Engine, WORLD_CONTEXT
from .group import Group
from .ops import Op
from .request import RecvRequest, Request, SendRequest
from .status import ANY_SOURCE, ANY_TAG, PROC_NULL, UNDEFINED, Status

__all__ = ["Comm"]

#: Internal collective tags live far below user tag space (user tags >= 0).
_COLL_TAG_BASE = -1_000_000


class Comm:
    """A communicator handle owned by one rank.

    Construct via :func:`repro.mpi.launcher.run_mpi` (which builds the world
    communicator) and the ``split``/``dup``/``create`` methods.
    """

    def __init__(self, engine: Engine, group: Group, context: int, world_rank: int):
        if world_rank not in group:
            raise MPICommError(
                f"world rank {world_rank} is not a member of {group}"
            )
        self._engine = engine
        self._group = group
        # The send/recv path translates through these on every call.
        self._ranks = group.world_ranks
        self._size = group.size
        self._context = context
        self._world_rank = world_rank
        self._rank = group.rank_of(world_rank)
        self._freed = False
        self._creation_counter = 0
        self._coll_counter = 0

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """This process's rank within the communicator (MPI_Comm_rank)."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of processes in the communicator (MPI_Comm_size)."""
        return self._size

    @property
    def group(self) -> Group:
        """The communicator's group (MPI_Comm_group)."""
        return self._group

    @property
    def context(self) -> int:
        """The communication context id (unique per communicator)."""
        return self._context

    @property
    def is_world(self) -> bool:
        return self._context == WORLD_CONTEXT

    def wtime(self) -> float:
        """This rank's current virtual time (MPI_Wtime)."""
        return self._engine.vtime(self._world_rank)

    def _check_alive(self) -> None:
        if self._freed:
            raise MPICommError("operation on a freed communicator")

    def _translate_out(self, comm_rank: int) -> int:
        if comm_rank == ANY_SOURCE:
            return ANY_SOURCE
        if not 0 <= comm_rank < self._size:
            raise MPICommError(
                f"rank {comm_rank} out of range for communicator size {self._size}"
            )
        return self._ranks[comm_rank]

    def _localize_status(self, status: Status) -> Status:
        """Convert the engine's world-rank status to communicator ranks."""
        local = self._group.rank_of(status.source)
        return Status(source=local, tag=status.tag, nbytes=status.nbytes,
                      arrival_vtime=status.arrival_vtime)

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0, nbytes: int | None = None) -> None:
        """Standard-mode send (eager).  ``nbytes`` overrides the charged size."""
        self._check_alive()
        if dest == PROC_NULL:
            return
        if tag < 0:
            raise MPICommError(f"user tags must be >= 0, got {tag}")
        self._engine.post_send(self._world_rank, self._translate_out(dest),
                               self._context, tag, obj, nbytes)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             status: Status | None = None,
             timeout: float | None = None) -> Any:
        """Blocking receive; returns the received object.

        Pass a :class:`Status` to have source/tag/nbytes filled in (source
        as a communicator rank).  ``timeout`` bounds the wait in *virtual*
        seconds: if the message can never arrive, the call raises
        :class:`~repro.util.errors.OperationTimeoutError` instead of
        stalling until global failure resolution.
        """
        self._check_alive()
        if source == PROC_NULL:
            if status is not None:
                status.source = PROC_NULL
                status.tag = ANY_TAG
                status.nbytes = 0
            return None
        wsrc = self._translate_out(source)
        posted = self._engine.post_recv(self._world_rank, self._context, wsrc, tag)
        msg = self._engine.wait_message(self._world_rank, posted,
                                        timeout=timeout)
        if status is not None:
            status.source = self._group.rank_of(msg.src)
            status.tag = msg.tag
            status.nbytes = msg.nbytes
            status.arrival_vtime = msg.arrival
        return decode_payload(msg.payload)

    def ssend(self, obj: Any, dest: int, tag: int = 0, nbytes: int | None = None) -> None:
        """Synchronous-mode send (MPI_Ssend): returns only after the
        receiver has matched the message — the rendezvous is visible in
        virtual time (the sender's clock advances past the receiver's
        matching point)."""
        self._check_alive()
        if dest == PROC_NULL:
            return
        if tag < 0:
            raise MPICommError(f"user tags must be >= 0, got {tag}")
        self._engine.post_send(self._world_rank, self._translate_out(dest),
                               self._context, tag, obj, nbytes, sync=True)

    def isend(self, obj: Any, dest: int, tag: int = 0, nbytes: int | None = None) -> Request:
        """Nonblocking send — eager, so the request is complete at once."""
        self.send(obj, dest, tag, nbytes)
        return SendRequest()

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              timeout: float | None = None) -> Request:
        """Nonblocking receive; ``wait()`` yields ``(value, status)``.

        ``timeout`` (virtual seconds) bounds the eventual ``wait()``.
        """
        self._check_alive()
        if source == PROC_NULL:
            req = SendRequest()  # trivially complete, value None
            return req
        wsrc = self._translate_out(source)
        posted = self._engine.post_recv(self._world_rank, self._context, wsrc, tag)
        return RecvRequest(self, posted, timeout=timeout)

    def sendrecv(self, obj: Any, dest: int, sendtag: int = 0,
                 source: int = ANY_SOURCE, recvtag: int = ANY_TAG,
                 status: Status | None = None, nbytes: int | None = None) -> Any:
        """Combined send+receive; deadlock-free because sends are eager."""
        req = self.irecv(source, recvtag)
        self.send(obj, dest, sendtag, nbytes)
        value, st = req.wait()
        if status is not None and st is not None:
            status.source = st.source
            status.tag = st.tag
            status.nbytes = st.nbytes
            status.arrival_vtime = st.arrival_vtime
        return value

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              timeout: float | None = None) -> Status:
        """Block until a matching message is available; return its status."""
        self._check_alive()
        wsrc = self._translate_out(source)
        st = self._engine.probe(self._world_rank, self._context, wsrc, tag,
                                block=True, timeout=timeout)
        assert st is not None
        return self._localize_status(st)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status | None:
        """Non-blocking probe; None when no matching message is queued."""
        self._check_alive()
        wsrc = self._translate_out(source)
        st = self._engine.probe(self._world_rank, self._context, wsrc, tag, block=False)
        return None if st is None else self._localize_status(st)

    # internal entry points used by the collectives module (negative tags)
    def _send_internal(self, obj: Any, dest: int, tag: int, nbytes: int | None = None) -> None:
        self._engine.post_send(self._world_rank, self._translate_out(dest),
                               self._context, tag, obj, nbytes)

    def _recv_internal(self, source: int, tag: int,
                       timeout: float | None = None) -> Any:
        wsrc = self._translate_out(source)
        posted = self._engine.post_recv(self._world_rank, self._context, wsrc, tag)
        return decode_payload(self._engine.wait_message(
            self._world_rank, posted, timeout=timeout).payload)

    def _next_coll_tag(self) -> int:
        self._check_alive()
        tag = _COLL_TAG_BASE - self._coll_counter
        self._coll_counter += 1
        return tag

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    @contextmanager
    def _traced_coll(self, name: str):
        """Record the collective's full extent at this rank as a ``coll``
        trace event, so waiting inside a barrier/bcast renders as part of
        the collective instead of an idle gap in the Gantt chart.  The
        finer-grained send/recv events inside the extent outrank it when
        glyphs overlap, so only the genuine wait portions show as
        collective time.
        """
        tracer = self._engine.tracer
        if tracer is None:
            yield
            return
        t0 = self._engine.vtime(self._world_rank)
        try:
            yield
        finally:
            from .tracing import TraceEvent

            tracer.record(TraceEvent(
                rank=self._world_rank, kind="coll", t0=t0,
                t1=self._engine.vtime(self._world_rank), label=name,
            ))

    def barrier(self, algorithm: str = "dissemination") -> None:
        with self._traced_coll("barrier"):
            return _coll.barrier(self, algorithm)

    def bcast(self, obj: Any, root: int = 0, nbytes: int | None = None,
              algorithm: str = "binomial") -> Any:
        with self._traced_coll("bcast"):
            return _coll.bcast(self, obj, root, nbytes, algorithm)

    def reduce(self, obj: Any, op: Op, root: int = 0,
               algorithm: str = "binomial") -> Any:
        with self._traced_coll("reduce"):
            return _coll.reduce(self, obj, op, root, algorithm)

    def allreduce(self, obj: Any, op: Op, algorithm: str = "binomial") -> Any:
        with self._traced_coll("allreduce"):
            return _coll.allreduce(self, obj, op, algorithm)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        with self._traced_coll("gather"):
            return _coll.gather(self, obj, root)

    def scatter(self, objs: list[Any] | None, root: int = 0) -> Any:
        with self._traced_coll("scatter"):
            return _coll.scatter(self, objs, root)

    def allgather(self, obj: Any, algorithm: str = "ring") -> list[Any]:
        with self._traced_coll("allgather"):
            return _coll.allgather(self, obj, algorithm)

    def alltoall(self, objs: list[Any]) -> list[Any]:
        with self._traced_coll("alltoall"):
            return _coll.alltoall(self, objs)

    def scan(self, obj: Any, op: Op) -> Any:
        with self._traced_coll("scan"):
            return _coll.scan(self, obj, op)

    def exscan(self, obj: Any, op: Op) -> Any:
        with self._traced_coll("exscan"):
            return _coll.exscan(self, obj, op)

    def reduce_scatter_block(self, objs: list[Any], op: Op) -> Any:
        with self._traced_coll("reduce_scatter_block"):
            return _coll.reduce_scatter_block(self, objs, op)

    # ------------------------------------------------------------------
    # communicator construction (collective)
    # ------------------------------------------------------------------
    def _next_creation(self) -> int:
        self._check_alive()
        counter = self._creation_counter
        self._creation_counter += 1
        return counter

    def split(self, color: int, key: int = 0) -> "Comm | None":
        """MPI_Comm_split: partition by ``color``, order by ``(key, rank)``.

        Ranks passing ``color=UNDEFINED`` participate in the collective but
        receive None.
        """
        counter = self._next_creation()
        triples = self.allgather((color, key, self._world_rank))
        if color == UNDEFINED:
            return None
        members = sorted(
            (k, self._group.rank_of(wr), wr)
            for c, k, wr in triples
            if c == color
        )
        new_group = Group(wr for _, _, wr in members)
        context = self._engine.allocate_context(
            ("split", self._context, counter, color)
        )
        return Comm(self._engine, new_group, context, self._world_rank)

    def dup(self) -> "Comm":
        """MPI_Comm_dup: same group, fresh context (collective)."""
        counter = self._next_creation()
        self.barrier()  # the synchronising handshake of a real dup
        context = self._engine.allocate_context(("dup", self._context, counter))
        return Comm(self._engine, self._group, context, self._world_rank)

    def create(self, group: Group) -> "Comm | None":
        """MPI_Comm_create: new communicator over a subgroup (collective on
        the parent); non-members get None."""
        counter = self._next_creation()
        self.barrier()
        for wr in group:
            if wr not in self._group:
                raise MPICommError(
                    f"group member (world rank {wr}) is not in the parent communicator"
                )
        context = self._engine.allocate_context(
            ("create", self._context, counter, group.world_ranks)
        )
        if self._world_rank not in group:
            return None
        return Comm(self._engine, group, context, self._world_rank)

    def free(self) -> None:
        """Mark the communicator unusable (MPI_Comm_free)."""
        self._freed = True

    def __repr__(self) -> str:
        return (f"Comm(ctx={self._context}, rank={self._rank}/{self.size}, "
                f"world_rank={self._world_rank})")
