"""Job: a running instance of a submitted application.

Each application submitted to SAM is "considered a new job in the system"
(Sec. 2.2).  A job owns PE runtimes created from the compiled application's
PE specs; several jobs may instantiate the same application (replicas).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import UnknownPEError
from repro.spl.compiler import CompiledApplication

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.pe import PERuntime


class JobState(enum.Enum):
    SUBMITTED = "submitted"
    RUNNING = "running"
    CANCELLING = "cancelling"
    CANCELLED = "cancelled"


class PEState(enum.Enum):
    """A PE's lifecycle: only a running PE processes tuples or emits.

    Defined beside :class:`JobState` (and re-exported by
    :mod:`repro.runtime.pe`) so the transport, which the PE module
    imports, can test a destination's state without a call.
    """

    CONSTRUCTED = "constructed"
    RUNNING = "running"
    STOPPED = "stopped"
    CRASHED = "crashed"


class Job:
    """A submitted application instance."""

    def __init__(
        self,
        job_id: str,
        compiled: CompiledApplication,
        params: Dict[str, str],
        submit_time: float,
        owner_orca: Optional[str] = None,
    ) -> None:
        self.job_id = job_id
        self.compiled = compiled
        self.params = params
        self.submit_time = submit_time
        #: id of the ORCA service that submitted the job (None: plain job).
        self.owner_orca = owner_orca
        self.state = JobState.SUBMITTED
        self.pes: List["PERuntime"] = []
        self.cancel_time: Optional[float] = None
        #: hosts reserved for this job via exclusive pools
        self.reserved_hosts: List[str] = []

    @property
    def app_name(self) -> str:
        return self.compiled.name

    @property
    def is_running(self) -> bool:
        return self.state is JobState.RUNNING

    def pe_by_index(self, index: int) -> "PERuntime":
        for pe in self.pes:
            if pe.index == index:
                return pe
        raise UnknownPEError(f"job {self.job_id}: no PE with index {index}")

    def pe_by_id(self, pe_id: str) -> "PERuntime":
        for pe in self.pes:
            if pe.pe_id == pe_id:
                return pe
        raise UnknownPEError(f"job {self.job_id}: no PE with id {pe_id!r}")

    def pe_of_operator(self, op_full_name: str) -> "PERuntime":
        index = self.compiled.pe_of(op_full_name)
        return self.pe_by_index(index)

    def operator_instance(self, op_full_name: str):
        """The live operator instance (or None if its PE is down)."""
        pe = self.pe_of_operator(op_full_name)
        return pe.operators.get(op_full_name)

    def all_operator_names(self) -> List[str]:
        return list(self.compiled.application.graph.operators)

    def __repr__(self) -> str:
        return f"Job({self.job_id}, app={self.app_name}, {self.state.value})"
