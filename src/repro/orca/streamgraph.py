"""In-memory stream graph maintained by the ORCA service.

Sec. 3 of the paper (third key concept): "an in-memory stream graph
representation that has both logical and physical deployment information
... maintained by the ORCA service and can be queried by the adaptation
logic using an event context (e.g., which other operators are in the same
operating system process as operator x?)".

Two sides, one implementation per query:

* **per application** — built once from the ADL of every application
  listed in the orchestrator descriptor and never refreshed; it serves the
  queries that name an *application* (operator kinds, composite
  containment, streams), and answers for the application as registered;
* **per job** — a *view* over the service's own job table: every query
  that takes a job or PE id, and the event attributes, read the live
  :class:`~repro.runtime.job.Job` (``job.pes``, ``pe.spec.operators``,
  ``job.compiled``).  A job's expanded graph is private to the job (a
  live rescale mutates it), so replicas of one application never share an
  answer, and there is nothing to refresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.errors import InspectionError
from repro.runtime.job import Job, JobState
from repro.runtime.pe import PERuntime
from repro.spl.adl import ADLModel
from repro.spl.composite import CompositeInstance

#: a job in one of these states is no longer managed (nor inspectable)
_GONE = (JobState.CANCELLING, JobState.CANCELLED)


@dataclass
class _AppEntry:
    """Logical view of one managed application, as registered."""

    adl: ADLModel
    #: operator full name -> (chain of enclosing composite instance names,
    #: innermost first; chain of their kinds)
    containment: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = field(
        default_factory=dict
    )


class StreamGraph:
    """Logical + physical view of every application an ORCA manages."""

    def __init__(self, jobs: Mapping[str, Job]) -> None:
        self._apps: Dict[str, _AppEntry] = {}
        #: the owning service's job table itself — read, never copied
        self._jobs = jobs

    # -- per application: registered once from the descriptor's ADL ---------------

    def add_application(self, adl: ADLModel) -> None:
        """Register the logical view of an application."""
        entry = _AppEntry(adl=adl)
        parents = {c.name: c.parent for c in adl.composites}
        kinds = {c.name: c.kind for c in adl.composites}
        for operator in adl.operators:
            chain_names: List[str] = []
            chain_kinds: List[str] = []
            current = operator.composite
            while current is not None:
                if current not in parents:
                    raise InspectionError(
                        f"ADL of {adl.name!r}: operator {operator.name!r} references "
                        f"unknown composite {current!r}"
                    )
                chain_names.append(current)
                chain_kinds.append(kinds[current])
                current = parents[current]
            entry.containment[operator.name] = (tuple(chain_names), tuple(chain_kinds))
        self._apps[adl.name] = entry

    def _require_app(self, app_name: str) -> _AppEntry:
        entry = self._apps.get(app_name)
        if entry is None:
            raise InspectionError(f"application {app_name!r} is not managed here")
        return entry

    def _containment(self, app_name: str, op_name: str) -> Tuple[Tuple[str, ...], ...]:
        """(enclosing composite instance names innermost first, their kinds)."""
        entry = self._require_app(app_name)
        if op_name not in entry.containment:
            raise InspectionError(f"{app_name!r} has no operator {op_name!r}")
        return entry.containment[op_name]

    def operator_kind(self, app_name: str, op_name: str) -> str:
        entry = self._require_app(app_name)
        return entry.adl.operator_by_name(op_name).kind

    def operators_of_type(self, app_name: str, kind: str) -> List[str]:
        entry = self._require_app(app_name)
        return [op.name for op in entry.adl.operators if op.kind == kind]

    def enclosing_composite(self, app_name: str, op_name: str) -> Optional[str]:
        """Immediate enclosing composite instance name (None if top level).

        Answers the paper's "what is the enclosing composite operator
        instance name for operator instance y?" inspection query.
        """
        chain_names, _ = self._containment(app_name, op_name)
        return chain_names[0] if chain_names else None

    def composite_chain(self, app_name: str, op_name: str) -> Tuple[str, ...]:
        """All enclosing composite instance names, innermost first."""
        return self._containment(app_name, op_name)[0]

    def composite_types_of(self, app_name: str, op_name: str) -> FrozenSet[str]:
        """Kinds of all enclosing composites (any depth) — scope matching."""
        return frozenset(self._containment(app_name, op_name)[1])

    def streams_of(self, app_name: str) -> List[Tuple[str, str]]:
        """(src operator, dst operator) pairs of the application."""
        entry = self._require_app(app_name)
        return [(s.src_operator, s.dst_operator) for s in entry.adl.streams]

    # -- per job: read from the live Job -------------------------------------------

    def _job(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None or job.state in _GONE:
            raise InspectionError(f"job {job_id!r} is not managed here")
        return job

    def _find_pe(self, job_id: str, pe_id: str) -> Optional[PERuntime]:
        """The PE, or None: not one of the job's, or the job is not managed."""
        job = self._jobs.get(job_id)
        pes = () if job is None or job.state in _GONE else job.pes
        return next((pe for pe in pes if pe.pe_id == pe_id), None)

    def _pe(self, pe_id: str) -> PERuntime:
        for job_id in self._jobs:
            pe = self._find_pe(job_id, pe_id)
            if pe is not None:
                return pe
        raise InspectionError(f"PE {pe_id!r} is not managed here")

    @staticmethod
    def _pe_of(job: Job, op_name: str) -> PERuntime:
        if op_name not in job.compiled.placement:
            raise InspectionError(f"job {job.job_id!r} has no operator {op_name!r}")
        return job.pe_of_operator(op_name)

    @staticmethod
    def _enclosing(pe: PERuntime) -> List[CompositeInstance]:
        """Every composite instance around an operator of ``pe``, any depth."""
        graph = pe.job.compiled.application.graph
        return [ci for op_name in pe.spec.operators for ci in graph.composite_chain(op_name)]

    def job_of_pe(self, pe_id: str) -> str:
        return self._pe(pe_id).job.job_id

    def pes_of_job(self, job_id: str) -> List[str]:
        pes = sorted(self._job(job_id).pes, key=lambda pe: pe.index)
        return [pe.pe_id for pe in pes]

    def pe_index(self, pe_id: str) -> int:
        return self._pe(pe_id).index

    def host_of_pe(self, pe_id: str) -> Optional[str]:
        return self._pe(pe_id).host_name

    def operators_in_pe(self, pe_id: str) -> List[str]:
        """Which stream operators reside in PE with id x? (Sec. 4.2)"""
        return list(self._pe(pe_id).spec.operators)

    def composites_in_pe(self, pe_id: str) -> Set[str]:
        """Which composites reside in PE with id x? (Sec. 4.2)

        Returns the composite instance names having at least one operator
        inside the PE — note a composite may span several PEs (Fig. 3).
        """
        return {ci.full_name for ci in self._enclosing(self._pe(pe_id))}

    def pe_of_operator(self, job_id: str, op_name: str) -> str:
        """What is the PE id for operator instance y? (Sec. 4.2)"""
        return self._pe_of(self._job(job_id), op_name).pe_id

    def colocated_operators(self, job_id: str, op_name: str) -> List[str]:
        """Which other operators are in the same OS process as operator x?"""
        pe = self._pe_of(self._job(job_id), op_name)
        return [name for name in pe.spec.operators if name != op_name]

    # -- scope attributes only the graph knows (the rest comes from the event table) --

    def operator_event_attrs(self, job_id: str, op_name: str) -> Dict[str, object]:
        """An operator's kind, host and enclosing composites (any depth)."""
        job = self._job(job_id)
        pe = self._pe_of(job, op_name)
        graph = job.compiled.application.graph
        chain = graph.composite_chain(op_name)
        return {
            "operator_type": graph.operators[op_name].kind,
            "composite_instance": {ci.full_name for ci in chain},
            "composite_type": {ci.kind for ci in chain},
            "host": pe.host_name,
        }

    def pe_event_attrs(self, job_id: str, pe_id: str) -> Dict[str, object]:
        """A PE's host and the composites of its operators (None: PE unknown —
        removed, or its job cancelled, since the event was raised)."""
        pe = self._find_pe(job_id, pe_id)
        if pe is None:
            return dict.fromkeys(("host", "composite_instance", "composite_type"))
        enclosing = self._enclosing(pe)
        return {
            "host": pe.host_name,
            "composite_instance": {ci.full_name for ci in enclosing},
            "composite_type": {ci.kind for ci in enclosing},
        }
