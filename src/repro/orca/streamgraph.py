"""In-memory stream graph maintained by the ORCA service.

Sec. 3 of the paper (third key concept): "an in-memory stream graph
representation that has both logical and physical deployment information
... maintained by the ORCA service and can be queried by the adaptation
logic using an event context (e.g., which other operators are in the same
operating system process as operator x?)".

The *logical* side (operators, kinds, composite containment, streams) is
built from the ADL of every application listed in the orchestrator
descriptor.  The *physical* side (PE ids, hosts) is registered per job at
submission time — several jobs may run the same application (replicas), so
physical queries are keyed by job or by globally-unique PE id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import InspectionError
from repro.spl.adl import ADLModel


@dataclass
class _AppEntry:
    """Logical view of one managed application."""

    adl: ADLModel
    #: operator full name -> (chain of enclosing composite instance names,
    #: innermost first; chain of their kinds)
    containment: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = field(
        default_factory=dict
    )


@dataclass
class _JobEntry:
    """Physical view of one running job of a managed application."""

    job_id: str
    app_name: str
    pe_id_by_index: Dict[int, str] = field(default_factory=dict)
    host_by_pe_id: Dict[str, str] = field(default_factory=dict)
    index_by_pe_id: Dict[str, int] = field(default_factory=dict)


class StreamGraph:
    """Logical + physical view of every application an ORCA manages."""

    def __init__(self) -> None:
        self._apps: Dict[str, _AppEntry] = {}
        self._jobs: Dict[str, _JobEntry] = {}
        self._job_of_pe: Dict[str, str] = {}

    # -- logical registration ---------------------------------------------------

    def add_application(self, adl: ADLModel) -> None:
        """Register (or refresh) the logical view of an application."""
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

    def has_application(self, app_name: str) -> bool:
        return app_name in self._apps

    def applications(self) -> List[str]:
        return list(self._apps)

    # -- physical registration -----------------------------------------------------

    def register_job(
        self,
        job_id: str,
        app_name: str,
        pe_assignment: Dict[int, Tuple[str, Optional[str]]],
    ) -> None:
        """Record a job's physical deployment: PE index -> (pe_id, host)."""
        self._require_app(app_name)
        entry = _JobEntry(job_id=job_id, app_name=app_name)
        for index, (pe_id, host) in pe_assignment.items():
            entry.pe_id_by_index[index] = pe_id
            entry.index_by_pe_id[pe_id] = index
            if host is not None:
                entry.host_by_pe_id[pe_id] = host
            self._job_of_pe[pe_id] = job_id
        self._jobs[job_id] = entry

    def unregister_job(self, job_id: str) -> None:
        entry = self._jobs.pop(job_id, None)
        if entry is not None:
            for pe_id in entry.index_by_pe_id:
                self._job_of_pe.pop(pe_id, None)

    # -- logical queries -----------------------------------------------------------

    def _require_app(self, app_name: str) -> _AppEntry:
        entry = self._apps.get(app_name)
        if entry is None:
            raise InspectionError(f"application {app_name!r} is not managed here")
        return entry

    def _require_job(self, job_id: str) -> _JobEntry:
        entry = self._jobs.get(job_id)
        if entry is None:
            raise InspectionError(f"job {job_id!r} is not managed here")
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

    # -- physical queries -------------------------------------------------------------

    def job_of_pe(self, pe_id: str) -> str:
        job_id = self._job_of_pe.get(pe_id)
        if job_id is None:
            raise InspectionError(f"PE {pe_id!r} is not managed here")
        return job_id

    def pes_of_job(self, job_id: str) -> List[str]:
        entry = self._require_job(job_id)
        return [entry.pe_id_by_index[i] for i in sorted(entry.pe_id_by_index)]

    def pe_index(self, pe_id: str) -> int:
        job_id = self.job_of_pe(pe_id)
        return self._jobs[job_id].index_by_pe_id[pe_id]

    def host_of_pe(self, pe_id: str) -> Optional[str]:
        job_id = self.job_of_pe(pe_id)
        return self._jobs[job_id].host_by_pe_id.get(pe_id)

    def operators_in_pe(self, pe_id: str) -> List[str]:
        """Which stream operators reside in PE with id x? (Sec. 4.2)"""
        job_id = self.job_of_pe(pe_id)
        job = self._jobs[job_id]
        app = self._require_app(job.app_name)
        index = job.index_by_pe_id[pe_id]
        for pe in app.adl.pes:
            if pe.index == index:
                return list(pe.operators)
        raise InspectionError(f"ADL of {job.app_name!r} lacks PE index {index}")

    def composites_in_pe(self, pe_id: str) -> Set[str]:
        """Which composites reside in PE with id x? (Sec. 4.2)

        Returns the composite instance names having at least one operator
        inside the PE — note a composite may span several PEs (Fig. 3).
        """
        job_id = self.job_of_pe(pe_id)
        job = self._jobs[job_id]
        app = self._require_app(job.app_name)
        result: Set[str] = set()
        for op_name in self.operators_in_pe(pe_id):
            chain_names, _ = app.containment[op_name]
            result.update(chain_names)
        return result

    def pe_of_operator(self, job_id: str, op_name: str) -> str:
        """What is the PE id for operator instance y? (Sec. 4.2)"""
        job = self._require_job(job_id)
        app = self._require_app(job.app_name)
        index = app.adl.operator_by_name(op_name).pe_index
        pe_id = job.pe_id_by_index.get(index)
        if pe_id is None:
            raise InspectionError(
                f"job {job_id!r}: no physical PE for index {index} ({op_name!r})"
            )
        return pe_id

    def colocated_operators(self, job_id: str, op_name: str) -> List[str]:
        """Which other operators are in the same OS process as operator x?"""
        pe_id = self.pe_of_operator(job_id, op_name)
        return [name for name in self.operators_in_pe(pe_id) if name != op_name]

    # -- scope attributes only the graph knows (the rest comes from the event table) --

    def operator_event_attrs(
        self, app_name: str, op_name: str, job_id: str, pe_id: str
    ) -> Dict[str, object]:
        """An operator's kind, host and enclosing composites (any depth)."""
        chain_names, chain_kinds = self._containment(app_name, op_name)
        return {
            "operator_type": self.operator_kind(app_name, op_name),
            "composite_instance": set(chain_names),
            "composite_type": set(chain_kinds),
            "host": self._jobs.get(job_id, _JobEntry("", "")).host_by_pe_id.get(pe_id),
        }

    def pe_event_attrs(self, app_name: str, job_id: str, pe_id: str) -> Dict[str, object]:
        """A PE's host and the composites of its operators (None: PE unknown)."""
        job = self._jobs.get(job_id)
        if job is None or pe_id not in job.index_by_pe_id:
            return dict.fromkeys(("host", "composite_instance", "composite_type"))
        app = self._require_app(app_name)
        chains = [app.containment[op_name] for op_name in self.operators_in_pe(pe_id)]
        return {
            "host": job.host_by_pe_id.get(pe_id),
            "composite_instance": {name for names, _ in chains for name in names},
            "composite_type": {kind for _, kinds in chains for kind in kinds},
        }
