"""SAM — Streams Application Manager.

Sec. 2.2 of the paper: SAM receives application submission and cancellation
requests, spawns all PEs of a job according to their placement constraints,
and can stop and restart PEs.  Our extension for orchestration (Sec. 3):
each job records the orchestrator that owns it (``Job.owner_orca``), and
PE and host failures are published on the runtime bus, where every ORCA
service picks out the failures of the jobs it owns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.checkpoint.store import CheckpointStore
from repro.errors import (
    CancellationError,
    PEControlError,
    SubmissionError,
    UnknownJobError,
)
from repro.sim.kernel import Kernel
from repro.spl.compiler import CompiledApplication, PESpec, SPLCompiler
from repro.runtime.events import RuntimeEvents
from repro.runtime.hc import HostController
from repro.runtime.ids import IdRegistry
from repro.runtime.imports import ImportExportRegistry
from repro.runtime.job import Job, JobState
from repro.runtime.pe import PERuntime, PEState
from repro.runtime.scheduler import PlacementScheduler
from repro.runtime.srm import SRM
from repro.runtime.transport import Transport

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.system import SystemConfig

#: seconds between a job's submission and its PEs starting (the fork/exec
#: of the PE processes); every job's first tuple waits this long
PE_SPAWN_DELAY = 0.1


class SAM:
    """Job lifecycle manager."""

    def __init__(
        self,
        kernel: Kernel,
        config: "SystemConfig",
        srm: SRM,
        hcs: Dict[str, HostController],
        transport: Transport,
        import_export: ImportExportRegistry,
        ids: IdRegistry,
        events: RuntimeEvents,
        checkpoint_store: CheckpointStore,
    ) -> None:
        self.kernel = kernel
        self.config = config
        self.srm = srm
        self.hcs = hcs
        self.transport = transport
        self.import_export = import_export
        self.ids = ids
        #: the runtime bus: SAM publishes ``pe_failure`` (PE, reason,
        #: detection_ts), ``host_failure`` (host, detection_ts) and
        #: ``pe_restart`` (PE)
        self.events = events
        # the frozen benchmark appends to this name (bench/workloads.py):
        # it is the bus's own ``pe_restart`` subscriber list, not a copy
        self.pe_restart_observers = events.subscribers["pe_restart"]
        #: committed-epoch snapshots handed to every PE runtime
        self.checkpoint_store = checkpoint_store
        self.scheduler = PlacementScheduler()
        self.jobs: Dict[str, Job] = {}
        #: host -> job id holding it through an exclusive pool
        self.reserved_hosts: Dict[str, str] = {}
        srm.on_host_failure = self._on_host_failure
        for hc in hcs.values():
            hc.on_pe_crash = self._on_local_pe_crash
        #: restart counter for bookkeeping/tests
        self.restarts_issued = 0

    # -- submission -------------------------------------------------------------

    def submit_job(
        self,
        compiled: CompiledApplication,
        params: Optional[Dict[str, str]] = None,
        owner_orca: Optional[str] = None,
    ) -> Job:
        """Create a job, place and spawn its PEs."""
        resolved = compiled.application.resolve_parameters(params)
        if compiled.parallel_regions and compiled.source_application is not None:
            # Applications with parallel regions get a private compilation
            # per job: a live rescale mutates the job's expanded graph and
            # physical plan, which must never leak into sibling jobs
            # (replicas) submitted from the same CompiledApplication.
            compiled = SPLCompiler(
                compiled.strategy, compiled.target_pe_count
            ).compile(compiled.source_application)
        job_id = self.ids.jobs.allocate()
        load = self._pes_per_host()
        try:
            placement = self.scheduler.place(
                compiled,
                hosts=list(self.srm.hosts.values()),
                load=load,
                reserved=self.reserved_hosts,
                job_id=job_id,
            )
        except Exception as exc:
            # Roll back any reservations the scheduler made before failing.
            self._release_reservations(job_id)
            raise SubmissionError(
                f"cannot place application {compiled.name!r}: {exc}"
            ) from exc
        job = Job(
            job_id=job_id,
            compiled=compiled,
            params=resolved,
            submit_time=self.kernel.now,
            owner_orca=owner_orca,
        )
        job.reserved_hosts = list(placement.newly_reserved)
        for pe_spec in compiled.pes:
            self._create_pe(job, pe_spec, placement.assignment[pe_spec.index])
        self.jobs[job_id] = job
        self.kernel.schedule(PE_SPAWN_DELAY, self._spawn_job_pes, job)
        return job

    def _create_pe(self, job: Job, pe_spec: PESpec, host_name: str) -> PERuntime:
        """Make the (unstarted) runtime of one PE of ``job`` on ``host_name``."""
        pe = PERuntime(
            pe_id=self.ids.pes.allocate(),
            spec=pe_spec,
            job=job,
            kernel=self.kernel,
            transport=self.transport,
            publish_export=self.import_export.publish,
            checkpoints=self.checkpoint_store,
        )
        self.hcs[host_name].add_pe(pe)
        job.pes.append(pe)
        return pe

    def _spawn_job_pes(self, job: Job) -> None:
        if job.state is not JobState.SUBMITTED:
            return
        for pe in job.pes:
            if pe.state is PEState.CONSTRUCTED:
                pe.start()
        job.state = JobState.RUNNING
        self.import_export.connect_job(job)

    # -- cancellation -----------------------------------------------------------------

    def cancel_job(self, job_id: str) -> Job:
        job = self.get_job(job_id)
        if job.state in (JobState.CANCELLED, JobState.CANCELLING):
            raise CancellationError(f"job {job_id} already cancelled")
        job.state = JobState.CANCELLING
        self.import_export.disconnect_job(job_id)
        self._discard_pes(job, job.pes)  # the job is gone; nothing rehydrates
        self._release_reservations(job_id)
        job.state = JobState.CANCELLED
        job.cancel_time = self.kernel.now
        return job

    def _discard_pes(self, job: Job, pes: List[PERuntime]) -> None:
        """The one way the control plane forgets PEs of ``job`` for good.

        Stop them (no snapshot: nothing will rehydrate from them), then
        let the wire, SRM (no ghost samples for the ORCA metric poll) and
        the checkpoint store (a chain would only ever rehydrate a ghost)
        forget them.  All stop before any is forgotten, so a shutdown
        hook's last emission cannot reopen a link
        :meth:`Transport.forget_pe` already dropped.
        """
        for pe in pes:
            pe.stop(capture_state=False)
            if pe.host_name and pe.host_name in self.hcs:
                self.hcs[pe.host_name].remove_pe(pe.pe_id)
        for pe in pes:
            self.transport.forget_pe(pe.pe_id)
            self.checkpoint_store.drop_pe(job.job_id, pe.pe_id)
        self.srm.drop_pe_metrics(job.job_id, {pe.pe_id for pe in pes})

    def _release_reservations(self, job_id: str) -> None:
        self.reserved_hosts = {
            host: owner
            for host, owner in self.reserved_hosts.items()
            if owner != job_id
        }

    # -- PE control ----------------------------------------------------------------------

    def restart_pe(self, job_id: str, pe_id: str, rehydrate: bool = False) -> None:
        """Restart a crashed/stopped PE after the configured restart delay.

        ``rehydrate=True`` restores each stateful operator from the PE's
        latest committed epoch (see :meth:`PERuntime.restart`); the
        default is the paper's restart-empty semantics.
        """
        job = self.get_job(job_id)
        pe = job.pe_by_id(pe_id)
        if pe.state is PEState.RUNNING:
            raise PEControlError(f"PE {pe_id} is running; cannot restart")
        self.restarts_issued += 1
        self.kernel.schedule(
            self.config.pe_restart_delay, self._do_restart, job, pe, rehydrate
        )

    def _do_restart(self, job: Job, pe: PERuntime, rehydrate: bool = False) -> None:
        if job.state is not JobState.RUNNING:
            return
        if pe.state is PEState.RUNNING:
            return
        pe.restart(rehydrate=rehydrate)
        self.events.publish("pe_restart", pe)

    def stop_pe(self, job_id: str, pe_id: str) -> None:
        job = self.get_job(job_id)
        pe = job.pe_by_id(pe_id)
        pe.stop()

    # -- dynamic PE set changes (elastic parallel regions) -----------------------

    def add_pes(self, job_id: str, pe_specs: List[PESpec]) -> List[PERuntime]:
        """Place and start additional PEs of a *running* job.

        Used by the elastic controller when a parallel region scales out:
        the job's compiled plan has already been extended with the new PE
        specs; this call gives them hosts and live runtimes.  The new PEs
        start immediately (the rescale protocol has already paid its own
        synchronization cost at the epoch barrier).
        """
        job = self.get_job(job_id)
        if job.state is not JobState.RUNNING:
            raise PEControlError(f"job {job_id} is not running; cannot add PEs")
        load = self._pes_per_host()
        try:
            placement = self.scheduler.place_pes(
                pe_specs,
                job.compiled.application.host_pools,
                hosts=list(self.srm.hosts.values()),
                load=load,
                reserved=self.reserved_hosts,
                job_id=job_id,
            )
        except Exception as exc:
            raise SubmissionError(
                f"cannot place additional PEs of job {job_id}: {exc}"
            ) from exc
        job.reserved_hosts.extend(placement.newly_reserved)
        added = [
            self._create_pe(job, pe_spec, placement.assignment[pe_spec.index])
            for pe_spec in pe_specs
        ]
        # started only once all exist: a PE resolves its routes to live
        # runtimes at start, and a new channel may span several new PEs
        for pe in added:
            pe.start()
        return added

    def remove_pes(self, job_id: str, pe_ids: List[str]) -> None:
        """Stop and discard PEs of a running job (parallel-region scale-in).

        The PEs leave ``job.pes`` and SRM's samples in this one call, so
        downstream consumers (the ORCA metric poll, per-channel aggregation)
        never see ghost channels.
        """
        job = self.get_job(job_id)
        pes = [job.pe_by_id(pe_id) for pe_id in pe_ids]
        # the migration phase already extracted anything worth keeping
        self._discard_pes(job, pes)
        for pe in pes:
            job.pes.remove(pe)

    # -- failure notification path ----------------------------------------------------------

    def _on_local_pe_crash(self, pe: PERuntime, reason: str) -> None:
        """A host controller reports a local PE crash."""
        detection_ts = self.kernel.now
        self.kernel.schedule(
            self.config.failure_notification_delay,
            self._dispatch_pe_failure,
            pe,
            reason,
            detection_ts,
        )

    def _on_host_failure(self, host_name: str, detection_ts: float) -> None:
        """SRM reports a host failure (missed heartbeats)."""
        hc = self.hcs.get(host_name)
        if hc is not None and hc.alive:
            hc.kill()
        for job in self.jobs.values():
            if job.state is not JobState.RUNNING:
                continue
            for pe in job.pes:
                if pe.host_name == host_name and pe.state is PEState.CRASHED:
                    self._dispatch_pe_failure(pe, "host_failure", detection_ts)
        self.events.publish("host_failure", host_name, detection_ts)

    def _dispatch_pe_failure(
        self, pe: PERuntime, reason: str, detection_ts: float
    ) -> None:
        job = pe.job
        if job.state is not JobState.RUNNING:
            return
        # the ORCA service owning the job hears it here (Sec. 3); the
        # notification delay was already applied by the caller
        self.events.publish("pe_failure", pe, reason, detection_ts)
        if job.owner_orca is None and self.config.auto_restart_pes:
            self.restart_pe(job.job_id, pe.pe_id)

    # -- queries ------------------------------------------------------------------------------

    def get_job(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise UnknownJobError(f"unknown job {job_id!r}") from None

    def running_jobs(self) -> List[Job]:
        return [j for j in self.jobs.values() if j.state is JobState.RUNNING]

    def _pes_per_host(self) -> Dict[str, int]:
        load: Dict[str, int] = {}
        for job in self.jobs.values():
            if job.state in (JobState.CANCELLED,):
                continue
            for pe in job.pes:
                if pe.host_name is not None and pe.state is not PEState.STOPPED:
                    load[pe.host_name] = load.get(pe.host_name, 0) + 1
        return load
