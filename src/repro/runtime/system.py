"""SystemS — the facade wiring the whole simulated middleware together.

Constructing a :class:`SystemS` builds the kernel, SRM, per-host HCs, the
transport, the import/export registry, SAM and the failure injector, and
starts the periodic daemon loops.  Orchestrators are submitted through
:meth:`SystemS.submit_orchestrator`, mirroring the paper's Fig. 4 flow
(user submits the ORCA descriptor to SAM, which forks the ORCA service
process).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.checkpoint import CheckpointService, CheckpointStore
from repro.sim.rand import RandomStreams
from repro.runtime.events import RuntimeEvents
from repro.runtime.exec import build_executor
from repro.spl.application import Application
from repro.spl.compiler import CompiledApplication, SPLCompiler
from repro.runtime.failures import FailureInjector
from repro.runtime.hc import HostController
from repro.runtime.host import Host
from repro.runtime.ids import IdRegistry
from repro.runtime.imports import ImportExportRegistry
from repro.runtime.job import Job
from repro.runtime.sam import SAM
from repro.runtime.srm import SRM
from repro.runtime.transport import Transport

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos.engine import ChaosEngine
    from repro.elastic.controller import ElasticController
    from repro.orca.descriptor import OrcaDescriptor
    from repro.orca.service import OrcaService


@dataclass
class SystemConfig:
    """Timing constants and policies of the simulated middleware.

    Defaults follow the paper where it states them: PEs/operators deliver
    updated metric values to SRM every 3 seconds; the ORCA service polls
    SRM every 15 seconds (changeable at runtime); PE failure events are
    pushed immediately, costing one extra RPC.
    """

    #: scheduler backend: "sim" (deterministic discrete-event kernel,
    #: the default and the testing twin) or "wallclock" (real-time
    #: executor over ``time.monotonic()`` — see :mod:`repro.runtime.exec`)
    executor: str = "sim"
    #: wallclock backend only: virtual seconds per real second (> 1
    #: compresses campaign timelines for fast real-time smoke tests;
    #: benchmarks report at 1.0)
    wallclock_time_scale: float = 1.0
    metric_push_interval: float = 3.0
    #: transport batching: values > 1 coalesce same-flow tuples into
    #: :class:`~repro.spl.tuples.TupleBatch` units flushed at this size
    #: (one kernel event and one operator dispatch per batch); 1 keeps
    #: today's one-event-per-tuple semantics and is the default
    batch_max_size: int = 1
    #: sim-time linger before a partially filled batch flushes; 0.0
    #: flushes at the end of the current kernel instant, which still
    #: coalesces bursts emitted within one upstream activation
    batch_linger: float = 0.0
    #: transport delivery guarantee: "best_effort" (the paper's
    #: semantics — lossy faults lose tuples, crashes condemn in-flight
    #: items), "at_least_once" (per-link acks with sim-time retry/backoff
    #: recover wire losses; duplicates possible), or "exactly_once"
    #: (at-least-once plus in-order receivers with (link, seq) duplicate
    #: suppression, watermarks persisted into checkpoint epochs, and
    #: epoch-aligned crash replay) — see :mod:`repro.runtime.delivery`
    delivery: str = "best_effort"
    #: reliable modes: sim-seconds without an ack before the first
    #: retransmit (the default clears ordinary latency spikes without
    #: spurious retransmission but beats sub-second partitions)
    ack_timeout: float = 0.25
    #: reliable modes: multiplier applied to the retry interval after
    #: every unacknowledged attempt
    retry_backoff: float = 2.0
    #: reliable modes: ceiling on the backed-off retry interval
    max_retry_interval: float = 2.0
    pe_restart_delay: float = 1.0
    failure_notification_delay: float = 0.05
    orca_rpc_latency: float = 0.002
    orca_poll_interval: float = 15.0
    auto_restart_pes: bool = False
    #: elastic re-parallelization: drain-poll cadence and give-up horizon
    elastic_drain_poll: float = 0.05
    elastic_drain_timeout: float = 60.0
    #: periodic checkpointing: sim-seconds between background snapshots of
    #: every stateful PE's state store (0 keeps the paper's no-checkpoint
    #: default: only graceful stops produce restorable snapshots)
    checkpoint_interval: float = 0.0
    #: repro.obs: data-plane span tracing (per-tuple emit/transport/
    #: process spans and the kernel event tap); off keeps the hot path
    #: at a single None check — control-plane recording is always on
    trace_enabled: bool = False
    #: trace every Nth newly created tuple (1 = all; deterministic
    #: counter, never randomness)
    trace_sample_every: int = 1
    #: flight-recorder ring capacity (recent spans retained per job)
    flight_capacity: int = 2048
    #: repro.obs.health: evaluation tick of the always-on health plane
    #: (sliding windows, lag watermarks, bottleneck attribution, SLO
    #: burn rates); <= 0 disables it for microbenchmarks
    health_interval: float = 0.5


class SystemS:
    """One simulated System S instance."""

    def __init__(
        self,
        hosts: Union[int, Sequence[Host]] = 4,
        config: Optional[SystemConfig] = None,
        seed: int = 42,
    ) -> None:
        # a private copy: ``system.config`` is the one runtime truth every
        # subsystem below reads, and two systems never share one
        self.config = replace(config) if config is not None else SystemConfig()
        # the one control-plane notification mechanism: built first, handed
        # to every subsystem that publishes; subscription order per topic is
        # construction order below (elastic, chaos, obs), then orchestrators
        self.events = RuntimeEvents()
        # the executor backend (sim kernel or wall-clock) — every
        # component below schedules against the same contract
        self.kernel = build_executor(self.config)
        self.random = RandomStreams(seed)
        self.ids = IdRegistry()
        if isinstance(hosts, int):
            host_list: List[Host] = [Host(f"host{i + 1}") for i in range(hosts)]
        else:
            host_list = list(hosts)
        self.srm = SRM(self.kernel)
        self.transport = Transport(
            self.kernel,
            self.config,
            # seeded stream: probabilistic link faults (chaos campaigns)
            # stay deterministic per system seed
            rng=self.random.stream("transport"),
            # separate seeded stream: ack drop rolls must not perturb
            # the forward-path roll sequence
            ack_rng=self.random.stream("transport_acks"),
        )
        self.import_export = ImportExportRegistry(self.kernel)
        self.hcs: Dict[str, HostController] = {}
        for host in host_list:
            self.srm.register_host(host)
            self.hcs[host.name] = HostController(
                host, self.kernel, self.srm, self.config
            )
        self.checkpoint_store = CheckpointStore()
        self.sam = SAM(
            kernel=self.kernel,
            config=self.config,
            srm=self.srm,
            hcs=self.hcs,
            transport=self.transport,
            import_export=self.import_export,
            ids=self.ids,
            events=self.events,
            checkpoint_store=self.checkpoint_store,
        )
        self.failures = FailureInjector(self.kernel, self.sam)
        from repro.elastic.controller import ElasticController  # late: layer cycle

        self.elastic: "ElasticController" = ElasticController(
            sam=self.sam,
            transport=self.transport,
            kernel=self.kernel,
            config=self.config,
            events=self.events,
            checkpoint_store=self.checkpoint_store,
        )
        self.checkpoints = CheckpointService(
            kernel=self.kernel,
            config=self.config,
            sam=self.sam,
            store=self.checkpoint_store,
            events=self.events,
        )
        self.checkpoints.start()
        from repro.chaos.engine import ChaosEngine  # late: layer cycle

        # The chaos-campaign engine: schedules scenario steps on the
        # kernel, journals injections, and feeds chaos_injected events to
        # every orchestrator (see repro.chaos).
        self.chaos: "ChaosEngine" = ChaosEngine(self)
        from repro.obs.hub import ObsHub  # late: obs observes every layer

        # The observability hub: always constructed (control-plane spans,
        # metrics registry, flight recorder); data-plane tuple tracing is
        # wired only when config.trace_enabled (see repro.obs).
        self.obs = ObsHub(self.kernel, self.events, self.config)
        self.obs.attach(self)
        self.orcas: Dict[str, "OrcaService"] = {}
        self.srm.start()
        for hc in self.hcs.values():
            hc.start()

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.kernel.now

    def run_for(self, duration: float) -> None:
        self.kernel.run_for(duration)

    def run_until(self, time: float) -> None:
        self.kernel.run_until(time)

    # -- job convenience -------------------------------------------------------

    def compile(
        self,
        application: Application,
        strategy: str = "manual",
        target_pe_count: int = 0,
    ) -> CompiledApplication:
        return SPLCompiler(strategy, target_pe_count).compile(application)

    def submit_job(
        self,
        app: Union[Application, CompiledApplication],
        params: Optional[Dict[str, str]] = None,
    ) -> Job:
        """Submit a plain (non-orchestrated) job."""
        compiled = app if isinstance(app, CompiledApplication) else self.compile(app)
        return self.sam.submit_job(compiled, params=params)

    def cancel_job(self, job_id: str) -> Job:
        return self.sam.cancel_job(job_id)

    # -- orchestrator submission --------------------------------------------------

    def submit_orchestrator(
        self,
        descriptor: "OrcaDescriptor",
    ) -> "OrcaService":
        """Fig. 4: submit an orchestrator descriptor to SAM.

        SAM 'forks a new process' for the ORCA service, which loads the
        ORCA logic and invokes its start callback.  Returns the running
        service.
        """
        from repro.orca.service import OrcaService  # late import: layer cycle

        orca_id = self.ids.orcas.allocate()
        service = OrcaService(orca_id=orca_id, system=self, descriptor=descriptor)
        self.orcas[orca_id] = service
        service._boot()
        return service

    def cancel_orchestrator(self, orca_id: str) -> None:
        service = self.orcas.pop(orca_id, None)
        if service is not None:
            service.shutdown()
