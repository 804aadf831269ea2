"""Multiprocess wall-clock cluster harness.

The first real-runtime deployment shape (the subprocess-cluster step the
ROADMAP names on the way to the scalehub-style deployment): N OS worker
processes, each running a complete wall-clock :class:`~repro.runtime
.system.SystemS` — compiled application, SAM, transport, checkpoint
service, elastic controller — on its own core, reporting measurements
back over a real ``multiprocessing`` queue.

:func:`run_worker_cluster` is the generic harness (any picklable task);
:func:`wallclock_pipeline_worker` is the stock task the committed
real-time benchmark uses: a keyed parallel-region pipeline driven at a
fixed tick, optionally exercising one live rescale and one
crash-plus-rehydrate recovery, with every latency reported in wall-clock
milliseconds measured by ``time.perf_counter`` on a real core.

The ``fork`` start method is preferred (cheap, inherits the imported
library); on platforms without it the harness falls back to the default
start method, which is why the stock task is a module-level function
building its whole system *inside* the child.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List


@dataclass
class WorkerReport:
    """One worker process's measurements, marshalled over the queue."""

    worker_id: int
    #: tuples observed at the sink
    tuples: int
    #: real seconds the measured section took
    wall_seconds: float
    #: kernel callbacks executed (events/s = events / wall_seconds)
    events: int
    #: task-specific extras (rescale_ms, recovery_ms, ...)
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def tuples_per_second(self) -> float:
        """Sink throughput in tuples per real second."""
        return self.tuples / self.wall_seconds if self.wall_seconds > 0 else 0.0


def _cluster_context() -> "multiprocessing.context.BaseContext":
    """Fork when available (cheap, no pickling of the library), else default."""
    # imported on use: ~1.3 MiB of resident memory that a process which
    # never forks a worker cluster (every single-system run) need not pay
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _worker_entry(
    worker_id: int,
    task: Callable[..., WorkerReport],
    kwargs: Dict[str, Any],
    queue: "multiprocessing.queues.Queue",
) -> None:
    """Child-process entry: run the task, ship the report (or the error)."""
    try:
        queue.put(("ok", worker_id, task(worker_id, **kwargs)))
    except BaseException as exc:  # noqa: BLE001 - marshalled to the parent
        queue.put(("error", worker_id, repr(exc)))


def run_worker_cluster(
    task: Callable[..., WorkerReport],
    workers: int = 2,
    timeout: float = 60.0,
    **kwargs: Any,
) -> List[WorkerReport]:
    """Run ``task(worker_id, **kwargs)`` in ``workers`` OS processes.

    Each worker runs the task in a freshly started process and posts a
    :class:`WorkerReport` back over a shared queue.  Raises
    ``RuntimeError`` if any worker errors or the cluster does not finish
    inside ``timeout`` real seconds.

    Args:
        task: Module-level callable (picklable under spawn) returning a
            :class:`WorkerReport`.
        workers: Number of OS processes.
        timeout: Real-seconds budget for the whole cluster.
        **kwargs: Passed verbatim to every task invocation.

    Returns:
        Reports sorted by ``worker_id``.
    """
    ctx = _cluster_context()
    queue = ctx.Queue()
    procs = [
        ctx.Process(
            target=_worker_entry, args=(i, task, kwargs, queue), daemon=True
        )
        for i in range(workers)
    ]
    for proc in procs:
        proc.start()
    deadline = time.monotonic() + timeout
    reports: List[WorkerReport] = []
    errors: List[str] = []
    for _ in range(workers):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        try:
            status, worker_id, payload = queue.get(timeout=remaining)
        except Exception:  # queue.Empty — the cluster timed out
            break
        if status == "ok":
            reports.append(payload)
        else:
            errors.append(f"worker {worker_id}: {payload}")
    for proc in procs:
        proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover - hung worker cleanup
            proc.terminate()
    if errors:
        raise RuntimeError("cluster workers failed: " + "; ".join(errors))
    if len(reports) != workers:
        raise RuntimeError(
            f"cluster timed out: {len(reports)}/{workers} reports "
            f"within {timeout}s"
        )
    return sorted(reports, key=lambda r: r.worker_id)


def wallclock_pipeline_worker(
    worker_id: int,
    duration: float = 2.0,
    period: float = 0.001,
    time_scale: float = 1.0,
    rescale: bool = False,
    crash: bool = False,
    seed: int = 42,
) -> WorkerReport:
    """Stock cluster task: one wall-clock SystemS under real load.

    Builds a keyed parallel-region pipeline (source -> 2-wide keyed
    counters -> sink) on the ``wallclock`` executor, drives it for
    ``duration`` executor seconds at one source tick per ``period``
    seconds, and optionally performs one live 2 -> 4 rescale and one
    channel-PE crash with checkpoint rehydration — timing both in real
    milliseconds via ``perf_counter``.

    Everything is constructed inside the worker process, so the task is
    safe under both ``fork`` and ``spawn`` start methods.
    """
    from repro.runtime.system import SystemConfig, SystemS
    from repro.spl.application import Application
    from repro.spl.library import CallbackSource, KeyedCounter, Sink
    from repro.spl.parallel import parallel

    system = SystemS(
        hosts=4,
        seed=seed + worker_id,
        config=SystemConfig(
            executor="wallclock",
            wallclock_time_scale=time_scale,
            checkpoint_interval=0.25 if crash else 0.0,
            failure_notification_delay=0.001,
        ),
    )

    def _generator(now: float, count: int) -> List[Dict[str, Any]]:
        return [{"seq": count, "key": f"k{count % 8}"}]

    app = Application(f"Realtime{worker_id}")
    g = app.graph
    src = g.add_operator(
        "src",
        CallbackSource,
        params={"generator": _generator, "period": period},
        partition="feed",
    )
    work = g.add_operator(
        "work",
        KeyedCounter,
        params={"key": "key"},
        parallel=parallel(
            width=2, name="region", partition_by="key", max_width=8
        ),
    )
    sink = g.add_operator("sink", Sink, partition="out")
    g.connect(src.oport(0), work.iport(0))
    g.connect(work.oport(0), sink.iport(0))
    job = system.submit_job(app)

    extra: Dict[str, Any] = {}
    wall_start = time.perf_counter()
    system.run_for(duration / 2)

    if rescale:
        done: Dict[str, float] = {}
        t0 = time.perf_counter()
        system.elastic.set_channel_width(
            job,
            "region",
            4,
            on_complete=lambda op: done.setdefault("at", time.perf_counter()),
        )
        while "at" not in done:
            system.run_for(0.05)
        extra["rescale_ms"] = (done["at"] - t0) * 1000.0

    if crash:
        target = job.pe_of_operator(
            job.compiled.parallel_regions["region"].channel_ops[0][0]
        )
        recovered: Dict[str, float] = {}

        def _on_restart(pe: Any) -> None:
            if pe.pe_id == target.pe_id:
                recovered.setdefault("at", time.perf_counter())

        system.sam.pe_restart_observers.append(_on_restart)
        system.run_for(0.3)  # let a checkpoint epoch commit first
        t0 = time.perf_counter()
        target.crash("cluster_benchmark")
        system.failures.restart_pe(job.job_id, target.pe_id, rehydrate=True)
        while "at" not in recovered:
            system.run_for(0.05)
        extra["recovery_ms"] = (recovered["at"] - t0) * 1000.0

    system.run_for(duration / 2)
    wall_seconds = time.perf_counter() - wall_start
    sink_op = job.operator_instance("sink")
    return WorkerReport(
        worker_id=worker_id,
        tuples=len(sink_op.seen),
        wall_seconds=wall_seconds,
        events=system.kernel.events_processed,
        extra=extra,
    )
