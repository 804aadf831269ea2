"""Property-based tests on orchestration-level invariants.

* Random dependency DAGs: starting any node submits exactly its
  dependency closure, never before every uptime requirement is met, and
  cycle-creating registrations are always rejected.
* Random export/import property sets: the registry's matching equals the
  subset-semantics oracle.
* Random submit / rescale / crash / restart / cancel schedules over
  replicas of one application: every stream-graph inspection answer equals
  a reference read straight off SAM's jobs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import ManagedApplication, Orchestrator, OrcaDescriptor, SystemConfig, SystemS
from repro.errors import (
    DependencyCycleError,
    InspectionError,
    OrcaPermissionError,
    ReproError,
)
from repro.runtime.imports import ExportEntry, ImportEntry, subscription_matches
from repro.runtime.pe import PEState
from repro.spl.application import Application
from repro.spl.composite import CompositeDefinition
from repro.spl.library import Beacon, CallbackSource, Functor, KeyedCounter, Sink
from repro.spl.parallel import parallel
from tests.conftest import example_budget
from tests.test_orca_events_golden import _analytics, _copy  # an(pre -> core(parse))

# ---------------------------------------------------------------------------
# Dependency DAG properties
# ---------------------------------------------------------------------------


def tiny_app(name: str) -> Application:
    app = Application(name)
    g = app.graph
    src = g.add_operator("src", Beacon, params={"values": {}})
    sink = g.add_operator("sink", Sink, params={"record": False})
    g.connect(src.oport(0), sink.iport(0))
    return app


class _Passive(Orchestrator):
    pass


@st.composite
def dag_specs(draw):
    """(n_nodes, edges) where edges only point from higher to lower index —
    guaranteed acyclic by construction."""
    n = draw(st.integers(min_value=2, max_value=7))
    edges = []
    for dependent in range(1, n):
        for dependency in range(dependent):
            if draw(st.booleans()):
                uptime = draw(st.sampled_from([0.0, 5.0, 10.0]))
                edges.append((dependent, dependency, uptime))
    target = draw(st.integers(min_value=0, max_value=n - 1))
    return n, edges, target


@settings(max_examples=25, deadline=None)
@given(spec=dag_specs())
def test_dependency_closure_and_uptime_invariants(spec):
    n, edges, target = spec
    system = SystemS(hosts=4)
    service = system.submit_orchestrator(
        OrcaDescriptor(
            name="P",
            logic=_Passive,
            applications=[
                ManagedApplication(name=f"n{i}", application=tiny_app(f"n{i}"))
                for i in range(n)
            ],
        )
    )
    deps = service.deps
    for i in range(n):
        deps.create_app_config(f"n{i}", f"n{i}")
    for dependent, dependency, uptime in edges:
        deps.register_dependency(f"n{dependent}", f"n{dependency}", uptime)

    target_id = f"n{target}"
    closure = deps.transitive_dependencies(target_id) | {target_id}
    deps.start(target_id)
    system.run_for(sum(u for _, _, u in edges) + n * 10.0 + 5.0)

    # (1) exactly the closure is running
    for i in range(n):
        config_id = f"n{i}"
        assert deps.is_running(config_id) == (config_id in closure)
    # (2) every uptime requirement was honoured
    for dependent, dependency, uptime in edges:
        dep_id, dcy_id = f"n{dependent}", f"n{dependency}"
        if dep_id in closure:
            t_dependent = deps.submit_time_of(dep_id)
            t_dependency = deps.submit_time_of(dcy_id)
            assert t_dependent is not None and t_dependency is not None
            assert t_dependent + 1e-9 >= t_dependency + uptime


@settings(max_examples=25, deadline=None)
@given(spec=dag_specs())
def test_cycle_rejection_is_complete(spec):
    """After loading any acyclic edge set, every back-edge that would close
    a cycle is rejected, and rejected edges leave the graph unchanged."""
    n, edges, _ = spec
    system = SystemS(hosts=2)
    service = system.submit_orchestrator(
        OrcaDescriptor(
            name="P",
            logic=_Passive,
            applications=[
                ManagedApplication(name=f"n{i}", application=tiny_app(f"n{i}"))
                for i in range(n)
            ],
        )
    )
    deps = service.deps
    for i in range(n):
        deps.create_app_config(f"n{i}", f"n{i}")
    for dependent, dependency, uptime in edges:
        deps.register_dependency(f"n{dependent}", f"n{dependency}", uptime)
    # try to close a cycle along every existing path: dependency -> dependent
    for dependent, dependency, _ in edges:
        before = deps.dependencies_of(f"n{dependency}")
        try:
            deps.register_dependency(f"n{dependency}", f"n{dependent}")
            # allowed only if it did NOT create a cycle, i.e. there was no
            # path dependent ->* dependency ... but the direct edge
            # dependent -> dependency exists, so this must never happen
            raise AssertionError("cycle-closing edge was accepted")
        except DependencyCycleError:
            assert deps.dependencies_of(f"n{dependency}") == before


# ---------------------------------------------------------------------------
# Import/export matching properties
# ---------------------------------------------------------------------------

_props = st.dictionaries(
    st.sampled_from(["category", "site", "lang", "tier"]),
    st.sampled_from(["a", "b", "c"]),
    max_size=3,
)


@settings(max_examples=200, deadline=None)
@given(export_props=_props, subscription=_props)
def test_subscription_matching_is_subset_semantics(export_props, subscription):
    export = ExportEntry(
        job=None, op_name="e", pe_index=1, stream_id=None,
        properties=export_props,
    )
    import_ = ImportEntry(
        job=None, op_name="i", pe_index=1, stream_id=None,
        subscription=subscription,
    )
    expected = bool(subscription) and all(
        export_props.get(k) == v for k, v in subscription.items()
    )
    assert subscription_matches(export, import_) == expected


@settings(max_examples=100, deadline=None)
@given(
    export_id=st.sampled_from(["s1", "s2", None]),
    import_id=st.sampled_from(["s1", "s2"]),
)
def test_stream_id_matching_exact(export_id, import_id):
    export = ExportEntry(
        job=None, op_name="e", pe_index=1, stream_id=export_id, properties={}
    )
    import_ = ImportEntry(
        job=None, op_name="i", pe_index=1, stream_id=import_id, subscription={}
    )
    assert subscription_matches(export, import_) == (export_id == import_id)


# ---------------------------------------------------------------------------
# Inspection equals the runtime
# ---------------------------------------------------------------------------

METRIC_EVENTS = ("operator_metric", "operator_port_metric", "pe_metric")


def reference_view(job):
    """What inspection must answer about ``job``, read off the job itself
    (plain dict / list code: no ``StreamGraph``, no ADL)."""
    graph = job.compiled.application.graph

    def chain(op_name):
        names, current = [], graph.operators[op_name].composite
        while current is not None:
            names.append(current)
            current = graph.composite_instances[current].parent
        return names

    pes = sorted(job.pes, key=lambda pe: pe.spec.index)
    view = {"pes_of_job": [pe.pe_id for pe in pes], "pes": {}, "operators": {}}
    for pe in pes:
        composites = {name for op in pe.spec.operators for name in chain(op)}
        view["pes"][pe.pe_id] = {
            "operators": list(pe.spec.operators),
            "composites": composites,
            "composite_types": {graph.composite_instances[c].kind for c in composites},
            "host": pe.host_name,
            "running": pe.state is PEState.RUNNING,
        }
        for op in pe.spec.operators:
            view["operators"][op] = {
                "pe": pe.pe_id,
                "host": pe.host_name,
                "colocated": [other for other in pe.spec.operators if other != op],
                "kind": graph.operators[op].op_class.kind(),
                "composites": set(chain(op)),
                "composite_types": {graph.composite_instances[c].kind for c in chain(op)},
            }
    assert sorted(view["operators"]) == sorted(graph.operators)  # each in one PE
    return view


def assert_inspection_equals_runtime(service, job):
    """Every per-job / per-PE inspection answer is what the live job says."""
    view, job_id = reference_view(job), job.job_id
    assert service.pes_of_job(job_id) == view["pes_of_job"]
    for pe_id, expected in view["pes"].items():
        assert service.operators_in_pe(pe_id) == expected["operators"]
        assert service.composites_in_pe(pe_id) == expected["composites"]
        assert service.host_of_pe(pe_id) == expected["host"]
        assert service.job_of_pe(pe_id) == job_id
    for op_name, expected in view["operators"].items():
        assert service.pe_of_operator(job_id, op_name) == expected["pe"]
        assert service.colocated_operators(job_id, op_name) == expected["colocated"]
    plans = job.compiled.parallel_regions
    assert service.parallel_regions(job_id) == {r: p.width for r, p in plans.items()}
    for region, plan in plans.items():
        assert service.channel_width(job_id, region) == plan.width
        assert service.region_channels(job_id, region) == [
            list(ops) for ops in plan.channel_ops
        ]


def assert_not_managed(service, job):
    """A job the orchestrator cancelled, or never owned, is not inspectable."""
    for query in (
        lambda: service.pes_of_job(job.job_id),
        lambda: service.pe_of_operator(job.job_id, "src"),
        lambda: service.colocated_operators(job.job_id, "src"),
    ):
        with pytest.raises(InspectionError, match="not managed here"):
            query()
    for pe in job.pes:
        for query in (service.job_of_pe, service.host_of_pe,
                      service.operators_in_pe, service.composites_in_pe):
            with pytest.raises(InspectionError, match="not managed here"):
                query(pe.pe_id)


def tap_metric_events(service):
    """``(event type, scope-attribute map)`` of every metric event the
    service raises from now on, matched by a subscope or not."""
    seen = []
    matching_keys = service.scopes.matching_keys

    def tapped(event_type, attrs):
        if event_type in METRIC_EVENTS:
            seen.append((event_type, dict(attrs)))
        return matching_keys(event_type, attrs)

    service.scopes.matching_keys = tapped
    return seen


def assert_metric_events_equal_runtime(seen, jobs):
    """Every running operator and PE of ``jobs`` raised metric events, and
    every event carries the job / PE / host / composites of the live job."""
    views = {job.job_id: reference_view(job) for job in jobs}
    assert {attrs["job"] for _, attrs in seen} <= set(views)
    for event_type, attrs in seen:
        view = views[attrs["job"]]
        if event_type == "pe_metric":
            expected = view["pes"][attrs["pe"]]
        else:
            expected = view["operators"][attrs["operator_instance"]]
            assert attrs["pe"] == expected["pe"]
            assert attrs["operator_type"] == expected["kind"]
        assert attrs.get("host") == expected["host"]
        assert attrs["composite_instance"] == expected["composites"]
        assert attrs["composite_type"] == expected["composite_types"]
    assert not unmeasured(seen, jobs)


def unmeasured(seen, jobs):
    """``(job, PE or operator)`` of every running PE of ``jobs``, and every
    operator on one, that ``seen`` holds no metric event from."""
    measured = {(a["job"], a["operator_instance"]) for t, a in seen if t == "operator_metric"}
    measured |= {(a["job"], a["pe"]) for t, a in seen if t == "pe_metric"}
    expected = set()
    for job in jobs:
        view = reference_view(job)
        running = {pe_id for pe_id, pe in view["pes"].items() if pe["running"]}
        expected |= {(job.job_id, pe_id) for pe_id in running}
        expected |= {
            (job.job_id, op) for op, placed in view["operators"].items() if placed["pe"] in running
        }
    return expected - measured


def _feed(now, count):
    return [{"key": f"k{count % 7}", "seq": count}]


def two_region_app(name="Replica") -> Application:
    """src -> an(pre -> core(parse)) -> count[keyed region] -> tag[region] -> sink."""
    app = Application(name)
    g = app.graph
    src = g.add_operator(
        "src", CallbackSource, params={"generator": _feed, "period": 0.05}, partition="feed"
    )
    an = g.instantiate(
        CompositeDefinition("Analytics", 1, 1, _analytics), "an", inputs=[src.oport(0)]
    )
    count = g.add_operator(
        "count",
        KeyedCounter,
        params={"key": "key"},
        parallel=parallel(width=2, name="keyed", partition_by="key", max_width=4),
    )
    tag = g.add_operator(
        "tag", Functor, params={"fn": _copy}, parallel=parallel(width=1, name="plain", max_width=3)
    )
    sink = g.add_operator("sink", Sink, params={"record": False}, partition="out")
    g.connect(an.output(0), count.iport(0))
    g.connect(count.oport(0), tag.iport(0))
    g.connect(tag.oport(0), sink.iport(0))
    return app


_replica = st.integers(min_value=0, max_value=2)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("submit")),
        st.tuples(
            st.just("set_channel_width"),
            _replica,
            st.sampled_from(["keyed", "plain"]),
            st.integers(min_value=1, max_value=4),
        ),
        st.tuples(st.just("crash_pe"), _replica, st.integers(min_value=0, max_value=11)),
        st.tuples(st.just("restart_pe"), _replica, st.integers(min_value=0, max_value=11)),
        st.tuples(st.just("cancel_job"), _replica),
        st.tuples(st.just("run_for"), st.sampled_from([0.02, 0.3, 1.0, 3.5])),
    ),
    min_size=1,
    max_size=12,
)


@example_budget("orca-ci", tier1=60)
@given(steps=_steps)
def test_inspection_equals_the_runtime_after_every_step(steps):
    system = SystemS(hosts=6, seed=5, config=SystemConfig(orca_poll_interval=3.0))
    service = system.submit_orchestrator(
        OrcaDescriptor(
            name="R",
            logic=_Passive,
            applications=[ManagedApplication(name="Replica", application=two_region_app())],
        )
    )
    foreign = system.submit_job(two_region_app("Foreign"))
    replicas = [service.submit_application("Replica")]
    system.run_for(1.0)
    subscribers = {topic: len(subs) for topic, subs in system.events.subscribers.items()}
    seen = tap_metric_events(service)

    def pick(items, index):
        return items[index % len(items)]

    for step in steps:
        kind, args = step[0], step[1:]
        try:
            if kind == "submit":
                if len(replicas) < 3:
                    replicas.append(service.submit_application("Replica"))
            elif kind == "run_for":
                system.run_for(args[0])
            elif kind == "cancel_job":
                service.cancel_job(pick(replicas, args[0]).job_id)
            elif kind == "set_channel_width":
                service.set_channel_width(pick(replicas, args[0]).job_id, args[1], args[2])
            elif kind == "crash_pe":
                pick(pick(replicas, args[0]).pes, args[1]).crash("property")
            elif kind == "restart_pe":
                service.restart_pe(pick(pick(replicas, args[0]).pes, args[1]).pe_id)
        except ReproError:
            pass  # a refused step (rescaling twice, a cancelled job, ...) changes nothing
        # SAM is the reference: the service's table holds the very same jobs
        owned = [job for job in system.sam.jobs.values() if job.owner_orca == service.orca_id]
        assert owned == replicas
        for job in replicas:
            if service.job_is_running(job.job_id):
                assert_inspection_equals_runtime(service, job)
            else:
                assert_not_managed(service, job)
        assert_not_managed(service, foreign)
        with pytest.raises(OrcaPermissionError):
            service.job(foreign.job_id)
        with pytest.raises(OrcaPermissionError):
            service.channel_width(foreign.job_id, "keyed")
        assert {t: len(subs) for t, subs in system.events.subscribers.items()} == subscribers
    # whatever the polls during the schedule saw was true when they saw it:
    # settle, then two more polls must describe exactly the jobs still running
    system.run_for(4.0)
    del seen[:]
    system.run_for(7.0)
    assert_metric_events_equal_runtime(
        seen, [job for job in replicas if service.job_is_running(job.job_id)]
    )
    assert not service.handler_errors
