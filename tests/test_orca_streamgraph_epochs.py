"""Tests for the in-memory stream graph and epoch assignment."""

import pytest

from repro import ManagedApplication, Orchestrator, OrcaDescriptor, SystemS
from repro.errors import InspectionError
from repro.orca.epochs import FailureEpochTracker, MetricEpochCounter
from repro.runtime.host import Host
from repro.spl.hostpool import HostPool

from repro.apps.figure2 import build_figure2_application


@pytest.fixture
def service():
    """An orchestrator managing the Figure 2 app, with one submitted job.

    Fig. 3's two-host split, by exclusive pools of one host each: the job
    is ``job_1`` with PEs 1 and 2 on ``hostA`` and PE 3 on ``hostB``; a
    second submission (a replica) gets ``hostC`` / ``hostD``.
    """
    app = build_figure2_application()
    app.add_host_pool(HostPool("left", size=1, exclusive=True))
    app.add_host_pool(HostPool("right", size=1, exclusive=True))
    for spec in app.graph.operators.values():
        spec.host_pool = "right" if spec.partition == "pe3" else "left"
    system = SystemS(hosts=[Host(f"host{c}") for c in "ABCD"])
    service = system.submit_orchestrator(
        OrcaDescriptor(
            name="Fig2",
            logic=Orchestrator,
            applications=[ManagedApplication(name="Figure2", application=app)],
        )
    )
    assert service.submit_application("Figure2").job_id == "job_1"
    return service


@pytest.fixture
def graph_with_job(service):
    """The service's stream graph: the Figure 2 app + its one live job."""
    return service.graph


class TestLogicalQueries:
    def test_operator_kind(self, graph_with_job):
        assert graph_with_job.operator_kind("Figure2", "c1.op3") == "Split"

    def test_operators_of_type(self, graph_with_job):
        splits = graph_with_job.operators_of_type("Figure2", "Split")
        assert sorted(splits) == ["c1.op3", "c2.op3"]

    def test_enclosing_composite(self, graph_with_job):
        assert graph_with_job.enclosing_composite("Figure2", "c1.op3") == "c1"
        assert graph_with_job.enclosing_composite("Figure2", "op1") is None

    def test_composite_chain_and_types(self, graph_with_job):
        assert graph_with_job.composite_chain("Figure2", "c2.op6") == ("c2",)
        assert graph_with_job.composite_types_of("Figure2", "c2.op6") == {
            "composite1"
        }

    def test_streams_of(self, graph_with_job):
        pairs = graph_with_job.streams_of("Figure2")
        assert ("op1", "c1.op3") in pairs

    def test_unknown_app_raises(self, graph_with_job):
        with pytest.raises(InspectionError):
            graph_with_job.operator_kind("Ghost", "x")

    def test_unknown_operator_raises(self, graph_with_job):
        with pytest.raises(InspectionError):
            graph_with_job.enclosing_composite("Figure2", "ghost")


class TestPhysicalQueries:
    def test_operators_in_pe(self, graph_with_job):
        """'Which stream operators reside in PE with id x?' (Sec. 4.2)"""
        ops = graph_with_job.operators_in_pe("pe_2")
        assert ops == ["c1.op4", "c1.op6", "c2.op4", "c2.op6"]

    def test_composites_in_pe(self, graph_with_job):
        """'Which composites reside in PE with id x?' (Sec. 4.2)"""
        assert graph_with_job.composites_in_pe("pe_2") == {"c1", "c2"}
        assert graph_with_job.composites_in_pe("pe_1") == {"c1"}

    def test_pe_of_operator(self, graph_with_job):
        """'What is the PE id for operator instance y?' (Sec. 4.2)"""
        assert graph_with_job.pe_of_operator("job_1", "c1.op4") == "pe_2"
        assert graph_with_job.pe_of_operator("job_1", "op1") == "pe_1"

    def test_colocated_operators(self, graph_with_job):
        """'Which other operators are in the same OS process?' (Sec. 3)"""
        assert graph_with_job.colocated_operators("job_1", "c1.op4") == [
            "c1.op6", "c2.op4", "c2.op6",
        ]

    def test_host_and_job_of_pe(self, graph_with_job):
        assert graph_with_job.host_of_pe("pe_3") == "hostB"
        assert graph_with_job.job_of_pe("pe_3") == "job_1"
        assert graph_with_job.pe_index("pe_3") == 3

    def test_pes_of_job(self, graph_with_job):
        assert graph_with_job.pes_of_job("job_1") == ["pe_1", "pe_2", "pe_3"]

    def test_unknown_pe(self, graph_with_job):
        with pytest.raises(InspectionError):
            graph_with_job.operators_in_pe("pe_99")

    def test_replica_jobs_coexist(self, service, graph_with_job):
        """Two jobs of the same app have independent physical views."""
        assert service.submit_application("Figure2").job_id == "job_2"
        assert graph_with_job.pe_of_operator("job_2", "c1.op4") == "pe_5"
        assert graph_with_job.pe_of_operator("job_1", "c1.op4") == "pe_2"
        assert graph_with_job.host_of_pe("pe_5") == "hostC"

    def test_cancelled_job_is_not_managed(self, service, graph_with_job):
        service.cancel_job("job_1")
        with pytest.raises(InspectionError):
            graph_with_job.pes_of_job("job_1")
        with pytest.raises(InspectionError):
            graph_with_job.job_of_pe("pe_1")


class TestEventAttrs:
    def test_operator_attrs_include_containment(self, graph_with_job):
        attrs = graph_with_job.operator_event_attrs("job_1", "c1.op3")
        assert attrs["operator_type"] == "Split"
        assert attrs["composite_type"] == {"composite1"}
        assert attrs["composite_instance"] == {"c1"}
        assert attrs["host"] == "hostA"

    def test_pe_attrs_union_composites(self, graph_with_job):
        attrs = graph_with_job.pe_event_attrs("job_1", "pe_2")
        assert attrs["composite_instance"] == {"c1", "c2"}
        assert attrs["composite_type"] == {"composite1"}


class TestEpochs:
    def test_metric_epoch_increments_per_poll(self):
        counter = MetricEpochCounter()
        assert counter.next() == 1
        assert counter.next() == 2
        assert counter.current == 2

    def test_failure_epoch_groups_same_physical_event(self):
        """Sec. 4.2: epoch from crash reason + detection timestamp."""
        tracker = FailureEpochTracker()
        e1 = tracker.epoch_for("host_failure", 100.0)
        e2 = tracker.epoch_for("host_failure", 100.0)
        assert e1 == e2  # two PEs of the same host failure

    def test_failure_epoch_distinguishes_reasons(self):
        tracker = FailureEpochTracker()
        e1 = tracker.epoch_for("host_failure", 100.0)
        e2 = tracker.epoch_for("injected_fault", 100.0)
        assert e2 == e1 + 1

    def test_failure_epoch_distinguishes_times(self):
        tracker = FailureEpochTracker()
        e1 = tracker.epoch_for("crash", 100.0)
        e2 = tracker.epoch_for("crash", 105.0)
        assert e2 == e1 + 1

    def test_tolerance_absorbs_jitter(self):
        tracker = FailureEpochTracker(tolerance=0.1)
        e1 = tracker.epoch_for("crash", 100.0)
        e2 = tracker.epoch_for("crash", 100.05)
        assert e1 == e2
