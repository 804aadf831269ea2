"""Property tests for keyed-state movement across rescales.

``hypothesis`` picks the key set, the old and new channel width and the
set of crashed (masked) channels; the region carries no traffic, so what
the keyed stores hold afterwards is exactly what the rescale's state
movement did.  Judged by the ownership rule the splitter routes by:

* after a completed rescale every key lives on exactly its owner channel
  ``stable_channel_of(key, new_width)``, or is counted in ``keys_lost``
  when that owner is masked (crashed) — and the two together are what
  the region held;
* a rescale forced to roll back (the new channels cannot be placed)
  leaves every channel's dict exactly as it found it.

Tier-1 runs a small example budget; the CI ``delivery-matrix`` job runs
the same properties under ``--hypothesis-profile=elastic-ci`` (registered
in ``tests/conftest.py``).
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro import SystemS
from repro.elastic import RescaleState
from repro.runtime.host import Host
from repro.spl.application import Application
from repro.spl.library import Custom, KeyedCounter, Sink, stable_channel_of
from repro.spl.parallel import parallel

from tests.conftest import example_budget

MAX_WIDTH = 6


BUDGET = example_budget("elastic-ci", tier1=20)

key_sets = st.sets(st.integers(0, 10_000), min_size=1, max_size=48)
widths = st.integers(1, MAX_WIDTH)
mask_sets = st.sets(st.integers(0, MAX_WIDTH - 1), max_size=3)


def _masked(mask, width) -> set:
    """``mask`` folded onto ``range(width)``, leaving at least one channel up."""
    return set(sorted({c % width for c in mask})[: width - 1])


def idle_region_app(width: int) -> Application:
    """An inert source feeding a keyed region: state moves, tuples never do."""
    app = Application("ElasticProperty")
    g = app.graph
    src = g.add_operator(
        "src", Custom, params={"n_inputs": 0, "n_outputs": 1}, partition="feed"
    )
    work = g.add_operator(
        "work",
        KeyedCounter,
        params={"key": "key"},
        parallel=parallel(
            width=width, name="region", partition_by="key", max_width=MAX_WIDTH
        ),
    )
    sink = g.add_operator("sink", Sink, partition="out")
    g.connect(src.oport(0), work.iport(0))
    g.connect(work.oport(0), sink.iport(0))
    return app


def _start(hosts, width, masked, keys):
    """A region at ``width`` with ``masked`` crashed and each of ``keys``
    on its owner channel — or nowhere, when that owner crashed."""
    system = SystemS(hosts=hosts, seed=3)
    job = system.sam.submit_job(system.compile(idle_region_app(width)))
    system.run_for(0.5)
    for channel in sorted(masked):
        job.pe_of_operator(f"work__c{channel}").crash("property")
    system.run_for(0.2)  # failure notifications land: channels masked
    splitter = job.operator_instance("region__split")
    assert splitter.masked_channels == masked
    for key in sorted(keys):
        channel = stable_channel_of(f"k{key}", width)
        if channel not in masked:
            counts = job.operator_instance(f"work__c{channel}").state.keyed("counts")
            counts.put(f"k{key}", key + 1)
    return system, job


def _channel_dicts(job) -> dict:
    plan = job.compiled.parallel_regions["region"]
    out = {}
    for channel, ops in enumerate(plan.channel_ops):
        operator = job.operator_instance(ops[0])
        if operator is not None:
            out[channel] = dict(operator.state.keyed("counts").items())
    return out


@BUDGET
@given(keys=key_sets, width=widths, shift=st.integers(1, MAX_WIDTH - 1),
       mask=mask_sets)
def test_rescale_leaves_every_key_on_its_owner_or_counts_it_lost(keys, width, shift, mask):
    new_width = (width - 1 + shift) % MAX_WIDTH + 1  # any width but the old
    masked = _masked(mask, width)
    still_masked = {c for c in masked if c < new_width}
    system, job = _start(12, width, masked, keys)
    before = {}
    for entries in _channel_dicts(job).values():
        before.update(entries)

    operation = system.elastic.set_channel_width(job, "region", new_width)
    system.run_for(1.0)

    assert operation.state is RescaleState.COMPLETED
    after = _channel_dicts(job)
    assert set(after) == set(range(new_width)) - still_masked
    for channel, entries in after.items():
        for key in entries:
            assert stable_channel_of(key, new_width) == channel
    union = {}
    for entries in after.values():
        assert not set(entries) & set(union)  # exactly one channel per key
        union.update(entries)
    lost = {k: v for k, v in before.items() if stable_channel_of(k, new_width) in still_masked}
    assert operation.migration.keys_lost == len(lost)
    assert {**union, **lost} == before and not set(union) & set(lost)


@BUDGET
@given(keys=key_sets, width=st.integers(1, MAX_WIDTH - 1), grow=st.integers(1, 3),
       mask=mask_sets)
def test_forced_rollback_restores_every_channel_exactly(keys, width, grow, mask):
    masked = _masked(mask, width)
    new_width = min(MAX_WIDTH, width + grow)
    # one PE slot per host and exactly as many hosts as the job has PEs
    # (src, split, merge, sink + one per channel): nothing more can be placed
    hosts = [Host(f"h{i}", capacity=1) for i in range(4 + width)]
    system, job = _start(hosts, width, masked, keys)
    before = _channel_dicts(job)

    operation = system.elastic.set_channel_width(job, "region", new_width)
    system.run_for(1.0)

    assert operation.state is RescaleState.FAILED
    assert "cannot place" in operation.error
    assert job.compiled.parallel_regions["region"].width == width
    assert _channel_dicts(job) == before
    moved = operation.migration.keys_moved
    assert operation.migration.rolled_back == (moved > 0)
