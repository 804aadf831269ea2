"""Property: incremental checkpoints of ``KeyedState`` rebuild the live state.

A ``hypothesis`` state machine drives two keyed states — two channels of
a region — through every way operator code and the runtime touch one:
writes (``put`` / ``update`` / ``setdefault``, and ``count`` over a run
of keys, checked against one ``update`` per key), an in-place change to a
value handed out by ``get``, deletes, checkpoints (``dirty_snapshot``
merged over the previous base exactly as
``CheckpointService.checkpoint_pe`` merges it, then committed: the base
advances and ``mark_clean`` runs), whole snapshots and restores, and the
migration of a partition from one channel to the other
(``extract_partition`` + ``install``).  A plain dict per channel is the
model.

After every step: each state reads its model; the checkpoint a commit
would write now equals ``snapshot()`` of the live state; and no base or
snapshot taken earlier holds a live mutable value, so no later write can
reach into it.  Values are exact scalars, which ``dirty_snapshot``
shares instead of copying, and ``[seq, count]`` lists like ``Dedup``'s,
which it must copy.

Tier-1 runs a small budget; the CI ``delivery-matrix`` job runs this
file under ``--hypothesis-profile=batch-ci``.
"""

from __future__ import annotations

import copy

from hypothesis import settings, strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule

from repro.spl.state import KeyedState

from tests.conftest import example_budget

CHANNELS = 2
_channels = st.integers(0, CHANNELS - 1)
_keys = st.sampled_from(["a", "b", 7])
#: half exact scalars, half mutable ``[seq, count]`` entries
_values = st.one_of(
    st.one_of(
        st.integers(), st.floats(allow_nan=False), st.text(max_size=4), st.booleans(), st.none()
    ),
    st.lists(st.integers(0, 99), min_size=2, max_size=2),
)


def _materialize(keyed, base):
    """The map a checkpoint of ``keyed`` commits over ``base``, merged
    exactly as ``CheckpointService.checkpoint_pe`` merges it."""
    full, changed, dropped = keyed.dirty_snapshot()
    if full or base is None:
        if not full:
            changed = keyed.snapshot()
        return changed
    materialized = dict(base)
    for key in dropped:
        materialized.pop(key, None)
    materialized.update(changed)
    return materialized


def _bumped(old, value):
    """A counter's step: an int goes up by one; anything else becomes ``value``."""
    return old + 1 if type(old) is int else value


class KeyedStateMachine(RuleBasedStateMachine):
    snapshots = Bundle("snapshots")

    def __init__(self):
        super().__init__()
        self.states = [KeyedState("counts") for _ in range(CHANNELS)]
        self.models = [{} for _ in range(CHANNELS)]
        self.bases = [None] * CHANNELS
        #: every base and snapshot taken
        self.taken = []

    def _take(self, detached):
        self.taken.append(detached)
        return detached

    @rule(i=_channels, key=_keys, value=_values)
    def put(self, i, key, value):
        self.states[i].put(key, value)
        self.models[i][key] = copy.deepcopy(value)

    @rule(i=_channels, key=_keys, value=_values)
    def update(self, i, key, value):
        self.states[i].update(key, lambda old: _bumped(old, value))
        model = self.models[i]
        model[key] = _bumped(model.get(key), copy.deepcopy(value))

    @rule(i=_channels, keys=st.lists(_keys, max_size=6))
    def count(self, i, keys):
        """A run of counts (``KeyedCounter``'s batch): one call leaves the
        values, the returned counts and the dirty / dropped bookkeeping
        exactly as one ``update`` per key does, in order."""
        model = self.models[i]
        keys = [key for key in keys if type(model.get(key, 0)) in (int, float)]
        state = self.states[i]
        twin = copy.deepcopy(state)
        expected = [twin.update(key, lambda n: n + 1, 0) for key in keys]
        assert state.count(keys) == expected
        assert list(state._dirty) == list(twin._dirty)
        assert state._dropped == twin._dropped
        for key in keys:
            model[key] = model.get(key, 0) + 1

    @rule(i=_channels, key=_keys, value=_values)
    def setdefault(self, i, key, value):
        self.states[i].setdefault(key, lambda: value)
        self.models[i].setdefault(key, copy.deepcopy(value))

    @rule(i=_channels, key=_keys)
    def get_then_mutate(self, i, key):
        live = self.states[i].get(key)
        if isinstance(live, list):
            live[1] += 1
            self.models[i][key][1] += 1

    @rule(i=_channels, key=_keys)
    def delete(self, i, key):
        assert self.states[i].delete(key) == (key in self.models[i])
        self.models[i].pop(key, None)

    @rule(i=_channels)
    def checkpoint(self, i):
        # a torn epoch captures and commits nothing: the second invariant
        self.bases[i] = self._take(_materialize(self.states[i], self.bases[i]))
        self.states[i].mark_clean()

    @rule(target=snapshots, i=_channels)
    def snapshot(self, i):
        return self._take(self.states[i].snapshot())

    @rule(i=_channels, payload=snapshots)
    def restore(self, i, payload):
        self.states[i].restore(payload)
        self.models[i] = copy.deepcopy(payload)

    @rule(src=_channels, moving=st.sets(_keys))
    def migrate(self, src, moving):
        dst = (src + 1) % CHANNELS
        moved = self.states[src].extract_partition(lambda key: key in moving)
        self.states[dst].install(moved)
        expected = {k: v for k, v in self.models[src].items() if k in moving}
        assert moved == expected
        for key in expected:
            del self.models[src][key]
        self.models[dst].update(expected)

    @invariant()
    def each_state_reads_its_model(self):
        for state, model in zip(self.states, self.models):
            assert state.snapshot() == model

    @invariant()
    def a_checkpoint_now_rebuilds_the_live_state(self):
        for state, base in zip(self.states, self.bases):
            assert _materialize(state, base) == state.snapshot()

    @invariant()
    def nothing_taken_aliases_a_live_value(self):
        live = {id(value) for state in self.states for _, value in state.items()}
        for detached in self.taken:
            assert not any(
                id(value) in live for value in detached.values() if type(value) is list
            )


KeyedStateMachine.TestCase.settings = settings(
    example_budget("batch-ci", tier1=100), stateful_step_count=30
)
TestKeyedStateMachine = KeyedStateMachine.TestCase
