"""Reference oracle: what the sink must have seen, from the input alone.

Every workload ends in ``KeyedCounter -> Sink``, so for an input stream
the expected output is fully determined without running the program:
tuple ``i`` (if the filter keeps it) arrives exactly once, after every
earlier tuple of its key, carrying ``count`` = how many kept tuples of
that key came at or before it; the final keyed state is the per-key
total.  A plain-dict pass over the input computes all of it.

The oracle *reports*; it asserts nothing.  ``failed`` (loss, duplication,
per-key reordering) is what the result line counts as failed operations
and is zero on every workload at the seed.  ``count_mismatch`` /
``count_breaks`` / ``state_mismatch`` measure keyed-state divergence,
which the seed does exhibit after a channel crash (the detour channels
are seeded from a checkpoint older than the crash and their state
supersedes the replayed one) — surfaced here so a later correctness
change can claim the number.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


@dataclass
class Verdict:
    """Counts of every way a round's output can deviate from the reference."""

    emitted: int
    expected: int
    delivered: int
    lost: int
    duplicated: int
    out_of_order: int
    #: sink tuples whose ``count`` differs from the reference count
    count_mismatch: int
    #: per-key count discontinuities in arrival order (count != previous + 1)
    count_breaks: int
    #: keys whose final keyed state differs from the reference total
    state_mismatch: int

    @property
    def failed(self) -> int:
        """Tuples not delivered exactly once and in per-key order."""
        return self.lost + self.duplicated + self.out_of_order

    @property
    def failed_share(self) -> float:
        """The issue's ``failed_share``: every deviation over tuples emitted."""
        deviations = (
            self.lost
            + self.duplicated
            + self.out_of_order
            + self.count_mismatch
            + self.state_mismatch
        )
        return deviations / self.emitted if self.emitted else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {**asdict(self), "failed": self.failed, "failed_share": self.failed_share}


def reference(
    keys: Sequence[str], kept: Optional[Sequence[bool]] = None
) -> Tuple[Dict[int, int], Dict[str, int]]:
    """Expected ``count`` per kept input index, and the final per-key totals."""
    totals: Dict[str, int] = {}
    expected: Dict[int, int] = {}
    for i, key in enumerate(keys):
        if kept is not None and not kept[i]:
            continue
        totals[key] = expected[i] = totals.get(key, 0) + 1
    return expected, totals


def check(
    keys: Sequence[str],
    kept: Optional[Sequence[bool]],
    arrivals: Iterable[Tuple[int, str, int]],
    final_state: Mapping[str, int],
) -> Verdict:
    """Judge one round: ``arrivals`` are ``(seq, key, count)`` in sink order."""
    expected, totals = reference(keys, kept)
    seen: Dict[int, int] = {}
    last_seq: Dict[str, int] = {}
    last_count: Dict[str, int] = {}
    delivered = out_of_order = count_mismatch = count_breaks = 0
    for seq, key, count in arrivals:
        delivered += 1
        seen[seq] = seen.get(seq, 0) + 1
        if seen[seq] > 1:
            continue  # a duplicate is counted once, as a duplicate
        if seq < last_seq.get(key, -1):
            out_of_order += 1
        else:
            last_seq[key] = seq
        if count != expected.get(seq):
            count_mismatch += 1
        if count != last_count.get(key, 0) + 1:
            count_breaks += 1
        last_count[key] = count
    lost = sum(1 for seq in expected if seq not in seen)
    duplicated = sum(n - 1 for n in seen.values())
    unexpected = sum(1 for seq in seen if seq not in expected)
    state_mismatch = sum(
        1
        for key in totals.keys() | final_state.keys()
        if totals.get(key, 0) != final_state.get(key, 0)
    )
    return Verdict(
        emitted=len(keys),
        expected=len(expected),
        delivered=delivered,
        lost=lost,
        # a tuple the filter should have dropped is an extra delivery
        duplicated=duplicated + unexpected,
        out_of_order=out_of_order,
        count_mismatch=count_mismatch,
        count_breaks=count_breaks,
        state_mismatch=state_mismatch,
    )


def arrivals_of(tuples: Iterable[Any]) -> List[Tuple[int, str, int]]:
    """``(seq, key, count)`` of each sink ``StreamTuple``, in arrival order."""
    return [(t["seq"], t["key"], t["count"]) for t in tuples]
