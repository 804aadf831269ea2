"""External data stores the applications interact with.

Three stores back the use cases:

* :class:`CorpusStore` — the on-disk corpus of negative tweets that the
  sentiment application writes and the (simulated) Hadoop job reads
  (Sec. 5.1: "if the tweet has a negative sentiment, it is stored on disk
  for later batch processing");
* :class:`CauseModelStore` — the versioned cause model the Hadoop job
  produces and the streaming application reloads (Sec. 5.1);
* :class:`ProfileDataStore` — the deduplicating profile store C2
  applications write and C3 applications read (Sec. 5.3: "C3 applications
  do not see duplicate profiles because they read directly from the data
  store, which has no duplicate profile entry").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple


@dataclass
class CorpusEntry:
    text: str
    ts: float


class CorpusStore:
    """Append-only store of negative tweets (the batch job's input)."""

    def __init__(self) -> None:
        self._entries: List[CorpusEntry] = []

    def append(self, text: str, ts: float) -> None:
        self._entries.append(CorpusEntry(text=text, ts=ts))

    def entries_since(self, ts: float) -> List[CorpusEntry]:
        return [e for e in self._entries if e.ts >= ts]

    def all_entries(self) -> List[CorpusEntry]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class CauseModel:
    """One version of the cause model: a set of known cause phrases."""

    version: int
    causes: FrozenSet[str]
    computed_at: float = 0.0

    def knows(self, tokens: List[str]) -> Optional[str]:
        """Return the first known cause appearing among ``tokens``."""
        for token in tokens:
            if token in self.causes:
                return token
        return None


class CauseModelStore:
    """Versioned store of the current cause model.

    Operators poll :attr:`version` cheaply on the data path and reload
    when it changed — modelling the paper's "the streaming application
    automatically reloads the output of the Hadoop job as soon as the job
    finishes".
    """

    def __init__(self, initial_causes: Tuple[str, ...] = ("flash", "screen")) -> None:
        self._model = CauseModel(version=1, causes=frozenset(initial_causes))
        self.history: List[CauseModel] = [self._model]

    @property
    def version(self) -> int:
        return self._model.version

    @property
    def current(self) -> CauseModel:
        return self._model

    def publish(self, causes: FrozenSet[str], computed_at: float) -> CauseModel:
        model = CauseModel(
            version=self._model.version + 1,
            causes=causes,
            computed_at=computed_at,
        )
        self._model = model
        self.history.append(model)
        return model


class ProfileDataStore:
    """Deduplicating store of enriched user profiles keyed by profile id."""

    def __init__(self) -> None:
        self._profiles: Dict[str, Dict[str, Any]] = {}
        self.total_writes = 0

    def upsert(self, profile_id: str, attributes: Dict[str, Any]) -> bool:
        """Merge attributes into the profile; True if the id is new."""
        self.total_writes += 1
        existing = self._profiles.get(profile_id)
        if existing is None:
            self._profiles[profile_id] = dict(attributes)
            return True
        existing.update(attributes)
        return False

    def get(self, profile_id: str) -> Optional[Dict[str, Any]]:
        profile = self._profiles.get(profile_id)
        return dict(profile) if profile is not None else None

    def __len__(self) -> int:
        return len(self._profiles)

    def profiles_with_attribute(self, attribute: str) -> List[Tuple[str, Dict[str, Any]]]:
        return [
            (pid, dict(attrs))
            for pid, attrs in self._profiles.items()
            if attribute in attrs
        ]
