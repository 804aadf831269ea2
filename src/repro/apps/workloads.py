"""Synthetic workload generators.

The paper's experiments consume live feeds (Twitter's 10% sample stream,
MySpace, stock tickers).  Offline we generate seeded synthetic equivalents
that preserve the *properties the experiments measure*:

* tweets carry a product, a sentiment, and a root-cause phrase whose
  distribution shifts at a configurable time (Fig. 8's "around epoch 250
  we feed a stream of tweets in which users complain about antenna
  issues");
* stock trades follow per-symbol random walks (Sec. 5.2's windowed
  min/max/average/Bollinger computations need plausible numeric series);
* social profiles arrive with a source, a topic sentiment, and a random
  subset of the attributes (gender/age/location) whose discovery counts
  drive the dynamic composition of Sec. 5.3.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence

#: Vocabulary of non-cause filler words for tweet text.
_FILLER = (
    "today", "really", "again", "why", "just", "phone", "using", "my",
    "the", "this", "update", "new", "still", "ever", "worst", "love",
)

_POSITIVE_WORDS = ("love", "great", "awesome", "amazing", "happy")
_NEGATIVE_WORDS = ("hate", "broken", "terrible", "awful", "annoying")

_FIRST_NAMES = (
    "alex", "sam", "jo", "pat", "max", "kim", "lee", "ray", "dana", "cruz",
)

_LOCATIONS = ("ny", "sf", "chicago", "austin", "boston", "seattle")


@dataclass
class CausePhase:
    """One phase of the tweet workload: from ``start`` on, draw causes
    according to ``cause_weights``."""

    start: float
    cause_weights: Dict[str, float]


@dataclass
class TweetWorkload:
    """Seeded tweet stream with a cause-distribution shift.

    Defaults model the paper's experiment: pre-shift complaints are about
    ``flash`` and ``screen`` (the pre-computed model's known causes);
    post-shift complaints are overwhelmingly about ``antenna``.
    """

    product: str = "iphone"
    rate: int = 5  #: tweets per generation tick
    negative_fraction: float = 0.65
    product_fraction: float = 0.8  #: rest mention other products
    phases: Sequence[CausePhase] = field(
        default_factory=lambda: (
            CausePhase(0.0, {"flash": 0.5, "screen": 0.4, "battery": 0.1}),
            CausePhase(
                250.0,
                {"antenna": 0.75, "flash": 0.1, "screen": 0.1, "battery": 0.05},
            ),
        )
    )
    seed: int = 7

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def _phase_at(self, now: float) -> CausePhase:
        current = self.phases[0]
        for phase in self.phases:
            if phase.start <= now:
                current = phase
        return current

    def _draw_cause(self, now: float) -> str:
        weights = self._phase_at(now).cause_weights
        causes = list(weights)
        return self._rng.choices(causes, weights=[weights[c] for c in causes])[0]

    def make_tweet(self, now: float) -> Dict[str, Any]:
        rng = self._rng
        negative = rng.random() < self.negative_fraction
        on_product = rng.random() < self.product_fraction
        product = self.product if on_product else rng.choice(("android", "tablet"))
        words: List[str] = [product]
        if negative:
            cause = self._draw_cause(now)
            words.append(rng.choice(_NEGATIVE_WORDS))
            words.append(cause)
        else:
            cause = ""
            words.append(rng.choice(_POSITIVE_WORDS))
        words.extend(rng.choice(_FILLER) for _ in range(rng.randint(3, 6)))
        rng.shuffle(words)
        return {
            "text": " ".join(words),
            "user": rng.choice(_FIRST_NAMES) + str(rng.randint(1, 999)),
            "product": product,
            "true_sentiment": "neg" if negative else "pos",
            "true_cause": cause,
            "ts": now,
        }

    def generator(self) -> Callable[[float, int], List[Dict[str, Any]]]:
        """A tick generator for :class:`~repro.spl.library.CallbackSource`."""

        def generate(now: float, count: int) -> List[Dict[str, Any]]:
            return [self.make_tweet(now) for _ in range(self.rate)]

        return generate


@dataclass
class TradeWorkload:
    """Per-symbol random-walk stock trades."""

    symbols: Sequence[str] = ("IBM", "MSFT", "GOOG")
    rate: int = 3  #: trades per tick (one per random symbol)
    start_price: float = 100.0
    volatility: float = 0.5
    seed: int = 11

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._prices: Dict[str, float] = {s: self.start_price for s in self.symbols}

    def make_trade(self, now: float) -> Dict[str, Any]:
        rng = self._rng
        symbol = rng.choice(list(self.symbols))
        price = self._prices[symbol] + rng.gauss(0.0, self.volatility)
        price = max(price, 1.0)
        self._prices[symbol] = price
        return {
            "symbol": symbol,
            "price": round(price, 4),
            "volume": rng.randint(1, 500),
            "ts": now,
        }

    def generator(self) -> Callable[[float, int], List[Dict[str, Any]]]:
        def generate(now: float, count: int) -> List[Dict[str, Any]]:
            return [self.make_trade(now) for _ in range(self.rate)]

        return generate


@dataclass
class ProfileWorkload:
    """Social-media profiles with partially-known attributes.

    ``source`` tags the originating site (the two C1 applications use
    different sources); each profile carries a random subset of the
    segmentation attributes, plus a sentiment on the configured topic —
    C1 applications forward only negative-sentiment profiles.
    """

    source: str = "twitter"
    rate: int = 10
    negative_fraction: float = 0.7
    attribute_probabilities: Dict[str, float] = field(
        default_factory=lambda: {"gender": 0.6, "age": 0.45, "location": 0.3}
    )
    seed: int = 23

    def __post_init__(self) -> None:
        # crc32, not hash(): str hashing is salted per process, and a
        # process-dependent seed would make every committed artifact
        # downstream of this workload nondeterministic across runs
        self._rng = random.Random(
            self.seed + zlib.crc32(self.source.encode("utf8")) % 1000
        )
        self._next_id = 0

    def make_profile(self, now: float) -> Dict[str, Any]:
        rng = self._rng
        self._next_id += 1
        attrs: Dict[str, Any] = {}
        if rng.random() < self.attribute_probabilities.get("gender", 0):
            attrs["gender"] = rng.choice(("f", "m"))
        if rng.random() < self.attribute_probabilities.get("age", 0):
            attrs["age"] = rng.randint(16, 75)
        if rng.random() < self.attribute_probabilities.get("location", 0):
            attrs["location"] = rng.choice(_LOCATIONS)
        return {
            "profile_id": f"{self.source}-{self._next_id}",
            "source": self.source,
            "sentiment": "neg" if rng.random() < self.negative_fraction else "pos",
            "attributes": attrs,
            "ts": now,
        }

    def generator(self) -> Callable[[float, int], List[Dict[str, Any]]]:
        def generate(now: float, count: int) -> List[Dict[str, Any]]:
            return [self.make_profile(now) for _ in range(self.rate)]

        return generate


@dataclass
class ChaosFeed:
    """Keyed workload with live rate and key-skew controls.

    The feed of the chaos subsystem (:mod:`repro.chaos`): a seeded keyed
    stream whose *rate* and *key distribution* can be perturbed while the
    job runs — ``RateSurge`` multiplies the per-tick output and
    ``KeySkewShift`` concentrates a fraction of the traffic on a hot key
    set.  Every tuple carries a globally contiguous ``seq``, which is what
    resilience scorecards use for exact tuple-loss and duplicate
    accounting: the feed owns the counter (not the operator instance), so
    a crashed-and-restarted source PE continues the sequence instead of
    restarting it.

    Attributes:
        n_keys: Size of the key universe (``k0 .. k{n-1}``).
        base_rate: Tuples per generation tick at rate factor 1.0.
        seed: Seed of the feed's private random stream.
        key_prefix: Prefix of generated key names.
    """

    n_keys: int = 16
    base_rate: int = 1
    seed: int = 17
    key_prefix: str = "k"

    def __post_init__(self) -> None:
        """Initialize the seeded stream and the live control knobs."""
        self._rng = random.Random(self.seed)
        self._seq = 0
        self.rate_factor = 1.0
        self.hot_fraction = 0.0
        self.hot_keys: Sequence[str] = ()
        #: bumped on every skew change, so observers can tell apart
        #: value-identical shifts
        self.skew_token = 0
        #: (token, hot_fraction, hot_keys) entries of windowed shifts;
        #: the *top* entry is in force, so overlapping windows (nested
        #: or staggered) unwind once all are popped
        self._skew_stack: list = []
        self._next_push_token = 1

    @property
    def emitted(self) -> int:
        """Tuples generated so far (the expected-count side of scorecards)."""
        return self._seq

    # -- live controls (driven by chaos perturbations) ----------------------

    def set_rate_factor(self, factor: float) -> float:
        """Scale the per-tick output; returns the previous factor."""
        previous = self.rate_factor
        self.rate_factor = max(0.0, float(factor))
        return previous

    def _apply_skew(self, hot_fraction: float, hot_keys: Sequence[str]) -> None:
        """Install one skew (resolving the default hot-key set)."""
        self.hot_fraction = min(1.0, max(0.0, float(hot_fraction)))
        if self.hot_fraction > 0.0:
            self.hot_keys = tuple(hot_keys) or tuple(
                f"{self.key_prefix}{i}" for i in range(min(2, self.n_keys))
            )
        else:
            self.hot_keys = tuple(hot_keys)
        self.skew_token += 1

    def push_skew(self, hot_fraction: float, hot_keys: Sequence[str] = ()) -> int:
        """Apply a *windowed* skew shift; returns a token for :meth:`pop_skew`.

        Pushed shifts form a stack: the newest entry is in force, and
        popping any entry (in whatever order the windows expire —
        nested, staggered, or value-identical) re-applies the newest
        surviving one, falling back to uniform when none remain.  This
        is what chaos ``KeySkewShift`` windows use.
        """
        token = self._next_push_token
        self._next_push_token += 1
        self._apply_skew(hot_fraction, hot_keys)
        self._skew_stack.append((token, self.hot_fraction, self.hot_keys))
        return token

    def pop_skew(self, token: int) -> None:
        """Retire one pushed shift; the newest surviving shift (or the
        uniform distribution) takes over.  Unknown tokens are ignored."""
        before = len(self._skew_stack)
        self._skew_stack = [e for e in self._skew_stack if e[0] != token]
        if len(self._skew_stack) == before:
            return
        if self._skew_stack:
            _, fraction, keys = self._skew_stack[-1]
            self._apply_skew(fraction, keys)
        else:
            self._apply_skew(0.0, ())

    # -- generation ---------------------------------------------------------

    def _draw_key(self) -> str:
        rng = self._rng
        if self.hot_fraction > 0.0 and self.hot_keys and (
            rng.random() < self.hot_fraction
        ):
            return rng.choice(list(self.hot_keys))
        return f"{self.key_prefix}{rng.randrange(self.n_keys)}"

    def make_item(self, now: float) -> Dict[str, Any]:
        """Generate one keyed tuple with the next global sequence number."""
        item = {"key": self._draw_key(), "seq": self._seq, "ts": now}
        self._seq += 1
        return item

    def generator(self) -> Callable[[float, int], List[Dict[str, Any]]]:
        """A tick generator for :class:`~repro.spl.library.CallbackSource`."""

        def generate(now: float, count: int) -> List[Dict[str, Any]]:
            n = max(0, int(round(self.base_rate * self.rate_factor)))
            return [self.make_item(now) for _ in range(n)]

        return generate
