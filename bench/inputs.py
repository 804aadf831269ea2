"""Seeded input generation: the program only ever sees the plain dicts.

Two key distributions, because the system's behaviour depends on how
unevenly keys occur: the pipeline workloads draw 1,024 keys uniformly
(small hot state, every key revisited), the region workloads draw
50,000 keys from a Zipf(1.1) law (a few hot keys per channel, a long
tail that keeps the keyed state and every checkpoint growing).
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Dict, List

PIPE_KEYS = 1024
REGION_KEYS = 50_000
ZIPF_EXPONENT = 1.1
#: share of pipeline tuples the ``keep`` filter passes
KEEP_SHARE = 0.9


def pipe_inputs(seed: int, n: int) -> List[Dict[str, Any]]:
    """``n`` pipeline tuples: uniform key, a value the filter tests."""
    rng = random.Random(seed)
    return [
        {"seq": i, "key": f"k{rng.randrange(PIPE_KEYS)}", "v": rng.random()}
        for i in range(n)
    ]


def zipf_keys(seed: int, n: int) -> List[str]:
    """``n`` key draws from Zipf(1.1) over 50,000 keys."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(REGION_KEYS)]
    draws = rng.choices(
        range(REGION_KEYS), cum_weights=list(itertools.accumulate(weights)), k=n
    )
    return [f"k{d}" for d in draws]


def region_inputs(seed: int, n: int) -> List[Dict[str, Any]]:
    """``n`` region tuples over the Zipf key stream."""
    return [{"seq": i, "key": key} for i, key in enumerate(zipf_keys(seed, n))]
