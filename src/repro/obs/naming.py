"""Canonical (namespaced) metric names: the one translation.

The runtime's metric vocabulary is the paper's: PEs and operators push
camelCase names (``nTuplesProcessed``, ``queueSize``) that look nothing
like the ``repro_*`` Prometheus style the registry exports.  This module
is the single place that drift is resolved:

* :data:`CANONICAL_BY_LEGACY` maps every built-in paper name to its
  namespaced canonical form (``stateBytes`` -> ``repro_pe_state_bytes``);
* :func:`canonical_metric_name` translates *any* name (catalog hit or
  sanitized fallback).

SRM calls it once per sample key, when it first stores the key and
creates the key's exported gauge.  SRM storage, SRM queries and
orchestrator scope filters keep the paper's names.
"""

from __future__ import annotations

import re

#: legacy (stored) name -> canonical namespaced name.  The catalog covers
#: every built-in PE/operator metric and the gauges
#: :meth:`~repro.runtime.pe.PERuntime.update_queue_metrics` pushes.
CANONICAL_BY_LEGACY = {
    # operator / PE built-ins (repro.spl.metrics)
    "nTuplesProcessed": "repro_tuples_processed_total",
    "nTuplesSubmitted": "repro_tuples_submitted_total",
    "nTupleBytesProcessed": "repro_tuple_bytes_processed_total",
    "nPunctsProcessed": "repro_puncts_processed_total",
    "nFinalPunctsProcessed": "repro_final_puncts_processed_total",
    "nRestarts": "repro_pe_restarts_total",
    # collection-time gauges (repro.runtime.pe)
    "queueSize": "repro_queue_depth",
    "stateBytes": "repro_pe_state_bytes",
    "nStateKeys": "repro_pe_state_keys",
    "checkpointLag": "repro_pe_checkpoint_lag_seconds",
}

_CAMEL_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")
_INVALID_RE = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Turn an arbitrary metric name into a Prometheus-safe identifier.

    camelCase humps become underscores, any character outside the
    Prometheus name alphabet becomes ``_``, and a leading digit is
    prefixed.  Deterministic; used for custom metric names the catalog
    does not know.

    Args:
        name: The raw metric name.

    Returns:
        A name matching ``[a-zA-Z_:][a-zA-Z0-9_:]*``.
    """
    snake = _CAMEL_RE.sub("_", name).lower()
    cleaned = _INVALID_RE.sub("_", snake)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def canonical_metric_name(name: str) -> str:
    """The namespaced export name of one metric.

    Catalog names translate exactly; unknown (custom) names are
    sanitized and prefixed so every exported series lives under the
    ``repro_`` namespace.

    Args:
        name: A stored (legacy or custom) metric name.

    Returns:
        The canonical ``repro_*`` name.
    """
    hit = CANONICAL_BY_LEGACY.get(name)
    if hit is not None:
        return hit
    sanitized = sanitize_metric_name(name)
    if sanitized.startswith("repro_"):
        return sanitized
    return f"repro_{sanitized}"

