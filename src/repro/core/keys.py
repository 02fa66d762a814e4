"""Content-hash key derivation shared by the on-disk formats.

* the fpDNS artifact cache (:mod:`repro.traffic.artifacts`) keys each
  simulated day by the canonical JSON of the simulator configuration
  plus the chronological day history;
* the fpDNS-v2 header (:mod:`repro.pdns.columnar`) records each day's
  *data content* hash.

Both reduce to the same primitive — a SHA-256 over a canonical byte
serialisation — which lives here, at the bottom of the layering DAG,
so every layer can derive keys without import cycles.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

from repro.core.records import FpDnsDataset, FpDnsEntry

__all__ = ["canonical_json_key", "versioned_key", "dataset_content_key"]


def canonical_json_key(payload: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``payload``.

    Canonical means sorted keys and no whitespace, so logically equal
    payloads always hash identically regardless of construction order.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def versioned_key(format_tag: str, payload: Mapping[str, Any]) -> str:
    """The shared cache-key scheme: canonical JSON of ``payload`` with
    a ``format`` version field folded in.

    On-disk caches derive their keys through this, so bumping a format
    tag invalidates exactly that cache's old entries and nothing else.
    """
    if "format" in payload:
        raise ValueError("payload must not carry its own 'format' field")
    return canonical_json_key({"format": format_tag, **payload})


def _entry_bytes(entry: FpDnsEntry) -> bytes:
    """A stable byte serialisation of one fpDNS entry.

    ``repr`` of the underlying tuple is deterministic: floats render
    via the shortest round-trip representation, enum members by their
    fixed names, and strings verbatim.
    """
    return repr(tuple(entry)).encode("utf-8")


def dataset_content_key(dataset: FpDnsDataset) -> str:
    """SHA-256 hex digest of an fpDNS day's *data content*.

    Hashes the day label and every entry of both streams in order, so
    two datasets hash equal exactly when they compare equal — whether
    they were simulated, loaded from an artifact cache, or built by
    hand.  fpDNS-v2 artifacts carry it in their header
    (:class:`~repro.pdns.columnar.ColumnarFpDnsDataset.content_key`).
    """
    digest = hashlib.sha256()
    digest.update(dataset.day.encode("utf-8"))
    for stream_tag, entries in ((b"<", dataset.below), (b">", dataset.above)):
        digest.update(stream_tag)
        for entry in entries:
            digest.update(_entry_bytes(entry))
    return digest.hexdigest()
