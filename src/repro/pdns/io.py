"""Serialization for passive-DNS artifacts.

A deployed collector writes its fpDNS stream to disk and the analysis
runs offline (the authors' datasets were 60-145 GB/day of compressed
records).  This module provides a compact, stream-friendly on-disk
format:

* **fpDNS** — gzip-compressed TSV, one line per entry:
  ``side ts client qname qtype rcode ttl rdata`` with ``-`` for absent
  fields.  Entries stream in either direction without loading the
  whole day.
* **rpDNS / pDNS-DB** — gzip TSV of ``qname qtype rdata first_seen``.

Both formats round-trip exactly and are versioned via a header line.
Every :class:`FormatError` names the offending file (or ``<bytes>``
for in-memory payloads) so a corrupt artifact in a cache directory of
content-hash names is debuggable.  Blank lines *between* records are a
format error — an encoder that emits them is broken, and silently
skipping them would mask truncated-then-appended files; trailing blank
lines at end of file stay tolerated.

The binary columnar sibling of the fpDNS format lives in
:mod:`repro.pdns.columnar` (fpDNS-v2, the artifact-cache format); this
text format remains the import/export format and the equality oracle.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import IO, Iterator, Union

from repro.dns.message import RCode, RRType
from repro.pdns.database import PassiveDnsDatabase
from repro.pdns.records import FpDnsDataset, FpDnsEntry

__all__ = ["save_fpdns", "load_fpdns", "dumps_fpdns", "loads_fpdns",
           "iter_fpdns_entries", "save_database", "load_database",
           "FormatError"]

_FPDNS_HEADER = "#repro-fpdns-v1"
_RPDNS_HEADER = "#repro-rpdns-v1"
_ABSENT = "-"

PathLike = Union[str, Path]


class FormatError(ValueError):
    """Raised when a file does not match the expected on-disk format."""


def _format_entry(side: str, entry: FpDnsEntry) -> str:
    client = _ABSENT if entry.client_id is None else str(entry.client_id)
    ttl = _ABSENT if entry.ttl is None else str(entry.ttl)
    rdata = _ABSENT if entry.rdata is None else entry.rdata
    # repr() is the shortest string that parses back to the same float
    # (exact round-trip) — required for the artifact cache, whose loaded
    # days must be byte-identical to the simulated originals.
    return "\t".join([side, repr(entry.timestamp), client, entry.qname,
                      entry.qtype.value, entry.rcode.name, ttl, rdata])


def _parse_entry(line: str, lineno: int, source: str) -> tuple:
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 8:
        raise FormatError(f"{source}: line {lineno}: expected 8 fields, "
                          f"got {len(fields)}")
    side, ts, client, qname, qtype, rcode, ttl, rdata = fields
    if side not in ("B", "A"):
        raise FormatError(f"{source}: line {lineno}: bad side {side!r}")
    try:
        entry = FpDnsEntry(
            timestamp=float(ts),
            client_id=None if client == _ABSENT else int(client),
            qname=qname,
            qtype=RRType(qtype),
            rcode=RCode[rcode],
            ttl=None if ttl == _ABSENT else int(ttl),
            rdata=None if rdata == _ABSENT else rdata)
    except (ValueError, KeyError) as exc:
        raise FormatError(f"{source}: line {lineno}: {exc}") from exc
    return side, entry


def _write_fpdns(dataset: FpDnsDataset, handle: IO[str]) -> int:
    count = 0
    handle.write(f"{_FPDNS_HEADER}\t{dataset.day}\n")
    for entry in dataset.below:
        handle.write(_format_entry("B", entry) + "\n")
        count += 1
    for entry in dataset.above:
        handle.write(_format_entry("A", entry) + "\n")
        count += 1
    return count


def save_fpdns(dataset: FpDnsDataset, path: PathLike) -> int:
    """Write one fpDNS day to ``path`` (gzip TSV); returns line count."""
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        return _write_fpdns(dataset, handle)


def dumps_fpdns(dataset: FpDnsDataset) -> bytes:
    """One fpDNS day as in-memory gzip-TSV bytes (``save_fpdns`` twin)."""
    buffer = io.BytesIO()
    with gzip.open(buffer, "wt", encoding="utf-8") as handle:
        _write_fpdns(dataset, handle)
    return buffer.getvalue()


def _read_fpdns_header(handle: IO[str], source: str) -> str:
    header = handle.readline().rstrip("\n")
    if not header.startswith(_FPDNS_HEADER):
        raise FormatError(f"{source}: not an fpDNS file: "
                          f"header {header!r}")
    return header


def _iter_entries(handle: IO[str], source: str) -> Iterator[tuple]:
    """Yield ``(side, entry)`` from a handle positioned past the header."""
    pending_blank = 0
    for lineno, line in enumerate(handle, start=2):
        if not line.strip():
            # Tolerated only if nothing follows (trailing newline
            # noise); remembered so a later record makes it an error.
            if not pending_blank:
                pending_blank = lineno
            continue
        if pending_blank:
            raise FormatError(f"{source}: line {pending_blank}: blank "
                              "line between records")
        yield _parse_entry(line, lineno, source)


def iter_fpdns_entries(path: PathLike) -> Iterator[tuple]:
    """Stream ``(side, FpDnsEntry)`` pairs without loading the day."""
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        _read_fpdns_header(handle, str(path))
        yield from _iter_entries(handle, str(path))


def _read_fpdns(handle: IO[str], source: str) -> FpDnsDataset:
    header = _read_fpdns_header(handle, source)
    parts = header.split("\t")
    day = parts[1] if len(parts) > 1 else "unknown"
    dataset = FpDnsDataset(day=day)
    below_append = dataset.below.append
    above_append = dataset.above.append
    for side, entry in _iter_entries(handle, source):
        if side == "B":
            below_append(entry)
        else:
            above_append(entry)
    return dataset


def load_fpdns(path: PathLike) -> FpDnsDataset:
    """Load a full fpDNS day written by :func:`save_fpdns`."""
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return _read_fpdns(handle, str(path))


def loads_fpdns(data: bytes, source: str = "<bytes>") -> FpDnsDataset:
    """Load an fpDNS day from in-memory gzip-TSV bytes."""
    with gzip.open(io.BytesIO(data), "rt", encoding="utf-8") as handle:
        return _read_fpdns(handle, source)


def save_database(database: PassiveDnsDatabase, path: PathLike) -> int:
    """Write the rpDNS rows of a pDNS-DB; returns the row count."""
    count = 0
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        handle.write(_RPDNS_HEADER + "\n")
        for record in database.entries():
            handle.write("\t".join([record.qname, record.qtype.value,
                                    record.rdata, record.first_seen]) + "\n")
            count += 1
    return count


def load_database(path: PathLike) -> PassiveDnsDatabase:
    """Rebuild a pDNS-DB from :func:`save_database` output.

    First-seen days are preserved; ingestion-order metadata is
    reconstructed in sorted-day order.
    """
    source = str(path)
    rows = []
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n")
        if header != _RPDNS_HEADER:
            raise FormatError(f"{source}: not an rpDNS file: "
                              f"header {header!r}")
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 4:
                raise FormatError(f"{source}: line {lineno}: expected "
                                  "4 fields")
            qname, qtype, rdata, first_seen = fields
            try:
                rows.append(((qname, RRType(qtype), rdata), first_seen))
            except ValueError as exc:
                raise FormatError(f"{source}: line {lineno}: "
                                  f"{exc}") from exc
    database = PassiveDnsDatabase()
    rows.sort(key=lambda item: item[1])
    for key, day in rows:
        database.ingest_rrs(day, [key])
    return database
