"""Traced entry point: run the ``repro`` CLI with layer spans installed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/layers.py --trace-out run.trace.json -- all --profile small
    python perfbench/layers.py --trace-out serve.trace.json -- serve --port 0

Before the CLI runs, :func:`install` wraps the public entry points of
``repro.traffic``, ``repro.core``, ``repro.pdns``, ``repro.analysis``,
``repro.impact``, ``repro.experiments`` and ``repro.service`` so every
call records a span (see :mod:`spans`).  A wrapped function is replaced
both in its defining module and wherever another ``repro`` module
imported it by name (``repro.experiments.context.digest_of``); methods
are replaced on their class.  Nothing in ``src`` changes.  When the CLI
returns (for ``serve``: after SIGTERM, which stops the daemon the way
Ctrl-C does) the spans are written as Chrome trace-event JSON, with the
segmented pDNS stores' prefilter counters under ``otherData``.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import os
import signal
import sys
from typing import Callable, Dict, List, Mapping, Optional, Sequence

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import CountFn, Tracer  # noqa: E402

__all__ = ["install", "main"]

#: Modules whose ``__all__`` functions are each one layer span.
MODULE_LAYERS = {
    "repro.analysis.dedup": "analysis.dedup",
    "repro.analysis.tail": "analysis.tail",
    "repro.analysis.volume": "analysis.volume",
    "repro.impact.cache_pressure": "impact.cache_pressure",
    "repro.impact.dnssec_cost": "impact.dnssec",
    "repro.impact.pdns_storage": "impact.pdns_storage",
}

#: Public query methods of both pDNS backends.
PDNS_QUERIES = ("first_seen", "novel_keys", "entries_for_name",
                "entries_for_rdata", "names_under_zone", "iter_rr_items",
                "iter_rr_keys", "iter_entries", "rr_keys", "entries",
                "new_records_per_day", "ingested_days", "storage_bytes",
                "wildcard_aggregated_size", "split_by_disposable")
PDNS_INGESTS = ("ingest_day", "ingest_digest", "ingest_rrs")


def _events(args: tuple, kwargs: dict, result: object) -> Dict[str, float]:
    return {"events": float(result.below_volume())}  # type: ignore[attr-defined]


def _rows(args: tuple, kwargs: dict, result: object) -> Dict[str, float]:
    return {"rows": float(result.total_records_seen)}  # type: ignore[attr-defined]


def _artifact_counter(cache_attr: str) -> CountFn:
    """Hit flag and on-disk bytes of one artifact load/store."""
    def count(args: tuple, kwargs: dict, result: object) -> Dict[str, float]:
        cache, key = args[0], args[1]
        path = cache.path_for(key)
        size = os.path.getsize(path) if os.path.exists(path) else 0
        if cache_attr == "load":
            return {"hit": float(result is not None),
                    "bytes": float(size if result is not None else 0)}
        return {"bytes": float(size)}
    return count


class _Installer:
    """Replaces callables by traced wrappers, tracking every binding."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.stores: List[object] = []
        self._replaced: Dict[int, Callable] = {}

    def function(self, module_name: str, attr: str, name: str,
                 count: Optional[CountFn] = None) -> None:
        original = getattr(importlib.import_module(module_name), attr)
        self._replaced[id(original)] = self.tracer.wrap(name, original,
                                                        count)

    def method(self, cls: type, attr: str, name: str,
               count: Optional[CountFn] = None) -> None:
        original = cls.__dict__.get(attr)
        if original is None or getattr(original, "__wrapped_by_perfbench__",
                                       False):
            return
        setattr(cls, attr, self.tracer.wrap(name, original, count))

    def rebind(self) -> None:
        """Point every ``repro`` module global at the wrappers."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._replaced.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(module, attr, wrapper)


def install(tracer: Tracer) -> List[object]:
    """Wrap the layer entry points; returns the list the segmented pDNS
    stores opened from now on are appended to."""
    from repro.core.classifier import LadTreeClassifier
    from repro.core.ranking import DisposableZoneRanker
    from repro.experiments import cli
    from repro.pdns.database import PassiveDnsDatabase
    from repro.pdns.store import SegmentedPdnsStore
    from repro.service.batching import MicroBatcher
    from repro.service.engine import ClassificationEngine
    from repro.traffic.artifacts import FpDnsArtifactCache
    from repro.traffic.simulate import TraceSimulator
    importlib.import_module("repro.service.app")

    installer = _Installer(tracer)
    installer.method(TraceSimulator, "run_day", "traffic.simulate", _events)
    installer.function("repro.core.interning", "digest_of", "core.digest")
    installer.function("repro.core.hitrate", "hit_rates_from_digest",
                       "core.hitrate")
    installer.function("repro.core.ranking", "build_tree_from_digest",
                       "core.tree")
    installer.method(DisposableZoneRanker, "run_digest", "core.mine")
    installer.method(LadTreeClassifier, "fit", "core.classifier.fit")
    installer.method(FpDnsArtifactCache, "load", "artifact.load",
                     _artifact_counter("load"))
    installer.method(FpDnsArtifactCache, "store", "artifact.store",
                     _artifact_counter("store"))
    for module_name, layer in MODULE_LAYERS.items():
        module = importlib.import_module(module_name)
        for attr in getattr(module, "__all__", ()):
            if inspect.isfunction(getattr(module, attr)):
                installer.function(module_name, attr, layer)
    for backend in (PassiveDnsDatabase, SegmentedPdnsStore):
        for attr in PDNS_INGESTS:
            installer.method(backend, attr, "pdns.ingest",
                             _rows if attr == "ingest_rrs" else None)
        for attr in PDNS_QUERIES:
            installer.method(backend, attr, "pdns.query")
    installer.method(ClassificationEngine, "classify_batch", "engine.batch")
    installer.method(MicroBatcher, "submit", "batcher.submit")
    installer.rebind()

    for experiment_id, run in list(cli.EXPERIMENTS.items()):
        cli.EXPERIMENTS[experiment_id] = _traced_experiment(
            installer, f"exp.{experiment_id}", run)

    store_init = SegmentedPdnsStore.__init__

    def tracked_init(store: SegmentedPdnsStore, *args, **kwargs) -> None:
        store_init(store, *args, **kwargs)
        installer.stores.append(store)

    SegmentedPdnsStore.__init__ = tracked_init  # type: ignore[method-assign]
    return installer.stores


def _traced_experiment(installer: _Installer, name: str,
                       run: Callable) -> Callable:
    """``run`` as a span; its result class's ``render`` becomes one too."""
    traced = installer.tracer.wrap(name, run)

    def experiment(context: object) -> object:
        result = traced(context)
        installer.method(type(result), "render", "render")
        return result

    return experiment


def prefilter_counts(stores: Sequence[object]) -> Mapping[str, int]:
    opened = skipped = 0
    for store in stores:
        stats = store.stats()  # type: ignore[attr-defined]
        opened += stats.segments_opened
        skipped += stats.segments_skipped
    return {"segments_opened": opened, "segments_skipped": skipped}


def _interrupt(signum: int, frame: object) -> None:
    raise KeyboardInterrupt


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True,
                        help="Chrome trace-event JSON written at exit")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="arguments for python -m repro (after --)")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else \
        args.cli_args

    signal.signal(signal.SIGTERM, _interrupt)
    tracer = Tracer()
    stores = install(tracer)
    from repro.experiments.cli import main as cli_main
    try:
        return cli_main(cli_args)
    finally:
        tracer.write(args.trace_out,
                     {"pdns_prefilter": prefilter_counts(stores)})


if __name__ == "__main__":
    sys.exit(main())
