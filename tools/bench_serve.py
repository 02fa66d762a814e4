"""Record the serving-engine performance baseline.

Replays a realistic qname stream (the reference day's below-the-
resolver query column) against the :mod:`repro.service` classification
engine two ways and writes the numbers to ``BENCH_serve.json`` at the
repo root:

* **single** — the per-name oracle: one ``classify_one`` call per
  qname (fresh ``depth_groups`` walk + 1-row model call each time);
* **batched** — ``classify_batch`` in serving-sized chunks: per name,
  resolution plus one probe of the verdict table the engine built at
  construction.

It also records what the table costs at load: the build time (one
shot, cold: the engine constructor over a prebuilt tree and hit-rate
table), its entry count, a shallow byte size, and the verdict mix of
its entries.

Every batched pass is asserted verdict-for-verdict equal to the
single-name oracle *while being timed* (frozen-dataclass equality —
same reasons, scores, probabilities, bit for bit), and every batched
pass after the first is asserted identical to the first: the engine
holds no per-traffic state, so there is no cold/warm split.  The
baseline mode additionally asserts an acceptance floor: batched ≥ 5×
single QPS.  ``cpu_count``/``available_cpus`` are
recorded and single-core boxes are flagged ``constrained``.  Timing
lives here in ``tools/`` because ``src/repro`` is wall-clock-free by
the determinism contract (reprolint R001).

Usage::

    PYTHONPATH=src python tools/bench_serve.py            # MEDIUM
    PYTHONPATH=src python tools/bench_serve.py --quick    # SMALL, CI

The ``--quick`` mode runs the SMALL profile with few events so CI can
smoke-test the whole path in seconds; it checks equality but not the
throughput ratio, and does not overwrite the recorded baseline.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.classifier import LadTreeClassifier  # noqa: E402
from repro.core.classifier.compiled import compile_lad_tree  # noqa: E402
from repro.core.features import FeatureExtractor  # noqa: E402
from repro.core.hitrate import hit_rates_from_digest  # noqa: E402
from repro.core.interning import DayDigest, build_day_digest  # noqa: E402
from repro.core.labeling import build_training_set  # noqa: E402
from repro.core.parallelism import available_cpu_count  # noqa: E402
from repro.core.ranking import build_tree_from_digest  # noqa: E402
from repro.experiments.context import (MEDIUM, SMALL,  # noqa: E402
                                       TRAINING_DATE, ScaleProfile)
from repro.service.engine import ClassificationEngine, Verdict  # noqa: E402
from repro.traffic.simulate import PAPER_DATES, TraceSimulator  # noqa: E402

OUTPUT = REPO_ROOT / "BENCH_serve.json"


def _prepare(profile: ScaleProfile, n_events: Optional[int]
             ) -> Tuple[DayDigest, ClassificationEngine, float]:
    """Simulate the training + reference days; build the engine.

    Returns the serving digest, the engine and the seconds its
    constructor took (the verdict-table build)."""
    reference = PAPER_DATES[0]
    dates = sorted([reference, TRAINING_DATE], key=lambda d: d.day_index)
    simulator = TraceSimulator(profile.simulator_config())
    days = dict(zip([date.label for date in dates],
                    simulator.run_days(dates, n_events=n_events)))

    training_digest = build_day_digest(days[TRAINING_DATE.label])
    tree = build_tree_from_digest(training_digest)
    extractor = FeatureExtractor(tree,
                                 hit_rates_from_digest(training_digest))
    training = build_training_set(simulator.labeled_zones(), tree, extractor)
    classifier = LadTreeClassifier().fit(training.X, training.y)

    serving_digest = build_day_digest(days[reference.label])
    model = compile_lad_tree(classifier)
    serving_tree = build_tree_from_digest(serving_digest)
    serving_rates = hit_rates_from_digest(serving_digest)
    start = time.perf_counter()
    engine = ClassificationEngine(model, serving_tree, serving_rates)
    return serving_digest, engine, time.perf_counter() - start


def _query_stream(digest: DayDigest, n_names: int) -> List[str]:
    """The first ``n_names`` below-stream queries of the day, replayed
    in arrival order — real traffic shape: hot names repeat, NXDOMAIN
    names map to unknown groups, apexes and effective TLDs appear."""
    table = digest.names
    return [table.name(int(nid))
            for nid in digest.below.name_ids[:n_names]]


def _chunks(stream: List[str], size: int) -> List[List[str]]:
    return [stream[start:start + size]
            for start in range(0, len(stream), size)]


def _percentiles(latencies: List[float]) -> Dict[str, float]:
    values = np.array(latencies, dtype=float) * 1000.0  # ms
    return {"p50_ms": round(float(np.percentile(values, 50)), 3),
            "p95_ms": round(float(np.percentile(values, 95)), 3),
            "p99_ms": round(float(np.percentile(values, 99)), 3)}


def _table_bytes(engine: ClassificationEngine) -> int:
    """Shallow size of the verdict table: the dict, its key tuples and
    its entries (zone strings are shared with the tree)."""
    table = engine._table
    return (sys.getsizeof(table)
            + sum(sys.getsizeof(key) + sys.getsizeof(entry)
                  + sys.getsizeof(vars(entry))
                  for key, entry in table.items()))


def _table_mix(engine: ClassificationEngine) -> Dict[str, int]:
    """Table entries per reason, plus how many are disposable."""
    mix: Dict[str, int] = {}
    for entry in engine._table.values():
        mix[entry.reason] = mix.get(entry.reason, 0) + 1
    mix["disposable"] = sum(1 for entry in engine._table.values()
                            if entry.disposable)
    return dict(sorted(mix.items()))


def _run_batched(engine: ClassificationEngine, chunks: List[List[str]]
                 ) -> Tuple[float, List[float], List[Verdict]]:
    """One timed pass over all chunks; per-chunk latencies recorded."""
    verdicts: List[Verdict] = []
    latencies: List[float] = []
    start = time.perf_counter()
    for chunk in chunks:
        chunk_start = time.perf_counter()
        verdicts.extend(engine.classify_batch(chunk))
        latencies.append(time.perf_counter() - chunk_start)
    return time.perf_counter() - start, latencies, verdicts


def bench(profile: ScaleProfile, n_events: Optional[int], n_names: int,
          chunk_size: int, repeats: int,
          assert_ratios: bool) -> Dict[str, object]:
    digest, engine, table_build_s = _prepare(profile, n_events)
    stream = _query_stream(digest, n_names)
    chunks = _chunks(stream, chunk_size)
    distinct_names = len(set(stream))

    results: Dict[str, object] = {
        "profile": profile.name,
        "events_per_day": n_events or profile.events_per_day,
        "stream_names": len(stream),
        "distinct_names": distinct_names,
        "chunk_size": chunk_size,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "available_cpus": available_cpu_count(),
        "python": sys.version.split()[0],
        "table_build_s": round(table_build_s, 4),
        "table_entries": engine.table_groups,
        "table_bytes": _table_bytes(engine),
        "table_verdicts": _table_mix(engine),
    }
    if available_cpu_count() == 1:
        results["constrained"] = True

    # Grouped best-of-N with the collector paused (the ``timeit``
    # discipline, as in tools/bench_miner.py): all repeats of one path
    # run back to back and the minimum is the comparable number.
    gc.collect()
    gc.disable()
    try:
        # -- single-name oracle loop ---------------------------------
        single_s = float("inf")
        oracle: Optional[List[Verdict]] = None
        for _ in range(repeats):
            start = time.perf_counter()
            attempt = [engine.classify_one(qname) for qname in stream]
            single_s = min(single_s, time.perf_counter() - start)
            oracle = oracle if oracle is not None else attempt

        # -- batched table path --------------------------------------
        batched_s = float("inf")
        batched_latencies: List[float] = []
        first: Optional[List[Verdict]] = None
        for _ in range(repeats):
            elapsed, latencies, attempt = _run_batched(engine, chunks)
            if elapsed < batched_s:
                batched_s, batched_latencies = elapsed, latencies
            if first is None:
                first = attempt
                assert first == oracle, \
                    "batched verdicts differ from the per-name oracle"
            else:
                assert attempt == first, \
                    "a repeated batched pass differs from the first"
    finally:
        gc.enable()

    assert oracle is not None
    group_keys = {(verdict.zone, verdict.depth) for verdict in oracle
                  if verdict.reason in ("classified", "unknown-group",
                                        "small-group")}
    results["distinct_group_keys"] = len(group_keys)
    results["verdict_reasons"] = {
        reason: sum(1 for verdict in oracle if verdict.reason == reason)
        for reason in sorted({verdict.reason for verdict in oracle})}
    results["disposable_fraction"] = round(
        sum(1 for verdict in oracle if verdict.disposable) / len(oracle), 4)

    n = len(stream)
    single_qps = n / single_s
    batched_qps = n / batched_s
    results["single_s"] = round(single_s, 4)
    results["batched_s"] = round(batched_s, 4)
    results["single_qps"] = round(single_qps, 1)
    results["batched_qps"] = round(batched_qps, 1)
    results["batched_vs_single_speedup"] = round(batched_qps / single_qps, 2)
    results["batched_chunk_latency"] = _percentiles(batched_latencies)

    print(f"table:   {engine.table_groups} groups built in "
          f"{table_build_s * 1000:.1f} ms")
    print(f"single:  {single_s:.3f}s  ({single_qps:,.0f} qps)")
    print(f"batched: {batched_s:.3f}s  ({batched_qps:,.0f} qps, "
          f"{batched_qps / single_qps:.1f}x single, verdicts identical)")

    if assert_ratios:
        assert batched_qps / single_qps >= 5.0, \
            (f"batched engine is only {batched_qps / single_qps:.2f}x the "
             f"single-name loop (acceptance floor: 5x)")
    return results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="SMALL profile, few events: CI smoke mode "
                             "(equality checks only; does not overwrite "
                             "the recorded baseline)")
    parser.add_argument("--output", type=Path, default=OUTPUT,
                        help=f"where to write results (default {OUTPUT})")
    args = parser.parse_args(argv)

    if args.quick:
        results = bench(SMALL, n_events=4_000, n_names=2_000,
                        chunk_size=256, repeats=2, assert_ratios=False)
        results["mode"] = "quick"
        print(json.dumps(results, indent=2))
        return 0

    results = bench(MEDIUM, n_events=None, n_names=12_000,
                    chunk_size=1_024, repeats=3, assert_ratios=True)
    results["mode"] = "baseline"
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
