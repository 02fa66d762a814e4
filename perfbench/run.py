"""The repository's benchmark: ``repro all`` and ``POST /classify``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload repro-cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --list-metrics
    python3 perfbench/run.py --record-oracle

Workloads: ``repro-cold`` (:mod:`repro_runs`), ``classify-hot``,
``classify-novel`` (:mod:`classify_runs`), and ``repro-warm``, which
``BENCHMARK.json`` does not list: on the seed code it fails two of its
18 sections, so it is kept as a diagnostic that shows that.  With
``--trace 0`` the last stdout line is one JSON object with every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it has
every per-layer metric, taken from a traced run (:mod:`layers`) next to
an untraced one.  The line before it is the run's header: CPUs,
versions, commit, profile, seed, repeat counts and units.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from measure import median, tail_percentile  # noqa: E402
from spans import Span, layer_totals, load_chrome  # noqa: E402

#: ``repro-warm`` is a diagnostic, not a benchmark workload (see
#: README.md, "Findings on the seed code").
WORKLOADS = ("repro-cold", "repro-warm", "classify-hot", "classify-novel")
WORK_ROOT = Path(".perfbench")
SPEC_PATH = Path("BENCHMARK.json")
#: Fresh interpreters timed for ``repro-cold``'s set-up.
IMPORT_REPEATS = 7
#: ``repro all`` runs per untraced ``repro-*`` run, medians reported:
#: host noise moves one run by up to ~15 %, independently from run to
#: run.  ``repro-warm``'s one artifact-cache fill serves both, each on
#: a fresh pDNS store.
REPRO_REPEATS = 2


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)
    repeats: Dict[str, int] = field(default_factory=dict)


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def _store_stats(root: Optional[Path],
                 other: Dict[str, object]) -> Dict[str, float]:
    """Size of a segmented pDNS store after a run and the share of
    segment probes its prefilters skipped."""
    files = ([path for path in root.rglob("*") if path.is_file()]
             if root is not None and root.exists() else [])
    prefilter = dict(other.get("pdns_prefilter") or {})  # type: ignore[call-overload]
    skipped = prefilter.get("segments_skipped", 0)
    probes = prefilter.get("segments_opened", 0) + skipped
    return {"bytes": float(sum(path.stat().st_size for path in files)),
            "segments": float(sum(1 for path in files
                                  if path.suffix == ".pdnsseg")),
            "prefilter_skip_ratio": skipped / probes if probes else 0.0}


def layer_metrics(names: Sequence[str],
                  spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer metrics derivable from one trace: ``<span>.s`` self
    times plus the counts the spans carry.  Absent layers read 0."""
    metrics = {name: 0.0 for name in names}
    for span_name, seconds in layer_totals(spans).items():
        if f"{span_name}.s" in metrics:
            metrics[f"{span_name}.s"] = seconds

    def attr_sum(span_name: str, attr: str) -> float:
        return float(sum((span.attrs or {}).get(attr, 0.0) for span in spans
                         if span.name == span_name))

    def count(span_name: str) -> float:
        return float(sum(1 for span in spans if span.name == span_name))

    simulate_s = metrics["traffic.simulate.s"]
    metrics["traffic.simulate.days"] = count("traffic.simulate")
    metrics["traffic.simulate.events_per_s"] = (
        attr_sum("traffic.simulate", "events") / simulate_s
        if simulate_s else 0.0)
    metrics["artifact.hits"] = attr_sum("artifact.load", "hit")
    metrics["artifact.misses"] = (count("artifact.load")
                                  - metrics["artifact.hits"])
    metrics["artifact.bytes"] = (attr_sum("artifact.load", "bytes")
                                 + attr_sum("artifact.store", "bytes"))
    metrics["core.mine.days"] = count("core.mine")
    metrics["core.classifier.fits"] = count("core.classifier.fit")
    metrics["pdns.ingest.rows"] = attr_sum("pdns.ingest", "rows")
    return metrics


# -- repro all ---------------------------------------------------------


def repro_workload(workload: str, trace: bool, per_layer: Sequence[str],
                   work: Path) -> Outcome:
    from repro_runs import (child_env, failed_sections, fill_artifact_cache,
                            load_oracle, run_repro, time_import)

    warm = workload == "repro-warm"
    oracle = load_oracle()["segmented" if warm else "memory"]
    outcome = Outcome()
    extra: Dict[str, str] = {}
    if warm:
        extra["REPRO_ARTIFACT_CACHE"] = str(work / "artifacts")
        setup_s = fill_artifact_cache(child_env(extra), work / "fill.log")
        outcome.repeats["setup"] = 1
    else:
        setup_s = median([time_import(child_env())
                          for _ in range(IMPORT_REPEATS)])
        outcome.repeats["setup"] = IMPORT_REPEATS

    def one_run(index: int, trace_path: Optional[Path] = None):
        store = None
        env_extra = dict(extra)
        if warm:
            store = work / f"pdns-{index}"
            store.mkdir()
            env_extra["REPRO_PDNS_STORE"] = str(store)
        run = run_repro(child_env(env_extra), work / f"repro-{index}.log",
                        trace_path)
        failed = failed_sections(run.sections, oracle)
        outcome.attempted += max(len(oracle), len(run.sections))
        outcome.failed += len(failed)
        outcome.details.setdefault("failed_sections", []).extend(failed)
        outcome.details.setdefault("returncodes", []).append(run.returncode)
        return run, store

    if not trace:
        runs = [one_run(index)[0] for index in range(REPRO_REPEATS)]
        outcome.repeats["repro_all"] = REPRO_REPEATS
        per_run = [{
            "wall_s": run.wall_s, "peak_rss_mib": run.peak_rss_mib,
            "p50_ms": median(run.done_ms),
            "p99_ms": tail_percentile(run.done_ms)[0],
            "max_rate_rps": len(run.sections) / run.wall_s,
        } for run in runs]
        outcome.metrics = {name: median([values[name] for values in per_run])
                           for name in per_run[0]}
        outcome.metrics["setup_s"] = setup_s
        outcome.details.update(
            sections=[len(run.sections) for run in runs],
            p99_percentile_used=tail_percentile(runs[0].done_ms)[1],
            section_ms=[[round(value, 3) for value in run.section_ms]
                        for run in runs])
        return outcome

    run, _ = one_run(0)
    trace_path = work / "repro.trace.json"
    traced, store = one_run(1, trace_path)
    outcome.repeats["repro_all"] = 2
    spans, other = load_chrome(str(trace_path))
    metrics = layer_metrics(per_layer, spans)
    metrics["trace.overhead_pct"] = (
        (traced.wall_s - run.wall_s) / run.wall_s * 100.0)
    outcome.metrics = metrics
    outcome.details.update(untraced_wall_s=run.wall_s,
                           traced_wall_s=traced.wall_s, spans=len(spans))
    if store is not None:
        outcome.details["pdns_store"] = _store_stats(store, other)
    keep = WORK_ROOT / f"last-{workload}.trace.json"
    shutil.copyfile(trace_path, keep)
    outcome.details["trace_file"] = str(keep)
    return outcome


# -- POST /classify ------------------------------------------------------


class ClassifyRun:
    """Traffic, oracle and daemon settings shared by one classify run."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        import classify_runs as cr
        from repro_runs import PROFILE, child_env

        from repro.core.parallelism import available_cpu_count
        from repro.experiments.context import get_context
        from repro.service.app import ServeSettings, build_engine
        from repro.traffic.simulate import PAPER_DATES

        cache = cr.ensure_artifact_cache(WORK_ROOT / "cache")
        os.environ["REPRO_ARTIFACT_CACHE"] = str(cache)
        self.settings = ServeSettings(profile=PROFILE)
        digest = get_context(self.settings.scale_profile()).digest(
            PAPER_DATES[-1])
        rows = [digest.names.name(int(name_id))
                for name_id in digest.below.name_ids]
        oracle = cr.Oracle(build_engine(self.settings))
        traffic_cls = (cr.HotTraffic if workload == "classify-hot"
                       else cr.NovelTraffic)
        self.traffic = traffic_cls(rows, oracle,
                                   random.Random(f"{seed}:traffic"))
        self.schedule_rng = random.Random(f"{seed}:schedule")
        self.env = child_env({"REPRO_ARTIFACT_CACHE": str(cache)})
        self.n_conns = max(1, min(2, available_cpu_count()))
        self.outcome = Outcome(repeats={"connections": self.n_conns})
        self.workload = workload
        self.work = work

    def serve(self, session_fn: Callable, trace_path: Optional[Path] = None):
        """Start a daemon, warm it up, run ``session_fn`` on it, stop it."""
        import classify_runs as cr

        daemon = cr.Daemon(self.env, self.work / "daemon.log", trace_path)
        session = cr.Session(daemon, self.traffic, self.n_conns)
        try:
            session.warmup()
            result = session_fn(session)
        finally:
            session.close()
            daemon.stop()
        self.outcome.attempted += session.attempted
        self.outcome.failed += session.failed
        return session, daemon, result


def classify_plain(run: ClassifyRun, seconds: float) -> Outcome:
    """End-to-end metrics: set-up, the ladder and the closed loop."""
    import classify_runs as cr

    ready: List[float] = []
    for _ in range(cr.SETUP_STARTS - 1):
        daemon = cr.Daemon(run.env, run.work / "daemon.log")
        daemon.stop()
        ready.append(daemon.ready_s)

    def measured(session: "cr.Session") -> float:
        ready.append(session.daemon.ready_s)
        session.ladder(seconds, run.schedule_rng)
        return session.closed_loop()

    session, daemon, wall_s = run.serve(measured)
    latency = cr.latency_summary(session.steps[cr.LATENCY_RATE])
    outcome = run.outcome
    outcome.repeats.update(setup=cr.SETUP_STARTS,
                           closed_loop_requests=cr.CLOSED_LOOP_REQUESTS)
    outcome.metrics = {
        "setup_s": median(ready), "wall_s": wall_s,
        "peak_rss_mib": daemon.peak_rss_mib,
        "p50_ms": latency["p50_ms"], "p99_ms": latency["window_tail_ms"],
        "max_rate_rps": session.max_rate(),
    }
    outcome.details.update(
        setup_runs_s=ready, p99_windows=cr.LATENCY_WINDOWS,
        p99_percentile_used=latency["window_tail_percentile"],
        steps={str(rate): cr.latency_summary(step)
               for rate, step in session.steps.items()})
    return outcome


def classify_traced(run: ClassifyRun, seconds: float,
                    per_layer: Sequence[str]) -> Outcome:
    """Per-layer metrics: the 30 req/s step on an untraced and on a
    traced daemon, then direct engine calls on the same requests."""
    import classify_runs as cr
    from openloop import schedule

    from repro.service.app import build_engine

    rate = cr.LATENCY_RATE
    offsets = schedule(rate, cr.STEP_SHARE[rate] * seconds, run.schedule_rng)
    requests = [run.traffic.request() for _ in offsets]

    def latency_step(session: "cr.Session"):
        before = session.daemon.metrics()
        step = session.step(rate, offsets, requests)
        return step, before, session.daemon.metrics()

    def traced_steps(session: "cr.Session"):
        measured = latency_step(session)
        session.closed_loop()
        return measured

    _, _, (plain, _, _) = run.serve(latency_step)
    trace_path = run.work / "daemon.trace.json"
    session, _, (step, before, after) = run.serve(traced_steps, trace_path)
    spans, _ = load_chrome(str(trace_path))

    engine = build_engine(run.settings)
    for request in run.traffic.warmup():
        engine.classify_batch(request.names)
    batch_ms = []
    for request in requests:
        began = time.perf_counter()
        engine.classify_batch(request.names)
        batch_ms.append((time.perf_counter() - began) * 1000.0)

    def submit_p50_ms(outcomes: Sequence) -> float:
        """p50 of the daemon's ``submit`` spans for these requests."""
        start = min(outcome.sent for outcome in outcomes)
        end = max(outcome.done for outcome in outcomes)
        durations = [span.duration / 1e6 for span in spans
                     if span.name == "batcher.submit"
                     and start <= span.start / 1e9 <= end]
        return median(durations) if durations else 0.0

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    def ratio(numerator: str, denominator: float) -> float:
        return delta(numerator) / denominator if denominator else 0.0

    engine_ms = median(batch_ms)
    submit_p50 = submit_p50_ms(step.sent)
    hits = "repro_serve_verdict_cache_hits_total"
    metrics = layer_metrics(per_layer, spans)
    metrics.update({
        "engine.batch_ms": engine_ms,
        "engine.groups_extracted": delta(
            "repro_serve_engine_groups_extracted_total"),
        "cache.verdict_hit_ratio": ratio(
            hits, delta(hits)
            + delta("repro_serve_verdict_cache_misses_total")),
        "batcher.wait_ms": submit_p50 - engine_ms,
        "batcher.names_per_batch": ratio(
            "repro_serve_batcher_names_total",
            delta("repro_serve_batcher_batches_total")),
        "batcher.coalesced_ratio": ratio(
            "repro_serve_batcher_coalesced_requests_total",
            delta("repro_serve_batcher_requests_total")),
        "http.transport_ms": cr.send_latency_p50_ms(step) - submit_p50,
        "gen.lag_ms": cr.lag_tail_ms(step),
        "gen.backlog": float(step.backlog),
        "trace.overhead_pct": (step.p50_ms() - plain.p50_ms())
        / plain.p50_ms() * 100.0,
    })
    closed = session.closed
    assert closed is not None
    closed_client = cr.send_latency_p50_ms(closed)
    closed_submit = submit_p50_ms(closed.sent)
    outcome = run.outcome
    outcome.metrics = metrics
    outcome.repeats.update(setup=2, latency_steps=2)
    outcome.details.update(
        untraced=cr.latency_summary(plain), traced=cr.latency_summary(step),
        spans=len(spans),
        closed_loop={"client_p50_ms": closed_client,
                     "submit_p50_ms": closed_submit,
                     "transport_ms": closed_client - closed_submit})
    keep = WORK_ROOT / f"last-{run.workload}.trace.json"
    shutil.copyfile(trace_path, keep)
    outcome.details["trace_file"] = str(keep)
    return outcome


# -- reporting -----------------------------------------------------------


def _commit() -> str:
    """HEAD of a git checkout in the working directory, else unknown."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = Path(".git") / ref[5:]
        return target.read_text().strip() if target.is_file() else ref
    return ref


def header(args: argparse.Namespace, spec: dict,
           outcome: Outcome, names: Sequence[str]) -> dict:
    import numpy

    from repro.core.parallelism import available_cpu_count
    from repro_runs import PROFILE

    units = {metric["name"]: metric["unit"]
             for metric in spec["end_to_end"] + spec["per_layer"]}
    return {"header": {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "profile": PROFILE,
        "cpus": available_cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": _commit(),
        "repeats": outcome.repeats,
        "units": {name: units[name] for name in names},
        "details": outcome.details,
    }}


def list_metrics(spec: dict) -> None:
    print(f"{'metric':34} {'unit':6} {'kind':10} {'better':7} bound")
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            print(f"{metric['name']:34} {metric['unit']:6} {kind:10} "
                  f"{metric['better']:7} {metric.get('bound', '-')}")
    print("workloads: " + ", ".join(w["name"] for w in spec["workloads"]))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true",
                        help="print every metric with its unit and exit")
    parser.add_argument("--record-oracle", action="store_true",
                        help="re-record oracle.json from serial, "
                             "cache-less runs")
    args = parser.parse_args(argv)

    if not Path("src/repro/__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    spec = load_spec()
    if args.list_metrics:
        list_metrics(spec)
        return 0
    work = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.record_oracle:
            from repro_runs import record_oracle
            record_oracle(work)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        kind = "per_layer" if args.trace else "end_to_end"
        names = [metric["name"] for metric in spec[kind]]
        per_layer = [metric["name"] for metric in spec["per_layer"]]
        if args.workload.startswith("repro-"):
            outcome = repro_workload(args.workload, bool(args.trace),
                                     per_layer, work)
        else:
            run = ClassifyRun(args.workload, args.seed, work)
            outcome = (classify_traced(run, args.seconds, per_layer)
                       if args.trace else classify_plain(run, args.seconds))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        outcome.metrics["ok_rate"] = 1.0 - outcome.failed / outcome.attempted
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    missing = [name for name in names if name not in outcome.metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    print(json.dumps(header(args, spec, outcome, names)))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name],
                           "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
