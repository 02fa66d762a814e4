"""Tests for the experiment context."""

import pytest

from repro.core.interning import build_day_digest
from repro.core.miner import MinerConfig
from repro.core.ranking import DisposableZoneRanker
from repro.experiments.context import (MEDIUM, SMALL, ExperimentContext,
                                       ScaleProfile)
from repro.pdns.io import dumps_fpdns, loads_fpdns
from repro.traffic.artifacts import FpDnsArtifactCache, artifact_key
from repro.traffic.simulate import PAPER_DATES, MeasurementDate

# Seconds-scale profile for the artifact-cache tests below: they each
# run the full standard calendar, so the per-day cost must be tiny.
TINY = ScaleProfile(name="tiny-accel", events_per_day=800,
                    n_popular_sites=30, n_longtail_sites=200,
                    n_extra_disposable=8, n_clients=40,
                    cache_capacity=2_000, cdn_objects=800)


class TestProfiles:
    def test_profiles_distinct(self):
        assert SMALL.events_per_day < MEDIUM.events_per_day
        assert SMALL.name != MEDIUM.name

    def test_simulator_config_wired(self):
        config = SMALL.simulator_config()
        assert config.workload.events_per_day == SMALL.events_per_day
        assert config.population.n_popular_sites == SMALL.n_popular_sites
        assert config.cache_capacity == SMALL.cache_capacity


class TestContext:
    def test_dataset_cached(self, small_context):
        a = small_context.dataset(PAPER_DATES[0])
        b = small_context.dataset(PAPER_DATES[0])
        assert a is b

    def test_calendar_simulated_in_order(self, small_context):
        """Requesting a late date then an early one must not corrupt
        cache timelines — both come from one chronological pass."""
        late = small_context.dataset(PAPER_DATES[-1])
        early = small_context.dataset(PAPER_DATES[0])
        assert late.day == "2011-12-30"
        assert early.day == "2011-02-01"

    def test_adhoc_past_date_rejected(self, small_context):
        small_context.dataset(PAPER_DATES[0])  # ensures calendar ran
        with pytest.raises(ValueError):
            small_context.dataset(MeasurementDate("ad-hoc-past", 1, 0.0))

    def test_adhoc_future_date_allowed(self, small_context):
        ds = small_context.dataset(MeasurementDate("ad-hoc-future", 999,
                                                   1.0))
        assert ds.below_volume() > 0

    def test_training_set_and_classifier_cached(self, small_context):
        assert small_context.training_set() is small_context.training_set()
        assert small_context.classifier() is small_context.classifier()

    def test_mining_result_cached_per_threshold(self, small_context):
        a = small_context.mining_result(PAPER_DATES[0])
        b = small_context.mining_result(PAPER_DATES[0])
        c = small_context.mining_result(PAPER_DATES[0], threshold=0.5)
        assert a is b
        assert c is not a

    def test_truth_groups_nonempty(self, small_context):
        assert len(small_context.truth_groups()) > 10


def tsv_roundtrip(dataset):
    """The oracle: the same day through the gzip-TSV text format."""
    return loads_fpdns(dumps_fpdns(dataset))


class TestAcceleratedContext:
    """The artifact-cached path must change nothing but wall-clock
    time."""

    def test_warm_session_skips_simulation(self, tmp_path):
        cold_cache = FpDnsArtifactCache(tmp_path)
        cold = ExperimentContext(TINY, artifact_cache=cold_cache)
        cold_day = cold.dataset(PAPER_DATES[0])
        assert cold_cache.hits == 0
        stored = len(cold_cache)
        assert stored > 0

        warm_cache = FpDnsArtifactCache(tmp_path)
        warm = ExperimentContext(TINY, artifact_cache=warm_cache)
        warm_day = warm.dataset(PAPER_DATES[0])
        # Every calendar day came from disk: no misses, no simulation.
        assert warm_cache.misses == 0
        assert warm_cache.hits == stored
        assert warm._replayed == 0
        assert warm_day.below == cold_day.below
        assert warm_day.above == cold_day.above

    def test_warm_session_is_digest_native(self, tmp_path):
        """A cache-warm columnar session feeds deserialised digests
        straight into mining: no entry lists are ever materialised."""
        from repro.pdns.columnar import ColumnarFpDnsDataset

        cache = FpDnsArtifactCache(tmp_path)
        ExperimentContext(TINY, artifact_cache=cache).dataset(PAPER_DATES[0])

        warm = ExperimentContext(TINY,
                                 artifact_cache=FpDnsArtifactCache(tmp_path))
        day = warm.dataset(PAPER_DATES[0])
        assert isinstance(day, ColumnarFpDnsDataset)
        digest = warm.digest(PAPER_DATES[0])
        assert digest is day.day_digest()       # no rebuild
        assert day._below_entries is None       # no materialisation
        assert day._above_entries is None

    def test_warm_mining_equals_cold_and_tsv_oracle(self, tmp_path):
        """The paper's outputs are invariant under the artifact cache:
        mining a cache-loaded day equals the cold run and mining the
        day's gzip-TSV round trip."""
        day = PAPER_DATES[0]
        cold = ExperimentContext(
            TINY, artifact_cache=FpDnsArtifactCache(tmp_path))
        expected = cold.mining_result(day)

        warm = ExperimentContext(
            TINY, artifact_cache=FpDnsArtifactCache(tmp_path))
        assert warm.mining_result(day) == expected
        ranker = DisposableZoneRanker(warm.classifier(), MinerConfig())
        oracle_digest = build_day_digest(tsv_roundtrip(warm.dataset(day)))
        assert ranker.run_digest(oracle_digest) == expected

    def test_digest_equal_across_formats(self, tmp_path):
        """Digest columns from a columnar cache load equal those built
        from a gzip-TSV round trip of the same day."""
        import numpy as np

        from repro.core.interning import STREAM_FIELDS

        day = PAPER_DATES[0]
        cold = ExperimentContext(
            TINY, artifact_cache=FpDnsArtifactCache(tmp_path))
        cold.dataset(day)

        warm = ExperimentContext(
            TINY, artifact_cache=FpDnsArtifactCache(tmp_path))
        d_col = warm.digest(day)
        d_tsv = build_day_digest(tsv_roundtrip(cold.dataset(day)))
        assert list(d_col.names.names) == list(d_tsv.names.names)
        assert d_col.rr_keys == d_tsv.rr_keys
        for which in ("below", "above"):
            for field in STREAM_FIELDS:
                assert np.array_equal(
                    getattr(getattr(d_col, which), field),
                    getattr(getattr(d_tsv, which), field)), (which, field)

    def test_partial_artifact_hit_replays_then_simulates(self, tmp_path):
        """A cache holding only a prefix of the calendar: the prefix
        loads from disk, the simulator replays it to rewarm its caches,
        then simulates the rest — every day equal to the cold run's."""
        cold = ExperimentContext(
            TINY, artifact_cache=FpDnsArtifactCache(tmp_path))
        calendar = cold._calendar()
        cold_days = cold.datasets(calendar)
        kept = 3
        for position in range(kept, len(calendar)):
            key = artifact_key(cold.simulator.config,
                               calendar[:position + 1])
            cold.artifacts.path_for(key).unlink()

        cache = FpDnsArtifactCache(tmp_path)
        partial = ExperimentContext(TINY, artifact_cache=cache)
        partial_days = partial.datasets(calendar)
        assert cache.hits == kept
        assert partial._replayed == len(calendar)
        for expected, actual in zip(cold_days, partial_days):
            assert actual.day == expected.day
            assert actual.below == expected.below
            assert actual.above == expected.above

    def test_resident_days_bounds_memory_and_reloads(self, tmp_path):
        """With ``resident_days`` set, at most that many per-entry
        datasets stay in memory; evicted days stay *produced* and
        reload transparently from the artifact cache."""
        cache = FpDnsArtifactCache(tmp_path)
        bounded = ExperimentContext(TINY, artifact_cache=cache,
                                    resident_days=2)
        first = bounded.dataset(PAPER_DATES[0])  # runs the calendar
        # The early day was evicted mid-calendar and reloaded on return.
        assert first.day == PAPER_DATES[0].label
        assert len(bounded._datasets) <= 2
        assert len(bounded._produced) >= len(PAPER_DATES)

        reference = ExperimentContext(
            TINY, artifact_cache=FpDnsArtifactCache(tmp_path))
        expected = reference.dataset(PAPER_DATES[0])
        again = bounded.dataset(PAPER_DATES[0])
        assert again.below == expected.below
        assert again.above == expected.above
        assert len(bounded._datasets) <= 2

    def test_release_day_frees_then_reloads(self, tmp_path):
        cache = FpDnsArtifactCache(tmp_path)
        ctx = ExperimentContext(TINY, artifact_cache=cache)
        day = PAPER_DATES[0]
        before = ctx.dataset(day)
        ctx.digest(day)
        ctx.hit_rates(day)
        ctx.release_day(day)
        assert day.label not in ctx._datasets
        assert day.label not in ctx._digests
        assert day.label not in ctx._hit_rates
        after = ctx.dataset(day)
        assert after is not before
        assert after.below == before.below
        assert after.above == before.above

    def test_release_without_artifact_cache_is_unrecoverable(self):
        ctx = ExperimentContext(TINY)
        day = PAPER_DATES[0]
        ctx.dataset(day)
        ctx.release_day(day)
        with pytest.raises(RuntimeError):
            ctx.dataset(day)

    def test_adhoc_date_after_warm_hits_replays(self, tmp_path):
        cache = FpDnsArtifactCache(tmp_path)
        ExperimentContext(TINY, artifact_cache=cache).dataset(PAPER_DATES[0])

        serial = ExperimentContext(TINY)
        warm = ExperimentContext(TINY,
                                 artifact_cache=FpDnsArtifactCache(tmp_path))
        adhoc = MeasurementDate("ad-hoc-future", 999, 1.0)
        serial.dataset(PAPER_DATES[0])   # runs the standard calendar
        warm.dataset(PAPER_DATES[0])     # loads it from disk instead
        a = serial.dataset(adhoc)
        b = warm.dataset(adhoc)
        # The warm context loaded the calendar from disk, then had to
        # rewarm its serial caches by replay before the ad-hoc day.
        assert warm._replayed > 0
        assert a.below == b.below
        assert a.above == b.above


class TestPdnsBackendSelection:
    def test_default_is_in_memory(self, monkeypatch):
        from repro.pdns.database import PassiveDnsDatabase
        monkeypatch.delenv("REPRO_PDNS_STORE", raising=False)
        ctx = ExperimentContext(SMALL)
        assert isinstance(ctx.pdns_database(), PassiveDnsDatabase)

    def test_env_knob_selects_segmented_store(self, tmp_path, monkeypatch):
        from repro.pdns.store import SegmentedPdnsStore
        monkeypatch.setenv("REPRO_PDNS_STORE", str(tmp_path))
        ctx = ExperimentContext(SMALL)
        store = ctx.pdns_database()
        assert isinstance(store, SegmentedPdnsStore)
        assert store.root.parent == tmp_path
        assert len(store) == 0

    def test_each_run_gets_a_fresh_store(self, tmp_path, monkeypatch):
        from repro.dns.message import RRType
        monkeypatch.setenv("REPRO_PDNS_STORE", str(tmp_path))
        ctx = ExperimentContext(SMALL)
        first = ctx.pdns_database()
        first.ingest_rrs("2011-02-22", [("a.x.com", RRType.A, "1.1.1.1")])
        second = ctx.pdns_database()
        assert second.root != first.root
        assert len(second) == 0

    def test_leftover_store_not_reused(self, tmp_path, monkeypatch):
        from repro.dns.message import RRType
        from repro.pdns.store import SegmentedPdnsStore
        monkeypatch.setenv("REPRO_PDNS_STORE", str(tmp_path))
        leftover = SegmentedPdnsStore(tmp_path / "small-run0")
        leftover.ingest_rrs("2011-02-22",
                            [("a.x.com", RRType.A, "1.1.1.1")])
        ctx = ExperimentContext(SMALL)
        store = ctx.pdns_database()
        assert store.root != leftover.root
        assert len(store) == 0
