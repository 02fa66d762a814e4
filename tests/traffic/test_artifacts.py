"""Tests for the on-disk fpDNS artifact cache."""

import gzip

import pytest

from repro.dns.message import RCode, RRType
from repro.pdns.columnar import ColumnarFpDnsDataset
from repro.pdns.io import dumps_fpdns, load_fpdns, loads_fpdns, save_fpdns
from repro.pdns.records import FpDnsDataset, FpDnsEntry
from repro.traffic.artifacts import (ARTIFACT_FORMAT, COLUMNAR_SUFFIX,
                                     FpDnsArtifactCache, artifact_key)
from repro.traffic.population import PopulationConfig
from repro.traffic.simulate import PAPER_DATES, SimulatorConfig
from repro.traffic.workload import WorkloadConfig


def make_dataset(day="2011-02-01"):
    ds = FpDnsDataset(day=day)
    ds.below = [FpDnsEntry(10.123456789, 3, "www.a.com", RRType.A,
                           RCode.NOERROR, 300, "1.1.1.1"),
                FpDnsEntry(11.0, 4, "nx.b.com", RRType.A, RCode.NXDOMAIN)]
    ds.above = [FpDnsEntry(10.123456789, None, "www.a.com", RRType.A,
                           RCode.NOERROR, 600, "1.1.1.1")]
    return ds


class TestArtifactKey:
    def test_deterministic(self):
        config = SimulatorConfig()
        key_a = artifact_key(config, PAPER_DATES[:2])
        key_b = artifact_key(SimulatorConfig(), list(PAPER_DATES[:2]))
        assert key_a == key_b

    def test_config_change_invalidates(self):
        base = artifact_key(SimulatorConfig(), PAPER_DATES[:1])
        assert artifact_key(SimulatorConfig(cache_capacity=12_345),
                            PAPER_DATES[:1]) != base
        assert artifact_key(
            SimulatorConfig(workload=WorkloadConfig(seed=7)),
            PAPER_DATES[:1]) != base
        assert artifact_key(
            SimulatorConfig(population=PopulationConfig(n_popular_sites=7)),
            PAPER_DATES[:1]) != base

    def test_history_prefix_matters(self):
        """The same day after a different prefix is a different artifact
        (resolver caches persist across days)."""
        config = SimulatorConfig()
        key_fresh = artifact_key(config, PAPER_DATES[1:2])
        key_after = artifact_key(config, PAPER_DATES[:2])
        assert key_fresh != key_after

    def test_n_events_matters(self):
        config = SimulatorConfig()
        assert artifact_key(config, PAPER_DATES[:1], n_events=100) != \
            artifact_key(config, PAPER_DATES[:1])

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            artifact_key(SimulatorConfig(), [])

    def test_format_version_in_key_material(self):
        # Guard: bumping ARTIFACT_FORMAT must invalidate old keys.
        assert ARTIFACT_FORMAT == "repro-fpdns-cache-v1"


class TestCacheStore:
    def test_miss_then_hit(self, tmp_path):
        cache = FpDnsArtifactCache(tmp_path)
        key = artifact_key(SimulatorConfig(), PAPER_DATES[:1])
        assert cache.load(key) is None
        assert (cache.hits, cache.misses) == (0, 1)
        dataset = make_dataset()
        cache.store(key, dataset)
        loaded = cache.load(key)
        assert (cache.hits, cache.misses) == (1, 1)
        assert loaded.day == dataset.day
        assert loaded.below == dataset.below
        assert loaded.above == dataset.above

    def test_lossless_timestamps(self, tmp_path):
        """Full float precision survives the artifact round trip."""
        cache = FpDnsArtifactCache(tmp_path)
        cache.store("k", make_dataset())
        loaded = cache.load("k")
        assert loaded.below[0].timestamp == 10.123456789

    def test_config_change_misses(self, tmp_path):
        cache = FpDnsArtifactCache(tmp_path)
        cache.store(artifact_key(SimulatorConfig(), PAPER_DATES[:1]),
                    make_dataset())
        other = artifact_key(SimulatorConfig(cache_capacity=999),
                             PAPER_DATES[:1])
        assert cache.load(other) is None

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        cache = FpDnsArtifactCache(tmp_path)
        cache.store("k", make_dataset())
        # Truncate the artifact mid-payload.
        path = cache.path_for("k")
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        assert cache.load("k") is None
        assert cache.misses == 1

    def test_not_gzip_is_a_miss(self, tmp_path):
        cache = FpDnsArtifactCache(tmp_path)
        cache.path_for("k").write_text("plain text, not gzip")
        assert cache.load("k") is None

    def test_wrong_format_is_a_miss(self, tmp_path):
        cache = FpDnsArtifactCache(tmp_path)
        with gzip.open(cache.path_for("k"), "wt") as handle:
            handle.write("#some-other-format\n")
        assert cache.load("k") is None

    def test_len_counts_artifacts(self, tmp_path):
        cache = FpDnsArtifactCache(tmp_path)
        assert len(cache) == 0
        cache.store("k1", make_dataset("d1"))
        cache.store("k2", make_dataset("d2"))
        assert len(cache) == 2

    def test_store_is_atomic(self, tmp_path):
        cache = FpDnsArtifactCache(tmp_path)
        cache.store("k", make_dataset())
        # No .tmp files left behind after a publish.
        assert list(tmp_path.glob("*.tmp")) == []

    def test_creates_root(self, tmp_path):
        root = tmp_path / "nested" / "cache"
        FpDnsArtifactCache(root)
        assert root.is_dir()


    def test_stores_columnar_blobs(self, tmp_path):
        cache = FpDnsArtifactCache(tmp_path)
        assert cache.path_for("k").name == f"k{COLUMNAR_SUFFIX}"

    def test_corruption_matrix_every_mode_is_a_miss(self, tmp_path):
        """Truncation, bitflip, wrong version/format, zero-length:
        always a miss, never an exception."""
        cache = FpDnsArtifactCache(tmp_path)
        cache.store("k", make_dataset())
        pristine = cache.path_for("k").read_bytes()

        def corrupt(data):
            cache.path_for("k").write_bytes(data)
            assert cache.load("k") is None

        corrupt(pristine[:len(pristine) // 2])        # truncated
        flipped = bytearray(pristine)
        flipped[-1] ^= 0xFF
        corrupt(bytes(flipped))                       # payload bitflip
        corrupt(b"#some-other-format\ngarbage")       # wrong format tag
        corrupt(b"")                                  # zero-length
        assert cache.misses == 4
        # The pristine bytes still load fine afterwards.
        cache.path_for("k").write_bytes(pristine)
        assert cache.load("k") == make_dataset()


def roundtrip(backend, tmp_path, dataset):
    """Store and reload ``dataset`` through one on-disk format: the
    columnar artifact cache, or the gzip-TSV files of repro.pdns.io."""
    if backend == "columnar":
        cache = FpDnsArtifactCache(tmp_path)
        cache.store("k", dataset)
        return cache.load("k")
    path = tmp_path / "k.tsv.gz"
    save_fpdns(dataset, path)
    return load_fpdns(path)


class TestBothBackends:
    """A day survives both on-disk formats unchanged."""

    @pytest.mark.parametrize("backend", ["columnar", "tsv"])
    def test_roundtrip(self, tmp_path, backend):
        dataset = make_dataset()
        loaded = roundtrip(backend, tmp_path, dataset)
        assert loaded.day == dataset.day
        assert loaded.below == dataset.below
        assert loaded.above == dataset.above
        assert loaded == dataset

    @pytest.mark.parametrize("backend", ["columnar"])
    def test_atomic_publish_leaves_no_temps(self, tmp_path, backend):
        roundtrip(backend, tmp_path, make_dataset())
        # Only the published blob is left: no temps, no partial files.
        assert [p.name for p in tmp_path.iterdir()] == [
            f"k{COLUMNAR_SUFFIX}"]


class TestCrossFormatEquality:
    """The gzip-TSV format of :mod:`repro.pdns.io` is the oracle: a
    cached day must equal the same day round-tripped through it."""

    def test_loaded_days_identical_across_backends(self, tmp_path):
        dataset = make_dataset()
        cache = FpDnsArtifactCache(tmp_path)
        cache.store("k", dataset)
        loaded = cache.load("k")
        oracle = loads_fpdns(dumps_fpdns(dataset))
        assert isinstance(loaded, ColumnarFpDnsDataset)
        assert loaded.day == oracle.day
        assert loaded.below == oracle.below
        assert loaded.above == oracle.above
        assert loaded == oracle
        assert loaded == dataset

    def test_columnar_roundtrips_a_tsv_loaded_day(self, tmp_path):
        """tsv -> load -> columnar store -> load is still the same day."""
        dataset = make_dataset()
        cache = FpDnsArtifactCache(tmp_path)
        cache.store("k", loads_fpdns(dumps_fpdns(dataset)))
        assert cache.load("k") == dataset
