"""The verdict-table engine against its per-name oracle."""

from __future__ import annotations

import pytest

from repro.core.hitrate import HitRateTable
from repro.core.suffix import default_suffix_list
from repro.core.tree import DomainNameTree
from repro.service.engine import ClassificationEngine, EngineConfig

ODD_QNAMES = [
    "",                          # invalid: empty
    "bad..name",                 # invalid: empty label
    "-x" * 200 + ".example.com",  # invalid: oversized
    "co.uk",                     # an effective TLD: no registrable parent
    "example.com",               # its own registrable domain (apex)
    "WWW.Example.COM.",          # normalization required
    "a.b.never-seen-zone-qq.com",  # zone absent from the mining tree
]

#: A suffix rule nested under a registrable domain: ``example.com``
#: holds no black name of its own (every black name's registrable
#: domain is some ``hN.y.example.com``), yet ``q.x.example.com``
#: resolves to it and to its depth-4 group ``h0..h5.y.example.com``.
NESTED_RULE = "y.example.com"
NESTED_TREE = [f"h{i}.y.example.com" for i in range(6)]
NESTED_QNAMES = ["q.x.example.com", "q.example.com", "example.com",
                 "y.example.com", "h0.y.example.com",
                 "a.h0.y.example.com", "z.y.example.com"]


@pytest.fixture
def nested_engine(tiny_compiled_model):
    return ClassificationEngine(
        tiny_compiled_model, DomainNameTree(NESTED_TREE), HitRateTable({}),
        suffixes=default_suffix_list().extended([NESTED_RULE]))


class TestBatchOracleEquality:
    def test_batch_equals_oracle_on_replayed_traffic(self, tiny_engine,
                                                     tiny_stream):
        oracle = [tiny_engine.classify_one(q) for q in tiny_stream]
        assert tiny_engine.classify_batch(tiny_stream) == oracle

    def test_batch_equals_oracle_warm(self, tiny_engine, tiny_stream):
        oracle = [tiny_engine.classify_one(q) for q in tiny_stream]
        tiny_engine.classify_batch(tiny_stream)
        assert tiny_engine.classify_batch(tiny_stream) == oracle

    def test_batch_equals_oracle_on_every_black_name(self, tiny_engine):
        names = tiny_engine._tree.black_names()
        oracle = [tiny_engine.classify_one(q) for q in names]
        assert tiny_engine.classify_batch(names) == oracle
        assert {verdict.reason for verdict in oracle} >= {
            "classified", "small-group", "zone-apex"}

    def test_batch_equals_oracle_under_nested_suffix_rule(self,
                                                          nested_engine):
        oracle = [nested_engine.classify_one(q) for q in NESTED_QNAMES]
        assert nested_engine.classify_batch(NESTED_QNAMES) == oracle
        assert oracle[0].zone == "example.com"
        assert oracle[0].reason == "classified"

    def test_batch_equals_oracle_on_odd_names(self, tiny_engine):
        oracle = [tiny_engine.classify_one(q) for q in ODD_QNAMES]
        assert tiny_engine.classify_batch(ODD_QNAMES) == oracle

    def test_batch_size_does_not_change_verdicts(self, tiny_engine,
                                                 tiny_stream):
        whole = tiny_engine.classify_batch(tiny_stream)
        sliced = []
        for start in range(0, len(tiny_stream), 37):
            sliced.extend(
                tiny_engine.classify_batch(tiny_stream[start:start + 37]))
        assert sliced == whole


class TestVerdictReasons:
    @pytest.mark.parametrize("qname, reason", [
        ("", "invalid-name"),
        ("bad..name", "invalid-name"),
        ("co.uk", "no-zone"),
        ("example.com", "zone-apex"),
        ("a.b.never-seen-zone-qq.com", "unknown-group"),
    ])
    def test_terminal_reasons(self, tiny_engine, qname, reason):
        verdict = tiny_engine.classify_one(qname)
        assert verdict.reason == reason
        assert not verdict.disposable
        assert verdict.probability == 0.0

    def test_classified_reason_on_real_traffic(self, tiny_engine,
                                               tiny_stream):
        reasons = {tiny_engine.classify_one(q).reason
                   for q in tiny_stream}
        assert "classified" in reasons

    def test_normalization_in_verdict(self, tiny_engine):
        verdict = tiny_engine.classify_one("WWW.Example.COM.")
        assert verdict.qname == "www.example.com"

    def test_to_json_round_trips_fields(self, tiny_engine):
        verdict = tiny_engine.classify_one("example.com")
        document = verdict.to_json()
        assert document["qname"] == "example.com"
        assert document["reason"] == "zone-apex"
        assert set(document) == {"qname", "zone", "depth", "reason",
                                 "disposable", "score", "probability",
                                 "group_size"}


class TestEngineCaching:
    """The verdict table is built once; serving adds no state."""

    def test_warm_pass_extracts_nothing(self, tiny_engine, tiny_stream):
        extracted = tiny_engine.groups_extracted
        assert extracted > 0              # the table build scored groups
        tiny_engine.classify_batch(tiny_stream)
        tiny_engine.classify_batch(tiny_stream)
        assert tiny_engine.groups_extracted == extracted

    def test_no_engine_attribute_grows_with_traffic(self, tiny_engine,
                                                    tiny_stream):
        def sizes():
            return {name: len(value)
                    for name, value in vars(tiny_engine).items()
                    if hasattr(value, "__len__")}

        before = sizes()
        assert before["_table"] == tiny_engine.table_groups > 0
        novel = [f"n{index}x.{qname}"
                 for index, qname in enumerate(tiny_stream)]
        first = tiny_engine.classify_batch(tiny_stream + novel)
        assert tiny_engine.classify_batch(tiny_stream + novel) == first
        assert sizes() == before


class TestCountersAndConfig:
    def test_engine_counters(self, tiny_engine, tiny_stream):
        tiny_engine.classify_one(tiny_stream[0])
        tiny_engine.classify_batch(tiny_stream[:10])
        stats = tiny_engine.stats()
        assert stats["single_calls"] == 1
        assert stats["batch_calls"] == 1
        assert stats["names_classified"] == 11

    def test_disposable_counter_counts_served_verdicts(self, tiny_engine,
                                                       tiny_stream):
        verdicts = tiny_engine.classify_batch(tiny_stream)
        expected = sum(1 for verdict in verdicts if verdict.disposable)
        assert tiny_engine.disposable_verdicts == expected
        # Serving the same traffic again doubles the count: the metric
        # tracks verdicts *served*, not distinct names.
        tiny_engine.classify_batch(tiny_stream)
        assert tiny_engine.disposable_verdicts == 2 * expected

    @pytest.mark.parametrize("kwargs", [
        {"threshold": 0.0}, {"threshold": 1.5},
        {"min_group_size": 0},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)
