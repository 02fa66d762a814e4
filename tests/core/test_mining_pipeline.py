"""The digest mining pipeline against the legacy per-entry path.

The contract under test is *provable equivalence*: mining each day of
a calendar through its columnar digest
(``DisposableZoneRanker.run_digest(digest_of(day))``) must produce the
legacy ``run_day`` result, day for day.
"""

import pytest

from repro.core.classifier import LadTreeClassifier
from repro.core.features import FeatureExtractor
from repro.core.hitrate import hit_rates_from_digest
from repro.core.interning import build_day_digest, digest_of
from repro.core.labeling import build_training_set
from repro.core.miner import MinerConfig
from repro.core.ranking import DisposableZoneRanker, build_tree_from_digest
from repro.traffic.simulate import (PAPER_DATES, TraceSimulator)

from tests.conftest import TINY_DATE, tiny_simulator_config


@pytest.fixture(scope="module")
def calendar():
    """Three simulated days plus a classifier trained on a fourth."""
    dates = sorted([*PAPER_DATES[:3], TINY_DATE], key=lambda d: d.day_index)
    simulator = TraceSimulator(tiny_simulator_config())
    days = dict(zip([date.label for date in dates],
                    simulator.run_days(dates)))
    digest = build_day_digest(days[TINY_DATE.label])
    tree = build_tree_from_digest(digest)
    extractor = FeatureExtractor(tree, hit_rates_from_digest(digest))
    training = build_training_set(simulator.labeled_zones(), tree, extractor)
    classifier = LadTreeClassifier().fit(training.X, training.y)
    datasets = [days[date.label] for date in PAPER_DATES[:3]]
    return datasets, classifier


@pytest.fixture(scope="module")
def oracle(calendar):
    """The legacy per-entry pipeline, day by day."""
    datasets, classifier = calendar
    ranker = DisposableZoneRanker(classifier, MinerConfig())
    return [ranker.run_day(dataset) for dataset in datasets]


def mine_digest(dataset, classifier):
    """The digest path: mine the day straight from its columns."""
    return DisposableZoneRanker(classifier, MinerConfig()).run_digest(
        digest_of(dataset))


def _assert_results_equal(reference, candidate):
    assert candidate.day == reference.day
    # Findings compared as sets: the legacy path orders them by `set`
    # iteration, the digest path by deterministic traversal order.
    assert set(candidate.findings) == set(reference.findings)
    assert candidate.queried_domains == reference.queried_domains
    assert candidate.resolved_domains == reference.resolved_domains
    assert candidate.distinct_rrs == reference.distinct_rrs
    assert candidate.disposable_queried == reference.disposable_queried
    assert candidate.disposable_resolved == reference.disposable_resolved
    assert candidate.disposable_rrs == reference.disposable_rrs


class TestMineDay:
    def test_equals_legacy_run_day(self, calendar, oracle):
        datasets, classifier = calendar
        for dataset, reference in zip(datasets, oracle):
            _assert_results_equal(reference,
                                  mine_digest(dataset, classifier))

    def test_findings_nonempty_somewhere(self, calendar):
        # The simulated calendar plants disposable zones; the pipeline
        # equivalence tests above would pass vacuously if nothing were
        # ever mined.
        datasets, classifier = calendar
        assert any(mine_digest(dataset, classifier).findings
                   for dataset in datasets)
