"""Service-layer fixtures: a tiny serving engine shared by the suite.

The expensive artifacts (simulated day → digest, trained + compiled
model) are session-scoped; the engine itself is function-scoped
because tests read its counters.
"""

from __future__ import annotations

import pytest

from repro.core.classifier import LadTreeClassifier
from repro.core.classifier.compiled import compile_lad_tree
from repro.core.features import FeatureExtractor
from repro.core.hitrate import hit_rates_from_digest
from repro.core.interning import build_day_digest
from repro.core.labeling import build_training_set
from repro.core.ranking import build_tree_from_digest
from repro.service.engine import ClassificationEngine


@pytest.fixture(scope="session")
def tiny_digest(tiny_day):
    return build_day_digest(tiny_day)


@pytest.fixture(scope="session")
def tiny_compiled_model(tiny_simulator, tiny_digest):
    tree = build_tree_from_digest(tiny_digest)
    extractor = FeatureExtractor(tree, hit_rates_from_digest(tiny_digest))
    training = build_training_set(tiny_simulator.labeled_zones(),
                                  tree, extractor)
    return compile_lad_tree(LadTreeClassifier().fit(training.X, training.y))


@pytest.fixture
def tiny_engine(tiny_digest, tiny_compiled_model):
    return ClassificationEngine.from_digest(tiny_digest,
                                            tiny_compiled_model)


@pytest.fixture(scope="session")
def tiny_stream(tiny_digest):
    """The day's first below-stream queries, replayed in arrival order
    (hot names repeat; NXDOMAIN, apex and invalid-ish shapes appear)."""
    table = tiny_digest.names
    return [table.name(int(nid))
            for nid in tiny_digest.below.name_ids[:600]]
