"""Qname classification engine over a precomputed verdict table.

The offline pipeline answers "which (zone, depth) groups of this day
are disposable?"; the serving engine answers the online question —
"is *this qname* disposable?" — at high QPS.  One engine instance
holds:

* a :class:`~repro.core.classifier.compiled.CompiledLadTree` (the
  fitted LAD tree flattened into parallel stump arrays),
* the day's mining tree and hit-rate table, wrapped in a
  :class:`~repro.core.features.FeatureExtractor`, and
* a frozen ``(zone, depth) → verdict`` table.  The tree, hit rates and
  model never change after construction, and a group's members come
  from the tree, not from the request, so every group verdict is a
  pure function of a key set fixed at load.  The constructor scores
  every qualifying group once, in one stacked ``decision_function``
  call, and serving never extracts features again.

Two code paths produce :class:`Verdict` objects:

* :meth:`ClassificationEngine.classify_one` — the per-name **oracle**:
  it never reads the table; one fresh ``depth_groups`` walk and one
  1-row ``decision_function`` call per qname.  Slow by construction;
  it defines the semantics.
* :meth:`ClassificationEngine.classify_batch` — the serving path:
  per qname, resolve (normalize → effective 2LD → depth) and one table
  probe.  A key the table lacks is an ``unknown-group``.

The two return *exactly* the same verdicts (dataclass equality,
asserted while timed in ``tools/bench_serve.py``): the compiled model
scores each row independently of its batchmates, and the sigmoid is
evaluated with the same scalar ``math.exp`` in both paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.classifier.compiled import CompiledLadTree
from repro.core.features import FeatureExtractor
from repro.core.hitrate import HitRateTable, hit_rates_from_digest
from repro.core.interning import DayDigest
from repro.core.names import InvalidDomainError, label_count, normalize
from repro.core.ranking import build_tree_from_digest
from repro.core.suffix import SuffixList, default_suffix_list
from repro.core.tree import DomainNameTree

__all__ = ["EngineConfig", "Verdict", "ClassificationEngine"]

GroupKey = Tuple[str, int]


@dataclass(frozen=True)
class EngineConfig:
    """Serving-side tunables.

    ``threshold`` mirrors the miner's θ: a group is called disposable
    when P(disposable) ≥ θ.  ``min_group_size`` mirrors the miner's
    guard against statistically meaningless groups.
    """

    threshold: float = 0.9
    min_group_size: int = 5

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError(
                f"threshold must be in (0, 1], got {self.threshold}")
        if self.min_group_size < 1:
            raise ValueError(
                f"min_group_size must be >= 1, got {self.min_group_size}")


@dataclass(frozen=True)
class Verdict:
    """The engine's answer for one qname.

    ``reason`` says how the verdict was reached:

    * ``"classified"`` — the qname sits in a scorable (zone, depth)
      group; ``score``/``probability`` are the model outputs.
    * ``"zone-apex"`` — the qname *is* its own registrable domain, so
      it heads groups rather than belonging to one.
    * ``"unknown-group"`` — the loaded mining tree has no group at the
      qname's (zone, depth) position.
    * ``"small-group"`` — the group exists but is below
      ``min_group_size``; the miner would never classify it.
    * ``"no-zone"`` — the qname has no registrable parent (it is an
      effective TLD).
    * ``"invalid-name"`` — the string is not a domain name.
    """

    qname: str
    zone: str
    depth: int
    reason: str
    disposable: bool
    score: float
    probability: float
    group_size: int

    def to_json(self) -> Dict[str, object]:
        return {"qname": self.qname, "zone": self.zone,
                "depth": self.depth, "reason": self.reason,
                "disposable": self.disposable, "score": self.score,
                "probability": self.probability,
                "group_size": self.group_size}


@dataclass(frozen=True)
class _GroupVerdict:
    """Per-(zone, depth) outcome, shared by every member qname."""

    reason: str
    disposable: bool
    score: float
    probability: float
    group_size: int


def _small_group(group_size: int) -> _GroupVerdict:
    return _GroupVerdict(reason="small-group", disposable=False, score=0.0,
                         probability=0.0, group_size=group_size)


def _probability(score: float) -> float:
    """P(disposable) from the additive score — the LogitBoost link.

    Scalar ``math.exp`` on purpose: both engine paths call this exact
    function, so a verdict's probability never depends on whether the
    score came from a 1-row or an N-row ``decision_function`` call.
    """
    z = -2.0 * score
    if z > 700.0:        # math.exp overflows past ~709
        return 0.0
    return 1.0 / (1.0 + math.exp(z))


class ClassificationEngine:
    """Online qname classifier over one day's mining state."""

    def __init__(self, model: CompiledLadTree, tree: DomainNameTree,
                 hit_rates: HitRateTable, *,
                 suffixes: Optional[SuffixList] = None,
                 config: Optional[EngineConfig] = None) -> None:
        self.config = config or EngineConfig()
        self._model = model
        self._tree = tree
        self._extractor = FeatureExtractor(tree, hit_rates)
        self._suffixes = suffixes or default_suffix_list()
        # Monotonic counters for /metrics (ints; read without locking).
        self.single_calls = 0
        self.batch_calls = 0
        self.names_classified = 0
        self.groups_extracted = 0
        self.disposable_verdicts = 0
        self._table = self._build_table()

    @classmethod
    def from_digest(cls, digest: DayDigest, model: CompiledLadTree, *,
                    suffixes: Optional[SuffixList] = None,
                    config: Optional[EngineConfig] = None
                    ) -> "ClassificationEngine":
        """Engine over a columnar day digest: the mining tree and the
        hit-rate table both come from the digest columns, exactly as
        the daily pipeline builds them."""
        return cls(model, build_tree_from_digest(digest),
                   hit_rates_from_digest(digest),
                   suffixes=suffixes, config=config)

    @property
    def table_groups(self) -> int:
        """Entries in the verdict table: every (zone, depth) group."""
        return len(self._table)

    # -- the verdict table -----------------------------------------------

    def _zones(self) -> List[str]:
        """Every tree node a qname can resolve to as its zone: a node
        with a black descendant that is its own registrable domain.

        Walks all nodes, not only the 2LDs of black names: under a
        suffix rule nested below a registrable domain (``y.example.com``
        with black ``h0.y.example.com``) the zone ``example.com`` has
        no black name of its own, yet ``q.x.example.com`` resolves to
        it and its depth-4 group.
        """
        return [node.name for node in self._tree.root.iter_descendants()
                if node.has_black_descendant()
                and self._suffixes.effective_2ld(node.name) == node.name]

    def _build_table(self) -> Dict[GroupKey, _GroupVerdict]:
        """Score every (zone, depth) group once: small groups get their
        terminal entry, qualifying ones are feature-extracted and scored
        in one stacked model call."""
        table: Dict[GroupKey, _GroupVerdict] = {}
        qualifying: List[Tuple[GroupKey, List[str]]] = []
        for zone in self._zones():
            for depth, group in self._tree.depth_groups(zone).items():
                if len(group) < self.config.min_group_size:
                    table[(zone, depth)] = _small_group(len(group))
                else:
                    qualifying.append(((zone, depth), group))
        if qualifying:
            matrix = np.vstack([
                self._extractor.features_for(zone, depth, group).vector()
                for (zone, depth), group in qualifying])
            self.groups_extracted += len(qualifying)
            scores = self._model.decision_function(matrix)
            for (key, group), score in zip(qualifying, scores):
                table[key] = self._classified(float(score), len(group))
        return table

    # -- name resolution -----------------------------------------------

    def _resolve(self, qname: str) -> Tuple[str, str, int, Optional[str]]:
        """``(normalized, zone, depth, terminal_reason)`` for a qname.

        ``terminal_reason`` is non-``None`` when the name cannot be a
        group member (invalid / no zone / zone apex); otherwise
        ``(zone, depth)`` is a well-formed group key.
        """
        try:
            name = normalize(qname)
        except InvalidDomainError:
            return qname, "", 0, "invalid-name"
        depth = label_count(name)
        zone = self._suffixes.effective_2ld(name)
        if zone is None:
            return name, "", depth, "no-zone"
        if depth <= label_count(zone):
            return name, zone, depth, "zone-apex"
        return name, zone, depth, None

    def _terminal(self, qname: str, zone: str, depth: int,
                  reason: str) -> Verdict:
        return Verdict(qname=qname, zone=zone, depth=depth, reason=reason,
                       disposable=False, score=0.0, probability=0.0,
                       group_size=0)

    def _verdict(self, qname: str, zone: str, depth: int,
                 group: _GroupVerdict) -> Verdict:
        return Verdict(qname=qname, zone=zone, depth=depth,
                       reason=group.reason, disposable=group.disposable,
                       score=group.score, probability=group.probability,
                       group_size=group.group_size)

    def _classified(self, score: float, group_size: int) -> _GroupVerdict:
        probability = _probability(score)
        return _GroupVerdict(reason="classified",
                             disposable=probability >= self.config.threshold,
                             score=score, probability=probability,
                             group_size=group_size)

    def _score_group(self, zone: str, depth: int,
                     group: List[str]) -> _GroupVerdict:
        """Extract one group's features and score it (1-row call)."""
        features = self._extractor.features_for(zone, depth, group)
        self.groups_extracted += 1
        score = float(self._model.decision_function(
            features.vector().reshape(1, -1))[0])
        return self._classified(score, len(group))

    # -- the per-name oracle ---------------------------------------------

    def classify_one(self, qname: str) -> Verdict:
        """Classify one qname the slow, obvious way.

        Never reads the verdict table: a fresh ``depth_groups`` walk
        and a 1-row model call per invocation.  This is the oracle the
        table path is equality-tested against — and the "before" side
        of the serving benchmark.
        """
        self.single_calls += 1
        self.names_classified += 1
        name, zone, depth, terminal = self._resolve(qname)
        if terminal is not None:
            return self._terminal(name, zone, depth, terminal)
        group = self._tree.depth_groups(zone).get(depth)
        if group is None:
            return self._terminal(name, zone, depth, "unknown-group")
        if len(group) < self.config.min_group_size:
            outcome = _small_group(len(group))
        else:
            outcome = self._score_group(zone, depth, group)
        verdict = self._verdict(name, zone, depth, outcome)
        if verdict.disposable:
            self.disposable_verdicts += 1
        return verdict

    # -- the serving path ------------------------------------------------

    def classify_batch(self, qnames: Sequence[str]) -> List[Verdict]:
        """Classify ``qnames`` by resolution plus one table probe each.

        Returns one :class:`Verdict` per input qname, in input order,
        bit-identical to :meth:`classify_one` on each.
        """
        self.batch_calls += 1
        self.names_classified += len(qnames)
        verdicts = [self._lookup(qname) for qname in qnames]
        self.disposable_verdicts += sum(1 for verdict in verdicts
                                        if verdict.disposable)
        return verdicts

    def _lookup(self, qname: str) -> Verdict:
        name, zone, depth, terminal = self._resolve(qname)
        if terminal is None:
            group = self._table.get((zone, depth))
            if group is not None:
                return self._verdict(name, zone, depth, group)
            terminal = "unknown-group"
        return self._terminal(name, zone, depth, terminal)

    # -- metrics -----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {"single_calls": self.single_calls,
                "batch_calls": self.batch_calls,
                "names_classified": self.names_classified,
                "groups_extracted": self.groups_extracted,
                "disposable_verdicts": self.disposable_verdicts}
