"""Wiring: build a serving engine/daemon from experiment artifacts.

The daemon needs three artifacts: a trained model, a mining tree and a
hit-rate table.  This module sources them the same way the offline
experiments do — an :class:`~repro.experiments.context.ExperimentContext`
simulates (or cache-loads) the reference day and trains the
classifier — with an optional escape hatch to load a persisted model
(``repro-lad-tree-v1`` or the compiled form) from disk instead of
training, the production shape where the training job and the serving
fleet are different machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.classifier.compiled import CompiledLadTree, compile_lad_tree
from repro.core.classifier.persistence import load_compiled_lad_tree
from repro.experiments.context import MEDIUM, SMALL, ScaleProfile, get_context
from repro.service.engine import ClassificationEngine, EngineConfig
from repro.service.http import ClassifyServer, make_server
from repro.traffic.simulate import PAPER_DATES

__all__ = ["ServeSettings", "PROFILES", "build_engine", "build_server"]

PROFILES = {"small": SMALL, "medium": MEDIUM}


@dataclass(frozen=True)
class ServeSettings:
    """Everything ``repro serve`` needs to stand up a daemon."""

    host: str = "127.0.0.1"
    port: int = 8053
    profile: str = "small"
    model_path: Optional[str] = None
    threshold: float = 0.9
    min_group_size: int = 5

    def engine_config(self) -> EngineConfig:
        return EngineConfig(threshold=self.threshold,
                            min_group_size=self.min_group_size)

    def scale_profile(self) -> ScaleProfile:
        if self.profile not in PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}; "
                             f"expected one of {sorted(PROFILES)}")
        return PROFILES[self.profile]


def build_engine(settings: ServeSettings) -> ClassificationEngine:
    """Engine over the last paper date of the settings' profile.

    The context call simulates (or artifact-cache-loads) the calendar
    up to that day; the model comes from ``model_path`` when given,
    else from training on the context's labeled zones.
    """
    context = get_context(settings.scale_profile())
    reference_date = PAPER_DATES[-1]
    digest = context.digest(reference_date)
    model: CompiledLadTree
    if settings.model_path is not None:
        model = load_compiled_lad_tree(settings.model_path)
    else:
        model = compile_lad_tree(context.classifier())
    return ClassificationEngine.from_digest(
        digest, model, config=settings.engine_config())


def build_server(settings: ServeSettings,
                 engine: Optional[ClassificationEngine] = None
                 ) -> ClassifyServer:
    """A bound (not yet serving) daemon for ``settings``."""
    if engine is None:
        engine = build_engine(settings)
    return make_server(engine, settings.host, settings.port)
