"""Online serving layer: the high-QPS ``repro serve`` daemon.

Everything below is the *service surface* of the reproduction — the
one subpackage allowed to sit above every library layer (rule R003)
and the package library code must never import back (rule R017):

* :mod:`repro.service.engine` — the
  :class:`~repro.service.engine.ClassificationEngine`, which scores
  every (zone, depth) group once at load and serves from the frozen
  verdict table.
* :mod:`repro.service.batching` — the request queue whose single
  worker thread makes every engine call.
* :mod:`repro.service.http` — the stdlib HTTP/JSON API
  (``/classify``, ``/metrics``, ``/healthz``).
* :mod:`repro.service.app` — wiring from experiment artifacts
  (simulated day + trained model) to a running daemon.
"""

from repro.service.batching import MicroBatcher
from repro.service.engine import ClassificationEngine, EngineConfig, Verdict
from repro.service.http import ClassifyServer, make_server

__all__ = [
    "ClassificationEngine", "EngineConfig", "Verdict",
    "MicroBatcher",
    "ClassifyServer", "make_server",
]
