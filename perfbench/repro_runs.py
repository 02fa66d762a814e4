"""The ``repro-cold`` and ``repro-warm`` workloads: ``repro all``.

Each run starts ``python -m repro all --profile small`` in a fresh
subprocess and reads its output line by line as it arrives.  The CLI
prints every experiment section followed by one blank line, so the
arrival time of each blank line ends a section.  A section's latency
is the time from the start of the process to its output: all 18 are
asked for at once, as an open loop's requests are due at once.  The
child's peak RSS comes from ``wait4``.

Correctness: each of the 18 sections is compared, by SHA-256, with the
section the serial, cache-less run printed when ``oracle.json`` was
recorded (``run.py --record-oracle``), for the same pDNS backend
setting.  A differing or missing section is one failed op.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

__all__ = ["PROFILE", "ReproRun", "run_repro", "fill_artifact_cache",
           "time_import", "section_digests", "failed_sections",
           "load_oracle", "record_oracle", "BACKENDS"]

PROFILE = "small"

ORACLE_PATH = Path(__file__).resolve().parent / "oracle.json"

#: Oracle key per pDNS backend setting (``REPRO_PDNS_STORE`` unset/set).
BACKENDS = ("memory", "segmented")

_FILL_SCRIPT = """
from repro.experiments.context import {profile}, get_context
from repro.traffic.simulate import PAPER_DATES
get_context({profile}).dataset(PAPER_DATES[-1])
"""


@dataclass
class ReproRun:
    wall_s: float
    peak_rss_mib: float
    returncode: int
    sections: List[str] = field(default_factory=list)
    section_ms: List[float] = field(default_factory=list)

    @property
    def done_ms(self) -> List[float]:
        """Each section's latency: process start to its output."""
        return list(itertools.accumulate(self.section_ms))


def child_env(extra: Optional[Mapping[str, str]] = None) -> Dict[str, str]:
    """The parent's environment with ``src`` importable and no cache
    knob inherited by accident."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.abspath("src")
    env.update(extra or {})
    return env


def run_repro(env: Mapping[str, str], log_path: Path,
              trace_path: Optional[Path] = None) -> ReproRun:
    """One ``repro all`` subprocess, traced through ``layers.py`` when
    ``trace_path`` is given."""
    if trace_path is None:
        command = [sys.executable, "-u", "-m", "repro"]
    else:
        command = [sys.executable, "-u",
                   str(Path(__file__).resolve().parent / "layers.py"),
                   "--trace-out", str(trace_path), "--"]
    command += ["all", "--profile", PROFILE]
    sections: List[str] = []
    section_ms: List[float] = []
    lines: List[str] = []
    with open(log_path, "wb") as log:
        start = time.monotonic()
        child = subprocess.Popen(command, stdout=subprocess.PIPE,
                                 stderr=log, env=dict(env), text=True)
        assert child.stdout is not None
        try:
            mark = start
            for line in child.stdout:
                if line.strip():
                    lines.append(line.rstrip("\n"))
                    continue
                now = time.monotonic()
                sections.append("\n".join(lines))
                section_ms.append((now - mark) * 1000.0)
                lines = []
                mark = now
        except BaseException:
            child.kill()
            raise
        finally:
            child.stdout.close()
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.monotonic() - start
            child.returncode = os.waitstatus_to_exitcode(status)
    return ReproRun(wall, usage.ru_maxrss / 1024.0, child.returncode,
                    sections, section_ms)


def fill_artifact_cache(env: Mapping[str, str], log_path: Path) -> float:
    """Simulate the whole calendar into ``REPRO_ARTIFACT_CACHE``;
    returns the wall time."""
    script = _FILL_SCRIPT.format(profile=PROFILE.upper())
    with open(log_path, "wb") as log:
        start = time.monotonic()
        subprocess.run([sys.executable, "-c", script], env=dict(env),
                       stdout=log, stderr=log, check=True)
        return time.monotonic() - start


def time_import(env: Mapping[str, str]) -> float:
    """Wall time of a fresh interpreter importing the CLI."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", "import repro.experiments.cli"],
                   env=dict(env), check=True)
    return time.monotonic() - start


def section_digests(sections: Sequence[str]) -> List[str]:
    return [hashlib.sha256(text.encode("utf-8")).hexdigest()
            for text in sections]


def failed_sections(sections: Sequence[str],
                    oracle: Sequence[Mapping[str, str]]) -> List[str]:
    """Ids of oracle sections the run did not reproduce exactly."""
    digests = section_digests(sections)
    failed = [entry["id"] for index, entry in enumerate(oracle)
              if index >= len(digests) or digests[index] != entry["sha256"]]
    extra = len(digests) - len(oracle)
    failed.extend(f"extra-{index}" for index in range(max(0, extra)))
    return failed


def load_oracle() -> Dict[str, List[Dict[str, str]]]:
    with open(ORACLE_PATH) as handle:
        return json.load(handle)["sections"]


def record_oracle(work: Path) -> None:
    """Re-record ``oracle.json`` from serial, cache-less runs."""
    from repro.experiments.cli import EXPERIMENTS

    recorded: Dict[str, List[Dict[str, str]]] = {}
    for backend in BACKENDS:
        extra: Dict[str, str] = {}
        if backend == "segmented":
            store = work / "oracle-pdns"
            shutil.rmtree(store, ignore_errors=True)
            store.mkdir(parents=True)
            extra["REPRO_PDNS_STORE"] = str(store)
        run = run_repro(child_env(extra), work / f"oracle-{backend}.log")
        if run.returncode != 0 or len(run.sections) != len(EXPERIMENTS):
            raise RuntimeError(f"oracle run ({backend}) failed: "
                               f"rc={run.returncode}, "
                               f"{len(run.sections)} sections")
        recorded[backend] = [
            {"id": experiment_id, "title": text.splitlines()[0],
             "sha256": digest}
            for experiment_id, text, digest in zip(
                EXPERIMENTS, run.sections, section_digests(run.sections))]
    document = {
        "profile": PROFILE,
        "recorded_from": "serial, cache-less `python -m repro all "
                         f"--profile {PROFILE}`; 'segmented' sets "
                         "REPRO_PDNS_STORE to a fresh directory",
        "sections": recorded,
    }
    with open(ORACLE_PATH, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
