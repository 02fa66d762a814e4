"""Correctness gates: a tampered section or a wrong verdict fails."""

import json

from classify_runs import Request, verify
from openloop import Outcome, StepResult
from repro_runs import failed_sections, section_digests


def oracle_for(sections):
    return [{"id": f"s{index}", "title": text.splitlines()[0],
             "sha256": digest}
            for index, (text, digest) in enumerate(
                zip(sections, section_digests(sections)))]


def test_identical_sections_pass():
    sections = ["Figure 2\na 1", "Figure 3\nb 2", "Table I\nc 3"]
    assert failed_sections(sections, oracle_for(sections)) == []


def test_a_tampered_section_fails_alone():
    sections = ["Figure 2\na 1", "Figure 3\nb 2", "Table I\nc 3"]
    tampered = list(sections)
    tampered[1] = "Figure 3\nb 3"
    assert failed_sections(tampered, oracle_for(sections)) == ["s1"]


def test_missing_and_extra_sections_fail():
    sections = ["A\n1", "B\n2", "C\n3"]
    oracle = oracle_for(sections)
    assert failed_sections(sections[:1], oracle) == ["s1", "s2"]
    assert failed_sections(sections + ["D\n4"], oracle) == ["extra-0"]


def _step(bodies, statuses):
    outcomes = [Outcome(0.0, 0.0, 0.0, 0.001, status, body)
                for body, status in zip(bodies, statuses)]
    return StepResult(outcomes, 0, 1)


def test_a_wrong_verdict_fails_the_request():
    right = {"qname": "a.example.com", "zone": "example.com", "depth": 3,
             "reason": "classified", "disposable": True, "score": 1.25,
             "probability": 0.9, "group_size": 7}
    wrong = dict(right, probability=0.8999999999999999)
    requests = [Request(["a.example.com"], b"", right)] * 3
    step = _step([json.dumps(right).encode(), json.dumps(wrong).encode(),
                  b"not json"], [200, 200, 200])
    verify(step, requests)
    assert [outcome.ok for outcome in step.outcomes] == [True, False, False]
    assert step.failed() == 2


def test_a_non_200_answer_fails_the_request():
    requests = [Request(["x"], b"", {"verdicts": []})]
    step = _step([b'{"verdicts": []}'], [503])
    verify(step, requests)
    assert step.failed() == 1
