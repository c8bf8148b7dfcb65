"""Every golden-corpus case still gives the bytes recorded in ``digests.json``.

A mismatch means a change moved model bytes or predictions.  If that
change is meant, re-record from a commit known to be right (see
``record.py``) and list the re-record in ``CHANGES.md``.
"""

import json

import pytest

import record


def test_recorded_cases_are_the_case_list():
    recorded = json.loads(record.DIGESTS.read_text(encoding="utf-8"))["cases"]
    assert sorted(recorded) == sorted(record.names())


def test_every_case_gives_its_recorded_digests():
    doc = json.loads(record.DIGESTS.read_text(encoding="utf-8"))
    for name in record.names():
        got = record.case_digest(name)
        if got != doc["cases"].get(name):
            pytest.fail(f"golden case {name!r} changed: {got} != {doc['cases'].get(name)}; "
                        f"recorded in {doc['environment']}, run in {record.environment()}")
