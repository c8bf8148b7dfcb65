"""Every golden-corpus case still gives the bytes recorded in ``digests.json``.

A mismatch means a change moved model bytes or predictions.  If that
change is meant, re-record from a commit known to be right (see
``record.py``) and list the re-record in ``CHANGES.md``.
"""

import json

import numpy as np
import pytest

import record


def _strided(a):
    return np.repeat(a, 2, axis=0)[::2]


def _reversed(a):
    return a[::-1].copy()[::-1]


# copies of a C-ordered array in other layouts, one per case in turn
LAYOUTS = (np.asfortranarray, _strided, _reversed)


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


def test_every_case_gives_its_recorded_digests_on_other_layouts():
    # A fit copies an input that is not C-ordered, so its bytes depend on the values alone.
    doc = json.loads(record.DIGESTS.read_text(encoding="utf-8"))
    changed = []
    for i, name in enumerate(record.names()):
        layout = LAYOUTS[i % len(LAYOUTS)]
        if record.case_digest(name, layout) != doc["cases"].get(name):
            changed.append(f"{name} ({layout.__name__})")
    assert changed == [], f"golden cases changed on another layout of their inputs: {changed}"
