"""Pinned store files: every kind and strategy loads, answers, and is written
back and rebuilt byte for byte (see golden_corpus.py)."""

import json

import pytest

from golden_corpus import ANSWERS, GOLDEN_DIR, build_case, file_bytes
from walkstore import SuccinctDictionary
from walkstore.storefile import store_from_bytes

CORPUS = json.loads(ANSWERS.read_text())


def _load(name):
    data = (GOLDEN_DIR / f"{name}.bin").read_bytes()
    if CORPUS[name]["mode"] == "dictionary":
        return data, SuccinctDictionary.from_bytes(data)
    return data, store_from_bytes(data)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_file_answers_and_reserialises(name):
    data, store = _load(name)
    case = CORPUS[name]
    read = store.get if case["mode"] == "dictionary" else store.vertex_at
    assert [read(p) for p in case["positions"]] == case["answers"]
    assert file_bytes(store) == data


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_file_rebuilds_identically(name):
    store, _ = build_case(CORPUS[name])
    assert file_bytes(store) == (GOLDEN_DIR / f"{name}.bin").read_bytes()


def test_golden_online_store_equals_batch_blocked():
    online = (GOLDEN_DIR / "regular_online.bin").read_bytes()
    assert online == (GOLDEN_DIR / "regular_blocked.bin").read_bytes()
