"""The walk stores of the golden corpus in store format version 2: every file
loads, answers, re-serialises and is rebuilt byte for byte, and holds the
same store as its version 1 file (see golden_corpus.py)."""

import json

import pytest

from golden_corpus import ANSWERS, GOLDEN_DIR, V2_DIR, build_case, file_bytes
from walkstore.storefile import store_from_bytes

CORPUS = json.loads(ANSWERS.read_text())
WALK_CASES = sorted(name for name, case in CORPUS.items() if case["mode"] != "dictionary")


def test_v2_set_holds_every_walk_case():
    assert sorted(p.stem for p in V2_DIR.glob("*.bin")) == WALK_CASES


@pytest.mark.parametrize("name", WALK_CASES)
def test_v2_golden_file_answers_and_reserialises(name):
    data = (V2_DIR / f"{name}.bin").read_bytes()
    assert data[4] == 2
    store = store_from_bytes(data)
    case = CORPUS[name]
    assert [store.vertex_at(p) for p in case["positions"]] == case["answers"]
    assert file_bytes(store, version=2) == data
    assert file_bytes(store, version=1) == (GOLDEN_DIR / f"{name}.bin").read_bytes()


@pytest.mark.parametrize("name", WALK_CASES)
def test_v2_golden_file_rebuilds_identically(name):
    store, _ = build_case(CORPUS[name])
    assert file_bytes(store, version=2) == (V2_DIR / f"{name}.bin").read_bytes()


def test_v2_golden_online_store_equals_batch_blocked():
    online = (V2_DIR / "regular_online.bin").read_bytes()
    assert online == (V2_DIR / "regular_blocked.bin").read_bytes()
