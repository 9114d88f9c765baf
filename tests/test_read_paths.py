"""Reads with and without a probe set agree on every golden walk file, and
the probe sets of a fixed sample keep their sizes: spill-tree reads with a
probe set walk from the root, reads without one start from the frontier."""

import json
import random

import pytest

from golden_corpus import ANSWERS, GOLDEN_DIR
from walkstore.storefile import store_from_bytes

CORPUS = json.loads(ANSWERS.read_text())
WALK_FILES = sorted(name for name, case in CORPUS.items() if case["mode"] != "dictionary")

# len(probes) at 12 positions drawn by random.Random(name).randrange(n + 1)
PROBE_SIZES = {
    "general_blocked": [5, 4, 3, 3, 3, 3, 3, 3, 3, 4, 4, 3],
    "general_packed": [2, 2, 3, 2, 2, 3, 1, 3, 2, 3, 3, 3],
    "general_plain": [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    "general_spill_tree": [7, 10, 5, 5, 9, 4, 4, 10, 4, 9, 3, 7],
    "general_spill_tree_b3": [5, 5, 7, 7, 9, 5, 6, 4, 7, 7, 5, 7],
    "periodic": [2, 2, 3, 2, 3, 2, 2, 3, 3, 2, 2, 2],
    "pointwise": [3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3],
    "regular_blocked": [5, 4, 5, 4, 3, 5, 5, 6, 5, 4, 4, 4],
    "regular_blocked_b3": [5, 6, 5, 6, 5, 5, 5, 5, 5, 5, 6, 3],
    "regular_online": [5, 4, 4, 2, 4, 4, 5, 6, 6, 5, 6, 8],
    "regular_packed": [2, 2, 2, 2, 2, 2, 2, 3, 3, 2, 2, 2],
    "regular_plain": [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    "regular_spill_tree": [10, 10, 8, 12, 10, 12, 5, 10, 6, 6, 7, 8],
    "scc": [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
}


def _load(name):
    return store_from_bytes((GOLDEN_DIR / f"{name}.bin").read_bytes())


def test_every_walk_file_has_pinned_probe_sizes():
    assert sorted(PROBE_SIZES) == WALK_FILES


@pytest.mark.parametrize("name", WALK_FILES)
def test_reads_agree_with_and_without_probes(name):
    store = _load(name)
    for q in range(store.n + 1):
        assert store.vertex_at(q) == store.vertex_at(q, set())


@pytest.mark.parametrize("name", WALK_FILES)
def test_probe_set_sizes_are_pinned(name):
    store = _load(name)
    rng = random.Random(name)
    sizes = []
    for q in [rng.randrange(store.n + 1) for _ in range(12)]:
        probes = set()
        store.vertex_at(q, probes)
        sizes.append(len(probes))
    assert sizes == PROBE_SIZES[name]
