"""The pinned golden corpus: one small store file per store kind and strategy.

Each case is a recipe (graph, walk length, seed, mode, strategy and an
optional codec branching, 2 when absent) that rebuilds its store from
scratch, plus the positions whose answers the corpus records.
``tests/golden/`` holds the files this module wrote in store format
version 1 and ``answers.json`` the recipes and the expected answers;
test_golden.py checks that every file loads, answers, re-serialises byte
for byte and is rebuilt byte for byte.  ``tests/golden/v2/`` holds the
same walk stores in version 2 (test_golden_v2.py); the dictionary has its
own container and no version, so it has no v2 file.

Regenerate (only when a format change is intended):

    PYTHONPATH=src python tests/golden_corpus.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from walkstore import (
    DyadicDist,
    Graph,
    RegularStoreBuilder,
    build_dictionary,
    build_store,
    gen_walk,
)
from walkstore.graph import complete, directed_cycle, fibonacci_digraph
from walkstore.storefile import store_to_bytes

GOLDEN_DIR = Path(__file__).parent / "golden"
V2_DIR = GOLDEN_DIR / "v2"
ANSWERS = GOLDEN_DIR / "answers.json"
SAMPLES = 48

GRAPHS = {
    "k4": complete(4),
    "fib": fibonacci_digraph(),
    "c4": Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "two_scc": Graph(
        4, [(0, 1), (1, 0), (0, 0), (1, 2), (2, 3), (3, 2), (2, 2)], directed=True
    ),
    "cycle2": directed_cycle(2),
}

DIST = (["a", "b", "c", "d"], [1, 2, 3, 3])

# K4 at n = 4101 has block length 15 and a remainder block of 6 steps.
CASES = {
    "regular_packed": dict(graph="k4", n=4101, seed=1, mode="regular", strategy="packed"),
    "regular_blocked": dict(graph="k4", n=4101, seed=1, mode="regular", strategy="blocked"),
    "regular_spill_tree": dict(graph="k4", n=4101, seed=1, mode="regular", strategy="spill_tree"),
    "regular_online": dict(graph="k4", n=4101, seed=1, mode="online", strategy="blocked"),
    "general_packed": dict(graph="fib", n=4096, seed=2, mode="general", strategy="packed"),
    "general_blocked": dict(graph="fib", n=4096, seed=2, mode="general", strategy="blocked"),
    "general_spill_tree": dict(graph="fib", n=4096, seed=2, mode="general", strategy="spill_tree"),
    "periodic": dict(graph="c4", n=301, seed=3, mode="general", strategy="spill_tree"),
    "scc": dict(graph="two_scc", n=200, seed=4, mode="general", strategy="spill_tree"),
    "pointwise": dict(graph="fib", n=256, seed=5, mode="pointwise", strategy=None),
    "dictionary": dict(graph=None, n=96, seed=6, mode="dictionary", strategy=None),
    "regular_plain": dict(graph="k4", n=5, seed=1, mode="regular", strategy="blocked"),
    "general_plain": dict(graph="fib", n=30, seed=2, mode="general", strategy=None),
    "regular_blocked_b3": dict(graph="k4", n=4101, seed=1, mode="regular", strategy="blocked",
                               branching=3),
    "general_spill_tree_b3": dict(graph="fib", n=4096, seed=2, mode="general",
                                  strategy="spill_tree", branching=3),
}


def _text(n: int, seed: int) -> str:
    symbols, lens = DIST
    rng = random.Random(seed)
    return "".join(rng.choices(symbols, weights=[2.0**-l for l in lens], k=n))


def build_case(case: dict):
    """The store a recipe describes and its reference answers (a walk's
    vertices or a text's symbols)."""
    if case["mode"] == "dictionary":
        text = _text(case["n"], case["seed"])
        return build_dictionary(DyadicDist(*DIST), text), list(text)
    g = GRAPHS[case["graph"]]
    walk = gen_walk(g, case["n"], seed=case["seed"])
    if case["mode"] == "online":
        builder = RegularStoreBuilder(g, case["n"], strategy=case["strategy"])
        for v in walk.verts:
            builder.append(v)
        return builder.finalize(), list(walk.verts)
    strategy = case["strategy"] or "spill_tree"
    store = build_store(g, walk, mode=case["mode"], strategy=strategy,
                        branching=case.get("branching", 2))
    return store, list(walk.verts)


def file_bytes(store, version: int = 1) -> bytes:
    if hasattr(store, "store"):  # a SuccinctDictionary writes its own container
        return store.to_bytes()
    return store_to_bytes(store, version=version)


def sample_positions(count: int, seed: int) -> list:
    """Both ends, the last 16 positions (the regular remainder block lives
    there) and a seeded sample of the rest."""
    rng = random.Random(seed)
    picks = set(rng.sample(range(count), min(count, SAMPLES)))
    picks.update({0, count - 1}, range(max(0, count - 16), count))
    return sorted(picks)


def main() -> int:
    V2_DIR.mkdir(parents=True, exist_ok=True)
    record = {}
    for name, case in CASES.items():
        store, ref = build_case(case)
        (GOLDEN_DIR / f"{name}.bin").write_bytes(file_bytes(store))
        if case["mode"] != "dictionary":
            (V2_DIR / f"{name}.bin").write_bytes(file_bytes(store, version=2))
        positions = sample_positions(len(ref), case["seed"])
        record[name] = dict(case, positions=positions, answers=[ref[p] for p in positions])
    ANSWERS.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
