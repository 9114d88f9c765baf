import gc
import json
import math
import random
import tracemalloc

import pytest

from conftest import enumerate_walks, small_corpus
from golden_corpus import ANSWERS, GOLDEN_DIR, build_case, file_bytes
from walkstore import build_store, codec, general, regular
from walkstore.codec import (
    CodecTables,
    WalkCode,
    _Directory,
    decode_full,
    decode_vertex,
    encode_walk,
    global_rank,
    walk_from_global_rank,
)
from walkstore.errors import InvalidWalkError, RangeError
from walkstore.graph import Graph, complete, fibonacci_digraph, gen_walk
from walkstore.storefile import store_from_bytes, store_to_bytes


def test_triangle_length2_codes(c3):
    t = CodecTables(c3)
    assert encode_walk(t, (0, 1, 0)).value == 1
    assert encode_walk(t, (0, 2, 0)).value == 2


def test_single_edge_code(fib):
    t = CodecTables(fib)
    assert encode_walk(t, (0, 1)).value == 1
    assert encode_walk(t, (0,)).value == 1


def test_fib_length3_cover(fib):
    t = CodecTables(fib)
    codes = {encode_walk(t, w).value for w in enumerate_walks(fib, 3, 0, 0)}
    assert codes == {1, 2, 3}


@pytest.mark.parametrize("g", small_corpus(), ids=repr)
@pytest.mark.parametrize("branching", [2, 3, 4])
def test_bijection_and_positions_exhaustive(g, branching):
    t = CodecTables(g, branching=branching)
    for l in range(9):
        for x in range(g.k):
            for y in range(g.k):
                walks = enumerate_walks(g, l, x, y)
                total = t.walk_count(x, y, l)
                assert total == len(walks)
                seen = set()
                for verts in walks:
                    code = encode_walk(t, verts)
                    assert 1 <= code.value <= total
                    seen.add(code.value)
                    for q in range(l + 1):
                        assert decode_vertex(t, code, q) == verts[q]
                assert len(seen) == total


@pytest.mark.parametrize("g", small_corpus(), ids=repr)
def test_decode_full_inverse(g):
    t = CodecTables(g)
    for l in range(9):
        for verts in enumerate_walks(g, l):
            code = encode_walk(t, verts)
            assert decode_full(t, code).verts == verts


def test_decode_full_trivial(fib, c3):
    t = CodecTables(fib)
    assert decode_full(t, WalkCode(1, 0, 0, 0)).verts == (0,)
    tc = CodecTables(c3)
    assert decode_full(tc, WalkCode(2, 0, 0, 2)).verts == (0, 2, 0)


def test_endpoints(c3):
    t = CodecTables(c3)
    code = encode_walk(t, (0, 1, 2, 0, 1))
    assert decode_vertex(t, code, 0) == 0
    assert decode_vertex(t, code, 4) == 1


def test_branching_independence(fib):
    t2 = CodecTables(fib, branching=2)
    t4 = CodecTables(fib, branching=4)
    for verts in enumerate_walks(fib, 7, 0, 0):
        for t in (t2, t4):
            code = encode_walk(t, verts)
            assert decode_full(t, code).verts == verts


def test_decode_depth_bound(fib):
    import math

    for branching in (2, 3):
        t = CodecTables(fib, branching=branching)
        for l in (4, 8, 16, 33):
            w = gen_walk(fib, l, seed=l)
            code = encode_walk(t, w.verts)
            stats = {}
            for q in range(l + 1):
                decode_vertex(t, code, q, stats=stats)
            assert stats["depth"] <= math.ceil(math.log(max(l, 2), branching)) + 1


def _reference_encode(tables, verts, lo, hi):
    """The recursive encoder, one call per node of the split tree, leaves
    included: the reference for the plan loop of CodecTables.encode."""
    l = hi - lo
    if l <= 1:
        return 1
    x, y = verts[lo], verts[hi]
    bounds = tables.segment_bounds(l)
    tup = tuple(verts[lo + b] for b in bounds[1:-1])
    directory = tables.directory(x, y, l)
    z = directory.index().get(tup)
    if z is None:
        raise InvalidWalkError(f"no walks pass through {tup} between {x} and {y}")
    ends = (x, *tup, y)
    rank = 0
    for i in range(tables.branching):
        k_i = _reference_encode(tables, verts, lo + bounds[i], lo + bounds[i + 1])
        count = tables.walk_count(ends[i], ends[i + 1], bounds[i + 1] - bounds[i])
        rank = rank * count + (k_i - 1)
    base = directory.prefix[z - 1] if z else 0
    return base + rank + 1


def _cycle_with_chords(k, seed):
    """A strongly connected digraph: the k-cycle plus seeded chords."""
    rng = random.Random(seed)
    chords = [(rng.randrange(k), rng.randrange(k)) for _ in range(k)]
    return Graph(k, [(i, (i + 1) % k) for i in range(k)] + chords, directed=True)


@pytest.mark.parametrize("branching", [2, 3, 4])
@pytest.mark.parametrize(
    "g",
    [_cycle_with_chords(k, seed) for k, seed in [(3, 1), (5, 2), (6, 3)]]
    + [complete(4), fibonacci_digraph()],
    ids=repr,
)
def test_encode_matches_recursive_reference(g, branching):
    t = CodecTables(g, branching=branching)
    for l in range(301):
        verts = gen_walk(g, l, seed=l).verts
        code = encode_walk(t, verts)
        assert code.value == _reference_encode(t, verts, 0, l), l
        assert decode_full(t, code).verts == verts


@pytest.mark.parametrize("branching", [2, 3, 4])
@pytest.mark.parametrize(
    "g", [_cycle_with_chords(k, seed) for k, seed in [(3, 1), (5, 2), (6, 3)]], ids=repr
)
def test_directory_suffix_products_are_count_matrix_entries(g, branching):
    B = branching
    t = CodecTables(g, branching=B)
    shared = 0  # B = 2 entries above the small-int cache, whose identity means something
    for l in [*range(20), 41, 64, 101]:
        bounds = t.segment_bounds(l)
        mats = [t.counts.power(bounds[i + 1] - bounds[i]) for i in range(B)]
        for x in range(g.k):
            for y in range(g.k):
                d = t.directory(x, y, l)
                assert len(d.mids) == (B - 1) * len(d.prefix)
                assert len(d.suffix) == B * len(d.prefix)
                acc = 0
                for z in range(len(d.prefix)):
                    ends = (x, *d.mids[z * (B - 1) : (z + 1) * (B - 1)], y)
                    counts = [mats[i][ends[i]][ends[i + 1]] for i in range(B)]
                    for i in range(B):
                        assert d.suffix[z * B + i] == math.prod(counts[i + 1 :])
                    if B == 2:
                        assert d.suffix[2 * z] is mats[1][ends[1]][y]
                        shared += d.suffix[2 * z] > 256
                    assert math.prod(counts) == d.prefix[z] - acc > 0
                    acc = d.prefix[z]
                assert acc == t.walk_count(x, y, l)
                assert d._index is None
    assert B > 2 or shared > 0


def test_loaded_golden_stores_answer_without_building_an_index(monkeypatch):
    built = []
    real_index = _Directory.index

    def index(directory):
        built.append(directory)
        return real_index(directory)

    monkeypatch.setattr(_Directory, "index", index)
    for name, case in json.loads(ANSWERS.read_text()).items():
        if case["mode"] == "dictionary":
            continue
        data = (GOLDEN_DIR / f"{name}.bin").read_bytes()
        store = store_from_bytes(data)
        assert [store.vertex_at(p) for p in case["positions"]] == case["answers"], name
        assert built == [], name
        tables = getattr(store, "tables", None)
        if tables is None or store.plain is not None:
            continue
        assert tables._dirs and all(d._index is None for d in tables._dirs.values())
        # encoding the walk again through the queried directories builds
        # their indexes and still gives the pinned codes, byte for byte
        with monkeypatch.context() as m:
            for module in (regular, general):
                m.setattr(module, "CodecTables", lambda graph, branching: tables)
            rebuilt, _ = build_case(case)
        assert rebuilt.tables is tables
        assert file_bytes(rebuilt) == data, name
        assert built and all(d._index is not None for d in built)
        built.clear()


@pytest.mark.parametrize(
    "g, mode, strategy, ceiling",
    [(complete(4), "regular", "blocked", 800), (fibonacci_digraph(), "general", "spill_tree", 500)],
    ids=["k4-regular-blocked", "fib-general-spill-tree"],
)
def test_loaded_store_codec_bytes_per_directory(g, mode, strategy, ceiling):
    """Heap that codec.py holds per cached directory in a freshly loaded
    store after 2,000 seeded reads: 1,425 and 1,120 bytes in this test
    when directories copied their segment counts and built the index at
    once, 479 and 403 with the shared counts and the lazy index."""
    n = 2**14
    w = gen_walk(g, n, seed=1)
    data = store_to_bytes(build_store(g, w, mode=mode, strategy=strategy))
    positions = random.Random(2).choices(range(n + 1), k=2000)
    gc.collect()
    tracemalloc.start()
    try:
        store = store_from_bytes(data)
        assert all(store.vertex_at(p) == w.verts[p] for p in positions)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = snapshot.filter_traces([tracemalloc.Filter(True, codec.__file__)])
    per_directory = sum(t.size for t in held.traces) / len(store.tables._dirs)
    assert per_directory <= ceiling, per_directory


def test_encode_rejects_every_bad_step(fib):
    # (1, 1) is the Fibonacci digraph's only non-edge; 0 -> 1 and 1 -> 0 are edges
    t = CodecTables(fib, branching=3)
    for l in range(1, 14):
        for i in range(l):
            verts = [0] * (l + 1)
            verts[i] = verts[i + 1] = 1
            with pytest.raises(InvalidWalkError, match=r"\(1,1\) is not an edge"):
                encode_walk(t, verts)
            if l >= 2:  # the plan loop's own tuple check also sees it
                with pytest.raises(InvalidWalkError, match="no walks pass"):
                    t.encode(verts)
        for i in range(l + 1):
            for bad in (-1, 2):
                verts = [0] * (l + 1)
                verts[i] = bad
                with pytest.raises(InvalidWalkError, match=f"vertex {bad} outside"):
                    encode_walk(t, verts)


def test_invalid_inputs(fib):
    t = CodecTables(fib)
    with pytest.raises(InvalidWalkError):
        encode_walk(t, (1, 1))
    with pytest.raises(RangeError):
        decode_vertex(t, WalkCode(4, 0, 0, 3), 0)  # N_3(0,0) = 3
    with pytest.raises(RangeError):
        decode_vertex(t, WalkCode(1, 0, 0, 3), 4)


def test_global_rank_identity(c3, fib):
    from conftest import random_digraph

    for g in (c3, fib, random_digraph(5, 23)):
        t = CodecTables(g)
        for n in range(6):
            total = t.counts.total(n)
            for r in range(1, min(total, 4000) + 1):
                w = walk_from_global_rank(t, n, r)
                assert global_rank(t, w) == r


def test_global_rank_keeps_no_whole_walk_plan(fib):
    t = CodecTables(fib)
    kept = t.plan(40)  # a block length, as store builds ask for
    n = 2**14
    w = gen_walk(fib, n, seed=3)
    assert walk_from_global_rank(t, n, global_rank(t, w)) == w
    assert n not in t._plans
    assert t._plans[40] is kept


def test_gen_uniform_then_rank_is_identity(fib):
    # uniform generation draws rank r and unranks; ranking must invert it
    t = CodecTables(fib)
    for n in range(1, 9):
        for seed in range(10):
            w = gen_walk(fib, n, mode="uniform", seed=seed)
            rng = random.Random(seed)
            r = rng.randrange(t.counts.total(n)) + 1
            assert global_rank(t, w) == r
