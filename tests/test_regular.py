import math
import random
import time

import pytest

from walkstore.errors import FormatError, InvalidWalkError, RangeError, UnsupportedGraphError
from walkstore.fileio import Cursor, write_varint
from walkstore.graph import Graph, complete, gen_walk
from walkstore.regular import (
    RegularStore,
    RegularStoreBuilder,
    build_regular,
    choose_l,
    _layout_for,
)


def test_choose_l_triangle_16(c3):
    assert choose_l(c3, 16) == 7
    counts = c3.counts()
    assert counts.count(0, 0, 6) == 22  # violates the l=6 bound of 21
    assert counts.count(0, 0, 7) == 42
    assert counts.count(0, 1, 7) == 43
    layout = _layout_for(c3, 16, 7)
    assert layout.block_radix == 43
    assert (layout.m, layout.rem) == (2, 2)


def test_choose_l_k4_minimal(k4):
    l = choose_l(k4, 16)
    n2 = 256
    counts = k4.counts()

    def admissible(ll):
        bound = ((n2 + 4) * 3**ll) // (4 * n2)
        mat = counts.power(ll)
        return max(max(r) for r in mat) <= bound

    assert admissible(l)
    assert not admissible(l - 1)


def test_choose_l_self_loop():
    g = Graph(1, [(0, 0)], directed=True)
    assert choose_l(g, 100) == 1


def test_choose_l_rejects_bipartite_and_disconnected():
    with pytest.raises(UnsupportedGraphError):
        choose_l(Graph(2, [(0, 1)]), 16)  # single undirected edge: bipartite
    with pytest.raises(UnsupportedGraphError):
        choose_l(Graph(4, [(0, 1), (2, 3)]), 16)  # 1-regular, disconnected
    with pytest.raises(UnsupportedGraphError):
        choose_l(Graph(3, [(0, 1), (1, 2)]), 16)  # not regular


def test_build_and_roundtrip_c3_16(c3):
    w = gen_walk(c3, 16, seed=5)
    store = build_regular(c3, w)
    assert not store.is_plain
    for i in range(17):
        assert store.vertex_at(i) == w.verts[i]
    # bit accounting: milestone slots + block slots, exact per strategy
    lay = store.layout
    assert lay.rem == 2
    assert store.milestones.spec.t == lay.m + 2
    assert store.blocks.spec.radices == (43, 43, lay.rem_radix)
    slot_bits = math.ceil(4 * math.log2(3)) + math.ceil(
        2 * math.log2(43) + math.log2(lay.rem_radix)
    )
    assert store.payload_bits <= slot_bits + 8  # spill-tree slack only


def test_plain_fallback_short_walk(c3):
    w = gen_walk(c3, 5, seed=2)
    store = build_regular(c3, w)
    assert store.is_plain
    assert store.payload_bits == 6 * 2  # ceil(lg 3) bits per vertex
    assert [store.vertex_at(i) for i in range(6)] == list(w.verts)


def test_milestone_read_only(c3):
    w = gen_walk(c3, 64, seed=7)
    store = build_regular(c3, w)
    lay = store.layout
    for j in range(lay.m + 1):
        probes = set()
        assert store.vertex_at(j * lay.l, probes) == w.verts[j * lay.l]
        ms_words = set()
        store.milestones.get(j, ms_words)
        assert probes == ms_words


def test_last_index_with_remainder(k4):
    w = gen_walk(k4, 37, seed=3)
    store = build_regular(k4, w)
    assert store.layout.rem != 0
    assert store.vertex_at(37) == w.verts[37]


@pytest.mark.parametrize("strategy", ["spill_tree", "blocked", "packed"])
def test_roundtrip_strategies(k4, strategy):
    w = gen_walk(k4, 200, seed=11)
    store = build_regular(k4, w, strategy=strategy)
    idx = random.Random(0).sample(range(201), 60)
    for i in idx:
        assert store.vertex_at(i) == w.verts[i]


def test_large_markov_roundtrip(k4):
    n = 10**5
    w = gen_walk(k4, n, seed=1)
    store = build_regular(k4, w, strategy="blocked")
    rng = random.Random(2)
    for i in rng.sample(range(n + 1), 10**4):
        assert store.vertex_at(i) == w.verts[i]


def test_space_bound_spill(c3):
    n = 2**12
    w = gen_walk(c3, n, seed=9)
    store = build_regular(c3, w, strategy="spill_tree")
    bench = math.log2(3) + n * 1.0  # lg|G| + n lg d, d = 2
    red = store.payload_bits - bench
    assert red <= 64 + 8 * math.log2(n)


def test_blocked_probe_budget(k4):
    w = gen_walk(k4, 2**12, seed=4)
    store = build_regular(k4, w, strategy="blocked")
    rng = random.Random(8)
    for i in rng.sample(range(2**12 + 1), 300):
        probes = set()
        store.vertex_at(i, probes)
        assert len(probes) <= 10


def test_out_of_range(c3):
    w = gen_walk(c3, 20, seed=0)
    store = build_regular(c3, w)
    with pytest.raises(RangeError):
        store.vertex_at(21)
    with pytest.raises(RangeError):
        store.vertex_at(-1)


def test_online_matches_batch(c3):
    n = 100
    w = gen_walk(c3, n, seed=21)
    batch = build_regular(c3, w, strategy="blocked")
    online = RegularStoreBuilder(c3, n, strategy="blocked")
    for v in w.verts:
        online.append(v)
    store = online.finalize()
    assert store.body_bytes() == batch.body_bytes()
    for i in range(n + 1):
        assert store.vertex_at(i) == w.verts[i]


def test_online_reads_remainder_block_before_finalize(k4):
    n = 4101
    w = gen_walk(k4, n, seed=1)
    online = RegularStoreBuilder(k4, n, strategy="blocked")
    for v in w.verts:
        online.append(v)
    lay = online.layout
    assert (lay.l, lay.rem) == (15, 6)
    for i in range(lay.m * lay.l, n + 1):
        assert online.vertex_at(i) == w.verts[i]


def test_online_buffer_queries(c3, k4):
    w = gen_walk(c3, 50, seed=31)
    online = RegularStoreBuilder(c3, 50)
    online.append(w.verts[0])
    online.append(w.verts[1])
    assert online.vertex_at(1) == w.verts[1]
    assert online.vertex_at(0) == w.verts[0]
    for v in w.verts[2:]:
        online.append(v)
        assert online.vertex_at(online.count - 1) == v
    # every appended position after every append, buffered and flushed,
    # through a remainder block: K4 at n = 125 has l = 9 and rem = 8
    n = 125
    w = gen_walk(k4, n, seed=7)
    for branching in (2, 3):
        for strategy in ("packed", "blocked"):
            online = RegularStoreBuilder(k4, n, branching=branching, strategy=strategy)
            assert (online.layout.l, online.layout.rem) == (9, 8)
            for count, v in enumerate(w.verts, 1):
                online.append(v)
                got = [online.vertex_at(i) for i in range(count)]
                assert got == list(w.verts[:count]), (branching, strategy, count)


def test_online_rejects_non_edge(c3):
    online = RegularStoreBuilder(c3, 10)
    online.append(0)
    with pytest.raises(InvalidWalkError):
        online.append(0)  # no self-loop in the triangle


@pytest.mark.parametrize("branching", [2, 3, 4])
def test_plain_batch_and_online_builds_keep_the_branching(k4, branching):
    w = gen_walk(k4, 5, seed=1)
    batch = build_regular(k4, w, branching=branching)
    online = RegularStoreBuilder(k4, 5, branching=branching)
    for v in w.verts:
        online.append(v)
    store = online.finalize()
    assert batch.is_plain and store.is_plain and batch.branching == branching
    assert store.body_bytes() == batch.body_bytes()


def test_online_plain_mode(c3):
    w = gen_walk(c3, 4, seed=1)
    online = RegularStoreBuilder(c3, 4)
    for v in w.verts:
        online.append(v)
    store = online.finalize()
    assert store.is_plain
    assert store.body_bytes() == build_regular(c3, w).body_bytes()


def test_serialization_roundtrip(k4):
    w = gen_walk(k4, 300, seed=6)
    store = build_regular(k4, w)
    blob = store.body_bytes()
    back = RegularStore.from_body(Cursor(blob), k4)
    for i in range(0, 301, 7):
        assert back.vertex_at(i) == w.verts[i]
    assert back.payload_bits == store.payload_bits


def _crafted_body(n, l, arrays=b""):
    out = bytearray([1])
    write_varint(out, n)
    out.append(2)
    write_varint(out, l)
    return bytes(out) + arrays


@pytest.mark.parametrize("l", [2**39, 64 * 40 + 1], ids=["half_n", "above_scan_cap"])
def test_from_body_rejects_block_length_beyond_scan_cap(k4, l):
    start = time.perf_counter()
    with pytest.raises(FormatError):
        RegularStore.from_body(Cursor(_crafted_body(2**40, l)), k4)
    assert time.perf_counter() - start < 1.0


def test_from_body_checks_array_lengths_before_layout(k4):
    store = build_regular(k4, gen_walk(k4, 300, seed=6))
    arrays = store.milestones.to_bytes() + store.blocks.to_bytes()
    assert RegularStore.from_body(Cursor(_crafted_body(300, store.layout.l, arrays)), k4)
    # on K64 the layout of l = 2560 needs the 1536th power of a 64 x 64
    # matrix; the short arrays must be refused before it is computed
    k64 = complete(64)
    start = time.perf_counter()
    with pytest.raises(FormatError):
        RegularStore.from_body(Cursor(_crafted_body(2**40, 64 * 40, arrays)), k64)
    assert time.perf_counter() - start < 1.0
