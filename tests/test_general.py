import math
import random
import time

import pytest

from conftest import enumerate_walks, four_vertex_aperiodic, two_scc_dag
from golden_corpus import GOLDEN_DIR
from walkstore.errors import FormatError, InvalidWalkError, ParameterError, RangeError
from walkstore.fileio import Cursor, write_varbig, write_varint
from walkstore.general import (
    BundleTable,
    GeneralStore,
    PeriodicStore,
    SccStore,
    build_general,
    build_general_core,
    choose_half_block,
    tail_max_rank,
    tail_rank,
    tail_vertex,
    wrap_periodic,
    wrap_scc,
)
from walkstore.graph import (
    CountTable,
    Graph,
    Walk,
    analyze,
    benchmark_worstcase_bits,
    directed_cycle,
    gen_walk,
    log2_int,
)
from walkstore.storefile import store_from_bytes


def test_bundle_table_fib_example(fib):
    table = BundleTable(fib, 4, 3)
    assert table.groups_out == [10, 6]
    # slices of the three codes from 0 to 0
    slices = [table.slice_of(K, 0, 0, "out") for K in (1, 2, 3)]
    assert [j for j, _ in slices] == [1, 4, 7]
    for j in range(1, 11):
        expect = 1 if j in (1, 4, 7) else 0
        assert table.slice_size(0, j, 0, "out") == expect


def test_bundle_slice_example_k(fib):
    table = BundleTable(fib, 4, 3)
    assert table.slice_of(2, 0, 0, "out") == (4, 1)


def test_single_group_is_identity():
    g = directed_cycle(3)
    # a 3-cycle has exactly one walk per (x, y, L): s_x = floor(n^2/3) = 1
    table = BundleTable(g, 2, 3)
    assert table.groups_out == [1, 1, 1]
    assert table.slice_of(1, 0, 0, "out") == (1, 1)


def test_regular_graph_groups_equal(c3):
    table = BundleTable(c3, 32, 4)
    assert len(set(table.groups_out)) == 1
    assert len(set(table.groups_in)) == 1


@pytest.mark.parametrize("g", [None, "c3"], ids=["fib", "c3"])
def test_slice_roundtrip_exhaustive(g, fib, c3):
    graph = fib if g is None else c3
    for L in range(1, 6):
        table = BundleTable(graph, 6, L)
        counts = graph.counts()
        for x in range(graph.k):
            for y in range(graph.k):
                for side in ("out", "in"):
                    total = (
                        counts.count(x, y, L) if side == "out" else counts.count(y, x, L)
                    )
                    for K in range(1, total + 1):
                        j, k = table.slice_of(K, x, y, side)
                        assert table.code_of(j, k, x, y, side) == K


def test_slice_conservation(fib):
    table = BundleTable(fib, 8, 4)
    counts = fib.counts()
    for x in range(2):
        for y in range(2):
            total = sum(
                table.slice_size(x, j, y, "out") for j in range(1, table.groups_out[x] + 1)
            )
            assert total == counts.count(x, y, 4)


def test_triple_count_bruteforce(fib):
    L = 3
    table = BundleTable(fib, 4, L)
    counts = fib.counts()
    for x in range(2):
        for xn in range(2):
            for j_out in range(1, table.groups_out[x] + 1):
                for j_in in range(1, table.groups_in[xn] + 1):
                    brute = 0
                    for y in range(2):
                        outs = sum(
                            1
                            for K in range(1, counts.count(x, y, L) + 1)
                            if table.slice_of(K, x, y, "out")[0] == j_out
                        )
                        ins = sum(
                            1
                            for K in range(1, counts.count(y, xn, L) + 1)
                            if table.slice_of(K, xn, y, "in")[0] == j_in
                        )
                        brute += outs * ins
                    assert table.triple_count(x, j_out, xn, j_in) == brute


def test_triple_conservation(fib):
    # summing triple_count over all slice pairs recovers the 2L-step count
    L = 3
    table = BundleTable(fib, 4, L)
    counts = fib.counts()
    for x in range(2):
        for xn in range(2):
            total = sum(
                table.triple_count(x, j_out, xn, j_in)
                for j_out in range(1, table.groups_out[x] + 1)
                for j_in in range(1, table.groups_in[xn] + 1)
            )
            assert total == counts.count(x, xn, 2 * L)


def test_triple_rank_roundtrip(fib):
    table = BundleTable(fib, 6, 3)
    for x in range(2):
        for xn in range(2):
            for j_out in range(1, table.groups_out[x] + 1):
                for j_in in range(1, table.groups_in[xn] + 1):
                    count = table.triple_count(x, j_out, xn, j_in)
                    for r in range(1, count + 1):
                        y, k_out, k_in = table.triple_unrank(x, j_out, xn, j_in, r)
                        assert table.triple_rank(x, j_out, xn, j_in, y, k_out, k_in) == r


def test_triple_radix_dominates(fib):
    table = BundleTable(fib, 6, 3)
    radix = table.triple_radix()
    worst = max(
        table.triple_count(x, j_out, xn, j_in)
        for x in range(2)
        for xn in range(2)
        for j_out in range(1, table.groups_out[x] + 1)
        for j_in in range(1, table.groups_in[xn] + 1)
    )
    assert radix >= worst


def test_zero_group_guard():
    # skewed graph at tiny n: some vertex's share of walks rounds to zero
    g = Graph(3, [(0, 0), (0, 1), (1, 2), (2, 0), (1, 0), (2, 1)], directed=True)
    with pytest.raises(ParameterError):
        BundleTable(g, 1, 1)


def test_tail_rank_roundtrip(fib):
    counts = fib.counts()
    for L in range(5):
        for verts in enumerate_walks(fib, L):
            r = tail_rank(counts, verts)
            assert 0 <= r < counts.row_total(verts[0], L)
            for q in range(L + 1):
                assert tail_vertex(counts, verts[0], L, r, q) == verts[q]
    assert tail_max_rank(counts, 4) == 8


def test_choose_half_block_scales(fib):
    assert [choose_half_block(fib, 2**e) for e in (12, 16, 18, 20)] == [70, 93, 105, 116]
    # small walks have no admissible half-block
    assert choose_half_block(fib, 16) is None


def _dense_digraph(k, seed):
    """A strongly connected aperiodic digraph, each edge kept with
    probability 1/2 (drawn again until the graph qualifies)."""
    rng = random.Random(seed)
    while True:
        edges = [(u, v) for u in range(k) for v in range(k) if rng.random() < 0.5]
        if edges:
            g = Graph(k, edges, directed=True)
            info = analyze(g)
            if info.is_strongly_connected and info.is_aperiodic:
                return g


def _half_block_reference(g, n):
    """choose_half_block as its docstring states it, pair by pair:
    (half, s, t) for the first admissible half-block, or None."""
    counts = g.counts()
    k, nn = g.k, n * n
    for half in range(1, min(n // 4, 64 * max(1, (n - 1).bit_length())) + 1):
        a = counts.power(half)
        total = counts.total(half)
        s = [counts.row_total(x, half) * nn // total for x in range(k)]
        t = [sum(a[x][y] for x in range(k)) * nn // total for y in range(k)]
        if min(s) < 1 or min(t) < 1:  # (i)
            continue
        if not all(a[x][y] >= nn * s[x] and a[x][y] >= nn * t[y]
                   for x in range(k) for y in range(k)):  # (ii)
            continue
        two = counts.power(2 * half)
        ratios = [(two[x][xn], s[x] * t[xn]) for x in range(k) for xn in range(k)]
        # (iii): every ratio at most 1 + 1/n times every other, cross-multiplied
        if all(p * d * n <= q * c * (n + 1) for p, c in ratios for q, d in ratios):
            return half, s, t
    return None


@pytest.mark.parametrize("k", range(2, 7))
def test_choose_half_block_matches_pairwise_reference(k):
    graphs = [_dense_digraph(k, 100 * k + seed) for seed in range(3)]
    if k == 6:
        # a slowly mixing 6-cycle with one chord, where (iii) decides: with
        # a tolerance of 1 + 1/(2n) the half-block would grow from 266 to 284
        # at n = 2^12
        graphs.append(Graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 2)], directed=True))
    for n in (2**8, 2**12):
        for g in graphs:
            ref = _half_block_reference(g, n)
            half = choose_half_block(g, n)
            assert half == (ref[0] if ref else None), (g, n)
            if ref:
                table = BundleTable(g, n, half)
                assert (table.groups_out, table.groups_in) == (ref[1], ref[2])


@pytest.mark.parametrize("k", [3, 5, 8, 12, 16])
def test_general_store_bundles_dense_digraphs(k):
    """The general store within lg kappa + O(lg n) on strongly connected
    aperiodic digraphs beyond Fibonacci: A3's budget of 96 + 8 lg n."""
    g = _dense_digraph(k, k)
    for e in (12, 14):
        n = 2**e
        w = gen_walk(g, n, seed=k)
        store = build_general_core(g, w)
        assert not store.is_plain, (k, n)
        lg_kappa = benchmark_worstcase_bits(g, n)
        assert store.payload_bits <= lg_kappa + 96 + 8 * e, (k, n)
        rng = random.Random(e)
        for q in rng.sample(range(n + 1), 300):
            assert store.vertex_at(q) == w.verts[q]


def test_worstcase_bits_without_matrix_powers():
    """The walk total comes from the all-ones recurrence: no matrix power
    is formed, and the total is the sum of A^n."""
    g = _dense_digraph(16, 16)
    n = 2**12
    bits = benchmark_worstcase_bits(g, n)
    assert list(g.counts()._powers) == [0]
    assert bits == log2_int(sum(map(sum, CountTable(g).power(n))))


def test_core_rejects_a_walk_on_another_graph(fib, k4):
    with pytest.raises(InvalidWalkError):
        build_general_core(fib, gen_walk(k4, 2**10, seed=1))


def test_core_roundtrip_fib_small_real_mode(fib):
    n = 2**12
    w = gen_walk(fib, n, seed=7)
    store = build_general_core(fib, w)
    assert not store.is_plain and store.tail_len > 0
    rng = random.Random(1)
    for q in rng.sample(range(n + 1), 400):
        assert store.vertex_at(q) == w.verts[q]
    # milestones, midpoints and tail boundaries exactly
    span = 2 * store.half_len
    for i in range(store.block_count + 1):
        assert store.vertex_at(i * span) == w.verts[i * span]
    for q in range(store.block_count * span, n + 1):
        assert store.vertex_at(q) == w.verts[q]


def test_core_space_bound(fib):
    n = 2**12
    w = gen_walk(fib, n, seed=7)
    store = build_general_core(fib, w)
    bench = benchmark_worstcase_bits(fib, n)
    assert store.payload_bits <= bench + 96 + 8 * math.log2(n)


def test_core_plain_fallback(fib):
    w = gen_walk(fib, 40, seed=2)
    store = build_general_core(fib, w)
    assert store.is_plain
    assert [store.vertex_at(i) for i in range(41)] == list(w.verts)


def test_periodic_two_cycle_roundtrip():
    g = directed_cycle(2)
    w = Walk(g, [i % 2 for i in range(11)])
    store = wrap_periodic(g, w)
    assert isinstance(store, PeriodicStore)
    assert store.period == 2
    for q in range(11):
        assert store.vertex_at(q) == w.verts[q]


def test_periodic_pass_through(fib):
    w = gen_walk(fib, 60, seed=3)
    store = wrap_periodic(fib, w)
    assert isinstance(store, GeneralStore)


def test_scc_dag_roundtrip():
    g = two_scc_dag()
    rng = random.Random(5)
    for seed in range(6):
        w = gen_walk(g, 80, seed=seed)
        store = wrap_scc(g, w)
        for q in range(81):
            assert store.vertex_at(q) == w.verts[q]


def test_scc_counts_one_switch():
    g = Graph(2, [(0, 0), (0, 1), (1, 1)], directed=True)
    w = Walk(g, [0, 0, 0, 1, 1, 1, 1])
    store = wrap_scc(g, w)
    assert isinstance(store, SccStore)
    assert store.starts == [0, 3]
    for q in range(7):
        assert store.vertex_at(q) == w.verts[q]


def test_build_general_routes(fib, c3):
    w = gen_walk(c3, 100, seed=8)
    store = build_general(c3, w)
    for q in range(101):
        assert store.vertex_at(q) == w.verts[q]


def test_undirected_bipartite_via_periodic():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    w = gen_walk(c4, 300, seed=12)
    store = build_general(c4, w)
    assert isinstance(store, PeriodicStore)
    assert store.period == 2
    for q in range(301):
        assert store.vertex_at(q) == w.verts[q]


def test_disconnected_undirected():
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    w = gen_walk(g, 120, seed=6)
    store = build_general(g, w)
    assert isinstance(store, SccStore)
    for q in range(121):
        assert store.vertex_at(q) == w.verts[q]


def test_general_on_regular_crosscheck(c3):
    from walkstore.regular import build_regular

    n = 2**12
    w = gen_walk(c3, n, seed=9)
    general = build_general(c3, w)
    regular = build_regular(c3, w)
    assert abs(general.payload_bits - regular.payload_bits) <= 8
    rng = random.Random(3)
    for q in rng.sample(range(n + 1), 150):
        assert general.vertex_at(q) == w.verts[q]


def test_four_vertex_digraph(seed=4):
    g = four_vertex_aperiodic()
    n = 2**12
    w = gen_walk(g, n, seed=seed)
    store = build_general_core(g, w)
    assert not store.is_plain
    rng = random.Random(seed)
    for q in rng.sample(range(n + 1), 300):
        assert store.vertex_at(q) == w.verts[q]
    bench = benchmark_worstcase_bits(g, n)
    assert store.payload_bits <= bench + 96 + 8 * math.log2(n)


def test_serialization_roundtrip_core(fib):
    n = 2**12
    w = gen_walk(fib, n, seed=11)
    store = build_general_core(fib, w)
    blob = store.body_bytes()
    back = GeneralStore.from_body(Cursor(blob), fib)
    rng = random.Random(7)
    for q in rng.sample(range(n + 1), 100):
        assert back.vertex_at(q) == w.verts[q]
    assert back.payload_bits == store.payload_bits


def test_serialization_roundtrip_wrappers():
    g = two_scc_dag()
    w = gen_walk(g, 60, seed=13)
    store = wrap_scc(g, w)
    blob = store.body_bytes()
    back = SccStore.from_body(Cursor(blob), g)
    assert [back.vertex_at(q) for q in range(61)] == list(w.verts)

    g2 = directed_cycle(2)
    w2 = Walk(g2, [i % 2 for i in range(13)])
    store2 = wrap_periodic(g2, w2)
    back2 = PeriodicStore.from_body(Cursor(store2.body_bytes()), g2)
    assert [back2.vertex_at(q) for q in range(13)] == list(w2.verts)


def test_query_probe_reads(fib):
    n = 2**12
    w = gen_walk(fib, n, seed=17)
    store = build_general_core(fib, w, strategy="blocked")
    rng = random.Random(1)
    span = 2 * store.half_len
    for q in rng.sample(range(store.block_count * span), 100):
        probes = set()
        store.vertex_at(q, probes)
        # 2 bundle reads + 1 triple read, each <= 3 words in blocked mode
        assert len(probes) <= 9


def test_out_of_range(fib):
    w = gen_walk(fib, 50, seed=1)
    store = build_general(fib, w)
    with pytest.raises(RangeError):
        store.vertex_at(51)


def _crafted_core_body(store, n, half_len):
    out = bytearray([1])
    write_varint(out, n)
    out.append(store.branching)
    write_varint(out, half_len)
    write_varint(out, store.tail_len)
    write_varbig(out, store.tail_code)
    return bytes(out) + store.bundles.to_bytes() + store.triples.to_bytes()


@pytest.mark.parametrize(
    "n, half_len",
    [(2**40, 2**23), (2**40, 64 * 40 + 1), (2**12, 2**10 + 1), (2**40, 2000)],
    ids=["huge_half", "above_scan_cap", "above_quarter", "array_lengths"],
)
def test_from_body_rejects_crafted_half_block(fib, n, half_len):
    store = build_general_core(fib, gen_walk(fib, 2**12, seed=11))
    body = _crafted_core_body(store, 2**12, store.half_len)
    assert GeneralStore.from_body(Cursor(body), fib).body_bytes() == body
    start = time.perf_counter()
    with pytest.raises(FormatError):
        GeneralStore.from_body(Cursor(_crafted_core_body(store, n, half_len)), fib)
    assert time.perf_counter() - start < 1.0


def _periodic_then_aperiodic_scc_store():
    # SCC {0, 1} is a 2-cycle (period 2), SCC {2, 3} has a loop at 2
    g = Graph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (2, 2)], directed=True)
    w = Walk(g, [0, 1] * 10 + [2, 3, 2, 2, 3, 2, 2, 2, 3, 2])
    store = wrap_scc(g, w)
    assert [type(seg) for seg in store.segments] == [PeriodicStore, GeneralStore]
    return g, store


def _scc_body(store, starts=None, scc_ids=None, tags=None, bodies=None):
    starts = store.starts if starts is None else starts
    scc_ids = store.scc_ids if scc_ids is None else scc_ids
    if tags is None:
        tags = [1 if isinstance(seg, PeriodicStore) else 0 for seg in store.segments]
    out = bytearray()
    write_varint(out, store.n)
    write_varint(out, len(store.segments))
    if bodies is None:
        bodies = [seg.body_bytes() for seg in store.segments]
    for start, scc_id, tag, body in zip(starts, scc_ids, tags, bodies):
        write_varint(out, start)
        write_varint(out, scc_id)
        out.append(tag)
        out.extend(body)
    return bytes(out)


@pytest.mark.parametrize(
    "field, values",
    [
        ("scc_ids", lambda s: [len(s.scc_list), s.scc_ids[1]]),
        ("tags", lambda s: [2, 0]),
        ("starts", lambda s: [1, s.starts[1]]),
        ("starts", lambda s: [0, 0]),
        ("starts", lambda s: [0, s.n + 1]),
        ("starts", lambda s: [0, s.starts[1] - 5]),
    ],
    ids=["scc_id_beyond", "unknown_tag", "first_start_not_zero", "starts_not_increasing",
         "start_beyond_n", "start_inside_segment"],
)
def test_scc_from_body_rejects_crafted_segments(field, values):
    g, store = _periodic_then_aperiodic_scc_store()
    body = _scc_body(store)
    assert SccStore.from_body(Cursor(body), g).decode_walk().verts == store.decode_walk().verts
    with pytest.raises(FormatError):
        SccStore.from_body(Cursor(_scc_body(store, **{field: values(store)})), g)


def _with_head(body: bytes, n: int | None = None, period: int | None = None) -> bytes:
    """A periodic store's body with its walk length or period varint replaced."""
    cur = Cursor(body)
    out = bytearray()
    for new in (n, period):
        old = cur.varint()
        write_varint(out, old if new is None else new)
    return bytes(out) + body[cur.pos:]


WRONG_PERIODS = [0, 1, 3, 12, 200]


@pytest.mark.parametrize("period", WRONG_PERIODS)
def test_periodic_from_body_rejects_a_wrong_period(period):
    store = store_from_bytes((GOLDEN_DIR / "periodic.bin").read_bytes())
    assert isinstance(store, PeriodicStore) and store.period == 2
    body = store.body_bytes()
    assert _with_head(body, period=2) == body
    start = time.perf_counter()
    with pytest.raises(FormatError):
        PeriodicStore.from_body(Cursor(_with_head(body, period=period)), store.graph)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n", [300, 302, 306])
def test_periodic_from_body_rejects_a_wrong_length(n):
    store = store_from_bytes((GOLDEN_DIR / "periodic.bin").read_bytes())
    assert store.n == 301
    body = store.body_bytes()
    assert _with_head(body, n=301) == body
    with pytest.raises(FormatError):
        PeriodicStore.from_body(Cursor(_with_head(body, n=n)), store.graph)


@pytest.mark.parametrize("period", WRONG_PERIODS)
def test_scc_segment_rejects_a_wrong_period(period):
    g, store = _periodic_then_aperiodic_scc_store()
    bodies = [seg.body_bytes() for seg in store.segments]
    bodies[0] = _with_head(bodies[0], period=period)
    start = time.perf_counter()
    with pytest.raises(FormatError):
        SccStore.from_body(Cursor(_scc_body(store, bodies=bodies)), g)
    assert time.perf_counter() - start < 1.0
