import decimal
import math
import random
import sys
from collections import defaultdict

import pytest

from conftest import enumerate_walks, random_digraph
import walkstore.pointwise as pw
from walkstore.errors import FormatError, ParameterError, RangeError
from walkstore.fileio import Cursor, write_varbig, write_varint
from walkstore.graph import (
    Graph,
    Walk,
    benchmark_pointwise_bits,
    complete,
    directed_cycle,
    fibonacci_digraph,
    gen_walk,
    triangle,
)
from walkstore.pointwise import (
    LabelCounts,
    PointwiseStore,
    build_pointwise,
)
from walkstore.report import build_report


def test_label_examples(k4, fib):
    def root_label(g, verts, precision):
        store = build_pointwise(g, Walk(g, verts), precision=precision)
        return store.first, store.last, store.cost

    assert root_label(k4, (0, 1, 2), 2) == (0, 2, 8)
    assert root_label(k4, (3,), 1) == (3, 3, 0)
    # one step from 0 (out-degree 2) at cost ceil(2 lg 2) = 2, one from 1 at 0
    assert root_label(fib, (0, 1, 0), 2) == (0, 0, 2)


def test_count_labeled_base(fib):
    engine = LabelCounts(fib, 4)
    assert engine.count(1, 0, 0, 0) == 1
    assert engine.count(1, 0, 1, 0) == 0
    # unique walk (0,0): one step from vertex 0 at cost ceil(P lg 2) = P
    assert engine.count(2, 0, 0, 4) == 1
    assert engine.count(2, 0, 0, 3) == 0
    # free endpoints: (0,0) and (0,1) cost P, (1,0) costs nothing
    ends = [(x, y) for x in range(fib.k) for y in range(fib.k)]
    assert sum(engine.count(2, x, y, 4) for x, y in ends) == 2
    assert sum(engine.count(2, x, y, 0) for x, y in ends) == 1


@pytest.mark.parametrize("gname", ["fib", "c3", "k4"])
def test_count_conservation(gname, fib, c3, k4):
    g = {"fib": fib, "c3": c3, "k4": k4}[gname]
    counts = g.counts()
    for size in range(1, 8):
        engine = LabelCounts(g, 7)
        for x in range(g.k):
            for y in range(g.k):
                total = sum(engine.count_map(size, x, y).values())
                assert total == counts.count(x, y, size - 1)


def _mixed_degree_digraph():
    """Out-degrees 3, 2, 1 and 3, so step costs P lg 3, P and 0 mix."""
    return Graph(
        4,
        [(0, 0), (0, 1), (0, 2), (1, 2), (1, 3), (2, 0), (3, 0), (3, 1), (3, 2)],
        directed=True,
    )


def test_kronecker_matches_plain(fib, monkeypatch):
    g = _mixed_degree_digraph()
    precision = 5
    costs = LabelCounts(g, precision).costs
    assert len(set(costs)) == 3
    for cutoff in (0, 10**9):  # every convolution packed, then none
        monkeypatch.setattr(pw, "_KRONECKER_CUTOFF", cutoff)
        engine = LabelCounts(g, precision)
        for size in range(1, 9):
            brute = defaultdict(lambda: defaultdict(int))
            for verts in enumerate_walks(g, size - 1):
                brute[verts[0], verts[-1]][sum(costs[v] for v in verts[:-1])] += 1
            for x in range(g.k):
                for y in range(g.k):
                    assert engine.count_map(size, x, y) == dict(brute[x, y]), (cutoff, size)
        monkeypatch.undo()
    # tables large enough to pick the packed path on their own
    big = LabelCounts(fib, 64).count_map(65, 0, 0)
    monkeypatch.setattr(pw, "_KRONECKER_CUTOFF", 10**9)
    assert LabelCounts(fib, 64).count_map(65, 0, 0) == big


def _convolve(engine, left, right, shift, cutoff, monkeypatch):
    monkeypatch.setattr(pw, "_KRONECKER_CUTOFF", cutoff)
    result = {shift: 7}  # the convolution adds into what the table holds
    engine._conv_into(result, left, right, shift)
    monkeypatch.undo()
    return result


@pytest.mark.parametrize("bits, span, sizes", [(64, 400, (40, 33)), (20_000, 40, (6, 5))])
def test_packed_matches_plain_on_big_sparse_coefficients(bits, span, sizes, fib, monkeypatch):
    rng = random.Random(bits)
    mixed = LabelCounts(_mixed_degree_digraph(), 5)  # costs 8, 5 and 0
    lattice4 = LabelCounts(fib, 4)  # costs 4 and 0
    assert (mixed.lattice, lattice4.lattice) == (1, 4)
    for engine, shift in ((mixed, 0), (mixed, 13), (lattice4, 8)):
        g = engine.lattice
        # sparse: most keys in range(3, span) are absent
        tables = [{g * key: rng.getrandbits(bits) | 1 for key in rng.sample(range(3, span), size)}
                  for size in sizes]
        packed = _convolve(engine, *tables, shift, 0, monkeypatch)
        assert packed == _convolve(engine, *tables, shift, 10**9, monkeypatch)
        assert len(packed) > 2 * sizes[0]
    # 20,000-bit coefficients are past what int <-> str converts by default
    assert bits < 20_000 or decimal.Decimal(1 << (bits - 1)).adjusted() >= sys.get_int_max_str_digits()


def test_packed_path_keeps_decimal_context_and_int_limit(fib):
    ctx = decimal.getcontext()

    def state():
        return (decimal.getcontext(), ctx.prec, ctx.Emax, ctx.Emin, ctx.rounding, ctx.capitals,
                ctx.clamp, dict(ctx.traps), dict(ctx.flags), sys.get_int_max_str_digits())

    before = state()
    engine = LabelCounts(fib, 128)
    engine.count_map(129, 0, 0)
    # the top convolution has enough coefficient pairs to take the packed path
    assert len(engine.count_map(65, 0, 0)) * len(engine.count_map(64, 0, 0)) > pw._KRONECKER_CUTOFF
    assert state() == before


def test_direct_count_matches_table():
    g = _mixed_degree_digraph()
    reference = LabelCounts(g, 5)
    for size in range(1, 12):
        direct = LabelCounts(g, 5)
        for x in range(g.k):
            for y in range(g.k):
                table = reference.count_map(size, x, y)
                absent = max(table, default=0) + 1
                for cost in [*table, absent]:
                    assert direct.count(size, x, y, cost) == table.get(cost, 0)
        assert size == 1 or not any(key[0] == size for key in direct._maps)


def test_payload_bits_builds_no_root_table(fib):
    w = gen_walk(fib, 300, seed=4)
    built = build_pointwise(fib, w)
    store = PointwiseStore.from_body(Cursor(built.body_bytes()), fib)
    assert store.payload_bits == built.payload_bits
    assert (store.n + 1, store.first, store.last) not in store.engine._maps


def test_probe_words_cover_stored_rank(fib):
    store = build_pointwise(fib, gen_walk(fib, 2**10, seed=2))
    words = max(1, math.ceil(store.rank0.bit_length() / 64))
    report = build_report(store, "pointwise")
    assert words > 1
    assert report.probe_words_min == report.probe_words_max == words


@pytest.mark.parametrize(
    "g",
    [fibonacci_digraph(), triangle(), complete(4), directed_cycle(2),
     random_digraph(4, 3)],
    ids=repr,
)
def test_rank_bijection_exhaustive(g):
    for n in range(1, 8):
        groups = defaultdict(list)
        for verts in enumerate_walks(g, n):
            store = build_pointwise(g, Walk(g, verts))
            groups[(store.first, store.last, store.cost)].append(store.rank0)
        engine = LabelCounts(g, n)
        for (x, y, cost), ranks in groups.items():
            total = engine.count(n + 1, x, y, cost)
            assert sorted(ranks) == list(range(total))


def test_unrank_rank_identity(fib, c3):
    for g in (fib, c3):
        for n in range(1, 8):
            engine = LabelCounts(g, n)
            for x in range(g.k):
                for y in range(g.k):
                    for cost, total in engine.count_map(n + 1, x, y).items():
                        for r in range(total):
                            w = PointwiseStore(g, n, n, 2, x, y, cost, r, engine).decode_walk()
                            back = build_pointwise(g, w)
                            assert back.rank0 == r


def test_vertex_at_exhaustive_small(fib):
    for n in range(1, 9):
        for verts in enumerate_walks(fib, n):
            store = build_pointwise(fib, Walk(fib, verts))
            assert [store.vertex_at(q) for q in range(n + 1)] == list(verts)


def test_example_walk_payload(fib):
    # three length-4 walks from 0 to 0 share the example's label
    store = build_pointwise(fib, Walk(fib, (0, 0, 1, 0, 0)))
    assert store.cost == 12
    assert store.root_count == 3
    assert store.payload_bits == 2
    assert store.payload_bits <= math.log2(fib.k) + 3 + 2  # lg|G| + sum lg deg + 2


def test_space_bound_per_walk(fib):
    for seed in range(20):
        w = gen_walk(fib, 200, seed=seed)
        store = build_pointwise(fib, w)
        bound = benchmark_pointwise_bits(w) + 3
        assert store.payload_bits <= bound
        assert store.header_bits <= 128


def test_deterministic_chain_payload():
    g = directed_cycle(4)
    w = Walk(g, [i % 4 for i in range(33)])
    store = build_pointwise(g, w)
    assert store.payload_bits == 0  # the only walk from its start
    assert [store.vertex_at(q) for q in range(33)] == list(w.verts)


def test_single_vertex_walk(fib):
    store = build_pointwise(fib, Walk(fib, (1,)))
    assert store.n == 0
    assert store.vertex_at(0) == 1


def test_medium_roundtrip_random_queries(fib):
    n = 2**10
    w = gen_walk(fib, n, seed=5)
    store = build_pointwise(fib, w)
    rng = random.Random(0)
    for q in rng.sample(range(n + 1), 200):
        assert store.vertex_at(q) == w.verts[q]
    assert store.payload_bits <= benchmark_pointwise_bits(w) + 3


def test_multi_degree_graph_small():
    g = random_digraph(5, 17)
    for seed in range(5):
        w = gen_walk(g, 48, seed=seed)
        store = build_pointwise(g, w)
        assert [store.vertex_at(q) for q in range(49)] == list(w.verts)
        assert store.payload_bits <= benchmark_pointwise_bits(w) + 3


def test_serialization_roundtrip(fib):
    w = gen_walk(fib, 300, seed=9)
    store = build_pointwise(fib, w)
    back = PointwiseStore.from_body(Cursor(store.body_bytes()), fib)
    assert back.payload_bits == store.payload_bits
    assert [back.vertex_at(q) for q in range(301)] == list(w.verts)


def test_branching_other_than_two_rejected(fib):
    w = gen_walk(fib, 10, seed=1)
    with pytest.raises(ParameterError):
        build_pointwise(fib, w, branching=3)


def test_rank_out_of_range(fib):
    store = PointwiseStore(fib, 4, 4, 2, 0, 0, 10**9, 10**9)
    with pytest.raises(RangeError):
        store.vertex_at(0)
    with pytest.raises(RangeError):
        store.decode_walk()


def _body(n=4, precision=4, branching=2, first=0, last=0, cost=12, rank0=1):
    out = bytearray()
    write_varint(out, n)
    write_varint(out, precision)
    out += bytes([branching, first, last])
    write_varbig(out, cost)
    write_varbig(out, rank0)
    return bytes(out)


def test_from_body_accepts_crafted_header(fib):
    built = build_pointwise(fib, Walk(fib, (0, 0, 1, 0, 0)))
    assert _body(rank0=built.rank0) == built.body_bytes()
    store = PointwiseStore.from_body(Cursor(_body(rank0=built.rank0)), fib)
    assert [store.vertex_at(q) for q in range(5)] == [0, 0, 1, 0, 0]


@pytest.mark.parametrize(
    "fields",
    [{"branching": 3}, {"branching": 0}, {"first": 2}, {"last": 2},
     {"precision": 0}, {"precision": 5}, {"precision": 2**24}],
    ids=["branching3", "branching0", "first", "last", "precision", "precision_n_plus_1",
         "precision_2_24"],
)
def test_from_body_rejects_bad_header(fib, fields):
    with pytest.raises(FormatError):
        PointwiseStore.from_body(Cursor(_body(**fields)), fib)


def test_build_rejects_precision_above_n(fib):
    w = gen_walk(fib, 4, seed=1)
    assert build_pointwise(fib, w, precision=4).precision == 4
    with pytest.raises(ParameterError):
        build_pointwise(fib, w, precision=5)
    assert build_pointwise(fib, Walk(fib, (1,)), precision=1).precision == 1


def test_endpoints_above_u8_refuse_to_save(monkeypatch):
    monkeypatch.setenv("WALKSTORE_MAX_VERTICES", "300")
    g = directed_cycle(300)
    store = build_pointwise(g, Walk(g, (299, 0, 1)))
    assert [store.vertex_at(q) for q in range(3)] == [299, 0, 1]
    with pytest.raises(FormatError, match="255"):
        store.body_bytes()
