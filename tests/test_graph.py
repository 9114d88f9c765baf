import math

import pytest

from conftest import enumerate_walks, small_corpus, two_scc_dag, random_digraph
from walkstore.config import MAX_WALK_LENGTH
from walkstore.errors import (
    GenerationError,
    InvalidWalkError,
    RangeError,
    ResourceError,
    UnsupportedGraphError,
)
from walkstore.graph import (
    CountTable,
    Graph,
    Walk,
    analyze,
    benchmark_pointwise_bits,
    benchmark_worstcase_bits,
    complete,
    count_walks,
    directed_cycle,
    fibonacci_digraph,
    gen_walk,
    log2_int,
    total_walks,
)


def test_count_walks_triangle_squared(c3):
    assert count_walks(c3, 2) == ((2, 1, 1), (1, 2, 1), (1, 1, 2))


def test_count_walks_identity_at_zero(c3, fib):
    assert count_walks(c3, 0) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert count_walks(fib, 0) == ((1, 0), (0, 1))


def test_count_walks_fibonacci_cubed(fib):
    assert count_walks(fib, 3) == ((3, 2), (2, 1))


@pytest.mark.parametrize("g", small_corpus(), ids=repr)
def test_count_walks_matches_enumeration(g):
    for l in range(9):
        mat = count_walks(g, l)
        for x in range(g.k):
            for y in range(g.k):
                assert mat[x][y] == len(enumerate_walks(g, l, x, y))


def test_total_walks_values(c3, fib):
    assert total_walks(fib, 4) == 13
    assert total_walks(c3, 3) == 24
    loop = Graph(1, [(0, 0)], directed=True)
    assert total_walks(loop, 10) == 1


def test_total_walks_is_matrix_sum(k4):
    for n in range(7):
        mat = count_walks(k4, n)
        assert total_walks(k4, n) == sum(sum(row) for row in mat)


def test_count_length_resource_guard(fib):
    with pytest.raises(ResourceError):
        fib.counts().power(2**24 + 1)


def test_large_power_consistency(fib):
    # binary recombination beyond the dense memo agrees with sequential fill
    ct = fib.counts()
    big = ct.power(6000)
    seq = fib.counts().power(128)
    step = ct.power(6000 - 128)
    k = fib.k
    expect = [
        [sum(step[x][z] * seq[z][y] for z in range(k)) for y in range(k)]
        for x in range(k)
    ]
    assert [list(r) for r in big] == expect


def _recurrence_corpus():
    graphs = [
        complete(4),
        fibonacci_digraph(),
        directed_cycle(5),
        Graph(5, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 4)]),  # bipartite
        Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], directed=True),  # nilpotent
        Graph(1, [], directed=True),
        Graph(1, [(0, 0)], directed=True),
        two_scc_dag(),  # reducible
    ]
    graphs.extend(random_digraph(k, seed) for k in range(2, 9) for seed in (1, 2))
    graphs.append(random_digraph(16, 16))
    return graphs


@pytest.mark.parametrize("g", _recurrence_corpus(), ids=repr)
def test_recurrence_totals_match_matrix_powers(g):
    rec, steps = CountTable(g), CountTable(g)
    for l in range(301):
        # a cold table forms A^l by products, ``steps`` one step from A^(l-1)
        assert CountTable(g).power(l) == steps.power(l), l
    for l in list(range(101)) + [6000]:
        sums = [sum(row) for row in steps.power(l)]
        assert [rec.row_total(x, l) for x in range(g.k)] == sums, l
        assert rec.total(l) == sum(sums), l
    assert rec.row_totals(100) == [tuple(map(sum, steps.power(l))) for l in range(101)]
    assert list(rec._powers) == [0]


def test_recurrence_total_beyond_memo(fib):
    big = CountTable(fib).power(6000)
    ct = CountTable(fib)
    assert ct.total(6000) == sum(sum(row) for row in big)
    assert list(ct._powers) == [0]
    assert fib.counts().total(6000) == sum(sum(row) for row in big)


def test_recurrence_of_regular_graph_has_order_one(k4):
    ct = CountTable(k4)
    assert ct.total(5) == 4 * 3**5
    assert ct._recurrence == ([3], [(1, 1, 1, 1)])


def test_recurrence_length_guards(fib):
    ct = CountTable(fib)
    for call in (ct.total, lambda l: ct.row_total(0, l), ct.power, ct.row_totals):
        with pytest.raises(RangeError):
            call(-1)
        with pytest.raises(ResourceError):
            call(MAX_WALK_LENGTH + 1)


def test_worstcase_bits_without_matrix_squares(k4):
    expect = 2 + 10**6 * math.log2(3)
    assert benchmark_worstcase_bits(k4, 10**6) == pytest.approx(expect, rel=1e-9)
    assert list(k4.counts()._powers) == [0]


def test_analyze_directed_two_cycle():
    info = analyze(directed_cycle(2))
    assert info.is_strongly_connected
    assert info.period == (2,)
    assert not info.is_aperiodic


def test_analyze_fibonacci(fib):
    info = analyze(fib)
    assert info.is_strongly_connected
    assert info.period == (1,)
    assert info.is_aperiodic


def test_analyze_two_vertex_dag():
    info = analyze(Graph(2, [(0, 1)], directed=True))
    assert info.scc_list == ((0,), (1,))
    assert info.period == (0, 0)
    assert not info.is_strongly_connected


def test_analyze_scc_topological_order():
    info = analyze(two_scc_dag())
    assert info.scc_list == ((0, 1), (2, 3))


def brute_period(g, comp):
    members = set(comp)
    root = comp[0]
    sub = Graph(
        len(comp),
        [
            (comp.index(u), comp.index(v))
            for u in comp
            for v in comp
            if g.adj[u][v]
        ],
        directed=True,
    )
    gcd = 0
    for l in range(1, 2 * g.k + 1):
        if sub.counts().count(0, 0, l):
            gcd = math.gcd(gcd, l)
    return gcd


@pytest.mark.parametrize("seed", range(12))
def test_period_matches_bruteforce(seed):
    g = random_digraph(6, seed + 100)
    info = analyze(g)
    for comp, period in zip(info.scc_list, info.period):
        if len(comp) == 1 and not g.adj[comp[0]][comp[0]]:
            assert period == 0
        else:
            assert period == brute_period(g, list(comp))


def test_undirected_connected_nonbipartite_is_aperiodic(c3):
    info = analyze(c3)
    assert not info.is_bipartite
    assert info.is_aperiodic


def test_benchmark_worstcase(fib, c3, k4):
    assert benchmark_worstcase_bits(fib, 4) == pytest.approx(math.log2(13), abs=1e-9)
    assert benchmark_worstcase_bits(c3, 0) == pytest.approx(math.log2(3), abs=1e-9)
    assert benchmark_worstcase_bits(k4, 10) == pytest.approx(2 + 10 * math.log2(3), abs=1e-9)


def test_log2_int_huge():
    v = 3**4000
    assert log2_int(v) == pytest.approx(4000 * math.log2(3), rel=1e-12)


def test_benchmark_pointwise(fib, k4):
    w = Walk(fib, (0, 0, 1, 0, 0))
    assert benchmark_pointwise_bits(w) == pytest.approx(4.0, abs=1e-9)
    assert benchmark_pointwise_bits(Walk(fib, (1, 0))) == pytest.approx(1.0, abs=1e-9)
    w4 = gen_walk(k4, 12, seed=3)
    assert benchmark_pointwise_bits(w4) == pytest.approx(2 + 12 * math.log2(3), abs=1e-9)


def test_pointwise_regular_equals_worstcase(c3):
    w = gen_walk(c3, 20, seed=1)
    assert benchmark_pointwise_bits(w) == pytest.approx(
        benchmark_worstcase_bits(c3, 20), abs=1e-9
    )


def test_walk_validation(fib):
    with pytest.raises(InvalidWalkError):
        Walk(fib, (1, 1))
    with pytest.raises(InvalidWalkError):
        Walk(fib, (0, 2))


def test_gen_walk_trivial(fib):
    w = gen_walk(fib, 0, mode="uniform", seed=9)
    assert w.length == 0
    loop = Graph(1, [(0, 0)], directed=True)
    assert gen_walk(loop, 5, seed=2).verts == (0, 0, 0, 0, 0, 0)


def test_gen_walk_deterministic(fib):
    a = gen_walk(fib, 50, seed=42)
    b = gen_walk(fib, 50, seed=42)
    assert a.verts == b.verts


def test_gen_walk_dead_end():
    g = Graph(2, [(0, 1)], directed=True)
    with pytest.raises(GenerationError):
        gen_walk(g, 3, seed=0)


def test_gen_walk_uniform_frequencies(c3):
    walks = enumerate_walks(c3, 3)
    assert len(walks) == 24
    counts = {w: 0 for w in walks}
    for i in range(24000):
        counts[gen_walk(c3, 3, mode="uniform", seed=i).verts] += 1
    mean = 1000.0
    sigma = math.sqrt(24000 * (1 / 24) * (23 / 24))
    for w, c in counts.items():
        assert abs(c - mean) <= 3 * sigma, (w, c)


def test_vertex_cap(monkeypatch):
    with pytest.raises(UnsupportedGraphError):
        Graph(65, [])
    monkeypatch.setenv("WALKSTORE_MAX_VERTICES", "70")
    Graph(65, [])
