import random

import pytest

from conftest import enumerate_walks, small_corpus
from walkstore.codec import (
    CodecTables,
    WalkCode,
    decode_full,
    decode_vertex,
    encode_walk,
    global_rank,
    walk_from_global_rank,
)
from walkstore.errors import InvalidWalkError, RangeError
from walkstore.graph import Graph, complete, fibonacci_digraph, gen_walk


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
    z = directory.index.get(tup)
    if z is None:
        raise InvalidWalkError(f"no walks pass through {tup} between {x} and {y}")
    counts = directory.seg_counts[z]
    rank = 0
    for i in range(tables.branching):
        k_i = _reference_encode(tables, verts, lo + bounds[i], lo + bounds[i + 1])
        rank = rank * counts[i] + (k_i - 1)
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
