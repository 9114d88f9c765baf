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
from walkstore.graph import gen_walk


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


def test_gen_uniform_then_rank_is_identity(fib):
    # uniform generation draws rank r and unranks; ranking must invert it
    t = CodecTables(fib)
    for n in range(1, 9):
        for seed in range(10):
            w = gen_walk(fib, n, mode="uniform", seed=seed)
            rng = random.Random(seed)
            r = rng.randrange(t.counts.total(n)) + 1
            assert global_rank(t, w) == r
