import math
import random

import pytest

from walkstore.dictionary import (
    DyadicDist,
    HuffmanGraph,
    SuccinctDictionary,
    build_dictionary,
)
from walkstore.errors import FormatError, ParameterError, RangeError
from walkstore.graph import analyze, benchmark_pointwise_bits


def dist_abc():
    return DyadicDist(["a", "b", "c"], [1, 2, 2])


def entropy_bits(text, dist):
    return sum(dist.code_lens[dist.index_of(ch)] for ch in text)


def test_graph_shape_abc():
    hg = HuffmanGraph(dist_abc())
    assert hg.dist.depth == 2
    assert hg.graph.k == 6  # 5 tree vertices + 1 return vertex for 'a'
    assert hg.cycle_len == 3
    info = analyze(hg.graph)
    assert info.is_strongly_connected
    assert info.period == (3,)


def test_graph_shape_uniform_pair():
    hg = HuffmanGraph(DyadicDist(["a", "b"], [1, 1]))
    assert hg.graph.k == 3  # pure tree, direct return edges
    assert hg.cycle_len == 2


def test_cycle_length_invariant():
    hg = HuffmanGraph(dist_abc())
    for idx, sym in enumerate(hg.dist.symbols):
        walk = hg.string_to_walk(sym)
        assert walk.length == hg.cycle_len
        assert walk.verts[0] == hg.root and walk.verts[-1] == hg.root


def test_out_degrees():
    hg = HuffmanGraph(dist_abc())
    g = hg.graph
    internal = {hg.root} | {
        u for u in range(g.k) if g.out_deg[u] == 2
    }
    for u in range(g.k):
        assert g.out_deg[u] in (1, 2)
    assert g.out_deg[hg.root] == 2


def test_invalid_distributions():
    with pytest.raises(ParameterError):
        DyadicDist(["a", "b", "c"], [1, 1, 1])  # sums to 3/2
    with pytest.raises(ParameterError):
        DyadicDist(["a"], [0])
    with pytest.raises(ParameterError):
        DyadicDist(["a", "b"], [1, 9])


def test_string_walk_inverse():
    hg = HuffmanGraph(dist_abc())
    rng = random.Random(3)
    for _ in range(20):
        text = "".join(rng.choice("abc") for _ in range(rng.randrange(0, 40)))
        walk = hg.string_to_walk(text)
        assert walk.length == hg.cycle_len * len(text)
        assert hg.walk_to_string(walk) == text


def test_walk_entropy_accounting():
    # walk benchmark = lg|G| + H0(x) when frequencies match the distribution
    hg = HuffmanGraph(dist_abc())
    text = "aabc"
    walk = hg.string_to_walk(text)
    expect = math.log2(hg.graph.k) + entropy_bits(text, hg.dist)
    assert benchmark_pointwise_bits(walk) == pytest.approx(expect, abs=1e-9)


def test_dictionary_aabc():
    dist = dist_abc()
    d = build_dictionary(dist, "aabc")
    assert entropy_bits("aabc", dist) == 6
    assert d.payload_bits <= 6 + 3
    assert [d.get(i) for i in range(4)] == list("aabc")
    assert d.get(3) == "c"
    with pytest.raises(RangeError):
        d.get(4)


def test_dictionary_uniform_pair_run():
    dist = DyadicDist(["a", "b"], [1, 1])
    d = build_dictionary(dist, "aaaa")
    assert d.payload_bits <= 4 + 3
    assert d.decode_string() == "aaaa"


def test_dictionary_fuzz_roundtrip():
    dist = dist_abc()
    rng = random.Random(11)
    for _ in range(6):
        n = rng.randrange(1, 2**9)
        text = "".join(rng.choice("abc") for _ in range(n))
        d = build_dictionary(dist, text)
        for i in rng.sample(range(n), min(n, 40)):
            assert d.get(i) == text[i]


def test_dictionary_entropy_matched_payload():
    # frequencies matching the dyadic distribution: payload <= H0 + 3
    dist = dist_abc()
    rng = random.Random(5)
    letters = list("aabc" * 64)
    rng.shuffle(letters)
    text = "".join(letters)
    d = build_dictionary(dist, text)
    h0 = entropy_bits(text, dist)
    assert d.payload_bits <= h0 + 3
    for i in rng.sample(range(len(text)), 50):
        assert d.get(i) == text[i]


def test_serialization_roundtrip():
    d = build_dictionary(dist_abc(), "abacabacbb")
    back = SuccinctDictionary.from_bytes(d.to_bytes())
    assert back.decode_string() == "abacabacbb"
    assert back.payload_bits == d.payload_bits


def test_unknown_symbol():
    hg = HuffmanGraph(dist_abc())
    with pytest.raises(RangeError):
        hg.string_to_walk("abz")


def test_empty_string():
    d = build_dictionary(dist_abc(), "")
    assert d.length == 0
    assert d.store.n == 0


def test_symbol_not_utf8_is_format_error():
    data = bytearray(build_dictionary(dist_abc(), "abacab").to_bytes())
    assert data[4:7] == bytes([3, 1]) + b"a"  # three symbols, the first one byte long
    data[6] = 0xFF
    with pytest.raises(FormatError, match="UTF-8"):
        SuccinctDictionary.from_bytes(bytes(data))
