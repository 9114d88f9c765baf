"""The benchmark's own oracles and generators against brute force.

Run with:  python3 -m pytest walkbench/tests
"""

import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from oracles import (  # noqa: E402
    DICT_CODE_LENS,
    FIB_EDGES,
    K4_EDGES,
    count_walks_dp,
    dyadic_text,
    fibonacci,
    h0_bits,
    lg_int,
    lg_walks_complete,
    lg_walks_fibonacci,
    markov_walk,
    markov_walk_with_suffix,
    pointwise_bits,
    successor_lists,
)

K4 = successor_lists(4, K4_EDGES, directed=False)
FIB = successor_lists(2, FIB_EDGES, directed=True)
# strongly connected, no dead ends, mixed out-degrees 1..3
MIXED = successor_lists(
    4, [(0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (2, 3), (3, 0), (3, 3)], directed=True
)


def all_walks(succ, n):
    walks = [(v,) for v in range(len(succ))]
    for _ in range(n):
        walks = [w + (v,) for w in walks for v in succ[w[-1]]]
    return walks


def test_k4_walk_count_is_four_times_three_to_the_n():
    for n in range(8):
        count = len(all_walks(K4, n))
        assert count == 4 * 3**n
        assert lg_walks_complete(4, n) == pytest.approx(math.log2(count), abs=1e-9)


def test_fibonacci_fast_doubling():
    a, b = 0, 1
    for i in range(300):
        assert fibonacci(i) == a
        a, b = b, a + b


def test_fibonacci_digraph_walk_count_is_f_n_plus_3():
    for n in range(14):
        count = len(all_walks(FIB, n))
        assert count == fibonacci(n + 3)
        assert lg_walks_fibonacci(n) == pytest.approx(math.log2(count), abs=1e-9)


def test_lg_int_beyond_float_range():
    v = fibonacci(5000)  # about 3470 bits, far past the float range
    top = v >> (v.bit_length() - 53)
    assert lg_int(v) == pytest.approx(v.bit_length() - 53 + math.log2(top), abs=1e-9)
    assert lg_int(1) == 0.0
    with pytest.raises(ValueError):
        lg_int(0)


@pytest.mark.parametrize("succ", [K4, FIB, MIXED])
def test_walk_count_dp_matches_enumeration(succ):
    for n in range(8):
        assert count_walks_dp(succ, n) == len(all_walks(succ, n))


@pytest.mark.parametrize("succ", [K4, FIB, MIXED])
def test_pointwise_bits_is_minus_lg_of_the_markov_probability(succ):
    # lg|G| + sum lg deg(v_i) = -lg P(walk) under a uniform start and uniform
    # steps, so the probabilities of all length-n walks sum to exactly one.
    for n in range(6):
        total = Fraction(0)
        for walk in all_walks(succ, n):
            prob = Fraction(1, len(succ))
            for v in walk[:-1]:
                prob /= len(succ[v])
            assert pointwise_bits(succ, walk) == pytest.approx(-math.log2(prob), abs=1e-9)
            total += prob
        assert total == 1


def test_h0_is_minus_lg_of_the_text_probability():
    prob = {sym: Fraction(1, 2**length) for sym, length in DICT_CODE_LENS.items()}
    for size in range(7):
        for text in itertools.product(DICT_CODE_LENS, repeat=size):
            p = Fraction(1)
            for ch in text:
                p *= prob[ch]
            assert 2 ** h0_bits("".join(text)) == 1 / p


def test_h0_bounds_the_texts_of_the_same_make_up():
    # H0 of a text is at least lg of the number of texts with its symbol counts.
    text = dyadic_text(8, seed=3)
    arrangements = len(set(itertools.permutations(text)))
    assert h0_bits(text) >= math.log2(arrangements)
    assert h0_bits(text) == 8 * 1.5


def test_dyadic_text_make_up_and_seed():
    text = dyadic_text(2**11, seed=1)
    assert len(text) == 2**11
    assert text.count("a") == 2**10 and text.count("b") == text.count("c") == 2**9
    assert dyadic_text(2**11, seed=1) == text
    assert dyadic_text(2**11, seed=2) != text
    for seed in range(20):
        fixed = dyadic_text(2**11, seed, middle="b")
        assert fixed[2**10] == "b"
        assert sorted(fixed) == sorted(text)
        assert sum(x != y for x, y in zip(fixed, dyadic_text(2**11, seed))) in (0, 2)


@pytest.mark.parametrize("succ", [K4, FIB, MIXED])
def test_markov_walk_is_a_walk_and_repeats_by_seed(succ):
    walk = markov_walk(succ, 5000, seed=7)
    assert len(walk) == 5001
    assert all(0 <= v < len(succ) for v in walk)
    assert all(b in succ[a] for a, b in zip(walk, walk[1:]))
    assert markov_walk(succ, 5000, seed=7) == walk
    assert markov_walk(succ, 5000, seed=8) != walk


def test_markov_walk_steps_are_uniform():
    walk = markov_walk(K4, 60000, seed=1)
    moves = [0, 0, 0]
    for a, b in zip(walk, walk[1:]):
        moves[K4[a].index(b)] += 1
    for count in moves:
        assert abs(count - 20000) < 600


@pytest.mark.parametrize("succ", [K4, FIB])
def test_walk_with_fixed_suffix(succ):
    suffix = markov_walk(succ, 63, "suffix", start=0)
    for seed in range(20):
        walk = markov_walk_with_suffix(succ, 1000, seed, suffix)
        assert len(walk) == 1001
        assert walk[-64:] == suffix
        assert all(b in succ[a] for a, b in zip(walk, walk[1:]))
    assert markov_walk_with_suffix(succ, 1000, 1, suffix) != markov_walk_with_suffix(
        succ, 1000, 2, suffix
    )


def test_walk_with_suffix_refuses_an_unreachable_suffix():
    # 0 -> 1 -> 2 -> 2 -> ...: every walk is stuck at 2, which never leads to 0
    line = successor_lists(3, [(0, 1), (1, 2), (2, 2)], directed=True)
    with pytest.raises(ValueError):
        markov_walk_with_suffix(line, 10, 1, [0, 1])
