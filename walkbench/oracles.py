"""Inputs and oracles of the benchmark, written without the program.

Everything here uses only the standard library.  The walk and text
generators decide what the program is handed; the oracles compute the
space figures the program's output is checked against (lg of the number
of walks, the per-walk entropy benchmark, the zeroth-order entropy of a
text) independently of walkstore's own count tables.
"""

from __future__ import annotations

import math
import random

# ---------------------------------------------------------------------------
# Graphs, as plain edge lists (the benchmark turns them into walkstore.Graph)

K4_EDGES = [(u, v) for u in range(4) for v in range(u + 1, 4)]
FIB_EDGES = [(0, 0), (0, 1), (1, 0)]

# Dyadic alphabet of the dictionary workload: symbol -> lg(1 / p(symbol)).
DICT_CODE_LENS = {"a": 1, "b": 2, "c": 2}


def successor_lists(k: int, edges, directed: bool):
    """Sorted out-neighbour tuples per vertex."""
    out = [set() for _ in range(k)]
    for u, v in edges:
        out[u].add(v)
        if not directed:
            out[v].add(u)
    return [tuple(sorted(s)) for s in out]


# ---------------------------------------------------------------------------
# Generators


def markov_walk(succ, n: int, seed, start=None) -> list:
    """Length-n walk: uniform start, each step uniform over out-neighbours."""
    rng = random.Random(seed)
    v = rng.randrange(len(succ)) if start is None else start
    verts = [v]
    rand = rng.random
    for _ in range(n):
        s = succ[v]
        v = s[int(rand() * len(s))]
        verts.append(v)
    return verts


def markov_walk_with_suffix(succ, n: int, seed, suffix) -> list:
    """Markov walk of length n whose last len(suffix) vertices are ``suffix``.

    The seeded part runs up to position n - len(suffix) - 1; the step into
    the suffix is drawn among the successors of that vertex that are also
    predecessors of suffix[0], so every edge stays an edge of the graph.
    """
    head = markov_walk(succ, n - len(suffix) - 1, seed)
    rng = random.Random(f"{seed}/bridge")
    choices = [v for v in succ[head[-1]] if suffix[0] in succ[v]]
    if not choices:
        raise ValueError("no two-step path into the fixed suffix")
    return head + [choices[rng.randrange(len(choices))]] + list(suffix)


def dyadic_text(size: int, seed, middle: str | None = None) -> str:
    """A text whose symbol counts are exactly size * p(symbol), shuffled.

    With ``middle``, the symbol at index size // 2 is ``middle``: it is
    swapped with the first occurrence of ``middle``, so the counts stay exact.
    """
    letters = []
    for sym, length in DICT_CODE_LENS.items():
        letters.extend([sym] * (size >> length))
    if len(letters) != size:
        raise ValueError("size is not a multiple of the dyadic denominators")
    random.Random(seed).shuffle(letters)
    if middle is not None:
        j = letters.index(middle)
        letters[j], letters[size // 2] = letters[size // 2], letters[j]
    return "".join(letters)


def sample_positions(count: int, bound: int, seed) -> list:
    """``count`` positions drawn uniformly from [0, bound)."""
    rng = random.Random(seed)
    return [rng.randrange(bound) for _ in range(count)]


def recent_offsets(count: int, mean: float, seed) -> list:
    """Distances back from the newest position, exponentially distributed."""
    rng = random.Random(seed)
    return [int(rng.expovariate(1.0 / mean)) for _ in range(count)]


# ---------------------------------------------------------------------------
# Oracles


def lg_int(v: int) -> float:
    """lg2 of a positive integer, also for integers beyond float range."""
    if v <= 0:
        raise ValueError("lg of a non-positive integer")
    shift = max(0, v.bit_length() - 64)
    return shift + math.log2(v >> shift)


def lg_walks_complete(k: int, n: int) -> float:
    """lg of the number of length-n walks on the complete graph K_k."""
    return math.log2(k) + n * math.log2(k - 1)


def fibonacci(i: int) -> int:
    """F(i) by fast doubling, with F(0) = 0 and F(1) = 1."""

    def pair(j):  # (F(j), F(j + 1))
        if j == 0:
            return 0, 1
        a, b = pair(j >> 1)
        c = a * (2 * b - a)
        d = a * a + b * b
        return (d, c + d) if j & 1 else (c, d)

    return pair(i)[0]


def lg_walks_fibonacci(n: int) -> float:
    """lg of the number of length-n walks on the Fibonacci digraph, F(n+3)."""
    return lg_int(fibonacci(n + 3))


def count_walks_dp(succ, n: int) -> int:
    """Number of length-n walks with free endpoints, by forward counting."""
    ways = [1] * len(succ)
    for _ in range(n):
        nxt = [0] * len(succ)
        for u, c in enumerate(ways):
            if c:
                for v in succ[u]:
                    nxt[v] += c
        ways = nxt
    return sum(ways)


def pointwise_bits(succ, verts) -> float:
    """lg|G| + sum of lg out-degree over every vertex but the last."""
    counts = {}
    for v in verts[:-1]:
        counts[v] = counts.get(v, 0) + 1
    return math.log2(len(succ)) + sum(
        c * math.log2(len(succ[v])) for v, c in counts.items()
    )


def h0_bits(text: str) -> int:
    """Zeroth-order entropy of a text under the dyadic alphabet, in bits."""
    return sum(DICT_CODE_LENS[ch] for ch in text)
