"""Graphs, exact walk counting, structural analysis and walk generation.

All quantities that stores depend on (walk counts, benchmarks, admissibility
checks) are exact arbitrary-precision integers.  Walk totals come from the
minimal integer recurrence of the all-ones vector; matrix powers serve only
single entries of A^l.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .config import MAX_WALK_LENGTH, vertex_cap
from .errors import (
    GenerationError,
    InvalidWalkError,
    ParameterError,
    RangeError,
    ResourceError,
    UnsupportedGraphError,
)


class Graph:
    """A fixed graph on dense vertex ids 0..k-1 with a 0/1 adjacency matrix.

    Undirected graphs are stored symmetrically; ``out_deg`` is then the plain
    degree.  Instances are immutable after construction and safe to share.
    """

    __slots__ = ("k", "directed", "adj", "out_deg", "_out", "_in", "_counts")

    def __init__(self, k: int, edges: Iterable[tuple[int, int]], directed: bool = False):
        cap = vertex_cap()
        if k < 1:
            raise UnsupportedGraphError("graph needs at least one vertex")
        if k > cap:
            raise UnsupportedGraphError(f"graph has {k} vertices, cap is {cap}")
        mat = [[0] * k for _ in range(k)]
        for u, v in edges:
            if not (0 <= u < k and 0 <= v < k):
                raise UnsupportedGraphError(f"edge ({u},{v}) outside [0,{k})")
            mat[u][v] = 1
            if not directed:
                mat[v][u] = 1
        self.k = k
        self.directed = directed
        self.adj = tuple(tuple(row) for row in mat)
        self.out_deg = tuple(sum(row) for row in self.adj)
        self._out = tuple(tuple(v for v in range(k) if self.adj[u][v]) for u in range(k))
        self._in = tuple(tuple(u for u in range(k) if self.adj[u][v]) for v in range(k))
        self._counts = None

    def successors(self, u: int) -> tuple[int, ...]:
        return self._out[u]

    def edge_list(self) -> list[tuple[int, int]]:
        """Canonical edge list: sorted, one entry per undirected edge."""
        edges = []
        for u in range(self.k):
            for v in range(self.k):
                if self.adj[u][v] and (self.directed or u <= v):
                    edges.append((u, v))
        return edges

    def counts(self) -> "CountTable":
        """Shared lazily-built count table for this graph."""
        if self._counts is None:
            self._counts = CountTable(self)
        return self._counts

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.k == other.k
            and self.directed == other.directed
            and self.adj == other.adj
        )

    def __hash__(self):
        return hash((self.k, self.directed, self.adj))

    def __repr__(self):
        kind = "digraph" if self.directed else "graph"
        return f"Graph({kind}, k={self.k}, edges={len(self.edge_list())})"


class Walk:
    """A vertex sequence v_0..v_n with every consecutive pair an edge."""

    __slots__ = ("graph", "verts")

    def __init__(self, graph: Graph, verts: Sequence[int]):
        verts = tuple(verts)
        if not verts:
            raise InvalidWalkError("a walk has at least one vertex")
        for v in verts:
            if not (0 <= v < graph.k):
                raise InvalidWalkError(f"vertex {v} outside [0,{graph.k})")
        for i in range(len(verts) - 1):
            if not graph.adj[verts[i]][verts[i + 1]]:
                raise InvalidWalkError(
                    f"({verts[i]},{verts[i + 1]}) at step {i} is not an edge"
                )
        self.graph = graph
        self.verts = verts

    @property
    def length(self) -> int:
        """Number of steps n (the walk has n+1 vertices)."""
        return len(self.verts) - 1

    def __len__(self):
        return len(self.verts)

    def __getitem__(self, i):
        return self.verts[i]

    def __eq__(self, other):
        return isinstance(other, Walk) and self.verts == other.verts and self.graph == other.graph

    def __repr__(self):
        return f"Walk(n={self.length}, verts={self.verts[:8]}{'...' if len(self.verts) > 8 else ''})"


def _check_length(l: int) -> None:
    if l < 0:
        raise RangeError("walk length must be >= 0")
    if l > MAX_WALK_LENGTH:
        raise ResourceError(f"walk length {l} beyond configured max {MAX_WALK_LENGTH}")


def _mat_mult(a, b):
    bt = list(zip(*b))
    out = []
    for row in a:
        out.append(tuple(sum(x * y for x, y in zip(row, col) if x and y) for col in bt))
    return tuple(out)


class CountTable:
    """Exact walk counts: powers A^l of the adjacency matrix and A^l·1.

    N_l(x, y) = A^l[x][y] is the number of length-l walks from x to y.
    ``power`` keeps every A^l it forms, keyed by l: one sparse step from
    A^(l-1) when that is cached (the block and half-block scans ask for
    lengths in order), otherwise the product A^floor(l/2)·A^ceil(l/2).
    ``row_totals`` keeps the vectors A^0·1, A^1·1, ... that free-end tails
    read.  ``total`` and ``row_total`` reduce x^l modulo the minimal
    recurrence of the all-ones vector and combine its Krylov vectors, with
    no matrix product at all.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        k = graph.k
        self._powers = {0: tuple(tuple(int(i == j) for j in range(k)) for i in range(k))}
        self._ones = [(1,) * k]
        self._recurrence = None

    def power(self, l: int):
        m = self._powers.get(l)
        if m is None:
            _check_length(l)
            prev = self._powers.get(l - 1)
            if prev is None:
                m = _mat_mult(self.power(l // 2), self.power(l - l // 2))
            else:
                preds = self.graph._in
                ys = range(self.graph.k)
                m = tuple(tuple(sum(row[z] for z in preds[y]) for y in ys) for row in prev)
            self._powers[l] = m
        return m

    def row_totals(self, l: int) -> list:
        """[A^0·1, A^1·1, ...] through at least A^l·1: a free-end tail of
        length l reads every length up to it."""
        _check_length(l)
        ones = self._ones
        if len(ones) <= l:
            out = self.graph._out
            u = ones[-1]
            while len(ones) <= l:
                u = tuple(sum(u[w] for w in succ) for succ in out)
                ones.append(u)
        return ones

    def _ones_power(self, l: int):
        """A^l·1: the number of length-l walks from each vertex."""
        _check_length(l)
        if self._recurrence is None:
            self._recurrence = _ones_recurrence(self.graph)
        coeffs, krylov = self._recurrence
        r = _x_power_mod(coeffs, l)
        return [sum(ri * u[x] for ri, u in zip(r, krylov)) for x in range(self.graph.k)]

    def count(self, x: int, y: int, l: int) -> int:
        """Number of length-l walks from x to y."""
        return self.power(l)[x][y]

    def row_total(self, x: int, l: int) -> int:
        """Number of length-l walks starting at x (free end)."""
        return self._ones_power(l)[x]

    def total(self, l: int) -> int:
        """Number of length-l walks with both endpoints free."""
        return sum(self._ones_power(l))


def _ones_recurrence(g: Graph):
    """(c, u): Krylov vectors u_i = A^i·1 for i < d and integers c_i with
    A^d·1 = sum(c_i u_i), d least.  Fraction-free (Bareiss) elimination of
    the u_i, each row carrying its combination of them; the first u_d that
    reduces to zero gives the relation times a factor that divides every
    coefficient, since q(x) = x^d - sum(c_i x^i) divides the characteristic
    polynomial (Gauss's lemma)."""
    k = g.k
    krylov = [(1,) * k]
    pivots = []  # (column, row): a reduced Krylov vector, then its combination
    while True:
        j = len(pivots)
        row = list(krylov[j]) + [0] * (k + 1)
        row[k + j] = 1
        prev = 1
        for col, prow in pivots:
            p, f = prow[col], row[col]
            row = [(p * a - f * b) // prev for a, b in zip(row, prow)]
            prev = p
        col = next((i for i in range(k) if row[i]), None)
        if col is None:
            break
        pivots.append((col, row))
        krylov.append(tuple(sum(krylov[j][y] for y in g._out[x]) for x in range(k)))
    lead = row[k + j]
    coeffs = []
    for a in row[k:k + j]:
        c, rest = divmod(-a, lead)
        if rest:
            raise ArithmeticError("walk-count recurrence has a non-integer coefficient")
        coeffs.append(c)
    return coeffs, krylov[:j]


def _x_power_mod(c, l: int) -> list:
    """x^l mod x^d - sum(c_i x^i), lowest term first, by square-and-multiply:
    d(d+1)/2 big multiplies per squaring; a multiply by x is a shift."""
    d = len(c)
    r = [1] + [0] * (d - 1)
    for bit in bin(l)[2:]:
        sq = [0] * (2 * d - 1)
        for i, a in enumerate(r):
            if a:
                sq[2 * i] += a * a
                a2 = a << 1
                for j in range(i + 1, d):
                    sq[i + j] += a2 * r[j]
        if bit == "1":
            sq.insert(0, 0)
        for deg in range(len(sq) - 1, d - 1, -1):
            top = sq[deg]
            if top:
                for i, ci in enumerate(c):
                    if ci:
                        sq[deg - d + i] += top * ci
        r = sq[:d]
    return r


def count_walks(g: Graph, l: int):
    """Exact k x k matrix of length-l walk counts (A^l)."""
    return g.counts().power(l)

def total_walks(g: Graph, n: int) -> int:
    """Total number of length-n walks on g."""
    return g.counts().total(n)


def log2_int(v: int) -> float:
    """lg2 of a positive integer, accurate to well below 1e-9 relative."""
    if v <= 0:
        raise RangeError("log2 of non-positive integer")
    b = v.bit_length()
    if b <= 53:
        return math.log2(v)
    # Keep 64 high bits; the truncation error is < 2^-63 in the mantissa.
    shift = b - 64
    return shift + math.log2(v >> shift)


def ceil_log2(v: int) -> int:
    """Smallest w with 2^w >= v, for v >= 1."""
    if v < 1:
        raise RangeError("ceil_log2 needs a positive integer")
    return (v - 1).bit_length()


def benchmark_worstcase_bits(g: Graph, n: int) -> float:
    """lg2 of the number of length-n walks: the worst-case space benchmark."""
    return log2_int(total_walks(g, n))


def benchmark_pointwise_bits(w: Walk) -> float:
    """lg2|G| + sum of lg2 out-degrees along the walk (last vertex excluded)."""
    g = w.graph
    bits = math.log2(g.k)
    for i in range(w.length):
        d = g.out_deg[w.verts[i]]
        if d == 0:
            raise InvalidWalkError(f"vertex {w.verts[i]} at step {i} has out-degree 0")
        bits += math.log2(d)
    return bits


# ---------------------------------------------------------------------------
# Structural analysis


@dataclass(frozen=True)
class GraphAnalysis:
    scc_list: tuple            # vertex partition, topological order
    period: tuple              # per-SCC gcd of cycle lengths; 0 for trivial SCCs
    is_strongly_connected: bool
    is_aperiodic: bool
    is_bipartite: bool
    is_regular: bool
    degree: int | None         # common out-degree when regular


def _tarjan_sccs(g: Graph) -> list[list[int]]:
    """Iterative Tarjan; components come out in reverse topological order."""
    index = {}
    lowlink = {}
    on_stack = [False] * g.k
    stack = []
    sccs = []
    counter = 0
    for root in range(g.k):
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            succ = g._out[v]
            for i in range(pi, len(succ)):
                w = succ[i]
                if w not in index:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if recurse:
                continue
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
            work.pop()
            if work:
                u = work[-1][0]
                lowlink[u] = min(lowlink[u], lowlink[v])
    sccs.reverse()
    return sccs


def _scc_period(g: Graph, comp: list[int]) -> int:
    """gcd of cycle lengths inside one SCC; 0 for a trivial loop-free SCC."""
    if len(comp) == 1:
        u = comp[0]
        return 1 if g.adj[u][u] else 0
    members = set(comp)
    root = comp[0]
    level = {root: 0}
    queue = [root]
    g_period = 0
    while queue:
        u = queue.pop()
        for v in g._out[u]:
            if v not in members:
                continue
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
            else:
                g_period = math.gcd(g_period, level[u] + 1 - level[v])
    return abs(g_period)


def _is_bipartite_undirected(g: Graph) -> bool:
    """2-colorability of the underlying undirected graph."""
    color = [-1] * g.k
    for root in range(g.k):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            u = queue.pop()
            for v in range(g.k):
                if not (g.adj[u][v] or g.adj[v][u]):
                    continue
                if color[v] == -1:
                    color[v] = color[u] ^ 1
                    queue.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def analyze(g: Graph) -> GraphAnalysis:
    """SCC decomposition, per-SCC periods, and the standard structure flags."""
    sccs = _tarjan_sccs(g)
    periods = tuple(_scc_period(g, comp) for comp in sccs)
    strongly = len(sccs) == 1
    aperiodic = strongly and periods[0] == 1
    regular = len(set(g.out_deg)) == 1
    return GraphAnalysis(
        scc_list=tuple(tuple(c) for c in sccs),
        period=periods,
        is_strongly_connected=strongly,
        is_aperiodic=aperiodic,
        is_bipartite=_is_bipartite_undirected(g),
        is_regular=regular,
        degree=g.out_deg[0] if regular else None,
    )


# ---------------------------------------------------------------------------
# Walk generation


def gen_walk(g: Graph, n: int, mode: str = "markov", seed: int = 0) -> Walk:
    """Generate a length-n walk; deterministic for a given seed.

    markov: uniform start, each step uniform over out-neighbors.
    uniform: uniform over all length-n walks, by unranking a random integer.
    """
    if n < 0:
        raise RangeError("walk length must be >= 0")
    rng = random.Random(seed)
    if mode == "markov":
        verts = [rng.randrange(g.k)]
        for i in range(n):
            succ = g._out[verts[-1]]
            if not succ:
                raise GenerationError(
                    f"vertex {verts[-1]} reached at step {i} has no outgoing edge"
                )
            verts.append(succ[rng.randrange(len(succ))])
        return Walk(g, verts)
    if mode == "uniform":
        total = total_walks(g, n)
        if total == 0:
            raise GenerationError(f"graph has no length-{n} walks")
        rank = rng.randrange(total) + 1
        from .codec import CodecTables, walk_from_global_rank

        return walk_from_global_rank(CodecTables(g), n, rank)
    raise ParameterError(f"unknown walk generation mode {mode!r}")


# ---------------------------------------------------------------------------
# Shared test/bench graphs


def triangle() -> Graph:
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


def complete(k: int = 4) -> Graph:
    return Graph(k, [(u, v) for u in range(k) for v in range(u + 1, k)])


def fibonacci_digraph() -> Graph:
    """Two vertices, edges 0->0, 0->1, 1->0; walk counts are Fibonacci."""
    return Graph(2, [(0, 0), (0, 1), (1, 0)], directed=True)


def directed_cycle(k: int = 2) -> Graph:
    return Graph(k, [(i, (i + 1) % k) for i in range(k)], directed=True)
