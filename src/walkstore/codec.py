"""Bijective ranking of fixed-endpoint walks with positional decoding.

A length-l walk from x to y is encoded as an integer in [1, N_l(x,y)] where
N_l(x,y) is the exact number of such walks.  Encoding is a B-way divide and
conquer: the interior split vertices form a tuple Z, ranked through a
directory of tuples sorted by how many walks pass through them, and the
per-segment codes K_1..K_B are mixed-radix-packed after it.  Decoding a
single position recovers Z by predecessor search over the directory prefix
sums and descends only into the segment holding the position, one loop
iteration per recursion level, so it touches O(lg l) levels instead of
unranking the whole walk.

A directory keeps only the prefix sums, the split vertices and the suffix
products of the segment counts, in flat tuples; the counts themselves stay
in the graph's cached matrices A^j.  Its tuple -> rank index is built only
when a walk is encoded.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter, mul
from typing import Sequence

from .config import CODEC_TUPLE_CAP
from .errors import InvalidWalkError, ParameterError, RangeError
from .graph import Graph, Walk


@dataclass(frozen=True)
class WalkCode:
    """Rank of a fixed-endpoint walk: 1 <= value <= N_l(x, y)."""

    value: int
    x: int
    y: int
    l: int


class _Directory:
    """The interior-vertex tuples of one (x, y, l), sorted by walk count.

    Tuple z has split vertices ``mids[z*(B-1) : (z+1)*(B-1)]``, walks
    through tuples 0..z sum to ``prefix[z]``, and ``suffix[z*B + i]`` is
    the product of its segment counts after segment i: 1 for the last and,
    at B = 2, the very int A^b[z][y] that ``CountTable.power`` holds.
    """

    __slots__ = ("bounds", "prefix", "mids", "suffix", "_index")

    def __init__(self, bounds, prefix, mids, suffix):
        self.bounds = bounds  # the segment bounds of length l
        self.prefix = prefix
        self.mids = mids
        self.suffix = suffix
        self._index = None

    def index(self) -> dict:
        """Split-vertex tuple -> z, built when encode first asks: filled at
        most once, and two threads that race here build the same dict."""
        w = len(self.bounds) - 2
        mids = self.mids
        self._index = {mids[j : j + w]: j // w for j in range(0, len(mids), w)}
        return self._index


class CodecTables:
    """Graph-derived ranking tables, built on demand and cached.

    Directories are deterministic functions of (graph, branching) and are
    never serialized alongside walk data.  Once built, a directory changes
    only by filling its lazy index.
    """

    def __init__(self, graph: Graph, branching: int = 2):
        if branching < 2:
            raise ParameterError("branching must be >= 2")
        self.graph = graph
        self.branching = branching
        self.counts = graph.counts()
        self._dirs = {}
        self._bounds = {}
        self._plans = {}
        self.vertices = frozenset(range(graph.k))

    def segment_bounds(self, l: int):
        """Split positions 0 = b_0 <= ... <= b_B = l with b_i = floor(i*l/B)."""
        if l not in self._bounds:
            B = self.branching
            self._bounds[l] = tuple((i * l) // B for i in range(B + 1))
        return self._bounds[l]

    def walk_count(self, x: int, y: int, l: int) -> int:
        return self.counts.count(x, y, l)

    def directory(self, x: int, y: int, l: int) -> _Directory:
        cached = self._dirs.get((x, y, l))
        if cached is not None:
            return cached
        B, k = self.branching, self.graph.k
        if k ** (B - 1) > CODEC_TUPLE_CAP:
            raise ParameterError(f"directory of {k}^{B - 1} tuples exceeds cap {CODEC_TUPLE_CAP}")
        bounds = self.segment_bounds(l)
        mats = [self.counts.power(b - a) for a, b in zip(bounds, bounds[1:])]
        walks = [(x,)]  # vertices at the bounds so far, with walks between each two
        for m, nexts in zip(mats, [range(k)] * (B - 1) + [(y,)]):
            walks = [w + (z,) for w in walks for z in nexts if m[w[-1]][z]]
        entries = []
        for w in walks:
            counts = [m[a][b] for m, a, b in zip(mats, w, w[1:])]
            # accumulate starts from the matrix's own int, not a copy
            sfx = [*accumulate(counts[:0:-1], mul)][::-1] + [1]
            entries.append((counts[0] * sfx[0], w[1:-1], sfx))
        entries.sort(key=itemgetter(0, 1))
        prefix, mids, suffix = [], [], []
        for product, t, sfx in entries:
            prefix.append(product + prefix[-1] if prefix else product)
            mids += t
            suffix += sfx
        directory = _Directory(bounds, tuple(prefix), tuple(mids), tuple(suffix))
        self._dirs[x, y, l] = directory
        return directory

    # -- encoding ------------------------------------------------------------

    def plan(self, l: int) -> list:
        """The internal nodes of the length-l split tree in post-order, one
        ``(pick, length, internal children last first)`` entry each, where
        ``pick`` takes the node's (x, split vertices..., y) out of a walk.
        Children of length <= 1 have code 1 and get no entry."""
        if l not in self._plans:
            nodes, todo = [], [(0, l)] if l > 1 else []
            while todo:  # pre-order, children right to left: reversed, post-order
                lo, n = todo.pop()
                b = self.segment_bounds(n)
                inner = [i for i in range(self.branching) if b[i + 1] - b[i] > 1]
                nodes.append((itemgetter(*(lo + c for c in b)), n, inner[::-1]))
                todo.extend((lo + b[i], b[i + 1] - b[i]) for i in inner)
            self._plans[l] = nodes[::-1]
        return self._plans[l]

    def encode(self, verts: Sequence[int]) -> int:
        """Rank in [1, N_l(x, y)] of the walk x = verts[0] -> y = verts[-1]:
        one loop over the plan of l = len(verts) - 1, each node combining
        the codes of its internal children from a stack."""
        dirs = self._dirs
        B = self.branching
        codes = [1]  # the code of a walk of length <= 1, which has no plan
        for pick, l, inner in self.plan(len(verts) - 1):
            ends = pick(verts)
            x, y = ends[0], ends[-1]
            directory = dirs.get((x, y, l)) or self.directory(x, y, l)
            z = (directory._index or directory.index()).get(ends[1:-1])
            if z is None:
                raise InvalidWalkError(f"no walks pass through {ends[1:-1]} between {x} and {y}")
            suffix, zb = directory.suffix, z * B
            code = directory.prefix[z - 1] + 1 if z else 1
            for i in inner:
                code += (codes.pop() - 1) * suffix[zb + i]
            codes.append(code)
        return codes[-1]

    # -- decoding ------------------------------------------------------------

    def decode(self, x: int, y: int, l: int, code: int, q: int) -> tuple:
        """(vertex at position q, recursion depth) of the length-l walk
        x -> y with this code: one loop, one level per directory lookup."""
        B = self.branching
        depth = 0
        while 0 < q < l:
            depth += 1
            directory = self._dirs.get((x, y, l)) or self.directory(x, y, l)
            prefix = directory.prefix
            if not (prefix and 1 <= code <= prefix[-1]):
                raise RangeError(f"code {code} outside the length-{l} walks {x} -> {y}")
            z = bisect_left(prefix, code)
            bounds = directory.bounds
            i = bisect_left(bounds, q)
            if bounds[i] == q:
                return directory.mids[z * (B - 1) + i - 1], depth
            i -= 1
            rest = code - (prefix[z - 1] if z else 0) - 1
            # segment i, between mids[s - z - 1] and mids[s - z], has radix
            # suffix[s] in rest: drop the segments before it, then those after
            s = z * B + i
            suffix = directory.suffix
            if i:
                rest %= suffix[s - 1]
                x = directory.mids[s - z - 1]
            code = rest // suffix[s] + 1
            if i < B - 1:
                y = directory.mids[s - z]
            l = bounds[i + 1] - bounds[i]
            q -= bounds[i]
        return (x if q == 0 else y), depth

    def _decode_full(self, x, y, l, code, out) -> None:
        if l == 0:
            return
        if l == 1:
            out.append(y)
            return
        B = self.branching
        directory = self.directory(x, y, l)
        # decode_full checked the top code; every segment code is in range
        z = bisect_left(directory.prefix, code)
        rest = code - (directory.prefix[z - 1] if z else 0) - 1
        bounds = directory.bounds
        ends = (x, *directory.mids[z * (B - 1) : (z + 1) * (B - 1)], y)
        for i, radix in enumerate(directory.suffix[z * B : (z + 1) * B]):
            k_i, rest = divmod(rest, radix)
            self._decode_full(ends[i], ends[i + 1], bounds[i + 1] - bounds[i], k_i + 1, out)


def _check_segment(tables: CodecTables, verts: Sequence[int]) -> None:
    g = tables.graph
    if not tables.vertices.issuperset(verts):
        v = next(v for v in verts if v not in tables.vertices)
        raise InvalidWalkError(f"vertex {v} outside [0,{g.k})")
    adj = g.adj
    a = verts[0]
    for b in verts[1:]:
        if not adj[a][b]:
            raise InvalidWalkError(f"({a},{b}) is not an edge")
        a = b


def encode_walk(tables: CodecTables, verts: Sequence[int]) -> WalkCode:
    """Rank a walk segment (endpoints included in ``verts``)."""
    verts = tuple(verts)
    if not verts:
        raise InvalidWalkError("empty segment")
    _check_segment(tables, verts)
    return WalkCode(value=tables.encode(verts), x=verts[0], y=verts[-1], l=len(verts) - 1)


def _check_code(tables: CodecTables, code: WalkCode) -> None:
    total = tables.walk_count(code.x, code.y, code.l)
    if not 1 <= code.value <= total:
        raise RangeError(f"code {code.value} outside [1,{total}]")


def decode_vertex(tables: CodecTables, code: WalkCode, q: int, stats: dict | None = None) -> int:
    """Vertex at position q of the walk with this code, without full unranking."""
    if not 0 <= q <= code.l:
        raise RangeError(f"position {q} outside [0,{code.l}]")
    _check_code(tables, code)
    v, depth = tables.decode(code.x, code.y, code.l, code.value, q)
    if stats is not None:
        stats["depth"] = max(stats.get("depth", 0), depth)
    return v


def decode_full(tables: CodecTables, code: WalkCode) -> Walk:
    """Inverse of encode_walk."""
    _check_code(tables, code)
    out = [code.x]
    tables._decode_full(code.x, code.y, code.l, code.value, out)
    return Walk(tables.graph, out)


# ---------------------------------------------------------------------------
# Global (free-endpoint) walk ranking, used by uniform walk generation


def _pair_offsets(tables: CodecTables, n: int):
    pairs = []
    acc = 0
    k = tables.graph.k
    for x in range(k):
        for y in range(k):
            c = tables.walk_count(x, y, n)
            if c:
                pairs.append((x, y, acc))
                acc += c
    return pairs, acc


def global_rank(tables: CodecTables, walk: Walk) -> int:
    """Rank of a walk among all length-n walks, ordered by (start, end, code)."""
    n = walk.length
    pairs, _ = _pair_offsets(tables, n)
    x, y = walk.verts[0], walk.verts[-1]
    offset = next(off for px, py, off in pairs if (px, py) == (x, y))
    code = tables.encode(walk.verts)
    tables._plans.pop(n, None)  # about 360 bytes a node: keep no whole-walk plan
    return offset + code


def walk_from_global_rank(tables: CodecTables, n: int, rank: int) -> Walk:
    """Inverse of global_rank: the rank-th length-n walk."""
    pairs, total = _pair_offsets(tables, n)
    if not 1 <= rank <= total:
        raise RangeError(f"rank {rank} outside [1,{total}]")
    x = y = None
    offset = 0
    for px, py, off in pairs:
        if off < rank:
            x, y, offset = px, py, off
        else:
            break
    return decode_full(tables, WalkCode(value=rank - offset, x=x, y=y, l=n))
