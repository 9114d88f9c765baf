"""Succinct store for walks on general directed graphs.

Core construction (strongly connected aperiodic graphs): milestones sit
every 2l' steps with a midpoint between each pair.  The walk code of each
half-block is sliced into near-equal groups per milestone vertex, so that
the (vertex, incoming-slice, outgoing-slice) bundle index is nearly uniform
and one succinct array of bundle indices carries almost exactly the
milestone entropy.  A second array stores, per block, the rank of the
triple (midpoint, within-slice index out, within-slice index in) among the
triples its two bundles allow.  Wrappers reduce periodic strongly connected
graphs (walk re-read over the graph of length-p subwalks) and arbitrary
digraphs (split at SCC switches) to the core case.

All slicing arithmetic is exact; the slice of a code K among s groups is
(K-1)*s // N + 1 and its within-slice index is K - ceil((j-1)*N/s).
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .bitpack import RadixSpec, SuccinctArray
from .codec import CodecTables
from .errors import (
    FormatError,
    InvalidWalkError,
    ParameterError,
    RangeError,
    UnsupportedGraphError,
)
from .fileio import Cursor, varint_len, write_varbig, write_varint
from .graph import CountTable, Graph, Walk, analyze, ceil_log2
from .store import WalkStore, pack_vertices


def _cdiv(a: int, b: int) -> int:
    return -(-a // b)


def _group_counts(mat, n: int, half: int) -> tuple:
    """(s, t) from mat = A^half: s_x = floor(n^2 * share of the length-half
    walks that leave x), and t_x the same for the walks that enter x."""
    rows = [sum(row) for row in mat]
    total = sum(rows)
    if total == 0:
        raise ParameterError(f"graph has no length-{half} walks")
    nn = n * n
    return ([r * nn // total for r in rows],
            [sum(col) * nn // total for col in zip(*mat)])


# ---------------------------------------------------------------------------
# Bundle tables


class BundleTable:
    """Group counts and slicing for half-blocks of one length.

    ``groups_out[x]`` (s_x) is the number of slices for walk codes leaving
    milestone vertex x, proportional to x's share of all length-L walks;
    ``groups_in[x]`` (t_x) the same for codes arriving at x.  ``rows[side][x]``
    holds, for every other endpoint y, the count N_L of the walks sliced at x
    (x -> y on side 'out', y -> x on side 'in'), then x's group count.
    """

    def __init__(self, graph: Graph, n: int, half_len: int):
        if half_len < 1:
            raise ParameterError("half-block length must be >= 1")
        self.graph = graph
        self.n = n
        self.half_len = half_len
        self.counts = graph.counts()
        mat = self.counts.power(half_len)
        self.groups_out, self.groups_in = _group_counts(mat, n, half_len)
        if min(self.groups_out) < 1 or min(self.groups_in) < 1:
            raise ParameterError(
                f"a vertex gets zero groups at half-block {half_len}; increase it"
            )
        self.rows = {
            "out": [(tuple(mat[x]), s) for x, s in enumerate(self.groups_out)],
            "in": [(tuple(row[x] for row in mat), t) for x, t in enumerate(self.groups_in)],
        }
        self.sum_out = sum(self.groups_out)
        self.sum_in = sum(self.groups_in)
        self._prefix_out = list(accumulate(self.groups_out, initial=0))
        self._prefix_in = list(accumulate(self.groups_in, initial=0))
        self._prefix_pair = list(accumulate(map(mul, self.groups_out, self.groups_in), initial=0))
        self.sum_pair = self._prefix_pair[-1]

    # -- slicing ---------------------------------------------------------------

    def _row(self, x: int, side: str) -> tuple:
        if side not in self.rows:
            raise ParameterError(f"side must be 'out' or 'in', got {side!r}")
        return self.rows[side][x]

    def slice_of(self, code: int, x: int, y: int, side: str) -> tuple:
        """(slice j, within-slice index k) of a half-block code.

        side 'out': code ranks a walk x -> y leaving milestone x.
        side 'in':  code ranks a walk y -> x entering milestone x.
        """
        row, s = self._row(x, side)
        total = row[y]
        if not 1 <= code <= total:
            raise RangeError(f"code {code} outside [1,{total}]")
        j = (code - 1) * s // total + 1
        return j, code - _cdiv((j - 1) * total, s)

    def code_of(self, j: int, k: int, x: int, y: int, side: str) -> int:
        """Inverse of slice_of."""
        row, s = self._row(x, side)
        if not 1 <= j <= s:
            raise RangeError(f"slice {j} outside [1,{s}]")
        total = row[y]
        if not 1 <= k <= _slice_size(total, s, j):
            raise RangeError(f"within-slice index {k} out of range")
        return _cdiv((j - 1) * total, s) + k

    def slice_size(self, x: int, j: int, y: int, side: str) -> int:
        """Number of codes endpoint y contributes to slice j at vertex x."""
        row, s = self._row(x, side)
        return _slice_size(row[y], s, j)

    # -- bundle packing ----------------------------------------------------------

    def pack_interior(self, x: int, slice_in: int, slice_out: int) -> int:
        return (
            self._prefix_pair[x]
            + (slice_in - 1) * self.groups_out[x]
            + (slice_out - 1)
        )

    def unpack_interior(self, value: int) -> tuple:
        x = _bucket_of(self._prefix_pair, value)
        slice_in, slice_out = divmod(value - self._prefix_pair[x], self.groups_out[x])
        return x, slice_in + 1, slice_out + 1

    def pack_end(self, x: int, j: int, side: str) -> int:
        prefix = self._prefix_out if side == "out" else self._prefix_in
        return prefix[x] + (j - 1)

    def unpack_end(self, value: int, side: str) -> tuple:
        prefix = self._prefix_out if side == "out" else self._prefix_in
        x = _bucket_of(prefix, value)
        return x, value - prefix[x] + 1

    # -- triples --------------------------------------------------------------

    def _sizes(self, x: int, slice_out: int, x_next: int, slice_in: int) -> list:
        """Per midpoint y: (codes y gives slice_out at x, codes y gives
        slice_in at x_next)."""
        row_out, s = self.rows["out"][x]
        row_in, t = self.rows["in"][x_next]
        return [(_slice_size(a, s, slice_out), _slice_size(b, t, slice_in))
                for a, b in zip(row_out, row_in)]

    def triple_count(self, x: int, slice_out: int, x_next: int, slice_in: int) -> int:
        """Number of (midpoint, k_out, k_in) triples a context allows."""
        return sum(a * b for a, b in self._sizes(x, slice_out, x_next, slice_in))

    def triple_radix(self) -> int:
        """Upper bound on triple counts over every realizable context."""
        k = self.graph.k
        best = 1
        two = self.counts.power(2 * self.half_len)
        for x in range(k):
            row_out, s = self.rows["out"][x]
            for x_next in range(k):
                if two[x][x_next] == 0:
                    continue
                row_in, t = self.rows["in"][x_next]
                bound = sum(_cdiv(a, s) * _cdiv(b, t) for a, b in zip(row_out, row_in))
                best = max(best, bound)
        return best

    def triple_rank(self, x, slice_out, x_next, slice_in, y, k_out, k_in) -> int:
        sizes = self._sizes(x, slice_out, x_next, slice_in)
        return sum(a * b for a, b in sizes[:y]) + (k_out - 1) * sizes[y][1] + k_in

    def triple_unrank(self, x, slice_out, x_next, slice_in, rank) -> tuple:
        row_out, s = self.rows["out"][x]
        row_in, t = self.rows["in"][x_next]
        for y, a in enumerate(row_out):  # _sizes, inlined: this runs on every query
            b = row_in[y]
            size_in = (b - slice_in * b) // t - (-slice_in * b) // t
            block = ((a - slice_out * a) // s - (-slice_out * a) // s) * size_in
            if rank <= block:
                k_out, k_in = divmod(rank - 1, size_in)
                return y, k_out + 1, k_in + 1
            rank -= block
        raise RangeError("triple rank beyond context count")


def _slice_size(total: int, groups: int, j: int) -> int:
    """ceil(j N / s) - ceil((j - 1) N / s): the codes of N in slice j of s."""
    return (total - j * total) // groups - (-j * total) // groups


def _bucket_of(prefix, value):
    if not 0 <= value < prefix[-1]:
        raise RangeError(f"packed value {value} outside [0,{prefix[-1]})")
    return bisect.bisect_right(prefix, value) - 1


# ---------------------------------------------------------------------------
# Half-block admissibility


def _half_block_cap(n: int) -> int:
    return min(n // 4, 64 * max(1, (max(n, 2) - 1).bit_length()))


def choose_half_block(g: Graph, n: int) -> int | None:
    """Smallest half-block length meeting the exact admissibility conditions.

    With s_x, t_x the group counts of BundleTable and A^L the length-L walk
    counts:

    (i) every vertex gets at least one group, s_x >= 1 and t_x >= 1;
    (ii) every pairwise count is at least n^2 times the group counts it is
    sliced by, A^half[x][y] >= n^2 max(s_x, t_y), so each slice holds
    >= n^2 codes;
    (iii) the count-to-group ratios A^(2 half)[x][x'] / (s_x t_x') at
    full-block distance agree within a factor 1 + 1/n: the largest is at
    most 1 + 1/n times the smallest, compared as exact fractions.

    Condition (iii) only guards space.  Each block's triple is stored at
    the triple radix, the maximum of the context counts over every
    (x, x'), so a spread eps between the ratios costs at most lg(1 + eps)
    bits per block, m lg(1 + eps) over the m < n blocks.  eps = 1/n keeps
    that below n lg(1 + 1/n) < lg e ~ 1.44 bits for the whole walk.

    Returns None (plain mode) when no length up to n/4, capped at mixing
    scale O(lg n), qualifies.
    """
    counts = g.counts()
    k = g.k
    nn = n * n
    for half in range(1, _half_block_cap(n) + 1):
        mat = counts.power(half)
        s, t = _group_counts(mat, n, half)
        if min(s) < 1 or min(t) < 1:
            continue
        if any(mat[x][y] < nn * max(s[x], t[y]) for x in range(k) for y in range(k)):
            continue
        two = counts.power(2 * half)
        ratios = [Fraction(two[x][xn], s[x] * t[xn]) for x in range(k) for xn in range(k)]
        if max(ratios) * n <= min(ratios) * (n + 1):
            return half
    return None


# ---------------------------------------------------------------------------
# Free-end tail coding (start vertex known, end free)


def tail_rank(counts: CountTable, verts) -> int:
    """Rank of a walk among all walks from verts[0] of the same length,
    ordered lexicographically by successor choice; 0-based."""
    g = counts.graph
    length = len(verts) - 1
    ones = counts.row_totals(length)
    rank = 0
    for step in range(length):
        u, nxt = verts[step], verts[step + 1]
        row = ones[length - 1 - step]
        for w in g.successors(u):
            if w == nxt:
                break
            rank += row[w]
    return rank


def tail_vertex(counts: CountTable, start: int, length: int, rank: int, q: int) -> int:
    """Vertex at position q of the rank-th length-``length`` walk from start."""
    g = counts.graph
    ones = counts.row_totals(length)
    u = start
    for step in range(q):
        row = ones[length - 1 - step]
        for w in g.successors(u):
            c = row[w]
            if rank < c:
                u = w
                break
            rank -= c
        else:
            raise RangeError("tail rank beyond walk count")
    return u


def tail_max_rank(counts: CountTable, length: int) -> int:
    return max(counts.row_totals(length)[length])


# ---------------------------------------------------------------------------
# Core store (strongly connected aperiodic)


class GeneralStore(WalkStore):
    """Bundled store over a strongly connected aperiodic digraph."""

    MAGIC = b"RWG1"
    TAG = 0
    MODE = "general"

    def __init__(self, graph, n, branching, strategy, half_len=None,
                 bundles=None, triples=None, tail_len=0, tail_code=0,
                 plain=None, table=None, tables=None):
        self.graph = graph
        self.n = n
        self.branching = branching
        self.strategy = strategy
        self.half_len = half_len
        self.bundles = bundles
        self.triples = triples
        self.tail_len = tail_len
        self.tail_code = tail_code
        self.plain = plain
        self.table = table
        self.tables = tables or CodecTables(graph, branching=branching)

    @property
    def block_count(self) -> int:
        return self.n // (2 * self.half_len) if self.half_len else 0

    # -- queries ---------------------------------------------------------------

    def _bundle_at(self, i: int, probes=None) -> tuple:
        """(vertex, slice in or None at the first, slice out or None at the last)."""
        value = self.bundles.get(i, probes)
        if i == 0:
            x, j = self.table.unpack_end(value, "out")
            return x, None, j
        if i == self.block_count:
            x, j = self.table.unpack_end(value, "in")
            return x, j, None
        return self.table.unpack_interior(value)

    def vertex_at(self, q: int, probes: set | None = None) -> int:
        if not 0 <= q <= self.n:
            raise RangeError(f"index {q} outside [0,{self.n}]")
        if self.plain is not None:
            return self.plain.get(q, probes)
        L = self.half_len
        m = self.block_count
        block_span = 2 * L
        if q > m * block_span:
            anchor = self._bundle_at(m, probes)[0]
            return tail_vertex(self.table.counts, anchor, self.tail_len,
                               self.tail_code, q - m * block_span)
        i, offset = divmod(q, block_span)
        if offset == 0:
            return self._bundle_at(i, probes)[0]
        x, _, slice_out = self._bundle_at(i, probes)
        x_next, slice_in, _ = self._bundle_at(i + 1, probes)
        rank = self.triples.get(i, probes) + 1
        mid, k_out, k_in = self.table.triple_unrank(x, slice_out, x_next, slice_in, rank)
        if offset == L:
            return mid
        # offset is interior to its half-block, where decode checks the code
        if offset < L:
            code = self.table.code_of(slice_out, k_out, x, mid, "out")
            return self.tables.decode(x, mid, L, code, offset)[0]
        code = self.table.code_of(slice_in, k_in, x_next, mid, "in")
        return self.tables.decode(mid, x_next, L, code, offset - L)[0]

    # -- accounting -------------------------------------------------------------

    @property
    def payload_bits(self) -> int:
        if self.plain is not None:
            return self.plain.data_bits
        tail_bits = 0
        if self.tail_len:
            mx = tail_max_rank(self.table.counts, self.tail_len)
            tail_bits = ceil_log2(mx) if mx > 1 else 0
        return self.bundles.data_bits + self.triples.data_bits + tail_bits

    @property
    def header_bits(self) -> int:
        return self._head_bits((self.half_len, self.tail_len), (self.bundles, self.triples))

    # -- serialization ------------------------------------------------------------

    def body_bytes(self, version: int = 2) -> bytes:
        out = self._body_head(version)
        if self.plain is not None:
            return bytes(out)
        write_varint(out, self.half_len)
        write_varint(out, self.tail_len)
        write_varbig(out, self.tail_code)
        out.extend(self.bundles.to_bytes(version))
        out.extend(self.triples.to_bytes(version))
        return bytes(out)

    @classmethod
    def from_body(cls, cur: Cursor, graph: Graph) -> "GeneralStore":
        n, branching, plain = cls._read_head(cur, graph)
        if plain is not None:
            return plain
        half_len = cur.varint()
        tail_len = cur.varint()
        tail_code = cur.varbig()
        bundles = SuccinctArray.read_from(cur)
        triples = SuccinctArray.read_from(cur)
        if not 1 <= half_len <= _half_block_cap(n):
            raise FormatError(f"half-block {half_len} inconsistent with length {n}")
        m = n // (2 * half_len)
        if bundles.spec.t != m + 1 or triples.spec.t != m:
            raise FormatError("bundle arrays disagree with the declared layout")
        table = BundleTable(graph, n, half_len)
        if bundles.spec != _bundle_spec(table, m):
            raise FormatError("bundle arrays disagree with the declared layout")
        if tail_len != n - 2 * m * half_len:
            raise FormatError("tail length disagrees with the declared layout")
        return cls(graph, n, branching, bundles.strategy, half_len=half_len,
                   bundles=bundles, triples=triples, tail_len=tail_len,
                   tail_code=tail_code, table=table)


def _bundle_spec(table: BundleTable, m: int) -> RadixSpec:
    return RadixSpec.from_runs([(table.sum_out, 1), (table.sum_pair, m - 1), (table.sum_in, 1)])


def build_general_core(g: Graph, w: Walk, strategy="spill_tree", branching=2) -> GeneralStore:
    """Bundled store; falls back to plain packing when no half-block length
    up to the cap is admissible (always so below two full blocks)."""
    if w.graph != g:  # the segments are encoded without a second check
        raise InvalidWalkError("walk was built on a different graph")
    info = analyze(g)
    if not (info.is_strongly_connected and info.is_aperiodic):
        raise UnsupportedGraphError(
            "core general store needs a strongly connected aperiodic graph"
        )
    n = w.length
    half = choose_half_block(g, n)
    if half is None:
        return GeneralStore.build_plain(g, w, branching)
    table = BundleTable(g, n, half)
    tables = CodecTables(g, branching=branching)
    m = n // (2 * half)
    span = 2 * half

    packed_bundles = []
    slices = []  # (slice_in, slice_out) per milestone, for triple contexts
    for i in range(m + 1):
        x = w.verts[i * span]
        j_in = k_in = j_out = k_out = None
        if i > 0:
            seg = w.verts[i * span - half : i * span + 1]
            code = tables.encode(seg)
            j_in, k_in = table.slice_of(code, x, seg[0], "in")
        if i < m:
            seg = w.verts[i * span : i * span + half + 1]
            code = tables.encode(seg)
            j_out, k_out = table.slice_of(code, x, seg[-1], "out")
        if i == 0:
            packed_bundles.append(table.pack_end(x, j_out, "out"))
        elif i == m:
            packed_bundles.append(table.pack_end(x, j_in, "in"))
        else:
            packed_bundles.append(table.pack_interior(x, j_in, j_out))
        slices.append((j_in, k_in, j_out, k_out))

    triple_vals = []
    radix = table.triple_radix()
    for i in range(m):
        x, x_next = w.verts[i * span], w.verts[(i + 1) * span]
        mid = w.verts[i * span + half]
        _, _, j_out, k_out = slices[i]
        j_in, k_in, _, _ = slices[i + 1]
        rank = table.triple_rank(x, j_out, x_next, j_in, mid, k_out, k_in)
        if rank > radix:
            raise ParameterError("triple radix undershoots a realizable context")
        triple_vals.append(rank - 1)

    bundle_spec = _bundle_spec(table, m)
    triple_spec = RadixSpec.uniform_spec(radix, m)
    bundles = SuccinctArray.build(bundle_spec, packed_bundles, strategy)
    triples = SuccinctArray.build(triple_spec, triple_vals, strategy)
    tail_len = n - m * span
    tail_code = tail_rank(table.counts, w.verts[m * span :]) if tail_len else 0
    return GeneralStore(
        g, n, branching, bundles.strategy, half_len=half, bundles=bundles,
        triples=triples, tail_len=tail_len, tail_code=tail_code,
        plain=None, table=table, tables=tables,
    )


# ---------------------------------------------------------------------------
# Periodic wrapper: re-read the walk over the graph of length-p subwalks


class ProductGraph:
    """Derived graph whose vertices are the length-p subwalks starting in
    layer 0; deterministic given the base graph."""

    def __init__(self, base: Graph, period: int):
        self.base = base
        self.period = period
        level = {0: 0}
        queue = [0]
        while queue:
            u = queue.pop(0)
            for v in base.successors(u):
                if v not in level:
                    level[v] = (level[u] + 1) % period
                    queue.append(v)
        self.layer = [level[v] for v in range(base.k)]
        start_layer = [v for v in range(base.k) if self.layer[v] == 0]
        tuples = []
        for s in sorted(start_layer):
            stack = [(s,)]
            while stack:
                verts = stack.pop()
                if len(verts) == period + 1:
                    tuples.append(verts)
                    continue
                for z in sorted(base.successors(verts[-1]), reverse=True):
                    stack.append(verts + (z,))
        tuples.sort()
        self.tuples = tuples
        self.index = {t: i for i, t in enumerate(tuples)}
        if not tuples:
            raise UnsupportedGraphError("no length-p subwalks start in layer 0")
        edges = [
            (i, j)
            for i, ti in enumerate(tuples)
            for j, tj in enumerate(tuples)
            if ti[-1] == tj[0]
        ]
        self.graph = Graph(len(tuples), edges, directed=True)


class PeriodicStore(WalkStore):
    """General store for periodic strongly connected graphs: plain prefix
    and suffix of length < p, middle stored over the product graph."""

    MAGIC = GeneralStore.MAGIC
    TAG = 1
    MODE = "general"

    def __init__(self, graph, n, period, prefix, suffix, inner, product=None):
        self.graph = graph
        self.n = n
        self.period = period
        self.prefix = prefix      # SuccinctArray of leading vertices (may be len 0)
        self.suffix = suffix
        self.inner = inner        # GeneralStore over the product graph, or None
        self.product = product

    @property
    def start(self) -> int:
        return self.prefix.spec.t

    @property
    def strategy(self):
        return self.inner.strategy if self.inner is not None else ("packed", None)

    def vertex_at(self, q: int, probes: set | None = None) -> int:
        if not 0 <= q <= self.n:
            raise RangeError(f"index {q} outside [0,{self.n}]")
        if q < self.start:
            return self.prefix.get(q, probes)
        if self.inner is None or q >= self.n + 1 - self.suffix.spec.t:
            return self.suffix.get(q - (self.n + 1 - self.suffix.spec.t), probes)
        j, r = divmod(q - self.start, self.period)
        return self.product.tuples[self.inner.vertex_at(j, probes)][r]

    @property
    def payload_bits(self) -> int:
        inner = self.inner.payload_bits if self.inner else 0
        return self.prefix.data_bits + self.suffix.data_bits + inner

    @property
    def header_bits(self) -> int:
        inner = self.inner.header_bits if self.inner else 0
        return (
            8 * (varint_len(self.n) + varint_len(self.period))
            + self.prefix.header_bits + self.suffix.header_bits + inner
        )

    def body_bytes(self, version: int = 2) -> bytes:
        out = bytearray()
        write_varint(out, self.n)
        write_varint(out, self.period)
        out.extend(self.prefix.to_bytes(version))
        out.extend(self.suffix.to_bytes(version))
        out.append(1 if self.inner is not None else 0)
        if self.inner is not None:
            out.extend(self.inner.body_bytes(version))
        return bytes(out)

    @classmethod
    def from_body(cls, cur: Cursor, graph: Graph) -> "PeriodicStore":
        n = cur.varint()
        period = cur.varint()
        info = analyze(graph)
        # checked before ProductGraph, whose size grows exponentially in p
        if not info.is_strongly_connected or period < 2 or period != info.period[0]:
            raise FormatError(f"period {period} is not the period of the graph")
        prefix = SuccinctArray.read_from(cur)
        suffix = SuccinctArray.read_from(cur)
        inner = None
        product = None
        if cur.u8():
            product = ProductGraph(graph, period)
            inner = GeneralStore.from_body(cur, product.graph)
        middle = (inner.n + 1) * period if inner is not None else 0
        if prefix.spec.t + middle + suffix.spec.t != n + 1:
            raise FormatError(f"prefix, middle and suffix do not make a walk of length {n}")
        return cls(graph, n, period, prefix, suffix, inner, product)


def wrap_periodic(g: Graph, w: Walk, strategy="spill_tree", branching=2):
    """Store a walk on a strongly connected graph of any period."""
    info = analyze(g)
    if not info.is_strongly_connected:
        raise UnsupportedGraphError("periodic wrapper needs strong connectivity")
    if info.is_aperiodic:
        return build_general_core(g, w, strategy, branching)
    period = info.period[0]
    if period == 0:  # single vertex, no self-loop: the walk is one vertex
        return GeneralStore.build_plain(g, w, branching)
    product = ProductGraph(g, period)
    n = w.length
    start = (period - product.layer[w.verts[0]]) % period
    blocks = (n - start) // period if n >= start else 0
    if blocks < 1:
        return GeneralStore.build_plain(g, w, branching)
    mid_end = start + blocks * period
    inner_walk = Walk(
        product.graph,
        [
            product.index[tuple(w.verts[start + j * period : start + (j + 1) * period + 1])]
            for j in range(blocks)
        ],
    )
    inner = build_general_core(product.graph, inner_walk, strategy, branching)
    prefix = pack_vertices(g.k, w.verts[:start])
    suffix = pack_vertices(g.k, w.verts[mid_end:])
    return PeriodicStore(g, n, period, prefix, suffix, inner, product)


# ---------------------------------------------------------------------------
# SCC wrapper: arbitrary directed graphs


# An SCC segment is either kind the periodic wrapper returns.
_SEGMENT_CLASSES = {cls.TAG: cls for cls in (GeneralStore, PeriodicStore)}


class SccStore(WalkStore):
    """Splits the walk at SCC switches; per-SCC segments go through the
    periodic wrapper on the induced subgraph, switch positions are plain."""

    MAGIC = GeneralStore.MAGIC
    TAG = 2
    MODE = "general"

    def __init__(self, graph, n, starts, scc_ids, segments, scc_list):
        self.graph = graph
        self.n = n
        self.starts = starts        # segment start positions, ascending
        self.scc_ids = scc_ids      # SCC index per segment
        self.segments = segments    # per-segment stores over local ids
        self.scc_list = scc_list

    @property
    def strategy(self):
        return self.segments[0].strategy

    def vertex_at(self, q: int, probes: set | None = None) -> int:
        if not 0 <= q <= self.n:
            raise RangeError(f"index {q} outside [0,{self.n}]")
        seg = bisect.bisect_right(self.starts, q) - 1
        local = self.segments[seg].vertex_at(q - self.starts[seg], probes)
        return self.scc_list[self.scc_ids[seg]][local]

    @property
    def payload_bits(self) -> int:
        return sum(s.payload_bits for s in self.segments)

    @property
    def header_bits(self) -> int:
        switch_bits = 8 * sum(varint_len(s) for s in self.starts)
        return switch_bits + sum(s.header_bits for s in self.segments)

    def body_bytes(self, version: int = 2) -> bytes:
        out = bytearray()
        write_varint(out, self.n)
        write_varint(out, len(self.segments))
        for start, scc_id, seg in zip(self.starts, self.scc_ids, self.segments):
            write_varint(out, start)
            write_varint(out, scc_id)
            out.append(seg.TAG)
            out.extend(seg.body_bytes(version))
        return bytes(out)

    @classmethod
    def from_body(cls, cur: Cursor, graph: Graph) -> "SccStore":
        n = cur.varint()
        count = cur.varint()
        if count < 1:
            raise FormatError("SCC store without segments")
        scc_list = analyze(graph).scc_list
        starts, scc_ids, segments = [], [], []
        for _ in range(count):
            start = cur.varint()
            # each segment starts one past the last vertex of the one before
            if start != (starts[-1] + segments[-1].n + 1 if starts else 0):
                raise FormatError(f"segment start {start} disagrees with the segment before it")
            starts.append(start)
            scc_id = cur.varint()
            if scc_id >= len(scc_list):
                raise FormatError(f"SCC id {scc_id} beyond the graph's {len(scc_list)} SCCs")
            scc_ids.append(scc_id)
            tag = cur.u8()
            if tag not in _SEGMENT_CLASSES:
                raise FormatError(f"unknown SCC segment tag {tag}")
            sub = _induced_subgraph(graph, scc_list[scc_id])
            segments.append(_SEGMENT_CLASSES[tag].from_body(cur, sub))
        if starts[-1] + segments[-1].n != n:
            raise FormatError(f"segments end at {starts[-1] + segments[-1].n}, not at {n}")
        return cls(graph, n, starts, scc_ids, segments, scc_list)


def _induced_subgraph(g: Graph, comp) -> Graph:
    local = {v: i for i, v in enumerate(comp)}
    edges = [
        (local[u], local[v])
        for u in comp
        for v in comp
        if g.adj[u][v]
    ]
    return Graph(len(comp), edges, directed=True)


def wrap_scc(g: Graph, w: Walk, strategy="spill_tree", branching=2):
    """Store a walk on an arbitrary directed graph."""
    info = analyze(g)
    if info.is_strongly_connected:
        return wrap_periodic(g, w, strategy, branching)
    scc_of = {}
    for idx, comp in enumerate(info.scc_list):
        for v in comp:
            scc_of[v] = idx
    starts = [0]
    for i in range(w.length):
        if scc_of[w.verts[i]] != scc_of[w.verts[i + 1]]:
            starts.append(i + 1)
    ends = starts[1:] + [w.length + 1]
    scc_ids, segments = [], []
    for start, end in zip(starts, ends):
        scc_id = scc_of[w.verts[start]]
        comp = info.scc_list[scc_id]
        sub = _induced_subgraph(g, comp)
        local = {v: i for i, v in enumerate(comp)}
        seg_walk = Walk(sub, [local[v] for v in w.verts[start:end]])
        scc_ids.append(scc_id)
        segments.append(wrap_periodic(sub, seg_walk, strategy, branching))
    return SccStore(g, w.length, starts, scc_ids, segments, info.scc_list)


def build_general(g: Graph, w: Walk, strategy="spill_tree", branching=2):
    """Entry point: routes to the core or the periodic/SCC wrappers."""
    if w.graph != g:
        raise InvalidWalkError("walk was built on a different graph")
    return wrap_scc(g, w, strategy, branching)
