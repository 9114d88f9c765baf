"""Succinct store for walks on connected non-bipartite regular graphs.

Milestones every l steps go into one succinct array (radix |G|), the walk
code of each length-l block goes into a second (radix close to d^l / |G|).
A query reads two milestones and one block code, then decodes a single
position of the block.  The block length l is the smallest one for which
every pairwise walk count N_l(x,y) fits under (1/|G| + 1/n^2) d^l, checked
with exact integer arithmetic; short walks fall back to plain packing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitpack import AppendableArray, RadixSpec, SuccinctArray, normalize_strategy
from .codec import CodecTables
from .errors import (
    FormatError,
    InvalidWalkError,
    RangeError,
    UnsupportedGraphError,
    UnsupportedOperationError,
)
from .fileio import Cursor, write_varint
from .graph import Graph, Walk, analyze
from .store import WalkStore


def unsuitable_reason(g: Graph) -> str | None:
    """Why the regular store cannot hold walks on g, or None when it can:
    g must be regular and strongly connected, and aperiodic if directed or
    non-bipartite (unless a single vertex) if undirected."""
    info = analyze(g)
    if not info.is_regular:
        return "graph is not regular"
    if not info.is_strongly_connected:
        return "graph is not connected"
    if g.directed:
        if not info.is_aperiodic:
            return "directed regular graph must be aperiodic"
    elif info.is_bipartite and g.k > 1:
        return "bipartite graph; use the general store"
    return None


def _scan_cap(n: int) -> int:
    # block lengths scale with lg n on mixing graphs; graphs that need more
    # than this are effectively non-mixing and fall back to plain storage
    # rather than stalling the build on an O(n)-length scan
    return 64 * max(1, (max(n, 2) - 1).bit_length())


def _block_radix(g: Graph, n: int, l: int) -> int:
    """floor((1/|G| + 1/n^2) d^l), in integers."""
    nn = n * n
    return ((nn + g.k) * g.out_deg[0] ** l) // (g.k * nn)


def choose_l(g: Graph, n: int) -> int | None:
    """Smallest block length l whose walk counts all fit the block radix.

    Returns None when no l up to n/2 (or the mixing-scale cap) works; the
    caller then stores plainly.  The admissibility test
    max_xy N_l(x,y) <= (1/|G| + 1/n^2) d^l compares an integer count with
    the floor of the bound, which is exact: N <= X/D iff N <= floor(X/D).
    """
    reason = unsuitable_reason(g)
    if reason is not None:
        raise UnsupportedGraphError(reason)
    if n < 1:
        raise RangeError("walk length must be >= 1")
    counts = g.counts()
    for l in range(1, min(n // 2, _scan_cap(n)) + 1):
        if max(max(row) for row in counts.power(l)) <= _block_radix(g, n, l):
            return l
    return None


@dataclass(frozen=True)
class RegularLayout:
    n: int
    l: int
    m: int            # full blocks
    rem: int          # n mod l
    block_radix: int  # floor((1/|G| + 1/n^2) d^l)
    rem_radix: int    # max_xy N_rem(x,y), 0 when rem == 0


def _layout_for(g: Graph, n: int, l: int) -> RegularLayout:
    m, rem = divmod(n, l)
    rem_radix = 0
    if rem:
        mat = g.counts().power(rem)
        rem_radix = max(max(row) for row in mat)
    return RegularLayout(n=n, l=l, m=m, rem=rem, block_radix=_block_radix(g, n, l),
                         rem_radix=rem_radix)


def _block_spec(g: Graph, layout: RegularLayout) -> RadixSpec:
    return RadixSpec.from_runs(
        [(layout.block_radix, layout.m), (layout.rem_radix, 1 if layout.rem else 0)]
    )


def _milestone_spec(g: Graph, layout: RegularLayout) -> RadixSpec:
    t = layout.m + 1 + (1 if layout.rem else 0)
    return RadixSpec.uniform_spec(g.k, t)


class RegularStore(WalkStore):
    """Encoded walk over a regular graph; query with vertex_at.

    The arrays are SuccinctArrays, or the AppendableArrays of a
    RegularStoreBuilder that reads its flushed blocks through this class.
    """

    MAGIC = b"RWR1"
    MODE = "regular"

    def __init__(self, graph, n, strategy, branching, layout=None,
                 milestones=None, blocks=None, plain=None, tables=None):
        self.graph = graph
        self.n = n
        self.strategy = strategy
        self.branching = branching
        self.layout = layout
        self.milestones = milestones
        self.blocks = blocks
        self.plain = plain
        self.tables = tables or CodecTables(graph, branching=branching)

    def vertex_at(self, i: int, probes: set | None = None) -> int:
        if not 0 <= i <= self.n:
            raise RangeError(f"index {i} outside [0,{self.n}]")
        if self.plain is not None:
            return self.plain.get(i, probes)
        lay = self.layout
        if i % lay.l == 0 and i <= lay.m * lay.l:
            return self.milestones.get(i // lay.l, probes)
        if i == lay.n:
            return self.milestones.get(lay.m + 1, probes)
        b = i // lay.l  # block m is the remainder block
        x = self.milestones.get(b, probes)
        y = self.milestones.get(b + 1, probes)
        length = lay.l if b < lay.m else lay.rem
        # an interior position: decode raises RangeError for a code outside
        # [1, N_length(x, y)]
        return self.tables.decode(x, y, length, self.blocks.get(b, probes) + 1, i - b * lay.l)[0]

    @property
    def payload_bits(self) -> int:
        if self.plain is not None:
            return self.plain.data_bits
        return self.milestones.data_bits + self.blocks.data_bits

    @property
    def header_bits(self) -> int:
        l = () if self.layout is None else (self.layout.l,)
        return self._head_bits(l, (self.milestones, self.blocks))

    # -- serialization --------------------------------------------------------

    def body_bytes(self, version: int = 2) -> bytes:
        out = self._body_head(version)
        if self.plain is None:
            write_varint(out, self.layout.l)
            out.extend(self.milestones.to_bytes(version))
            out.extend(self.blocks.to_bytes(version))
        return bytes(out)

    @classmethod
    def from_body(cls, cur: Cursor, graph: Graph) -> "RegularStore":
        n, branching, plain = cls._read_head(cur, graph)
        if plain is not None:
            return plain
        l = cur.varint()
        if not 1 <= l <= min(max(1, n // 2), _scan_cap(n)):
            raise FormatError(f"block length {l} inconsistent with walk length {n}")
        milestones = SuccinctArray.read_from(cur)
        blocks = SuccinctArray.read_from(cur)
        m, rem = divmod(n, l)
        if milestones.spec.t != m + 1 + bool(rem) or blocks.spec.t != m + bool(rem):
            raise FormatError("array lengths disagree with the declared block length")
        layout = _layout_for(graph, n, l)
        if milestones.spec != _milestone_spec(graph, layout):
            raise FormatError("milestone array disagrees with the declared layout")
        if blocks.spec != _block_spec(graph, layout):
            raise FormatError("block array disagrees with the declared layout")
        return cls(graph, n, blocks.strategy, branching,
                   layout=layout, milestones=milestones, blocks=blocks)


def build_regular(g: Graph, w: Walk, strategy="spill_tree", branching: int = 2) -> RegularStore:
    """Encode a walk on a regular graph; falls back to plain packing when the
    walk is too short for milestone blocks to pay off."""
    if w.graph != g:
        raise InvalidWalkError("walk was built on a different graph")
    n = w.length
    l = choose_l(g, n) if n >= 1 else None
    if l is None:
        return RegularStore.build_plain(g, w, branching)
    layout = _layout_for(g, n, l)
    tables = CodecTables(g, branching=branching)
    ms_values = [w.verts[i * l] for i in range(layout.m + 1)]
    if layout.rem:
        ms_values.append(w.verts[n])
    codes = []
    for i in range(layout.m):
        seg = w.verts[i * l : (i + 1) * l + 1]
        codes.append(tables.encode(seg) - 1)
    if layout.rem:
        codes.append(tables.encode(w.verts[layout.m * l :]) - 1)
    milestones = SuccinctArray.build(_milestone_spec(g, layout), ms_values, strategy)
    blocks = SuccinctArray.build(_block_spec(g, layout), codes, strategy)
    return RegularStore(
        g, n, blocks.strategy, branching,
        layout=layout, milestones=milestones, blocks=blocks, tables=tables,
    )


class RegularStoreBuilder:
    """Online (append-only) construction; blocked strategy only.

    The final walk length must be declared up front since the block radix
    depends on it.  After the last append, ``finalize()`` yields a store
    whose payload is byte-identical to a batch build with the same
    parameters.  Queries between appends serve the unflushed tail from a
    small buffer and every flushed position through a RegularStore over
    the builder's appendable arrays.
    """

    def __init__(self, g: Graph, n: int, branching: int = 2, strategy="blocked"):
        name, _ = strategy if not isinstance(strategy, str) else (strategy, None)
        if name not in ("blocked", "packed"):
            raise UnsupportedOperationError("online mode needs an appendable strategy")
        self.graph = g
        self.n = n
        self.count = 0
        self.pending = []
        l = choose_l(g, n) if n >= 1 else None
        self.layout = lay = None if l is None else _layout_for(g, n, l)
        if lay is None:
            arr = AppendableArray(lambda i: g.k, "packed")
            self.store = RegularStore(g, n, arr.strategy, branching, plain=arr)
            return
        milestones = AppendableArray(
            lambda i: g.k, normalize_strategy(strategy, _milestone_spec(g, lay))
        )
        blocks = AppendableArray(
            lambda i: lay.block_radix if i < lay.m else lay.rem_radix,
            normalize_strategy(strategy, _block_spec(g, lay)),
        )
        self.store = RegularStore(g, n, blocks.strategy, branching, layout=lay,
                                  milestones=milestones, blocks=blocks)

    def append(self, v: int) -> None:
        if self.count > self.n:
            raise RangeError("walk already complete")
        if not 0 <= v < self.graph.k:
            raise InvalidWalkError(f"vertex {v} outside [0,{self.graph.k})")
        if self.pending and not self.graph.adj[self.pending[-1]][v]:
            raise InvalidWalkError(f"({self.pending[-1]},{v}) is not an edge")
        store = self.store
        if store.plain is not None:
            store.plain.append(v)
            self.count += 1
            self.pending = [v]
            return
        pos = self.count
        self.count += 1
        lay = self.layout
        if pos == 0:
            store.milestones.append(v)
            self.pending = [v]
            return
        self.pending.append(v)
        if (pos % lay.l == 0 and pos <= lay.m * lay.l) or (pos == lay.n and lay.rem):
            store.milestones.append(v)
            store.blocks.append(store.tables.encode(self.pending) - 1)
            self.pending = [v]

    def vertex_at(self, i: int) -> int:
        if not 0 <= i < self.count:
            raise RangeError(f"index {i} outside appended range [0,{self.count})")
        flushed_through = self.count - len(self.pending)
        if i >= flushed_through:
            return self.pending[i - flushed_through]
        return self.store.vertex_at(i)

    def finalize(self) -> RegularStore:
        if self.count != self.n + 1:
            raise InvalidWalkError(
                f"appended {self.count} vertices, declared walk needs {self.n + 1}"
            )
        store = self.store
        if store.plain is not None:
            arr = store.plain.finalize()
            return RegularStore(self.graph, self.n, arr.strategy, store.branching, plain=arr)
        blocks = store.blocks.finalize()
        return RegularStore(
            self.graph, self.n, blocks.strategy, store.branching, layout=self.layout,
            milestones=store.milestones.finalize(), blocks=blocks, tables=store.tables,
        )
