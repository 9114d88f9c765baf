"""The base every walk store shares, and the plain fallback.

Stores differ only in how they cut the walk.  ``storefile`` writes a store's
``MAGIC``, then its ``TAG`` when it has one, and reads through the
(magic, tag) table of the store classes.  RegularStore and GeneralStore
fall back to the same plain store, every vertex at ceil(lg |G|) bits, when
their construction does not pay off.  Both bodies open with a mode byte
(0 plain, 1 otherwise), varint n and a branching byte; a plain body then
holds its one array.
"""

from __future__ import annotations

from typing import Sequence

from .bitpack import RadixSpec, SuccinctArray
from .fileio import Cursor, varint_len, write_varint
from .graph import Graph, Walk


def pack_vertices(k: int, verts: Sequence[int]) -> SuccinctArray:
    return SuccinctArray.build(RadixSpec.uniform_spec(k, len(verts)), list(verts), "packed")


class WalkStore:
    """Base of the walk stores; query with ``vertex_at(i, probes)``."""

    MAGIC: bytes
    TAG: int | None = None  # general-store kind, written after the container
    MODE: str               # the build mode that yields this store
    plain: SuccinctArray | None = None

    @property
    def is_plain(self) -> bool:
        return self.plain is not None

    def decode_walk(self) -> Walk:
        return Walk(self.graph, [self.vertex_at(i) for i in range(self.n + 1)])

    # -- the plain fallback (RegularStore, GeneralStore) ------------------------

    @classmethod
    def build_plain(cls, g: Graph, w: Walk, branching: int = 2):
        arr = pack_vertices(g.k, w.verts)
        return cls(g, w.length, strategy=arr.strategy, branching=branching, plain=arr)

    def _body_head(self, version: int) -> bytearray:
        """Mode byte, n and branching byte, then a plain store's array."""
        out = bytearray([0 if self.plain is not None else 1])
        write_varint(out, self.n)
        out.append(self.branching)
        if self.plain is not None:
            out.extend(self.plain.to_bytes(version))
        return out

    @classmethod
    def _read_head(cls, cur: Cursor, graph: Graph):
        """(n, branching, the plain store or None) from a body's head."""
        plain = cur.u8() == 0
        n = cur.varint()
        branching = cur.u8()
        if not plain:
            return n, branching, None
        arr = SuccinctArray.read_from(cur)
        return n, branching, cls(graph, n, strategy=arr.strategy, branching=branching, plain=arr)

    def _head_bits(self, params: Sequence[int], arrays: Sequence[SuccinctArray]) -> int:
        """n, the mode and branching bytes, the varint parameters and the
        arrays' headers; a plain store has no parameters and one array."""
        if self.plain is not None:
            params, arrays = (), (self.plain,)
        param_bytes = varint_len(self.n) + 2 + sum(varint_len(p) for p in params)
        return 8 * param_bytes + sum(a.header_bits for a in arrays)
