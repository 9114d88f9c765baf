"""Succinct dictionary for strings with dyadic symbol frequencies.

A distribution whose probabilities are inverse powers of two has a code
tree in which the path to symbol s has length len_s = lg(1/p(s)).  Adding
a return path of length depth+1-len_s from each leaf back to the root
turns every symbol into a root-to-root cycle of the same length depth+1,
so the i-th symbol of a string always occupies a fixed block of the
corresponding walk.  Storing that walk in the per-walk-entropy store gives
a dictionary whose payload tracks the string's zeroth-order entropy, and
get(i) is a single positional walk query at the vertex just before the
cycle closes (return-path vertices are disjoint per symbol, so that vertex
pins the symbol).
"""

from __future__ import annotations

from .errors import FormatError, ParameterError, RangeError
from .fileio import Cursor, decode_text, write_bytes, write_varint
from .graph import Graph, Walk
from .pointwise import LabelCounts, PointwiseStore, build_pointwise

MAGIC = b"RWD1"

MAX_SYMBOLS = 16
MAX_CODE_LEN = 8


class DyadicDist:
    """Alphabet with probabilities 2^-len per symbol, summing to one."""

    def __init__(self, symbols, code_lens):
        symbols = [str(s) for s in symbols]
        code_lens = [int(x) for x in code_lens]
        if not symbols:
            raise ParameterError("alphabet is empty")
        if len(symbols) != len(set(symbols)):
            raise ParameterError("duplicate symbols")
        if len(symbols) > MAX_SYMBOLS:
            raise ParameterError(f"alphabet exceeds {MAX_SYMBOLS} symbols")
        for length in code_lens:
            if not 1 <= length <= MAX_CODE_LEN:
                raise ParameterError(
                    f"probabilities must lie in [2^-{MAX_CODE_LEN}, 1/2]"
                )
        scale = max(code_lens)
        if sum(1 << (scale - length) for length in code_lens) != 1 << scale:
            raise ParameterError("probabilities do not sum to 1")
        order = sorted(range(len(symbols)), key=lambda i: (code_lens[i], symbols[i]))
        self.symbols = [symbols[i] for i in order]
        self.code_lens = [code_lens[i] for i in order]
        self.depth = max(code_lens)

    def index_of(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise RangeError(f"symbol {symbol!r} not in alphabet") from None


class HuffmanGraph:
    """Code-tree digraph with per-symbol return paths to the root.

    Vertex 0 is the root; tree vertices appear in canonical code order and
    return-path vertices after them.  Every root-to-root cycle has length
    depth + 1.
    """

    def __init__(self, dist: DyadicDist):
        self.dist = dist
        depth = dist.depth
        edges = []
        # canonical codes: symbols sorted by (length, symbol); assign
        # codewords by counting up and left-shifting on length increase
        node_of_prefix = {(): 0}
        next_id = 1
        code = 0
        prev_len = dist.code_lens[0]
        # per symbol, its root-to-root cycle without the starting root
        self.cycles = []
        for sym, length in zip(dist.symbols, dist.code_lens):
            code <<= length - prev_len
            prev_len = length
            bits = tuple((code >> (length - 1 - j)) & 1 for j in range(length))
            path = []
            for j in range(length):
                prefix = bits[: j + 1]
                if prefix not in node_of_prefix:
                    node_of_prefix[prefix] = next_id
                    edges.append((node_of_prefix[bits[:j]], next_id))
                    next_id += 1
                path.append(node_of_prefix[prefix])
            self.cycles.append(path)
            code += 1
        self.symbol_at = {}
        for idx, path in enumerate(self.cycles):
            self.symbol_at[path[-1]] = idx
            back_len = depth + 1 - len(path)
            for _ in range(back_len - 1):
                edges.append((path[-1], next_id))
                self.symbol_at[next_id] = idx
                path.append(next_id)
                next_id += 1
            edges.append((path[-1], 0))
            path.append(0)
        self.cycles = [tuple(path) for path in self.cycles]
        self.graph = Graph(next_id, edges, directed=True)
        self.root = 0

    @property
    def cycle_len(self) -> int:
        return self.dist.depth + 1

    def string_to_walk(self, text: str) -> Walk:
        verts = [self.root]
        for ch in text:
            verts.extend(self.cycles[self.dist.index_of(ch)])
        return Walk(self.graph, verts)

    def walk_to_string(self, walk: Walk) -> str:
        cl = self.cycle_len
        if walk.length % cl:
            raise FormatError("walk length is not a whole number of cycles")
        out = []
        for i in range(walk.length // cl):
            out.append(self.dist.symbols[self.symbol_at[walk.verts[(i + 1) * cl - 1]]])
        return "".join(out)


class SuccinctDictionary:
    """String store over the walk encoding; get(i) is one walk query."""

    def __init__(self, hg: HuffmanGraph, store: PointwiseStore, length: int):
        self.hg = hg
        self.store = store
        self.length = length

    def get(self, i: int) -> str:
        if not 0 <= i < self.length:
            raise RangeError(f"index {i} outside [0,{self.length})")
        v = self.store.vertex_at((i + 1) * self.hg.cycle_len - 1)
        return self.hg.dist.symbols[self.hg.symbol_at[v]]

    def decode_string(self) -> str:
        return "".join(self.get(i) for i in range(self.length))

    @property
    def payload_bits(self) -> int:
        return self.store.payload_bits

    @property
    def header_bits(self) -> int:
        return self.store.header_bits

    def to_bytes(self) -> bytes:
        out = bytearray(MAGIC)
        dist = self.hg.dist
        write_varint(out, len(dist.symbols))
        for sym, length in zip(dist.symbols, dist.code_lens):
            write_bytes(out, sym.encode("utf-8"))
            out.append(length)
        write_varint(out, self.length)
        out.extend(self.store.body_bytes())
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SuccinctDictionary":
        cur = Cursor(data)
        cur.expect(MAGIC)
        count = cur.varint()
        symbols, lens = [], []
        for _ in range(count):
            symbols.append(decode_text(cur.blob(), "dictionary symbol"))
            lens.append(cur.u8())
        length = cur.varint()
        hg = HuffmanGraph(DyadicDist(symbols, lens))
        store = PointwiseStore.from_body(cur, hg.graph)
        return cls(hg, store, length)


def build_dictionary(dist: DyadicDist, text: str,
                     engine: LabelCounts | None = None) -> SuccinctDictionary:
    hg = HuffmanGraph(dist)
    walk = hg.string_to_walk(text)
    store = build_pointwise(hg.graph, walk, engine=engine)
    return SuccinctDictionary(hg, store, len(text))
