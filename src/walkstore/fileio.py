"""Binary primitives and the on-disk graph/walk/distribution formats."""

from __future__ import annotations

import json
import struct

from .errors import FormatError, InvalidWalkError
from .graph import Graph, Walk


# ---------------------------------------------------------------------------
# Primitives: LEB128 varints and length-prefixed big integers


def write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise FormatError("varint must be non-negative")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def varint_len(value: int) -> int:
    """Bytes that write_varint spends on value."""
    return max(1, -(-value.bit_length() // 7))


def write_varbig(out: bytearray, value: int) -> None:
    if value < 0:
        raise FormatError("varbig must be non-negative")
    raw = value.to_bytes((value.bit_length() + 7) // 8, "little") if value else b""
    write_varint(out, len(raw))
    out.extend(raw)


def write_bytes(out: bytearray, raw: bytes) -> None:
    write_varint(out, len(raw))
    out.extend(raw)


class Cursor:
    """Sequential reader over a bytes object with format-error reporting."""

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError("truncated data")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def varint(self) -> int:
        shift = 0
        value = 0
        while True:
            byte = self.u8()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 128:
                raise FormatError("varint too long")

    def varbig(self) -> int:
        n = self.varint()
        return int.from_bytes(self.take(n), "little")

    def blob(self) -> bytes:
        return self.take(self.varint())

    def expect(self, magic: bytes) -> None:
        got = self.take(len(magic))
        if got != magic:
            raise FormatError(f"bad magic {got!r}, expected {magic!r}")

    def done(self) -> bool:
        return self.pos >= len(self.data)


# ---------------------------------------------------------------------------
# Graph JSON format: {"directed": bool, "k": int, "edges": [[u, v], ...]}


def graph_to_json(g: Graph) -> str:
    payload = {"directed": g.directed, "k": g.k, "edges": [list(e) for e in g.edge_list()]}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def graph_from_json(text: str) -> Graph:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"graph JSON does not parse: {exc}") from exc
    try:
        k = int(payload["k"])
        directed = bool(payload["directed"])
        edges = [(int(u), int(v)) for u, v in payload["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"graph JSON missing or malformed field: {exc}") from exc
    return Graph(k, edges, directed=directed)


def decode_text(raw: bytes, what: str) -> str:
    """raw as UTF-8 text; FormatError naming ``what`` when it is not UTF-8."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} is not UTF-8 text: {exc}") from exc


def read_text(path: str) -> str:
    """The file's contents as UTF-8 text with universal newlines, as
    ``open(path, encoding="utf-8").read()`` gives them."""
    with open(path, "rb") as fh:
        text = decode_text(fh.read(), path)
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_graph(path: str) -> Graph:
    return graph_from_json(read_text(path))


def save_graph(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_json(g) + "\n")


# ---------------------------------------------------------------------------
# Walk files: binary ("WLK1" + little-endian u32 ids) or text (one id/line)

WALK_MAGIC = b"WLK1"


def save_walk(w: Walk, path: str, fmt: str = "binary") -> None:
    if fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(WALK_MAGIC)
            fh.write(struct.pack(f"<{len(w.verts)}I", *w.verts))
    elif fmt == "text":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(str(v) for v in w.verts) + "\n")
    else:
        raise FormatError(f"unknown walk format {fmt!r}")


def load_walk(g: Graph, path: str, fmt: str = "auto") -> Walk:
    with open(path, "rb") as fh:
        raw = fh.read()
    if fmt == "auto":
        fmt = "binary" if raw[:4] == WALK_MAGIC else "text"
    if fmt == "binary":
        if raw[:4] != WALK_MAGIC:
            raise FormatError("walk file lacks WLK1 magic")
        body = raw[4:]
        if len(body) % 4:
            raise FormatError("binary walk body is not a whole number of u32s")
        verts = struct.unpack(f"<{len(body) // 4}I", body)
    elif fmt == "text":
        try:
            verts = [int(line) for line in raw.decode("utf-8").split() if line.strip()]
        except ValueError as exc:
            raise FormatError(f"text walk file does not parse: {exc}") from exc
    else:
        raise FormatError(f"unknown walk format {fmt!r}")
    if not verts:
        raise InvalidWalkError("walk file holds no vertices")
    return Walk(g, verts)


# ---------------------------------------------------------------------------
# Dyadic distribution files: {"symbols": [...], "neg_log2_probs": [...]}


def dist_to_json(symbols, neg_log2_probs) -> str:
    return json.dumps(
        {"symbols": list(symbols), "neg_log2_probs": list(neg_log2_probs)},
        sort_keys=True,
        separators=(",", ":"),
    )


def dist_from_json(text: str):
    try:
        payload = json.loads(text)
        symbols = [str(s) for s in payload["symbols"]]
        lengths = [int(x) for x in payload["neg_log2_probs"]]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"distribution JSON malformed: {exc}") from exc
    if len(symbols) != len(lengths):
        raise FormatError("symbols and neg_log2_probs differ in length")
    return symbols, lengths
