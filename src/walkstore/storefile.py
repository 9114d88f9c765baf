"""On-disk store container: magic, version, embedded graph, digest, body.

Every store file embeds the canonical graph JSON plus its digest, so
queries are self-contained; when a caller supplies a graph alongside the
file, a digest mismatch refuses the store rather than decoding garbage.
Version 2 writes radix specs as runs and puts the CRC-32 of the tag and
body, 4 bytes little-endian, right after the digest.  Version 1 (no checksum,
a non-uniform spec radix by radix) is read too, and written by ``version=1``.
"""

from __future__ import annotations

import hashlib
import zlib

from . import dictionary as dict_mod
from .errors import FormatError, UnsupportedGraphError
from .fileio import Cursor, decode_text, graph_from_json, graph_to_json, write_bytes
from .general import GeneralStore, PeriodicStore, SccStore, build_general
from .graph import Graph, Walk
from .pointwise import PointwiseStore, build_pointwise
from .regular import RegularStore, build_regular, unsuitable_reason
from .store import WalkStore

STORE_VERSION = 2  # versions 1 and 2 are read and written

# (magic, tag) -> store class; a tag of None means the magic has no tag byte.
_STORE_CLASSES = {
    (cls.MAGIC, cls.TAG): cls
    for cls in (RegularStore, GeneralStore, PeriodicStore, SccStore, PointwiseStore)
}
_MAGICS = {magic for magic, _ in _STORE_CLASSES}


def graph_digest(g: Graph) -> bytes:
    return hashlib.sha256(graph_to_json(g).encode("utf-8")).digest()


def store_to_bytes(store, version: int = STORE_VERSION) -> bytes:
    if not isinstance(store, WalkStore):
        raise FormatError(f"cannot serialize {type(store).__name__}")
    if not 1 <= version <= STORE_VERSION:
        raise FormatError(f"unsupported store version {version}")
    out = bytearray(store.MAGIC)
    out.append(version)
    write_bytes(out, graph_to_json(store.graph).encode("utf-8"))
    out.extend(graph_digest(store.graph))
    body = bytes([] if store.TAG is None else [store.TAG]) + store.body_bytes(version)
    if version >= 2:
        out.extend(zlib.crc32(body).to_bytes(4, "little"))
    out.extend(body)
    return bytes(out)


def store_from_bytes(data: bytes, graph: Graph | None = None):
    cur = Cursor(data)
    magic = cur.take(4)
    if magic not in _MAGICS:
        raise FormatError(f"unknown store magic {magic!r}")
    version = cur.u8()
    if not 1 <= version <= STORE_VERSION:
        raise FormatError(f"unsupported store version {version}")
    raw = cur.blob()
    text = decode_text(raw, "embedded graph JSON")
    digest = cur.take(32)
    # the JSON is canonical: an edit to it fails here, before it is parsed
    if hashlib.sha256(raw).digest() != digest:
        raise FormatError("embedded graph fails its digest check")
    embedded = graph_from_json(text)
    if graph is not None and graph_digest(graph) != digest:
        raise UnsupportedGraphError(
            "store was built for a different graph (digest mismatch)"
        )
    if version >= 2:
        checksum = int.from_bytes(cur.take(4), "little")
        if zlib.crc32(memoryview(data)[cur.pos:]) != checksum:
            raise FormatError("store body fails its checksum")
    tag = None if (magic, None) in _STORE_CLASSES else cur.u8()
    if (magic, tag) not in _STORE_CLASSES:
        raise FormatError(f"unknown tag {tag} for store magic {magic!r}")
    store = _STORE_CLASSES[magic, tag].from_body(cur, embedded)
    if not cur.done():
        raise FormatError("trailing bytes after store body")
    return store


def save_store(store, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(store_to_bytes(store))


def load_store(path: str, graph: Graph | None = None):
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] == dict_mod.MAGIC:
        return dict_mod.SuccinctDictionary.from_bytes(data)
    return store_from_bytes(data, graph)


def regular_suitable(g: Graph) -> bool:
    return unsuitable_reason(g) is None


def build_store(g: Graph, w: Walk, mode: str = "auto", strategy="spill_tree",
                branching: int = 2):
    """Mode routing: auto picks the regular store for regular non-bipartite
    connected graphs and the general store otherwise."""
    if mode == "auto":
        mode = "regular" if regular_suitable(g) else "general"
    if mode == "regular":
        return build_regular(g, w, strategy=strategy, branching=branching)
    if mode == "general":
        return build_general(g, w, strategy=strategy, branching=branching)
    if mode == "pointwise":
        return build_pointwise(g, w, branching=branching)
    raise FormatError(f"unknown mode {mode!r}")
