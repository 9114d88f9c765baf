import random
import signal
import zlib
from pathlib import Path

import pytest

from conftest import two_scc_dag
from walkstore.dictionary import DyadicDist, build_dictionary
from walkstore.errors import FormatError, UnsupportedGraphError, WalkstoreError
from walkstore.fileio import Cursor
from walkstore.graph import complete, directed_cycle, fibonacci_digraph, gen_walk
from walkstore.storefile import (
    build_store,
    load_store,
    save_store,
    store_from_bytes,
    store_to_bytes,
)


@pytest.mark.parametrize(
    "graph,mode",
    [
        (complete(4), "regular"),
        (fibonacci_digraph(), "general"),
        (two_scc_dag(), "general"),
        (directed_cycle(2), "general"),
        (fibonacci_digraph(), "pointwise"),
    ],
    ids=["regular", "general-core", "general-scc", "general-periodic", "pointwise"],
)
def test_store_bytes_roundtrip(graph, mode):
    walk = gen_walk(graph, 100, seed=2)
    store = build_store(graph, walk, mode=mode)
    blob = store_to_bytes(store)
    back = store_from_bytes(blob)
    assert [back.vertex_at(i) for i in range(101)] == list(walk.verts)
    assert back.payload_bits == store.payload_bits


def test_mode_auto_routes(c3, fib):
    w = gen_walk(c3, 50, seed=1)
    assert type(build_store(c3, w)).__name__ == "RegularStore"
    w = gen_walk(fib, 50, seed=1)
    assert type(build_store(fib, w)).__name__ == "GeneralStore"


def test_digest_mismatch_rejected(c3, k4):
    w = gen_walk(c3, 30, seed=1)
    blob = store_to_bytes(build_store(c3, w))
    with pytest.raises(UnsupportedGraphError):
        store_from_bytes(blob, k4)
    # embedded-graph tampering breaks the digest
    broken = bytearray(blob)
    pos = blob.index(b'"k":3')
    broken[pos + 4] = ord("4")
    with pytest.raises(FormatError):
        store_from_bytes(bytes(broken))


def test_unknown_version_rejected(c3):
    w = gen_walk(c3, 10, seed=0)
    blob = bytearray(store_to_bytes(build_store(c3, w)))
    blob[4] = 99
    with pytest.raises(FormatError):
        store_from_bytes(bytes(blob))


def test_save_load_file(tmp_path, fib):
    w = gen_walk(fib, 80, seed=4)
    store = build_store(fib, w, mode="pointwise")
    save_store(store, str(tmp_path / "p.rwp"))
    back = load_store(str(tmp_path / "p.rwp"), fib)
    assert back.decode_walk().verts == w.verts


def test_dictionary_file_dispatch(tmp_path):
    d = build_dictionary(DyadicDist(["a", "b"], [1, 1]), "abba")
    (tmp_path / "d.rwd").write_bytes(d.to_bytes())
    back = load_store(str(tmp_path / "d.rwd"))
    assert back.decode_string() == "abba"


def test_embedded_graph_json_not_utf8_is_format_error(k4):
    blob = bytearray(store_to_bytes(build_store(k4, gen_walk(k4, 30, seed=1))))
    assert blob[5] < 0x80  # one-byte length, so the graph JSON starts at byte 6
    blob[6] = 0xFF
    with pytest.raises(FormatError, match="UTF-8"):
        store_from_bytes(bytes(blob))


def _digest_end(data: bytes) -> int:
    """One past the graph digest of a store file: the magic, the version
    byte, the graph JSON and its 32-byte digest come first."""
    cur = Cursor(data, 5)
    cur.blob()
    return cur.pos + 32


def _splice(data: bytes, version: int, body: bytes) -> bytes:
    """data's container head under another version, with another tag and
    body (and the body's checksum in version 2)."""
    head = bytearray(data[: _digest_end(data)])
    head[4] = version
    if version >= 2:
        head.extend(zlib.crc32(body).to_bytes(4, "little"))
    return bytes(head) + body


def test_v2_checksum_covers_tag_and_body(fib):
    store = build_store(fib, gen_walk(fib, 200, seed=3), mode="general")
    data = store_to_bytes(store)
    end = _digest_end(data)
    assert data[4] == 2 and data[end + 4] == store.TAG
    assert int.from_bytes(data[end : end + 4], "little") == zlib.crc32(data[end + 4 :])
    v1_body = bytes([store.TAG]) + store.body_bytes(version=1)
    assert store_to_bytes(store, version=1) == _splice(data, 1, v1_body)


def test_body_checksum_catches_a_payload_edit(k4):
    store = build_store(k4, gen_walk(k4, 400, seed=5), mode="regular", strategy="blocked")
    v1, v2 = store_to_bytes(store, version=1), store_to_bytes(store)
    # the last byte is payload: version 1 loads the edit and answers from it
    edited = v1[:-1] + bytes([v1[-1] ^ 0x10])
    assert store_from_bytes(edited).decode_walk().verts != store.decode_walk().verts
    with pytest.raises(FormatError, match="checksum"):
        store_from_bytes(v2[:-1] + bytes([v2[-1] ^ 0x10]))


@pytest.mark.parametrize("mode", ["regular", "general", "pointwise"])
def test_every_spec_form_loads_in_either_container(mode, k4, fib):
    g = k4 if mode == "regular" else fib
    walk = gen_walk(g, 300, seed=6)
    store = build_store(g, walk, mode=mode)
    tag = b"" if store.TAG is None else bytes([store.TAG])
    data = store_to_bytes(store)
    # regular and general bodies hold a non-uniform spec; pointwise has none
    assert (store.body_bytes(1) != store.body_bytes(2)) == (mode != "pointwise")
    for version in (1, 2):
        for body_version in (1, 2):
            blob = _splice(data, version, tag + store.body_bytes(body_version))
            assert store_from_bytes(blob).decode_walk().verts == walk.verts


def test_store_to_bytes_rejects_unknown_version(c3):
    store = build_store(c3, gen_walk(c3, 10, seed=0))
    for version in (0, 3):
        with pytest.raises(FormatError):
            store_to_bytes(store, version=version)


@pytest.mark.parametrize(
    "graph, n, mode, strategy, slack",
    [(complete(4), 2**18, "regular", "blocked", 64),
     (fibonacci_digraph(), 2**20, "general", "spill_tree", 96)],
    ids=["k4-2^18-blocked", "fib-2^20-spill-tree"],
)
def test_v2_file_is_near_its_payload(graph, n, mode, strategy, slack):
    """The file is its payload bytes, the container (magic, version, graph
    JSON, digest, tag) and a few dozen bytes of checksum and headers."""
    store = build_store(graph, gen_walk(graph, n, seed=1), mode=mode, strategy=strategy)
    data = store_to_bytes(store)
    container = _digest_end(data) + (store.TAG is not None)
    assert len(data) <= -(-store.payload_bits // 8) + container + slack


GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = sorted(GOLDEN_DIR.glob("*.bin")) + sorted(GOLDEN_DIR.joinpath("v2").glob("*.bin"))


def _alarm(signum, frame):
    raise TimeoutError("load took longer than 3 s")


@pytest.mark.parametrize(
    "path", GOLDEN, ids=["-".join(p.relative_to(GOLDEN_DIR).with_suffix("").parts) for p in GOLDEN]
)
def test_mutated_golden_files_load_or_raise(path, tmp_path):
    """40 seeded mutations of each golden file: truncations and 1-3 byte
    edits.  Each must load or raise a WalkstoreError, within 3 s.  On a
    version 2 file every truncation and every edit after the graph digest
    must raise a FormatError: the body checksum sees it."""
    data = path.read_bytes()
    name = path.relative_to(GOLDEN_DIR).as_posix()
    checked = path.parent.name == "v2"
    body_start = _digest_end(data) if checked else len(data)
    rng = random.Random(f"mutate {name}")
    target = tmp_path / path.name
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for case in range(40):
            if case % 4 == 0:
                mutated = data[: rng.randrange(len(data))]
                strict = checked
            else:
                buf = bytearray(data)
                positions = rng.sample(range(len(buf)), rng.randint(1, 3))
                for pos in positions:
                    buf[pos] ^= rng.randrange(1, 256)
                mutated = bytes(buf)
                strict = max(positions) >= body_start
            target.write_bytes(mutated)
            signal.setitimer(signal.ITIMER_REAL, 3)
            try:
                load_store(str(target))
                assert not strict, f"mutation {case} of {name} loaded"
            except FormatError if strict else WalkstoreError:
                pass
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
