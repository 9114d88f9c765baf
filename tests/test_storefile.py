import random
import signal
from pathlib import Path

import pytest

from conftest import two_scc_dag
from walkstore.dictionary import DyadicDist, build_dictionary
from walkstore.errors import FormatError, UnsupportedGraphError, WalkstoreError
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


GOLDEN = sorted(Path(__file__).parent.joinpath("golden").glob("*.bin"))


def _alarm(signum, frame):
    raise TimeoutError("load took longer than 3 s")


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_mutated_golden_files_load_or_raise(path, tmp_path):
    """40 seeded mutations of each golden file: truncations and 1-3 byte
    edits.  Each must load or raise a WalkstoreError, within 3 s."""
    data = path.read_bytes()
    rng = random.Random(f"mutate {path.name}")
    target = tmp_path / path.name
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for case in range(40):
            if case % 4 == 0:
                mutated = data[: rng.randrange(len(data))]
            else:
                buf = bytearray(data)
                for pos in rng.sample(range(len(buf)), rng.randint(1, 3)):
                    buf[pos] ^= rng.randrange(1, 256)
                mutated = bytes(buf)
            target.write_bytes(mutated)
            signal.setitimer(signal.ITIMER_REAL, 3)
            try:
                load_store(str(target))
            except WalkstoreError:
                pass
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
