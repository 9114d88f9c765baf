import inspect
import json

import pytest

from golden_corpus import GOLDEN_DIR
from walkstore import cli, errors
from walkstore.cli import main
from walkstore.fileio import dist_to_json, save_graph, save_walk
from walkstore.graph import Graph, complete, gen_walk, triangle


@pytest.fixture
def workspace(tmp_path):
    g = triangle()
    save_graph(g, str(tmp_path / "c3.json"))
    walk = gen_walk(g, 64, seed=1)
    save_walk(walk, str(tmp_path / "w.wlk"))
    return tmp_path, g, walk


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_encode_query_stats(workspace, capsys, tmp_path):
    ws, g, walk = workspace
    code, out, _ = run(
        ["encode", "--graph", str(ws / "c3.json"), "--walk", str(ws / "w.wlk"),
         "--out", str(ws / "s.rws"), "--mode", "auto"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "regular"
    assert report["payload_bits"] >= 1
    assert report["plain"] is False

    code, out, err = run(
        ["query", str(ws / "s.rws"), "--index", "0", "--index", "5", "--probe-stats"],
        capsys,
    )
    assert code == 0
    values = [int(x) for x in out.split()]
    assert values == [walk.verts[0], walk.verts[5]]
    assert "probe_words_max" in err

    code, out, _ = run(["stats", str(ws / "s.rws")], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["benchmark_pointwise_bits"] is not None


@pytest.mark.parametrize(
    "name, plain",
    [("regular_plain", True), ("general_plain", True), ("regular_blocked", False),
     ("general_blocked", False)],
)
def test_stats_reports_the_plain_fallback(capsys, name, plain):
    code, out, _ = run(["stats", str(GOLDEN_DIR / f"{name}.bin")], capsys)
    assert code == 0
    assert json.loads(out)["plain"] is plain


def test_query_positional_indices(workspace, capsys):
    ws, g, walk = workspace
    run(["encode", "--graph", str(ws / "c3.json"), "--walk", str(ws / "w.wlk"),
         "--out", str(ws / "s.rws")], capsys)
    code, out, _ = run(["query", str(ws / "s.rws"), "3", "7", "11"], capsys)
    assert code == 0
    assert [int(x) for x in out.split()] == [walk.verts[i] for i in (3, 7, 11)]


def test_exit_code_unsupported_mode(tmp_path, capsys):
    from walkstore import Walk

    g = Graph(2, [(0, 1)], directed=True)
    save_graph(g, str(tmp_path / "dag.json"))
    walk_path = tmp_path / "w.wlk"
    save_walk(Walk(g, (0, 1)), str(walk_path))
    code, _, err = run(
        ["encode", "--graph", str(tmp_path / "dag.json"), "--walk", str(walk_path),
         "--out", str(tmp_path / "s.rws"), "--mode", "regular"],
        capsys,
    )
    assert code == 3
    assert "error" in err


def test_exit_code_parse_error(workspace, capsys):
    ws, _, _ = workspace
    bad = ws / "bad.rws"
    bad.write_bytes(b"XXXX" + b"\x00" * 20)
    code, _, err = run(["query", str(bad), "0"], capsys)
    assert code == 2

    badjson = ws / "bad.json"
    badjson.write_text("{not json")
    code, _, _ = run(
        ["encode", "--graph", str(badjson), "--walk", str(ws / "w.wlk"),
         "--out", str(ws / "x.rws")],
        capsys,
    )
    assert code == 2


def test_exit_code_invalid_walk(workspace, capsys):
    ws, g, _ = workspace
    (ws / "bad.txt").write_text("0\n0\n")  # no self-loop in the triangle
    code, _, _ = run(
        ["encode", "--graph", str(ws / "c3.json"), "--walk", str(ws / "bad.txt"),
         "--walk-format", "text", "--out", str(ws / "x.rws")],
        capsys,
    )
    assert code == 4


def test_exit_code_index_range(workspace, capsys):
    ws, _, _ = workspace
    run(["encode", "--graph", str(ws / "c3.json"), "--walk", str(ws / "w.wlk"),
         "--out", str(ws / "s.rws")], capsys)
    code, _, _ = run(["query", str(ws / "s.rws"), "65"], capsys)
    assert code == 5


# The documented exit code of every error class, and of OSError.
EXPECTED_EXIT_CODES = {
    errors.WalkstoreError: 1,
    errors.FormatError: 2,
    errors.UnsupportedGraphError: 3,
    errors.InvalidWalkError: 4,
    errors.RangeError: 5,
    errors.ParameterError: 3,
    errors.UnsupportedOperationError: 3,
    errors.GenerationError: 4,
    errors.ResourceError: 1,
    OSError: 1,
}
ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if cls.__module__ == errors.__name__]


@pytest.mark.parametrize("exc", ERROR_CLASSES + [OSError], ids=lambda cls: cls.__name__)
def test_exit_code_of_each_error_class(exc, monkeypatch, capsys):
    def fail(args):
        raise exc("boom")

    monkeypatch.setattr(cli, "cmd_gen", fail)
    code, _, err = run(["gen", "--graph", "c3", "--length", "4", "--out", "unused"], capsys)
    assert code == EXPECTED_EXIT_CODES[exc]
    assert err == "error: boom\n"


def test_graph_digest_mismatch(workspace, tmp_path, capsys):
    ws, _, _ = workspace
    run(["encode", "--graph", str(ws / "c3.json"), "--walk", str(ws / "w.wlk"),
         "--out", str(ws / "s.rws")], capsys)
    save_graph(complete(4), str(tmp_path / "k4.json"))
    code, _, err = run(
        ["query", str(ws / "s.rws"), "0", "--graph", str(tmp_path / "k4.json")],
        capsys,
    )
    assert code == 3
    assert "digest" in err


def test_gen_and_verify(workspace, capsys):
    ws, _, _ = workspace
    code, _, _ = run(
        ["gen", "--graph", str(ws / "c3.json"), "--length", "100", "--seed", "7",
         "--out", str(ws / "g.wlk")],
        capsys,
    )
    assert code == 0
    code, out, _ = run(
        ["verify", "--graph", str(ws / "c3.json"), "--walk", str(ws / "g.wlk")],
        capsys,
    )
    assert code == 0
    assert "OK" in out


def test_gen_deterministic(workspace, capsys):
    ws, _, _ = workspace
    for name in ("a.wlk", "b.wlk"):
        run(["gen", "--graph", str(ws / "c3.json"), "--length", "50", "--seed", "3",
             "--out", str(ws / name)], capsys)
    assert (ws / "a.wlk").read_bytes() == (ws / "b.wlk").read_bytes()


def test_encode_deterministic(workspace, capsys):
    ws, _, _ = workspace
    for name in ("s1.rws", "s2.rws"):
        run(["encode", "--graph", str(ws / "c3.json"), "--walk", str(ws / "w.wlk"),
             "--out", str(ws / name)], capsys)
    assert (ws / "s1.rws").read_bytes() == (ws / "s2.rws").read_bytes()


def test_text_walk_roundtrip(workspace, capsys):
    ws, g, _ = workspace
    run(["gen", "--graph", str(ws / "c3.json"), "--length", "30", "--seed", "2",
         "--out", str(ws / "t.txt"), "--format", "text"], capsys)
    code, out, _ = run(
        ["verify", "--graph", str(ws / "c3.json"), "--walk", str(ws / "t.txt"),
         "--walk-format", "text", "--mode", "pointwise"],
        capsys,
    )
    assert code == 0


def test_dict_commands(tmp_path, capsys):
    (tmp_path / "d.json").write_text(dist_to_json(["a", "b", "c"], [1, 2, 2]))
    (tmp_path / "x.txt").write_text("abacabcaab\n")
    code, out, _ = run(
        ["dict", "--dist", str(tmp_path / "d.json"), "--text", str(tmp_path / "x.txt"),
         "--out", str(tmp_path / "d.rwd")],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "dictionary"
    code, out, _ = run(["dict-get", str(tmp_path / "d.rwd"), "0", "3", "9"], capsys)
    assert code == 0
    assert out.split() == ["a", "c", "b"]


def test_non_utf8_inputs_exit_parse_error(workspace, capsys):
    ws, _, _ = workspace
    bad = ws / "bad.bin"
    bad.write_bytes(b"\xff\xfe{}")
    code, _, err = run(
        ["encode", "--graph", str(bad), "--walk", str(ws / "w.wlk"),
         "--out", str(ws / "x.rws")],
        capsys,
    )
    assert code == 2
    assert "UTF-8" in err
    (ws / "d.json").write_text(dist_to_json(["a", "b", "c"], [1, 2, 2]))
    (ws / "x.txt").write_text("abc\n")
    for dist, text in [(bad, ws / "x.txt"), (ws / "d.json", bad)]:
        code, _, err = run(
            ["dict", "--dist", str(dist), "--text", str(text),
             "--out", str(ws / "d.rwd")],
            capsys,
        )
        assert code == 2
        assert "UTF-8" in err


def test_non_utf8_store_files_exit_parse_error(workspace, capsys):
    ws, _, _ = workspace
    run(["encode", "--graph", str(ws / "c3.json"), "--walk", str(ws / "w.wlk"),
         "--out", str(ws / "s.rws")], capsys)
    store = bytearray((ws / "s.rws").read_bytes())
    store[6] = 0xFF  # first byte of the embedded graph JSON
    (ws / "dist.json").write_text(dist_to_json(["a", "b"], [1, 1]))
    (ws / "t.txt").write_text("abba\n")
    run(["dict", "--dist", str(ws / "dist.json"), "--text", str(ws / "t.txt"),
         "--out", str(ws / "d.rwd")], capsys)
    dictionary = bytearray((ws / "d.rwd").read_bytes())
    dictionary[6] = 0xFF  # the first symbol's one byte
    for name, data in [("bad.rws", store), ("bad.rwd", dictionary)]:
        (ws / name).write_bytes(bytes(data))
        for argv in (["query", str(ws / name), "0"], ["stats", str(ws / name)]):
            code, _, err = run(argv, capsys)
            assert code == 2, (name, argv)
            assert "UTF-8" in err


def test_bench_grid(tmp_path, capsys):
    code, out, _ = run(
        ["bench", "--graphs", "c3,fib", "--sizes", "256", "--modes", "auto",
         "--strategies", "blocked", "--csv", str(tmp_path / "bench.csv")],
        capsys,
    )
    assert code == 0
    assert "payload_bits" in out
    lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 graphs
