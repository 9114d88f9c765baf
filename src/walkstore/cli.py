"""walkstore command line: encode walks, query stores, run benchmarks.

Exit codes: 2 parse error, 3 unsupported graph/mode, 4 invalid walk,
5 index out of range, 1 any other failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from .dictionary import DyadicDist, build_dictionary
from .errors import (
    FormatError,
    GenerationError,
    InvalidWalkError,
    ParameterError,
    RangeError,
    UnsupportedGraphError,
    UnsupportedOperationError,
    WalkstoreError,
)
from .fileio import dist_from_json, load_graph, load_walk, read_text, save_walk
from .graph import (
    Graph,
    complete,
    directed_cycle,
    fibonacci_digraph,
    gen_walk,
    triangle,
)
from .report import build_report
from .storefile import build_store, load_store, store_to_bytes

EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_INVALID_WALK = 4
EXIT_RANGE = 5

# main() exits with the code of the first class in the exception's MRO
# listed here, so a subclass exits like its nearest listed base.
EXIT_CODES = {
    FormatError: EXIT_PARSE,
    UnsupportedGraphError: EXIT_UNSUPPORTED,
    UnsupportedOperationError: EXIT_UNSUPPORTED,
    ParameterError: EXIT_UNSUPPORTED,
    InvalidWalkError: EXIT_INVALID_WALK,
    GenerationError: EXIT_INVALID_WALK,
    RangeError: EXIT_RANGE,
    WalkstoreError: 1,
    OSError: 1,
}

_BUILTIN_GRAPHS = {
    "c3": triangle,
    "k4": complete,
    "fib": fibonacci_digraph,
    "cycle2": lambda: directed_cycle(2),
}


def _graph_arg(spec: str) -> Graph:
    if spec in _BUILTIN_GRAPHS:
        return _BUILTIN_GRAPHS[spec]()
    return load_graph(spec)


def cmd_encode(args) -> int:
    g = _graph_arg(args.graph)
    walk = load_walk(g, args.walk, args.walk_format)
    start = time.perf_counter()
    store = build_store(g, walk, mode=args.mode, strategy=args.strategy,
                        branching=args.branching)
    build_seconds = time.perf_counter() - start
    blob = store_to_bytes(store)
    with open(args.out, "wb") as fh:
        fh.write(blob)
    report = build_report(store, store.MODE, walk=walk,
                          build_seconds=build_seconds, file_bytes=len(blob))
    print(report.to_json())
    return 0


def _walk_store(path, graph=None):
    from .dictionary import SuccinctDictionary

    store = load_store(path, graph)
    if isinstance(store, SuccinctDictionary):
        raise UnsupportedOperationError(
            "store is a dictionary; use dict-get to read symbols"
        )
    return store


def cmd_query(args) -> int:
    graph = _graph_arg(args.graph) if args.graph else None
    store = _walk_store(args.store, graph)
    indices = [int(i) for i in args.indices] + [int(i) for i in args.index]
    stats = []
    for i in indices:
        probes = set()
        print(store.vertex_at(i, probes))
        stats.append(len(probes))
    if args.probe_stats and stats:
        print(
            json.dumps(
                {
                    "queries": len(stats),
                    "probe_words_min": min(stats),
                    "probe_words_avg": sum(stats) / len(stats),
                    "probe_words_max": max(stats),
                }
            ),
            file=sys.stderr,
        )
    return 0


def cmd_stats(args) -> int:
    import os

    graph = _graph_arg(args.graph) if args.graph else None
    store = load_store(args.store, graph)
    from .dictionary import SuccinctDictionary

    if isinstance(store, SuccinctDictionary):
        print(
            json.dumps(
                {
                    "mode": "dictionary",
                    "length": store.length,
                    "payload_bits": store.payload_bits,
                    "header_bits": store.header_bits,
                    "file_bytes": os.path.getsize(args.store),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    report = build_report(store, store.MODE,
                          file_bytes=os.path.getsize(args.store),
                          with_throughput=args.throughput)
    print(report.to_json())
    return 0


def cmd_gen(args) -> int:
    g = _graph_arg(args.graph)
    walk = gen_walk(g, args.length, mode=args.mode, seed=args.seed)
    save_walk(walk, args.out, args.format)
    return 0


def cmd_verify(args) -> int:
    g = _graph_arg(args.graph)
    walk = load_walk(g, args.walk, args.walk_format)
    if args.store:
        store = _walk_store(args.store, g)
    else:
        store = build_store(g, walk, mode=args.mode, strategy=args.strategy)
    if store.n != walk.length:
        print(f"FAIL: store length {store.n} != walk length {walk.length}")
        return 1
    import random

    positions = range(walk.length + 1)
    if args.sample and args.sample < walk.length + 1:
        positions = random.Random(0).sample(range(walk.length + 1), args.sample)
    bad = 0
    for i in positions:
        if store.vertex_at(i) != walk.verts[i]:
            bad += 1
            if bad <= 5:
                print(f"mismatch at {i}: {store.vertex_at(i)} != {walk.verts[i]}")
    if bad:
        print(f"FAIL: {bad} mismatching positions")
        return 1
    print(f"OK: {len(list(positions))} positions match")
    return 0


def cmd_dict(args) -> int:
    symbols, lens = dist_from_json(read_text(args.dist))
    text = read_text(args.text).rstrip("\n")
    start = time.perf_counter()
    d = build_dictionary(DyadicDist(symbols, lens), text)
    build_seconds = time.perf_counter() - start
    blob = d.to_bytes()
    with open(args.out, "wb") as fh:
        fh.write(blob)
    print(
        json.dumps(
            {
                "mode": "dictionary",
                "length": d.length,
                "payload_bits": d.payload_bits,
                "header_bits": d.header_bits,
                "entropy_bits": sum(
                    lens[symbols.index(ch)] for ch in text
                ),
                "build_seconds": build_seconds,
                "file_bytes": len(blob),
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def cmd_dict_get(args) -> int:
    d = load_store(args.store)
    from .dictionary import SuccinctDictionary

    if not isinstance(d, SuccinctDictionary):
        raise FormatError("store is not a dictionary")
    for i in [int(x) for x in args.indices] + [int(x) for x in args.index]:
        print(d.get(i))
    return 0


def cmd_bench(args) -> int:
    graphs = [(name, _graph_arg(name)) for name in args.graphs.split(",")]
    sizes = [int(s) for s in args.sizes.split(",")]
    modes = args.modes.split(",")
    strategies = args.strategies.split(",")
    rows = []
    for name, g in graphs:
        for n in sizes:
            walk = gen_walk(g, n, seed=args.seed)
            for mode in modes:
                for strategy in strategies:
                    try:
                        start = time.perf_counter()
                        store = build_store(g, walk, mode=mode, strategy=strategy)
                        build_seconds = time.perf_counter() - start
                    except (UnsupportedGraphError, ParameterError):
                        continue
                    rep = build_report(store, store.MODE, walk=walk,
                                       build_seconds=build_seconds,
                                       with_throughput=True)
                    rows.append(
                        {
                            "graph": name,
                            "n": n,
                            "mode": rep.mode,
                            "strategy": rep.strategy,
                            "payload_bits": rep.payload_bits,
                            "header_bits": rep.header_bits,
                            "worstcase_bits": round(rep.benchmark_worstcase_bits, 3),
                            "pointwise_bits": (
                                round(rep.benchmark_pointwise_bits, 3)
                                if rep.benchmark_pointwise_bits is not None
                                else ""
                            ),
                            "red_worstcase": round(rep.redundancy_worstcase, 3),
                            "probe_max": rep.probe_words_max,
                            "build_s": round(build_seconds, 3),
                            "queries_per_s": round(rep.queries_per_second or 0),
                        }
                    )
    rows.sort(key=lambda r: (r["graph"], r["n"], r["mode"], r["strategy"]))
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    cols = list(rows[0].keys()) if rows else []
    if rows:
        print(" | ".join(cols))
        print(" | ".join("---" for _ in cols))
        for row in rows:
            print(" | ".join(str(row[c]) for c in cols))
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="walkstore",
                                description="succinct walk storage with positional queries")
    sub = p.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="build a store from a graph and walk")
    enc.add_argument("--graph", required=True)
    enc.add_argument("--walk", required=True)
    enc.add_argument("--walk-format", default="auto", choices=["auto", "binary", "text"])
    enc.add_argument("--out", required=True)
    enc.add_argument("--mode", default="auto",
                     choices=["auto", "regular", "general", "pointwise"])
    enc.add_argument("--strategy", default="spill_tree",
                     choices=["spill_tree", "blocked", "packed"])
    enc.add_argument("--branching", type=int, default=2)
    enc.set_defaults(func=cmd_encode)

    qry = sub.add_parser("query", help="print the vertex at one or more positions")
    qry.add_argument("store")
    qry.add_argument("indices", nargs="*", default=[])
    qry.add_argument("--index", action="append", default=[])
    qry.add_argument("--graph")
    qry.add_argument("--probe-stats", action="store_true")
    qry.set_defaults(func=cmd_query)

    st = sub.add_parser("stats", help="print the space report of a store")
    st.add_argument("store")
    st.add_argument("--graph")
    st.add_argument("--throughput", action="store_true")
    st.set_defaults(func=cmd_stats)

    gen = sub.add_parser("gen", help="generate a walk file")
    gen.add_argument("--graph", required=True)
    gen.add_argument("--length", type=int, required=True)
    gen.add_argument("--mode", default="markov", choices=["markov", "uniform"])
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--format", default="binary", choices=["binary", "text"])
    gen.set_defaults(func=cmd_gen)

    ver = sub.add_parser("verify", help="full round-trip audit of a store")
    ver.add_argument("--graph", required=True)
    ver.add_argument("--walk", required=True)
    ver.add_argument("--walk-format", default="auto", choices=["auto", "binary", "text"])
    ver.add_argument("--store")
    ver.add_argument("--mode", default="auto",
                     choices=["auto", "regular", "general", "pointwise"])
    ver.add_argument("--strategy", default="spill_tree",
                     choices=["spill_tree", "blocked", "packed"])
    ver.add_argument("--sample", type=int)
    ver.set_defaults(func=cmd_verify)

    dct = sub.add_parser("dict", help="build a succinct dictionary from text")
    dct.add_argument("--dist", required=True)
    dct.add_argument("--text", required=True)
    dct.add_argument("--out", required=True)
    dct.set_defaults(func=cmd_dict)

    dgt = sub.add_parser("dict-get", help="read symbols from a dictionary store")
    dgt.add_argument("store")
    dgt.add_argument("indices", nargs="*", default=[])
    dgt.add_argument("--index", action="append", default=[])
    dgt.set_defaults(func=cmd_dict_get)

    ben = sub.add_parser("bench", help="grid of builds with space and probe stats")
    ben.add_argument("--graphs", default="c3,k4,fib")
    ben.add_argument("--sizes", default="4096,16384")
    ben.add_argument("--modes", default="auto")
    ben.add_argument("--strategies", default="spill_tree,blocked")
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--csv")
    ben.set_defaults(func=cmd_bench)

    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (WalkstoreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
