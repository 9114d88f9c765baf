"""Seeded end-to-end benchmark of walkstore, with a traced per-layer run.

    python3 walkbench/run.py --workload regular-spill --seed 1 --seconds 5 --trace 0

Run from the root of a checkout: the program is imported from ./src.
Each run is one process with one thread.  It generates the workload's
inputs from --seed, builds, saves and reopens the store, reads it in whole
closed-loop rounds for --seconds seconds, runs the store's stats, and
measures the opened store's heap in a pass of its own.  Every answer is
checked against the benchmark's own inputs.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).
Outputs (traces, results, the temporary store file) go to ./.walkbench/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".walkbench"
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BLOCKED_PROBE_CEILING,
    WORKLOADS,
    spill_probe_ceiling,
)

END_TO_END = [
    ("setup_s", "s"),
    ("build_s", "s"),
    ("open_s", "s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("queries_per_s", "1/s"),
    ("stats_s", "s"),
    ("payload_bits", "bits"),
    ("file_bytes", "bytes"),
    ("resident_bytes", "bytes"),
]

# Per-layer metrics that are the mean duration of one span name.
SPAN_METRICS = [
    ("graph.walk_s", "s", "graph.walk"),
    ("graph.worstcase_bits_s", "s", "graph.worstcase_bits"),
    ("graph.pointwise_bits_s", "s", "graph.pointwise_bits"),
    ("codec.encode_us", "us", "codec.encode"),
    ("codec.decode_us", "us", "codec.decode"),
    ("bitpack.build_s", "s", "bitpack.build"),
    ("bitpack.append_us", "us", "bitpack.append"),
    ("bitpack.read_s", "s", "bitpack.read"),
    ("bitpack.spill_get_us", "us", "bitpack.spill_tree_get"),
    ("bitpack.blocked_get_us", "us", "bitpack.blocked_get"),
    ("regular.choose_l_s", "s", "regular.choose_l"),
    ("regular.build_s", "s", "regular.build"),
    ("regular.append_us", "us", "regular.append"),
    ("regular.online_read_us", "us", "regular.online_read"),
    ("regular.finalize_s", "s", "regular.finalize"),
    ("regular.vertex_at_us", "us", "regular.vertex_at"),
    ("general.choose_half_block_s", "s", "general.choose_half_block"),
    ("general.bundle_table_s", "s", "general.bundle_table"),
    ("general.triple_unrank_us", "us", "general.triple_unrank"),
    ("general.tail_vertex_us", "us", "general.tail_vertex"),
    ("general.vertex_at_us", "us", "general.vertex_at"),
    ("pointwise.build_s", "s", "pointwise.build"),
    ("pointwise.count_tables_s", "s", "pointwise.count_tables"),
    ("pointwise.root_count_s", "s", "pointwise.root_count"),
    ("pointwise.vertex_at_us", "us", "pointwise.vertex_at"),
    ("dictionary.walk_s", "s", "dictionary.walk"),
    ("dictionary.get_us", "us", "dictionary.get"),
    ("storefile.to_bytes_s", "s", "storefile.to_bytes"),
    ("storefile.from_bytes_s", "s", "storefile.from_bytes"),
    ("storefile.digest_s", "s", "storefile.digest"),
    ("report.probe_sample_s", "s", "report.probe_sample"),
]
COUNT_METRICS = [
    ("codec.decode_depth", "levels"),
    ("bitpack.probe_words_avg", "words"),
    ("bitpack.probe_words_max", "words"),
]
RESIDENT_MODULES = ["bitpack", "codec", "graph", "regular", "general",
                    "pointwise", "dictionary", "storefile", "fileio"]
SPACE_METRICS = ["space.milestone_bits", "space.block_bits", "space.bundle_bits",
                 "space.triple_bits", "space.tail_bits", "space.header_bits",
                 "space.redundancy_worstcase_bits", "space.redundancy_pointwise_bits"]
PER_LAYER = (
    [(name, unit) for name, unit, _ in SPAN_METRICS]
    + COUNT_METRICS
    + [(f"{mod}.resident_bytes", "bytes") for mod in RESIDENT_MODULES]
    + [(name, "bits") for name in SPACE_METRICS]
)


# A run is CYCLES cycles, so that every metric is sampled across the whole
# run: the speed of a shared two-CPU machine drifts by tens of percent within
# seconds, and a metric timed in one stretch would carry that drift whole.
# Over the run a phase repeats until it has run MIN_REPS times and
# MIN_SECONDS in total, its repetitions spread evenly over the cycles.  Every
# QUERY_EVERY-th cycle opens a store and reads it for
# --seconds * QUERY_EVERY / CYCLES.
#
# build_s, open_s and stats_s are the mean of their repetitions, setup_s the
# median.  The machine switches between a fast and a slow state for seconds
# at a time; a median then jumps between the two whenever the share of time
# spent in either crosses one half, while the mean moves with that share.
# Over ten seeds the mean halved the spread of open_s on regular-online and
# pointwise-dict.
CYCLES = 8
QUERY_EVERY = 2
MIN_REPS = {"setup": 3, "build": 1, "open": 3, "stats": 1}
MIN_SECONDS = {"setup": 1.0, "build": 9.0, "open": 3.0, "stats": 5.0}


def import_program():
    """walkstore from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "walkstore" / "__init__.py").is_file():
        raise SystemExit(f"walkbench: no walkstore sources under {src}")
    sys.path.insert(0, str(src))
    import walkstore

    if Path(walkstore.__file__).resolve().parent != (src / "walkstore").resolve():
        raise SystemExit(f"walkbench: imported walkstore from {walkstore.__file__}")
    return walkstore


def quantile(sorted_values, q: float):
    """Nearest-rank quantile of an ascending list."""
    return sorted_values[min(len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1))]


def due(phase: str, times: list, cycle: int) -> bool:
    """Whether ``phase`` runs once more in ``cycle``: by the end of cycle c
    it has had (c + 1) / CYCLES of its repetitions and of its time."""
    share = (cycle + 1) / CYCLES
    return len(times) < MIN_REPS[phase] * share or sum(times) < MIN_SECONDS[phase] * share


def timed(times: list, fn):
    """fn() after a collection, its wall time appended to ``times``."""
    gc.collect()
    t0 = perf_counter()
    result = fn()
    times.append(perf_counter() - t0)
    return result


class QueryRounds:
    """Whole rounds of reads over the workload's positions.

    A round reads every position once, timing each read on its own, plus
    the workload's extra operations.  Every store gets one untimed warm-up
    round first.
    """

    def __init__(self, work):
        self.work = work
        self.per_position = [[] for _ in work.positions]
        self.attempted = self.failed = self.known = self.rounds = 0

    def _account(self, out):
        work = self.work
        self.attempted += len(out)
        self.failed += sum(1 for got, want in zip(out, work.expected) if got != want)
        attempted, failed, known = work.round_extra()
        self.attempted += attempted
        self.failed += failed
        self.known += known

    def run(self, read, seconds: float) -> None:
        """A warm-up round, then timed rounds for about ``seconds``: at
        least one, and no round that the last one says would end late."""
        positions = self.work.positions
        self._account([read(p) for p in positions])
        deadline = perf_counter() + seconds
        clock = perf_counter_ns
        while True:
            started = perf_counter()
            out = [None] * len(positions)
            for j, p in enumerate(positions):
                t0 = clock()
                out[j] = read(p)
                self.per_position[j].append(clock() - t0)
            self._account(out)
            self.rounds += 1
            now = perf_counter()
            if now + (now - started) > deadline:
                return

    def figures(self) -> dict:
        """Percentiles of the per-position median latencies, and throughput
        as reads over the summed time of all timed reads."""
        latency = sorted(statistics.median(samples) for samples in self.per_position)
        reads = sum(len(samples) for samples in self.per_position)
        busy_ns = sum(sum(samples) for samples in self.per_position)
        return {
            "query_p50_us": quantile(latency, 0.5) / 1e3,
            "query_p99_us": quantile(latency, 0.99) / 1e3,
            "queries_per_s": reads / (busy_ns / 1e9),
        }


def resident_pass(work, path):
    """Heap held by a freshly opened store after one pass of its reads."""
    gc.collect()
    tracemalloc.start()
    try:
        store = work.load_plain(path)
        read = work.reader(store)
        wrong = sum(1 for p, want in zip(work.positions, work.expected) if read(p) != want)
        read = None
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
        total = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    by_module = {mod: 0 for mod in RESIDENT_MODULES}
    for stat in snapshot.statistics("filename"):
        path_parts = Path(stat.traceback[0].filename).parts
        if len(path_parts) >= 2 and path_parts[-2] == "walkstore":
            mod = path_parts[-1].removesuffix(".py")
            if mod in by_module:
                by_module[mod] += stat.size
    del store
    return total, by_module, wrong


def run(work, seconds: float, tr, store_path: Path, phases: dict):
    metrics = {}
    layer = {}
    for phase in MIN_REPS:
        phases[phase] = []
    for cycle in range(CYCLES):
        # a build needs the inputs that the previous cycle dropped
        if cycle == 0 or due("build", phases["build"], cycle):
            timed(phases["setup"], lambda: work.setup(tr))
        while due("setup", phases["setup"], cycle):
            timed(phases["setup"], lambda: work.setup(tr))
        if cycle == 0:
            queries = QueryRounds(work)

        store = None
        while due("build", phases["build"], cycle):
            store = None
            store = timed(phases["build"], lambda: work.build(store_path, tr))
        if cycle == 0:
            work.check_built(store, tr)
            metrics["payload_bits"] = store.payload_bits
            metrics["file_bytes"] = os.path.getsize(store_path)
            if tr is not None:
                work.replay_build(store, tr)
                layer.update(work.space(store))
        store = None
        work.drop_build()

        while due("stats", phases["stats"], cycle):
            loaded = work.load_plain(store_path)
            timed(phases["stats"], lambda: work.stats(loaded, tr))
            loaded = None

        querying = cycle % QUERY_EVERY == QUERY_EVERY - 1
        while due("open", phases["open"], cycle) or (querying and store is None):
            store = None
            store, first = timed(phases["open"], lambda: work.open(store_path, tr))
            work.check(first == work.expected[0], "first query after open answered wrongly")
        if querying:
            work.before_queries(tr)
            read = work.reader(store)
            if tr is not None:
                read = tr.wrap(work.query_span, read)
            queries.run(read, seconds * QUERY_EVERY / CYCLES)
            if tr is not None and cycle == CYCLES - 1:
                replay_queries(work, store, tr, layer)
            read = None
            work.after_queries()
        store = None

    for phase, times in phases.items():
        average = statistics.median if phase == "setup" else statistics.fmean
        metrics[f"{phase}_s"] = average(times)
    metrics.update(queries.figures())
    work.check(queries.failed == queries.known,
               f"{queries.failed - queries.known} reads answered wrongly")
    if tr is not None:
        loaded = work.load_plain(store_path)
        work.replay_stats(loaded, tr)
        loaded = None
        work.replay_open(store_path, tr)

    resident, by_module, wrong = resident_pass(work, store_path)
    metrics["resident_bytes"] = resident
    work.check(wrong == 0, f"{wrong} reads wrong in the resident pass")
    for mod, size in by_module.items():
        layer[f"{mod}.resident_bytes"] = size
    return metrics, layer, queries


def replay_queries(work, store, tr, layer: dict) -> None:
    """The traced query replay, its probe counts and the probe ceiling."""
    probe_words, depths = work.replay_queries(store, tr)
    if probe_words:
        layer["bitpack.probe_words_avg"] = statistics.mean(probe_words)
        layer["bitpack.probe_words_max"] = max(probe_words)
        ceiling = (BLOCKED_PROBE_CEILING if work.strategy == "blocked"
                   else spill_probe_ceiling(work.n))
        work.check(max(probe_words) <= ceiling,
                   f"a query touched {max(probe_words)} words, ceiling {ceiling:.0f}")
    if depths:
        layer["codec.decode_depth"] = statistics.mean(depths)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ws = import_program()
    work = WORKLOADS[args.workload](ws, args.seed)
    tr = Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    store_path = OUT / f"store-{os.getpid()}.tmp"
    phases = {}
    try:
        metrics, layer, queries = run(work, args.seconds, tr, store_path, phases)
    finally:
        store_path.unlink(missing_ok=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tr is not None:
        summary = tr.summary()
        for name, unit, span in SPAN_METRICS:
            entry = summary.get(span)
            mean_us = entry["total_ns"] / entry["count"] / 1e3 if entry else 0.0
            layer[name] = mean_us / 1e6 if unit == "s" else mean_us
        tr.write(str(OUT / f"trace-{tag}.json.gz"), {
            "workload": args.workload, "seed": args.seed,
            "end_to_end_traced": metrics, "per_layer": layer, "summary": summary,
        })
        chosen = [(name, unit, layer.get(name, 0)) for name, unit in PER_LAYER]
    else:
        units = dict(END_TO_END)
        chosen = [(name, units[name], metrics[name]) for name, _ in END_TO_END]

    for problem in work.problems:
        print(f"walkbench: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not work.problems,
        "attempted": queries.attempted,
        "failed": queries.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, unit, value in chosen},
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, rounds=queries.rounds, end_to_end=metrics,
                       phase_seconds=phases), fh, indent=1)
    print(f"{args.workload} seed {args.seed}: {queries.rounds} query rounds, "
          f"{queries.attempted} reads, {queries.failed} failed", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
