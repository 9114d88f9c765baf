"""Space and probe reporting shared by the CLI and the acceptance suite."""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass

from .graph import Walk, benchmark_pointwise_bits, benchmark_worstcase_bits


@dataclass
class SpaceReport:
    mode: str
    strategy: str
    plain: bool  # the plain fallback: no block length up to the cap is admissible
    n: int
    payload_bits: int
    header_bits: int
    benchmark_worstcase_bits: float
    benchmark_pointwise_bits: float | None
    redundancy_worstcase: float
    redundancy_pointwise: float | None
    probe_words_min: int | None
    probe_words_avg: float | None
    probe_words_max: int | None
    build_seconds: float | None
    queries_per_second: float | None
    file_bytes: int | None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def probe_sample(store, sample: int = 200, seed: int = 0):
    """Min/avg/max distinct payload words touched over sampled queries."""
    rng = random.Random(seed)
    n = store.n
    indices = (
        range(n + 1) if n + 1 <= sample else rng.sample(range(n + 1), sample)
    )
    counts = []
    for i in indices:
        probes = set()
        store.vertex_at(i, probes)
        counts.append(len(probes))
    if not counts:
        return None, None, None
    return min(counts), sum(counts) / len(counts), max(counts)


def measure_queries_per_second(store, sample: int = 2000, seed: int = 1) -> float:
    rng = random.Random(seed)
    indices = [rng.randrange(store.n + 1) for _ in range(sample)]
    start = time.perf_counter()
    for i in indices:
        store.vertex_at(i)
    elapsed = time.perf_counter() - start
    return sample / elapsed if elapsed > 0 else float("inf")


def build_report(store, mode: str, walk: Walk | None = None,
                 build_seconds: float | None = None,
                 file_bytes: int | None = None,
                 with_throughput: bool = False) -> SpaceReport:
    g = store.graph
    n = store.n
    wc = benchmark_worstcase_bits(g, n)
    pw = None
    if walk is None and n <= 1 << 16:
        walk = store.decode_walk()
    if walk is not None:
        pw = benchmark_pointwise_bits(walk)
    pmin, pavg, pmax = probe_sample(store)
    qps = measure_queries_per_second(store) if with_throughput else None
    strategy = getattr(store, "strategy", None)
    strategy_name = strategy[0] if isinstance(strategy, tuple) else str(strategy)
    return SpaceReport(
        mode=mode,
        strategy=strategy_name,
        plain=store.is_plain,
        n=n,
        payload_bits=store.payload_bits,
        header_bits=store.header_bits,
        benchmark_worstcase_bits=wc,
        benchmark_pointwise_bits=pw,
        redundancy_worstcase=store.payload_bits - wc,
        redundancy_pointwise=(store.payload_bits - pw) if pw is not None else None,
        probe_words_min=pmin,
        probe_words_avg=pavg,
        probe_words_max=pmax,
        build_seconds=build_seconds,
        queries_per_second=qps,
        file_bytes=file_bytes,
    )
