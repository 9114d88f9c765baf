"""The calls the benchmark in walkbench/ makes into walkstore, at small sizes.

walkbench reaches past the public entry points: it replays each query on
the store's own arrays, layouts, bundle table and codec.  This runs three
of its workloads (regular-online, general-fib, pointwise-dict) through
every phase and replay that a traced run makes, at seed 1 with a small walk
or text, so that a change to the calls it depends on fails here.  The
traced probe words and codec depths are pinned.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import walkstore

BENCH = Path(__file__).resolve().parents[1] / "walkbench"
sys.path.insert(0, str(BENCH))

from spans import Tracer  # noqa: E402
from workloads import GeneralFib, PointwiseDict, RegularOnline, WalkWorkload  # noqa: E402

_spec = importlib.util.spec_from_file_location("walkbench_run", BENCH / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)


class SmallRegularOnline(RegularOnline):
    n = 2**12


class SmallGeneralFib(GeneralFib):
    n = 2**12


class SmallPointwiseDict(PointwiseDict):
    size = 2**7


# (probe words avg, probe words max, mean codec depth) of the traced replay
TRACED = {
    "regular-online": (5.115, 8, 3.236),
    "general-fib": (6.417, 10, 5.226),
}


@pytest.mark.parametrize("workload", [SmallRegularOnline, SmallGeneralFib, SmallPointwiseDict],
                         ids=lambda w: w.name)
def test_workload_replays(workload, tmp_path):
    work = workload(walkstore, 1)
    tr = Tracer()
    path = tmp_path / "store.bin"
    work.setup(tr)
    store = work.build(path, tr)
    work.check_built(store, tr)
    work.replay_build(store, tr)
    work.stats(work.load_plain(path), tr)
    store, first = work.open(path, tr)
    assert first == work.expected[0]

    work.before_queries(tr)
    read = work.reader(store)
    truth = work.ref if isinstance(work, WalkWorkload) else work.text
    wrong = [p for p in range(len(truth)) if read(p) != truth[p]]
    _, failed, _ = work.round_extra()
    work.after_queries()
    assert wrong == [] and failed == 0

    layer = {}
    bench_run.replay_queries(work, store, tr, layer)
    work.replay_stats(work.load_plain(path), tr)
    work.replay_open(path, tr)
    assert work.problems == []

    if work.name in TRACED:
        avg, top, depth = TRACED[work.name]
        assert layer["bitpack.probe_words_avg"] == pytest.approx(avg, abs=5e-4)
        assert layer["bitpack.probe_words_max"] == top
        assert layer["codec.decode_depth"] == pytest.approx(depth, abs=5e-4)
    summary = tr.summary()
    assert summary[work.query_span]["count"] == len(work.positions)
