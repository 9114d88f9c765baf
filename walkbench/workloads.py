"""The four workloads: inputs, the calls each phase makes, checks, replays.

A workload object holds one seeded input set.  The harness in run.py
times its phases (setup, build, open, query rounds, stats) and calls the
replay methods only in a traced run.  A replay drives the same public
functions a store calls internally (SuccinctArray.get, decode_vertex,
encode_walk, BundleTable, LabelCounts.count_map, ...) on the store's own
plan, so that each layer gets spans of its own.
"""

from __future__ import annotations

import math

from oracles import (
    FIB_EDGES,
    K4_EDGES,
    DICT_CODE_LENS,
    count_walks_dp,
    dyadic_text,
    h0_bits,
    lg_int,
    lg_walks_complete,
    lg_walks_fibonacci,
    markov_walk,
    markov_walk_with_suffix,
    pointwise_bits,
    recent_offsets,
    sample_positions,
    successor_lists,
)

QUERY_POSITIONS = 4000
# Layer replays that walk a whole array sample at most this many items.
REPLAY_SAMPLE = 4000
BLOCKED_PROBE_CEILING = 10  # words per query, as acceptance test A7 requires


def spill_probe_ceiling(n: int) -> float:
    """Words per query on spill-tree arrays, as acceptance test A7 requires."""
    return 4 * math.log2(n) + 16


def _call(tr, name, fn, *args, **kwargs):
    if tr is None:
        return fn(*args, **kwargs)
    return tr.call(name, fn, *args, **kwargs)


def _every(count: int, limit: int):
    """Up to ``limit`` indices spread evenly over range(count)."""
    step = max(1, -(-count // limit))
    return range(0, count, step)


class Workload:
    """Phase hooks shared by every workload; subclasses fill in the rest."""

    name = ""
    query_span = ""

    def __init__(self, ws, seed: int):
        self.ws = ws
        self.seed = seed
        self.problems = []

    # -- rounds ---------------------------------------------------------------

    def round_extra(self):
        """Operations every query round adds beyond the position reads:
        (attempted, failed, failed reads that are the known fault)."""
        return 0, 0, 0

    def before_queries(self, tr):
        pass

    def after_queries(self):
        pass

    # -- shared pieces -----------------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def open(self, path, tr):
        store = _call(tr, "storefile.load", self.ws.load_store, str(path))
        first = self.reader(store)(self.positions[0])
        return store, first

    def load_plain(self, path):
        return self.ws.load_store(str(path))

    def replay_open(self, path, tr):
        """Load-time layers: container parsing, digest, array reads."""
        with open(path, "rb") as fh:
            data = fh.read()
        store = self.load_plain(path)
        tr.call("storefile.from_bytes", self.from_bytes, data)
        self.replay_load_layers(store, tr)


# ---------------------------------------------------------------------------
# Walk stores (regular and general)


class WalkWorkload(Workload):
    mode = ""
    strategy = "spill_tree"
    n = 0
    vertices = 0
    edges = ()
    directed = False
    batch_arrays = True  # False: the store's arrays are built by appends

    def make_walk(self):
        return markov_walk(self.succ, self.n, self.seed)

    def setup(self, tr):
        ws = self.ws
        self.succ = successor_lists(self.vertices, self.edges, self.directed)
        verts = self.make_walk()
        self.graph = ws.Graph(self.vertices, self.edges, directed=self.directed)
        self.walk = _call(tr, "graph.walk", ws.Walk, self.graph, verts)
        self.ref = bytes(verts)
        self.positions = sample_positions(
            QUERY_POSITIONS, self.n + 1, f"{self.seed}/positions"
        )
        self.expected = [self.ref[p] for p in self.positions]

    def fresh_graph(self):
        """A graph with cold count tables, as a freshly loaded store has."""
        return self.ws.Graph(self.vertices, self.edges, directed=self.directed)

    def build(self, path, tr):
        ws = self.ws
        store = _call(tr, f"{self.mode}.build", ws.build_store, self.graph,
                      self.walk, mode=self.mode, strategy=self.strategy)
        _call(tr, "storefile.save", ws.save_store, store, str(path))
        return store

    def drop_build(self):
        self.walk = None

    def reader(self, store):
        return store.vertex_at

    def stats(self, store, tr):
        _call(tr, "report.build_report", self.ws.build_report, store, self.mode)

    def lg_kappa(self) -> float:
        raise NotImplementedError

    def space_budget(self) -> float:
        return 64 + 8 * math.log2(self.n)

    def check_built(self, store, tr):
        lg_kappa = self.lg_kappa()
        self.check(
            store.payload_bits <= lg_kappa + self.space_budget(),
            f"payload {store.payload_bits} bits over lg kappa {lg_kappa:.1f} "
            f"+ budget {self.space_budget():.1f}",
        )

    def arrays(self, store):
        raise NotImplementedError

    # -- replays ----------------------------------------------------------------

    def replay_build(self, store, tr):
        ws = self.ws
        self.replay_layout(tr)
        self.replay_encode(store, tr)
        arrays = self.arrays(store)
        values = [arr.values() for arr in arrays]
        if self.batch_arrays:
            tr.begin("bitpack.build")
            for arr, vals in zip(arrays, values):
                ws.SuccinctArray.build(arr.spec, vals, arr.strategy)
            tr.finish()
        else:
            for arr, vals in zip(arrays, values):
                radices = arr.spec.radices
                appendable = ws.AppendableArray(lambda i: radices[i], arr.strategy)
                append = tr.wrap("bitpack.append", appendable.append)
                for v in vals:
                    append(v)
                self.check(appendable.finalize() == arr, "appended array differs from the store's")
        tr.call("storefile.to_bytes", ws.storefile.store_to_bytes, store)

    def from_bytes(self, data):
        return self.ws.storefile.store_from_bytes(data)

    def replay_load_layers(self, store, tr):
        tr.call("storefile.digest", self.ws.storefile.graph_digest, store.graph)
        raw = [arr.to_bytes() for arr in self.arrays(store)]
        tr.begin("bitpack.read")
        for data in raw:
            self.ws.SuccinctArray.from_bytes(data)
        tr.finish()

    def replay_encode(self, store, tr):
        tables = self.ws.CodecTables(self.fresh_graph(), branching=store.branching)
        segments = self.segments(store)
        encode = tr.wrap("codec.encode", self.ws.encode_walk)
        for j in _every(len(segments), REPLAY_SAMPLE):
            lo, hi = segments[j]
            encode(tables, self.ref[lo:hi + 1])

    def replay_queries(self, store, tr):
        """One warm pass: the store's own vertex_at with a probe set, then
        the same query replayed layer by layer."""
        probe_words = []
        depths = []
        vertex_at = store.vertex_at
        for p in self.positions:
            tr.begin("query")
            probes = set()
            tr.call(self.query_span, vertex_at, p, probes)
            probe_words.append(len(probes))
            got = self.replay_query(store, p, tr, depths)
            tr.finish()
            self.check(got == self.ref[p], f"replayed query at {p} answered {got}")
        return probe_words, depths

    def decode(self, store, tr, code, offset, depths):
        stats = {}
        v = tr.call("codec.decode", self.ws.decode_vertex, store.tables, code, offset, stats)
        depths.append(stats.get("depth", 0))
        return v

    def replay_stats(self, store, tr):
        ws = self.ws
        tr.call("graph.worstcase_bits", ws.benchmark_worstcase_bits, self.fresh_graph(), self.n)
        walk = ws.Walk(store.graph, self.ref)
        tr.call("graph.pointwise_bits", ws.benchmark_pointwise_bits, walk)
        tr.call("report.probe_sample", ws.report.probe_sample, store)

    def space(self, store) -> dict:
        lg_kappa = self.lg_kappa()
        return {
            "space.header_bits": store.header_bits,
            "space.redundancy_worstcase_bits": store.payload_bits - lg_kappa,
            "space.redundancy_pointwise_bits":
                store.payload_bits - pointwise_bits(self.succ, self.ref),
        }


class RegularWorkload(WalkWorkload):
    mode = "regular"
    vertices = 4
    edges = K4_EDGES
    query_span = "regular.vertex_at"

    def lg_kappa(self):
        return lg_walks_complete(self.vertices, self.n)

    def arrays(self, store):
        return [store.milestones, store.blocks]

    def segments(self, store):
        lay = store.layout
        segs = [(b * lay.l, (b + 1) * lay.l) for b in range(lay.m)]
        if lay.rem:
            segs.append((lay.m * lay.l, self.n))
        return segs

    def replay_layout(self, tr):
        tr.call("regular.choose_l", self.ws.choose_l, self.fresh_graph(), self.n)

    def replay_query(self, store, i, tr, depths):
        lay = store.layout
        kind = store.milestones.strategy[0]
        get = tr.wrap(f"bitpack.{kind}_get", lambda arr, j: arr.get(j))
        if i % lay.l == 0 and i <= lay.m * lay.l:
            return get(store.milestones, i // lay.l)
        if i == lay.n:
            return get(store.milestones, lay.m + 1)
        b = min(i // lay.l, lay.m - 1) if i < lay.m * lay.l else lay.m
        x = get(store.milestones, b)
        y = get(store.milestones, b + 1)
        length = lay.l if b < lay.m else lay.rem
        code = self.ws.WalkCode(get(store.blocks, b) + 1, x, y, length)
        return self.decode(store, tr, code, i - b * lay.l, depths)

    def space(self, store):
        out = super().space(store)
        out["space.milestone_bits"] = store.milestones.data_bits
        out["space.block_bits"] = store.blocks.data_bits
        return out


class RegularSpill(RegularWorkload):
    """Batch spill-tree store at the ROADMAP grid size."""

    name = "regular-spill"
    n = 10**6

    def check_built(self, store, tr):
        super().check_built(store, tr)
        self.check(store.layout is not None and store.layout.rem == 0,
                   "expected milestone blocks with no remainder at n = 10^6")


class RegularOnline(RegularWorkload):
    """One writer appends while readers tail the walk; sealed into blocked."""

    name = "regular-online"
    n = 2**18
    strategy = "blocked"
    batch_arrays = False
    # The last SUFFIX vertices of the walk are the same for every seed.  The
    # remainder block (n mod l positions, l about lg n) lies inside them, so
    # the reads that hit the known remainder-block fault of
    # RegularStoreBuilder.vertex_at fail identically in every run.
    SUFFIX = 64
    READ_EVERY = 4
    RECENT_MEAN = 64.0

    def make_walk(self):
        suffix = markov_walk(self.succ, self.SUFFIX - 1, "regular-online/suffix", start=0)
        return markov_walk_with_suffix(self.succ, self.n, self.seed, suffix)

    def setup(self, tr):
        super().setup(tr)
        self.offsets = recent_offsets(
            self.n // self.READ_EVERY, self.RECENT_MEAN, f"{self.seed}/tail"
        )

    def space_budget(self):
        return super().space_budget() + self.groups

    def build(self, path, tr):
        ws = self.ws
        ref = self.ref
        builder = _call(tr, "regular.builder", ws.RegularStoreBuilder,
                        self.graph, self.n, strategy="blocked")
        append, read = builder.append, builder.vertex_at
        if tr is not None:
            append = tr.wrap("regular.append", append)
            read = tr.wrap("regular.online_read", read)
        every = self.READ_EVERY
        offsets = self.offsets
        wrong = 0
        for i in range(self.n):
            append(ref[i])
            if i % every == every - 1:
                p = max(0, i - offsets[i // every])
                if read(p) != ref[p]:
                    wrong += 1
        append(ref[self.n])
        self.check(wrong == 0, f"{wrong} reads while appending answered wrongly")
        store = _call(tr, "regular.finalize", builder.finalize)
        _call(tr, "storefile.save", ws.save_store, store, str(path))
        return store

    def check_built(self, store, tr):
        ws = self.ws
        batch = _call(tr, "regular.build", ws.build_store, self.graph, self.walk,
                      mode="regular", strategy="blocked")
        self.check(ws.storefile.store_to_bytes(store) == ws.storefile.store_to_bytes(batch),
                   "sealed online store differs from a batch blocked build")
        self.groups = sum(-(-arr.spec.t // arr.strategy[1]) for arr in self.arrays(store))
        super().check_built(store, tr)

    def before_queries(self, tr):
        """A builder that has taken the whole walk and is not yet sealed."""
        self.tail_builder = self.ws.RegularStoreBuilder(self.graph, self.n, strategy="blocked")
        for v in self.ref:
            self.tail_builder.append(v)
        self.tail_read = self.tail_builder.vertex_at
        if tr is not None:
            self.tail_read = tr.wrap("regular.online_read", self.tail_read)
        self.tail_positions = range(self.n + 1 - self.SUFFIX, self.n + 1)

    def round_extra(self):
        failed = 0
        for p in self.tail_positions:
            try:
                ok = self.tail_read(p) == self.ref[p]
            except self.ws.WalkstoreError:
                ok = False
            failed += not ok
        return len(self.tail_positions), failed, failed

    def after_queries(self):
        self.tail_builder = self.tail_read = None


class GeneralFib(WalkWorkload):
    """Bundled general store on the Fibonacci digraph."""

    name = "general-fib"
    mode = "general"
    n = 2**20
    vertices = 2
    edges = FIB_EDGES
    directed = True
    query_span = "general.vertex_at"

    def lg_kappa(self):
        return lg_walks_fibonacci(self.n)

    def space_budget(self):
        return 96 + 8 * math.log2(self.n)  # A3

    def check_built(self, store, tr):
        self.check(type(store).__name__ == "GeneralStore" and not store.is_plain,
                   f"expected the bundled store, got {type(store).__name__} "
                   f"(plain={getattr(store, 'is_plain', None)})")
        super().check_built(store, tr)

    def arrays(self, store):
        return [store.bundles, store.triples]

    def segments(self, store):
        half, m = store.half_len, store.block_count
        segs = []
        for i in range(m + 1):
            if i > 0:
                segs.append((2 * i * half - half, 2 * i * half))
            if i < m:
                segs.append((2 * i * half, 2 * i * half + half))
        return segs

    def replay_layout(self, tr):
        tr.call("general.choose_half_block", self.ws.choose_half_block,
                self.fresh_graph(), self.n)

    def replay_load_layers(self, store, tr):
        super().replay_load_layers(store, tr)
        tr.call("general.bundle_table", self.ws.BundleTable, self.fresh_graph(),
                self.n, store.half_len)

    def replay_query(self, store, q, tr, depths):
        ws = self.ws
        table = store.table
        L, m = store.half_len, store.block_count
        span = 2 * L
        get = tr.wrap(f"bitpack.{store.bundles.strategy[0]}_get", lambda arr, j: arr.get(j))

        def bundle(i):  # (vertex, slice in, slice out)
            value = get(store.bundles, i)
            if i == 0:
                x, j = table.unpack_end(value, "out")
                return x, None, j
            if i == m:
                x, j = table.unpack_end(value, "in")
                return x, j, None
            return table.unpack_interior(value)

        if q > m * span:
            anchor = bundle(m)[0]
            return tr.call("general.tail_vertex", ws.general.tail_vertex, table.counts,
                           anchor, store.tail_len, store.tail_code, q - m * span)
        if q % span == 0:
            return bundle(q // span)[0]
        i = q // span
        x, _, out_slice = bundle(i)
        x_next, in_slice, _ = bundle(i + 1)
        rank = get(store.triples, i) + 1
        mid, k_out, k_in = tr.call("general.triple_unrank", table.triple_unrank,
                                   x, out_slice, x_next, in_slice, rank)
        offset = q - i * span
        if offset == L:
            return mid
        if offset < L:
            code = table.code_of(out_slice, k_out, x, mid, "out")
            return self.decode(store, tr, ws.WalkCode(code, x, mid, L), offset, depths)
        code = table.code_of(in_slice, k_in, x_next, mid, "in")
        return self.decode(store, tr, ws.WalkCode(code, mid, x_next, L), offset - L, depths)

    def replay_queries(self, store, tr):
        out = super().replay_queries(store, tr)
        # Uniform positions rarely fall in the free-end tail; read all of it.
        ws = self.ws
        start = store.block_count * 2 * store.half_len
        anchor = store.vertex_at(start)
        for q in range(start + 1, self.n + 1):
            got = tr.call("general.tail_vertex", ws.general.tail_vertex, store.table.counts,
                          anchor, store.tail_len, store.tail_code, q - start)
            self.check(got == self.ref[q], f"tail position {q} answered {got}")
        return out

    def space(self, store):
        out = super().space(store)
        out["space.bundle_bits"] = store.bundles.data_bits
        out["space.triple_bits"] = store.triples.data_bits
        out["space.tail_bits"] = (
            store.payload_bits - store.bundles.data_bits - store.triples.data_bits
        )
        return out


# ---------------------------------------------------------------------------
# Dictionary over the pointwise store


class PointwiseDict(Workload):
    """Dictionary bridge: a dyadic text stored through the pointwise store."""

    name = "pointwise-dict"
    size = 2**11
    query_span = "dictionary.get"

    def setup(self, tr):
        ws = self.ws
        # The symbol at the middle of the text is the first one after the
        # root split of the pointwise tree, so it decides the label of that
        # split and with it which top-level count tables every build, first
        # get and root count convolve: after an 'a' the store holds 249 count
        # tables with 5,142 entries, after a 'b' or 'c' 255 with 6,166.  It is
        # fixed to 'b' so that every seed does the same work; the other
        # symbols are shuffled by the seed.
        text = dyadic_text(self.size, self.seed, middle="b")
        self.dist = ws.DyadicDist(list(DICT_CODE_LENS), list(DICT_CODE_LENS.values()))
        self.text = text
        self.positions = sample_positions(QUERY_POSITIONS, self.size, f"{self.seed}/positions")
        self.expected = [text[p] for p in self.positions]

    def build(self, path, tr):
        d = _call(tr, "dictionary.build", self.ws.build_dictionary, self.dist, self.text)
        data = _call(tr, "storefile.to_bytes", d.to_bytes)
        with open(path, "wb") as fh:
            fh.write(data)
        return d

    def drop_build(self):
        pass

    def reader(self, store):
        return store.get

    def stats(self, store, tr):
        _call(tr, "pointwise.payload_bits", getattr, store, "payload_bits")
        _call(tr, "pointwise.header_bits", getattr, store, "header_bits")

    def check_built(self, d, tr):
        h0 = h0_bits(self.text)
        self.check(d.payload_bits <= h0 + 3,
                   f"payload {d.payload_bits} bits over H0 + 3 = {h0 + 3}")

    def replay_build(self, d, tr):
        ws = self.ws
        hg = tr.call("dictionary.graph", ws.HuffmanGraph, self.dist)
        walk = tr.call("dictionary.walk", hg.string_to_walk, self.text)
        store = tr.call("pointwise.build", ws.build_pointwise, hg.graph, walk)
        self.check(store.rank0 == d.store.rank0, "rebuilt pointwise rank differs")
        self.walk_verts = walk.verts
        tr.call("storefile.to_bytes", d.to_bytes)

    def from_bytes(self, data):
        return self.ws.dictionary.SuccinctDictionary.from_bytes(data)

    def replay_load_layers(self, d, tr):
        """What the first get after a load computes, then the root count.
        Dictionary files carry no graph digest and no bit-packed array."""
        store = d.store
        engine = store.engine
        a, b = engine.split(store.n + 1)
        tr.begin("pointwise.count_tables")
        for u, w in engine.edges:
            engine.count_map(a, store.first, u)
            engine.count_map(b, w, store.last)
        tr.finish()
        tr.call("pointwise.root_count", engine.count_map, store.n + 1, store.first, store.last)

    def replay_queries(self, d, tr):
        vertex_at = d.store.vertex_at
        cycle = d.hg.cycle_len
        for i in self.positions:
            tr.begin("query")
            got = tr.call(self.query_span, d.get, i)
            v = tr.call("pointwise.vertex_at", vertex_at, (i + 1) * cycle - 1)
            tr.finish()
            self.check(got == self.text[i], f"get({i}) answered {got!r}")
            self.check(v == self.walk_verts[(i + 1) * cycle - 1],
                       f"pointwise vertex_at at symbol {i} answered {v}")
        return [], []

    def replay_stats(self, d, tr):
        pass

    def space(self, d) -> dict:
        succ = [d.hg.graph.successors(u) for u in range(d.hg.graph.k)]
        walk_len = self.size * d.hg.cycle_len
        return {
            "space.header_bits": d.header_bits,
            "space.redundancy_worstcase_bits":
                d.payload_bits - lg_int(count_walks_dp(succ, walk_len)),
            "space.redundancy_pointwise_bits":
                d.payload_bits - (math.log2(len(succ)) + h0_bits(self.text)),
        }


WORKLOADS = {w.name: w for w in (RegularSpill, RegularOnline, GeneralFib, PointwiseDict)}
