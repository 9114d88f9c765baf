import math
import random
import time

import pytest

from walkstore.bitpack import (
    SA_MAGIC,
    AppendableArray,
    BitVec,
    RadixSpec,
    SuccinctArray,
    _SpillLayout,
    normalize_strategy,
)
from walkstore.errors import (
    FormatError,
    ParameterError,
    RangeError,
    UnsupportedOperationError,
)
from walkstore.fileio import write_varbig, write_varint
from walkstore.graph import ceil_log2


def test_bitvec_roundtrip():
    rng = random.Random(7)
    vec = BitVec(5000)
    writes = []
    pos = 0
    while pos < 4800:
        width = rng.randrange(1, 65)
        val = rng.randrange(2**width)
        vec.write(pos, width, val)
        writes.append((pos, width, val))
        pos += width
    for pos, width, val in writes:
        assert vec.read(pos, width) == val


def test_bitvec_random_ops_match_bit_list():
    rng = random.Random(21)
    vec, ref = BitVec(0), []

    def bits_of(value, width):
        return [(value >> j) & 1 for j in range(width)]

    def value_of(pos, width):
        return sum(bit << j for j, bit in enumerate(ref[pos : pos + width]))

    for _ in range(600):
        width = rng.choice([0, 1, 3, 7, 8, 9, 56, 63, 64, 65, 130])
        value = rng.getrandbits(width)
        op = rng.randrange(3)
        if op == 0 or len(ref) < width:
            vec.append(width, value)
            ref.extend(bits_of(value, width))
        elif op == 1:
            pos = rng.randrange(len(ref) - width + 1)
            vec.write(pos, width, value)
            ref[pos : pos + width] = bits_of(value, width)
        else:
            pos = rng.randrange(len(ref) - width + 1)
            assert vec.read(pos, width) == value_of(pos, width)
    assert vec.nbits == len(ref)
    for pos in range(0, len(ref) - 130, 37):
        for width in (1, 8, 64, 65, 130):
            assert vec.read(pos, width) == value_of(pos, width)


def test_bitvec_probes_are_the_words_a_read_spans():
    rng = random.Random(8)
    vec = BitVec(1000)
    for pos, width in [(0, 1), (63, 1), (63, 2), (64, 64), (60, 70), (5, 0), (1000, 0)]:
        probes = set()
        vec.read(pos, width, probes)
        expect = set(range(pos // 64, (pos + width - 1) // 64 + 1)) if width else set()
        assert probes == expect
    for _ in range(300):
        width = rng.randrange(1, 200)
        pos = rng.randrange(1000 - width + 1)
        probes = set()
        vec.read(pos, width, probes)
        assert probes == set(range(pos // 64, (pos + width - 1) // 64 + 1))


def test_bitvec_bounds():
    vec = BitVec(10)
    with pytest.raises(RangeError):
        vec.read(8, 3)
    with pytest.raises(RangeError):
        vec.write(0, 4, 16)  # would wrap
    with pytest.raises(RangeError):
        vec.read(-1, 2)
    with pytest.raises(RangeError):
        vec.read(11, 0)
    with pytest.raises(RangeError):
        vec.write(9, 2, 0)
    with pytest.raises(RangeError):
        vec.write(0, 3, -1)
    with pytest.raises(FormatError):
        BitVec.from_bytes(b"\x00\x00", 17)


def test_bitvec_bytes_roundtrip():
    rng = random.Random(3)
    vec = BitVec(0)
    for _ in range(100):
        w = rng.randrange(0, 70)
        vec.append(w, rng.randrange(2**w) if w else 0)
    back = BitVec.from_bytes(vec.to_bytes(), vec.nbits)
    assert back == vec
    raw = bytes(rng.randrange(256) for _ in range(9))
    assert BitVec.from_bytes(raw, 72).to_bytes() == raw
    assert BitVec.from_bytes(raw, 72).read(60, 12) == int.from_bytes(raw, "little") >> 60


def test_info_bits():
    assert RadixSpec((3, 3, 3)).info_bits() == 5  # ceil(lg 27)
    assert RadixSpec((1, 1)).info_bits() == 0
    assert RadixSpec((2,) * 8).info_bits() == 8


def test_packed_example():
    bits = [(0xA5 >> i) & 1 for i in range(7, -1, -1)]
    spec = RadixSpec((2,) * 8)
    arr = SuccinctArray.build(spec, bits, "packed")
    assert arr.payload_bits == 8
    assert arr.values() == bits


def test_blocked_example():
    spec = RadixSpec((3, 3, 3))
    arr = SuccinctArray.build(spec, [0, 1, 2], ("blocked", 3))
    assert arr.payload_bits == 5
    assert arr.payload.read(0, 5) == 5
    assert arr.values() == [0, 1, 2]
    assert arr.get(2) == 2


def test_spill_tree_exhaustive_small():
    spec = RadixSpec((5, 7, 11))
    for a in range(5):
        for b in range(7):
            for c in range(11):
                arr = SuccinctArray.build(spec, [a, b, c], ("spill_tree", 4))
                assert arr.values() == [a, b, c]
    arr = SuccinctArray.build(spec, [4, 6, 10], ("spill_tree", 4))
    assert arr.get(1) == 6


def test_spill_tree_formula_1024_radix3():
    rng = random.Random(11)
    spec = RadixSpec((3,) * 1024)
    values = [rng.randrange(3) for _ in range(1024)]
    arr = SuccinctArray.build(spec, values, ("spill_tree", 2**20))
    assert arr.values() == values
    assert arr.payload_bits + arr.spill_bits <= 1624 + 44
    assert spec.info_bits() == 1624


@pytest.mark.parametrize(
    "strategy", ["packed", "blocked", "spill_tree"], ids=str
)
@pytest.mark.parametrize("seed", range(4))
def test_roundtrip_random_specs(strategy, seed):
    rng = random.Random(seed * 997)
    t = rng.randrange(1, 300)
    choices = [1, 2, 3, 5, 8, 64, 2**25, 2**256]
    spec = RadixSpec(tuple(rng.choice(choices) for _ in range(t)))
    values = [rng.randrange(m) for m in spec.radices]
    arr = SuccinctArray.build(spec, values, strategy)
    assert arr.values() == values
    # space formulas hold bit-exactly per strategy
    name, param = arr.strategy
    if name == "packed":
        assert arr.payload_bits == sum(
            ceil_log2(m) if m > 1 else 0 for m in spec.radices
        )
    elif name == "blocked":
        total = 0
        for lo in range(0, t, param):
            prod = 1
            for m in spec.radices[lo : lo + param]:
                prod *= m
            total += ceil_log2(prod) if prod > 1 else 0
        assert arr.payload_bits == total
    else:
        assert arr.payload_bits + arr.spill_bits <= spec.info_bits() + 4 * max(
            1, math.ceil(math.log2(t)) if t > 1 else 1
        ) + 4


def test_spill_redundancy_growth():
    rng = random.Random(5)
    prev = None
    for t in [64, 128, 256, 512, 1024, 2048]:
        spec = RadixSpec((3,) * t)
        values = [rng.randrange(3) for _ in range(t)]
        arr = SuccinctArray.build(spec, values, "spill_tree")
        red = arr.payload_bits + arr.header_bits - spec.info_bits()
        assert red <= 4 * math.log2(t) + 64
        data_red = arr.data_bits - spec.info_bits()
        if prev is not None:
            assert data_red - prev <= 4
        prev = data_red


def test_blocked_probe_count():
    spec = RadixSpec((2**25,) * 64)
    values = list(range(64))
    arr = SuccinctArray.build(spec, values, "blocked")
    for i in range(64):
        probes = set()
        assert arr.get(i, probes) == i
        assert len(probes) <= 3


def test_spill_probe_count():
    t = 1024
    spec = RadixSpec((3,) * t)
    rng = random.Random(2)
    values = [rng.randrange(3) for _ in range(t)]
    arr = SuccinctArray.build(spec, values, "spill_tree")
    for i in rng.sample(range(t), 50):
        probes = set()
        assert arr.get(i, probes) == values[i]
        assert len(probes) <= 2 * math.ceil(math.log2(t)) + 4


def test_strategy_validation():
    spec = RadixSpec((3, 3))
    with pytest.raises(ParameterError):
        normalize_strategy(("blocked", 0), spec)
    with pytest.raises(ParameterError):
        normalize_strategy(("spill_tree", 1), spec)
    with pytest.raises(ParameterError):
        normalize_strategy("bogus", spec)


def test_append_basic():
    arr = AppendableArray(lambda i: 5, ("blocked", 2))
    for v in [3, 1, 4]:
        arr.append(v)
    assert [arr.get(i) for i in range(3)] == [3, 1, 4]
    sealed = arr.finalize()
    assert sealed.values() == [3, 1, 4]


def test_append_formula_radix3_blocked20():
    arr = AppendableArray(lambda i: 3, ("blocked", 20))
    rng = random.Random(9)
    values = [rng.randrange(3) for _ in range(10**5)]
    for v in values:
        arr.append(v)
    sealed = arr.finalize()
    assert sealed.payload_bits == 32 * 5000
    for i in rng.sample(range(10**5), 200):
        assert sealed.get(i) == values[i]


def test_append_range_error():
    arr = AppendableArray(lambda i: 3, "packed")
    with pytest.raises(RangeError):
        arr.append(3)


def test_append_on_spill_tree_rejected():
    with pytest.raises(UnsupportedOperationError):
        AppendableArray(lambda i: 3, "spill_tree")


def test_append_matches_batch_blocked():
    rng = random.Random(4)
    radices = tuple(rng.randrange(2, 40) for _ in range(57))
    values = [rng.randrange(m) for m in radices]
    batch = SuccinctArray.build(RadixSpec(radices), values, ("blocked", 8))
    online = AppendableArray(lambda i: radices[i], ("blocked", 8))
    for v in values:
        online.append(v)
    assert online.finalize().to_bytes() == batch.to_bytes()


@pytest.mark.parametrize("strategy", ["packed", ("blocked", 5), "spill_tree"])
def test_serialization_roundtrip(strategy):
    rng = random.Random(13)
    spec = RadixSpec(tuple(rng.randrange(1, 1000) for _ in range(41)))
    values = [rng.randrange(m) for m in spec.radices]
    arr = SuccinctArray.build(spec, values, strategy)
    back = SuccinctArray.from_bytes(arr.to_bytes())
    assert back.values() == values
    assert back == arr


def test_get_zero_store(c3=None):
    spec = RadixSpec((1, 1, 1))
    arr = SuccinctArray.build(spec, [0, 0, 0], "packed")
    assert arr.get(0) == 0
    assert arr.payload_bits == 0


def test_spill_tree_single_position():
    arr = SuccinctArray.build(RadixSpec((1000,)), [777], "spill_tree")
    assert arr.payload_bits == 0
    assert arr.spill_bits == 10
    assert arr.get(0) == 777
    assert SuccinctArray.from_bytes(arr.to_bytes()).get(0) == 777
    arr.root_spill = 1000
    with pytest.raises(FormatError):
        SuccinctArray.from_bytes(arr.to_bytes())


def test_roundtrip_full_scale_t2048():
    rng = random.Random(77)
    choices = [2, 3, 17, 2**60, 2**256]
    radices = tuple(rng.choice(choices) for _ in range(2048))
    values = [rng.randrange(m) for m in radices]
    spec = RadixSpec(radices)
    for strategy in ("packed", "blocked", "spill_tree"):
        arr = SuccinctArray.build(spec, values, strategy)
        for i in rng.sample(range(2048), 100):
            assert arr.get(i) == values[i]
        if strategy == "spill_tree":
            assert arr.data_bits <= spec.info_bits() + 4 * 11 + 4


def test_packed_append_mixed_radices():
    radices = [3, 1, 2**40, 7, 1, 64]
    arr = AppendableArray(lambda i: radices[i], "packed")
    values = [2, 0, 2**39 + 5, 6, 0, 63]
    for v in values:
        arr.append(v)
        assert [arr.get(i) for i in range(len(arr))] == values[: len(arr)]
    assert arr.finalize().values() == values


def test_empty_array_roundtrip():
    for strategy in ("packed", "blocked"):
        arr = SuccinctArray.build(RadixSpec(()), [], strategy)
        assert arr.payload_bits == 0
        back = SuccinctArray.from_bytes(arr.to_bytes())
        assert back.spec.t == 0
        with pytest.raises(RangeError):
            back.get(0)


def test_run_spec_matches_its_radices():
    spec = RadixSpec((5, 3, 3, 3, 7, 7, 3))
    assert spec.runs == ((5, 1), (3, 3), (7, 2), (3, 1))
    assert spec.radices == (5, 3, 3, 3, 7, 7, 3)
    assert spec == RadixSpec.from_runs([(5, 1), (3, 2), (3, 1), (2, 0), (7, 2), (3, 1)])
    assert spec.slice_runs(2, 6) == ((3, 2), (7, 2))
    assert RadixSpec.uniform_spec(4, 10**12).t == 10**12


def test_spill_shapes_of_a_run_spec_are_logarithmic():
    t = 10**6
    spec = RadixSpec.from_runs([(7, 1), (5, t - 2), (11, 1)])
    layout = _SpillLayout(spec, t * t)
    seen, stack = set(), [layout.root]
    while stack:
        shape = stack.pop()
        if id(shape) not in seen:
            seen.add(id(shape))
            stack.extend(child for child in shape[3:5] if child is not None)
    assert len(seen) <= 4 * math.ceil(math.log2(t)) + 8


@pytest.mark.parametrize("k_min", [2, 16, None])
@pytest.mark.parametrize("t", [1, 2, 3, 7, 64, 1000, 4520])
def test_spill_reads_from_frontier_and_root_agree(t, k_min):
    rng = random.Random(t)
    if t == 4520:  # a run spec with distinct end radices, like a general store's bundles
        spec = RadixSpec.from_runs([(10**6 + 3, 1), (10**12 + 39, t - 2), (999_983, 1)])
    else:
        spec = RadixSpec([rng.randrange(1, 40) for _ in range(t)])
    values = [rng.randrange(m) for m in spec]
    built = SuccinctArray.build(spec, values, ("spill_tree", k_min))
    loaded = SuccinctArray.from_bytes(built.to_bytes())
    assert [built.get(i) for i in range(t)] == values  # the frontier is built first
    assert [built.get(i, set()) for i in range(t)] == values
    assert [loaded.get(i, set()) for i in range(t)] == values  # the root path first
    assert [loaded.get(i) for i in range(t)] == values


def test_spill_frontier_holds_about_sqrt_t_nodes():
    t = 10**6
    spec = RadixSpec.from_runs([(7, 1), (5, t - 2), (11, 1)])
    layout = _SpillLayout(spec, t * t)
    assert layout.get(BitVec(layout.payload_bits), 0, t - 1, None) == 0
    firsts = layout.frontier[0]
    assert list(firsts) == sorted(firsts) and firsts[0] == 0
    assert len(firsts) <= 2 * math.ceil(math.sqrt(t))


@pytest.mark.parametrize("strategy", ["packed", "blocked", "spill_tree"])
@pytest.mark.parametrize("nbits", [64, 2**41])
def test_huge_declared_length_is_rejected_quickly(strategy, nbits):
    t = 2**40
    out = bytearray(SA_MAGIC)
    out.append(SuccinctArray._TAGS[strategy])
    write_varint(out, t)
    out.append(1)  # uniform spec
    write_varbig(out, 3)
    if strategy == "blocked":
        write_varint(out, t)
    elif strategy == "spill_tree":
        write_varbig(out, t * t)
        write_varbig(out, 0)
    write_varint(out, nbits)
    out.extend(bytes(8))
    assert len(out) < 48
    start = time.perf_counter()
    with pytest.raises(FormatError):
        SuccinctArray.from_bytes(bytes(out))
    assert time.perf_counter() - start < 1


def _form_offset(data: bytes) -> int:
    """Position of the spec-form byte: after the magic, tag and varint t."""
    pos = len(SA_MAGIC) + 1
    while data[pos] & 0x80:
        pos += 1
    return pos + 1


@pytest.mark.parametrize("strategy", ["packed", ("blocked", 5), "spill_tree"])
def test_spec_forms_by_version(strategy):
    """A spec of several runs is written radix by radix (form 0) in version 1
    and as its runs (form 2) in version 2; a uniform spec is form 1 in both."""
    spec = RadixSpec.from_runs([(7, 1), (1000, 4000), (3, 1)])
    values = [i % m for i, m in enumerate(spec)]
    arr = SuccinctArray.build(spec, values, strategy)
    v1, v2 = arr.to_bytes(version=1), arr.to_bytes()
    assert v1[_form_offset(v1)] == 0 and v2[_form_offset(v2)] == 2
    assert len(v1) - len(v2) > 2 * 4000
    for data in (v1, v2):
        back = SuccinctArray.from_bytes(data)
        assert back.spec == spec and back.values() == values
    uniform = SuccinctArray.build(RadixSpec.uniform_spec(5, 300), [1] * 300, strategy)
    assert uniform.to_bytes(version=1) == uniform.to_bytes()
    assert uniform.to_bytes()[_form_offset(uniform.to_bytes())] == 1


def _crafted_runs(t: int, nruns: int, runs) -> bytes:
    out = bytearray(SA_MAGIC)
    out.append(SuccinctArray._TAGS["packed"])
    write_varint(out, t)
    out.append(2)
    write_varint(out, nruns)
    for m, count in runs:
        write_varbig(out, m)
        write_varint(out, count)
    write_varint(out, 8)
    out.extend(bytes(8))
    return bytes(out)


@pytest.mark.parametrize(
    "data, message",
    [
        (_crafted_runs(2**40, 2**40, [(3, 2**39), (5, 2**39)]), "radix runs for"),
        (_crafted_runs(10, 2, [(3, 6), (5, 6)]), "do not cover"),
        (_crafted_runs(10, 3, [(3, 10), (5, 0), (3, 0)]), "do not cover"),
        (_crafted_runs(10, 2, [(0, 5), (5, 5)]), "do not cover"),
        (_crafted_runs(10, 11, [(3, 1)] * 11), "radix runs for"),
        (_crafted_runs(10, 2, [(3, 4), (5, 4)]), "do not cover"),
        (_crafted_runs(4, 2, [(3, 2)]), "truncated"),
    ],
    ids=["run-count-2^40", "counts-past-t", "zero-count", "zero-radix",
         "more-runs-than-t", "counts-short-of-t", "runs-missing"],
)
def test_crafted_run_specs_are_rejected_quickly(data, message):
    """Each is refused before a run is read when the run count exceeds t or
    half the bytes left, else once the runs are read."""
    start = time.perf_counter()
    with pytest.raises(FormatError, match=message):
        SuccinctArray.from_bytes(data)
    assert time.perf_counter() - start < 1


def test_unknown_spec_form_is_rejected():
    data = bytearray(SuccinctArray.build(RadixSpec.uniform_spec(3, 4), [0, 1, 2, 0]).to_bytes())
    pos = _form_offset(bytes(data))
    assert data[pos] == 1
    for form in (3, 7, 255):
        data[pos] = form
        start = time.perf_counter()
        with pytest.raises(FormatError, match="form"):
            SuccinctArray.from_bytes(bytes(data))
        assert time.perf_counter() - start < 1
