"""Bit-level storage: bit vectors, mixed-radix coding, succinct arrays.

A SuccinctArray stores one bounded integer per position under a pluggable
packing strategy:

  packed        one field of ceil(lg M_i) bits per position; O(1) probes,
                up to 1 bit of rounding per element (0 for power-of-two
                radices).
  blocked(b)    groups of b consecutive positions share one mixed-radix
                field of ceil(lg prod M_i) bits; O(1) probes, at most 1
                rounding bit per group.
  spill_tree(K) a balanced binary combine tree; each internal node emits
                its value's low bits down to a spill of range about K and
                passes the spill upward, the root spill lands in the
                header.  Total size is within O(lg t) bits of the exact
                information content, reads walk one root-to-leaf path.

All field offsets are functions of the radix spec alone, never of the
stored values, so readers can locate any field without scanning.  Specs
are kept and written as runs of equal radices and layouts are computed from
the runs, so a loaded array costs its payload bytes plus O(lg t) numbers for
the specs the stores build (uniform, or uniform apart from the end radices).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from itertools import chain, groupby, repeat
from typing import Callable, Iterable, Sequence

from .config import BLOCKED_TARGET_WIDTH
from .errors import (
    FormatError,
    ParameterError,
    RangeError,
    UnsupportedOperationError,
)
from .fileio import Cursor, write_varbig, write_varint
from .graph import ceil_log2

SA_MAGIC = b"SAR1"


class BitVec:
    """A growable bit vector in one byte buffer (bit i is bit i % 8 of
    byte i // 8, so the buffer is the serialized payload).

    Reads and writes take arbitrary widths; out-of-range access raises,
    values never wrap silently.  ``probes`` collects the indices of the
    64-bit words a read touches, for cell-probe instrumentation.  A vector
    read from bytes or held by a SuccinctArray keeps its buffer as
    immutable ``bytes``, which ``int.from_bytes`` reads without a copy.
    """

    __slots__ = ("buf", "nbits")

    def __init__(self, nbits: int = 0):
        self.nbits = nbits
        self.buf = bytearray((nbits + 7) >> 3)

    def write(self, pos: int, width: int, value: int) -> None:
        if width < 0 or pos < 0 or pos + width > self.nbits:
            raise RangeError(f"write of {width} bits at {pos} outside {self.nbits}")
        if value < 0 or value >> width:
            raise RangeError(f"value {value} does not fit in {width} bits")
        if not width:
            return
        buf, lo, hi, shift = self.buf, pos >> 3, (pos + width + 7) >> 3, pos & 7
        keep = int.from_bytes(buf[lo:hi], "little") & ~(((1 << width) - 1) << shift)
        buf[lo:hi] = (keep | value << shift).to_bytes(hi - lo, "little")

    def read(self, pos: int, width: int, probes: set | None = None) -> int:
        if width < 0 or pos < 0 or pos + width > self.nbits:
            raise RangeError(f"read of {width} bits at {pos} outside {self.nbits}")
        if not width:
            return 0
        end = pos + width
        if probes is not None:
            probes.update(range(pos >> 6, ((end - 1) >> 6) + 1))
        raw = int.from_bytes(self.buf[pos >> 3 : (end + 7) >> 3], "little")
        return (raw >> (pos & 7)) & ((1 << width) - 1)

    def append(self, width: int, value: int) -> None:
        pos = self.nbits
        self.nbits += width
        self.buf += bytes(((self.nbits + 7) >> 3) - len(self.buf))
        self.write(pos, width, value)

    def to_bytes(self) -> bytes:
        return bytes(self.buf)

    @classmethod
    def from_bytes(cls, raw: bytes, nbits: int) -> "BitVec":
        if len(raw) != (nbits + 7) // 8:
            raise FormatError("bit payload length mismatch")
        vec = cls()
        vec.nbits = nbits
        vec.buf = bytes(raw)
        return vec

    def __eq__(self, other):
        return isinstance(other, BitVec) and self.nbits == other.nbits and self.buf == other.buf


# ---------------------------------------------------------------------------
# Radix specs and mixed-radix coding


class RadixSpec:
    """Per-position radices M_0..M_{t-1}; values at i live in [0, M_i).

    Held as ``runs``, maximal (radix, count) runs of equal radices, so a
    uniform spec or one uniform apart from its ends costs O(1) at any t.
    """

    __slots__ = ("runs", "starts", "t")

    def __init__(self, radices: Iterable[int] = ()):
        self._adopt((m, sum(1 for _ in grp)) for m, grp in groupby(radices))

    @classmethod
    def from_runs(cls, runs: Iterable[tuple]) -> "RadixSpec":
        spec = cls.__new__(cls)
        spec._adopt(runs)
        return spec

    @classmethod
    def uniform_spec(cls, radix: int, t: int) -> "RadixSpec":
        return cls.from_runs([(radix, t)])

    def _adopt(self, pairs) -> None:
        runs, starts, t = [], [], 0
        for m, count in pairs:
            if count <= 0:
                continue
            if m < 1:
                raise ParameterError("radices must be >= 1")
            if runs and runs[-1][0] == m:
                runs[-1] = (m, runs[-1][1] + count)
            else:
                runs.append((m, count))
                starts.append(t)
            t += count
        self.runs, self.starts, self.t = tuple(runs), starts, t

    def __iter__(self):
        return chain.from_iterable(repeat(m, count) for m, count in self.runs)

    @property
    def radices(self) -> tuple:
        """Every radix, position by position (O(t); for small specs)."""
        return tuple(self)

    def run_end(self, i: int) -> int:
        """One past the last position of the run holding position i."""
        j = bisect_right(self.starts, i) - 1
        return self.starts[j] + self.runs[j][1]

    def slice_runs(self, lo: int, hi: int) -> tuple:
        """The runs of positions lo..hi-1, as a tuple of (radix, count)."""
        out = []
        j = bisect_right(self.starts, lo) - 1
        while lo < hi:
            m, count = self.runs[j]
            take = min(self.starts[j] + count, hi) - lo
            out.append((m, take))
            lo += take
            j += 1
        return tuple(out)

    def product(self) -> int:
        return math.prod(m**count for m, count in self.runs)

    def info_bits(self) -> int:
        """ceil(sum of lg M_i): the exact information content, in bits."""
        p = self.product()
        return ceil_log2(p) if p > 1 else 0

    def __eq__(self, other):
        return isinstance(other, RadixSpec) and self.runs == other.runs


# ---------------------------------------------------------------------------
# Strategies


def normalize_strategy(strategy, spec: RadixSpec | None = None):
    """Accepts 'packed' | 'blocked' | 'spill_tree' or ('blocked', b) /
    ('spill_tree', k_min) and fills in defaults from the spec."""
    if isinstance(strategy, str):
        name, param = strategy, None
    else:
        name, param = strategy
    if name == "packed":
        return ("packed", None)
    if name == "blocked":
        if param is None:
            param = _default_block_len(spec)
        if param < 1:
            raise ParameterError("blocked group size must be >= 1")
        return ("blocked", param)
    if name == "spill_tree":
        if param is None:
            param = max(2, (spec.t if spec else 2) ** 2)
        if param < 2:
            raise ParameterError("spill_tree K_min must be >= 2")
        return ("spill_tree", param)
    raise ParameterError(f"unknown strategy {name!r}")


def _default_block_len(spec: RadixSpec | None) -> int:
    if spec is None or spec.t == 0:
        return 8
    widest = max(ceil_log2(m) if m > 1 else 1 for m, _ in spec.runs)
    return max(1, BLOCKED_TARGET_WIDTH // widest)


def _layout_for(spec: RadixSpec, strategy):
    name, param = strategy
    if name == "spill_tree":
        return _SpillLayout(spec, param)
    return _BlockedLayout(spec, param or 1)


# --- blocked (packed is the case b = 1) ---------------------------------------


class _BlockedLayout:
    """Groups of b consecutive positions, one mixed-radix field each
    (Dodis, Patrascu and Thorup, STOC'10).

    Consecutive groups with the same radices form a segment: its fields
    all have one width and sit at ``offset + (g - first) * width``.  Each
    run of a spec yields at most two segments, so a run spec has O(1)
    of them at any length.
    """

    root_range = 1  # no root spill

    def __init__(self, spec: RadixSpec, b: int):
        self.b = b
        self.firsts = []   # first group of each segment
        self.offsets = []  # bit offset of that group's field
        self.widths = []   # field width of every group in the segment
        self.runs = []     # per segment: the radix runs of each of its groups
        self.digits = []   # per segment: (end, radix, after) per radix run
        self.groups = 0
        self.payload_bits = 0
        lo, t = 0, spec.t
        while lo < t:
            hi = min(lo + b, t)
            group = spec.slice_runs(lo, hi)
            count = 1
            if hi - lo == b and len(group) == 1:  # full groups inside one run
                count = (spec.run_end(lo) - lo) // b
            self.add(group, count)
            lo += count * b

    def add(self, group: tuple, count: int = 1) -> int:
        """Append ``count`` groups with the radix runs ``group``; returns
        their field width."""
        if not self.runs or group != self.runs[-1]:
            digits, after, end = [], 1, sum(c for _, c in group)
            for m, c in reversed(group):
                digits.append((end, m, after))  # positions end-c..end-1 have radix m
                end -= c
                after *= m**c
            self.runs.append(group)
            self.firsts.append(self.groups)
            self.offsets.append(self.payload_bits)
            self.widths.append(ceil_log2(after) if after > 1 else 0)
            self.digits.append(tuple(reversed(digits)))
        width = self.widths[-1]
        self.groups += count
        self.payload_bits += count * width
        return width

    def get(self, payload: BitVec, spill: int, i: int, probes: set | None) -> int:
        g, k = divmod(i, self.b)
        j = bisect_right(self.firsts, g) - 1
        width = self.widths[j]
        rank = payload.read(self.offsets[j] + (g - self.firsts[j]) * width, width, probes)
        for end, m, after in self.digits[j]:
            if k < end:
                return rank // (after * m ** (end - 1 - k)) % m

    def encode(self, values: Sequence[int], vec: BitVec) -> int:
        value = iter(values).__next__
        bounds = self.firsts[1:] + [self.groups]
        for first, last, off, width, runs in zip(
            self.firsts, bounds, self.offsets, self.widths, self.runs
        ):
            radices = [m for m, count in runs for _ in range(count)]
            acc = shift = 0  # one write per ~4096 bits: a write costs more than a field
            for g in range(first, last):
                rank = 0
                for m in radices:
                    rank = rank * m + value()
                acc |= rank << shift
                shift += width
                if shift >= 4096 or g == last - 1:
                    vec.write(off, shift, acc)
                    off, acc, shift = off + shift, 0, 0
        return 0


# --- spill tree ---------------------------------------------------------------


class _SpillLayout:
    """Balanced combine tree (Patrascu, "Succincter", FOCS'08).

    A node's shape (spill range, bits it emits, bits in its subtree, left
    shape, right shape, left size, then for a read step the mask of its
    bits, the right child's range and the left subtree's bits) depends only
    on the radices under it, so equal subtrees share one shape: a run spec
    has O(lg t) shapes.  Fields are laid out in pre-order; reads and writes
    compute a node's offset on the way down.

    A layout serves one payload.  Its first read without a probe set
    caches the frontier: every node at half the tree depth, about sqrt(t)
    of them, with its first position, bit offset and entering spill.  Such
    reads start from their frontier node; reads with a probe set walk from
    the root, so they report every word on the path.
    """

    def __init__(self, spec: RadixSpec, k_min: int):
        self.k_min = k_min
        self.root = (
            self._shape(spec, 0, spec.t, {}) if spec.t else (1, 0, 0, None, None, 1, 0, 1, 0)
        )
        self.payload_bits = self.root[2]
        self.root_range = self.root[0]
        self.frontier_depth = (ceil_log2(spec.t) if spec.t > 1 else 0) // 2
        self.frontier = None  # (first positions, bit offsets, entering spills, shapes)

    def _shape(self, spec, lo, hi, memo):
        key = spec.slice_runs(lo, hi)
        shape = memo.get(key)
        if shape is None:
            if hi - lo == 1:
                shape = (key[0][0], 0, 0, None, None, 1, 0, 1, 0)
            else:
                mid = (lo + hi) // 2
                left = self._shape(spec, lo, mid, memo)
                right = self._shape(spec, mid, hi, memo)
                combined = left[0] * right[0]
                bits = max(0, (combined // self.k_min).bit_length() - 1)
                range_ = (combined + (1 << bits) - 1) >> bits
                shape = (range_, bits, bits + left[2] + right[2], left, right, mid - lo,
                         (1 << bits) - 1, right[0], left[2])
            memo[key] = shape
        return shape

    def _build_frontier(self, payload: BitVec, spill: int) -> tuple:
        los, offs, spills, shapes = array("q"), array("q"), [], []
        stack = [(self.root, 0, 0, spill, 0)]
        while stack:
            shape, lo, off, spill, depth = stack.pop()
            _, bits, _, left, right, half, _, right_range, left_bits = shape
            if left is None or depth == self.frontier_depth:
                los.append(lo)
                offs.append(off)
                spills.append(spill)
                shapes.append(shape)
                continue
            spill = (spill << bits) | payload.read(off, bits)
            off += bits
            stack.append((right, lo + half, off + left_bits, spill % right_range, depth + 1))
            stack.append((left, lo, off, spill // right_range, depth + 1))
        return los, offs, spills, shapes

    def get(self, payload: BitVec, spill: int, i: int, probes: set | None) -> int:
        if probes is None:
            if self.frontier is None:
                self.frontier = self._build_frontier(payload, spill)
            los, offs, spills, shapes = self.frontier
            j = bisect_right(los, i) - 1
            shape, off, spill, i = shapes[j], offs[j], spills[j], i - los[j]
        else:
            shape, off = self.root, 0
        buf, from_bytes = payload.buf, int.from_bytes
        while True:
            _, bits, _, left, right, half, mask, right_range, left_bits = shape
            if left is None:
                return spill
            if bits:
                end = off + bits
                if probes is not None:
                    probes.update(range(off >> 6, ((end - 1) >> 6) + 1))
                field = from_bytes(buf[off >> 3 : (end + 7) >> 3], "little") >> (off & 7)
                spill = (spill << bits) | (field & mask)
                off = end
            if i < half:
                spill //= right_range
                shape = left
            else:
                spill %= right_range
                off += left_bits
                i -= half
                shape = right

    def encode(self, values: Sequence[int], vec: BitVec) -> int:
        """Writes every node's low bits; returns the root spill."""
        return self._encode(self.root, values, 0, 0, vec) if values else 0

    def _encode(self, shape, values, lo, off, vec) -> int:
        _, bits, _, left, right, half, mask, right_range, left_bits = shape
        if left is None:
            return values[lo]
        v = self._encode(left, values, lo, off + bits, vec) * right_range
        v += self._encode(right, values, lo + half, off + bits + left_bits, vec)
        if bits:
            vec.write(off, bits, v & mask)
        return v >> bits


# ---------------------------------------------------------------------------
# SuccinctArray


class SuccinctArray:
    """Immutable sequence of bounded integers under one packing strategy.

    ``payload_bits`` is the bit vector length; for spill trees the root spill
    is accounted separately in ``spill_bits`` and the two together form
    ``data_bits``, the figure space claims are measured against.
    ``header_bits`` covers strategy parameters only.
    """

    def __init__(self, spec, strategy, payload, layout, root_spill=0):
        self.spec = spec
        self.strategy = strategy
        payload.buf = bytes(payload.buf)  # read-only from here on
        self.payload = payload
        self._layout = layout
        self.root_spill = root_spill

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, spec: RadixSpec, values: Sequence[int], strategy="packed"):
        strategy = normalize_strategy(strategy, spec)
        if len(values) != spec.t:
            raise RangeError("value count does not match spec")
        for v, m in zip(values, spec):
            if not 0 <= v < m:
                raise RangeError(f"value {v} outside radix {m}")
        layout = _layout_for(spec, strategy)
        vec = BitVec(layout.payload_bits)
        return cls(spec, strategy, vec, layout, layout.encode(values, vec))

    # -- access ---------------------------------------------------------------

    def get(self, i: int, probes: set | None = None) -> int:
        if not 0 <= i < self.spec.t:
            raise RangeError(f"index {i} outside [0,{self.spec.t})")
        return self._layout.get(self.payload, self.root_spill, i, probes)

    def values(self) -> list:
        return [self.get(i) for i in range(self.spec.t)]

    # -- accounting -------------------------------------------------------------

    @property
    def payload_bits(self) -> int:
        return self.payload.nbits

    @property
    def spill_bits(self) -> int:
        r = self._layout.root_range
        return ceil_log2(r) if r > 1 else 0

    @property
    def data_bits(self) -> int:
        return self.payload_bits + self.spill_bits

    @property
    def header_bits(self) -> int:
        return 16 + 2 * self.spill_bits

    # -- serialization ------------------------------------------------------------

    _TAGS = {"packed": 0, "blocked": 1, "spill_tree": 2}
    _NAMES = {v: k for k, v in _TAGS.items()}

    def to_bytes(self, version: int = 2) -> bytes:
        """The spec is form 1 (one radix) when uniform, else form 2 (its runs)
        from store format version 2 on, else form 0 (every radix)."""
        out = bytearray(SA_MAGIC)
        name, param = self.strategy
        out.append(self._TAGS[name])
        write_varint(out, self.spec.t)
        runs = self.spec.runs
        if len(runs) == 1:
            out.append(1)
            write_varbig(out, runs[0][0])
        elif len(runs) > 1 and version >= 2:
            out.append(2)
            write_varint(out, len(runs))
            for m, count in runs:
                write_varbig(out, m)
                write_varint(out, count)
        else:
            out.append(0)
            for m in self.spec:
                write_varbig(out, m)
        if name == "blocked":
            write_varint(out, param)
        elif name == "spill_tree":
            write_varbig(out, param)
            write_varbig(out, self.root_spill)
        write_varint(out, self.payload.nbits)
        out.extend(self.payload.to_bytes())
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SuccinctArray":
        cur = Cursor(data)
        arr = cls.read_from(cur)
        if not cur.done():
            raise FormatError("trailing bytes after succinct array")
        return arr

    @classmethod
    def read_from(cls, cur: Cursor) -> "SuccinctArray":
        cur.expect(SA_MAGIC)
        tag = cur.u8()
        if tag not in cls._NAMES:
            raise FormatError(f"unknown strategy tag {tag}")
        name = cls._NAMES[tag]
        t = cur.varint()
        form = cur.u8()
        if form == 0:
            spec = RadixSpec(cur.varbig() for _ in range(t))
        elif form == 1:
            spec = RadixSpec.uniform_spec(cur.varbig(), t)
        elif form == 2:
            # a run count, then (radix, count) per run; a run takes two bytes
            # or more, so the count is bounded by the bytes left
            nruns = cur.varint()
            if nruns > t or 2 * nruns > len(cur.data) - cur.pos:
                raise FormatError(f"{nruns} radix runs for {t} positions")
            runs = [(cur.varbig(), cur.varint()) for _ in range(nruns)]
            if any(m < 1 or count < 1 for m, count in runs) or sum(c for _, c in runs) != t:
                raise FormatError(f"radix runs do not cover {t} positions with radices >= 1")
            spec = RadixSpec.from_runs(runs)
        else:
            raise FormatError(f"unknown radix spec form {form}")
        param = None
        root_spill = 0
        if name == "blocked":
            param = cur.varint()
        elif name == "spill_tree":
            param = cur.varbig()
            root_spill = cur.varbig()
        nbits = cur.varint()
        payload = BitVec.from_bytes(cur.take((nbits + 7) // 8), nbits)
        # A packed or blocked payload holds at least floor(lg M_i) bits per
        # position; checking that first keeps the radix products of blocked
        # groups within the bytes present.
        if name != "spill_tree" and sum(c * (m.bit_length() - 1) for m, c in spec.runs) > nbits:
            raise FormatError("payload length disagrees with spec")
        strategy = normalize_strategy((name, param), spec)
        layout = _layout_for(spec, strategy)
        if layout.payload_bits != nbits:
            raise FormatError("payload length disagrees with spec")
        if root_spill >= layout.root_range:
            raise FormatError("root spill outside its range")
        return cls(spec, strategy, payload, layout, root_spill)

    def __eq__(self, other):
        return isinstance(other, SuccinctArray) and self.to_bytes() == other.to_bytes()


# ---------------------------------------------------------------------------
# Append-capable arrays (packed and blocked only)


class AppendableArray:
    """Append-only packed/blocked array over a radix generator.

    ``radix_fn(i)`` declares the radix of position i.  Each full group is
    flushed into the bit vector and the blocked layout as it completes;
    gets serve flushed positions from there and the partial group from a
    buffer.  ``finalize()`` flushes the partial group and seals the array,
    producing a payload bit-for-bit identical to a batch build over the
    same spec.
    """

    def __init__(self, radix_fn: Callable[[int], int], strategy="blocked"):
        self.strategy = normalize_strategy(strategy)
        if self.strategy[0] == "spill_tree":
            raise UnsupportedOperationError("spill_tree arrays do not support append")
        self.radix_fn = radix_fn
        self.payload = BitVec()
        self._layout = _layout_for(RadixSpec(), self.strategy)
        self._runs = []      # (radix, count) runs of every appended position
        self.buffer = []     # values of the partial group
        self._pending = []   # their radices
        self.flushed = 0
        self.sealed = False

    def __len__(self):
        return self.flushed + len(self.buffer)

    def append(self, value: int) -> None:
        if self.sealed:
            raise UnsupportedOperationError("array already finalized")
        i = len(self)
        m = self.radix_fn(i)
        if m < 1:
            raise ParameterError("radix generator produced radix < 1")
        if not 0 <= value < m:
            raise RangeError(f"value {value} outside radix {m} at position {i}")
        if self._runs and self._runs[-1][0] == m:
            self._runs[-1][1] += 1
        else:
            self._runs.append([m, 1])
        self.buffer.append(value)
        self._pending.append(m)
        if len(self.buffer) == self._layout.b:
            self._flush_group()

    def _flush_group(self):
        rank = 0
        for v, m in zip(self.buffer, self._pending):
            rank = rank * m + v
        group = tuple((m, sum(1 for _ in grp)) for m, grp in groupby(self._pending))
        self.payload.append(self._layout.add(group), rank)
        self.flushed += len(self.buffer)
        self.buffer, self._pending = [], []

    def get(self, i: int, probes: set | None = None) -> int:
        if not 0 <= i < len(self):
            raise RangeError(f"index {i} outside [0,{len(self)})")
        if i >= self.flushed:
            return self.buffer[i - self.flushed]
        return self._layout.get(self.payload, 0, i, probes)

    def finalize(self) -> SuccinctArray:
        if self.sealed:
            raise UnsupportedOperationError("array already finalized")
        if self.buffer:
            self._flush_group()
        self.sealed = True
        spec = RadixSpec.from_runs(self._runs)
        return SuccinctArray(spec, self.strategy, self.payload, self._layout)
