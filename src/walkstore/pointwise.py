"""Store matching the per-walk entropy benchmark lg|G| + sum lg deg(v_i).

The walk is viewed as the leaves of a balanced binary tree.  Every node
carries a label (first vertex, last vertex, S) where S adds up, over the
steps inside the node's range, the integer cost ceil(P * lg deg(v)) of the
step leaving v (P is a precision factor, P = n by default).  Labels of
invalid ranges (children whose boundary vertices are not adjacent) count as
zero, so the number of leaf arrays with a given root label counts exactly
the valid walks with those endpoints and cost sum.

The payload is a single integer: the rank of the walk among all walks
sharing the root label, packed in ceil(lg N) bits.  Since a uniformly
random walk with that label has entropy lg N <= lg|G| + S/P, the payload
stays within a couple of bits of the per-walk benchmark.  Queries descend
the implicit tree, peeling the rank by enumerating the (boundary pair,
cost split) choices in canonical order; resolved nodes are cached on the
store so scattered queries do not redo the arithmetic.  That cache is not
bounded: a scan of every position leaves about n nodes in it.

Count tables are dictionaries of Python ints keyed by cost sum, built by
convolving child tables: one convolution per source vertex u of the split
edge, with the right tables of u's successors added first.  A large
convolution packs each table into one decimal.Decimal, D digits per
coefficient, and multiplies the two in an exact context, where libmpdec
uses a number-theoretic transform and any rounding raises.  The root count
(and so payload_bits) is one coefficient, summed from the child tables, so
the size-(n+1) table is never built.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, Inexact, InvalidOperation, MAX_EMAX, MAX_PREC, Rounded

from .errors import FormatError, InvalidWalkError, ParameterError, RangeError
from .fileio import Cursor, write_varbig, write_varint
from .graph import Graph, Walk, ceil_log2
from .store import WalkStore

# Plain dict convolution below this many coefficient pairs.
_KRONECKER_CUTOFF = 1024

# The packed multiply's own context: exact, so any rounding raises.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded, InvalidOperation])


def _step_cost(deg: int, precision: int) -> int:
    """ceil(precision * lg2(deg)), exactly (0 for deg <= 1)."""
    if deg <= 1:
        return 0
    return (deg**precision - 1).bit_length()


class LabelCounts:
    """Count tables N(size, x, y)[S] for one graph and precision factor."""

    def __init__(self, graph: Graph, precision: int):
        if precision < 1:
            raise ParameterError("precision factor must be >= 1")
        self.graph = graph
        self.precision = precision
        self.costs = [_step_cost(d, precision) for d in graph.out_deg]
        positive = [c for c in self.costs if c]
        self.lattice = math.gcd(*positive) if positive else 1
        self.edges = sorted(
            (u, v) for u in range(graph.k) for v in graph.successors(u)
        )
        self._maps = {}
        self._sorted_keys = {}

    def split(self, size: int) -> tuple:
        return (size + 1) // 2, size // 2

    def count_map(self, size: int, x: int, y: int) -> dict:
        key = (size, x, y)
        cached = self._maps.get(key)
        if cached is not None:
            return cached
        if size == 1:
            result = {0: 1} if x == y else {}
        else:
            a, b = self.split(size)
            result = {}
            for u in range(self.graph.k):
                left = self.count_map(a, x, u)
                if not left:
                    continue
                right = _add_tables(
                    [self.count_map(b, w, y) for w in self.graph.successors(u)]
                )
                if right:
                    self._conv_into(result, left, right, self.costs[u])
        self._maps[key] = result
        return result

    def sorted_keys(self, size: int, x: int, y: int):
        key = (size, x, y)
        if key not in self._sorted_keys:
            self._sorted_keys[key] = sorted(self.count_map(size, x, y))
        return self._sorted_keys[key]

    def count(self, size: int, x: int, y: int, cost: int) -> int:
        """N(size, x, y)[cost], from the cached table or else as one
        coefficient of the child tables, building no size-``size`` table."""
        if size == 1 or (size, x, y) in self._maps:
            return self.count_map(size, x, y).get(cost, 0)
        a, b = self.split(size)
        return sum(self.edge_mass(a, b, x, y, u, w, cost) for u, w in self.edges)

    def edge_mass(self, a: int, b: int, x: int, y: int, u: int, w: int,
                  total: int, below: int | None = None) -> int:
        """Walks at cost ``total`` that cross the split by edge (u, w): the sum
        of L(a, x, u)[sl] * R(b, w, y)[total - c_u - sl] over sl < ``below``."""
        left = self.count_map(a, x, u)
        if not left:
            return 0
        right = self.count_map(b, w, y)
        target = total - self.costs[u]
        return sum(nl * right.get(target - sl, 0) for sl, nl in left.items()
                   if below is None or sl < below)

    # -- convolution ------------------------------------------------------------

    def _conv_into(self, result: dict, left: dict, right: dict, shift: int):
        if len(left) * len(right) <= _KRONECKER_CUTOFF:
            for sl, nl in left.items():
                for sr, nr in right.items():
                    s = sl + sr + shift
                    result[s] = result.get(s, 0) + nl * nr
            return
        g = self.lattice
        # every product coefficient is below this bound, so it fits its chunk
        bound = max(left.values()) * max(right.values()) * (min(len(left), len(right)) + 1)
        digits = Decimal(bound).adjusted() + 1
        lo_l, packed_l = _kronecker(left, g, digits)
        lo_r, packed_r = _kronecker(right, g, digits)
        text = str(_EXACT.multiply(packed_l, packed_r))
        chunks = -(-len(text) // digits)
        text = text.zfill(chunks * digits)
        top = lo_l + lo_r + chunks - 1
        for j in range(chunks):
            coeff = int(Decimal(text[j * digits : (j + 1) * digits]))
            if coeff:
                s = (top - j) * g + shift
                result[s] = result.get(s, 0) + coeff


def _add_tables(tables) -> dict:
    """Coefficient-wise sum of count tables (a lone table is returned as is)."""
    if len(tables) == 1:
        return tables[0]
    total = {}
    for table in tables:
        for s, value in table.items():
            total[s] = total.get(s, 0) + value
    return total


def _kronecker(table: dict, g: int, digits: int) -> tuple:
    """(lo, the Decimal sum of table[s] * 10**(digits * (s // g - lo))), lo the
    lowest s // g.  Digits go through Decimal, never int <-> str, whose
    conversions stop at sys.get_int_max_str_digits()."""
    index = {s // g: value for s, value in table.items()}
    lo = min(index)
    zero = "0" * digits
    chunks = [str(Decimal(index[i])).zfill(digits) if i in index else zero
              for i in range(max(index), lo - 1, -1)]
    return lo, Decimal("".join(chunks))


# ---------------------------------------------------------------------------
# Ranking


def _rank_walk(engine: LabelCounts, verts, cum, lo: int, size: int) -> int:
    """0-based rank of the subwalk among walks sharing its node label."""
    if size == 1:
        return 0
    a, b = engine.split(size)
    x, y = verts[lo], verts[lo + size - 1]
    total = cum[lo + size - 1] - cum[lo]
    u, w = verts[lo + a - 1], verts[lo + a]
    s_left = cum[lo + a - 1] - cum[lo]
    s_right = total - s_left - engine.costs[u]
    edges = engine.edges
    before = edges[: edges.index((u, w))]
    rank = sum(engine.edge_mass(a, b, x, y, u2, w2, total) for u2, w2 in before)
    rank += engine.edge_mass(a, b, x, y, u, w, total, below=s_left)
    n_right = engine.count(b, w, y, s_right)
    rank_left = _rank_walk(engine, verts, cum, lo, a)
    rank_right = _rank_walk(engine, verts, cum, lo + a, b)
    return rank + rank_left * n_right + rank_right


def _resolve_node(engine: LabelCounts, size, x, y, total, rank):
    """Invert the canonical (boundary pair, cost split) enumeration."""
    a, b = engine.split(size)
    for u2, w2 in engine.edges:
        left = engine.count_map(a, x, u2)
        if not left:
            continue
        right = engine.count_map(b, w2, y)
        if not right:
            continue
        c2 = engine.costs[u2]
        for sl in engine.sorted_keys(a, x, u2):
            nr = right.get(total - c2 - sl)
            if not nr:
                continue
            mass = left[sl] * nr
            if rank < mass:
                rank_left, rank_right = divmod(rank, nr)
                return u2, w2, sl, total - c2 - sl, rank_left, rank_right
            rank -= mass
    raise RangeError("rank beyond label count")


# ---------------------------------------------------------------------------
# Store


class PointwiseStore(WalkStore):
    """Entropy-ranked walk store; query time O(lg n) tree levels."""

    MAGIC = b"RWP1"
    MODE = "pointwise"

    def __init__(self, graph, n, precision, branching, first, last, cost, rank0,
                 engine=None):
        self.graph = graph
        self.n = n
        self.precision = precision
        self.branching = branching
        self.first = first
        self.last = last
        self.cost = cost
        self.rank0 = rank0
        self.engine = engine or LabelCounts(graph, precision)
        self._resolved = {}

    @property
    def root_count(self) -> int:
        return self.engine.count(self.n + 1, self.first, self.last, self.cost)

    @property
    def payload_bits(self) -> int:
        total = self.root_count
        return ceil_log2(total) if total > 1 else 0

    @property
    def header_bits(self) -> int:
        out = bytearray()
        write_varint(out, self.n)
        write_varint(out, self.precision)
        write_varbig(out, self.cost)
        return 8 * (len(out) + 3)  # + branching and two endpoint bytes

    def vertex_at(self, q: int, probes: set | None = None) -> int:
        if not 0 <= q <= self.n:
            raise RangeError(f"index {q} outside [0,{self.n}]")
        if probes is not None:
            # the root divmod reads every word of the stored rank
            probes.update(range(max(1, -(-self.rank0.bit_length() // 64))))
        resolved = self._resolved
        lo, size = 0, self.n + 1
        x, y, total, rank = self.first, self.last, self.cost, self.rank0
        while size > 1:
            node = resolved.get((lo, size))
            if node is None:
                node = _resolve_node(self.engine, size, x, y, total, rank)
                resolved[(lo, size)] = node
            u, w, s_left, s_right, rank_left, rank_right = node
            a = (size + 1) // 2
            if q < a:
                size, y, total, rank = a, u, s_left, rank_left
            else:
                lo, q, size, x, total, rank = lo + a, q - a, size - a, w, s_right, rank_right
        return x

    def body_bytes(self, version: int = 2) -> bytes:
        """The same bytes in every store format version: no arrays."""
        if max(self.first, self.last) > 255:
            raise FormatError(f"endpoints ({self.first}, {self.last}) exceed the u8 limit 255")
        out = bytearray()
        write_varint(out, self.n)
        write_varint(out, self.precision)
        out.append(self.branching)
        out.append(self.first)
        out.append(self.last)
        write_varbig(out, self.cost)
        write_varbig(out, self.rank0)
        return bytes(out)

    @classmethod
    def from_body(cls, cur: Cursor, graph: Graph) -> "PointwiseStore":
        n = cur.varint()
        precision = cur.varint()
        branching = cur.u8()
        first = cur.u8()
        last = cur.u8()
        if (branching != 2 or max(first, last) >= graph.k
                or not 1 <= precision <= max(1, n)):
            raise FormatError(
                f"bad pointwise header: branching {branching}, endpoints ({first}, "
                f"{last}) on {graph.k} vertices, precision {precision} for n = {n}"
            )
        cost = cur.varbig()
        rank0 = cur.varbig()
        return cls(graph, n, precision, branching, first, last, cost, rank0)


def build_pointwise(g: Graph, w: Walk, precision: int | None = None,
                    branching: int = 2, engine: LabelCounts | None = None) -> PointwiseStore:
    """Rank the walk among all walks sharing its root label.

    Passing a shared ``engine`` reuses count tables across builds with the
    same graph and precision.
    """
    if w.graph != g:
        raise InvalidWalkError("walk was built on a different graph")
    if branching != 2:
        raise ParameterError(
            "only branching 2 is supported; wider nodes blow the tuple "
            "enumeration past the configured cap"
        )
    n = w.length
    precision = max(1, n if precision is None else precision)
    if precision > max(1, n):
        # the loader refuses it: _step_cost grows linearly with precision
        raise ParameterError(f"precision {precision} exceeds max(1, n) = {max(1, n)}")
    if engine is None:
        engine = LabelCounts(g, precision)
    elif engine.graph != g or engine.precision != precision:
        raise ParameterError("shared engine disagrees with graph or precision")
    cum = [0]
    for v in w.verts[:-1]:
        cum.append(cum[-1] + engine.costs[v])
    rank0 = _rank_walk(engine, w.verts, cum, 0, n + 1)
    return PointwiseStore(
        g, n, precision, branching, w.verts[0], w.verts[-1],
        cum[n], rank0, engine,
    )

