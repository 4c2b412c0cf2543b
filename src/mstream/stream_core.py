"""Coinductive synchronous stream processes.

A stream process maps an input wire sequence to an output wire sequence one
tick at a time, threading a memory from each tick into the next: its tick-t
kernel maps (memory read ⊗ input) to (memory written ⊗ output). A leaf holds
a short prefix of tick kernels, then one stationary kernel. Composition builds
no kernel: a composite is a node of its composition tree, and its tick-t
kernel, built on first use, lowers the tree at tick t (:func:`_lower`).
The engine steps a process by tick index, through ``kernel(t)``,
``x.at(t)`` and ``mem.at(t + 1)``, so from tick ``n`` on every tick reuses
the stationary kernel and its cache; ``Stream.unroll`` is the memoized
coinductive view of the same kernels. Execution is causal: one generator
(:func:`_trace`) checks every input row against its tick's shape before
tick 0, then yields each tick's output row as soon as it is computed,
holding only the memory row between ticks and looking up the kernel and
the memory width only until tick ``n``. It alone decides a tick's row: a
row function's, a point ``Dist``'s, or else a draw. :func:`iter_det` and
:func:`iter_sample` hand its rows out one at a time; :func:`run_det` and
:func:`sample_trace` list them.

A tick kernel is not evaluated as the tree it was composed as. On its first
``dist`` it lowers itself, once, to one flat program of leaf ops over a
slot file (``kernel._flatten``): copies, discards, swaps and the buffer
tails resolve to slot maps and emit no op, deterministic generators become
pure ops, and every other leaf becomes one op that branches over the rows
of its own ``dist``. The pure ops that read no draw, directly or through
other ops, move ahead of the first draw, so they run once per input row
rather than once per branch. A liveness pass drops the ops whose outputs
nothing reads. Each input row is then evaluated forward over a table from
the values of the slots still read to integer weights over one
denominator: each stochastic op expands every entry by its rows, and
entries that agree on the slots read later merge, so a tick summing n
draws keeps n + 1 entries, not 2^n paths. Each row of such a tick builds
one :class:`Dist`. A tick whose program keeps no stochastic op is one row
function instead (``Kernel.row_fn``), from the memory ++ input row to the
new memory ++ output row: execution and observation call it directly, and
a deterministic tick builds no ``Dist`` and caches nothing. A tick that
draws caches one ``Dist`` per row in its evaluated kernel, the only cache:
the leaves it calls, such as a ``unif`` source, keep none. The cache is
cleared when it reaches ``kernel.CACHE_ROWS`` rows, so long runs keep
bounded memory.

Equality of processes is decided observationally: two processes are compared
by their exact joint input/output distributions up to a finite horizon, with
the trailing memory discarded. :func:`_compare` steps both sides one tick at
a time, compares their truncations once per distinct pair of tables, as
integer weights over each side's denominator, and returns both
observations as they stand at the tick that decided it; ``check`` prints
their truncations.

Exact observation, of per-tick marginals and of joint tables alike, carries
integer weights over one shared denominator, which each tick scales by the
least common multiple of the denominators of the kernel rows it reads
(:func:`_tick_rows`); a ``Dist`` holds its masses in the same form, so no
mass is converted on the way. A joint table groups its output histories
under the memory row they share: a tick reads only that row and the input,
and extends every history beside it by the code of the tick's output row.
A history is one integer in mixed radix with one digit per tick, that
tick's code: tick t adds its code times ``place_t``, the product of the
sizes of the code tables of ticks 0..t-1, so extending a history is one
addition. The two sides of a comparison share the code tables, so their
histories compare as they are. The last tick observed builds its tables
without memory, since nothing reads it. By causality, the table an input
prefix reaches follows from its table at the tick before and the tick's
input row, so no prefix is kept: a tick steps each distinct table once per
input row and counts the prefixes that reach it. Results leave this module
as :class:`Dist` tables over flat output rows, decoded and reduced to their
canonical denominators. A tick whose entries would pass the ``cap``
argument raises :class:`StateCapExceeded`; without one the cap is
``DEFAULT_STATE_CAP``. Only the ``mstream`` command reads
``MSTREAM_STATE_CAP``.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, product, repeat
from math import lcm, prod
from operator import mul
from typing import Iterator, Optional, Sequence

from .errors import (
    NondeterministicStream,
    NotEnumerable,
    ShapeMismatch,
    StateCapExceeded,
)
from .kernel import (
    Dist,
    Kernel,
    Shape,
    copy,
    discard,
    enumerate_rows,
    identity_kernel,
    rewire,
    row_in_shape,
    sample_bits,
    shape_enumerable,
    swap,
    unit_shape,
)
from .rng import SplitMix64
from .values import Row

DEFAULT_STATE_CAP = 10 ** 6


# ---------------------------------------------------------------------------
# Shape sequences
# ---------------------------------------------------------------------------

class ShapeSeq:
    """An eventually-constant sequence of wire shapes.

    Stored as an explicit finite prefix plus the repeated tail shape; the
    prefix is normalized (no trailing entries equal to the tail), so equal
    sequences compare equal structurally. Each sequence also carries its
    widths: ``width(t)`` is ``len(at(t))``, read from ``widths`` (one per
    tick of a prefix) and ``tail_width`` without touching a shape.

    ``tensor`` joins two sequences' shapes at once: inputs and outputs are
    compared as soon as they are composed. A composite stream's memory, the
    tensor of its parts' memories, is built by ``_beside`` instead, as a
    :class:`_Tensor` that keeps its factors and its widths and joins their
    shapes only when its own are first read. So building a composition
    tree costs its ticks, not the wires of its memories, and only the
    memories that are read are ever joined, each once.
    """

    __slots__ = ("prefix", "tail", "widths", "tail_width", "_factors")

    def __init__(self, prefix=(), tail: Shape = unit_shape):
        self._set(tuple(map(tuple, prefix)), tuple(tail))

    @classmethod
    def _of(cls, prefix: tuple, tail: Shape) -> "ShapeSeq":
        """The sequence of a tuple of shape tuples and a tail tuple."""
        return cls.__new__(cls)._set(prefix, tail)

    def _set(self, prefix, tail) -> "ShapeSeq":
        while prefix and prefix[-1] == tail:
            prefix = prefix[:-1]
        self.prefix, self.tail = prefix, tail
        self.widths, self.tail_width = tuple(map(len, prefix)), len(tail)
        return self

    @staticmethod
    def constant(shape) -> "ShapeSeq":
        return ShapeSeq((), shape)

    def at(self, t: int) -> Shape:
        p = self.prefix
        return p[t] if t < len(p) else self.tail

    def width(self, t: int) -> int:
        """``len(self.at(t))``."""
        w = self.widths
        return w[t] if t < len(w) else self.tail_width

    def drop(self, n: int) -> "ShapeSeq":
        return ShapeSeq._of(self.prefix[n:], self.tail)

    def cons(self, shape) -> "ShapeSeq":
        """Prepend one tick."""
        return ShapeSeq._of((tuple(shape),) + self.prefix, self.tail)

    def glue0(self, mem) -> "ShapeSeq":
        """Prepend a memory shape onto tick 0 only."""
        return self.drop(1).cons(tuple(mem) + self.at(0))

    def tensor(self, other: "ShapeSeq") -> "ShapeSeq":
        if not (other.tail_width or any(other.widths)):
            return self
        if not (self.tail_width or any(self.widths)):
            return other
        a, ta, b, tb = self.prefix, self.tail, other.prefix, other.tail
        if len(a) < len(b):
            a += (ta,) * (len(b) - len(a))
        return ShapeSeq._of(tuple([x + (b[t] if t < len(b) else tb)
                                   for t, x in enumerate(a)]), ta + tb)

    def _beside(self, other: "ShapeSeq") -> "ShapeSeq":
        """The tensor with ``other``, its shapes joined when first read."""
        if not (other.tail_width or any(other.widths)):
            return self
        if not (self.tail_width or any(self.widths)):
            return other
        s = _Tensor.__new__(_Tensor)
        s._factors = self, other
        n = max(len(self.widths), len(other.widths))
        s.widths = tuple([self.width(t) + other.width(t) for t in range(n)])
        s.tail_width = self.tail_width + other.tail_width
        return s

    def __eq__(self, other):
        return self is other or (
            isinstance(other, ShapeSeq) and self.tail_width == other.tail_width
            and self.prefix == other.prefix and self.tail == other.tail)

    def __hash__(self):
        return hash((self.prefix, self.tail))

    def __repr__(self):
        parts = [repr(list(s)) for s in self.prefix]
        parts.append(f"{list(self.tail)!r}*")
        return "ShapeSeq(" + ", ".join(parts) + ")"


class _Tensor(ShapeSeq):
    """A tensor of ``_factors`` whose shapes are not joined yet.

    Reading its ``prefix`` or ``tail`` joins them, on an explicit stack,
    and turns it into a plain :class:`ShapeSeq`; its widths are known from
    the start.
    """

    __slots__ = ()

    def _join(self) -> None:
        parts, todo = [], [self]
        while todo:
            s = todo.pop()
            if type(s) is _Tensor:
                todo += reversed(s._factors)
            else:
                parts.append(s)
        n = max(len(s.prefix) for s in parts)
        self.__class__ = ShapeSeq
        self._factors = None
        self._set(tuple([tuple(chain.from_iterable([s.at(t) for s in parts]))
                         for t in range(n)]),
                  tuple(chain.from_iterable([s.tail for s in parts])))

    @property
    def prefix(self) -> tuple:
        self._join()
        return self.prefix

    @property
    def tail(self) -> Shape:
        self._join()
        return self.tail


def _strip_front(shape: Shape, front, what: str) -> Shape:
    front = tuple(front)
    if tuple(shape[:len(front)]) != front:
        raise ShapeMismatch(
            f"{what}: expected leading block {front!r} in {tuple(shape)!r}")
    return tuple(shape[len(front):])


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

_NO_MEM = ShapeSeq.constant(unit_shape)


class Stream:
    """A synchronous stream process: a leaf, or a composition tree node.

    ``x`` is the input sequence without memory, ``out_seq`` the output
    sequence and ``mem`` the memory: ``mem.at(t)`` is read at tick t, and
    ``mem.at(t + 1)`` is written by it. ``kernel(t)`` is ``ks[t]`` before tick
    ``n = len(ks)`` and ``tail`` from then on; it maps ``mem.at(t) ⊗ x.at(t)``
    to ``mem.at(t + 1) ⊗ out_seq.at(t)``. ``in_seq`` is ``x`` with
    ``mem.at(0)`` glued in front of tick 0.

    The constructor makes a leaf, padding ``ks`` with ``tail`` up to the
    longest shape prefix and checking each tick kernel's shapes once. A leaf
    reads no memory at tick 0: ``mem.at(0)`` must be empty. A
    composite's ``n`` is the tick from which every part is stationary, and
    it builds its tick kernels on first use (:func:`_lower`).
    """

    __slots__ = ("x", "out_seq", "mem", "in_seq", "n", "_ks", "_op",
                 "_parts", "_cell")

    def __init__(self, x: ShapeSeq, out_seq: ShapeSeq, mem: ShapeSeq,
                 ks: Sequence[Kernel], tail: Kernel):
        ks = tuple(ks)
        self._fill(x, out_seq, mem, max(len(ks), len(x.prefix),
                                        len(out_seq.prefix), len(mem.prefix)))
        ks = self._ks = ks + (tail,) * (self.n + 1 - len(ks))
        m = mem.at(0)
        if m:
            raise ShapeMismatch(f"tick 0 reads memory {m!r}; a stream starts "
                                "with none")
        for t, k in enumerate(ks):
            m2 = mem.at(t + 1)
            want_in, want_out = m + x.at(t), m2 + out_seq.at(t)
            if k.in_shape != want_in or k.out_shape != want_out:
                raise ShapeMismatch(
                    f"tick {t}: kernel maps {k.in_shape!r} -> "
                    f"{k.out_shape!r}, expected {want_in!r} -> {want_out!r}")
            m = m2

    def _fill(self, x, out_seq, mem, n, op=None, parts=()):
        # n covers every shape prefix; it is given, so that no shape is read
        self.x, self.out_seq, self.mem, self.n = x, out_seq, mem, n
        self._ks, self._op, self._parts, self._cell = None, op, parts, None
        self.in_seq = x.glue0(mem.at(0)) if mem.width(0) else x

    def _kernels(self) -> tuple:
        """Tick kernels ``0..n``; a composite builds them on first use."""
        if self._ks is None:
            x, y, m = self.x, self.out_seq, self.mem
            # the kernels lower a twin of this node, so that this node is
            # not in a reference cycle and is freed as soon as it is unused
            twin = _node(self._op, self._parts, x, y, m, self.n)
            self._ks = tuple(
                Kernel(m.at(t) + x.at(t), m.at(t + 1) + y.at(t), None,
                       partial(_lower, twin, t))
                for t in range(self.n + 1))
        return self._ks

    ks = property(lambda self: self._kernels()[:-1])
    tail = property(lambda self: self._kernels()[-1])

    def kernel(self, t: int) -> Kernel:
        return self._kernels()[min(t, self.n)]

    def unroll(self):
        """``(mem.at(1), kernel(0), later)``: the memory written at tick 0, the
        tick-0 kernel, and the stream from tick 1 on, which is this stream
        itself once the prefix is spent."""
        if self._cell is None:
            later = self
            if self.n:
                later = _node(None, (), self.x.drop(1), self.out_seq.drop(1),
                              self.mem.drop(1), self.n - 1)
                later._ks = self._kernels()[1:]
            self._cell = (self.mem.at(1), self.kernel(0), later)
        return self._cell

    def __repr__(self):
        return f"Stream({self.in_seq!r} -> {self.out_seq!r})"


def _leaf(x: ShapeSeq, out_seq: ShapeSeq, ks: tuple, tail: Kernel) -> Stream:
    """The memoryless leaf of kernels whose shapes are ``x`` and
    ``out_seq`` by construction, so they are not checked again."""
    s = _node(None, (), x, out_seq, _NO_MEM,
              max(len(ks), len(x.prefix), len(out_seq.prefix)))
    s._ks = ks + (tail,) * (s.n + 1 - len(ks))
    return s


def lift_seq(ks: Sequence[Kernel], k_tail: Kernel) -> Stream:
    """Memoryless stream applying the t-th kernel at tick t (then the tail)."""
    ks = tuple(ks)
    return _leaf(ShapeSeq._of(tuple([k.in_shape for k in ks]),
                              k_tail.in_shape),
                 ShapeSeq._of(tuple([k.out_shape for k in ks]),
                              k_tail.out_shape), ks, k_tail)


def identity(s: ShapeSeq) -> Stream:
    return _leaf(s, s, tuple(map(identity_kernel, s.prefix)),
                 identity_kernel(s.tail))


def lift_const(k: Kernel) -> Stream:
    """Memoryless stream applying the same kernel at every tick."""
    return lift_seq((), k)


def discard_stream(s: ShapeSeq) -> Stream:
    return _leaf(s, _NO_MEM, tuple(map(discard, s.prefix)), discard(s.tail))


def copy_stream(s: ShapeSeq) -> Stream:
    return _leaf(s, s.tensor(s), tuple(map(copy, s.prefix)), copy(s.tail))


def swap_stream(sa: ShapeSeq, sb: ShapeSeq) -> Stream:
    n = max(len(sa.prefix), len(sb.prefix))
    return _leaf(sa.tensor(sb), sb.tensor(sa),
                 tuple([swap(sa.at(t), sb.at(t)) for t in range(n)]),
                 swap(sa.tail, sb.tail))


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def _node(op, parts, x: ShapeSeq, out_seq: ShapeSeq, mem: ShapeSeq,
          n: int) -> Stream:
    s = Stream.__new__(Stream)
    s._fill(x, out_seq, mem, n, op, parts)
    return s


def _lower(s: Stream, t: int, prog, ins: tuple) -> tuple:
    """Append the tick-``t`` kernel of ``s`` to ``prog``, reading slots
    ``ins``; returns its output slots. No call recurses.

    A node's memory is its parts' memories side by side, so each node reads
    its memory from one range of ``ins`` and writes its new memory to one
    range of the result row ``res``, and no level copies the slots of the
    levels below it. A node is visited with its tick, the widths ``lm``,
    ``lx``, ``lm2`` and ``ly`` of its memory, input, new memory and output
    there, which its parent works out, and where they are: it reads its
    memory from ``ins[mi:]`` and its input from ``xs[xo:]``, and writes its
    new memory to ``res[mo:]`` and its output to ``yd[yo:]``.
    The first part of a ``seq`` writes its output to a fresh list that the
    second reads; a feedback body reads the fed-back block, a range of
    ``ins``, before the loop's input, and its output goes through a fresh
    list that is split between memory and output once it is lowered. A
    node whose input, memory and output are all empty at its tick emits
    nothing: its ops could only feed one another, and the liveness pass of
    ``kernel._flatten`` would drop them.
    """
    lm, lx, lm2, ly = (s.mem.width(t), s.x.width(t), s.mem.width(t + 1),
                       s.out_seq.width(t))
    res = [None] * (lm2 + ly)
    mi, xs, xo, mo, yd, yo = 0, ins, lm, 0, res, lm2
    todo = []  # the nodes still to lower, and the splits of feedback bodies
    while True:
        op = s._op
        if not (lm or lx or lm2 or ly):
            pass  # no wires at this tick: nothing to emit
        elif op is seq_comp or op is par_comp:
            # (mf ⊗ mg ⊗ x) -> (mf' ⊗ mg' ⊗ z), through f's output y, or
            # (mf ⊗ mg ⊗ xf ⊗ xg) -> (mf' ⊗ mg' ⊗ yf ⊗ yg)
            (s, g), mf, mf2 = s._parts, lm, lm2
            lm, lm2 = s.mem.width(t), s.mem.width(t + 1)
            lyf = s.out_seq.width(t)
            if op is seq_comp:
                tmp = [None] * lyf
                todo.append((g, t, mf - lm, lyf, mf2 - lm2, ly, mi + lm, tmp,
                             0, mo + lm2, yd, yo))
                ly, yd, yo = lyf, tmp, 0
            else:
                lxf = s.x.width(t)
                todo.append((g, t, mf - lm, lx - lxf, mf2 - lm2, ly - lyf,
                             mi + lm, xs, xo + lxf, mo + lm2, yd, yo + lyf))
                lx, ly = lxf, lyf
            continue
        elif op is fbk:
            s, lb, lb2 = s._parts[0], lm, lm2
            lm, lm2 = s.mem.width(t), s.mem.width(t + 1)
            k, k2 = lb - lm, lb2 - lm2  # the blocks fed in and fed back
            if k:  # the body reads the fed-back block, then the input
                xs, xo = (*ins[mi + lm:mi + lb], *xs[xo:xo + lx]), 0
            if k2:  # the body writes the block fed back, then the output
                tmp = [None] * (k2 + ly)
                todo.append((None, t, 0, 0, k2, ly, 0, tmp, 0, mo + lm2,
                             yd, yo))
                yd, yo = tmp, 0
            lx, ly = lx + k, ly + k2
            continue
        elif op is delay:
            s, t = s._parts[0], t - 1
            continue
        else:
            ks = s._ks
            r = ks[min(t, s.n)].lower(prog, (*ins[mi:mi + lm],
                                             *xs[xo:xo + lx]))
            res[mo:mo + lm2] = r[:lm2]
            yd[yo:yo + ly] = r[lm2:]
        while todo:
            s, t, lm, lx, lm2, ly, mi, xs, xo, mo, yd, yo = todo.pop()
            if s is not None:
                break
            # a feedback body's output xs: the block fed back, then the rest
            res[mo:mo + lm2] = xs[:lm2]
            yd[yo:yo + ly] = xs[lm2:]
        else:
            return tuple(res)


def seq_comp(f: Stream, g: Stream) -> Stream:
    """Run ``f`` then ``g``, tick-synchronously; memories sit side by side."""
    if g.x != f.out_seq:
        raise ShapeMismatch(
            f"sequential composition: {f.out_seq!r} feeds {g.x!r}")
    return _node(seq_comp, (f, g), f.x, g.out_seq, f.mem._beside(g.mem),
                 max(f.n, g.n))


def par_comp(f: Stream, g: Stream) -> Stream:
    """Run ``f`` and ``g`` side by side on concatenated wires."""
    return _node(par_comp, (f, g), f.x.tensor(g.x),
                 f.out_seq.tensor(g.out_seq), f.mem._beside(g.mem),
                 max(f.n, g.n))


def delay(f: Stream) -> Stream:
    """Shift ``f`` one tick into the future; tick 0 carries no wires."""
    return _node(delay, (f,), f.x.cons(unit_shape),
                 f.out_seq.cons(unit_shape), f.mem.cons(unit_shape), f.n + 1)


def fbk(f: Stream, s: ShapeSeq) -> Stream:
    """Close a feedback loop over the bundle sequence ``s``.

    ``f`` must output the block ``s.at(t)`` in front at tick t and expect the
    block ``s.at(t-1)`` in front at tick t+1 (nothing at tick 0). The body
    lowers unchanged: the loop moves that block into memory.
    """
    fed = s.cons(unit_shape)
    n = max(len(f.x.prefix), len(f.out_seq.prefix), len(fed.prefix))
    x = ShapeSeq._of(
        tuple([_strip_front(f.x.at(t), fed.at(t), f"feedback input, tick {t}")
               for t in range(n)]),
        _strip_front(f.x.tail, fed.tail, "feedback input tail"))
    out_seq = ShapeSeq._of(
        tuple([_strip_front(f.out_seq.at(t), s.at(t),
                            f"feedback output, tick {t}") for t in range(n)]),
        _strip_front(f.out_seq.tail, s.tail, "feedback output tail"))
    return _node(fbk, (f,), x, out_seq, f.mem._beside(fed),
                 max(f.n, len(fed.prefix)))


# ---------------------------------------------------------------------------
# Buffers
# ---------------------------------------------------------------------------

def fby_box(shape) -> Stream:
    """Head of the first port, then the second port (one tick behind).

    Memoryless: at tick 0 only port 0 is live and passes through; from tick 1
    both ports are live and port 0 is dropped in favor of port 1, which
    carries a one-tick-delayed wire.
    """
    shape = tuple(shape)
    k0 = identity_kernel(shape)
    kt = rewire(shape + shape, tuple(range(len(shape), 2 * len(shape))))
    return lift_seq((k0,), kt)


def wait_stream(shape) -> Stream:
    """One-tick buffer: emits nothing at tick 0, then the previous input.

    It is feedback over the symmetry: the body swaps the input in front of
    the fed-back block, so the loop stores each input and emits it one tick
    later. Compiled streams hold memory only in ``fbk`` nodes.
    """
    s = ShapeSeq.constant(shape)
    return fbk(swap_stream(s.cons(unit_shape), s), s)


# ---------------------------------------------------------------------------
# Observation
# ---------------------------------------------------------------------------

def _tick_rows(f: Stream, t: int, rows) -> tuple:
    """``(L, table)`` for tick ``t`` of ``f``: ``table`` maps each memory ++
    input row of ``rows`` to ``[(new memory, output, mass * L)]``, where
    ``L`` is the least common multiple of the rows' ``Dist`` denominators.
    A kernel with a row function gives ``L = 1`` and one entry of weight 1
    per row."""
    k, lm = f.kernel(t), f.mem.width(t + 1)
    step = k.row_fn()
    if step is not None:
        return 1, {r: [(v[:lm], v[lm:], 1)] for r in rows for v in (step(r),)}
    dists = [(r, k.dist(r)) for r in rows]
    L = lcm(*[d.den for _, d in dists])
    return L, {r: [(v[:lm], v[lm:], w * c) for v, w in d.weights.items()]
               for r, d in dists for c in (L // d.den,)}


class _Observation:
    """Incremental exact observation of ``stream`` against all input
    prefixes, ``t`` ticks so far.

    A table holds integer weights grouped by the current memory row:
    {memory row: {output history: weight}}, each history coded as the module
    docstring says: ``codes[t]`` gives each distinct output row of tick ``t``
    its code, in the order the row is first met; the empty history is 0. Two
    observations compared with each other share ``codes``, so equal histories
    have equal keys; tick ``t`` of either side is stepped after both sides
    have stepped tick ``t - 1``, so the tables that make up ``place_t`` no
    longer grow. An entry of weight ``w`` has mass ``w / scale``; each tick
    multiplies ``scale`` by the ``L`` of its :func:`_tick_rows`, so the update
    is integer arithmetic throughout.

    Nothing reads the memory written at tick ``horizon``, so that tick
    builds each table with its entries projected onto the output: one
    group, under the empty memory row. ``histories`` sums each table over
    its memory rows, in coded form; ``truncation`` decodes those sums into
    ``Dist`` tables over flat output rows.

    ``tables`` holds the tick's distinct tables, ``counts`` how many input
    prefixes reach each, and ``steps`` per tick its input rows and each
    table's next table on each row. ``advance`` keeps a table it builds
    unless an equal one came before it in the tick with the same key: the
    sum over its memory rows of the hash of the row, the number of its
    histories, their weight sum and the sum of key times weight. The state
    cap counts a table's (memory row, history) entries once per prefix, the
    horizon tick's included.

    A tick that would pass the cap is refused before any of its tables is
    built: unless a bound on the tick's entries fits under the cap,
    ``advance`` counts them first (:meth:`_count_entries`) and raises
    ``StateCapExceeded`` at the prefix where building would have passed it.
    """

    def __init__(self, stream: Stream, cap: Optional[int] = None):
        self.cap = DEFAULT_STATE_CAP if cap is None else cap
        self.stream = stream
        self.t = 0
        self.horizon = None  # the last tick to be observed, if known
        self.codes = []  # tick -> {output row: its code}
        self.tables, self.counts, self.steps = [{(): {0: 1}}], [1], []
        self.scale = 1

    def advance(self) -> None:
        f, t = self.stream, self.t
        x_shape = f.x.at(t)
        if not shape_enumerable(x_shape):
            raise NotEnumerable(
                f"cannot observe over non-enumerable input {x_shape!r}")
        x_rows = list(enumerate_rows(x_shape))
        mems = {m for w in self.tables for m in w}
        L, rows = _tick_rows(f, t, [m + x for m in mems for x in x_rows])
        if t == len(self.codes):
            self.codes.append({})
        code, place = self.codes[t], prod(map(len, self.codes[:t]))
        rows = {r: [(m2, code.setdefault(y, len(code)) * place, n)
                    for m2, y, n in es] for r, es in rows.items()}
        # no history takes more entries on x than the widest row of x
        widest = sum(max(len(rows[m + x]) for m in mems) for x in x_rows)
        if sum(c * sum(map(len, w.values()))
               for w, c in zip(self.tables, self.counts)) * widest > self.cap:
            self._count_entries(x_rows, rows)
        if t == self.horizon:  # nothing reads the memory this tick writes
            for r, es in rows.items():
                ys = {}
                for _, y, n in es:
                    ys[y] = ys.get(y, 0) + n
                rows[r] = [((), y, n) for y, n in ys.items()]
        tables, counts, links, prev = [], [], [], []
        # last: sig -> the last table built with that key; prev[i]: the table
        # built before table i with the same sig, or -1
        last = {}
        for w, c in zip(self.tables, self.counts):
            links.append([])
            for x in x_rows:
                acc = {}
                for m, hs in w.items():
                    for m2, y, n in rows[m + x]:
                        h2 = acc.setdefault(m2, {})
                        for ys, p in hs.items():
                            key = ys + y
                            h2[key] = h2.get(key, 0) + p * n
                sig = sum(hash((m2, len(h2), sum(h2.values()),
                                sum(map(mul, h2, h2.values()))))
                          for m2, h2 in acc.items())
                i = head = last.get(sig, -1)
                while i >= 0 and tables[i] != acc:
                    i = prev[i]
                if i < 0:
                    i = last[sig] = len(tables)
                    prev.append(head)
                    tables.append(acc)
                    counts.append(0)
                counts[i] += c
                links[-1].append(i)
        self.tables, self.counts = tables, counts
        self.steps.append((x_rows, links))
        self.scale *= L
        self.t = t + 1

    def reached(self) -> list:
        """The table index of each input prefix, in ``product`` order."""
        idx = [0]
        for _, links in self.steps:
            idx = [j for i in idx for j in links[i]]
        return idx

    def prefixes(self) -> Iterator[tuple]:
        """``(flat input prefix, table index)``, in :meth:`reached` order."""
        rows = product(*(x_rows for x_rows, _ in self.steps))
        return zip(map(tuple, map(chain.from_iterable, rows)), self.reached())

    def _count_entries(self, x_rows, rows) -> None:
        """Counts this tick's entries in :meth:`reached` order, building
        no table, and raises ``StateCapExceeded`` where they pass the cap.

        A table built from ``w`` on input ``x`` holds, under each new
        memory, one history ``ys + y`` per history ``ys`` of a memory row
        ``m`` of ``w`` whose ``rows[m + x]`` reaches that new memory with
        output ``y``, its code times this tick's place. Distinct ``ys``
        give distinct ``ys + y``, since every ``ys`` is below the place. So
        each (new memory, output) reached adds the size of the union of the
        histories of the memory rows that reach it.
        """
        counts = {}  # table index -> [entries of its table on each x]
        total = 0
        for i in self.reached():
            ns, w = counts.get(i), self.tables[i]
            if ns is None:
                ns = counts[i] = []
                for x in x_rows:
                    reach = {}  # (new memory, output) -> memory rows
                    for m in w:
                        for m2, y, _ in rows[m + x]:
                            reach.setdefault((m2, y), []).append(m)
                    ns.append(sum(
                        len(w[ms[0]]) if len(ms) == 1
                        else len(set().union(*map(w.__getitem__, ms)))
                        for ms in reach.values()))
            for n in ns:
                total += n
                if total > self.cap:
                    raise StateCapExceeded(total, self.cap, self.t)

    def histories(self) -> list:
        """Each table of ``tables`` summed over its memory rows, as
        {coded history: weight}, its histories still ``advance``'s keys."""
        done = []
        for w in self.tables:
            first, *rest = w.values()
            acc = dict(first) if rest else first
            for hs in rest:
                for ys, p in hs.items():
                    acc[ys] = acc.get(ys, 0) + p
            done.append(acc)
        return done

    def truncation(self) -> dict:
        """Memory-discarded joint: input prefix row -> ``Dist`` over flat
        output rows, each decoded from its table's :meth:`histories`.
        A key is decoded digit by digit from tick 0 on: ``divmod`` by the
        size of the tick's code table gives the rest of the key and the
        tick's code. Nothing else decodes. Prefixes that share a table
        share its ``Dist``."""
        rows = [list(code) for code in self.codes]

        def decode(key):
            out = []
            for code in rows:
                key, c = divmod(key, len(code))
                out += code[c]
            return tuple(out)

        done = [Dist._trusted({decode(k): p for k, p in acc.items()},
                              self.scale) for acc in self.histories()]
        return {xs: done[i] for xs, i in self.prefixes()}


class NStageProcess:
    """The exact behavior of a stream over ticks 0..n, memory discarded.

    ``kernel`` maps the concatenation of the per-tick inputs to the joint
    distribution over the concatenation of the per-tick outputs.
    """

    __slots__ = ("n", "in_shapes", "out_shapes", "kernel")

    def __init__(self, n: int, in_shapes, out_shapes, kernel: Kernel):
        self.n = n
        self.in_shapes = tuple(in_shapes)
        self.out_shapes = tuple(out_shapes)
        self.kernel = kernel

    def dist(self, row=()) -> Dist:
        return self.kernel.dist(tuple(row))

    def out_slices(self):
        """Index ranges of each tick's output block in the joint rows."""
        slices, i = [], 0
        for sh in self.out_shapes:
            slices.append(range(i, i + len(sh)))
            i += len(sh)
        return slices

    def __repr__(self):
        return f"NStageProcess(n={self.n}, {self.kernel!r})"


def observe(f: Stream, n: int, cap: Optional[int] = None) -> NStageProcess:
    """Exact joint behavior of ``f`` over ticks 0..n."""
    obs = _Observation(f, cap)
    obs.horizon = n
    for _ in range(n + 1):
        obs.advance()
    table = obs.truncation()
    in_shapes = [f.x.at(t) for t in range(n + 1)]
    out_shapes = [f.out_seq.at(t) for t in range(n + 1)]
    in_shape = sum(in_shapes, ())

    def joint(row):
        try:
            return table[row]
        except KeyError:
            raise ShapeMismatch(f"joint input {row!r} does not fit "
                                f"{in_shape!r}") from None

    return NStageProcess(n, in_shapes, out_shapes,
                         Kernel(in_shape, sum(out_shapes, ()), joint))


def _linked_pairs(pairs: set, a: _Observation, b: _Observation) -> set:
    """The pairs (table of ``a``, table of ``b``) that input prefixes reach
    at the tick both just stepped, from ``pairs`` along their links."""
    la, lb = a.steps[-1][1], b.steps[-1][1]
    return {p for i, j in pairs for p in zip(la[i], lb[j])}


def _compare(f: Stream, g: Stream, n: int, cap: Optional[int]) -> tuple:
    """``(k, a, b)``: the first tick k <= n whose truncations of ``f`` and
    ``g`` differ, or None, and the observations of both, stopped at tick k
    (n when none differs), whose ``truncation()`` ``check`` prints. The
    two share one code table, so their history keys are equal exactly
    where the histories are. Each tick compares each pair of tables of
    :func:`_linked_pairs` as they are, integer weights over the scales
    ``sa`` and ``sb``: the same keys, and ``wa * sb == wb * sa``. It
    builds no ``Dist``, decodes no key and walks no prefix."""
    if f.in_seq != g.in_seq or f.out_seq != g.out_seq:
        raise ShapeMismatch(
            f"interfaces differ: {f.in_seq!r} -> {f.out_seq!r} vs "
            f"{g.in_seq!r} -> {g.out_seq!r}")
    a, b = _Observation(f, cap), _Observation(g, cap)
    b.codes = a.codes
    a.horizon = b.horizon = n
    pairs = {(0, 0)}
    for k in range(n + 1):
        a.advance()
        b.advance()
        pairs = _linked_pairs(pairs, a, b)
        ha, hb, sa, sb = a.histories(), b.histories(), a.scale, b.scale
        for i, j in pairs:
            da, db = ha[i], hb[j]
            if (da != db if sa == sb else da.keys() != db.keys() or any(
                    w * sb != db[ys] * sa for ys, w in da.items())):
                return k, a, b
    return None, a, b


def first_difference(f: Stream, g: Stream, n: int,
                     cap: Optional[int] = None) -> Optional[int]:
    """The first tick k <= n whose truncations of ``f`` and ``g`` differ,
    or None when they agree at every horizon up to n."""
    return _compare(f, g, n, cap)[0]


def obs_equal(f: Stream, g: Stream, n: int, cap: Optional[int] = None) -> bool:
    """Exact equality of the two behaviors at every horizon k <= n."""
    return first_difference(f, g, n, cap) is None


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _checked(x: Row, t: int, x_shape: Shape) -> Row:
    if not row_in_shape(x, x_shape):
        raise ShapeMismatch(f"tick {t}: input {x!r} does not fit {x_shape!r}")
    return x


def _trace(f: Stream, inputs, n: int, choose) -> Iterator[Row]:
    """Yields the output rows of ticks 0..n, each as soon as it is computed.

    Before tick 0 it checks that there is an input row for each tick, and
    each row against that tick's input shape, so a missing row or one that
    does not fit raises before any row is yielded. With no inputs every row
    is ``()``, which fits every tick of a stream without inputs; the input
    shape is stationary from tick ``f.n`` on, so only ticks up to there are
    checked. The kernel and the memory width are stationary from then on
    as well, and are looked up only until then. A tick whose kernel has a
    row function (``Kernel.row_fn``) takes that function's row and builds
    no ``Dist``. Any other tick takes its ``Dist``'s point as the row, and
    calls ``choose(t, dist)`` only for a ``Dist`` that is not a point."""
    if inputs is None:
        if f.x.tail_width or any(f.x.widths):  # else every shape is empty
            for t in range(min(n, f.n) + 1):
                _checked((), t, f.x.at(t))
        xs = repeat((), n + 1)
    else:
        if len(inputs) <= n:
            raise ShapeMismatch(f"tick {len(inputs)}: no input row; ticks "
                                f"0..{n} need {n + 1}")
        xs = [_checked(tuple(inputs[t]), t, f.x.at(t)) for t in range(n + 1)]
    m_row = ()
    for t, x in enumerate(xs):
        if t <= f.n:
            k = f.kernel(t)
            step, dist = k.row_fn(), k.dist
            lm = f.mem.width(t + 1)
        if step is None:
            d = dist(m_row + x)
            row = d.the_value() if d.is_dirac else choose(t, d)
        else:
            row = step(m_row + x)
        m_row = row[:lm]
        yield row[lm:]


def _point(t: int, d: Dist) -> Row:
    raise NondeterministicStream(
        f"tick {t}: kernel produced a non-point distribution")


def iter_det(f: Stream, inputs=None,
             n: Optional[int] = None) -> Iterator[Row]:
    """The rows of :func:`run_det`, yielded one tick at a time."""
    if n is None:
        if inputs is None:
            raise ValueError(
                "a deterministic run needs inputs or an explicit tick count")
        n = len(inputs) - 1
    return _trace(f, inputs, n, _point)


def run_det(f: Stream, inputs=None, n: Optional[int] = None) -> list:
    """Evaluate a deterministic stream tickwise; returns the output rows.

    ``inputs`` is one value row per tick (omit for closed streams, passing
    ``n``). Any tick whose kernel yields a non-point distribution on the
    reached state raises NondeterministicStream.
    """
    return list(iter_det(f, inputs, n))


def iter_sample(f: Stream, inputs, n: int, seed: int) -> Iterator[Row]:
    """The rows of :func:`sample_trace`, yielded one tick at a time."""
    g = SplitMix64(seed)
    return _trace(f, inputs, n, lambda t, d: sample_bits(d, g.next_uint64()))


def sample_trace(f: Stream, inputs, n: int, seed: int) -> list:
    """Draw one trajectory; byte-reproducible for a given seed.

    A tick whose joint (memory ++ output) distribution is a point consumes
    no random bits, so on deterministic streams this equals run_det for
    every seed; any other tick takes ``sample_bits(d, k)`` for one 64-bit
    word ``k``, a bisection of the table ``d.cdf()`` that ``d`` keeps: the
    cumulative sums of ``d``'s integer weights, over ``d.den``.
    """
    return list(iter_sample(f, inputs, n, seed))


def observe_marginals(f: Stream, n: int, cap: Optional[int] = None) -> list:
    """Per-tick exact output marginals of a closed stream, ticks 0..n.

    Unlike observe(), the output history is integrated out as it goes: the
    state kept is integer weights over memory rows, and each tick's joint
    over (memory, output), whose entries the cap counts, is summed out to
    them and the tick's marginal — linear in n for bounded memory.
    """
    if f.in_seq != ShapeSeq.constant(unit_shape):
        raise ShapeMismatch("per-tick marginals need a closed stream")
    limit = DEFAULT_STATE_CAP if cap is None else cap
    w, scale = {(): 1}, 1  # memory row -> weight over scale
    result = []
    for t in range(n + 1):
        L, rows = _tick_rows(f, t, w)
        scale *= L
        joint = {}
        for m, p in w.items():
            for m2, y, q in rows[m]:
                joint[m2, y] = joint.get((m2, y), 0) + p * q
        if len(joint) > limit:
            raise StateCapExceeded(len(joint), limit, t)
        marg, w = {}, {}
        for (m2, y), p in joint.items():
            marg[y] = marg.get(y, 0) + p
            w[m2] = w.get(m2, 0) + p
        result.append(Dist._trusted(marg, scale))
    return result
