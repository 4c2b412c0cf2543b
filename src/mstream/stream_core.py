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
coinductive view of the same kernels.

A tick kernel is not evaluated as the tree it was composed as. On its first
``dist`` it lowers itself, once, to one flat program of leaf ops over a
slot file (``kernel._flatten``): copies, discards, swaps and the buffer
tails resolve to slot maps and emit no op, deterministic generators become
pure ops, and every other leaf becomes one op that branches over the rows
of its own ``dist``. The pure ops that read no draw, directly or through
other ops, move ahead of the first draw, so they run once per input row
rather than once per branch. A liveness pass drops the ops whose outputs
nothing reads. Each input row is then evaluated forward over a table from
the values of the slots still read to their masses: each stochastic op
expands every entry by its rows, and entries that agree on the slots read
later merge, so a tick summing n draws keeps n + 1 entries, not 2^n paths.
Each row builds one :class:`Dist`, so a deterministic tick builds one. Only
the evaluated kernel holds a cache, and that cache is cleared when it
reaches ``kernel.CACHE_ROWS`` rows, so long runs keep bounded memory.

Equality of processes is decided observationally: two processes are compared
by their exact joint input/output distributions up to a finite horizon, with
the trailing memory discarded.

Exact observation, of per-tick marginals and of joint tables alike, carries
integer weights over one shared denominator, which each tick scales by the
least common multiple of the mass denominators of the kernel rows it reads
(:func:`_tick_rows`). Input prefixes that reach equal joint tables share one
copy. Results leave this module as ``Fraction`` masses and :class:`Dist`
tables.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from typing import Optional, Sequence

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

DEFAULT_STATE_CAP = 10 ** 6


def state_cap() -> int:
    """The exact-observation cap: ``MSTREAM_STATE_CAP``, else the default."""
    text = os.environ.get("MSTREAM_STATE_CAP", str(DEFAULT_STATE_CAP))
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(
            f"MSTREAM_STATE_CAP must be a positive integer, got {text!r}")
    return cap


# ---------------------------------------------------------------------------
# Shape sequences
# ---------------------------------------------------------------------------

class ShapeSeq:
    """An eventually-constant sequence of wire shapes.

    Stored as an explicit finite prefix plus the repeated tail shape; the
    prefix is normalized (no trailing entries equal to the tail), so equal
    sequences compare equal structurally.
    """

    __slots__ = ("prefix", "tail")

    def __init__(self, prefix=(), tail: Shape = unit_shape):
        prefix = tuple(map(tuple, prefix))
        tail = tuple(tail)
        while prefix and prefix[-1] == tail:
            prefix = prefix[:-1]
        self.prefix = prefix
        self.tail = tail

    @staticmethod
    def constant(shape) -> "ShapeSeq":
        return ShapeSeq((), shape)

    def at(self, t: int) -> Shape:
        return self.prefix[t] if t < len(self.prefix) else self.tail

    def drop(self, n: int) -> "ShapeSeq":
        return ShapeSeq(self.prefix[n:], self.tail)

    def cons(self, shape) -> "ShapeSeq":
        """Prepend one tick."""
        return ShapeSeq((tuple(shape),) + self.prefix, self.tail)

    def glue0(self, mem) -> "ShapeSeq":
        """Prepend a memory shape onto tick 0 only."""
        return self.drop(1).cons(tuple(mem) + self.at(0))

    def tensor(self, other: "ShapeSeq") -> "ShapeSeq":
        if not (other.prefix or other.tail):
            return self
        if not (self.prefix or self.tail):
            return other
        n = max(len(self.prefix), len(other.prefix))
        return ShapeSeq([self.at(t) + other.at(t) for t in range(n)],
                        self.tail + other.tail)

    def __eq__(self, other):
        return (isinstance(other, ShapeSeq)
                and self.prefix == other.prefix and self.tail == other.tail)

    def __hash__(self):
        return hash((self.prefix, self.tail))

    def __repr__(self):
        parts = [repr(list(s)) for s in self.prefix]
        parts.append(f"{list(self.tail)!r}*")
        return "ShapeSeq(" + ", ".join(parts) + ")"


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
    longest shape prefix and checking each tick kernel's shapes once. A
    composite's ``n`` is the tick from which every part is stationary, and
    it builds its tick kernels on first use (:func:`_lower`).
    """

    __slots__ = ("x", "out_seq", "mem", "in_seq", "n", "_ks", "_op",
                 "_parts", "_cell")

    def __init__(self, x: ShapeSeq, out_seq: ShapeSeq, mem: ShapeSeq,
                 ks: Sequence[Kernel], tail: Kernel):
        ks = tuple(ks)
        self._fill(x, out_seq, mem, len(ks))
        ks = self._ks = ks + (tail,) * (self.n + 1 - len(ks))
        m = mem.at(0)
        for t, k in enumerate(ks):
            m2 = mem.at(t + 1)
            want_in, want_out = m + x.at(t), m2 + out_seq.at(t)
            if k.in_shape != want_in or k.out_shape != want_out:
                raise ShapeMismatch(
                    f"tick {t}: kernel maps {k.in_shape!r} -> "
                    f"{k.out_shape!r}, expected {want_in!r} -> {want_out!r}")
            m = m2

    def _fill(self, x, out_seq, mem, n, op=None, parts=()):
        # the prefix covers at least n ticks and every shape prefix
        self.x, self.out_seq, self.mem = x, out_seq, mem
        self.n = max(n, len(x.prefix), len(out_seq.prefix), len(mem.prefix))
        self._ks, self._op, self._parts, self._cell = None, op, parts, None
        m0 = mem.at(0)
        self.in_seq = x.glue0(m0) if m0 else x

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


def lift_seq(ks: Sequence[Kernel], k_tail: Kernel) -> Stream:
    """Memoryless stream applying the t-th kernel at tick t (then the tail)."""
    ks = tuple(ks)
    return Stream(ShapeSeq([k.in_shape for k in ks], k_tail.in_shape),
                  ShapeSeq([k.out_shape for k in ks], k_tail.out_shape),
                  _NO_MEM, ks, k_tail)


def identity(s: ShapeSeq) -> Stream:
    return lift_seq([identity_kernel(sh) for sh in s.prefix],
                    identity_kernel(s.tail))


def lift_const(k: Kernel) -> Stream:
    """Memoryless stream applying the same kernel at every tick."""
    return lift_seq((), k)


def discard_stream(s: ShapeSeq) -> Stream:
    return lift_seq([discard(sh) for sh in s.prefix], discard(s.tail))


def copy_stream(s: ShapeSeq) -> Stream:
    return lift_seq([copy(sh) for sh in s.prefix], copy(s.tail))


def swap_stream(sa: ShapeSeq, sb: ShapeSeq) -> Stream:
    n = max(len(sa.prefix), len(sb.prefix))
    return lift_seq([swap(sa.at(t), sb.at(t)) for t in range(n)],
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
    ``ins``; returns its output slots. No call recurses."""
    todo = []  # (op, g, tick, g's inputs besides y, la2, f's outputs)
    while True:
        op = s._op
        if op is fbk or op is delay and t:
            s, t = s._parts[0], t - (op is delay)
        elif op is seq_comp or op is par_comp:
            # (mf ⊗ mg ⊗ x) -> (mf' ⊗ mg' ⊗ z), through f's output y, or
            # (mf ⊗ mg ⊗ xf ⊗ xg) -> (mf' ⊗ mg' ⊗ yf ⊗ yg)
            f, g = s._parts
            la, lb = len(f.mem.at(t)), len(g.mem.at(t))
            end = None if op is seq_comp else la + lb + len(f.x.at(t))
            gin = ins[la:la + lb] + (ins[end:] if op is par_comp else ())
            todo.append((op, g, t, gin, len(f.mem.at(t + 1)), None))
            s, ins = f, ins[:la] + ins[la + lb:end]
        else:
            r = s.kernel(t).lower(prog, ins) if op is None else ()
            while todo:
                op, g, t, gin, la2, r1 = todo.pop()
                if r1 is None:  # f is lowered: g next
                    todo.append((op, g, t, gin, la2, r))
                    s, ins = g, gin + (r[la2:] if op is seq_comp else ())
                    break
                lb2 = len(g.mem.at(t + 1))
                yf = r1[la2:] if op is par_comp else ()
                r = r1[:la2] + r[:lb2] + yf + r[lb2:]
            else:
                return r


def seq_comp(f: Stream, g: Stream) -> Stream:
    """Run ``f`` then ``g``, tick-synchronously; memories sit side by side."""
    if g.x != f.out_seq:
        raise ShapeMismatch(
            f"sequential composition: {f.out_seq!r} feeds {g.x!r}")
    return _node(seq_comp, (f, g), f.x, g.out_seq, f.mem.tensor(g.mem),
                 max(f.n, g.n))


def par_comp(f: Stream, g: Stream) -> Stream:
    """Run ``f`` and ``g`` side by side on concatenated wires."""
    return _node(par_comp, (f, g), f.x.tensor(g.x),
                 f.out_seq.tensor(g.out_seq), f.mem.tensor(g.mem),
                 max(f.n, g.n))


def delay(f: Stream) -> Stream:
    """Shift ``f`` one tick into the future; tick 0 carries no wires."""
    return _node(delay, (f,), f.x.cons(unit_shape),
                 f.out_seq.cons(unit_shape), f.mem.cons(unit_shape), f.n + 1)


def fbk(f: Stream, s) -> Stream:
    """Close a feedback loop over the bundle sequence ``s``.

    ``f`` must output the block ``s.at(t)`` in front at tick t and expect the
    block ``s.at(t-1)`` in front at tick t+1 (nothing at tick 0). The body
    lowers unchanged: the loop moves that block into memory.
    """
    if not isinstance(s, ShapeSeq):
        s = ShapeSeq.constant(s)
    fed = s.cons(unit_shape)
    n = max(len(f.x.prefix), len(f.out_seq.prefix), len(fed.prefix))
    x = ShapeSeq(
        [_strip_front(f.x.at(t), fed.at(t), f"feedback input, tick {t}")
         for t in range(n)],
        _strip_front(f.x.tail, fed.tail, "feedback input tail"))
    out_seq = ShapeSeq(
        [_strip_front(f.out_seq.at(t), s.at(t), f"feedback output, tick {t}")
         for t in range(n)],
        _strip_front(f.out_seq.tail, s.tail, "feedback output tail"))
    return _node(fbk, (f,), x, out_seq, f.mem.tensor(fed), f.n)


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


def register(shape) -> Stream:
    """One-place buffer: emits the first port at tick 0, afterwards emits the
    previous tick's second port (the first port is consumed and dropped)."""
    shape = tuple(shape)
    n = len(shape)
    two = shape + shape
    k0 = swap(shape, shape)  # (a, b) -> (store b, emit a)
    kt = rewire(shape + two, tuple(range(2 * n, 3 * n)) + tuple(range(n)))
    return Stream(ShapeSeq.constant(two), ShapeSeq.constant(shape),
                  ShapeSeq((unit_shape,), shape), (k0,), kt)


def wait_stream(shape) -> Stream:
    """One-tick buffer: emits nothing at tick 0, then the previous input."""
    shape = tuple(shape)
    k0 = identity_kernel(shape)  # x -> (store x | no output)
    kt = swap(shape, shape)      # (m, x) -> (store x, emit m)
    return Stream(ShapeSeq.constant(shape), ShapeSeq((unit_shape,), shape),
                  ShapeSeq((unit_shape,), shape), (k0,), kt)


# ---------------------------------------------------------------------------
# Observation
# ---------------------------------------------------------------------------

def _tick_rows(f: Stream, t: int, rows) -> tuple:
    """``(L, table)`` for tick ``t`` of ``f``: ``table`` maps each memory ++
    input row of ``rows`` to ``[(new memory, output, mass * L)]``, where
    ``L`` is the least common multiple of the rows' mass denominators."""
    k, lm = f.kernel(t), len(f.mem.at(t + 1))
    dists = [(r, k.dist(r).pairs()) for r in rows]
    L = lcm(*[q.denominator for _, d in dists for _, q in d])
    return L, {r: [(v[:lm], v[lm:], q.numerator * (L // q.denominator))
                   for v, q in d] for r, d in dists}


def _dist(weights: dict, scale: int) -> Dist:
    """The ``Dist`` of integer ``weights`` over the denominator ``scale``."""
    return Dist({v: Fraction(p, scale) for v, p in weights.items()})


class _Observation:
    """Incremental exact observation of ``stream`` against all input
    prefixes, ``t`` ticks so far.

    ``j`` maps each flat input prefix row to integer weights over
    (current memory row ++ output rows so far). All weights share the one
    denominator ``scale``: an entry of weight ``w`` has mass
    ``w / scale``. Each tick multiplies ``scale`` by the ``L`` of its
    :func:`_tick_rows`, so the update is integer arithmetic throughout;
    ``truncation()`` returns ``Dist`` tables.

    Prefixes share equal tables. A process whose outputs ignore or discard
    some inputs reaches one table from many prefixes, so ``j`` keeps each
    tick's distinct tables once and maps every prefix to its table object.
    ``advance`` builds the table of a (table, input row) pair the first
    time its loop reaches the pair, and merges it into an equal table
    built earlier in the tick; ``weights``, ``truncation`` and
    ``same_truncation`` then work once per distinct table or pair of
    tables. The state cap still counts a table's entries once per prefix.
    """

    def __init__(self, stream: Stream, cap: Optional[int] = None):
        self.cap = state_cap() if cap is None else cap
        self.stream = stream
        self.t = 0
        self.j = {(): {(): 1}}
        self.scale = 1

    def advance(self) -> None:
        f, t = self.stream, self.t
        x_shape = f.x.at(t)
        if not shape_enumerable(x_shape):
            raise NotEnumerable(
                f"cannot observe over non-enumerable input {x_shape!r}")
        lm = len(f.mem.at(t))
        x_rows = list(enumerate_rows(x_shape))
        tables = {id(w): w for w in self.j.values()}
        mems = {prev[:lm] for w in tables.values() for prev in w}
        L, rows = _tick_rows(f, t, [m + x for m in mems for x in x_rows])
        new_j = {}
        built = {}  # (id(table), input row) -> the table it leads to
        by_hash = {}  # order-independent hash -> first table built with it
        total = 0
        for xs, w in self.j.items():
            for x in x_rows:
                acc = built.get((id(w), x))
                if acc is None:
                    acc = {}
                    for prev, p in w.items():
                        ys = prev[lm:]
                        for m2, y, n in rows[prev[:lm] + x]:
                            key = m2 + ys + y
                            acc[key] = acc.get(key, 0) + p * n
                    same = by_hash.setdefault(sum(map(hash, acc.items())), acc)
                    if same is not acc and same == acc:
                        acc = same
                    built[id(w), x] = acc
                new_j[xs + x] = acc
                total += len(acc)
                if total > self.cap:
                    raise StateCapExceeded(total, self.cap, t)
        self.j = new_j
        self.scale *= L
        self.t = t + 1

    def weights(self) -> dict:
        """Memory-discarded integer weights over ``scale``:
        input prefix row -> {output rows: weight}, one dict per distinct
        table."""
        lm = len(self.stream.mem.at(self.t))
        if lm == 0:
            return self.j

        def discard_mem(w):
            acc = {}
            for row, p in w.items():
                ys = row[lm:]
                acc[ys] = acc.get(ys, 0) + p
            return acc

        return _per_table(self.j, discard_mem)

    def truncation(self) -> dict:
        """Memory-discarded joint: input prefix row -> ``Dist`` over output
        rows, one ``Dist`` per distinct table."""
        return _per_table(self.weights(), partial(_dist, scale=self.scale))

    def same_truncation(self, other: "_Observation") -> bool:
        """Whether both truncations are equal, by cross-multiplied weights,
        comparing each distinct pair of tables once.

        Both observations must run over the same input shapes.
        """
        ta, tb = self.weights(), other.weights()
        g = gcd(self.scale, other.scale)
        ka, kb = other.scale // g, self.scale // g
        pairs = {}
        for xs, wa in ta.items():
            wb = tb[xs]
            pairs[id(wa), id(wb)] = wa, wb
        return all(wa.keys() == wb.keys()
                   and all(p * ka == wb[ys] * kb for ys, p in wa.items())
                   for wa, wb in pairs.values())


def _per_table(j: dict, fn) -> dict:
    """``{xs: fn(w) for xs, w in j.items()}``, calling ``fn`` once per
    distinct table object, so prefixes that share a table share its image."""
    done, out = {}, {}
    for xs, w in j.items():
        r = done.get(id(w))
        if r is None:
            r = done[id(w)] = fn(w)
        out[xs] = r
    return out


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
    for _ in range(n + 1):
        obs.advance()
    table = obs.truncation()
    in_shapes = [f.x.at(t) for t in range(n + 1)]
    out_shapes = [f.out_seq.at(t) for t in range(n + 1)]
    kernel = Kernel(sum(in_shapes, ()), sum(out_shapes, ()),
                    lambda row: table[row])
    return NStageProcess(n, in_shapes, out_shapes, kernel)


def _compare(f: Stream, g: Stream, n: int, cap: Optional[int]) -> tuple:
    """``(k, a, b)``: the first tick k <= n whose truncations of ``f`` and
    ``g`` differ, or None, and the observations of both that decided it."""
    if f.in_seq != g.in_seq or f.out_seq != g.out_seq:
        raise ShapeMismatch(
            f"interfaces differ: {f.in_seq!r} -> {f.out_seq!r} vs "
            f"{g.in_seq!r} -> {g.out_seq!r}")
    a, b = _Observation(f, cap), _Observation(g, cap)
    for k in range(n + 1):
        a.advance()
        b.advance()
        if not a.same_truncation(b):
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

def _input_row(inputs, t: int, x_shape: Shape):
    x = () if inputs is None else tuple(inputs[t])
    if not row_in_shape(x, x_shape):
        raise ShapeMismatch(f"tick {t}: input {x!r} does not fit {x_shape!r}")
    return x


def _trace(f: Stream, inputs, n: int, choose) -> list:
    """Output rows of ticks 0..n, taking ``choose(t, dist)`` as tick t's
    memory and output row."""
    m_row = ()
    trace = []
    for t in range(n + 1):
        x = _input_row(inputs, t, f.x.at(t))
        row = choose(t, f.kernel(t).dist(m_row + x))
        lm = len(f.mem.at(t + 1))
        m_row = row[:lm]
        trace.append(row[lm:])
    return trace


def run_det(f: Stream, inputs=None, n: Optional[int] = None) -> list:
    """Evaluate a deterministic stream tickwise; returns the output rows.

    ``inputs`` is one value row per tick (omit for closed streams, passing
    ``n``). Any tick whose kernel yields a non-point distribution on the
    reached state raises NondeterministicStream.
    """
    if n is None:
        if inputs is None:
            raise ValueError("run_det needs inputs or an explicit tick count")
        n = len(inputs) - 1

    def point(t, d):
        if not d.is_dirac:
            raise NondeterministicStream(
                f"tick {t}: kernel produced a non-point distribution")
        return d.the_value()

    return _trace(f, inputs, n, point)


def sample_trace(f: Stream, inputs, n: int, seed: int) -> list:
    """Draw one trajectory; byte-reproducible for a given seed.

    A tick whose joint (memory ++ output) distribution is a point consumes
    no random bits, so on deterministic streams this equals run_det for
    every seed; any other tick takes ``sample_bits(d, k)`` for one 64-bit
    word ``k``, a bisection of the table ``d.cdf()`` that ``d`` keeps.
    """
    g = SplitMix64(seed)
    return _trace(f, inputs, n, lambda t, d: d.the_value() if d.is_dirac
                  else sample_bits(d, g.next_uint64()))


def observe_marginals(f: Stream, n: int, cap: Optional[int] = None) -> list:
    """Per-tick exact output marginals of a closed stream, ticks 0..n.

    Unlike observe(), the output history is integrated out as it goes: the
    state kept is integer weights over memory rows, and each tick's joint
    over (memory, output), whose entries the cap counts, is summed out to
    them and the tick's marginal — linear in n for bounded memory.
    """
    if f.in_seq != ShapeSeq.constant(unit_shape):
        raise ShapeMismatch("per-tick marginals need a closed stream")
    limit = state_cap() if cap is None else cap
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
        result.append(_dist(marg, scale))
    return result
