"""Coinductive synchronous stream processes.

A stream process maps an input wire sequence to an output wire sequence one
tick at a time. It is held as a deferred triple: a memory shape, a kernel
for the current tick (tick-0 input to memory ⊗ tick-0 output), and the rest
of the process, whose own tick-0 input carries that memory glued in front.
Unrolling is memoized, so any finite-depth behavior is computed once.

Equality of processes is decided observationally: two processes are compared
by their exact joint input/output distributions up to a finite horizon, with
the trailing memory discarded.

Observation of joint tables carries exact integer weights over one shared
denominator per table; each tick scales that denominator by the least common
multiple of the denominators of the kernel rows it reads. Results leave this
module as ``Fraction`` masses and :class:`Dist` tables.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, List, Optional, Sequence

from .errors import (
    NondeterministicStream,
    NotEnumerable,
    ShapeMismatch,
    StateCapExceeded,
)
from .kernel import (
    ONE,
    ZERO,
    Dist,
    Kernel,
    Shape,
    copy,
    discard,
    enumerate_rows,
    identity_kernel,
    rewire,
    row_in_shape,
    sample,
    shape_enumerable,
    swap,
    unit_shape,
)
from .rng import SplitMix64

DEFAULT_STATE_CAP = 10 ** 6


def state_cap() -> int:
    """The configured bound on exact joint-support size."""
    return int(os.environ.get("MSTREAM_STATE_CAP", DEFAULT_STATE_CAP))


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
        prefix = tuple(tuple(s) for s in prefix)
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

    def strip0(self, front) -> "ShapeSeq":
        """Drop a leading block from tick 0 only."""
        return self.drop(1).cons(_strip_front(self.at(0), front, "tick 0"))

    def tensor(self, other: "ShapeSeq") -> "ShapeSeq":
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

class Stream:
    """A synchronous stream process between two shape sequences.

    ``unroll()`` yields ``(mem, now, later)``: the memory shape written at
    this tick, the kernel ``in_seq.at(0) -> mem ⊗ out_seq.at(0)``, and the
    rest of the process with ``mem`` glued onto its tick-0 input. The triple
    is computed once and shape-checked against the declared sequences.
    """

    __slots__ = ("in_seq", "out_seq", "_thunk", "_cell")

    def __init__(self, in_seq: ShapeSeq, out_seq: ShapeSeq,
                 thunk: Callable[[], tuple]):
        self.in_seq = in_seq
        self.out_seq = out_seq
        self._thunk = thunk
        self._cell = None

    def unroll(self):
        if self._cell is None:
            mem, now, later = self._thunk()
            mem = tuple(mem)
            if tuple(now.in_shape) != self.in_seq.at(0):
                raise ShapeMismatch(
                    f"now kernel consumes {now.in_shape!r}, "
                    f"tick-0 input is {self.in_seq.at(0)!r}")
            if tuple(now.out_shape) != mem + self.out_seq.at(0):
                raise ShapeMismatch(
                    f"now kernel produces {now.out_shape!r}, "
                    f"expected {mem + self.out_seq.at(0)!r}")
            if later.in_seq != self.in_seq.drop(1).glue0(mem):
                raise ShapeMismatch(
                    f"rest consumes {later.in_seq!r}, "
                    f"expected {self.in_seq.drop(1).glue0(mem)!r}")
            if later.out_seq != self.out_seq.drop(1):
                raise ShapeMismatch(
                    f"rest produces {later.out_seq!r}, "
                    f"expected {self.out_seq.drop(1)!r}")
            self._cell = (mem, now, later)
        return self._cell

    def __repr__(self):
        return f"Stream({self.in_seq!r} -> {self.out_seq!r})"


def mealy(in_seq: ShapeSeq, out_seq: ShapeSeq,
          mem_at: Callable[[int], Shape],
          k_at: Callable[[int], Kernel]) -> Stream:
    """Build a stream from per-tick kernels threading explicit memory.

    ``k_at(t)`` must map ``mem_at(t-1) ⊗ in_seq.at(t)`` to
    ``mem_at(t) ⊗ out_seq.at(t)``, with ``mem_at(-1)`` the empty shape.
    """

    def stage(t: int) -> Stream:
        prev = unit_shape if t == 0 else tuple(mem_at(t - 1))
        return Stream(in_seq.drop(t).glue0(prev), out_seq.drop(t),
                      lambda: (tuple(mem_at(t)), k_at(t), stage(t + 1)))

    return stage(0)


def lift_seq(ks: Sequence[Kernel], k_tail: Kernel) -> Stream:
    """Memoryless stream applying the t-th kernel at tick t (then the tail)."""
    ks = tuple(ks)
    in_seq = ShapeSeq([k.in_shape for k in ks], k_tail.in_shape)
    out_seq = ShapeSeq([k.out_shape for k in ks], k_tail.out_shape)
    return mealy(in_seq, out_seq, lambda t: unit_shape,
                 lambda t: ks[t] if t < len(ks) else k_tail)


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

def _seq(f: Stream, g: Stream, a: Shape, b: Shape) -> Stream:
    # a/b are the memory blocks already glued onto f's/g's tick-0 inputs
    if g.in_seq.strip0(b) != f.out_seq:
        raise ShapeMismatch(
            f"sequential composition: {f.out_seq!r} feeds {g.in_seq!r}")
    x0 = f.in_seq.at(0)[len(a):]
    in_seq = f.in_seq.drop(1).cons(a + b + x0)
    out_seq = g.out_seq

    def thunk():
        mf, now_f, later_f = f.unroll()
        mg, now_g, later_g = g.unroll()
        la, lb, lmf = len(a), len(b), len(mf)

        def rule(row):
            ra, rb, rx = row[:la], row[la:la + lb], row[la + lb:]
            out = {}
            for ry, p in now_f.dist(ra + rx).pairs():
                m1, y = ry[:lmf], ry[lmf:]
                for rz, q in now_g.dist(rb + y).pairs():
                    key = m1 + rz
                    out[key] = out.get(key, ZERO) + p * q
            return Dist(out)

        now = Kernel(a + b + x0, mf + mg + g.out_seq.at(0), rule,
                     deterministic=now_f.deterministic and now_g.deterministic)
        return (mf + mg, now, _seq(later_f, later_g, mf, mg))

    return Stream(in_seq, out_seq, thunk)


def seq_comp(f: Stream, g: Stream) -> Stream:
    """Run ``f`` then ``g``, tick-synchronously; memories sit side by side."""
    return _seq(f, g, unit_shape, unit_shape)


def _par(f: Stream, g: Stream, a: Shape, b: Shape) -> Stream:
    x0f = f.in_seq.at(0)[len(a):]
    x0g = g.in_seq.at(0)[len(b):]
    in_seq = f.in_seq.drop(1).tensor(g.in_seq.drop(1)).cons(a + b + x0f + x0g)
    out_seq = f.out_seq.tensor(g.out_seq)

    def thunk():
        mf, now_f, later_f = f.unroll()
        mg, now_g, later_g = g.unroll()
        la, lb, lx = len(a), len(b), len(x0f)
        lmf, lmg = len(mf), len(mg)

        def rule(row):
            ra, rb = row[:la], row[la:la + lb]
            rx, rx2 = row[la + lb:la + lb + lx], row[la + lb + lx:]
            out = {}
            for r1, p in now_f.dist(ra + rx).pairs():
                m1, y1 = r1[:lmf], r1[lmf:]
                for r2, q in now_g.dist(rb + rx2).pairs():
                    key = m1 + r2[:lmg] + y1 + r2[lmg:]
                    out[key] = out.get(key, ZERO) + p * q
            return Dist(out)

        now = Kernel(a + b + x0f + x0g,
                     mf + mg + f.out_seq.at(0) + g.out_seq.at(0), rule,
                     deterministic=now_f.deterministic and now_g.deterministic)
        return (mf + mg, now, _par(later_f, later_g, mf, mg))

    return Stream(in_seq, out_seq, thunk)


def par_comp(f: Stream, g: Stream) -> Stream:
    """Run ``f`` and ``g`` side by side on concatenated wires."""
    return _par(f, g, unit_shape, unit_shape)


def delay(f: Stream) -> Stream:
    """Shift ``f`` one tick into the future; tick 0 carries no wires."""
    return Stream(f.in_seq.cons(unit_shape), f.out_seq.cons(unit_shape),
                  lambda: (unit_shape, identity_kernel(unit_shape), f))


def fbk(f: Stream, s) -> Stream:
    """Close a feedback loop over the bundle sequence ``s``.

    ``f`` must output the block ``s.at(t)`` in front at tick t and expect the
    block ``s.at(t-1)`` in front at tick t+1 (nothing at tick 0); the loop
    reroutes that block through memory, one tick later.
    """
    if not isinstance(s, ShapeSeq):
        s = ShapeSeq.constant(s)
    n = max(len(f.in_seq.prefix), len(f.out_seq.prefix), len(s.prefix) + 1, 1)
    in_seq = ShapeSeq(
        [f.in_seq.at(0)] + [_strip_front(f.in_seq.at(t), s.at(t - 1),
                                         f"feedback input, tick {t}")
                            for t in range(1, n)],
        _strip_front(f.in_seq.tail, s.tail, "feedback input tail"))
    out_seq = ShapeSeq(
        [_strip_front(f.out_seq.at(t), s.at(t), f"feedback output, tick {t}")
         for t in range(n)],
        _strip_front(f.out_seq.tail, s.tail, "feedback output tail"))

    def thunk():
        mem, now, later = f.unroll()
        return (mem + s.at(0), now, fbk(later, s.drop(1)))

    return Stream(in_seq, out_seq, thunk)


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
    return mealy(ShapeSeq.constant(two), ShapeSeq.constant(shape),
                 lambda t: shape, lambda t: k0 if t == 0 else kt)


def wait_stream(shape) -> Stream:
    """One-tick buffer: emits nothing at tick 0, then the previous input."""
    shape = tuple(shape)
    k0 = identity_kernel(shape)  # x -> (store x | no output)
    kt = swap(shape, shape)      # (m, x) -> (store x, emit m)
    return mealy(ShapeSeq.constant(shape), ShapeSeq((unit_shape,), shape),
                 lambda t: shape, lambda t: k0 if t == 0 else kt)


# ---------------------------------------------------------------------------
# Observation
# ---------------------------------------------------------------------------

class _Observation:
    """Incremental exact unrolling against all input prefixes.

    ``j`` maps each flat input prefix row to integer weights over
    (current memory row ++ output rows so far). All weights share the one
    denominator ``scale``: an entry of weight ``w`` has mass
    ``w / scale``. Each tick multiplies ``scale`` by the least common
    multiple of the denominators of the kernel rows the tick reads, so the
    update is integer arithmetic throughout; ``truncation()`` returns
    ``Fraction`` masses.
    """

    def __init__(self, stream: Stream, cap: Optional[int] = None):
        self.cap = state_cap() if cap is None else cap
        self.stream = stream
        self.mem_len = 0
        self.in_shapes: List[Shape] = []
        self.out_shapes: List[Shape] = []
        self.j = {(): {(): 1}}
        self.scale = 1

    def advance(self) -> None:
        cur = self.stream
        mem, now, later = cur.unroll()
        x_shape = cur.in_seq.at(0)[self.mem_len:]
        if not shape_enumerable(x_shape):
            raise NotEnumerable(
                f"cannot observe over non-enumerable input {x_shape!r}")
        y_shape = cur.out_seq.at(0)
        lm_old, lm_new = self.mem_len, len(mem)
        x_rows = list(enumerate_rows(x_shape))
        mems = {prev[:lm_old] for w in self.j.values() for prev in w}
        dists = {m + x: now.dist(m + x) for m in mems for x in x_rows}
        L = lcm(*{q.denominator for d in dists.values() for _, q in d.pairs()})
        # each kernel row as (new memory, this tick's output, mass * L)
        rows = {r: [(v[:lm_new], v[lm_new:], q.numerator * (L // q.denominator))
                    for v, q in d.pairs()]
                for r, d in dists.items()}
        new_j = {}
        total = 0
        for xs, w in self.j.items():
            split = [(prev[:lm_old], prev[lm_old:], p)
                     for prev, p in w.items()]
            for x in x_rows:
                acc = {}
                for m, ys, p in split:
                    for m2, y, n in rows[m + x]:
                        key = m2 + ys + y
                        acc[key] = acc.get(key, 0) + p * n
                new_j[xs + x] = acc
                total += len(acc)
                if total > self.cap:
                    raise StateCapExceeded(total, self.cap)
        self.j = new_j
        self.scale *= L
        self.mem_len = lm_new
        self.in_shapes.append(x_shape)
        self.out_shapes.append(y_shape)
        self.stream = later

    def weights(self) -> dict:
        """Memory-discarded integer weights over ``scale``:
        input prefix row -> {output rows: weight}."""
        lm = self.mem_len
        if lm == 0:
            return self.j
        out = {}
        for xs, w in self.j.items():
            acc = {}
            for row, p in w.items():
                ys = row[lm:]
                acc[ys] = acc.get(ys, 0) + p
            out[xs] = acc
        return out

    def truncation(self) -> dict:
        """Memory-discarded joint: input prefix row -> {output rows: mass}."""
        s = self.scale
        return {xs: {ys: Fraction(p, s) for ys, p in acc.items()}
                for xs, acc in self.weights().items()}

    def same_truncation(self, other: "_Observation") -> bool:
        """Whether both truncations are equal, by cross-multiplied weights.

        Both observations must run over the same input shapes.
        """
        ta, tb = self.weights(), other.weights()
        g = gcd(self.scale, other.scale)
        ka, kb = other.scale // g, self.scale // g
        if ka == kb == 1:
            return ta == tb
        for xs, wa in ta.items():
            wb = tb[xs]
            if wa.keys() != wb.keys() or any(
                    p * ka != wb[ys] * kb for ys, p in wa.items()):
                return False
        return True


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
    table = {xs: Dist(acc) for xs, acc in obs.truncation().items()}
    in_shape = sum(obs.in_shapes, ())
    out_shape = sum(obs.out_shapes, ())
    kernel = Kernel(in_shape, out_shape, lambda row: table[row],
                    deterministic=all(d.is_dirac for d in table.values()))
    return NStageProcess(n, obs.in_shapes, obs.out_shapes, kernel)


def first_difference(f: Stream, g: Stream, n: int,
                     cap: Optional[int] = None) -> Optional[int]:
    """The first tick k <= n whose truncations of ``f`` and ``g`` differ,
    or None when they agree at every horizon up to n."""
    if f.in_seq != g.in_seq:
        raise ShapeMismatch(f"inputs differ: {f.in_seq!r} vs {g.in_seq!r}")
    if f.out_seq != g.out_seq:
        raise ShapeMismatch(f"outputs differ: {f.out_seq!r} vs {g.out_seq!r}")
    a, b = _Observation(f, cap), _Observation(g, cap)
    for k in range(n + 1):
        a.advance()
        b.advance()
        if not a.same_truncation(b):
            return k
    return None


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
    cur, m_row, mem_len = f, (), 0
    trace = []
    for t in range(n + 1):
        mem, now, later = cur.unroll()
        x = _input_row(inputs, t, cur.in_seq.at(0)[mem_len:])
        d = now.dist(m_row + x)
        if not d.is_dirac:
            raise NondeterministicStream(
                f"tick {t}: kernel produced a non-point distribution")
        row = d.the_value()
        m_row = row[:len(mem)]
        trace.append(row[len(mem):])
        cur, mem_len = later, len(mem)
    return trace


def sample_trace(f: Stream, inputs, n: int, seed: int) -> list:
    """Draw one trajectory; byte-reproducible for a given seed.

    Random bits are consumed only at genuinely stochastic ticks, so on
    deterministic streams this equals run_det for every seed.
    """
    g = SplitMix64(seed)
    cur, m_row, mem_len = f, (), 0
    trace = []
    for t in range(n + 1):
        mem, now, later = cur.unroll()
        x = _input_row(inputs, t, cur.in_seq.at(0)[mem_len:])
        d = now.dist(m_row + x)
        row = d.the_value() if d.is_dirac else sample(d, g.next_fraction())
        m_row = row[:len(mem)]
        trace.append(row[len(mem):])
        cur, mem_len = later, len(mem)
    return trace


def observe_marginals(f: Stream, n: int, cap: Optional[int] = None) -> list:
    """Per-tick exact output marginals of a closed stream, ticks 0..n.

    Unlike observe(), the output history is integrated out as it goes, so
    the state kept is only (memory ⊗ current output) — linear in n for
    bounded memory.
    """
    if f.in_seq != ShapeSeq.constant(unit_shape):
        raise ShapeMismatch("per-tick marginals need a closed stream")
    limit = state_cap() if cap is None else cap
    cur = f
    w = {(): ONE}  # memory row -> mass
    result = []
    for _ in range(n + 1):
        mem, now, later = cur.unroll()
        lm = len(mem)
        joint = {}
        for m, p in w.items():
            for row, q in now.dist(m).pairs():
                joint[row] = joint.get(row, ZERO) + p * q
        if len(joint) > limit:
            raise StateCapExceeded(len(joint), limit)
        marg = {}
        w = {}
        for row, p in joint.items():
            y = row[lm:]
            marg[y] = marg.get(y, ZERO) + p
            w[row[:lm]] = w.get(row[:lm], ZERO) + p
        result.append(Dist(marg))
        cur = later
    return result
